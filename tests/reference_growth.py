"""Piece-by-piece reference for phase 1 (test-side only).

`run_phase1_reference` is the earlier phase-1 loop: it keeps the inventory as
a list of GhzPieces, builds a new piece for every merged and re-prepared
atom, and takes the round means from the pieces.  `tglab.growth.run_phase1`
keeps parallel lists of sizes, tilts and member cavities instead; tests
require both to give equal pieces and RunStats.
"""

import numpy as np

from tglab.growth import (
    MAX_ROUNDS,
    GhzPiece,
    InventoryExhausted,
    RoundRow,
    RunStats,
    effective_pair_tilts,
    pair_inventory,
)
from tglab.heralding import sample_dh
from tglab.seeding import PAIRING, PHASE1, derive_rng
from tglab.tilted_graph import QUARTER_PI


def _phase1_attempt(piece_a, piece_b, cfg, u, round_idx):
    """One DH attempt between two pieces on the five uniforms `u`; returns
    the merged piece or None."""
    ta, tb = effective_pair_tilts(piece_a.tilt, piece_b.tilt, cfg.flip_rule)
    cav_a = piece_a.cavities[round_idx % piece_a.size]
    cav_b = piece_b.cavities[round_idx % piece_b.size]
    out = sample_dh(ta, tb, cfg.profiles[cav_a], cfg.profiles[cav_b], u,
                    cfg.detection_efficiency)
    if not out.success:
        return None
    return GhzPiece(piece_a.size + piece_b.size, out.theta_beta,
                    piece_a.cavities + piece_b.cavities)


def run_phase1_reference(cfg, stats=None, scan_reverse=False):
    cavities = sorted(cfg.profiles)
    if len(cavities) < cfg.target_ghz_size:
        raise InventoryExhausted(
            f"{len(cavities)} cavities cannot host a {cfg.target_ghz_size}-qubit GHZ")
    stats = stats or RunStats()
    pieces = [GhzPiece(1, QUARTER_PI, (c,)) for c in cavities]
    stats.qubits_drawn += len(pieces)

    for round_idx in range(MAX_ROUNDS):
        active = [i for i, p in enumerate(pieces) if p.size < cfg.target_ghz_size]
        if not active:
            stats.close(pieces)
            return pieces, stats
        if cfg.pairing == "random":
            perm = derive_rng(cfg.seed, PAIRING, round_idx).permutation(len(active))
            order = [active[k] for k in perm]
            pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
        else:
            sub_pairs, _ = pair_inventory([pieces[i].tilt for i in active])
            pairs = [(active[i], active[j]) for i, j in sub_pairs]
        if not pairs:
            stats.close(pieces)
            return pieces, stats

        results = [None] * len(pairs)
        draws = derive_rng(cfg.seed, PHASE1, round_idx).random((len(pairs), 5)).tolist()
        scan = range(len(pairs) - 1, -1, -1) if scan_reverse else range(len(pairs))
        for k in scan:
            ia, ib = pairs[k]
            results[k] = _phase1_attempt(pieces[ia], pieces[ib], cfg, draws[k], round_idx)

        # survivors keep their index order; re-prepared atoms go to the end
        consumed = 0
        survivors, fresh = list(pieces), []
        for k, (ia, ib) in enumerate(pairs):
            stats.dh_attempts += 1
            merged = results[k]
            survivors[ib] = None
            if merged is not None:
                stats.dh_successes += 1
                survivors[ia] = merged
            else:
                lost = pieces[ia].size + pieces[ib].size
                consumed += lost
                stats.qubits_consumed += lost
                stats.qubits_drawn += lost
                survivors[ia] = GhzPiece(1, QUARTER_PI, (pieces[ia].cavities[0],))
                fresh += [GhzPiece(1, QUARTER_PI, (c,))
                          for c in pieces[ia].cavities[1:] + pieces[ib].cavities]
        pieces = [p for p in survivors if p is not None] + fresh
        stats.rounds.append(RoundRow(
            round_idx, len(pairs), sum(r is not None for r in results), consumed,
            float(np.mean([p.tilt for p in pieces])),
            float(np.mean([p.fidelity for p in pieces]))))
    raise InventoryExhausted(f"no piece reached size {cfg.target_ghz_size} "
                             f"within {MAX_ROUNDS} rounds")
