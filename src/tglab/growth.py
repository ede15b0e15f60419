"""Three-phase Monte Carlo growth engine.

Phase 1 grows GHZ pieces by pairwise double heralding with the tilt-based
strategies (the spin-flip rule and sorted-tilt pairing); at the phase
boundary, pieces below the fidelity acceptance are purified by repeated
realignment; phases 2 and 3 join the purified pieces into a large GHZ
(merge chain) or a linear cluster (bridge chain), recycling the partial
annotation left by failed attempts.

Pieces are tracked abstractly in phase 1 ((size, tilt, member cavities) is
a complete description of a GHZ resource, kept in parallel lists until
the phase ends); the join phase materialises the
inventory as a TiltedGraph and drives the heralding and procedure rewrites
directly, so small campaigns can be replayed on the state-vector oracle.

Every random decision draws from a generator derived from the campaign seed,
its kind's stream tag and its coordinates (see seeding, also for aliasing).
Phase 1 derives one generator per round and draws one block of uniforms
from it, five per pair, and pair k reads row k.  A round's pairs are
disjoint, so results do not depend on evaluation order by construction:
any schedule of a round's attempts produces identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import GraphConfigError, TglabError
from .heralding import apply_dh_to_graph, sample_dh
from .procedures import bridge, choose_method, merge, p_success, r_function, realign
from .seeding import JOIN, JOIN_REALIGN, PAIRING, PHASE1, REALIGN, derive_rng
from .tilted_graph import QUARTER_PI, TiltedGraph, canonical_angle, ghz_graph, swap_tilt

PAIRINGS = ("sorted", "random")
JOIN_METHODS = ("auto", "force-i", "force-ii")
JOIN_KINDS = ("bridge", "merge")
MAX_ROUNDS = 100_000        # phase-1 rounds, and DH attempts per join


class InventoryExhausted(TglabError):
    """The qubit supply ran out before the target was reached."""


@dataclass(frozen=True)
class GhzPiece:
    """One GHZ resource: qubit count, tilt, and the member cavity ids."""

    size: int
    tilt: float
    cavities: tuple

    @property
    def fidelity(self) -> float:
        """f = (1 + |sin 2 theta|)/2; the tilt sign is a correctable Z error."""
        return _fidelity(self.tilt)


def _fidelity(tilt: float) -> float:
    """GhzPiece.fidelity of a piece with this tilt."""
    return 0.5 * (1.0 + abs(math.sin(2.0 * tilt)))


@dataclass(frozen=True)
class StrategyConfig:
    """Campaign parameters.  All randomness derives from the single seed."""

    profiles: dict                      # cavity id -> LeakageProfile
    seed: int
    target_ghz_size: int = 4
    fidelity_acceptance: float = 1.0    # minimum f in (1/2, 1]
    pairing: str = "sorted"             # "sorted" | "random"
    flip_rule: bool = True
    join_method: str = "auto"           # "auto" | "force-i" | "force-ii"
    detection_efficiency: float = 1.0
    join_nodes: int = 0                 # 0 skips the join phase
    join_kind: str = "bridge"           # "bridge" | "merge"
    recycle_annotations: bool = True

    def __post_init__(self):
        if not self.profiles:
            raise GraphConfigError("the cavity pool is empty")
        if self.seed < 0:
            raise GraphConfigError(f"seed must be at least 0, got {self.seed}")
        if self.target_ghz_size < 2:
            raise GraphConfigError("target GHZ size must be at least 2")
        if not (0.5 < self.fidelity_acceptance <= 1.0):
            raise GraphConfigError("fidelity acceptance must lie in (1/2, 1]")
        if self.pairing not in PAIRINGS:
            raise GraphConfigError(f"unknown pairing strategy {self.pairing!r}")
        if self.join_method not in JOIN_METHODS:
            raise GraphConfigError(f"unknown join method {self.join_method!r}")
        if self.join_kind not in JOIN_KINDS:
            raise GraphConfigError(f"unknown join kind {self.join_kind!r}")
        if not (0.0 < self.detection_efficiency <= 1.0):
            raise GraphConfigError("detection efficiency must lie in (0, 1], "
                                   f"got {self.detection_efficiency}")
        if self.join_nodes < 0:
            raise GraphConfigError(f"join node count must be non-negative, got {self.join_nodes}")


@dataclass
class RoundRow:
    round: int
    attempts: int
    successes: int
    qubits_consumed: int
    mean_tilt: float
    mean_fidelity: float


@dataclass
class RunStats:
    """Monte Carlo accounting of a growth campaign."""

    dh_attempts: int = 0
    dh_successes: int = 0
    qubits_drawn: int = 0
    qubits_consumed: int = 0
    realignments_attempted: int = 0
    realignments_succeeded: int = 0
    merges: int = 0
    bridges: int = 0
    join_dh_attempts: int = 0
    rounds: list = field(default_factory=list)
    final_sizes: tuple = ()
    mean_final_fidelity: float = 0.0

    def close(self, pieces):
        self.final_sizes = tuple(sorted(p.size for p in pieces))
        self.mean_final_fidelity = (
            float(np.mean([p.fidelity for p in pieces])) if pieces else 0.0)

    def round_csv_rows(self):
        yield ("round", "attempts", "successes", "qubits_consumed", "mean_tilt", "mean_fidelity")
        for r in self.rounds:
            yield (r.round, r.attempts, r.successes, r.qubits_consumed,
                   r.mean_tilt, r.mean_fidelity)

    def summary_csv_rows(self):
        """Header, every int counter in declaration order, then the final pieces."""
        yield ("quantity", "value")
        for f in fields(self):
            if f.type == "int":
                yield (f.name, getattr(self, f.name))
        yield ("final_pieces", len(self.final_sizes))
        yield ("mean_final_fidelity", self.mean_final_fidelity)


# ---------------------------------------------------------------------------
# Phase-1 strategies
# ---------------------------------------------------------------------------

def maybe_flip(theta_a: float, theta_b: float) -> bool:
    """Spin-flip rule: whether to flip the second partner (the tilts are far apart).

    The trigger is |sin^2(theta_a) - sin^2(theta_b)| > 1/2; flipping maps
    theta -> pi/2 - theta and always brings the difference within 1/2.
    """
    return abs(math.sin(theta_a) ** 2 - math.sin(theta_b) ** 2) > 0.5


def pair_inventory(tilts) -> tuple[list, int | None]:
    """Sort by descending tilt and pair adjacent items.

    Returns ([(i, j), ...], leftover_index) of indices into `tilts`;
    an odd piece waits for the next round.
    """
    order = sorted(range(len(tilts)), key=tilts.__getitem__, reverse=True)  # stable: ties by i
    pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
    leftover = order[-1] if len(order) % 2 else None
    return pairs, leftover


def effective_pair_tilts(theta_a: float, theta_b: float, flip_rule: bool) -> tuple[float, float]:
    """Tilts actually fed to a phase-1 DH attempt after the spin-flip rule."""
    if flip_rule and maybe_flip(theta_a, theta_b):
        theta_b = swap_tilt(theta_b)
    return theta_a, theta_b


def run_phase1(cfg: StrategyConfig, stats: RunStats | None = None) -> tuple[list, RunStats]:
    """Grow GHZ pieces to the target size by pairwise double heralding.

    Failed applications project both pieces into separable states; their
    atoms are re-prepared as fresh single-qubit pieces.  Each round draws
    one (pairs x 5) block of uniforms from its own stream and pair k reads
    row k.  The pairs are disjoint and attempt k reads and writes only its
    own two pieces, so the results do not depend on the order in which a
    round's attempts run.

    The inventory is kept as parallel lists (size, tilt, fidelity and member
    cavities of each piece); the GhzPieces are built once, at the end.
    """
    cavities = sorted(cfg.profiles)
    if len(cavities) < cfg.target_ghz_size:
        raise InventoryExhausted(
            f"{len(cavities)} cavities cannot host a {cfg.target_ghz_size}-qubit GHZ")
    stats = stats or RunStats()
    profiles, flip_rule, efficiency = cfg.profiles, cfg.flip_rule, cfg.detection_efficiency
    atom_fidelity, n = _fidelity(QUARTER_PI), len(cavities)
    sizes, tilts, fidelities = [1] * n, [QUARTER_PI] * n, [atom_fidelity] * n
    members = [(c,) for c in cavities]
    stats.qubits_drawn += n

    for round_idx in range(MAX_ROUNDS):
        active = [i for i, size in enumerate(sizes) if size < cfg.target_ghz_size]
        if not active:
            break
        if cfg.pairing == "random":
            perm = derive_rng(cfg.seed, PAIRING, round_idx).permutation(len(active))
            order = [active[k] for k in perm]
            pairs = [(order[k], order[k + 1]) for k in range(0, len(order) - 1, 2)]
        else:
            sub_pairs, _ = pair_inventory([tilts[i] for i in active])
            pairs = [(active[i], active[j]) for i, j in sub_pairs]
        if not pairs:
            break

        successes, consumed, fresh = 0, 0, []
        draws = derive_rng(cfg.seed, PHASE1, round_idx).random((len(pairs), 5)).tolist()
        for (ia, ib), row in zip(pairs, draws):
            ta, tb = effective_pair_tilts(tilts[ia], tilts[ib], flip_rule)
            out = sample_dh(ta, tb, profiles[members[ia][round_idx % sizes[ia]]],
                            profiles[members[ib][round_idx % sizes[ib]]], row, efficiency)
            if out.success:
                successes += 1
                sizes[ia] += sizes[ib]
                tilts[ia], fidelities[ia] = out.theta_beta, _fidelity(out.theta_beta)
                members[ia] += members[ib]
            else:
                consumed += sizes[ia] + sizes[ib]
                fresh += members[ia][1:] + members[ib]
                sizes[ia], tilts[ia], fidelities[ia] = 1, QUARTER_PI, atom_fidelity
                members[ia] = members[ia][:1]
            sizes[ib] = 0
        # survivors keep their index order; re-prepared atoms go to the end
        kept = [i for i, size in enumerate(sizes) if size]
        sizes = [sizes[i] for i in kept] + [1] * len(fresh)
        tilts = [tilts[i] for i in kept] + [QUARTER_PI] * len(fresh)
        fidelities = [fidelities[i] for i in kept] + [atom_fidelity] * len(fresh)
        members = [members[i] for i in kept] + [(c,) for c in fresh]
        stats.dh_attempts += len(pairs)
        stats.dh_successes += successes
        stats.qubits_consumed += consumed
        stats.qubits_drawn += consumed
        stats.rounds.append(RoundRow(
            round_idx, len(pairs), successes, consumed, float(np.mean(tilts)),
            float(np.mean(fidelities))))
    else:
        raise InventoryExhausted(f"no piece reached size {cfg.target_ghz_size} "
                                 f"within {MAX_ROUNDS} rounds")
    pieces = [GhzPiece(*piece) for piece in zip(sizes, tilts, members)]
    stats.close(pieces)
    return pieces, stats


# ---------------------------------------------------------------------------
# Phase boundary: realignment
# ---------------------------------------------------------------------------

def realign_piece(piece: GhzPiece, acceptance: float, seed: int, piece_idx: int,
                  stats: RunStats, tag: int = REALIGN) -> GhzPiece | None:
    """Run the realignment loop on one piece (streams under `tag`); None when used up."""
    attempt = 0
    while piece.fidelity < acceptance - 1e-12 and piece.size >= 2:
        rng = derive_rng(seed, tag, piece_idx, attempt)
        p = p_success(piece.tilt)
        stats.realignments_attempted += 1
        stats.qubits_consumed += 1
        if rng.random() < p:
            stats.realignments_succeeded += 1
            piece = GhzPiece(piece.size - 1, QUARTER_PI, piece.cavities[:-1])
        else:
            piece = GhzPiece(piece.size - 1, canonical_angle(-r_function(piece.tilt)),
                             piece.cavities[:-1])
        attempt += 1
    if piece.fidelity < acceptance - 1e-12:
        stats.qubits_consumed += piece.size
        return None
    return piece


def run_realignment(pieces, acceptance: float, seed: int,
                    stats: RunStats | None = None) -> tuple[list, RunStats]:
    """Purify every piece below the acceptance; discard exhausted ones."""
    stats = stats or RunStats()
    out = []
    for idx, piece in enumerate(pieces):
        kept = realign_piece(piece, acceptance, seed, idx, stats)
        if kept is not None:
            out.append(kept)
    stats.close(out)
    return out, stats


# ---------------------------------------------------------------------------
# Phases 2 and 3: joining
# ---------------------------------------------------------------------------

def _materialise(pieces) -> tuple[TiltedGraph, list, dict]:
    """Lay the inventory out as one graph of (frame-corrected) GHZ stars.

    Known Pauli frames accumulated during phase 1 are corrected at the phase
    boundary, so every piece enters as a clean star.  Returns the graph, the
    list of centre ids, and the vertex -> cavity map.
    """
    vertices, edges, centers, cavity_of = [], [], [], {}
    nid = 0
    for piece in pieces:
        ids = list(range(nid, nid + piece.size))
        star = ghz_graph(ids, piece.tilt)
        vertices.extend(star.vertices())
        edges.extend(star.edges())
        centers.append(ids[0])
        for vid, cav in zip(ids, piece.cavities):
            cavity_of[vid] = cav
        nid += piece.size
    return TiltedGraph(vertices, edges), centers, cavity_of


def _free_leaf(g: TiltedGraph, center: int) -> int | None:
    """A plain Hadamard leaf of `center` that a DH attempt may sacrifice."""
    for nb in g.neighbors(center):
        v = g.vertex(nb)
        if v.hadamard and g.degree(nb) == 1 and not v.x_flip and not v.z_phase:
            return nb
    return None


def _join_once(g: TiltedGraph, anchor: int, other: int, cfg: StrategyConfig,
               join_idx: int, stats: RunStats, cavity_of: dict,
               trace: list | None = None) -> TiltedGraph:
    """Join the nodes headed by `anchor` and `other` by merge or bridge.

    Repeats double heralding on sacrificial leaves, applies the method
    (i)/(ii) decision, and recycles (or discards) the partial annotation
    across procedure failures until the pure join lands.  `trace`, when
    given, collects every quantum event so tests can replay the join on
    the state-vector oracle.
    """
    proc = merge if cfg.join_kind == "merge" else bridge
    for attempt in range(MAX_ROUNDS):
        rng = derive_rng(cfg.seed, JOIN, join_idx, attempt)
        qa = _free_leaf(g, anchor)
        qb = _free_leaf(g, other)
        if qa is None or qb is None:
            raise InventoryExhausted(
                f"join {join_idx}: no sacrificial qubits left after {attempt} attempts")
        # removing the Hadamard label turns the leaves into cherry-config qubits
        g = g.edited(vertices=[replace(g.vertex(q), hadamard=False) for q in (qa, qb)])
        out = sample_dh(g.vertex(qa).tilt, g.vertex(qb).tilt, cfg.profiles[cavity_of[qa]],
                        cfg.profiles[cavity_of[qb]], rng.random(5), cfg.detection_efficiency)
        stats.join_dh_attempts += 1
        if trace is not None:
            trace.append(("dh", qa, qb, out, cavity_of[qa], cavity_of[qb],
                          g.neighbors(qa)[0], g.neighbors(qb)[0]))
        g = apply_dh_to_graph(g, qa, qb, out)
        stats.qubits_consumed += 0 if out.success else 2
        if not out.success:
            continue
        central, cherry = qa, qb
        annot = g.edge(anchor, other)
        gamma = annot.phi if annot is not None else 0.0
        if cfg.join_method == "auto":
            method = choose_method(g.vertex(central).tilt, gamma, cfg.join_kind).method
        else:
            method = {"force-i": "i", "force-ii": "ii"}[cfg.join_method]
        if method == "ii":
            rec, g = realign(g, cherry, rng=rng)
            stats.realignments_attempted += 1
            stats.realignments_succeeded += int(rec.success)
            if trace is not None:
                trace.append(("procedure", rec))
        else:
            # method (i): an X-basis measurement removes the Hadamard cherry
            # cleanly (byproduct corrected on the spot)
            g = g.without_vertices([cherry])
            if trace is not None:
                trace.append(("discard_cherry", cherry, central))
        stats.qubits_consumed += 1
        rec, g = proc(g, central, rng=rng)
        stats.qubits_consumed += 1
        if trace is not None:
            trace.append(("procedure", rec))
        if cfg.join_kind == "merge":
            stats.merges += 1
        else:
            stats.bridges += 1
        # a maximal annotation is canonicalized to the pure join
        if rec.annotation_after.maximal:
            return g
        if not cfg.recycle_annotations and g.edge(anchor, other) is not None:
            g = g.without_edge(anchor, other)
    raise InventoryExhausted(f"join {join_idx} did not complete within the attempt budget")


def run_join(pieces, cfg: StrategyConfig, stats: RunStats | None = None,
             trace: list | None = None) -> tuple[TiltedGraph, list, RunStats]:
    """Join `cfg.join_nodes` untilted pieces into a chain (bridge) or GHZ (merge).

    Returns the final graph, the node-centre ids, and the statistics.
    Pieces still tilted at this stage are realigned to exactly untilted
    first (the procedure formulas require pure segments).
    """
    if cfg.join_nodes == 0:
        raise GraphConfigError("join_nodes = 0 joins no pieces; run_pipeline skips the phase")
    stats = stats or RunStats()
    usable = []
    for idx, piece in enumerate(pieces):
        if piece.fidelity < 1.0 - 1e-12:
            piece = realign_piece(piece, 1.0, cfg.seed, idx, stats, JOIN_REALIGN)
        if piece is not None and piece.size >= 3:
            usable.append(piece)
    if len(usable) < cfg.join_nodes:
        raise InventoryExhausted(
            f"need {cfg.join_nodes} pieces of size >= 3 for the join phase, have {len(usable)}")
    usable = sorted(usable, key=lambda p: -p.size)[:cfg.join_nodes]
    g, centers, cavity_of = _materialise(usable)
    if trace is not None:
        trace.append(("start", g))
    for join_idx in range(1, len(centers)):
        anchor = centers[join_idx - 1] if cfg.join_kind == "bridge" else centers[0]
        g = _join_once(g, anchor, centers[join_idx], cfg, join_idx, stats, cavity_of, trace)
    return g, centers, stats


def run_pipeline(cfg: StrategyConfig) -> tuple[list, RunStats, TiltedGraph | None]:
    """Phase 1, realignment, and (optionally) the join phase."""
    stats = RunStats()
    pieces, stats = run_phase1(cfg, stats)
    pieces, stats = run_realignment(pieces, cfg.fidelity_acceptance, cfg.seed, stats)
    graph = None
    if cfg.join_nodes:
        graph, _, stats = run_join(pieces, cfg, stats)
    return pieces, stats, graph
