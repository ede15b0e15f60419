import math
import sys

import numpy as np
import pytest

from reference_growth import run_phase1_reference
from tglab import growth, seeding
from tglab.errors import GraphConfigError
from tglab.growth import (
    GhzPiece,
    InventoryExhausted,
    RunStats,
    StrategyConfig,
    effective_pair_tilts,
    maybe_flip,
    pair_inventory,
    realign_piece,
    run_join,
    run_phase1,
    run_pipeline,
    run_realignment,
)
from tglab.heralding import DhContext, apply_dh_to_graph, classify_dh_side, sample_dh
from tglab.leakage import CriticallyDamped
from tglab.metrics import efsq_series
from tglab.oracle import build_state
from tglab.procedures import p_success, r_function
from tglab.tilted_graph import EdgeKind, canonicalize

QUARTER_PI = math.pi / 4
PA = CriticallyDamped(10.0)
PB = CriticallyDamped(12.5)


def pool(n, spread=True):
    if spread:
        return {f"c{i:02d}": CriticallyDamped(10.0 + 0.2 * i) for i in range(n)}
    profile = CriticallyDamped(10.0)  # one profile object, as a CLI [profile] section gives
    return {f"c{i:02d}": profile for i in range(n)}


class TestMaybeFlip:
    def test_examples(self):
        assert maybe_flip(QUARTER_PI, QUARTER_PI) is False
        assert maybe_flip(math.pi / 12, 5 * math.pi / 12) is True

    def test_flip_raises_efsq_on_antidiagonal(self):
        # where the rule triggers (|sin^2 - sin^2| > 1/2, i.e. theta < pi/6 on
        # the anti-diagonal), moving onto the diagonal strictly raises E(F^2)
        from tglab.metrics import expected_f_sq
        for theta in np.linspace(0.1, math.pi / 6 - 0.02, 8):
            other = math.pi / 2 - theta
            ta, tb = effective_pair_tilts(theta, other, True)
            assert (ta, tb) == pytest.approx((theta, theta))
            before = expected_f_sq(theta, other, PA, PB).value
            after = expected_f_sq(ta, tb, PA, PB).value
            assert after > before
        # outside the trigger zone the pair is left alone
        ta, tb = effective_pair_tilts(0.6, math.pi / 2 - 0.6, True)
        assert (ta, tb) == (0.6, math.pi / 2 - 0.6)

    def test_post_flip_gap_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            ta, tb = rng.uniform(0.01, math.pi / 2 - 0.01, 2)
            ea, eb = effective_pair_tilts(ta, tb, True)
            assert abs(math.sin(ea) ** 2 - math.sin(eb) ** 2) <= 0.5 + 1e-12


class TestPairInventory:
    def test_spec_example(self):
        tilts = [0.2, 0.9, 0.3, 0.8]
        pairs, leftover = pair_inventory(tilts)
        got = {frozenset((tilts[i], tilts[j])) for i, j in pairs}
        assert got == {frozenset((0.9, 0.8)), frozenset((0.3, 0.2))}
        assert leftover is None

    def test_odd_leftover(self):
        tilts = [0.5, 0.1, 0.9]
        pairs, leftover = pair_inventory(tilts)
        assert len(pairs) == 1 and tilts[leftover] == 0.1

    def test_all_equal_tilts(self):
        pairs, leftover = pair_inventory([0.6] * 6)
        assert len(pairs) == 3 and leftover is None


class TestPhase1:
    def test_identical_cavities_stay_untilted(self):
        cfg = StrategyConfig(profiles=pool(12, spread=False), seed=7, target_ghz_size=4)
        pieces, stats = run_phase1(cfg)
        assert all(p.tilt == pytest.approx(QUARTER_PI, abs=1e-12) for p in pieces)
        # ideal DH succeeds with p = 1/2: mean attempts per successful bond ~ 2
        ratio = stats.dh_attempts / stats.dh_successes
        assert ratio == pytest.approx(2.0, abs=0.75)

    def test_counters_consistent(self):
        cfg = StrategyConfig(profiles=pool(14), seed=3, target_ghz_size=4)
        pieces, stats = run_phase1(cfg)
        census = sum(p.size for p in pieces)
        assert stats.qubits_drawn - stats.qubits_consumed == census
        assert stats.dh_successes <= stats.dh_attempts
        # the pool may leave sub-target stragglers, but the target is reached
        assert any(p.size >= cfg.target_ghz_size for p in pieces)
        assert sum(p.size for p in pieces if p.size >= cfg.target_ghz_size) >= cfg.target_ghz_size

    def test_deterministic_and_order_independent(self):
        cfg = StrategyConfig(profiles=pool(12), seed=11, target_ghz_size=4)
        a = run_phase1(cfg)
        b = run_phase1(cfg)
        c = run_phase1_reference(cfg, scan_reverse=True)
        assert a[0] == b[0] == c[0]
        assert [r.__dict__ for r in a[1].rounds] == [r.__dict__ for r in b[1].rounds]
        assert [r.__dict__ for r in a[1].rounds] == [r.__dict__ for r in c[1].rounds]

    def test_flip_rule_limits_gap_during_growth(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            ta, tb = rng.uniform(0.02, math.pi / 2 - 0.02, 2)
            ea, eb = effective_pair_tilts(ta, tb, True)
            assert abs(math.sin(ea) ** 2 - math.sin(eb) ** 2) <= 0.5 + 1e-12

    def test_pool_too_small(self):
        with pytest.raises(InventoryExhausted):
            run_phase1(StrategyConfig(profiles=pool(3), seed=1, target_ghz_size=4))

    def test_negative_join_nodes_rejected(self):
        with pytest.raises(GraphConfigError):
            StrategyConfig(profiles=pool(12), seed=1, join_nodes=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(GraphConfigError, match="seed"):
            StrategyConfig(profiles=pool(12), seed=-1)

    @pytest.mark.parametrize("efficiency", [0.0, -0.5, 1.5, math.nan])
    def test_detection_efficiency_outside_unit_interval_rejected(self, efficiency):
        with pytest.raises(GraphConfigError, match=r"detection efficiency must lie in \(0, 1\]"):
            StrategyConfig(profiles=pool(12), seed=1, detection_efficiency=efficiency)

    def test_bounded_deterioration_and_sorted_beats_random(self):
        # the identical-tilt limit is exact (tested at formula level); with a
        # finite mismatched pool the size-4 fidelity stays close to the
        # 2-qubit level, and sorted pairing is never worse than random
        f2, f4, fr = [], [], []
        for seed in range(60):
            f2.extend(p.fidelity for p in run_phase1(
                StrategyConfig(profiles=pool(12), seed=seed, target_ghz_size=2))[0])
            f4.extend(p.fidelity for p in run_phase1(
                StrategyConfig(profiles=pool(12), seed=seed, target_ghz_size=4))[0])
            fr.extend(p.fidelity for p in run_phase1(
                StrategyConfig(profiles=pool(12), seed=seed, target_ghz_size=4,
                               pairing="random"))[0])
        assert np.mean(f4) >= np.mean(f2) - 0.02
        se = math.hypot(np.std(f4) / math.sqrt(len(f4)), np.std(fr) / math.sqrt(len(fr)))
        assert np.mean(f4) >= np.mean(fr) - 2 * se


class TestRealignment:
    def test_untilted_inventory_unchanged(self):
        pieces = [GhzPiece(4, QUARTER_PI, tuple("abcd")), GhzPiece(3, QUARTER_PI, tuple("efg"))]
        out, stats = run_realignment(pieces, 1.0, seed=5)
        assert out == pieces
        assert stats.realignments_attempted == 0

    def test_single_failure_consumes_one_qubit(self):
        # scan seeds for a first-attempt failure and check the piece arithmetic
        theta = 0.6
        for seed in range(50):
            piece = GhzPiece(5, theta, tuple(range(5)))
            stats = RunStats()
            out = realign_piece(piece, 1.0, seed, 0, stats)
            if out is not None and stats.realignments_attempted >= 2:
                break
        else:
            pytest.fail("no multi-attempt path found")
        assert out.size == 5 - stats.realignments_attempted
        assert out.tilt == pytest.approx(QUARTER_PI)

    def test_empirical_success_matches_outcome_tree(self):
        # telescoped product of p_s values along the R-iteration
        theta, size = 0.55, 4

        def tree(theta, qubits):
            if qubits < 2:
                return 0.0
            p = p_success(theta)
            return p + (1 - p) * tree(-r_function(theta), qubits - 1)

        expect = tree(theta, size)
        wins = 0
        n = 20_000
        for seed in range(n):
            out = realign_piece(GhzPiece(size, theta, tuple(range(size))), 1.0,
                                seed, 0, RunStats())
            wins += out is not None
        se = math.sqrt(expect * (1 - expect) / n)
        assert abs(wins / n - expect) < 3 * se

    def test_acceptance_short_circuits(self):
        # a mildly tilted piece inside the acceptance window is left alone
        piece = GhzPiece(4, 0.74, tuple(range(4)))
        out, stats = run_realignment([piece], piece.fidelity - 1e-6, seed=2)
        assert out == [piece]


class TestPhase1MatchesPieceByPieceReference:
    @pytest.mark.parametrize("pairing, flip_rule, efficiency", [
        ("sorted", True, 1.0), ("sorted", False, 1.0), ("random", True, 1.0),
        ("random", False, 1.0), ("sorted", True, 0.7), ("random", True, 0.7)])
    @pytest.mark.parametrize("scan_reverse", [False, True], ids=["forward", "reverse"])
    def test_equal_pieces_and_stats(self, pairing, flip_rule, efficiency, scan_reverse):
        cfg = StrategyConfig(profiles=pool(40), seed=5, target_ghz_size=8, pairing=pairing,
                             flip_rule=flip_rule, detection_efficiency=efficiency)
        pieces, stats = run_phase1(cfg)
        ref_pieces, ref_stats = run_phase1_reference(cfg, scan_reverse=scan_reverse)
        assert len(stats.rounds) > 1
        assert pieces == ref_pieces
        assert stats == ref_stats

    @pytest.mark.parametrize("pairing", ["sorted", "random"])
    def test_far_apart_pool_fires_the_flip_rule(self, pairing, monkeypatch):
        # pool(40) never meets |sin^2 theta_a - sin^2 theta_b| > 1/2; couplings 1 and 40
        # tilt the pieces far enough apart that the rule fires
        import tglab.growth as growth
        real, fired = growth.maybe_flip, []

        def counting(theta_a, theta_b):
            fired.append(real(theta_a, theta_b))
            return fired[-1]
        monkeypatch.setattr(growth, "maybe_flip", counting)
        slow, fast = CriticallyDamped(1.0), CriticallyDamped(40.0)
        profiles = {f"c{i:03d}": fast if i % 2 else slow for i in range(200)}
        runs = {}
        for flip_rule in (True, False):
            cfg = StrategyConfig(profiles=profiles, seed=5, target_ghz_size=8, pairing=pairing,
                                 flip_rule=flip_rule)
            fired.clear()
            runs[flip_rule] = run_phase1(cfg)
            flips = sum(fired)
            for scan_reverse in (False, True):
                assert run_phase1_reference(cfg, scan_reverse=scan_reverse) == runs[flip_rule]
            assert (flips > 0) == flip_rule
        assert runs[True] != runs[False]

    def test_shared_profiles_and_a_leftover(self):
        # an odd pool leaves a piece unpaired every round
        profiles = {f"a{i:02d}": PA for i in range(31)} | {f"b{i:02d}": PB for i in range(30)}
        cfg = StrategyConfig(profiles=profiles, seed=9, target_ghz_size=6)
        assert run_phase1(cfg) == run_phase1_reference(cfg)


def synthetic_inventory(n_pieces, size, tilt=QUARTER_PI):
    return [GhzPiece(size, tilt, tuple(f"c{i:02d}" for i in range(k * size, (k + 1) * size)))
            for k in range(n_pieces)]


@pytest.fixture
def stream_sites(monkeypatch):
    """{derive_rng tag: the growth call-site paths that drew under that tag}."""
    import tglab.growth as growth
    real, sites = growth.derive_rng, {}

    def recording(seed, *key):
        frame, path = sys._getframe(1), []
        while frame is not None:
            if frame.f_globals.get("__name__") == growth.__name__:
                path.append((frame.f_code.co_name, frame.f_lineno))
            frame = frame.f_back
        sites.setdefault(key[0], set()).add(tuple(path))
        return real(seed, *key)

    monkeypatch.setattr(growth, "derive_rng", recording)
    return sites


class TestStreamTags:
    """Each kind of random decision (call-site path) owns its derive_rng tag,
    so no two decisions can share a stream however large the campaign."""

    def test_pairing_and_pair_draws(self, stream_sites):
        run_phase1(StrategyConfig(profiles=pool(12), seed=5, target_ghz_size=4,
                                  pairing="random"))
        assert sorted(len(paths) for paths in stream_sites.values()) == [1, 1], stream_sites

    def test_boundary_and_join_realignment(self, stream_sites):
        tilted = GhzPiece(6, 0.6, tuple(f"c{i:02d}" for i in range(6)))
        run_realignment([tilted], 1.0, seed=4)
        run_join([tilted, GhzPiece(6, QUARTER_PI, tuple(f"c{i:02d}" for i in range(6, 12)))],
                 join_cfg(20, 4, join_nodes=2, join_kind="bridge"))
        assert sorted(len(paths) for paths in stream_sites.values()) == [1, 1, 1], stream_sites

    def test_one_phase1_stream_per_round(self, monkeypatch):
        import tglab.growth as growth
        real, keys = growth.derive_rng, []

        def recording(seed, *key):
            keys.append(key)
            return real(seed, *key)

        monkeypatch.setattr(growth, "derive_rng", recording)
        _, stats = run_phase1(StrategyConfig(profiles=pool(40), seed=5, target_ghz_size=8))
        assert len(stats.rounds) > 1
        assert [k for k in keys if k[0] == seeding.PHASE1] == \
            [(seeding.PHASE1, row.round) for row in stats.rounds]

    def test_verify_draws_only_under_its_named_tags(self, monkeypatch):
        import tglab.verify as verify
        real, tags = verify.derive_rng, set()

        def recording(seed, *key):
            tags.add(key[0])
            return real(seed, *key)

        monkeypatch.setattr(verify, "derive_rng", recording)
        verify.run_verification(seed=3, cases=4)
        assert tags == {seeding.VERIFY_PROCEDURES, seeding.VERIFY_CANONICALIZATION}

    def test_all_tags_are_distinct(self):
        tags = (seeding.PHASE1, seeding.REALIGN, seeding.JOIN, seeding.PAIRING,
                seeding.JOIN_REALIGN, seeding.VERIFY_PROCEDURES, seeding.VERIFY_CANONICALIZATION)
        assert len(set(tags)) == len(tags) == 7

    @pytest.mark.xfail(strict=True, reason="derive_rng hashes a flat word list: key paths alias")
    @pytest.mark.parametrize("first, second", [
        ((5, 2, 7), (5, 2, 7, 0)),
        ((11 + 2 * 2**32, seeding.PHASE1, 3), (11, seeding.REALIGN, 1, 3)),
    ], ids=["trailing-zero-key", "seed-word-spills-into-tag"])
    def test_distinct_key_paths_draw_distinct_streams(self, first, second):
        assert (seeding.derive_rng(*first).random(4) != seeding.derive_rng(*second).random(4)).all()


def join_cfg(n_cavities, seed, **kw):
    return StrategyConfig(profiles=pool(n_cavities), seed=seed, target_ghz_size=4, **kw)


class TestJoin:
    def test_bridge_chain_structure(self):
        cfg = join_cfg(30, 21, join_nodes=3, join_kind="bridge")
        pieces = synthetic_inventory(3, 9)
        g, centers, stats = run_join(pieces, cfg)
        c = canonicalize(g)
        for a, b in zip(centers, centers[1:]):
            assert c.edge(a, b) is not None and c.edge(a, b).kind is EdgeKind.PURE
        assert stats.bridges >= 2

    def test_merge_chain_builds_star(self):
        cfg = join_cfg(30, 33, join_nodes=3, join_kind="merge")
        pieces = synthetic_inventory(3, 9)
        g, centers, stats = run_join(pieces, cfg)
        # everything fused around the first centre
        comp = g.component_of(centers[0])
        assert comp == frozenset(g.vertex_ids)
        assert all(a.kind is EdgeKind.PURE for _, _, a in g.edges())

    def test_ideal_cavities_single_procedure_per_join(self):
        # untilted central vertices make every join the deterministic
        # X/Y-measurement limit: one merge/bridge per join, never repeated
        cfg = StrategyConfig(profiles=pool(24, spread=False), seed=9,
                             target_ghz_size=4, join_nodes=4, join_kind="bridge")
        pieces = synthetic_inventory(4, 5)
        g, centers, stats = run_join(pieces, cfg)
        assert stats.bridges == 3

    @pytest.mark.parametrize("kind, seed", [("bridge", 21), ("merge", 33)])
    def test_dh_attempts_take_the_effective_tilt_of_each_side(self, kind, seed, monkeypatch):
        # the click statistics of a join's DH attempt read the effective tilt that the
        # rewrite classifies each side with, not only a raw vertex tilt
        contexts, sides = [], []

        def context(*args):
            contexts.append(DhContext(*args))
            return contexts[-1]

        def apply(g, qa, qb, outcome):
            sides.append([classify_dh_side(g, q).theta_eff for q in (qa, qb)])
            return apply_dh_to_graph(g, qa, qb, outcome)
        monkeypatch.setattr(growth, "DhContext", context)
        monkeypatch.setattr(growth, "apply_dh_to_graph", apply)
        _, _, stats = run_join(synthetic_inventory(3, 9),
                               join_cfg(30, seed, join_nodes=3, join_kind=kind))
        assert len(contexts) == len(sides) == stats.join_dh_attempts >= 2
        for ctx, thetas in zip(contexts, sides):
            assert [ctx.theta_a, ctx.theta_b] == pytest.approx(thetas, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("kind, n_pieces", [("bridge", 12), ("merge", 6)])
    def test_disconnection_probe_walks_the_joined_piece(self, kind, n_pieces, monkeypatch):
        # the probe searches from the node being joined, never the whole chain
        from tglab.tilted_graph import TiltedGraph
        real, sizes = TiltedGraph.component_of, []

        def component_of(g, vid):
            comp = real(g, vid)
            sizes.append(len(comp))
            return comp
        monkeypatch.setattr(TiltedGraph, "component_of", component_of)
        run_join(synthetic_inventory(n_pieces, 12),
                 join_cfg(12 * n_pieces, 0, join_nodes=n_pieces, join_kind=kind))
        assert len(sizes) >= n_pieces - 1
        assert max(sizes) <= 12

    def test_tilted_pieces_realigned_before_join(self):
        cfg = join_cfg(20, 4, join_nodes=2, join_kind="bridge")
        pieces = [GhzPiece(6, 0.6, tuple(f"c{i:02d}" for i in range(6))),
                  GhzPiece(6, QUARTER_PI, tuple(f"c{i:02d}" for i in range(6, 12)))]
        g, centers, stats = run_join(pieces, cfg)
        assert stats.realignments_attempted >= 1

    def test_inventory_exhaustion(self):
        cfg = join_cfg(8, 2, join_nodes=2, join_kind="bridge")
        pieces = synthetic_inventory(2, 3)   # no spare leaves for retries
        with pytest.raises(InventoryExhausted):
            for seed in range(40):           # some seed needs a second attempt
                cfg2 = join_cfg(8, seed, join_nodes=2, join_kind="bridge")
                run_join(synthetic_inventory(2, 3), cfg2)

    def test_recycling_reduces_mean_attempts(self):
        # paired-seed A/B over many joins: recycled annotations help strictly
        att_on, att_off = [], []
        for seed in range(300):
            for flag, sink in ((True, att_on), (False, att_off)):
                cfg = StrategyConfig(profiles=pool(24), seed=seed, target_ghz_size=4,
                                     join_nodes=2, join_kind="merge",
                                     join_method="force-i", recycle_annotations=flag)
                try:
                    _, _, stats = run_join(synthetic_inventory(2, 12), cfg)
                    sink.append(stats.join_dh_attempts)
                except InventoryExhausted:
                    sink.append(24)
        assert np.mean(att_on) < np.mean(att_off)

    def test_pipeline_deterministic(self):
        cfg = StrategyConfig(profiles=pool(30), seed=42, target_ghz_size=6,
                             join_nodes=3, join_kind="bridge")
        a = run_pipeline(cfg)
        b = run_pipeline(cfg)
        assert a[0] == b[0] and a[2] == b[2]


class TestJoinOracle:
    @pytest.mark.parametrize("kind", ["bridge", "merge"])
    def test_join_replayed_on_oracle(self, kind):
        # replay every quantum event of full 2-node joins on the dense state
        # and compare against the engine's final graph
        from oracle_replay import replay_join_trace, states_match

        checked = 0
        for seed in range(12):
            cfg = StrategyConfig(profiles=pool(10), seed=seed, target_ghz_size=4,
                                 join_nodes=2, join_kind=kind)
            trace = []
            try:
                g, centers, _ = run_join(synthetic_inventory(2, 5), cfg, trace=trace)
            except InventoryExhausted:
                continue
            state = replay_join_trace(trace, cfg.profiles)
            assert states_match(state, build_state(g), tol=1e-9)
            checked += 1
        assert checked >= 8

    def test_four_node_cluster_shape(self):
        # the 4-node linear-cluster target: on success paths the final
        # canonical graph is the ideal chain of node centres
        for seed in range(20):
            cfg = StrategyConfig(profiles=pool(24), seed=seed, target_ghz_size=4,
                                 join_nodes=4, join_kind="bridge")
            try:
                g, centers, _ = run_join(synthetic_inventory(4, 6), cfg)
            except InventoryExhausted:
                continue
            c = canonicalize(g)
            for a, b in zip(centers, centers[1:]):
                assert c.edge(a, b) is not None and c.edge(a, b).kind is EdgeKind.PURE
            assert all(annot.kind is EdgeKind.PURE for _, _, annot in c.edges())
            return
        pytest.fail("no completed 4-node join found")
