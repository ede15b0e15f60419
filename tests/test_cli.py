
import dataclasses

import numpy as np
import pytest

from tglab import cli
from tglab.cli import emit_csv, main, parse_config, run_command
from tglab.errors import ConfigError, TglabError
from tglab.growth import RunStats
from tglab.leakage import CriticallyDamped, load_profile_csv
from tglab.metrics import compare_strategies, efsq_first_order, expected_f_sq

GOOD = """
[profile A]
kind = critically_damped
g = 10.0

[profile B]
kind = critically_damped
g = 12.5

[run]
seed = 77

[compare]
profile_a = A
profile_b = B
epsilon = 1e-4
modes = 3f2

[efsq-surface]
profile_a = A
profile_b = B
grid = 4

[fidelity-hist]
profile_a = A
profile_b = B
bins = 20

[grow]
pool = A:24,B:24
target_ghz_size = 8
join_nodes = 2

[verify]
cases = 12
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(GOOD, encoding="utf-8")
    return p


class TestParseConfig:
    def test_minimal_valid(self, cfg_path):
        cfg = parse_config(cfg_path)
        assert set(cfg.profiles) == {"A", "B"}
        assert cfg.seed == 77
        assert cfg.efficiency == 1.0

    def test_negative_g_rejected_with_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[profile A]\nkind = critically_damped\ng = -3\n[run]\nseed = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line 3" in str(err.value)

    def test_missing_seed_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[profile A]\nkind = critically_damped\ng = 3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "seed" in str(err.value)

    def test_syntax_errors_carry_lines(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nseed = 1\nnot a key value\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "line 3" in str(err.value)

    def test_dangling_profile_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[profile T]\nkind = csv\npath = missing.csv\n[run]\nseed = 1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(p)
        assert "does not exist" in str(err.value)

    def test_byte_order_mark_allowed(self, cfg_path, tmp_path):
        # Excel's "CSV UTF-8" and some editors start a UTF-8 file with a BOM
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + GOOD.encode())
        plain, marked = parse_config(cfg_path), parse_config(bom)
        assert (marked.sections, marked.seed, marked.efficiency) == \
            (plain.sections, plain.seed, plain.efficiency)
        assert {k: p.g for k, p in marked.profiles.items()} == \
            {k: p.g for k, p in plain.profiles.items()}

    def test_unknown_profile_reference(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("[run]\nseed = 1\n[compare]\nprofile_a = X\nprofile_b = X\n")
        cfg = parse_config(p)
        with pytest.raises(ConfigError):
            run_command("compare", cfg, tmp_path)


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        path = emit_csv([("a", "b")], tmp_path / "empty.csv")
        assert path.read_text() == "a,b\n"

    def test_seventeen_digit_floats_and_lf(self, tmp_path):
        path = emit_csv([("x",), (1.0 / 3.0,)], tmp_path / "f.csv")
        text = path.read_bytes().decode()
        assert "\r" not in text
        assert text.splitlines()[1] == f"{1/3:.17g}"
        assert float(text.splitlines()[1]) == 1.0 / 3.0

    def test_quoting(self, tmp_path):
        path = emit_csv([("name",), ('a,"b"',)], tmp_path / "q.csv")
        assert path.read_text().splitlines()[1] == '"a,""b"""'


class TestCommands:
    def test_calibrate_round_trip(self, cfg_path, tmp_path):
        cfg = parse_config(cfg_path)
        arts = run_command("calibrate", cfg, tmp_path / "out")
        prof = load_profile_csv([a for a in arts if "calibrate_A" in str(a)][0])
        # grid nodes survive the 17-digit round trip bit-exactly
        node = np.linspace(0.0, cfg.profiles["A"].t_max, 2049)[100]
        assert prof.density(node) == cfg.profiles["A"].density(node)

    def test_surface_grid_row_count(self, cfg_path, tmp_path):
        cfg = parse_config(cfg_path)
        (art,) = run_command("efsq-surface", cfg, tmp_path / "out")
        lines = art.read_text().splitlines()
        assert len(lines) == 4 * 4 + 1
        # rows run over sin^2 theta_b within sin^2 theta_a, each its own E(F^2)
        from reference_quadrature import per_point_expected_f_sq
        svals = np.linspace(0.02, 0.98, 4)
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert [r[:2] for r in rows] == [(sa, sb) for sa in svals for sb in svals]
        for sa, sb, efsq in rows:
            want = per_point_expected_f_sq(np.arcsin(np.sqrt(sa)), np.arcsin(np.sqrt(sb)),
                                           cfg.profiles["A"], cfg.profiles["B"])
            assert efsq == pytest.approx(want, rel=1e-9)

    def test_fidelity_hist_masses(self, cfg_path, tmp_path):
        cfg = parse_config(cfg_path)
        (art,) = run_command("fidelity-hist", cfg, tmp_path / "out")
        rows = art.read_text().splitlines()[1:]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert total == pytest.approx(0.5, abs=1e-6)

    def test_compare_contains_reported_numbers(self, cfg_path, tmp_path, capsys):
        cfg = parse_config(cfg_path)
        (art,) = run_command("compare", cfg, tmp_path / "out")
        row = art.read_text().splitlines()[1].split(",")
        assert row[0] == "3f2"
        assert float(row[2]) == pytest.approx(0.033, abs=0.003)

    @pytest.mark.parametrize("modes", ["3f2,exact", "exact,3f2", "exact"])
    def test_compare_rows_follow_modes(self, tmp_path, capsys, modes):
        # compare_strategies reports every mode; the CLI picks and orders the rows
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD.replace("modes = 3f2", f"modes = {modes}"))
        (art,) = run_command("compare", parse_config(p), tmp_path / "out")
        reports = {r.mode: r for r in compare_strategies(CriticallyDamped(10.0),
                                                         CriticallyDamped(12.5), 1e-4)}
        rows = [row.split(",") for row in art.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == modes.split(",")
        assert [float(row[4]) for row in rows] == [reports[m].p_total for m in modes.split(",")]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0].strip() for line in printed] == modes.split(",")

    def test_grow_and_verify_run(self, cfg_path, tmp_path):
        cfg = parse_config(cfg_path)
        arts = run_command("grow", cfg, tmp_path / "out")
        assert any("grow_rounds" in str(a) for a in arts)
        arts = run_command("verify", cfg, tmp_path / "out")
        assert any("verify" in str(a) for a in arts)

    def test_pool_ids_are_distinct(self, tmp_path, monkeypatch):
        # profile A's cavity 1000 and profile A1's cavity 0 are two cavities
        text = GOOD.replace("[profile B]", "[profile A1]\nkind = critically_damped\ng = 12.5\n\n"
                            "[profile B]").replace("pool = A:24,B:24", "pool = A:1001,A1:1,B:2")
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        pools = []

        def stop(strategy):
            pools.append(len(strategy.profiles))
            raise TglabError("stop before growing")

        monkeypatch.setattr(cli, "run_pipeline", stop)
        with pytest.raises(TglabError):
            run_command("grow", parse_config(p), tmp_path / "out")
        assert pools == [1004]

    def test_spaces_around_pool_colons_are_allowed(self, tmp_path):
        written = []
        for pool in ("A:4,B:4", "A : 4, B: 4"):
            p = tmp_path / "exp.cfg"
            p.write_text(GOOD.replace("pool = A:24,B:24\ntarget_ghz_size = 8\njoin_nodes = 2",
                                      f"pool = {pool}\ntarget_ghz_size = 4"))
            arts = run_command("grow", parse_config(p), tmp_path / pool)
            written.append({a.name: a.read_bytes() for a in arts})
        assert written[0] == written[1] and {"grow_rounds.csv", "grow_summary.csv"} <= set(written[0])


def assert_config_error(tmp_path, capsys, command, text, bad_line):
    """`command` on config `text` exits 1 naming the line of `bad_line`, printing
    nothing to stdout and writing no CSV."""
    line = text.splitlines().index(bad_line.splitlines()[-1]) + 1
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert main([command, "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert f"line {line}:" in captured.err
    assert captured.out == ""
    assert not list(tmp_path.rglob("*.csv"))


class TestMainExitCodes:
    def test_success(self, cfg_path, tmp_path, capsys):
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    def test_config_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[run]\nseed = nope\n")
        assert main(["compare", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_numeric_error_is_two(self, tmp_path, capsys):
        p = tmp_path / "exp.cfg"
        p.write_text("[profile A]\nkind = critically_damped\ng = 10\n[run]\nseed = 1\n"
                     "[grow]\npool = A:3\ntarget_ghz_size = 4\n")
        assert main(["grow", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_csv_profile_surface_succeeds(self, tmp_path, capsys):
        # a tabulated pair takes the binned law of S; a 65-point CSV reads up to 1.2e-3
        # off the closed form, so the rows are checked against the library
        text = GOOD.replace("grid = 4", "grid = 21")
        for name, g in (("A", "10.0"), ("B", "12.5")):
            profile = CriticallyDamped(float(g))
            t = np.linspace(0.0, profile.t_max, 65)
            emit_csv([("time", "density"), *zip(t, profile.density(t))], tmp_path / f"{name}.csv")
            text = text.replace(f"kind = critically_damped\ng = {g}",
                                f"kind = csv\npath = {name}.csv")
        p = tmp_path / "exp.cfg"
        p.write_text(text)
        assert main(["efsq-surface", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "efsq_surface.csv").read_text().splitlines()
        assert len(lines) == 21 * 21 + 1
        pa, pb = (load_profile_csv(tmp_path / f"{name}.csv") for name in "AB")
        theta = np.arcsin(np.sqrt(np.linspace(0.02, 0.98, 21)))
        want = expected_f_sq(theta[:, None], theta[None, :], pa, pb).value
        got = np.array([float(line.split(",")[2]) for line in lines[1:]]).reshape(21, 21)
        np.testing.assert_array_equal(got, want)
        first = [efsq_first_order(t, t, pa, pb).value for t in theta]
        np.testing.assert_allclose(np.diagonal(got), first, rtol=1e-14, atol=0.0)

    def test_profile_path_naming_a_directory_is_a_config_error(self, tmp_path, capsys):
        (tmp_path / "A.csv").mkdir()
        p = tmp_path / "exp.cfg"
        p.write_text("[profile A]\nkind = csv\npath = A.csv\n[run]\nseed = 1\n")
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: line 3: ")
        assert str(tmp_path / "A.csv") in err[0]

    @pytest.mark.parametrize("content", [
        b"x,y\n0,0\n1,0.5\n",                         # wrong header
        b"time,density\n0,0\n0.5\n",                   # malformed row
        b"time,density\n0,0\n1,0.5\n0.5,0.5\n",       # times not ascending
        b"time,density\n0,0\n1,0.5 \xe9\n",            # not UTF-8 (Latin-1)
    ], ids=["header", "row", "grid", "encoding"])
    def test_invalid_profile_file_is_a_config_error(self, tmp_path, capsys, content):
        (tmp_path / "A.csv").write_bytes(content)
        p = tmp_path / "exp.cfg"
        p.write_text("[profile A]\nkind = csv\npath = A.csv\n[run]\nseed = 1\n")
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: line 3: ")
        assert str(tmp_path / "A.csv") in err[0]
        assert captured.out == ""

    def test_config_file_not_utf8_is_a_config_error(self, cfg_path, tmp_path, capsys):
        cfg_path.write_bytes(GOOD.replace("[run]", "# r\xe9glage\n[run]").encode("latin-1"))
        assert main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(cfg_path) in err[0]

    def test_output_under_a_file_is_a_config_error(self, cfg_path, tmp_path, capsys):
        # found before the command computes or reports anything
        (tmp_path / "taken").write_text("")
        out = tmp_path / "taken" / "x"
        assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert str(out) in err[0]
        assert captured.out == ""

    def test_verification_failure_is_three(self, cfg_path, tmp_path, capsys):
        p = tmp_path / "v.cfg"
        p.write_text(GOOD.replace("cases = 12", "cases = 12\ntolerance = 1e-16"))
        assert main(["verify", "--config", str(p), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("command, old, new", [
        ("grow", "join_nodes = 2", "join_nodes = 2\nacceptence = 0.9"),
        ("compare", "seed = 77", "seed = 77\ntolerance = 1e-9"),
        ("verify", "[verify]", "[verfy]"),
        ("compare", "modes = 3f2", "modes = 3f2,exct"),
        ("grow", "join_nodes = 2", "join_nodes = 2\npairing = sortd"),
        ("grow", "join_nodes = 2", "join_nodes = 2\njoin_method = force-iii"),
        ("grow", "join_nodes = 2", "join_nodes = 2\njoin_kind = merger"),
    ], ids=["misspelt-key", "removed-key", "misspelt-section", "bad-mode", "bad-pairing",
            "bad-join-method", "bad-join-kind"])
    def test_unknown_names_and_values_are_config_errors(self, tmp_path, capsys, command, old,
                                                         new):
        assert_config_error(tmp_path, capsys, command, GOOD.replace(old, new), new)

    @pytest.mark.parametrize("command, old, new", [
        ("fidelity-hist", "bins = 20", "bins = 5"),
        ("verify", "cases = 12", "cases = 0"),
        ("grow", "join_nodes = 2", "join_nodes = -1"),
        ("grow", "target_ghz_size = 8", "target_ghz_size = 1"),
        ("grow", "seed = 77", "seed = -1"),
        ("verify", "seed = 77", "seed = -1"),
    ], ids=["hist-bins-5",
            "verify-cases-0", "grow-join-nodes-negative", "grow-target-1", "grow-seed-negative",
            "verify-seed-negative"])
    def test_out_of_range_counts_are_config_errors(self, tmp_path, capsys, command, old, new):
        assert_config_error(tmp_path, capsys, command, GOOD.replace(old, new), new)

    @pytest.mark.parametrize("command, old, new", [
        ("verify", "cases = 12", "cases = 12\ntolerance = nan"),
        ("verify", "cases = 12", "cases = 12\ntolerance = -1"),
        ("verify", "cases = 12", "cases = 12\ntolerance = 0"),
        ("compare", "epsilon = 1e-4", "epsilon = nan"),
        ("compare", "epsilon = 1e-4", "epsilon = inf"),
        ("fidelity-hist", "bins = 20", "bins = 20\ntheta_a = nan"),
        ("grow", "join_nodes = 2", "join_nodes = 2\nacceptance = nan"),
        ("compare", "g = 10.0", "g = inf"),
    ], ids=["verify-tolerance-nan", "verify-tolerance-negative", "verify-tolerance-0",
            "compare-epsilon-nan", "compare-epsilon-inf", "hist-theta-a-nan", "grow-acceptance-nan",
            "profile-g-inf"])
    def test_non_finite_and_non_positive_floats_are_config_errors(self, tmp_path, capsys,
                                                                 command, old, new):
        assert_config_error(tmp_path, capsys, command, GOOD.replace(old, new), new)

    @pytest.mark.parametrize("command, old, new", [
        ("grow", "join_nodes = 2", "join_nodes = 2\nacceptance = 1.5"),
        ("grow", "join_nodes = 2", "join_nodes = 2\nacceptance = 0.5"),
        ("compare", "seed = 77", "seed = 77\nefficiency = 0"),
    ], ids=["grow-acceptance-above-1", "grow-acceptance-half", "run-efficiency-0"])
    def test_fractions_outside_their_range_are_config_errors(self, tmp_path, capsys, command,
                                                              old, new):
        assert_config_error(tmp_path, capsys, command, GOOD.replace(old, new), new)

    @pytest.mark.parametrize("g", ["1e-300", "1e300"])
    def test_coupling_outside_its_range_is_a_config_error(self, tmp_path, capsys, g):
        # (20/g)^2 overflows at 1e-300, where g^3 underflows to 0, and g^3 overflows at
        # 1e300: nan densities and an OverflowError before the range check
        assert_config_error(tmp_path, capsys, "calibrate", GOOD.replace("g = 10.0", f"g = {g}"),
                            f"g = {g}")

    @pytest.mark.parametrize("g", ["1e-3", "10", "1e3"])
    def test_coupling_inside_its_range_calibrates(self, tmp_path, capsys, g):
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD.replace("g = 10.0", f"g = {g}"))
        assert main(["calibrate", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        prof = load_profile_csv(tmp_path / "out" / "calibrate_A.csv")
        assert np.all(np.isfinite(prof.densities)) and prof.densities.max() > 0.0

    def test_out_of_memory_is_a_numeric_failure(self, cfg_path, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 763. MiB")
        monkeypatch.setattr(cli, "fidelity_histogram", exhausted)
        assert main(["fidelity-hist", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: out of memory") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new, bad_line", [
        ("g = 10.0\n", "", "kind = critically_damped"),
        ("kind = critically_damped\ng = 10.0", "kind = csv", "kind = csv"),
        ("g = 10.0", "g = 10.0\npath = a.csv", "path = a.csv"),
        ("kind = critically_damped\ng = 10.0", "kind = csv\npath = a.csv\ng = 10.0", "g = 10.0"),
        ("kind = critically_damped\ng = 10.0", "kind = critical\ng = 10.0", "kind = critical"),
    ], ids=["missing-g", "missing-path", "path-on-critically-damped", "g-on-csv", "bad-kind"])
    def test_profile_sections_are_checked_with_lines(self, tmp_path, capsys, old, new, bad_line):
        # a missing key is reported at its section's first line (profile A's kind)
        assert_config_error(tmp_path, capsys, "compare", GOOD.replace(old, new, 1), bad_line)

    @pytest.mark.parametrize("new", ["pool = A:24,A:24", "pool = A:0,B:24", "pool = A:-3,B:24",
                                     "pool =", "pool = ,"],
                             ids=["repeated-profile", "zero-count", "negative-count", "empty",
                                  "empty-entries"])
    def test_bad_pool_entries_are_config_errors(self, tmp_path, capsys, new):
        assert_config_error(tmp_path, capsys, "grow", GOOD.replace("pool = A:24,B:24", new), new)

    @pytest.mark.parametrize("new", ["modes = 3f2, 3f2", "modes = exact,3f2,exact"],
                             ids=["same-mode-twice", "repeat-after-another"])
    def test_repeated_compare_modes_are_config_errors(self, tmp_path, capsys, new):
        # each mode evaluates the whole grid; a repeat would only write a duplicate row
        assert_config_error(tmp_path, capsys, "compare", GOOD.replace("modes = 3f2", new), new)

    def test_nodes_key_is_accepted_and_ignored(self, tmp_path, capsys):
        # `nodes` was the grid per axis of a mixed profile pair, which now takes the
        # law of S; profile B is a CSV file here, so the pair is mixed
        profile = CriticallyDamped(12.5)
        t = np.linspace(0.0, profile.t_max, 65)
        emit_csv([("time", "density"), *zip(t, profile.density(t))], tmp_path / "B.csv")
        mixed = GOOD.replace("kind = critically_damped\ng = 12.5", "kind = csv\npath = B.csv")
        texts = [mixed.replace("modes = 3f2", f"modes = 3f2\nnodes = {n}")
                      .replace("bins = 20", f"bins = 20\nnodes = {n}") for n in (0, 2000)]
        assert texts[0].count("\nnodes = 0\n") == 2 and "\nnodes =" not in mixed
        outputs = []
        for k, text in enumerate(texts + [mixed]):
            p, out = tmp_path / f"{k}.cfg", tmp_path / f"out{k}"
            p.write_text(text)
            for command in ("compare", "fidelity-hist"):
                assert main([command, "--config", str(p), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("compare.csv", "fidelity_hist.csv")])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_idempotent_outputs(self, cfg_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["grow", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (a / "grow_rounds.csv").read_bytes() == (b / "grow_rounds.csv").read_bytes()
        assert (a / "grow_summary.csv").read_bytes() == (b / "grow_summary.csv").read_bytes()

    def test_grow_summary_lists_every_counter(self, cfg_path, tmp_path, monkeypatch, capsys):
        # every int field of RunStats in declaration order, then the final pieces, so
        # a new counter cannot be left out of the CSV
        runs, original = [], cli.run_pipeline

        def run_pipeline(strategy):
            runs.append(original(strategy))
            return runs[-1]
        monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
        assert main(["grow", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        (_, stats, _), = runs
        counters = [f.name for f in dataclasses.fields(RunStats)
                    if isinstance(getattr(stats, f.name), int)]
        assert counters[0] == "dh_attempts" and counters[-1] == "join_dh_attempts"
        want = [("quantity", "value"), *((name, getattr(stats, name)) for name in counters),
                ("final_pieces", len(stats.final_sizes)),
                ("mean_final_fidelity", stats.mean_final_fidelity)]
        assert list(stats.summary_csv_rows()) == want
        assert ((tmp_path / "out" / "grow_summary.csv").read_bytes()
                == emit_csv(want, tmp_path / "want.csv").read_bytes())

    @pytest.mark.parametrize("command", ["grow", "verify"])
    def test_negative_seed_override_is_config_error(self, cfg_path, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--seed", "-5"]) == 1
        captured = capsys.readouterr()
        assert "config error: seed must be at least 0, got -5" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_seed_override_changes_output(self, cfg_path, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["grow", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["grow", "--config", str(cfg_path), "--out", str(b), "--seed", "99"]) == 0
        assert (a / "grow_rounds.csv").read_bytes() != (b / "grow_rounds.csv").read_bytes()
