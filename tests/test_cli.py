"""Command-line surface: outputs, determinism, exit codes."""

import json
import re

import pytest

from levicool.cli import _build_parser, main

from conftest import CONFIG_100NM, CONFIG_300NM

CFG300 = str(CONFIG_300NM)
CFG100 = str(CONFIG_100NM)

# a sphere so large that its volume overflows a float
HUGE_SPHERE_CONFIG = ("sphere.radius_nm = 1e300\natoms.count = 5e7\n"
                      "atoms.axial_frequency_2pi_hz = 45e3\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_report_value(text: str, name: str) -> float:
    pattern = rf"^{re.escape(name)}\s+= (?:2pi x )?(\S+)"
    match = re.search(pattern, text, re.MULTILINE)
    assert match, f"row {name!r} not found"
    return float(match.group(1))


class TestReportCommand:
    def test_reference_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--config", CFG300)
        assert code == 0
        assert text_report_value(out, "atom_sphere_coupling") == pytest.approx(
            5.9e3, rel=0.05)
        assert text_report_value(out, "occupation") == pytest.approx(0.3946,
                                                                     rel=1e-3)
        assert "[provenance]" in out
        assert "mode" in out

    def test_100nm_occupation(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--config", CFG100)
        assert code == 0
        assert text_report_value(out, "occupation") == pytest.approx(0.0827,
                                                                     rel=2e-3)

    def test_json_report_matches_text(self, capsys):
        """Both renderings carry identical display-precision values."""
        code, text_out, _ = run_cli(capsys, "report", "--config", CFG300)
        assert code == 0
        code, json_out, _ = run_cli(capsys, "report", "--format", "json",
                                    "--config", CFG300)
        assert code == 0
        payload = json.loads(json_out)
        for name in ("atom_sphere_coupling", "sympathetic_cooling", "gas_damping",
                     "thermalization", "cavity_linewidth"):
            assert payload["rates"][f"{name}_2pi_hz"] == text_report_value(text_out,
                                                                           name)
        for name in ("occupation", "term_cooling_balance", "strong_coupling_ratio"):
            assert payload["steady_state"][name] == text_report_value(text_out, name)
        assert payload["steady_state"]["ground_state"] is True
        assert payload["config"]["sphere.radius_nm"] == 150.0

    def test_repeated_runs_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "report", "--config", CFG300)
        _, second, _ = run_cli(capsys, "report", "--config", CFG300)
        assert first == second

    def test_decoupled_ensemble_report(self, capsys, tmp_path):
        text = CONFIG_300NM.read_text(encoding="utf-8").replace(
            "atoms.count = 5e7", "atoms.count = 0")
        path = tmp_path / "lonely.cfg"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert text_report_value(out, "atom_sphere_coupling") == 0.0
        # with no atoms the occupation is pinned by heating over gas damping
        assert text_report_value(out, "occupation") > 1e10

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "report", "--config", "no/such/file.cfg")
        assert code == 1
        assert "not found" in err

    def test_invalid_key_exit_2_with_location(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sphere.radius_nm = 100\nbogus.key = 5\natoms.count = -3\n",
                        encoding="utf-8")
        code, _, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert "bogus.key" in err
        assert ":2" in err

    def test_all_validation_violations_listed(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "sphere.radius_nm = 100\natoms.count = -3\n"
            "atoms.axial_frequency_2pi_hz = 45e3\nsphere.epsilon = 0.5\n",
            encoding="utf-8")
        code, _, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert err.splitlines() == [
            "error: sphere.epsilon: sphere dielectric constant must be > 1",
            "error: atoms.count: atom count must be >= 0"]

    def test_overflowing_radius_exit_2_with_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(HUGE_SPHERE_CONFIG, encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


class TestSweepCommand:
    def test_reference_grid_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", CFG300,
                               "--radius", "50:300:26", "--atoms", "1e6:1e8:21",
                               "--log-atoms", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 26 * 21 + 1
        assert "wrote 546 rows" in out
        # the cheapest occupation sits at the largest atom count
        assert "N_at = 1.000e+08" in out

    def test_rerun_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            code, _, _ = run_cli(capsys, "sweep", "--config", CFG300,
                                 "--radius", "50:150:3", "--atoms", "1e6:1e7:3",
                                 "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_degenerate_range_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", CFG300,
                               "--radius", "50:300:1", "--atoms", "1e6:1e8:5",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "at least 2 steps" in err

    def test_malformed_range_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", CFG300,
                               "--radius", "50-300-26",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "lo:hi:steps" in err

    @pytest.mark.parametrize("flag, text", [
        ("--radius", "nan:300:3"), ("--radius", "50:inf:3"), ("--atoms", "1e6:nan:2")])
    def test_non_finite_range_exit_2_without_csv(self, capsys, tmp_path, flag, text):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", CFG300, flag, text,
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: {flag[2:]} range must be finite\n"
        assert not out_path.exists()

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", CFG300,
                               "--radius", "50:150:2", "--atoms", "1e6:1e7:2",
                               "--out", str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 1
        assert "i/o error" in err


class TestOptimizeCommand:
    def test_ground_state_feasible_at_reference_point(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "optimize", "--config", CFG300,
                               "--vary", "atoms.count", "--bounds", "1e6:1e8",
                               "--require", "ground_state",
                               "--trace-out", str(trace))
        assert code == 0
        assert "[optimize]" in out
        assert "n_ss =" in out
        header = trace.read_text(encoding="utf-8").splitlines()[0]
        assert header == "atoms.count,n_ss,feasible,note"

    def test_empty_vary_echoes_base(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--config", CFG300)
        assert code == 0
        assert text_report_value(out, "n_ss") == pytest.approx(0.3946, rel=1e-3)

    def test_strong_coupling_infeasible_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--config", CFG300,
                               "--vary", "atoms.count", "--bounds", "1e6:5e7",
                               "--require", "strong_coupling")
        assert code == 3
        assert "strong_coupling" in err

    def test_overflowing_probes_are_infeasible_not_a_crash(self, capsys, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(HUGE_SPHERE_CONFIG, encoding="utf-8")
        code, _, err = run_cli(capsys, "optimize", "--config", str(path),
                               "--vary", "sphere.radius_nm", "--bounds", "1e100:1e300")
        assert code == 3
        assert err.startswith("infeasible: ")

    def test_overflowing_probes_recorded_in_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "optimize", "--config", CFG300,
                             "--vary", "sphere.radius_nm", "--bounds", "50:1e200",
                             "--trace-out", str(trace))
        assert code == 0
        notes = [line.split(",")[-1]
                 for line in trace.read_text(encoding="utf-8").splitlines()[1:]]
        assert "error:singular-config" in notes
        assert "" in notes

    def test_mismatched_bounds_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--config", CFG300,
                               "--vary", "atoms.count")
        assert code == 2
        assert "bounds" in err

    def test_repeated_vary_key_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                 "--vary", "atoms.count,atoms.count",
                                 "--bounds", "1e6:1e7,1e8:1e9")
        assert code == 2
        assert out == ""
        assert err == "error: variable 'atoms.count' is listed more than once\n"


class TestRepeatedCalls:
    def test_many_calls_in_one_process_match_single_calls(self, capsys, tmp_path):
        calls = [
            ("report", "--config", CFG300, "--format", "json"),
            ("sweep", "--config", CFG300, "--radius", "50:300:4", "--atoms", "1e6:1e8:3",
             "--out", str(tmp_path / "map.csv")),
            ("optimize", "--config", CFG300, "--vary", "atoms.count", "--bounds", "1e6:5e7"),
            ("report", "--config", CFG300, "--format", "yaml"),   # argparse rejects it
            ("sensitivity", "--config", CFG300, "--param", "cavity.finesse"),
            ("report", "--config", CFG300),
        ]

        def run(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        single = []
        for argv in calls:
            _build_parser.cache_clear()   # as in a fresh process
            single.append(run(argv))
        assert [code for code, _, _ in single] == [0, 0, 0, 2, 0, 0]
        # one parser for all of them, the calls twice over, in both orders
        assert [run(argv) for argv in calls] == single
        assert [run(argv) for argv in reversed(calls)] == single[::-1]


class TestSimulateCommand:
    def test_final_occupation_matches_steady_state(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", CFG300,
                               "--t-end", "1e-3", "--out", str(out_path))
        assert code == 0
        final = float(re.search(r"final n_m = (\S+)", out).group(1))
        steady = float(re.search(r"cooling on\) = (\S+)", out).group(1))
        assert final == pytest.approx(steady, rel=1e-4)
        header = out_path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t_s,n_m,phase"

    def test_zero_duration_single_sample(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", CFG300,
                               "--t-end", "0", "--n0", "42", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        assert float(lines[1].split(",")[1]) == 42.0

    def test_cooling_off_shows_reheating(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", CFG300,
                             "--t-end", "1e-3", "--cooling-off-at", "5e-4",
                             "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in
                out_path.read_text(encoding="utf-8").strip().splitlines()[1:]]
        off = [(float(t), float(n)) for t, n, phase in rows if phase == "cooling-off"]
        values = [n for _, n in off]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_strong_coupling_point_prints_normal_modes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "simulate", "--config", CFG100,
                               "--t-end", "1e-3",
                               "--out", str(tmp_path / "t.csv"))
        assert code == 0
        assert "[normal_modes]" in out
        assert "splitting" in out
        assert "resolved = true" in out

    def test_oversized_dt_exit_2_with_bound(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", CFG300,
                               "--t-end", "1e-3", "--dt", "1.0",
                               "--out", str(tmp_path / "t.csv"))
        assert code == 2
        assert "dt must be <=" in err

    @pytest.mark.parametrize("flag, name", [
        ("--n0", "n0"), ("--t-end", "t_end"), ("--dt", "dt")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exit_2_without_trace(self, capsys, tmp_path, flag,
                                                   name, value):
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", CFG300, flag, value,
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == f"error: {name} must be finite, got {value}\n"
        assert not out_path.exists()


class TestSensitivityCommand:
    def test_atom_count_elasticity_negative(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "atoms.count")
        assert code == 0
        elasticity = float(re.search(r"elasticity = (\S+)", out).group(1))
        assert elasticity < 0.0

    def test_finesse_near_reference_is_near_stationary(self, capsys):
        """The chosen finesse sits near the occupation minimum, so the
        response is weaker than for the dominant knobs."""
        code, out, _ = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "cavity.finesse")
        assert code == 0
        elasticity = float(re.search(r"elasticity = (\S+)", out).group(1))
        assert abs(elasticity) < 0.5

    def test_matches_independent_central_difference(self, capsys):
        from levicool import evaluate, load_config, set_value

        code, out, _ = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "atoms.count", "--rel-step", "0.01")
        assert code == 0
        reported = float(re.search(r"d_n_ss_d_param = (\S+)", out).group(1))
        config = load_config(CFG300)
        lo = evaluate(set_value(config, "atoms.count", 5e7 * 0.99))[2].occupation
        hi = evaluate(set_value(config, "atoms.count", 5e7 * 1.01))[2].occupation
        expected = (hi - lo) / (5e7 * 0.02)
        assert reported == pytest.approx(expected, rel=1e-3)

    def test_json_format_carries_perturbed_reports(self, capsys):
        code, out, _ = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "atoms.count", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["sensitivity"]["elasticity"] < 0.0
        assert "steady_state" in payload["report_low"]
        assert "steady_state" in payload["report_high"]
        low = payload["report_low"]["steady_state"]["occupation"]
        high = payload["report_high"]["steady_state"]["occupation"]
        assert low > high  # more atoms cool better

    def test_zero_step_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "atoms.count", "--rel-step", "0")
        assert code == 2
        assert "rel-step" in err

    def test_unknown_param_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                               "--param", "sphere.colour")
        assert code == 2
        assert "sphere.colour" in err
