"""Command-line surface: outputs, determinism, exit codes."""

import hashlib
import importlib
import io
import math
import os
import re

import pytest

import levicool.cli
import levicool.dynamics
import levicool.sweep
from levicool.cli import _build_parser, main

from conftest import CONFIG_100NM, CONFIG_300NM, CONFIG_DIR, strict_json_loads

CFG300 = str(CONFIG_300NM)
CFG100 = str(CONFIG_100NM)

# a sphere so large that its volume overflows a float
HUGE_SPHERE_CONFIG = ("sphere.radius_nm = 1e300\natoms.count = 5e7\n"
                      "atoms.axial_frequency_2pi_hz = 45e3\n")


def edited_config(tmp_path, key, value):
    """The path of a copy of the 300 nm config with `key` set to `value`."""
    text = CONFIG_300NM.read_text(encoding="utf-8")
    path = tmp_path / "edited.cfg"
    path.write_text(re.sub(rf"(?m)^{re.escape(key)}\s*=.*$", "", text)
                    + f"{key} = {value}\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    """`main`'s exit code, stdout and stderr; argparse's exit counts as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
        payload = strict_json_loads(json_out)
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

    def test_zero_atom_cooling_with_atoms_exit_2(self, capsys, tmp_path):
        """Switching the atom cooling off has no steady state: the registry
        rejects it naming the key (`simulate --cooling-off-at` models it)."""
        path = tmp_path / "uncooled.cfg"
        path.write_text(CONFIG_300NM.read_text(encoding="utf-8")
                        + "atoms.cooling_rate_2pi_hz = 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: atoms.cooling_rate_2pi_hz: ")

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "report", "--config", "no/such/file.cfg")
        assert code == 1
        assert err == "i/o error: config file not found: no/such/file.cfg\n"

    @pytest.mark.parametrize("config", [CONFIG_300NM, CONFIG_100NM], ids=lambda p: p.stem)
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_byte_order_mark_changes_no_byte(self, capsys, tmp_path, config, fmt):
        """A config saved with a UTF-8 byte-order mark, as Windows Notepad saves
        one, reports as the file without it."""
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        expected = run_cli(capsys, "report", "--format", fmt, "--config", str(config))
        assert run_cli(capsys, "report", "--format", fmt, "--config", str(path)) == expected
        assert expected[0] == 0

    def test_non_utf8_byte_exit_2_at_its_position(self, capsys, tmp_path):
        data = CONFIG_300NM.read_bytes()
        path = tmp_path / "latin1.cfg"
        path.write_bytes(data + b"#" + b"x" * (18000 - len(data) - 1) + b"\xff\n")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 18000: "
                       "invalid start byte\n")

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

    def test_value_just_below_1e4_reports_rounded(self, capsys, tmp_path):
        """log10 of this finesse rounds to 4.0; it shows rounded, like 9999.7."""
        path = tmp_path / "finesse.cfg"
        text = CONFIG_300NM.read_text(encoding="utf-8")
        path.write_text(re.sub(r"(?m)^cavity\.finesse\s*=.*$",
                               "cavity.finesse = 9999.999999999998", text),
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert (code, err) == (0, "")
        assert re.search(r"(?m)^cavity\.finesse += 1\.000e\+04$", out)
        code, out, err = run_cli(capsys, "report", "--config", str(path),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert strict_json_loads(out)["config"]["cavity.finesse"] == 1e4

    def test_gas_free_quality_factor_is_null_in_json_and_inf_in_text(self, capsys,
                                                                      tmp_path):
        path = edited_config(tmp_path, "env.pressure_torr", 0)
        code, out, err = run_cli(capsys, "report", "--config", path, "--format", "json")
        assert (code, err) == (0, "")
        assert strict_json_loads(out)["derived"]["quality_factor"] is None
        code, out, err = run_cli(capsys, "report", "--config", path)
        assert (code, err) == (0, "")
        assert text_report_value(out, "quality_factor") == math.inf

    def test_no_lattice_power_exit_2_naming_the_key(self, capsys, tmp_path):
        path = edited_config(tmp_path, "lattice.power_uw", 0)
        code, out, err = run_cli(capsys, "report", "--config", path)
        assert (code, out) == (2, "")
        assert err == "error: lattice.power_uw: lattice power must be > 0\n"

    def test_feedback_without_gas_exit_2_naming_the_key(self, capsys, tmp_path):
        path = tmp_path / "feedback.cfg"
        with open(edited_config(tmp_path, "env.pressure_torr", 0), encoding="utf-8") as file:
            path.write_text(file.read() + "feedback.intracavity_photons = 1e8\n",
                            encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: feedback.intracavity_photons: the feedback cooperativity "
                       "divides by the gas damping: env.pressure_torr must be > 0\n")
        # singular, not a value error: a sweep still maps it as error cells
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), "--radius", "50:300:2",
                               "--atoms", "1e6:1e8:2", "--out", str(tmp_path / "map.csv"))
        assert code == 0 and "no valid cells" in out
        assert (tmp_path / "map.csv").read_text().count("error:singular-config") == 4

    def test_overflowing_radius_exit_2_with_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(HUGE_SPHERE_CONFIG, encoding="utf-8")
        code, out, err = run_cli(capsys, "report", "--config", str(path))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


    def test_non_finite_quantity_exit_2_naming_it(self, capsys, tmp_path):
        """A lattice power whose photon flux overflows is an error, not a nan report."""
        path = tmp_path / "bright.cfg"
        path.write_text(re.sub(r"(?m)^lattice\.power_uw\s*=.*$", "lattice.power_uw = 1e300",
                               CONFIG_300NM.read_text(encoding="utf-8")), encoding="utf-8")
        for fmt in ("text", "json"):
            code, out, err = run_cli(capsys, "report", "--config", str(path), "--format", fmt)
            assert (code, out) == (2, "")
            assert err == "error: flux_amplitude is not finite (inf)\n"


#: sha256 of the `levicool sweep` CSV of each config, recorded when each
#: number was formatted with Python's '%.12g'; the two reference configs differ
#: only in the swept radius, so their maps coincide
SWEEP_SHA256 = {
    ("300nm", ()): "0cde23a195517ae6ceda99ffb6df918a3b6b00d098ea0947ebca524aa02e9902",
    ("300nm", ("--log-atoms",)):
        "2c9adbf8fd78d6be7e7b1a34fdc62a1282ef67e955ca5b6f43d5b7285e67af4c",
    ("100nm", ()): "0cde23a195517ae6ceda99ffb6df918a3b6b00d098ea0947ebca524aa02e9902",
    ("100nm", ("--log-atoms",)):
        "2c9adbf8fd78d6be7e7b1a34fdc62a1282ef67e955ca5b6f43d5b7285e67af4c",
    # 1x1, 1xN and Nx1 grids
    ("300nm", ("--radius", "150:150:1", "--atoms", "5e7:5e7:1")):
        "e4dfc0f7795dfc0a537e396b04bfa89f958d1cdb36c035dbb6c930ceb3fab087",
    ("300nm", ("--radius", "150:150:1", "--atoms", "1e6:1e8:7", "--log-atoms")):
        "6e5d37e6d433c20b92549df5823591e6dfb2ed0afd9f42d88488680cb594c8ae",
    ("100nm", ("--radius", "50:300:6", "--atoms", "5e7:5e7:1")):
        "f7b2dbe2fb5036e520e3a4431256fc39d5c529bfc466dc5c88b1432e0e81ab20",
    # error cells: every cell of a dark lattice and of astronomical radii,
    # and the 15 of 18 cells whose radius overflows the model
    ("dark", ("--radius", "50:300:6", "--atoms", "1e6:1e8:5", "--log-atoms")):
        "13013459b2a0d06b8f825a2c8a1d6b93860ebab46b01cbebe94d1cd6e6114abb",
    ("300nm", ("--radius", "1e281:1e291:5", "--atoms", "1e6:1e8:5", "--log-atoms")):
        "91ba77e4804a1e13827e24425cefeb6834b41774c77cd9d749f63a7cd6267c63",
    ("300nm", ("--radius", "50:1e200:6", "--atoms", "1e6:1e8:3")):
        "261bad81ee767e0f5ee626133653c36b2aab5304c2054603cf2cb44b3c37954d",
}


class TestSweepCommand:
    @pytest.mark.parametrize("config, args", list(SWEEP_SHA256))
    def test_map_csv_bytes_are_pinned(self, capsys, tmp_path, config, args):
        if config == "dark":
            path = tmp_path / "dark.cfg"
            path.write_text(re.sub(r"(?m)^lattice\.power_uw\s*=.*$", "lattice.power_uw = 0",
                                   CONFIG_300NM.read_text(encoding="utf-8")),
                            encoding="utf-8")
        else:
            path = CONFIG_300NM if config == "300nm" else CONFIG_100NM
        out_path = tmp_path / "map.csv"
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path), *args,
                               "--out", str(out_path))
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == SWEEP_SHA256[config, args]
        if config == "dark" or "1e281:1e291:5" in args:
            # every cell is an error cell: there is no minimum to show
            rows = 30 if config == "dark" else 25
            assert out == f"wrote {rows} rows to {out_path}\nno valid cells\n"

    def test_oversized_grid_exit_2_before_allocating(self, capsys, tmp_path):
        out_path = tmp_path / "map.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", CFG300,
                                 "--radius", "50:300:1000000", "--atoms", "1e6:1e8:1000000",
                                 "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == ("error: sweep of 1000000000000 cells exceeds the limit of "
                       "1000000 cells\n")
        assert not out_path.exists()

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
        ("--radius", "50:3e2nm:26"),
        # outside a config file's number grammar, though float() and int() read them
        ("--radius", "50:300:1_0"), ("--radius", "50:300:\u0663"), ("--radius", "5_0:300:6"),
        ("--atoms", "1e6:\uff11e8:5")])
    def test_non_numeric_range_exit_2(self, capsys, tmp_path, flag, text):
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", CFG300, flag, text,
                                 "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be numeric lo:hi:steps, got {text!r}\n"
        assert not out_path.exists()

    def test_reversed_range_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--config", CFG300,
                                 "--radius", "300:50:3", "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert err == "error: radius range must have stop >= start\n"

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

    @pytest.mark.parametrize("flag, text, extra", [
        ("--radius", "-50:300:3", ()), ("--atoms", "-1e6:1e8:3", ()),
        ("--atoms", "-1e6:1e8:3", ("--log-atoms",))])
    def test_range_starting_with_minus_gets_range_message(self, capsys, tmp_path, flag,
                                                          text, extra):
        out_path = tmp_path / "x.csv"
        for argv in ((flag, text), (f"{flag}={text}",), (flag[:5], text)):
            code, out, err = run_cli(capsys, "sweep", "--config", CFG300, *argv, *extra,
                                     "--out", str(out_path))
            assert (code, out) == (2, "")
            assert err == f"error: {flag[2:]} range must be positive\n"
            assert not out_path.exists()

    def test_base_error_off_the_axes_exit_2_as_report(self, capsys, tmp_path):
        path = edited_config(tmp_path, "lattice.depth_recoils", 10)
        _, _, report_err = run_cli(capsys, "report", "--config", path)
        assert report_err.startswith("error: lattice.depth_recoils: ")
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--config", path, "--radius", "50:300:3",
                                 "--atoms", "1e6:1e8:2", "--out", str(out_path))
        assert (code, out, err) == (2, "", report_err)
        assert not out_path.exists()

    def test_unwritable_output_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", CFG300,
                               "--radius", "50:150:2", "--atoms", "1e6:1e7:2",
                               "--out", str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 1
        assert "i/o error" in err


#: sha256 of the `optimize --trace-out` bytes of CFG300 searches, recorded
#: when the CLI formatted each trace row with Python's format(..., ".12g")
OPTIMIZE_TRACE_SHA256 = {
    ("--vary", "atoms.count", "--bounds", "1e6:1e8", "--require", "ground_state"):
        "c3b8acc717b264054d707e5b3bfa17bcdb93f176b09ae571bf782ea6879d6cf6",
    ("--vary", "sphere.radius_nm,atoms.count,lattice.power_uw,tweezer.power_mw,cavity.finesse",
     "--bounds", "10:500,1e3:1e9,1:1e3,10:1e3,50:5000"):
        "d43a63bf53a006da9c781932b0b8e420b46ac8ec00fa01f5c94ccbe79affdac2",
    # error probes, whose n_ss field is empty
    ("--vary", "sphere.radius_nm", "--bounds", "50:1e200"):
        "a10e701cd86993d4ffaf67a8c256f454ecf1f603309e44dae0fedb1d03caa512",
    # notes naming two violated flags
    ("--vary", "sphere.radius_nm,cavity.finesse", "--bounds", "50:300,100:2000",
     "--require", "ground_state,strong_coupling"):
        "d9ea55ed755c220685014ec632656131708782bce2909ab697f73baf8e6b653e",
}


#: sha256 of the stdout of JSON commands on both reference configs, recorded
#: when `optimize` and `sensitivity` wrote their payloads with `json.dumps`
JSON_STDOUT_SHA256 = {
    ("optimize", "table1_300nm"):
        "110828068e8f4666b4f9edcc56cfadba6edea8c97ae6940cd3223285c21c4c45",
    ("optimize", "table1_100nm"):
        "95034027599aa1aa36cbb4e161fad1ac5a9d74b0629a592b980c9e4206f83adf",
    ("sensitivity", "table1_300nm"):
        "dbb7117470e0d162f8ae5733a1c52e44274a0d59252d37046b25562bc5926971",
    ("sensitivity", "table1_100nm"):
        "5ea62c02d34b86ed893361703e924a78a0457572034d1ac47f7689f980cc67c6",
}
JSON_COMMAND_ARGS = {"optimize": (), "sensitivity": ("--param", "atoms.count")}


@pytest.mark.parametrize("command, config", sorted(JSON_STDOUT_SHA256))
def test_json_stdout_bytes_are_pinned(capsys, command, config):
    code, out, err = run_cli(capsys, command, "--config", str(CONFIG_DIR / f"{config}.cfg"),
                             *JSON_COMMAND_ARGS[command], "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_STDOUT_SHA256[command, config]


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

    @pytest.mark.parametrize("args", list(OPTIMIZE_TRACE_SHA256))
    def test_trace_csv_bytes_are_pinned(self, capsys, tmp_path, args):
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "optimize", "--config", CFG300, *args,
                             "--trace-out", str(trace))
        assert code == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == OPTIMIZE_TRACE_SHA256[args]

    def test_infeasible_base_names_whole_flags(self, capsys):
        """ground_state holds at the base (its name is part of the violated flag's)."""
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                 "--require", "ground_state,feedback_ground_state_feasible")
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "infeasible: base configuration violates the required constraints",
            "violated constraints: feedback_ground_state_feasible"]

    def test_base_the_model_rejects_exit_2_as_report(self, capsys, tmp_path):
        path = tmp_path / "huge.cfg"
        path.write_text(HUGE_SPHERE_CONFIG, encoding="utf-8")
        _, _, report_err = run_cli(capsys, "report", "--config", str(path))
        for require in ((), ("--require", "ground_state")):
            code, out, err = run_cli(capsys, "optimize", "--config", str(path), *require)
            assert (code, out, err) == (2, "", report_err)
        assert report_err.startswith("error: the model's arithmetic failed (OverflowError")

    def test_base_error_off_the_varied_keys_exit_2_as_report(self, capsys, tmp_path):
        path = edited_config(tmp_path, "lattice.depth_recoils", 10)
        _, _, report_err = run_cli(capsys, "report", "--config", path)
        trace_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "optimize", "--config", path,
                                 "--vary", "atoms.count", "--bounds", "1e6:1e8",
                                 "--trace-out", str(trace_path))
        assert (code, out, err) == (2, "", report_err)
        assert not trace_path.exists()

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

    @pytest.mark.parametrize("bounds, message", [
        ("1e6", "bad bounds '1e6' for 'atoms.count'; expected lo:hi"),
        ("1e6:5e7:9", "bad bounds '1e6:5e7:9' for 'atoms.count'; expected lo:hi"),
        ("1e6:many", "bad bounds '1e6:many' for 'atoms.count'"),
        # outside a config file's number grammar, though float() reads them
        ("1_00:1_000", "bad bounds '1_00:1_000' for 'atoms.count'"),
        ("1e6:\u0661e8", "bad bounds '1e6:\u0661e8' for 'atoms.count'")])
    def test_malformed_bounds_exit_2(self, capsys, bounds, message):
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                 "--vary", "atoms.count", "--bounds", bounds)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_required_flag_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300, "--vary",
                                 "atoms.count", "--bounds", "1e6:1e8", "--require", "cold")
        assert (code, out) == (2, "")
        assert err == ("error: unknown constraint flag 'cold'; choose from ('ground_state', "
                       "'strong_coupling', 'adiabatic_ok', 'weak_coupling_ok', 'bad_cavity', "
                       "'feedback_ground_state_feasible')\n")

    @pytest.mark.parametrize("vary, bounds", [
        ("atoms.count", "-1e6:1e8"), ("sphere.radius_nm,atoms.count", "-5:100,1e6:1e8")])
    def test_bounds_starting_with_minus_get_bounds_message(self, capsys, vary, bounds):
        for argv in (("--bounds", bounds), (f"--bounds={bounds}",), ("--bou", bounds)):
            code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                     "--vary", vary, *argv)
            assert (code, out) == (2, "")
            key = vary.split(",")[0]
            assert err == f"error: bounds for {key!r} must be finite, positive, lo < hi\n"

    @pytest.mark.parametrize("fmt, stdout_sha256", [
        ("text", "7d0cb96a94947b8d0471b91585fe3da068fa34c634d6705b98fc318fb98edc9b"),
        ("json", "21a3b5b36d66212d08cb76cc8949755a8c853d26f79e0548f027470af35ebad6")])
    def test_optimum_is_evaluated_once(self, capsys, tmp_path, monkeypatch, fmt,
                                       stdout_sha256):
        """The report is built from the optimizer's own evaluation of the optimum;
        output digests recorded when the command evaluated it a second time."""
        evaluate = importlib.import_module("levicool.steady_state").evaluate
        calls = []

        def counted(config):
            calls.append(config)
            return evaluate(config)

        monkeypatch.setattr(levicool.cli, "evaluate", counted)
        monkeypatch.setattr(levicool.sweep, "evaluate", counted)
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "optimize", "--config", CFG300,
                               "--vary", "sphere.radius_nm,atoms.count",
                               "--bounds", "100:400,1e6:1e8", "--format", fmt,
                               "--trace-out", str(trace))
        assert code == 0
        # one broadcast coarse pass, then one call per golden-section probe
        assert len(calls) == 57
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "aaed6189875650527ae3fe0c17bd7dadb053f36981fbf6b49930579de21365f5")

    def test_repeated_vary_key_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                 "--vary", "atoms.count,atoms.count",
                                 "--bounds", "1e6:1e7,1e8:1e9")
        assert code == 2
        assert out == ""
        assert err == "error: variable 'atoms.count' is listed more than once\n"

    def test_more_variables_than_the_coarse_grid_takes_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300, "--vary",
                                 "sphere.radius_nm,cavity.finesse,lattice.power_uw,"
                                 "tweezer.power_mw,atoms.count,cavity.length_cm",
                                 "--bounds", "100:300,100:1000,10:100,100:500,1e4:1e6,1:10")
        assert (code, out, err) == (2, "", "error: at most 5 variables may be varied\n")

    def test_repeated_require_flag_exit_2_without_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "optimize", "--config", CFG300,
                                 "--vary", "cavity.finesse", "--bounds", "5000:5001",
                                 "--require", "ground_state,ground_state",
                                 "--trace-out", str(trace))
        assert code == 2
        assert out == ""
        assert err == "error: constraint flag 'ground_state' is listed more than once\n"
        assert not trace.exists()


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

        single = []
        for argv in calls:
            _build_parser.cache_clear()   # as in a fresh process
            single.append(run_cli(capsys, *argv))
        assert [code for code, _, _ in single] == [0, 0, 0, 2, 0, 0]
        # one parser for all of them, the calls twice over, in both orders
        assert [run_cli(capsys, *argv) for argv in calls] == single
        assert [run_cli(capsys, *argv) for argv in reversed(calls)] == single[::-1]


#: each command that writes a file, with every argument but the output path
WRITING_COMMANDS = {
    "sweep": ("sweep", "--config", CFG300, "--radius", "50:150:3", "--atoms", "1e6:1e7:3",
              "--out"),
    "optimize": ("optimize", "--config", CFG300, "--vary", "atoms.count",
                 "--bounds", "1e6:1e8", "--trace-out"),
    "simulate": ("simulate", "--config", CFG300, "--out"),
}


class TestOutputFiles:
    """`--out` and `--trace-out` overwrite an existing file in place."""

    def written(self, capsys, command, path):
        code, _, err = run_cli(capsys, *WRITING_COMMANDS[command], str(path))
        assert (code, err) == (0, "")
        return path.read_bytes()

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_longer_existing_file_gets_the_bytes_of_a_new_one(self, capsys, tmp_path,
                                                               command):
        fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
        expected = self.written(capsys, command, fresh)
        existing.write_bytes(b"stale\n" * (len(expected) // 3 + 10))
        inode = existing.stat().st_ino
        assert self.written(capsys, command, existing) == expected
        assert existing.stat().st_ino == inode

    def test_symlinked_output_updates_its_target(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"stale\n" * 1000)
        link.symlink_to(target)
        expected = self.written(capsys, "sweep", tmp_path / "fresh.csv")
        assert self.written(capsys, "sweep", link) == expected
        assert link.is_symlink()
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("command", sorted(WRITING_COMMANDS))
    def test_device_output_exit_0(self, capsys, command):
        code, out, err = run_cli(capsys, *WRITING_COMMANDS[command], os.devnull)
        assert (code, err) == (0, "")
        if command == "sweep":
            assert out.startswith(f"wrote 9 rows to {os.devnull}\n")


#: argvs whose exit, output and files the full parser decides; "OUT" is an output path
DISPATCH_ARGVS = [
    ("report", "--config", CFG300, "--format", "json"),
    ("sweep", "--config", CFG100, "--radius", "50:150:3", "--atoms", "1e6:1e8:3",
     "--log-atoms", "--out", "OUT"),
    ("optimize", "--config", CFG300, "--vary", "atoms.count", "--bounds", "1e6:1e8",
     "--trace-out", "OUT"),
    ("simulate", "--config", CFG300, "--t-end", "1e-4", "--out", "OUT"),
    ("sensitivity", "--config", CFG300, "--param", "cavity.finesse", "--rel-step", "-1e-3"),
    (),
    ("-h",),
    ("sweep", "-h"),
    ("--config", CFG300, "report"),
    ("survey", "--config", CFG300),
    ("report",),
    ("sweep", "--config", CFG300),
    ("report", "--config", CFG300, "--format", "yaml"),
    ("report", "--config", CFG300, "--bogus"),
    ("sweep", "--config", CFG300, "--out", "OUT", "--bogus", "1", "--radius", "50:60:2"),
    ("report", "--config", CFG300, "stray"),
    ("report", "stray", "--config", CFG300, "--bogus=2"),
    ("simulate", "--config", CFG300, "--dt", "-1e-9", "--out", "OUT"),
]


def argv_id(argv) -> str:
    """A test id for `argv` that names a config file without its directory."""
    return " ".join(os.path.basename(arg) if arg.endswith(".cfg") else arg for arg in argv)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=argv_id)
def test_command_parser_alone_behaves_as_the_full_parser(capsys, tmp_path, monkeypatch,
                                                         argv):
    """`main` parses an argv that starts with a command with that command's
    parser alone; its exit code, stdout, stderr and output file are those of
    the full parser's `parse_args`, which decides every other argv."""
    path = tmp_path / "out.csv"
    argv = [str(path) if arg == "OUT" else arg for arg in argv]
    parser, commands = _build_parser()

    def outcome():
        result = run_cli(capsys, *argv)
        written = path.read_bytes() if path.exists() else None
        path.unlink(missing_ok=True)
        return result, written

    dispatched = outcome()
    with monkeypatch.context() as patch:
        patch.setattr(levicool.cli, "_build_parser", lambda: (parser, {}))
        assert outcome() == dispatched
    assert set(commands) == {"report", "sweep", "optimize", "simulate", "sensitivity"}


#: argvs of the commands that write a CSV, but the output path: each
#: reference config, and a map with error cells (15 of its 18 radii overflow)
CSV_ARGVS = [(*argv[:2], config, *argv[3:]) for argv in WRITING_COMMANDS.values()
             for config in (CFG300, CFG100)] + [
    ("sweep", "--config", CFG300, "--radius", "50:1e200:6", "--atoms", "1e6:1e8:3", "--out")]
#: the methods that write the CSV of each kind of result
CSV_METHODS = [(levicool.sweep.SweepResult, "to_csv"), (levicool.sweep.OptimizeResult, "trace_csv"),
               (levicool.dynamics.SimulationTrace, "to_csv")]


@pytest.mark.parametrize("argv", CSV_ARGVS, ids=argv_id)
def test_written_csv_is_the_methods_text(capsys, tmp_path, monkeypatch, argv):
    """A command's output file holds the bytes its result's CSV method writes
    to a binary file: the method's str encoded as ASCII."""
    sources = []    # (result, unpatched method) of each CSV written
    for owner, name in CSV_METHODS:
        def recording(self, file=None, _method=getattr(owner, name)):
            sources.append((self, _method))
            return _method(self, file)
        monkeypatch.setattr(owner, name, recording)
    path = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    [(result, method)] = sources
    sink = io.BytesIO()
    assert method(result, sink) is None
    assert path.read_bytes() == method(result).encode("ascii") == sink.getvalue()
    if "50:1e200:6" in argv:
        assert sink.getvalue().count(b",error:") == 15


#: sha256 of the trace CSV of `levicool simulate` on each reference config
SIMULATE_SHA256 = {
    ("300nm", ()): "7e8bba1398f826f81513c04fa35cc584b853877b906178916f3340340c396b0e",
    ("300nm", ("--cooling-off-at", "5e-4")):
        "5fc1c49409f71e2b36eb50d9b63baa3b94a03140584958d88628a262bbda31e6",
    ("300nm", ("--cooling-off-at", "0")):
        "878464d03e2f7c5018c19c6c6aae80044ad37b1ac60cdcf0d8e902f25d155d01",
    ("300nm", ("--t-end", "0")):
        "adf7bfad4e7cd65b89ef9637935423c29f946f0e79596f392a8c5faadba0c279",
    ("300nm", ("--t-end", "2e-3", "--dt", "1e-7", "--cooling-off-at", "1.3e-3", "--n0", "0")):
        "610de25a52ce18dbf5d2ff2d39b8e7c4116fcc3a670e4500ef4425cc4bf84bc2",
    ("100nm", ()): "3f7d73d09c31bf14d6bd2846f420d21d549c500f5934c76b662d4a1b1aa85f7a",
    ("100nm", ("--cooling-off-at", "5e-4")):
        "da1fd156751e0df2e8f05516f28ae70323349c8f3f5951c0707a1ecb4e07d05d",
    ("100nm", ("--cooling-off-at", "0")):
        "ad26c093fced09c1590a1f24966c0a9e5e119180cba7d11e6390c2570400f378",
    ("100nm", ("--t-end", "0", "--cooling-off-at", "0")):
        "90ab6bf54a6dffdd0bd22e80fedecd79b417520699678058c0aba888359ad0ab",
    ("100nm", ("--t-end", "2e-3", "--dt", "1e-7", "--cooling-off-at", "1.3e-3", "--n0", "0")):
        "d9f7f65394a4728ba987e1c29903d867f1d84088e5137bf2e72c6927f011e1ca",
}


@pytest.mark.parametrize("command, option, value, message", [
    ("simulate", "--dt", "-1e-9", "dt must be > 0"),
    ("simulate", "--n0", "-1e3", "initial occupation must be >= 0"),
    ("simulate", "--cooling-off-at", "-1e-4", "cooling_off_at must lie within [0, t_end]"),
    ("simulate", "--t-end", "-1e-3", "t_end must be >= 0"),
    ("sensitivity", "--rel-step", "-1e-3", "--rel-step must be in (0, 0.1]")])
def test_negative_scientific_value_gets_the_programs_message(capsys, tmp_path, command,
                                                             option, value, message):
    """A negative value in scientific notation after its option reaches the
    command's own check, as the `--option=value` form does."""
    out_path = tmp_path / "t.csv"
    extra = (("--out", str(out_path)) if command == "simulate"
             else ("--param", "cavity.finesse"))
    for argv in ((option, value), (f"{option}={value}",)):
        code, out, err = run_cli(capsys, command, "--config", CFG300, *argv, *extra)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("config, args", list(SIMULATE_SHA256))
    def test_trace_csv_bytes_are_pinned(self, capsys, tmp_path, config, args):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", CFG300 if config == "300nm" else CFG100,
                             *args, "--out", str(out_path))
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == SIMULATE_SHA256[config, args]

    @pytest.mark.parametrize("dt", ["1e-300", "5e-324", "1e-11"])
    def test_tiny_dt_exit_2_naming_the_sample_limit(self, capsys, tmp_path, dt):
        out_path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", CFG300,
                                 "--t-end", "1e-3", "--dt", dt, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err == (f"error: dt too small: dt = {float(dt)!r} s needs more than "
                       "10000000 samples over t_end = 0.001 s\n")
        assert not out_path.exists()

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
        payload = strict_json_loads(out)
        assert payload["sensitivity"]["elasticity"] < 0.0
        assert "steady_state" in payload["report_low"]
        assert "steady_state" in payload["report_high"]
        low = payload["report_low"]["steady_state"]["occupation"]
        high = payload["report_high"]["steady_state"]["occupation"]
        assert low > high  # more atoms cool better

    def test_header_numbers_show_as_report_rows(self, capsys, tmp_path):
        """9999.7 rounds to 1.000e+04 in the header, as in the report."""
        path = tmp_path / "finesse.cfg"
        path.write_text(re.sub(r"(?m)^cavity\.finesse\s*=.*$", "cavity.finesse = 9999.7",
                               CONFIG_300NM.read_text(encoding="utf-8")), encoding="utf-8")
        code, out, _ = run_cli(capsys, "sensitivity", "--config", str(path),
                               "--param", "cavity.finesse")
        assert code == 0
        assert "\nbase_value = 1.000e+04\n" in out
        code, out, _ = run_cli(capsys, "report", "--config", str(path))
        assert code == 0
        assert re.search(r"(?m)^cavity\.finesse += 1\.000e\+04$", out)

    def test_gas_free_sub_reports_carry_null_quality_factor(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sensitivity", "--config",
                                 edited_config(tmp_path, "env.pressure_torr", 0),
                                 "--param", "atoms.count", "--format", "json")
        assert (code, err) == (0, "")
        payload = strict_json_loads(out)
        for report in ("report_low", "report_high"):
            assert payload[report]["derived"]["quality_factor"] is None

    def test_negative_value_elasticity_matches_finite_difference(self, capsys, tmp_path):
        """x/n dn/dx, from ln|x|, for a key whose value is negative."""
        from levicool import evaluate, load_config, set_value

        key = "atoms.sphere_detuning_2pi_hz"
        path = edited_config(tmp_path, key, -1000)
        code, out, err = run_cli(capsys, "sensitivity", "--config", path, "--param", key,
                                 "--rel-step", "0.01", "--format", "json")
        assert (code, err) == (0, "")
        config = load_config(path)
        base = evaluate(config)[2].occupation
        lo = evaluate(set_value(config, key, -1000 * 0.99))[2].occupation
        hi = evaluate(set_value(config, key, -1000 * 1.01))[2].occupation
        expected = -1000 / base * (hi - lo) / (-1000 * 0.02)
        assert strict_json_loads(out)["sensitivity"]["elasticity"] == pytest.approx(
            expected, rel=1e-3)

    @pytest.mark.parametrize("step", ["1e-15", "1e-16", "1e-300"])
    def test_step_too_small_to_separate_values_exit_2(self, capsys, step):
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "atoms.count", "--rel-step", step)
        assert (code, out) == (2, "")
        assert err == (f"error: --rel-step {float(step)!r} is too small to separate "
                       "the perturbed values of 'atoms.count'\n")

    def test_small_step_that_separates_values_succeeds(self, capsys):
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "atoms.count", "--rel-step", "1e-10")
        assert (code, err) == (0, "")
        assert float(re.search(r"elasticity = (\S+)", out).group(1)) < 0.0

    @pytest.mark.parametrize("step", ["1e-13", "1e-14"])
    def test_step_within_roundoff_of_n_ss_exit_2(self, capsys, step):
        """The perturbed occupations differ by 704 and 68 ulps; the elasticity
        would print as -0.4978 and -0.4479 against -0.4949 at larger steps."""
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "atoms.count", "--rel-step", step)
        assert (code, out) == (2, "")
        assert err == (f"error: --rel-step {float(step)!r} changes n_ss by 1000 ulps or "
                       "less between the perturbed values of 'atoms.count', so the "
                       "elasticity would be roundoff\n")

    def test_key_n_ss_ignores_beyond_roundoff_exit_2_at_the_largest_step(self, capsys):
        """n_ss does not depend on the cavity length in paper-anchored mode, yet
        roundoff moves it by 1 ulp at the largest step, so no step would help."""
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "cavity.length_cm", "--rel-step", "0.1")
        assert (code, out) == (2, "")
        assert err == ("error: n_ss does not depend on 'cavity.length_cm' beyond "
                       "roundoff: the largest --rel-step, 0.1, changes it by 1000 ulps "
                       "or less\n")

    @pytest.mark.parametrize("step", ["0.05", "0.02"])
    def test_key_n_ss_ignores_exit_2_below_the_largest_step(self, capsys, step):
        """Within roundoff at a smaller step too, the largest step decides that no
        step would help; the message is the one the largest step gives."""
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "cavity.length_cm", "--rel-step", step)
        assert (code, out) == (2, "")
        assert err == ("error: n_ss does not depend on 'cavity.length_cm' beyond "
                       "roundoff: the largest --rel-step, 0.1, changes it by 1000 ulps "
                       "or less\n")

    @pytest.mark.parametrize("key, base, ignores", [
        ("cavity.length_cm", 5.0, True),
        ("atoms.count", 5e7, False),
        # 1.1 is out of (0, 1], so the largest step cannot decide
        ("cavity.coupling_efficiency", 1.0, False),
    ])
    def test_largest_step_check(self, key, base, ignores):
        from levicool import cli, load_config

        assert cli._ignores_at_max_step(load_config(CFG300), key, base) is ignores

    def test_non_numeric_param_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300,
                                 "--param", "mode")
        assert (code, out, err) == (2, "", "error: 'mode' is not a numeric key\n")

    #: sha256 of stdout on the 300 nm config, recorded before the roundoff guard:
    #: a small step well clear of it, and a key n_ss does not depend on (elasticity 0)
    UNGUARDED_SHA256 = {
        ("atoms.count", "1e-10", "text"):
            "1619e311df3bbb8ccfa11e4c9b6d9dd086c6e0c977cb21bbd9fb8ce01a41fcea",
        ("atoms.count", "1e-10", "json"):
            "4ba7b32c367daf052e7e195f22a298b12705b0f8b9836c932cef9aaa00923764",
        ("cavity.detection_power_uw", "0.01", "text"):
            "f90e3d6adfbdbf81037d185018cab2772ce86703ab90d8b26b179cc8aad042d3",
        ("cavity.detection_power_uw", "0.01", "json"):
            "e87b6c54a812e2db89aef1c58ca93e20cc8c0d7f4298d4a63453c384cd8e9c45",
    }

    @pytest.mark.parametrize("param, step, fmt", sorted(UNGUARDED_SHA256))
    def test_output_clear_of_the_roundoff_guard_is_unchanged(self, capsys, param, step, fmt):
        code, out, err = run_cli(capsys, "sensitivity", "--config", CFG300, "--param", param,
                                 "--rel-step", step, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.UNGUARDED_SHA256[
            param, step, fmt]
        if param == "cavity.detection_power_uw" and fmt == "text":
            assert "\nelasticity = 0\n" in out

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
