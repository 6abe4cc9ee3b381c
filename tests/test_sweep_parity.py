"""The broadcast sweep against a cell-by-cell oracle through scalar `evaluate`.

The oracle is the per-cell loop the grid pass replaced: it rebuilds the
config for every cell and renders the CSV row from that cell's own
`evaluate`. A sweep must reproduce it byte for byte, including the error,
inf and nan cells at the edges of the model's range.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from levicool import (FeedbackReadout, InvalidGeometryError, NoiseBudget,
                      SingularConfigurationError, SweepSpec, evaluate,
                      from_display_hz, run_sweep, to_display_hz)
from levicool.cli import main
from levicool.sweep import CSV_HEADER

from conftest import CONFIG_300NM, make_random_config

# the oracle evaluates edge cells on numpy scalars, which warn on overflow
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _oracle_cell(base, radius, count):
    """(row, steady report or None) of one cell, evaluated on its own."""
    config = replace(base, sphere=replace(base.sphere, radius=radius),
                     atoms=replace(base.atoms, count=count))
    head = f"{format(radius * 1e9, '.12g')},{format(count, '.12g')}"
    try:
        _, bundle, report = evaluate(config)
    except (ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, InvalidGeometryError):
            reason = "invalid-geometry"
        elif isinstance(exc, (SingularConfigurationError, ZeroDivisionError)):
            reason = "singular-config"
        else:
            reason = "infeasible"
        return f"{head},,,,,,,,error:{reason}", None
    fields = [format(to_display_hz(rate), ".12g") for rate in (
        bundle.coupling, bundle.cooling, bundle.sphere_recoil,
        bundle.sphere_backaction, bundle.thermalization)]
    fields += [format(report.occupation, ".12g"),
               format(report.strong_coupling_ratio, ".12g"),
               ";".join(report.flags.true_names()) or "-"]
    return f"{head},{','.join(fields)}", report


def assert_matches_oracle(spec):
    result = run_sweep(spec)
    rows, reports = [CSV_HEADER], []
    for radius in spec.radius_values():
        for count in spec.atoms_values():
            row, report = _oracle_cell(spec.base_config, radius, count)
            rows.append(row)
            reports.append(report)
    csv_text = result.to_csv()
    assert csv_text == "\n".join(rows) + "\n"
    # the cell records carry the scalar pipeline's bits, not just 12 digits
    for cell, report in zip(result.cells, reports, strict=True):
        assert (cell.error is None) == (report is not None)
        if report is not None:
            assert cell.flags == report.flags
            for got, want in ((cell.occupation, report.occupation),
                              (cell.strong_coupling_ratio, report.strong_coupling_ratio)):
                assert got == want or (math.isnan(got) and math.isnan(want))
    return csv_text.splitlines()[1:]


def grid(base, radius=(50e-9, 300e-9, 6), atoms=(1e6, 1e8, 5), log_atoms=True):
    return SweepSpec(base_config=base, radius_start=radius[0], radius_stop=radius[1],
                     radius_steps=radius[2], atoms_start=atoms[0], atoms_stop=atoms[1],
                     atoms_steps=atoms[2], log_atoms=log_atoms)


@pytest.mark.parametrize("seed", range(20))
def test_random_designs(seed):
    base = make_random_config(np.random.default_rng(seed))
    assert_matches_oracle(grid(base, radius=(10e-9, 500e-9, 7),
                               atoms=(1e3, 1e9, 6), log_atoms=seed % 2 == 0))


def test_dark_lattice_fails_every_cell(config_300nm):
    dark = replace(config_300nm, lattice=replace(config_300nm.lattice, power=0.0))
    rows = assert_matches_oracle(grid(dark))
    assert all(row.endswith(",error:singular-config") for row in rows)


def test_astronomical_radius_gives_nan_rows(config_300nm):
    rows = assert_matches_oracle(grid(config_300nm, radius=(1e281, 1e291, 5)))
    assert all(",nan," in row and row.endswith(",bad_cavity") for row in rows)


def test_vanishing_radius_is_singular(config_300nm):
    rows = assert_matches_oracle(grid(config_300nm, radius=(1e-309, 1e-299, 5)))
    assert all(row.endswith(",error:singular-config") for row in rows)


def test_overflowing_atom_count_gives_inf(config_300nm):
    rows = assert_matches_oracle(grid(config_300nm, atoms=(1e300, 1e308, 4)))
    assert any(",inf," in row for row in rows)


@pytest.mark.parametrize("variant", [
    "zero-pressure", "quality-override", "cooling-override", "first-principles",
    "feedback-and-detection", "noise-in-occupation",
])
def test_model_branches(config_300nm, variant):
    c = config_300nm
    base = {
        "zero-pressure": replace(c, environment=replace(c.environment, pressure=0.0)),
        "quality-override": replace(c, sphere=replace(c.sphere, quality_factor=1e9)),
        "cooling-override": replace(
            c, atoms=replace(c.atoms, cooling_rate=from_display_hz(5e3))),
        "first-principles": replace(c, mode="first-principles"),
        "feedback-and-detection": replace(
            c, cavity=replace(c.cavity, detection_power=1e-5),
            feedback=FeedbackReadout(intracavity_photons=1e6)),
        "noise-in-occupation": replace(c, noise=NoiseBudget(
            intensity_psd=1e-8, pointing_psd=1e-30, mean_square_position=1e-18,
            include_in_occupation=True)),
    }[variant]
    assert_matches_oracle(grid(base))


def test_default_cli_sweep_is_pinned(capsys, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["sweep", "--config", str(CONFIG_300NM), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0cde23a195517ae6ceda99ffb6df918a3b6b00d098ea0947ebca524aa02e9902"
    assert capsys.readouterr().out == (
        f"wrote 546 rows to {out}\n"
        "min n_ss = 0.05854 at a = 50.00 nm, N_at = 1.000e+08\n"
        "strong-coupling fraction = 0.1941\n")
