"""Acceptance suite.

One test per criterion; each prints a PASS line once its assertions hold,
so `pytest -s tests/test_acceptance.py` gives a one-line-per-criterion
summary. Tolerances are the contract tolerances, stated inline.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from levicool import (Axis, SweepSpec, TWO_PI, build_rate_bundle, derive, evaluate,
                      load_config, normal_modes, evolve_occupation,
                      run_sweep, to_display_hz)
from levicool.steady_state import steady_state
from levicool.rates import atom_light_coupling, sphere_light_coupling
from levicool.constants import AngularRate

from conftest import CONFIG_100NM, CONFIG_300NM, closed_form_coupling, make_random_config


def _report(criterion: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: PASS{suffix}")


def _check_row(name, actual_2pi_hz, expected_2pi_hz, rel):
    assert actual_2pi_hz == pytest.approx(expected_2pi_hz, rel=rel), (
        f"{name}: got 2pi x {actual_2pi_hz:.4g} Hz, "
        f"expected 2pi x {expected_2pi_hz:.4g} Hz +-{rel:.0%}")


def test_criterion_1_reference_table_reproduction():
    """Both bundled fixtures reproduce the published rate table, < 1 s."""
    start = time.perf_counter()
    results = {}
    for path in (CONFIG_300NM, CONFIG_100NM):
        config = load_config(path)
        results[path.name] = evaluate(config)

    d300, b300, s300 = results["table1_300nm.cfg"]
    d100, b100, s100 = results["table1_100nm.cfg"]

    _check_row("kappa(300)", to_display_hz(b300.cavity_linewidth), 7.5e6, 0.01)
    _check_row("kappa(100)", to_display_hz(b100.cavity_linewidth), 7.5e6, 0.01)
    _check_row("g(300)", to_display_hz(b300.coupling), 5.9e3, 0.05)
    _check_row("g(100)", to_display_hz(b100.coupling), 1.1e3, 0.05)
    _check_row("cooling(300)", to_display_hz(b300.cooling), 2.1e4, 0.05)
    _check_row("cooling(100)", to_display_hz(b100.cooling), 4.1e3, 0.05)
    _check_row("backaction(300)", to_display_hz(b300.sphere_backaction), 4.5e3, 0.10)
    _check_row("backaction(100)", to_display_hz(b100.sphere_backaction), 1.7e2, 0.10)
    _check_row("atom_diffusion(300)", to_display_hz(b300.atom_diffusion), 0.27, 0.10)
    _check_row("atom_diffusion(100)", to_display_hz(b100.atom_diffusion), 0.27, 0.10)
    _check_row("recoil(300)", to_display_hz(b300.sphere_recoil), 6.6e3, 0.35)
    _check_row("recoil(100)", to_display_hz(b100.sphere_recoil), 2.4e2, 0.35)
    _check_row("thermalization(300)", to_display_hz(b300.thermalization), 9.0, 0.15)
    _check_row("thermalization(100)", to_display_hz(b100.thermalization), 28.0, 0.15)
    for bundle, expected in ((b300, 6.6e-8), (b100, 1.9e-7)):
        value = to_display_hz(bundle.gas_damping)
        assert expected / 2 < value < expected * 2, "gas damping beyond factor 2"
    assert abs(s300.occupation - 0.41) < 0.05
    assert abs(s100.occupation - 0.09) < 0.05

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion-1 reference-table", f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_zero_point_motion():
    """Oscillator length at 150 nm radius: 2.4e-12 m within 3%."""
    derived = derive(load_config(CONFIG_300NM))
    assert derived.sphere_oscillator_length == pytest.approx(2.4e-12, rel=0.03)
    _report("criterion-2 zero-point-motion",
            f"{derived.sphere_oscillator_length:.3e} m")


def test_criterion_3_displacement_sensitivity():
    """A 10 uW readout beam reaches within a factor 2 of 2e-14 m/sqrt(Hz)."""
    _, bundle, _ = evaluate(load_config(CONFIG_300NM))
    floor = bundle.sensitivity_floor
    assert floor is not None
    assert 0.5 < floor / 2e-14 < 2.0
    _report("criterion-3 displacement-sensitivity", f"{floor:.3e} m/rtHz")


def test_criterion_4_design_map_properties():
    """Qualitative design-map checks over 50-300 nm x 1e6-1e8 atoms, < 10 s."""
    start = time.perf_counter()
    config = load_config(CONFIG_300NM)
    spec = SweepSpec(config, Axis(50e-9, 300e-9, 26), Axis(1e6, 1e8, 21, log=True))
    result = run_sweep(spec)
    assert result.cells == range(546)
    assert result.errors == {}
    occupation = result.values["occupation"].reshape(26, 21)
    ratio = result.values["strong_coupling_ratio"].reshape(26, 21)

    def nearest_cell(radius, count):
        # the log distance is a sum over the axes, so each axis is searched alone
        return (int(np.argmin(np.abs(np.log(result.radii / radius)))),
                int(np.argmin(np.abs(np.log(result.counts / count)))))

    # (i) the ground-state region contains both reference design points
    small = nearest_cell(50e-9, 5e7)
    large = nearest_cell(150e-9, 5e7)
    assert occupation[small] < 1.0
    assert occupation[large] < 1.0
    # (ii) strong coupling at the small sphere, not at the large one
    assert ratio[small] > 1.0
    assert ratio[large] < 1.0
    # (iii) the ratio is monotone in atom count along every radius row
    for row in ratio.tolist():
        assert all(a < b for a, b in zip(row, row[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion-4 design-map", f"546 cells in {elapsed:.2f} s")


def test_criterion_5_identity_suite():
    """Model identities: coupling product, thermalization product,
    occupation decomposition, finesse scalings."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        derived = derive(make_random_config(rng))
        coupling = build_rate_bundle(derived).coupling
        assert coupling == 2.0 * atom_light_coupling(derived) * sphere_light_coupling(derived)
        closed = closed_form_coupling(derived)
        worst = max(worst, abs(closed - coupling) / closed)
    assert worst < 1e-9

    config = load_config(CONFIG_300NM)
    _, bundle, steady = evaluate(config)
    assert bundle.thermalization == bundle.thermal_occupation * bundle.gas_damping
    total = (steady.term_cooling_balance + steady.term_atom_cooling_limit
             + steady.term_atom_diffusion_limit)
    assert steady.occupation == total

    doubled = replace(config, cavity=replace(config.cavity, finesse=800.0))
    b2 = build_rate_bundle(derive(doubled))
    assert b2.coupling / bundle.coupling == pytest.approx(2.0, rel=0.01)
    assert b2.sphere_backaction / bundle.sphere_backaction == pytest.approx(4.0,
                                                                            rel=0.01)
    _report("criterion-5 identity-suite",
            f"worst coupling-identity deviation {worst:.2e}")


def test_criterion_6_dynamics_oracles():
    """Integrator vs closed form (1e-6), fixed point (1e-4), splitting (1e-10)."""
    _, bundle, steady = evaluate(load_config(CONFIG_300NM))
    rate = bundle.gas_damping + bundle.cooling
    n0 = bundle.thermal_occupation
    trace = evolve_occupation(bundle, n0, 20.0 / rate, dt=0.02 / rate)
    worst = 0.0
    for t, n in zip(trace.times, trace.occupations):
        exact = steady.occupation + (n0 - steady.occupation) * math.exp(-rate * t)
        worst = max(worst, abs(n - exact) / exact)
    assert worst < 1e-6

    settle = evolve_occupation(bundle, 50.0 * steady.occupation, 15.0 / rate,
                               dt=0.02 / rate)
    assert settle.final_occupation == pytest.approx(steady.occupation, rel=1e-4)

    g = TWO_PI * 1.1e3
    omega = TWO_PI * 45e3
    modes = normal_modes(omega, omega, g)
    assert float(modes.splitting) == pytest.approx(2.0 * g, rel=1e-10)
    _report("criterion-6 dynamics-oracles", f"worst trace deviation {worst:.2e}")


def test_criterion_7_determinism(tmp_path):
    """Repeated sweeps and reports are byte-identical."""
    config = load_config(CONFIG_300NM)
    spec = SweepSpec(config, Axis(50e-9, 300e-9, 6), Axis(1e6, 1e8, 7, log=True))
    serial_1 = run_sweep(spec).to_csv()
    serial_2 = run_sweep(spec).to_csv()
    assert serial_1 == serial_2

    from levicool.report import build_report, render_json, render_text

    derived, bundle, steady = evaluate(config)
    doc_1 = build_report(config, derived, bundle, steady)
    derived, bundle, steady = evaluate(config)
    doc_2 = build_report(config, derived, bundle, steady)
    assert render_text(doc_1) == render_text(doc_2)
    assert render_json(doc_1) == render_json(doc_2)
    _report("criterion-7 determinism")


def test_criterion_8_scaling_properties():
    """Coupling grows as radius^(3/2); occupation falls as cooling rises."""
    config = load_config(CONFIG_300NM)
    derived = derive(config)
    doubled = derive(replace(
        config, sphere=replace(config.sphere, radius=2.0 * config.sphere.radius)))
    ratio = build_rate_bundle(doubled).coupling / build_rate_bundle(derived).coupling
    assert ratio == pytest.approx(2.0 ** 1.5, rel=0.01)

    from test_steady_state import make_bundle
    rng = np.random.default_rng(31337)
    for _ in range(100):
        bundle = make_bundle(rng)
        base = steady_state(bundle).occupation
        cooled = steady_state(
            replace(bundle, cooling=AngularRate(1.7 * bundle.cooling))).occupation
        assert cooled < base
    _report("criterion-8 scaling-properties", f"radius ratio {ratio:.4f}")
