"""Occupation relaxation against the closed-form solution; normal modes
against the quadratic-formula eigenvalues.
"""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from levicool import TWO_PI, evolve_occupation, normal_modes
from levicool.dynamics import PHASE_COOLING_OFF, PHASE_COOLING_ON
from levicool.steady_state import sphere_heating_sum


def exact_relaxation(n0: float, fixed_point: float, rate: float, t: float) -> float:
    """Closed-form solution of dn/dt = -rate (n - fixed_point)."""
    return fixed_point + (n0 - fixed_point) * math.exp(-rate * t)


class TestRelaxationIntegrator:
    def test_matches_closed_form(self, pipeline_300nm):
        """Full-trace agreement with the analytic exponential at 1e-6 relative."""
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        n0 = bundle.thermal_occupation
        t_end = 20.0 / rate
        trace = evolve_occupation(bundle, n0, t_end, dt=0.02 / rate)
        for t, n in zip(trace.times, trace.occupations):
            exact = exact_relaxation(n0, steady.occupation, rate, t)
            assert n == pytest.approx(exact, rel=1e-6)

    def test_fixed_point_is_constant(self, pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        trace = evolve_occupation(bundle, steady.occupation, 5.0 / rate, dt=0.05 / rate)
        assert np.allclose(trace.occupations, steady.occupation, rtol=1e-12)

    def test_reaches_twice_steady_state_at_predicted_time(self, pipeline_300nm):
        """Cooldown from the thermal occupation crosses 2 n_ss when the
        closed form says it does (~1.4e-4 s for the reference design)."""
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        n0 = bundle.thermal_occupation
        t_cross = math.log((n0 - steady.occupation) / steady.occupation) / rate
        assert t_cross == pytest.approx(1.436324705076142e-4, rel=1e-6)
        assert t_cross < 1.5e-4
        trace = evolve_occupation(bundle, n0, 1.2 * t_cross, dt=0.02 / rate)
        below = trace.times[trace.occupations <= 2.0 * steady.occupation]
        assert below.size > 0
        assert below[0] == pytest.approx(t_cross, rel=0.01)

    def test_converges_to_steady_state(self, pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        trace = evolve_occupation(bundle, 50.0 * steady.occupation, 15.0 / rate,
                                  dt=0.02 / rate)
        assert trace.final_occupation == pytest.approx(steady.occupation, rel=1e-4)
        # from the full thermal occupation, a few more relaxation times suffice
        trace = evolve_occupation(bundle, bundle.thermal_occupation, 30.0 / rate,
                                  dt=0.02 / rate)
        assert trace.final_occupation == pytest.approx(steady.occupation, rel=1e-4)

    def test_occupation_never_negative(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        trace = evolve_occupation(bundle, bundle.thermal_occupation, 25.0 / rate,
                                  dt=0.05 / rate)
        assert np.all(trace.occupations >= 0.0)
        assert np.all(np.diff(trace.times) > 0.0)

    def test_zero_duration_gives_single_sample(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        trace = evolve_occupation(bundle, 123.0, 0.0, dt=1e-6)
        assert len(trace.times) == 1
        assert trace.occupations[0] == 123.0

    @pytest.mark.parametrize("name", ["n0", "t_end", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected_by_name(self, pipeline_300nm, name, value):
        _, bundle, _ = pipeline_300nm
        args = dict(n0=1.0, t_end=1e-6, dt=1e-8)
        args[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            evolve_occupation(bundle, **args)

    def test_oversized_step_rejected_with_bound(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        with pytest.raises(ValueError, match="dt must be <="):
            evolve_occupation(bundle, 1.0, 1.0 / rate, dt=0.5 / rate)


class TestCoolingSwitchOff:
    def test_reheating_is_monotone_and_has_the_heating_slope(self, pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        t_off = 20.0 / rate
        dt = 0.02 / rate
        trace = evolve_occupation(bundle, bundle.thermal_occupation, 2.0 * t_off,
                                  dt=dt, cooling_off_at=t_off)
        off = trace.times >= t_off
        reheating = trace.occupations[off]
        assert np.all(np.diff(reheating) > 0.0)
        slope = (reheating[1] - reheating[0]) / (trace.times[off][1] - trace.times[off][0])
        assert slope == pytest.approx(sphere_heating_sum(bundle), rel=1e-3)

    def test_phase_labels(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        t_off = 5.0 / rate
        trace = evolve_occupation(bundle, bundle.thermal_occupation, 10.0 / rate,
                                  dt=0.05 / rate, cooling_off_at=t_off)
        labels = set(trace.phases)
        assert labels == {PHASE_COOLING_ON, PHASE_COOLING_OFF}
        switch = [phase for t, phase in zip(trace.times, trace.phases) if t > t_off]
        assert set(switch) == {PHASE_COOLING_OFF}

    def test_off_phase_follows_heating_only_closed_form(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        heating = sphere_heating_sum(bundle)
        fixed_point = heating / bundle.gas_damping
        duration = 1e-3
        trace = evolve_occupation(bundle, 1.0, duration, dt=1e-5, cooling_off_at=0.0)
        # expm1 form avoids cancellation between the huge fixed point and n0
        expected = 1.0 + (fixed_point - 1.0) * (-math.expm1(-bundle.gas_damping
                                                            * duration))
        assert trace.final_occupation == pytest.approx(expected, rel=1e-9)

    def test_trace_csv_schema(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        trace = evolve_occupation(bundle, 10.0, 1.0 / rate, dt=0.1 / rate)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "t_s,n_m,phase"
        assert len(lines) == len(trace.times) + 1
        assert lines[1].endswith(PHASE_COOLING_ON)


def quadratic_eigenvalues(omega_m, omega_at, g, gamma_m, gamma_at):
    """Independent 2x2 eigenvalue oracle via the quadratic formula."""
    a11 = complex(-gamma_m / 2.0, -omega_m)
    a22 = complex(-gamma_at / 2.0, -omega_at)
    off = complex(0.0, -g)
    trace = a11 + a22
    det = a11 * a22 - off * off
    disc = cmath.sqrt(trace * trace - 4.0 * det)
    return (trace + disc) / 2.0, (trace - disc) / 2.0


class TestNormalModes:
    def test_uncoupled_modes_are_bare(self):
        modes = normal_modes(TWO_PI * 45e3, TWO_PI * 47e3, 0.0,
                             sphere_damping=10.0, atom_damping=20.0)
        assert float(modes.lower.frequency) == pytest.approx(TWO_PI * 45e3, rel=1e-12)
        assert float(modes.upper.frequency) == pytest.approx(TWO_PI * 47e3, rel=1e-12)
        assert float(modes.lower.damping) == pytest.approx(10.0, rel=1e-9)
        assert float(modes.upper.damping) == pytest.approx(20.0, rel=1e-9)

    def test_resonant_undamped_splitting_is_twice_the_coupling(self):
        omega = TWO_PI * 45e3
        g = TWO_PI * 1.1e3
        modes = normal_modes(omega, omega, g)
        assert float(modes.splitting) == pytest.approx(2.0 * g, rel=1e-10)
        assert float(modes.lower.frequency) == pytest.approx(omega - g, rel=1e-10)
        assert float(modes.upper.frequency) == pytest.approx(omega + g, rel=1e-10)
        assert modes.resolved is True

    def test_damped_case_matches_quadratic_formula(self):
        omega_m, omega_at = TWO_PI * 45e3, TWO_PI * 46e3
        g, gamma_m, gamma_at = TWO_PI * 1.1e3, TWO_PI * 300.0, TWO_PI * 80.0
        modes = normal_modes(omega_m, omega_at, g, gamma_m, gamma_at)
        expected = quadratic_eigenvalues(omega_m, omega_at, g, gamma_m, gamma_at)
        got = sorted((-ev.imag, -2.0 * ev.real) for ev in expected)
        assert float(modes.lower.frequency) == pytest.approx(got[0][0], rel=1e-12)
        assert float(modes.lower.damping) == pytest.approx(got[0][1], rel=1e-9)
        assert float(modes.upper.frequency) == pytest.approx(got[1][0], rel=1e-12)
        assert float(modes.upper.damping) == pytest.approx(got[1][1], rel=1e-9)

    def test_continuous_in_coupling(self):
        omega = TWO_PI * 45e3
        tiny = normal_modes(omega, omega, 1e-2)
        assert float(tiny.splitting) == pytest.approx(2e-2, rel=1e-6)

    def test_reference_100nm_point_is_resolved(self, pipeline_100nm):
        """After switch-off the hybridized resonances are observable."""
        _, bundle, steady = pipeline_100nm
        assert steady.flags.strong_coupling is True
        modes = normal_modes(
            bundle.sphere_frequency, bundle.atom_frequency, bundle.coupling,
            sphere_damping=(bundle.sphere_backaction + bundle.sphere_recoil
                            + bundle.thermalization),
            atom_damping=bundle.atom_diffusion,
        )
        assert modes.resolved is True
        assert float(modes.splitting) == pytest.approx(2.0 * bundle.coupling, rel=5e-3)

    def test_nonpositive_frequencies_rejected(self):
        with pytest.raises(ValueError):
            normal_modes(0.0, 1.0, 0.1)


class TestExactPropagator:
    def test_csv_matches_per_row_formatting(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        trace = evolve_occupation(bundle, bundle.thermal_occupation, 40.0 / rate,
                                  dt=0.05 / rate, cooling_off_at=20.0 / rate)
        rows = ["t_s,n_m,phase"] + [
            f"{t:.9e},{format(n, '.12g')},{phase}"
            for t, n, phase in zip(trace.times, trace.occupations, trace.phases)]
        assert trace.to_csv() == "\n".join(rows) + "\n"

    def test_each_phase_is_the_closed_form(self, pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        rate = bundle.gas_damping + bundle.cooling
        n0, t_off = bundle.thermal_occupation, 5.0 / rate
        trace = evolve_occupation(bundle, n0, 2.0 * t_off, dt=0.02 / rate,
                                  cooling_off_at=t_off)
        k = trace.phases.index(PHASE_COOLING_OFF) - 1
        n_off = exact_relaxation(n0, steady.occupation, rate, trace.times[k])
        assert trace.occupations[k] == pytest.approx(n_off, rel=1e-13)
        gamma, heating = float(bundle.gas_damping), sphere_heating_sum(bundle)
        x = -gamma * (trace.times[-1] - trace.times[k])
        n_end = n_off * math.exp(x) - heating / gamma * math.expm1(x)
        assert trace.final_occupation == pytest.approx(n_end, rel=1e-13)

    def test_no_damping_reheats_linearly(self, pipeline_300nm):
        """Zero pressure with the cooling off leaves no relaxation at all."""
        _, bundle, _ = pipeline_300nm
        idle = replace(bundle, gas_damping=0.0, thermalization=0.0)
        heating = sphere_heating_sum(idle)
        trace = evolve_occupation(idle, 3.0, 1e-3, dt=1e-5, cooling_off_at=0.0)
        assert trace.phases[1:] == (PHASE_COOLING_OFF,) * 100
        assert trace.occupations.tolist() == (3.0 + heating * trace.times).tolist()
