"""Rate formulas against frozen independently-computed values and scalings."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levicool import (ConfigError, InvalidGeometryError, SingularConfigurationError,
                      TWO_PI, build_rate_bundle, derive, evaluate, set_value,
                      to_display_hz)
from levicool import rates
from levicool.rates import (atom_diffusion_rate, atom_light_coupling,
                            displacement_sensitivity, feedback_cooperativity,
                            intensity_noise_heating, pointing_noise_heating,
                            radiation_pressure_diffusion, single_phonon_coupling,
                            sphere_light_coupling, sympathetic_cooling_rate,
                            thermalization_rate, transmission_degraded_cooling, _rayleigh)
from levicool.system import photon_frequency

from conftest import closed_form_coupling, make_random_config


def _with_sphere(derived, **changes):
    sphere = replace(derived.config.sphere, **changes)
    return replace(derived, config=replace(derived.config, sphere=sphere))


@pytest.mark.parametrize("rate", [sphere_light_coupling], ids=["sphere-light"])
def test_rate_guards_on_derived(pipeline_300nm, rate):
    derived, _, _ = pipeline_300nm
    with pytest.raises(InvalidGeometryError, match="^cavity linewidth must be > 0$"):
        rate(replace(derived, cavity_linewidth=0.0))


#: raw values in each key's own units: signs, edges and the ordinary range
RAW_VALUES = (-1.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 1e300)


# Each formula's domain, which the formula no longer checks: the keys that
# reach it, and what its arguments must satisfy for every config `evaluate`
# accepts. The registry (or `derive`'s own guard) keeps each one.
@pytest.mark.parametrize("name, values, domain", [
    ("atom_light_coupling", {"lattice.power_uw": RAW_VALUES},
     lambda d: d.flux_amplitude != 0),
    ("sympathetic_cooling_rate", {"atoms.cooling_rate_2pi_hz": RAW_VALUES + (None,)},
     lambda coupling, atom_cooling, detuning: atom_cooling > 0),
    ("atom_diffusion_rate",
     {"lattice.wavelength_nm": (780.0, 780.24, 780.241, 780.74, 1064.0, 1e300)},
     lambda d: d.detuning > 0),
    ("_recoil_heating", {"atoms.sphere_detuning_2pi_hz": (-1e7, -1e5, -1e4, 0.0, 1e4)},
     lambda d, scatter_trap, scatter_lattice: d.sphere_frequency > 0),
    ("displacement_sensitivity", {"cavity.detection_power_uw": RAW_VALUES},
     lambda d, probe, detection_power: detection_power > 0),
    ("intensity_noise_heating", {"noise.intensity_psd_per_hz": RAW_VALUES},
     lambda omega, psd: psd >= 0),
    ("pointing_noise_heating", {"noise.pointing_psd_m2_per_hz": RAW_VALUES,
                                "noise.mean_square_position_m2": RAW_VALUES + (None,)},
     lambda omega, psd, mean_square: psd >= 0 and mean_square > 0),
    ("transmission_degraded_cooling", {"cavity.path_transmittivity": RAW_VALUES,
                                       "cavity.coupling_efficiency": RAW_VALUES},
     lambda cooling, t, eta: 0 < t <= 1 and 0 < eta <= 1),
    ("feedback_cooperativity",
     {"feedback.intracavity_photons": RAW_VALUES,
      "feedback.measurement_linewidth_2pi_hz": RAW_VALUES + (None,)},
     lambda g0, photons, damping, readout: photons >= 0 and readout > 0),
], ids=["atom-light", "sympathetic", "diffusion", "recoil", "displacement",
        "intensity-noise", "pointing-noise", "transmission", "cooperativity"])
@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_accepted_configs_stay_in_each_formula_domain(name, values, domain, seed, data):
    config = make_random_config(np.random.default_rng(seed))
    for key, choices in values.items():
        config = set_value(config, key, data.draw(st.sampled_from(choices), label=key))
    formula = getattr(rates, name)
    calls = []

    def checked(*args):
        calls.append(args)
        assert domain(*args), f"{name}{args}"
        return formula(*args)

    with mock.patch.object(rates, name, checked):
        try:
            evaluate(config)
        except (ConfigError, InvalidGeometryError, SingularConfigurationError,
                ArithmeticError):
            return
    assert calls, f"{name} was never reached"


class TestAtomLightCoupling:
    def test_reference_value(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert float(atom_light_coupling(derived)) == pytest.approx(
            156.523046614912, rel=1e-9)

    def test_empty_ensemble(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        atoms = replace(derived.config.atoms, count=0.0)
        modified = replace(derived, config=replace(derived.config, atoms=atoms))
        assert atom_light_coupling(modified) == 0.0

    def test_sqrt_count_scaling(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        atoms = replace(derived.config.atoms, count=4.0 * derived.config.atoms.count)
        modified = replace(derived, config=replace(derived.config, atoms=atoms))
        assert float(atom_light_coupling(modified)) == pytest.approx(
            2.0 * atom_light_coupling(derived), rel=1e-12)


class TestSphereLightCoupling:
    def test_reference_value(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert float(sphere_light_coupling(derived)) == pytest.approx(
            120.3596201339313, rel=1e-9)

    def test_vanishing_sphere(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert sphere_light_coupling(replace(derived, sphere_volume=0.0)) == 0.0

    def test_index_matched_sphere(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert sphere_light_coupling(replace(derived, polarizability_factor=0.0)) == 0.0


class TestEffectiveCoupling:
    def test_closed_form_equals_product(self, pipeline_300nm):
        derived, bundle, _ = pipeline_300nm
        product = 2.0 * atom_light_coupling(derived) * sphere_light_coupling(derived)
        assert bundle.coupling == product
        assert closed_form_coupling(derived) == pytest.approx(product, rel=1e-9)

    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        # published design values: 2 pi x 5.9e3 and 2 pi x 1.1e3 Hz, both +-5%
        _, bundle_300, _ = pipeline_300nm
        _, bundle_100, _ = pipeline_100nm
        assert to_display_hz(bundle_300.coupling) == pytest.approx(5.9e3, rel=0.05)
        assert to_display_hz(bundle_100.coupling) == pytest.approx(1.1e3, rel=0.05)

    def test_empty_ensemble(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        atoms = replace(derived.config.atoms, count=0.0)
        modified = replace(derived, config=replace(derived.config, atoms=atoms))
        assert build_rate_bundle(modified).coupling == 0.0

    def test_identity_over_random_configs(self, random_config_factory):
        rng = np.random.default_rng(11)
        for _ in range(200):
            derived = derive(random_config_factory(rng))
            coupling = build_rate_bundle(derived).coupling
            assert coupling == pytest.approx(closed_form_coupling(derived), rel=1e-9)

    def test_radius_to_three_halves_scaling(self, pipeline_300nm):
        """At fixed mode volume the coupling grows as radius^(3/2)."""
        derived, _, _ = pipeline_300nm
        config = derived.config
        doubled = derive(replace(
            config, sphere=replace(config.sphere, radius=2.0 * config.sphere.radius)))
        ratio = build_rate_bundle(doubled).coupling / build_rate_bundle(derived).coupling
        assert ratio == pytest.approx(2.0 ** 1.5, rel=0.01)


class TestSympatheticCoolingRate:
    def test_reference_arithmetic(self):
        """On resonance the rate is 4 g^2 / gamma."""
        g = TWO_PI * 5.9e3
        gamma = TWO_PI * 6.5e3
        value = sympathetic_cooling_rate(g, gamma, 0.0)
        assert float(value) == pytest.approx(4.0 * g**2 / gamma, rel=1e-12)
        # matches the published 2 pi x 2.1e4 Hz within rounding
        assert to_display_hz(value) == pytest.approx(2.1e4, rel=0.03)

    def test_zero_coupling(self):
        assert sympathetic_cooling_rate(0.0, 1.0, 0.0) == 0.0

    def test_off_resonant_limit(self):
        near = sympathetic_cooling_rate(100.0, 50.0, 0.0)
        far = sympathetic_cooling_rate(100.0, 50.0, 1e9)
        assert far < 1e-9 * near

    def test_maximized_on_resonance(self):
        g, gamma = 100.0, 50.0
        peak = sympathetic_cooling_rate(g, gamma, 0.0)
        detunings = [1.0, 10.0, 100.0, 1e4]
        values = [sympathetic_cooling_rate(g, gamma, d) for d in detunings]
        assert all(v < peak for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
        for d in detunings:
            assert sympathetic_cooling_rate(g, gamma, -d) == pytest.approx(
                sympathetic_cooling_rate(g, gamma, d), rel=1e-12)


class TestAtomDiffusion:
    def test_reference_value(self, pipeline_300nm, pipeline_100nm):
        for pipeline in (pipeline_300nm, pipeline_100nm):
            derived, _, _ = pipeline
            value = atom_diffusion_rate(derived)
            assert float(value) == pytest.approx(1.7433530641946169, rel=1e-9)
            # published design value 2 pi x 0.27 Hz +-10% (same in both columns)
            assert to_display_hz(value) == pytest.approx(0.27, rel=0.10)

    def test_zero_depth(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert atom_diffusion_rate(replace(derived, lattice_depth=0.0)) == 0.0

    def test_detuning_scaling(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        doubled = replace(derived, detuning=2.0 * derived.detuning)
        assert float(atom_diffusion_rate(doubled)) == pytest.approx(
            0.5 * atom_diffusion_rate(derived), rel=1e-12)


class TestRayleighScattering:
    def test_trap_beam_reference(self, pipeline_300nm):
        derived, bundle, _ = pipeline_300nm
        assert derived.tweezer_intensity == pytest.approx(73211273822.27187, rel=1e-9)
        assert bundle.scatter_trap == pytest.approx(919966020674058.6, rel=1e-9)

    def test_zero_intensity(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert _rayleigh(0.0, 1550e-9, photon_frequency(1550e-9), derived.sphere_volume,
                         derived.polarizability_factor) == 0.0

    def test_volume_squared_scaling(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        omega, contrast = photon_frequency(1550e-9), derived.polarizability_factor
        one = _rayleigh(1e10, 1550e-9, omega, derived.sphere_volume, contrast)
        two = _rayleigh(1e10, 1550e-9, omega, 2.0 * derived.sphere_volume, contrast)
        assert two == pytest.approx(4.0 * one, rel=1e-12)


class TestSphereRecoilHeating:
    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        # published design values 2 pi x 6.6e3 / 2.4e2 Hz, +-35%
        _, bundle_300, _ = pipeline_300nm
        _, bundle_100, _ = pipeline_100nm
        assert to_display_hz(bundle_300.sphere_recoil) == pytest.approx(6.6e3, rel=0.35)
        assert to_display_hz(bundle_100.sphere_recoil) == pytest.approx(2.4e2, rel=0.35)
        assert float(bundle_300.sphere_recoil) == pytest.approx(39327.75940493494,
                                                               rel=1e-9)
        assert float(bundle_100.sphere_recoil) == pytest.approx(1456.5836816642577,
                                                               rel=1e-9)

    def test_trap_photons_dominate(self, pipeline_300nm, pipeline_100nm):
        """The tweezer term carries more than 90% of the recoil heating."""
        for pipeline in (pipeline_300nm, pipeline_100nm):
            derived, bundle, _ = pipeline
            trap_term = (0.4 * (derived.sphere_recoil_trap / derived.sphere_frequency)
                         * bundle.scatter_trap)
            assert trap_term / bundle.sphere_recoil > 0.90

    def test_zero_intensities(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        dark = replace(derived, tweezer_intensity=0.0,
                       lattice_circulating_intensity=0.0)
        assert build_rate_bundle(dark).sphere_recoil == 0.0


class TestRadiationPressureDiffusion:
    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        # published design values 2 pi x 4.5e3 / 1.7e2 Hz, +-10%
        for pipeline, expected in ((pipeline_300nm, 4.5e3), (pipeline_100nm, 1.7e2)):
            _, bundle, _ = pipeline
            assert to_display_hz(bundle.sphere_backaction) == pytest.approx(
                expected, rel=0.10)

    def test_definition(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        assert float(bundle.sphere_backaction) == pytest.approx(
            2.0 * bundle.coupling_sphere**2, rel=1e-12)

    def test_zero(self):
        assert radiation_pressure_diffusion(0.0) == 0.0


class TestGasDamping:
    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        _, bundle_300, _ = pipeline_300nm
        _, bundle_100, _ = pipeline_100nm
        assert float(bundle_300.gas_damping) == pytest.approx(4.394246956258519e-07,
                                                              rel=1e-9)
        # published design values within a factor 2 (gas-species assumption)
        for bundle, expected in ((bundle_300, 6.6e-8), (bundle_100, 1.9e-7)):
            value = to_display_hz(bundle.gas_damping)
            assert expected / 2 < value < expected * 2

    def test_zero_pressure(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        env = replace(derived.config.environment, pressure=0.0)
        assert derive(replace(derived.config, environment=env)).gas_damping == 0.0

    def test_inverse_radius_scaling(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        config = derived.config
        doubled = derive(replace(config, sphere=replace(config.sphere,
                                                        radius=2.0 * config.sphere.radius)))
        assert float(doubled.gas_damping) == pytest.approx(
            0.5 * derived.gas_damping, rel=1e-12)


class TestThermalization:
    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        # published design values 2 pi x 9 / 28 Hz, +-15%
        for pipeline, expected in ((pipeline_300nm, 9.0), (pipeline_100nm, 28.0)):
            _, bundle, _ = pipeline
            assert to_display_hz(bundle.thermalization) == pytest.approx(
                expected, rel=0.15)

    def test_equals_occupation_times_damping_exactly(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        assert bundle.thermalization == bundle.thermal_occupation * bundle.gas_damping

    def test_quality_factor_override(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        modified = _with_sphere(derived, quality_factor=1e11)
        expected = 1.380649e-23 * 300.0 / (1.054571817e-34 * 1e11)
        assert float(thermalization_rate(modified)) == pytest.approx(expected,
                                                                     rel=1e-12)

    def test_zero_temperature_limit(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert thermalization_rate(replace(derived, thermal_occupation=0.0)) == 0.0


class TestDisplacementSensitivity:
    def test_reference_floor(self, pipeline_300nm):
        derived, bundle, _ = pipeline_300nm
        floor = displacement_sensitivity(derived, 0.0, 10e-6)
        assert floor == pytest.approx(3.582072704524914e-14, rel=1e-9)
        # published figure: 2e-14 m/sqrt(Hz), agree within a factor 2
        assert floor / 2e-14 < 2.0
        assert bundle.sensitivity_floor / 2e-14 < 2.0

    def test_probe_frequency_dependence(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        at_zero = displacement_sensitivity(derived, 0.0, 10e-6)
        at_half_linewidth = displacement_sensitivity(
            derived, derived.cavity_linewidth / 2.0, 10e-6)
        assert at_half_linewidth / at_zero == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_power_scaling(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        base = displacement_sensitivity(derived, 0.0, 10e-6)
        brighter = displacement_sensitivity(derived, 0.0, 40e-6)
        assert brighter == pytest.approx(base / 2.0, rel=1e-12)


class TestLaserNoiseHeating:
    def test_intensity_noise_reference(self):
        omega = TWO_PI * 45e3
        # amplitude stabilization 5e-4 per sqrt(Hz) -> PSD 2.5e-7 per Hz
        assert float(intensity_noise_heating(omega, 2.5e-7)) == pytest.approx(
            4996.487228051487, rel=1e-9)

    def test_intensity_noise_scalings(self):
        omega = TWO_PI * 45e3
        assert intensity_noise_heating(omega, 0.0) == 0.0
        assert float(intensity_noise_heating(2 * omega, 2.5e-7)) == pytest.approx(
            4.0 * intensity_noise_heating(omega, 2.5e-7), rel=1e-12)

    def test_pointing_noise_reference(self):
        omega = TWO_PI * 45e3
        assert float(pointing_noise_heating(omega, 1e-20, 1.67e-15)) == pytest.approx(
            119676.3407916524, rel=1e-9)

    def test_pointing_noise_scalings(self):
        omega = TWO_PI * 45e3
        assert pointing_noise_heating(omega, 0.0, 1e-15) == 0.0
        assert float(pointing_noise_heating(omega, 1e-20, 0.5e-15)) == pytest.approx(
            2.0 * pointing_noise_heating(omega, 1e-20, 1e-15), rel=1e-12)


class TestTransmissionFactor:
    def test_identity(self):
        assert transmission_degraded_cooling(123.0, 1.0, 1.0) == 123.0

    def test_reference_factor(self):
        # demonstrated path figures t = 0.8, eta = 0.75 cost a factor 0.36
        assert float(transmission_degraded_cooling(100.0, 0.8, 0.75)) == pytest.approx(
            36.0, rel=1e-12)

    def test_zero_cooling(self):
        assert transmission_degraded_cooling(0.0, 0.9, 0.9) == 0.0

    def test_bundle_applies_factor(self, config_300nm):
        from dataclasses import replace as dc_replace

        lossy = dc_replace(config_300nm, cavity=dc_replace(
            config_300nm.cavity, path_transmittivity=0.8, coupling_efficiency=0.75))
        ideal_bundle = build_rate_bundle(derive(config_300nm))
        lossy_bundle = build_rate_bundle(derive(lossy))
        assert float(lossy_bundle.cooling) == pytest.approx(
            0.36 * ideal_bundle.cooling, rel=1e-12)


class TestFeedbackCooperativity:
    def test_zero_photons(self):
        assert feedback_cooperativity(100.0, 0.0, 1.0, 1.0) == 0.0

    def test_quadratic_in_single_phonon_coupling(self):
        one = feedback_cooperativity(100.0, 1e6, 1.0, 1e7)
        two = feedback_cooperativity(200.0, 1e6, 1.0, 1e7)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_reference_geometry_value(self, pipeline_300nm):
        """Frozen from independent arithmetic: 1e8 photons, gas-limited damping."""
        derived, bundle, _ = pipeline_300nm
        g0 = single_phonon_coupling(derived)
        assert float(g0) == pytest.approx(256.74127679380223, rel=1e-9)
        value = feedback_cooperativity(g0, 1e8, bundle.gas_damping,
                                       derived.cavity_linewidth)
        assert value == pytest.approx(1274166973934.7349, rel=1e-9)

    def test_zero_damping_rejected(self):
        with pytest.raises(SingularConfigurationError):
            feedback_cooperativity(1.0, 1.0, 0.0, 1.0)

    def test_gas_damping_underflowing_at_positive_pressure_is_singular(self, config_300nm):
        """The registry sees a positive pressure; the damping 16 P / (pi vbar rho a)
        still underflows to 0, which only the formula's own check catches."""
        config = config_300nm
        for key, value in (("env.pressure_torr", 5e-324), ("sphere.density_kg_m3", 1e10),
                           ("sphere.quality_factor", 1e9),
                           ("feedback.intracavity_photons", 1e8)):
            config = set_value(config, key, value)
        derived = derive(config)
        assert derived.config.environment.pressure > 0 and derived.gas_damping == 0.0
        with pytest.raises(SingularConfigurationError,
                           match="^cooperativity needs a mechanical damping rate > 0$"):
            evaluate(config)

    def test_bundle_wiring(self, config_300nm):
        from dataclasses import replace as dc_replace
        from levicool.system import FeedbackReadout

        config = dc_replace(config_300nm,
                            feedback=FeedbackReadout(intracavity_photons=1e8))
        _, bundle, steady = evaluate(config)
        assert bundle.cooperativity == pytest.approx(1274166973934.7349, rel=1e-9)
        assert steady.flags.feedback_ground_state_feasible is True


class TestBundleProperties:
    def test_atom_cooling_rule(self, pipeline_300nm, pipeline_100nm):
        """Default applied cooling is 1.1 x coupling; published columns agree."""
        for pipeline, expected in ((pipeline_300nm, 6.5e3), (pipeline_100nm, 1.2e3)):
            _, bundle, _ = pipeline
            assert float(bundle.atom_cooling) == pytest.approx(1.1 * bundle.coupling,
                                                               rel=1e-12)
            assert to_display_hz(bundle.atom_cooling) == pytest.approx(expected,
                                                                       rel=0.08)

    def test_cooling_reference_values(self, pipeline_300nm, pipeline_100nm):
        # published design values 2 pi x 2.1e4 / 4.1e3 Hz, +-5%
        for pipeline, expected in ((pipeline_300nm, 2.1e4), (pipeline_100nm, 4.1e3)):
            _, bundle, _ = pipeline
            assert to_display_hz(bundle.cooling) == pytest.approx(expected, rel=0.05)

    def test_decoupled_limit(self, config_300nm):
        config = replace(config_300nm,
                         atoms=replace(config_300nm.atoms, count=0.0))
        bundle = build_rate_bundle(derive(config))
        assert bundle.coupling == 0.0
        assert bundle.atom_cooling == 0.0
        assert bundle.cooling == 0.0

    def test_all_rates_finite_nonnegative_over_design_box(self, random_config_factory):
        """No NaN/overflow anywhere on the documented sweep ranges."""
        rng = np.random.default_rng(23)
        rate_fields = ("coupling_atom", "coupling_sphere", "coupling", "atom_cooling",
                       "cooling", "atom_diffusion", "sphere_backaction",
                       "sphere_recoil", "gas_damping", "thermalization")
        for _ in range(150):
            bundle = build_rate_bundle(derive(random_config_factory(rng)))
            for name in rate_fields:
                value = getattr(bundle, name)
                assert math.isfinite(value) and value >= 0.0, name
            assert math.isfinite(bundle.thermal_occupation)
