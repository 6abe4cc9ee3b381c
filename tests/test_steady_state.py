"""Steady-state occupation, decomposition, regime flags, coupling figure."""

import math
from dataclasses import replace

import numpy as np
import pytest

import levicool
from levicool import (RateBundle, SingularConfigurationError, TWO_PI,
                      classify_regimes, strong_coupling_ratio)
from levicool.constants import AngularRate
from levicool.steady_state import steady_state


def make_bundle(rng: np.random.Generator) -> RateBundle:
    """A synthetic positive bundle for property tests."""
    def rate(lo, hi):
        return AngularRate(10 ** rng.uniform(lo, hi))

    g_sphere = rate(0, 3)
    g_atom = rate(0, 3)
    g = AngularRate(2.0 * g_atom * g_sphere)
    atom_cooling = AngularRate(1.1 * g)
    occupancy = 10 ** rng.uniform(4, 9)
    gas = rate(-8, -5)
    return RateBundle(
        coupling_atom=g_atom,
        coupling_sphere=g_sphere,
        coupling=g,
        atom_cooling=atom_cooling,
        cooling=AngularRate(4.0 * g**2 / atom_cooling),
        atom_diffusion=rate(-2, 1),
        sphere_backaction=AngularRate(2.0 * g_sphere**2),
        sphere_recoil=rate(1, 5),
        gas_damping=gas,
        thermalization=AngularRate(occupancy * gas),
        intensity_noise=AngularRate(0.0),
        pointing_noise=AngularRate(0.0),
        cavity_linewidth=rate(7, 8),
        atom_frequency=rate(5, 6),
        sphere_frequency=rate(5, 6),
        thermal_occupation=occupancy,
        scatter_trap=10 ** rng.uniform(10, 15),
        scatter_lattice=10 ** rng.uniform(8, 13),
        sensitivity_floor=None,
        cooperativity=None,
    )


class TestReferenceOccupations:
    def test_300nm_column(self, pipeline_300nm):
        _, _, steady = pipeline_300nm
        assert steady.occupation == pytest.approx(0.39458144627422276, rel=1e-9)
        # published design value 0.41 +- 0.05 absolute
        assert abs(steady.occupation - 0.41) < 0.05
        assert steady.flags.ground_state is True

    def test_100nm_column(self, pipeline_100nm):
        _, _, steady = pipeline_100nm
        assert steady.occupation == pytest.approx(0.08269293876840648, rel=1e-9)
        assert abs(steady.occupation - 0.09) < 0.05
        assert steady.flags.ground_state is True

    def test_decomposition_terms(self, pipeline_300nm):
        _, _, steady = pipeline_300nm
        assert steady.term_cooling_balance == pytest.approx(0.3932174677887567,
                                                            rel=1e-9)
        assert steady.term_atom_cooling_limit == pytest.approx(0.001342946824513408,
                                                               rel=1e-9)
        assert steady.term_atom_diffusion_limit == pytest.approx(
            2.1031660952655555e-05, rel=1e-9)

    def test_decomposition_sums_exactly(self, pipeline_300nm, pipeline_100nm):
        for pipeline in (pipeline_300nm, pipeline_100nm):
            _, _, steady = pipeline
            total = (steady.term_cooling_balance + steady.term_atom_cooling_limit
                     + steady.term_atom_diffusion_limit)
            assert steady.occupation == total

    def test_atom_cooling_limit_term_is_negligible(self, pipeline_300nm,
                                                   pipeline_100nm):
        """Under the 1.1 x coupling rule the finite-cooling term stays tiny."""
        for pipeline in (pipeline_300nm, pipeline_100nm):
            _, bundle, steady = pipeline
            expected = (bundle.atom_cooling / (4.0 * bundle.atom_frequency))**2
            assert steady.term_atom_cooling_limit == expected
            assert steady.term_atom_cooling_limit < 2e-3

    def test_infinite_cooling_limit(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        boosted = replace(bundle, cooling=AngularRate(1e15))
        report = steady_state(boosted)
        assert report.term_cooling_balance < 1e-9


class TestStrongCouplingRatio:
    def test_reference_values(self, pipeline_300nm, pipeline_100nm):
        _, _, steady_300 = pipeline_300nm
        _, _, steady_100 = pipeline_100nm
        assert steady_300.strong_coupling_ratio == pytest.approx(
            0.5511442949413833, rel=1e-9)
        assert steady_100.strong_coupling_ratio == pytest.approx(
            2.671248702310136, rel=1e-9)
        assert steady_300.flags.strong_coupling is False
        assert steady_100.flags.strong_coupling is True

    def test_published_table_arithmetic(self, pipeline_300nm):
        """Plugging the published rounded rates in reproduces their ratio."""
        _, bundle, _ = pipeline_300nm
        table = replace(
            bundle,
            coupling=AngularRate(TWO_PI * 1.1e3),
            atom_diffusion=AngularRate(TWO_PI * 0.27),
            sphere_backaction=AngularRate(TWO_PI * 1.7e2),
            thermalization=AngularRate(TWO_PI * 28.0),
            sphere_recoil=AngularRate(TWO_PI * 2.4e2),
        )
        expected = 1.1e3 / (0.27 + 1.7e2 + 28.0 + 2.4e2)
        assert strong_coupling_ratio(table) == pytest.approx(expected, rel=1e-12)
        assert strong_coupling_ratio(table) == pytest.approx(2.51, rel=0.01)

    def test_zero_coupling(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        assert strong_coupling_ratio(replace(bundle, coupling=AngularRate(0.0))) == 0.0

    def test_zero_dissipation_is_singular(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        dead = replace(bundle,
                       atom_diffusion=AngularRate(0.0),
                       sphere_backaction=AngularRate(0.0),
                       thermalization=AngularRate(0.0),
                       sphere_recoil=AngularRate(0.0))
        with pytest.raises(SingularConfigurationError):
            strong_coupling_ratio(dead)

    def test_scale_invariance(self, pipeline_300nm):
        """The ratio is unchanged when every rate is rescaled together."""
        _, bundle, _ = pipeline_300nm
        factor = 7.3
        scaled = replace(
            bundle,
            coupling=AngularRate(factor * bundle.coupling),
            atom_diffusion=AngularRate(factor * bundle.atom_diffusion),
            sphere_backaction=AngularRate(factor * bundle.sphere_backaction),
            thermalization=AngularRate(factor * bundle.thermalization),
            sphere_recoil=AngularRate(factor * bundle.sphere_recoil),
        )
        assert strong_coupling_ratio(scaled) == pytest.approx(
            strong_coupling_ratio(bundle), rel=1e-12)


class TestRegimeFlags:
    def test_reference_flags(self, pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        flags = steady.flags
        assert flags.adiabatic_ok is True        # 1.1 g >= g
        assert flags.bad_cavity is True          # kappa/omega_m ~ 170
        assert flags.feedback_ground_state_feasible is None

    def test_zero_coupling_is_weak(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        flags = classify_regimes(replace(bundle, coupling=AngularRate(0.0)),
                                 occupation=0.5)
        assert flags.weak_coupling_ok is True

    def test_bad_cavity_threshold(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        matched = replace(bundle, cavity_linewidth=bundle.sphere_frequency)
        flags = classify_regimes(matched, occupation=0.5)
        assert flags.bad_cavity is False

    def test_configurable_margins(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        flags = classify_regimes(bundle, occupation=0.5, weak_coupling_margin=0.2)
        assert flags.weak_coupling_ok is True    # g/omega ~ 0.13
        flags = classify_regimes(bundle, occupation=0.5, weak_coupling_margin=0.1)
        assert flags.weak_coupling_ok is False


class TestDecoupledLimit:
    def test_no_atoms_occupation_is_heating_over_gas_damping(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        lonely = replace(bundle,
                         coupling=AngularRate(0.0),
                         atom_cooling=AngularRate(0.0),
                         cooling=AngularRate(0.0))
        report = steady_state(lonely)
        heating = (bundle.gas_damping * bundle.thermal_occupation
                   + bundle.sphere_backaction / 2.0 + bundle.sphere_recoil)
        assert report.occupation == pytest.approx(heating / bundle.gas_damping,
                                                  rel=1e-12)
        assert report.term_atom_cooling_limit == 0.0
        assert report.term_atom_diffusion_limit == 0.0

    def test_zero_cooling_with_coupling_is_singular(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        broken = replace(bundle, atom_cooling=AngularRate(0.0))
        with pytest.raises(SingularConfigurationError):
            steady_state(broken)


class TestNoiseInclusionFlag:
    def test_noise_added_on_request(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        noisy = replace(bundle,
                        intensity_noise=AngularRate(1000.0),
                        pointing_noise=AngularRate(500.0))
        base = steady_state(noisy, include_noise=False)
        with_noise = steady_state(noisy, include_noise=True)
        extra = 1500.0 / (noisy.gas_damping + noisy.cooling)
        assert with_noise.occupation - base.occupation == pytest.approx(extra,
                                                                        rel=1e-9)
        flagged = replace(noisy, include_noise_in_occupation=True)
        assert steady_state(flagged).occupation == with_noise.occupation


class TestMonotonicity:
    def test_occupation_decreases_with_cooling(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            bundle = make_bundle(rng)
            base = steady_state(bundle).occupation
            stronger = steady_state(
                replace(bundle, cooling=AngularRate(1.5 * bundle.cooling))).occupation
            assert stronger < base

    def test_occupation_increases_with_each_heating_channel(self):
        rng = np.random.default_rng(202)
        heating_fields = ("sphere_recoil", "sphere_backaction", "atom_diffusion")
        for _ in range(100):
            bundle = make_bundle(rng)
            base = steady_state(bundle).occupation
            for name in heating_fields:
                bumped = replace(bundle,
                                 **{name: AngularRate(2.0 * getattr(bundle, name))})
                assert steady_state(bumped).occupation > base, name
            hotter = replace(bundle, thermal_occupation=2.0 * bundle.thermal_occupation)
            assert steady_state(hotter).occupation > base


def test_submodule_import_gives_the_module():
    """The package does not shadow its `steady_state` module with the function."""
    import levicool.steady_state as module
    assert module.evaluate is levicool.evaluate
    assert module.steady_state is steady_state
    assert "steady_state" not in levicool.__all__
