"""Steady-state occupation, decomposition, regime flags, coupling figure."""

import math
from dataclasses import replace

import numpy as np
import pytest

import levicool
from levicool import (RateBundle, SingularConfigurationError, TWO_PI,
                      classify_regimes, evaluate, set_value, strong_coupling_ratio)
from levicool.configfile import set_si
from levicool.constants import AngularRate
from levicool.steady_state import WEAK_COUPLING_MARGIN, _require_finite, steady_state


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

    def test_weak_coupling_margin(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        assert WEAK_COUPLING_MARGIN == 0.1
        flags = classify_regimes(bundle, occupation=0.5)
        assert flags.weak_coupling_ok is False   # g/omega ~ 0.13

    @pytest.mark.parametrize("atom, sphere", [(1e3, 1e5), (1e5, 1e3)])
    def test_weak_coupling_is_below_both_frequencies(self, pipeline_300nm, atom, sphere):
        """g <= 0.1 min(omega_at, omega_m), inclusive, on floats and on a grid."""
        _, bundle, _ = pipeline_300nm
        bundle = replace(bundle, atom_frequency=atom, sphere_frequency=sphere)
        couplings = [50.0, 100.0, 101.0, 5e3]
        want = [True, True, False, False]
        assert [classify_regimes(replace(bundle, coupling=g), occupation=0.5).weak_coupling_ok
                for g in couplings] == want
        grid = classify_regimes(replace(bundle, coupling=np.array(couplings)), occupation=0.5)
        assert grid.weak_coupling_ok.tolist() == want


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

    @pytest.mark.parametrize("changes, message", [
        ({"atom_frequency": 0.0}, "atom trap frequency must be > 0"),
        ({"gas_damping": 0.0, "cooling": 0.0},
         "no damping at all: gas damping \\+ sympathetic cooling must be > 0"),
    ], ids=["atom-frequency", "no-damping"])
    def test_guards_on_bundle(self, pipeline_300nm, changes, message):
        _, bundle, _ = pipeline_300nm
        with pytest.raises(SingularConfigurationError, match=f"^{message}$"):
            steady_state(replace(bundle, **changes))


class TestNoiseInclusionFlag:
    def test_noise_added_on_request(self, pipeline_300nm):
        _, bundle, _ = pipeline_300nm
        noisy = replace(bundle,
                        intensity_noise=AngularRate(1000.0),
                        pointing_noise=AngularRate(500.0))
        assert not noisy.include_noise_in_occupation
        base = steady_state(noisy)
        with_noise = steady_state(replace(noisy, include_noise_in_occupation=True))
        extra = 1500.0 / (noisy.gas_damping + noisy.cooling)
        assert with_noise.occupation - base.occupation == pytest.approx(extra,
                                                                        rel=1e-9)


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


def _float_fields(records):
    """(record index, field name) of every float field, in the order checked."""
    return [(index, name) for index, record in enumerate(records)
            for name, value in vars(record).items() if isinstance(value, float)]


def _with_nan(records, planted):
    """The records with NaN in each (record index, field name) of `planted`."""
    changes = [{} for _ in records]
    for index, name in planted:
        changes[index][name] = math.nan
    return [replace(record, **change) for record, change in zip(records, changes)]


class TestRequireFinite:
    """`_require_finite` names the first float field that is NaN or inf, in
    record and field order, bar the quality factor without gas."""

    def assert_names_the_first(self, records, gas_free=False):
        fields = _float_fields(records)
        assert fields
        for index, name in fields:
            # NaN in one field alone: every float field is checked
            planted = _with_nan(records, [(index, name)])
            if gas_free and name == "quality_factor":
                _require_finite(*planted)
                continue
            with pytest.raises(SingularConfigurationError, match=f"^{name} is not finite"):
                _require_finite(*planted)
        for start in range(len(fields)):
            # NaN in this field and every later one: the error names the first
            named = [name for _, name in fields[start:]
                     if not (gas_free and name == "quality_factor")]
            planted = _with_nan(records, fields[start:])
            if not named:
                _require_finite(*planted)
                continue
            with pytest.raises(SingularConfigurationError) as excinfo:
                _require_finite(*planted)
            assert str(excinfo.value) == f"{named[0]} is not finite (nan)"

    @pytest.mark.parametrize("settings", [
        (), (("cavity.detection_power_uw", 5.0), ("feedback.intracavity_photons", 1e4)),
        (("mode", "first-principles"),)], ids=["plain", "optionals", "first-principles"])
    def test_names_the_first_non_finite_field(self, config_300nm, settings):
        config = config_300nm
        for key, value in settings:
            config = set_value(config, key, value)
        records = evaluate(config)
        if settings and settings[0][0] == "cavity.detection_power_uw":
            assert None not in (records[1].sensitivity_floor, records[1].cooperativity)
        self.assert_names_the_first(records)

    def test_gas_free_point_passes_with_an_infinite_quality_factor(self, config_300nm):
        records = evaluate(set_value(config_300nm, "env.pressure_torr", 0.0))
        assert records[0].quality_factor == math.inf
        _require_finite(*records)
        self.assert_names_the_first(records, gas_free=True)

    def test_finite_fields_whose_sum_overflows_pass(self, pipeline_300nm):
        derived, bundle, steady = pipeline_300nm
        _require_finite(replace(derived, sphere_volume=1e308, sphere_mass=1e308), bundle,
                        replace(steady, occupation=1.7e308))

    def test_a_grid_checks_its_float_fields_and_leaves_arrays_to_the_cells(self,
                                                                          config_300nm):
        grid = set_si(set_si(config_300nm, "sphere.radius_nm", np.array([[1e-7], [2e-7]])),
                      "atoms.count", np.array([[1e6, 1e7]]))
        records = evaluate(grid)
        assert isinstance(records[2].occupation, np.ndarray)
        self.assert_names_the_first(records)
        derived = replace(records[0], sphere_volume=np.full((2, 1), math.nan))
        _require_finite(derived, *records[1:])


def test_submodule_import_gives_the_module():
    """The package does not shadow its `steady_state` module with the function."""
    import levicool.steady_state as module
    assert module.evaluate is levicool.evaluate
    assert module.steady_state is steady_state
    assert "steady_state" not in levicool.__all__


def test_public_names_resolve():
    """Every name in `__all__` is on the package; the helpers that repeated
    what `derive` and the key registry compute, and those only tests called,
    are gone."""
    missing = [name for name in levicool.__all__ if not hasattr(levicool, name)]
    assert not missing
    for name in ("recoil_energy", "gas_damping_rate", "gas_mean_speed", "torr_to_pascal",
                 "finesse_tradeoff", "rayleigh_scattering_rate", "SweepCell"):
        assert name not in levicool.__all__
        for module in (levicool, levicool.system, levicool.constants, levicool.sweep,
                       levicool.rates):
            assert not hasattr(module, name), (module.__name__, name)
