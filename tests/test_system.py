"""Derived-quantity checks against independently computed values.

Frozen numbers were produced by straight-line SI arithmetic on the model
formulas before this module was implemented.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from levicool import (ConfigError, InvalidGeometryError,
                      SingularConfigurationError, TWO_PI, derive, set_value,
                      to_display_hz)
from levicool.system import (FIRST_PRINCIPLES, PAPER_ANCHORED, AtomEnsemble, Cavity,
                             Environment, FeedbackReadout, LatticeBeam, NoiseBudget,
                             Sphere, SystemConfig, TweezerBeam)

from conftest import make_random_config


class TestDeriveReferencePoint:
    def test_cavity_linewidth(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert float(derived.cavity_linewidth) == pytest.approx(
            47091289.18272133, rel=1e-9)
        # published design value: 2 pi x 7.5e6 Hz within 1%
        assert to_display_hz(derived.cavity_linewidth) == pytest.approx(
            7.5e6, rel=0.01)

    def test_axial_and_radial_frequencies(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert float(derived.atom_frequency) == pytest.approx(TWO_PI * 45e3, rel=1e-12)
        assert float(derived.atom_radial_frequency) == pytest.approx(
            1656.1996450307556, rel=1e-9)
        # published design: 263 Hz
        assert to_display_hz(derived.atom_radial_frequency) == pytest.approx(
            263.0, rel=5e-3)

    def test_sphere_oscillator_length(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert derived.sphere_oscillator_length == pytest.approx(
            2.4486931022017705e-12, rel=1e-9)
        # published design: zero-point motion 2.4e-12 m at 150 nm radius
        assert derived.sphere_oscillator_length == pytest.approx(2.4e-12, rel=0.03)

    def test_mode_volume_and_sphere(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert derived.mode_volume == pytest.approx(9.817477042468105e-13, rel=1e-9)
        assert derived.sphere_volume == pytest.approx(1.4137166941154065e-20, rel=1e-9)
        assert derived.sphere_mass == pytest.approx(3.110176727053894e-17, rel=1e-9)

    def test_lattice_quantities(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert derived.lattice_wavenumber == pytest.approx(8047730.751824661, rel=1e-9)
        assert float(derived.lattice_frequency) == pytest.approx(
            2412648983411703.0, rel=1e-9)
        assert float(derived.detuning) == pytest.approx(1545103993270.4128, rel=1e-9)
        assert derived.flux_amplitude == pytest.approx(39129169.29881023, rel=1e-9)
        assert derived.lattice_depth == pytest.approx(8.906800869794743e-29, rel=1e-9)
        assert derived.lattice_depth_recoils == pytest.approx(35.69163073761218,
                                                              rel=1e-9)

    def test_sphere_frequency_matches_atoms_on_resonance(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert float(derived.sphere_frequency) == float(derived.atom_frequency)

    def test_thermal_occupation(self, pipeline_300nm):
        derived, _, _ = pipeline_300nm
        assert derived.thermal_occupation == pytest.approx(138910794.24063048,
                                                           rel=1e-9)

    def test_deterministic(self, config_300nm):
        a = derive(config_300nm)
        b = derive(config_300nm)
        assert a == b  # bit-identical fields


class TestDerivationModes:
    def test_first_principles_depth_and_frequencies(self, config_300nm):
        config = replace(config_300nm, mode=FIRST_PRINCIPLES)
        derived = derive(config)
        assert derived.lattice_input_intensity == pytest.approx(
            175424.11505240022, rel=1e-9)
        assert derived.lattice_depth == pytest.approx(8.523126218107512e-29, rel=1e-9)
        assert derived.lattice_depth_recoils == pytest.approx(34.15415682396015,
                                                              rel=1e-9)
        assert float(derived.atom_frequency) == pytest.approx(276586.4948980406,
                                                              rel=1e-9)
        assert float(derived.atom_radial_frequency) == pytest.approx(
            1620.1352667659758, rel=1e-9)

    def test_depth_override_in_first_principles_mode(self, config_300nm):
        lattice = replace(config_300nm.lattice, depth_recoils=35.69163073761218)
        config = replace(config_300nm, lattice=lattice, mode=FIRST_PRINCIPLES)
        derived = derive(config)
        # the override reproduces the anchored depth, hence the anchored frequency
        assert float(derived.atom_frequency) == pytest.approx(TWO_PI * 45e3, rel=1e-9)

    def test_depth_override_rejected_in_anchored_mode(self, config_300nm):
        lattice = replace(config_300nm.lattice, depth_recoils=18.0)
        config = replace(config_300nm, lattice=lattice)
        with pytest.raises(ConfigError):
            derive(config)

    def test_modes_agree_on_geometry_and_recoils(self, config_300nm):
        """Quantities independent of the depth convention are mode-independent."""
        anchored = derive(replace(config_300nm, mode=PAPER_ANCHORED))
        first = derive(replace(config_300nm, mode=FIRST_PRINCIPLES))
        assert anchored.cavity_linewidth == first.cavity_linewidth
        assert anchored.mode_volume == first.mode_volume
        assert anchored.sphere_recoil_trap == first.sphere_recoil_trap
        assert anchored.sphere_recoil_lattice == first.sphere_recoil_lattice
        assert anchored.recoil_energy == first.recoil_energy

    def test_modes_agree_fully_when_anchor_matches_first_principles(self, config_300nm):
        first = derive(replace(config_300nm, mode=FIRST_PRINCIPLES))
        atoms = replace(config_300nm.atoms, axial_frequency=first.atom_frequency)
        anchored = derive(replace(config_300nm, atoms=atoms, mode=PAPER_ANCHORED))
        assert float(anchored.atom_frequency) == pytest.approx(
            float(first.atom_frequency), rel=1e-12)
        assert anchored.sphere_oscillator_length == pytest.approx(
            first.sphere_oscillator_length, rel=1e-12)
        assert anchored.lattice_depth == pytest.approx(first.lattice_depth, rel=1e-12)


class TestRecoilEnergy:
    def test_rb87_at_lattice_wavelength(self, config_300nm):
        value = derive(config_300nm).recoil_energy
        assert value == pytest.approx(2.4954872292816457e-30, rel=1e-9)
        # as a rate: ~ 2 pi x 3.77 kHz
        assert value / (6.62607015e-34) == pytest.approx(3766.16, rel=1e-3)

    def test_mass_scaling(self, config_300nm):
        atoms = config_300nm.atoms
        heavy = replace(atoms, mass=2.0 * atoms.mass)
        assert derive(replace(config_300nm, atoms=heavy)).recoil_energy == pytest.approx(
            0.5 * derive(config_300nm).recoil_energy, rel=1e-12)

    def test_wavenumber_scaling(self, config_300nm):
        lattice = config_300nm.lattice
        # the reference line halves too, so the lattice stays red-detuned
        halved = replace(lattice, wavelength=lattice.wavelength / 2.0,
                         reference_wavelength=lattice.reference_wavelength / 2.0)
        assert derive(replace(config_300nm, lattice=halved)).recoil_energy == pytest.approx(
            4.0 * derive(config_300nm).recoil_energy, rel=1e-12)


class TestGasMeanSpeed:
    def test_air_at_room_temperature(self, config_300nm):
        assert config_300nm.environment.mean_speed == pytest.approx(
            468.24541068969876, rel=1e-9)

    def test_temperature_scaling(self, config_300nm):
        env = config_300nm.environment
        hot = replace(env, temperature=4.0 * env.temperature)
        assert hot.mean_speed == pytest.approx(2.0 * env.mean_speed, rel=1e-12)

    def test_helium(self):
        env = Environment(pressure=1e-8, temperature=300.0,
                          gas_mass=4.0 * 1.66053906660e-27)
        assert env.mean_speed == pytest.approx(1260.137052207816, rel=1e-9)


class TestOscillatorLengthIdentity:
    def test_length_ratio_identity(self, random_config_factory):
        """ell_m/ell_at = sqrt(m omega_at / (M omega_m)) on random configs."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            config = random_config_factory(rng)
            derived = derive(config)
            lhs = derived.sphere_oscillator_length / derived.atom_oscillator_length
            rhs = math.sqrt(config.atoms.mass * derived.atom_frequency
                            / (derived.sphere_mass * derived.sphere_frequency))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestValidation:
    def test_zero_waist_is_invalid_geometry(self, config_300nm):
        config = replace(config_300nm,
                         cavity=replace(config_300nm.cavity, waist=0.0))
        with pytest.raises(InvalidGeometryError):
            derive(config)

    def test_zero_detuning_is_singular(self, config_300nm):
        lattice = replace(config_300nm.lattice,
                          wavelength=config_300nm.lattice.reference_wavelength)
        with pytest.raises(SingularConfigurationError):
            derive(replace(config_300nm, lattice=lattice))

    def test_blue_detuning_is_singular(self, config_300nm):
        lattice = replace(config_300nm.lattice, wavelength=779.9e-9)
        with pytest.raises(SingularConfigurationError):
            derive(replace(config_300nm, lattice=lattice))

    def test_no_lattice_power_is_singular_naming_the_key(self, config_300nm):
        lattice = replace(config_300nm.lattice, power=0.0)
        with pytest.raises(SingularConfigurationError, match=r"^lattice\.power_uw: "):
            derive(replace(config_300nm, lattice=lattice))

    def test_sphere_detuned_to_zero_frequency_is_singular(self, config_300nm):
        config = set_value(config_300nm, "atoms.sphere_detuning_2pi_hz", -45e3)
        with pytest.raises(SingularConfigurationError, match="^sphere trap frequency "):
            derive(config)

    def test_anchored_mode_requires_axial_frequency(self, config_300nm):
        atoms = replace(config_300nm.atoms, axial_frequency=None)
        with pytest.raises(ConfigError):
            derive(replace(config_300nm, atoms=atoms))

    def test_all_violations_reported(self, config_300nm):
        config = replace(
            config_300nm,
            sphere=replace(config_300nm.sphere, density=-1.0, epsilon=0.5),
        )
        with pytest.raises(ConfigError) as excinfo:
            derive(config)
        assert len(excinfo.value.violations) == 2


@pytest.mark.parametrize("section", [Sphere, Cavity, LatticeBeam, TweezerBeam, AtomEnsemble,
                                     NoiseBudget, FeedbackReadout, SystemConfig,
                                     Environment], ids=lambda cls: cls.__name__)
def test_config_sections_are_plain_data(section):
    """Derived quantities live on `DerivedSystem` alone, computed once by
    `derive`; the one property of a section is `Environment.mean_speed`,
    which the key registry's gas-mean-speed check reads."""
    allowed = {"mean_speed"} if section is Environment else set()
    properties = {name for cls in section.__mro__ for name, value in vars(cls).items()
                  if isinstance(value, property)}
    assert properties == allowed
