"""Unit conventions: angular-rate display, pressure conversion, constants."""

import dataclasses
import math

import numpy as np
import pytest

from levicool import (CONSTANTS, TWO_PI, AtomEnsemble, Sphere, derive,
                      from_display_hz, set_value, to_display_hz)
from levicool import rates
from levicool.configfile import KEY_MAP
from levicool.constants import ATOM_COOLING_FACTOR

#: the registry's torr -> Pa conversion of the pressure key
PRESSURE_TO_SI = KEY_MAP["env.pressure_torr"].to_si


class TestAngularRateDisplay:
    def test_cavity_linewidth_example(self):
        """The reference cavity linewidth displays as 7.5 MHz."""
        assert to_display_hz(4.712e7) == pytest.approx(7.5e6, rel=1e-3)

    def test_zero(self):
        assert to_display_hz(0.0) == 0.0

    def test_identity_of_convention(self):
        assert to_display_hz(TWO_PI) == pytest.approx(1.0, rel=1e-15)

    def test_round_trip(self):
        """to_display_hz then x 2 pi recovers the rate to 1e-12 relative."""
        rng = np.random.default_rng(20240317)
        for value in 10 ** rng.uniform(-9, 15, size=200):
            assert to_display_hz(value) * TWO_PI == pytest.approx(value, rel=1e-12)
            assert float(from_display_hz(to_display_hz(value))) == pytest.approx(
                value, rel=1e-12)

    def test_rad_s_and_hz_differ_by_two_pi(self):
        """Golden pair guarding against rad/s vs Hz mixups."""
        kappa = 47091289.18272133  # rad/s for the reference cavity
        assert to_display_hz(kappa) == pytest.approx(7494811.45, rel=1e-9)
        assert kappa / to_display_hz(kappa) == pytest.approx(TWO_PI, rel=1e-12)


class TestTorrToPascal:
    def test_reference_pressure(self):
        assert PRESSURE_TO_SI(1e-10) == pytest.approx(1.33322e-8, rel=1e-9)

    def test_zero(self):
        assert PRESSURE_TO_SI(0.0) == 0.0

    def test_definition(self):
        assert PRESSURE_TO_SI(1.0) == pytest.approx(133.322, rel=1e-12)

    def test_negative_rejected(self, config_300nm):
        with pytest.raises(ValueError):
            derive(set_value(config_300nm, "env.pressure_torr", -1.0))


class TestPhysicalConstants:
    def test_all_positive(self):
        for field in dataclasses.fields(CONSTANTS):
            assert getattr(CONSTANTS, field.name) > 0, field.name

    def test_saturation_intensity_exact(self):
        assert CONSTANTS.rb87_I_sat == 17.0

    def test_rb87_mass(self):
        # species data is the default of its config key (atoms.mass_amu)
        assert AtomEnsemble(count=0.0).mass == pytest.approx(86.909 * 1.66053906660e-27,
                                                             rel=1e-12)

    def test_spontaneous_emission_rate_is_angular(self):
        assert CONSTANTS.rb87_gamma_se == pytest.approx(TWO_PI * 6.065e6, rel=1e-12)

    def test_dielectric_constant(self):
        # silica, the default of sphere.epsilon
        assert Sphere(radius=150e-9).epsilon == 2.0

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CONSTANTS.hbar = 1.0


def test_atom_cooling_help_shows_the_default_rule_factor():
    """The cooling-rate key's help, and so `AtomEnsemble`'s docstring, shows the
    factor the rate bundle applies."""
    assert rates.ATOM_COOLING_FACTOR is ATOM_COOLING_FACTOR
    shown = f"(default: {ATOM_COOLING_FACTOR} x coupling)"
    assert KEY_MAP["atoms.cooling_rate_2pi_hz"].help.endswith(shown)
    assert f"(atoms.cooling_rate_2pi_hz): applied atom cooling rate {shown}" in \
        AtomEnsemble.__doc__
