"""Physical constants and the unit conventions every other module obeys.

Internal unit system is SI with angular frequencies (rad/s) throughout.
Plain Hz only ever appears at I/O boundaries, where rates are rendered in
the "2 pi x ... Hz" style; `to_display_hz` / `from_display_hz` are the only
sanctioned crossing points between the two conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# 1 torr in Pa
TORR_IN_PASCAL = 133.322

_AMU = 1.66053906660e-27  # kg, CODATA-2018


class AngularRate(float):
    """An angular frequency or rate in rad/s.

    Subclasses float so rate algebra stays plain arithmetic; the type only
    tags intent and provides the display convention used in reports.
    """

    __slots__ = ()

    @property
    def display_hz(self) -> float:
        """The x in "2 pi x Hz"."""
        return float(self) / TWO_PI


def to_display_hz(rate: float) -> float:
    """Convert an angular rate (rad/s), or an array of them, to displayed Hz."""
    if type(rate) is np.ndarray:
        return rate / TWO_PI
    return float(rate) / TWO_PI


def from_display_hz(frequency_hz: float) -> AngularRate:
    """Inverse of `to_display_hz`: a plain frequency in Hz to rad/s."""
    return AngularRate(TWO_PI * frequency_hz)


def torr_to_pascal(pressure_torr: float) -> float:
    """Convert a pressure from torr to Pa; negative input is rejected."""
    if pressure_torr < 0:
        raise ValueError(f"pressure must be >= 0, got {pressure_torr} torr")
    return pressure_torr * TORR_IN_PASCAL


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 fundamentals plus fixed species and material data."""

    hbar: float = 1.054571817e-34          # J s
    k_B: float = 1.380649e-23              # J/K
    c: float = 299792458.0                 # m/s
    amu: float = _AMU                      # kg

    rb87_mass: float = 86.909 * _AMU       # kg
    rb87_gamma_se: float = TWO_PI * 6.065e6  # rad/s, D2 natural linewidth
    rb87_I_sat: float = 17.0               # W/m^2 (= 1.7 mW/cm^2)
    rb87_d2_wavelength: float = 780.24e-9  # m

    silica_density: float = 2200.0         # kg/m^3
    silica_epsilon: float = 2.0            # relative dielectric constant
    air_mean_molecular_mass: float = 28.97 * _AMU  # kg


CONSTANTS = PhysicalConstants()
