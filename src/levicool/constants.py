"""Physical constants and the unit conventions every other module obeys.

Internal unit system is SI with angular frequencies (rad/s) throughout;
every quantity is a plain float (or, on a grid, a numpy array of them).
Plain Hz only ever appears at I/O boundaries, where rates are rendered in
the "2 pi x ... Hz" style. The only crossing points between the two
conventions are `to_display_hz` / `from_display_hz` and the `scale=TWO_PI`
of each `*_2pi_hz` key in the config key registry (`levicool.configfile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

# 1 torr in Pa
TORR_IN_PASCAL = 133.322


# Default rule for the applied atom cooling rate when no override is given:
# just above the coupling, so the adiabatic condition holds. The cooling
# 4 g^2 / gamma assumes gamma >> g and reads 3.64 g at 1.1 g; with both modes
# kept (Hammerer et al., PRL 103, 063005 (2009); Jöckel et al., Nat.
# Nanotechnol. 10, 55 (2015)) the exchange rate gamma 4 g^2 / (gamma^2 + 4 g^2)
# peaks at g, at gamma = 2 g, and is 0.845 g at 1.1 g (tests/test_model_limits.py).
ATOM_COOLING_FACTOR = 1.1

#: an angular frequency or rate in rad/s; the name documents intent only
AngularRate = float


def to_display_hz(rate: AngularRate) -> float:
    """Convert an angular rate (rad/s), or an array of them, to displayed Hz."""
    return rate / TWO_PI


def from_display_hz(frequency_hz: float) -> AngularRate:
    """Inverse of `to_display_hz`: a plain frequency in Hz to rad/s."""
    return TWO_PI * frequency_hz


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 fundamentals plus the Rb-87 D2-line data of the model."""

    hbar: float = 1.054571817e-34          # J s
    k_B: float = 1.380649e-23              # J/K
    c: float = 299792458.0                 # m/s
    amu: float = 1.66053906660e-27         # kg

    rb87_gamma_se: float = TWO_PI * 6.065e6  # rad/s, D2 natural linewidth
    rb87_I_sat: float = 17.0               # W/m^2 (= 1.7 mW/cm^2)


CONSTANTS = PhysicalConstants()
