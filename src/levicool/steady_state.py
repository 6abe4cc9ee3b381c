"""Steady-state phonon occupation, regime flags, and the coupling figure of merit.

The steady-state occupation of the sphere decomposes into three additive
terms: the balance of sphere heating against (gas + sympathetic) damping,
the limit set by the finite atom cooling rate, and the limit set by atom
momentum diffusion. The report keeps all three so designs can be diagnosed
term by term; their sum is the occupation, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import SingularConfigurationError
from .numeric import frozen_record, holds, power
from .rates import RateBundle, build_rate_bundle
from .system import DerivedSystem, SystemConfig, derive

#: factor by which the cooperativity must exceed the thermal occupation for
#: measurement-based feedback to reach the ground state
FEEDBACK_OCCUPATION_FACTOR = 8.0

#: the cuts standing in for strict inequalities in the regime flags: weak
#: coupling is coupling <= WEAK_COUPLING_MARGIN * min(trap frequencies), a
#: bad cavity is linewidth >= BAD_CAVITY_MARGIN * trap frequency
WEAK_COUPLING_MARGIN = 0.1
BAD_CAVITY_MARGIN = 10.0


@dataclass(frozen=True)
class RegimeFlags:
    """Qualitative classification of an operating point."""

    ground_state: bool                 # occupation < 1
    strong_coupling: bool              # coupling exceeds summed dissipation
    adiabatic_ok: bool                 # atom cooling at least as fast as the coupling
    weak_coupling_ok: bool             # coupling well below both trap frequencies
    bad_cavity: bool                   # cavity linewidth far above the trap frequency
    feedback_ground_state_feasible: bool | None  # None when no cooperativity configured

    def true_names(self) -> tuple[str, ...]:
        return tuple(name for name in FLAG_NAMES if getattr(self, name))


FLAG_NAMES = tuple(f.name for f in fields(RegimeFlags))


@dataclass(frozen=True)
class SteadyStateReport:
    """Occupation with its three-term decomposition and regime flags."""

    occupation: float
    term_cooling_balance: float        # heating / (gas damping + sympathetic cooling)
    term_atom_cooling_limit: float     # (atom_cooling / 4 omega_at)^2
    term_atom_diffusion_limit: float   # atom_diffusion / (2 atom_cooling)
    strong_coupling_ratio: float
    flags: RegimeFlags


def sphere_heating_sum(bundle: RateBundle) -> float:
    """Total sphere heating: gas thermal load + backaction/2 + recoil.

    Laser technical noise is added only when the bundle's
    `include_noise_in_occupation` is set; by default those rates are
    stabilization requirements, not model heating terms.
    """
    total = (bundle.gas_damping * bundle.thermal_occupation
             + bundle.sphere_backaction / 2.0
             + bundle.sphere_recoil)
    if bundle.include_noise_in_occupation:
        total += bundle.intensity_noise + bundle.pointing_noise
    return total


def strong_coupling_ratio(bundle: RateBundle) -> float:
    """Coupling over summed dissipation; above one, coherent dynamics win."""
    denominator = (bundle.atom_diffusion + bundle.sphere_backaction
                   + bundle.thermalization + bundle.sphere_recoil)
    if holds(denominator <= 0):
        raise SingularConfigurationError(
            "strong-coupling ratio undefined: total dissipation is zero")
    return bundle.coupling / denominator


def classify_regimes(bundle: RateBundle, occupation: float,
                     ratio: float | None = None) -> RegimeFlags:
    """Evaluate the qualitative flags for an operating point."""
    if ratio is None:
        ratio = strong_coupling_ratio(bundle)
    if bundle.cooperativity is None:
        feedback = None
    else:
        feedback = bundle.cooperativity > FEEDBACK_OCCUPATION_FACTOR * bundle.thermal_occupation
    return frozen_record(RegimeFlags, {
        "ground_state": occupation < 1.0,
        "strong_coupling": ratio > 1.0,
        "adiabatic_ok": bundle.atom_cooling >= bundle.coupling,
        # below both frequencies: `&` reads the same on floats and on grids
        "weak_coupling_ok": (
            (bundle.coupling <= WEAK_COUPLING_MARGIN * bundle.atom_frequency)
            & (bundle.coupling <= WEAK_COUPLING_MARGIN * bundle.sphere_frequency)),
        "bad_cavity": bundle.cavity_linewidth >= BAD_CAVITY_MARGIN * bundle.sphere_frequency,
        "feedback_ground_state_feasible": feedback,
    })


def steady_state(bundle: RateBundle) -> SteadyStateReport:
    """Steady-state occupation of the sphere with decomposition and flags.

    In the fully decoupled limit (zero coupling and zero atom cooling) the
    two atom-limit terms are absent; otherwise a zero atom cooling rate is
    singular.
    """
    if holds(bundle.atom_frequency <= 0):
        raise SingularConfigurationError("atom trap frequency must be > 0")
    total_damping = bundle.gas_damping + bundle.cooling
    if holds(total_damping <= 0):
        raise SingularConfigurationError(
            "no damping at all: gas damping + sympathetic cooling must be > 0")

    heating = sphere_heating_sum(bundle)
    term_balance = heating / total_damping

    if holds(bundle.atom_cooling == 0):
        if holds(bundle.coupling != 0):
            raise SingularConfigurationError(
                "a coupled ensemble needs a nonzero atom cooling rate")
        term_cooling_limit = 0.0
        term_diffusion_limit = 0.0
    else:
        term_cooling_limit = power(bundle.atom_cooling / (4.0 * bundle.atom_frequency), 2)
        term_diffusion_limit = bundle.atom_diffusion / (2.0 * bundle.atom_cooling)

    occupation = term_balance + term_cooling_limit + term_diffusion_limit
    ratio = strong_coupling_ratio(bundle)
    flags = classify_regimes(bundle, occupation, ratio)
    return frozen_record(SteadyStateReport, {
        "occupation": occupation,
        "term_cooling_balance": term_balance,
        "term_atom_cooling_limit": term_cooling_limit,
        "term_atom_diffusion_limit": term_diffusion_limit,
        "strong_coupling_ratio": ratio,
        "flags": flags,
    })


def _require_finite(derived: DerivedSystem, bundle: RateBundle,
                    steady: SteadyStateReport) -> None:
    """Raise `SingularConfigurationError` naming the first float field of the
    three that is NaN or inf; without gas the quality factor is inf by design."""
    records = [vars(derived), vars(bundle), vars(steady)]
    if derived.config.environment.pressure == 0:
        records[0] = {**records[0], "quality_factor": 0.0}   # left out of the check
    # one sum is finite when every term is: name a field only when it is not
    if math.isfinite(sum([value for part in records for value in part.values()
                          if isinstance(value, float)])):
        return
    for part in records:
        for name, value in part.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SingularConfigurationError(f"{name} is not finite ({value})")


#: what `evaluate` may raise: typed model errors are ValueErrors, and float
#: arithmetic can divide by zero or overflow
EVALUATION_ERRORS = (ValueError, ArithmeticError)


def evaluate(config: SystemConfig) -> tuple[DerivedSystem, RateBundle, SteadyStateReport]:
    """Full pipeline: config -> derived quantities -> rates -> steady state.

    Takes a single design point or a broadcast grid (see `derive`). Every
    float it returns is finite, bar the quality factor at zero pressure, or
    it raises `SingularConfigurationError` naming the first that is not; a
    grid is built from 1-D axes and its arrays checked cell by cell by
    `levicool.sweep.evaluate_grid(base, axes)`.
    """
    derived = derive(config)
    bundle = build_rate_bundle(derived)
    steady = steady_state(bundle)
    _require_finite(derived, bundle, steady)
    return derived, bundle, steady
