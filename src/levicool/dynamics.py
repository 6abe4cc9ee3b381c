"""Time evolution of the sphere occupation and coupled-mode analysis.

The occupation obeys linear relaxation toward the active phase's fixed
point: with cooling on, the full steady-state occupation at the total rate
(gas damping + sympathetic cooling); after cooling is switched off, the
heating-only fixed point at the bare gas damping rate (so, over laboratory
time scales, near-linear reheating). The model-level contract is the fixed
point; the transient law is the simplest one consistent with it. Each phase
is linear with constant coefficients and is propagated exactly, in closed
form, on a fixed time grid.

`normal_modes` diagonalizes the two coupled oscillators to exhibit the
normal-mode splitting observable once the cooling is switched off in the
strong-coupling regime.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import AngularRate
from .rates import RateBundle
from .steady_state import sphere_heating_sum, steady_state

PHASE_COOLING_ON = "cooling-on"
PHASE_COOLING_OFF = "cooling-off"

#: a time step above this fraction of the fastest relaxation time is rejected
MAX_STEP_FRACTION = 0.1


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled occupation history; times strictly increasing."""

    times: np.ndarray        # s
    occupations: np.ndarray  # phonons
    phases: tuple[str, ...]  # one label per sample

    @property
    def final_occupation(self) -> float:
        return float(self.occupations[-1])

    def to_csv(self) -> str:
        """One ``t,n,phase`` row per sample (``%.9e``, ``%.12g``), in one formatting call."""
        rows = zip(self.times.tolist(), self.occupations.tolist(), self.phases)
        return ("t_s,n_m,phase\n" + "%.9e,%.12g,%s\n" * len(self.phases)
                % tuple(itertools.chain.from_iterable(rows)))


@dataclass(frozen=True)
class ModeBranch:
    """One hybridized resonance: center frequency and energy damping rate."""

    frequency: AngularRate
    damping: AngularRate


@dataclass(frozen=True)
class NormalModes:
    """The two hybridized modes of the coupled atom-sphere system."""

    lower: ModeBranch
    upper: ModeBranch
    splitting: AngularRate
    resolved: bool


def _propagate_phase(n0: float, duration: float, dt: float,
                     source: float, rate: float):
    """Exact solution of dn/dt = source - rate * n over one phase.

    Sampled on a fixed grid of steps no longer than dt that lands exactly on
    the end; returns (times from the phase start, occupations).
    """
    steps = max(1, math.ceil(duration / dt))
    times = duration * np.arange(steps + 1) / steps
    if rate == 0:
        return times, n0 + source * times
    # n0 e^{-rt} + (s/r)(1 - e^{-rt}), without cancellation for small rt
    decay = -rate * times
    return times, n0 * np.exp(decay) - (source / rate) * np.expm1(decay)


def evolve_occupation(bundle: RateBundle, n0: float, t_end: float, dt: float,
                      cooling_off_at: float | None = None) -> SimulationTrace:
    """Evolve the sphere occupation from n0 over [0, t_end], sampled every dt or less.

    With cooling on, dn/dt relaxes to the steady-state occupation at rate
    gas_damping + cooling; from `cooling_off_at` onward the cooling channel
    and the atom-limit terms are dropped and only the heating terms drive
    the occupation. dt above MAX_STEP_FRACTION of the fastest relaxation
    time is rejected, with the bound reported.
    """
    for name, value in (("n0", n0), ("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if n0 < 0:
        raise ValueError("initial occupation must be >= 0")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if cooling_off_at is not None and not 0 <= cooling_off_at <= t_end:
        raise ValueError("cooling_off_at must lie within [0, t_end]")

    rate_on = bundle.gas_damping + bundle.cooling
    source_on = rate_on * steady_state(bundle).occupation
    rate_off = float(bundle.gas_damping)
    source_off = sphere_heating_sum(bundle)

    phases: list[tuple[str, float, float, float]] = []  # label, duration, source, rate
    if cooling_off_at is None:
        phases.append((PHASE_COOLING_ON, t_end, source_on, rate_on))
    else:
        if cooling_off_at > 0:
            phases.append((PHASE_COOLING_ON, cooling_off_at, source_on, rate_on))
        phases.append((PHASE_COOLING_OFF, t_end - cooling_off_at, source_off, rate_off))

    active_rates = [rate for _, duration, _, rate in phases if duration > 0]
    if active_rates:
        stiffest = max(active_rates)
        if stiffest > 0 and dt > MAX_STEP_FRACTION / stiffest:
            raise ValueError(
                f"dt too large for stable fixed-step integration: "
                f"dt must be <= {MAX_STEP_FRACTION / stiffest:.6e} s"
            )

    times = [np.zeros(1)]
    values = [np.array([float(n0)])]
    labels = [phases[0][0] if phases else PHASE_COOLING_ON]
    t_offset = 0.0
    for label, duration, source, rate in phases:
        if duration <= 0:
            continue
        seg_times, seg_values = _propagate_phase(values[-1][-1], duration, dt, source, rate)
        times.append(t_offset + seg_times[1:])
        values.append(seg_values[1:])
        labels.extend([label] * (seg_times.size - 1))
        t_offset += duration

    return SimulationTrace(
        times=np.concatenate(times),
        occupations=np.concatenate(values),
        phases=tuple(labels),
    )


def normal_modes(sphere_frequency: float, atom_frequency: float, coupling: float,
                 sphere_damping: float = 0.0,
                 atom_damping: float = 0.0) -> NormalModes:
    """Hybridized modes of two coupled oscillators.

    Diagonalizes the rotating-frame mode matrix
    [[-i w_m - gm/2, -i g], [-i g, -i w_at - ga/2]]; each eigenvalue maps to
    a (frequency, energy damping) pair. The splitting is resolved when 2g
    exceeds the mean of the two damping rates.
    """
    if sphere_frequency <= 0 or atom_frequency <= 0:
        raise ValueError("oscillator frequencies must be > 0")
    matrix = np.array(
        [[-1j * sphere_frequency - sphere_damping / 2.0, -1j * coupling],
         [-1j * coupling, -1j * atom_frequency - atom_damping / 2.0]],
        dtype=complex,
    )
    eigenvalues = np.linalg.eigvals(matrix)
    branches = sorted(
        (ModeBranch(frequency=AngularRate(-ev.imag), damping=AngularRate(-2.0 * ev.real))
         for ev in eigenvalues),
        key=lambda b: b.frequency,
    )
    lower, upper = branches
    splitting = AngularRate(upper.frequency - lower.frequency)
    resolved = 2.0 * coupling > (sphere_damping + atom_damping) / 2.0
    return NormalModes(lower=lower, upper=upper, splitting=splitting, resolved=resolved)
