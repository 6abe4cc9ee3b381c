"""Design-space exploration: 2-D maps and constrained search.

Every scan is one `evaluate_grid(base, axes)` pass: `axes` maps config keys
marked `grid` in the registry to 1-D arrays of SI values, axis i runs along
dimension i, and the grid is evaluated around `base` in one broadcast pass
through the full pipeline. Cells come out in row-major order, each
bit-for-bit what `evaluate` gives that point alone; a cell whose point
`evaluate` rejects (a violated model precondition, or a quantity that is
not finite) carries a reason code, never dropped.

A sweep scans sphere radius x atom count. The optimizer minimizes the
steady-state occupation over a few design variables under regime-flag
constraints: a coarse grid, then coordinate-wise golden-section refinement.
The returned point is never worse than the best coarse cell.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .configfile import KEY_MAP, KEYS, key_spec, set_si, set_value
from .constants import to_display_hz
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .rates import RateBundle
from .steady_state import EVALUATION_ERRORS, FLAG_NAMES, SteadyStateReport, evaluate
from .system import DerivedSystem, SystemConfig

ERROR_SINGULAR = "singular-config"
ERROR_GEOMETRY = "invalid-geometry"
ERROR_INFEASIBLE = "infeasible"

#: most cells a sweep may have; a sweep's peak memory is about 0.6 KB a cell
MAX_CELLS = 10**6

CSV_HEADER = ("a_nm,N_at,g_2pi_hz,Gamma_cool_2pi_hz,gamma_sc_2pi_hz,"
              "gamma_m_diff_2pi_hz,Gamma_th_2pi_hz,n_ss,sc_ratio,flags")


@dataclass(frozen=True)
class SweepSpec:
    """Grid over sphere radius and atom count around a base configuration."""

    base_config: SystemConfig
    radius_start: float            # m
    radius_stop: float             # m
    radius_steps: int
    atoms_start: float
    atoms_stop: float
    atoms_steps: int
    log_atoms: bool = False

    def __post_init__(self):
        _check_axis("radius", self.radius_start, self.radius_stop, self.radius_steps)
        _check_axis("atoms", self.atoms_start, self.atoms_stop, self.atoms_steps)
        cells = self.radius_steps * self.atoms_steps
        if cells > MAX_CELLS:
            raise ConfigError(f"sweep of {cells} cells exceeds the limit of {MAX_CELLS} cells")

    def radius_values(self) -> np.ndarray:
        return np.linspace(self.radius_start, self.radius_stop, self.radius_steps)

    def atoms_values(self) -> np.ndarray:
        if self.log_atoms:
            return np.geomspace(self.atoms_start, self.atoms_stop, self.atoms_steps)
        return np.linspace(self.atoms_start, self.atoms_stop, self.atoms_steps)


def _check_axis(name: str, start: float, stop: float, steps: int) -> None:
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"{name} range must be finite")
    if start <= 0 or stop <= 0:
        raise ConfigError(f"{name} range must be positive")
    if stop < start:
        raise ConfigError(f"{name} range must have stop >= start")
    if stop == start:
        if steps != 1:
            raise ConfigError(f"degenerate {name} range needs exactly 1 step")
    elif steps < 2:
        raise ConfigError(f"{name} range needs at least 2 steps")


#: value columns taken from the rate bundle (shown in Hz) and from the steady state
_RATE_FIELDS = ("coupling", "cooling", "sphere_recoil", "sphere_backaction", "thermalization")
_STEADY_FIELDS = ("occupation", "strong_coupling_ratio")
_VALUE_FIELDS = _RATE_FIELDS + _STEADY_FIELDS

#: CSV flags text by code: bit k of a flags code is FLAG_NAMES[k]; error labels follow
_LABELS = tuple(
    ";".join(name for bit, name in enumerate(FLAG_NAMES) if code >> bit & 1) or "-"
    for code in range(1 << len(FLAG_NAMES))) + tuple(
    f"error:{reason}" for reason in (ERROR_SINGULAR, ERROR_GEOMETRY, ERROR_INFEASIBLE))
_LABEL_CODE = {label: code for code, label in enumerate(_LABELS)}


def _radius_only(grid: np.ndarray) -> bool:
    """Whether each row of a 2-D grid holds one value, bit for bit."""
    bits = grid.view(np.int64)
    return bool((bits == bits[:, :1]).all())


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A swept grid: its axes and the per-cell columns of `evaluate_grid`.

    Cell i is radius ``radii[i // counts.size]`` and atom count
    ``counts[i % counts.size]``, and row i of every column.
    """

    radii: np.ndarray              # m, the radius axis
    counts: np.ndarray             # the atom-count axis
    values: dict[str, np.ndarray]
    flags: dict[str, np.ndarray | None]
    errors: dict[int, str]

    @property
    def cells(self) -> range:
        """The cell indices, in row-major order."""
        return range(self.radii.size * self.counts.size)

    def to_csv(self) -> str:
        from . import csvtext   # its tables take milliseconds to build; `point` never needs them
        rows, cols = self.radii.size, self.counts.size
        by_radius = np.repeat(np.arange(rows), cols)
        columns = [("%.12g", self.radii * 1e9, by_radius),
                   ("%.12g", self.counts, np.tile(np.arange(cols), rows))]
        grids = [to_display_hz(self.values[name]).reshape(rows, cols) for name in _RATE_FIELDS]
        grids += [self.values[name].reshape(rows, cols) for name in _STEADY_FIELDS]
        # a quantity of the radius alone is formatted once per radius; error cells are NaN
        columns += [("%.12g", grid[:, 0], by_radius) if _radius_only(grid)
                    else ("%.12g", grid.ravel(), None) for grid in grids]
        code = np.zeros(rows * cols, dtype=np.intp)
        for bit, name in enumerate(FLAG_NAMES):
            if self.flags[name] is not None:
                code |= self.flags[name].astype(np.intp) << bit
        for index, reason in self.errors.items():
            code[index] = _LABEL_CODE[f"error:{reason}"]
        # only the labels in use, in code order: the field is as wide as the longest label
        used = np.flatnonzero(np.bincount(code))
        remap = np.zeros(len(_LABELS), np.intp)
        remap[used] = np.arange(used.size)
        labels = [_LABELS[c] for c in used.tolist()]
        return csvtext.table(CSV_HEADER, [*columns, ("%s", labels, remap.take(code))])

    def _valid(self) -> np.ndarray:
        # `evaluate_grid` leaves NaN in exactly the error cells
        return ~np.isnan(self.values["occupation"])

    def min_occupation_cell(self) -> tuple[float, float, float] | None:
        """``(radius, atom_count, occupation)`` of the first valid cell of least
        occupation in row-major order; None when no cell is valid."""
        index = _first_least(self.values["occupation"], self._valid())
        if index is None:
            return None
        i, j = divmod(index, self.counts.size)
        return (float(self.radii[i]), float(self.counts[j]),
                float(self.values["occupation"][index]))

    def strong_coupling_fraction(self) -> float:
        valid = self._valid()
        count = int(np.count_nonzero(valid))
        if count == 0:
            return 0.0
        ratio = self.values["strong_coupling_ratio"][valid]
        return int(np.count_nonzero(ratio > 1.0)) / count


def _first_least(values: np.ndarray, mask: np.ndarray) -> int | None:
    """The first index of least value where `mask` holds; None where it holds nowhere."""
    indices = np.flatnonzero(mask)
    if indices.size == 0:
        return None
    return int(indices[np.argmin(values[indices])])


def error_reason(exc: Exception) -> str:
    if isinstance(exc, InvalidGeometryError):
        return ERROR_GEOMETRY
    if isinstance(exc, (SingularConfigurationError, ArithmeticError)):
        return ERROR_SINGULAR
    return ERROR_INFEASIBLE


GridColumns = tuple[dict[str, np.ndarray], dict[str, np.ndarray | None], dict[int, str]]


def _value(bundle: RateBundle, report: SteadyStateReport, name: str):
    return getattr(bundle if name in _RATE_FIELDS else report, name)


def evaluate_grid(base: SystemConfig, axes: dict[str, np.ndarray]) -> GridColumns:
    """Evaluate every cell of a grid around `base` in one pass through the pipeline.

    `axes` maps config keys marked `grid` in the registry to 1-D arrays of
    SI values; axis i runs along dimension i of the grid. Returns
    ``(values, flags, errors)`` over the cells in row-major order: `values`
    maps each value field (`_VALUE_FIELDS`) to a flat float array (NaN in error
    cells), `flags` maps each regime flag to a flat bool array (None where
    the flag is not configured), and `errors` maps the index of each error
    cell to its reason code. When a guard on an input shared by all cells
    fails, or a quantity they share is not finite, every cell fails with its
    reason. A cell with a non-finite value anywhere in the pass, or with no
    atom cooling, is where the single-point pipeline raises or takes another
    branch, so it is evaluated alone through `evaluate`, with each varied
    key set to its cell's value as a float, and keeps exactly that point's
    outcome; the other cells are finite.
    """
    shape = tuple(axis.size for axis in axes.values())
    size = math.prod(shape)
    config = base
    for i, (key, axis) in enumerate(axes.items()):
        if not key_spec(key).grid:
            raise ConfigError(f"{key!r} cannot hold a grid; choose from {OPTIMIZABLE_KEYS}")
        # trailing unit dimensions put axis i on dimension i of the broadcast
        config = set_si(config, key, axis.reshape(-1, *[1] * (len(shape) - 1 - i)))
    flags = dict.fromkeys(FLAG_NAMES)
    with np.errstate(all="ignore"):
        try:
            derived, bundle, report = evaluate(config)
        except EVALUATION_ERRORS as exc:
            return ({name: np.full(size, math.nan) for name in _VALUE_FIELDS}, flags,
                    dict.fromkeys(range(size), error_reason(exc)))
        unsettled = np.broadcast_to(bundle.atom_cooling <= 0, shape).copy()
        for part in (derived, bundle, report):
            for value in vars(part).values():
                if type(value) is np.ndarray:
                    unsettled |= ~np.isfinite(value)
        values = {name: np.broadcast_to(_value(bundle, report, name), shape).flatten()
                  for name in _VALUE_FIELDS}
        for name in FLAG_NAMES:
            if getattr(report.flags, name) is not None:
                flags[name] = np.broadcast_to(getattr(report.flags, name), shape).flatten()
        errors = {}
        for index in np.flatnonzero(unsettled).tolist():
            point = base
            for (key, axis), i in zip(axes.items(), np.unravel_index(index, shape)):
                point = set_si(point, key, float(axis[i]))
            try:
                _, cell_bundle, cell_report = evaluate(point)
            except EVALUATION_ERRORS as exc:
                errors[index] = error_reason(exc)
                for column in values.values():
                    column[index] = math.nan
                continue
            for name, column in values.items():
                column[index] = _value(cell_bundle, cell_report, name)
            for name, column in flags.items():
                if column is not None:
                    column[index] = getattr(cell_report.flags, name)
    return values, flags, errors


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid in one broadcast pass through the pipeline.

    Radius runs along axis 0 and atom count along axis 1, so cells come out
    radius-major. Every cell's values are finite, or it carries the reason
    code of the error its point raises alone (see `evaluate_grid`).
    """
    radii, counts = spec.radius_values(), spec.atoms_values()
    return SweepResult(radii, counts, *evaluate_grid(
        spec.base_config, {"sphere.radius_nm": radii, "atoms.count": counts}))


# ---------------------------------------------------------------------------
# constrained minimization of the steady-state occupation

#: config keys the optimizer may vary (bounds are given in these key units):
#: the registry's grid keys, in registry order
OPTIMIZABLE_KEYS = tuple(spec.name for spec in KEYS if spec.grid)

#: coarse-grid points per variable, by number of variables
_COARSE_POINTS = {1: 33, 2: 11, 3: 7, 4: 5, 5: 4}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: the optimizer stops after this many coordinate sweeps, or after a sweep
#: that improves the best occupation by less than this relative amount
MAX_SWEEPS = 100
REL_TOLERANCE = 1e-4


@dataclass(frozen=True)
class OptimizeSpec:
    """Search box for minimizing the occupation under flag constraints."""

    base_config: SystemConfig
    variables: tuple[str, ...] = ()
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    require: tuple[str, ...] = ()

    def __post_init__(self):
        for index, name in enumerate(self.variables):
            if name in self.variables[:index]:
                raise ConfigError(f"variable {name!r} is listed more than once")
            if name not in OPTIMIZABLE_KEYS:
                raise ConfigError(
                    f"cannot vary {name!r}; choose from {OPTIMIZABLE_KEYS}")
            if name not in self.bounds:
                raise ConfigError(f"missing bounds for variable {name!r}")
            lo, hi = self.bounds[name]
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= lo:
                raise ConfigError(f"bounds for {name!r} must be finite, positive, lo < hi")
        for index, flag in enumerate(self.require):
            if flag in self.require[:index]:
                raise ConfigError(f"constraint flag {flag!r} is listed more than once")
            if flag not in FLAG_NAMES:
                raise ConfigError(f"unknown constraint flag {flag!r}; choose from {FLAG_NAMES}")


class ProbeTrace(Sequence):
    """The optimizer's probes in the order made, kept as columns.

    Record k is the dict of probe k: each variable's value, then ``n_ss``
    (NaN for a probe whose point `evaluate` rejects), ``feasible`` and
    ``note`` (the violated required flags joined by ";", or
    ``error:<reason>``). A probe is feasible exactly when its note is empty.
    Float columns are ``array("d")``, which numpy reads without a per-item loop.
    """

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.values = [array("d") for _ in variables]
        self.n_ss = array("d")
        self.notes: list[str] = []

    def __len__(self) -> int:
        return len(self.notes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._record, range(len(self))[index]))
        return self._record(range(len(self))[index])

    def _record(self, index: int) -> dict:
        record = {name: column[index] for name, column in zip(self.variables, self.values)}
        note = self.notes[index]
        record.update(n_ss=self.n_ss[index], feasible=not note, note=note)
        return record

    def __eq__(self, other):
        # a trace equals one of the same probes, NaN n_ss included (the columns'
        # bytes match), and a sequence of equal records, as a tuple of dicts would
        if isinstance(other, ProbeTrace):
            return (self.variables == other.variables and self.notes == other.notes
                    and all(a.tobytes() == b.tobytes() for a, b in zip(
                        [*self.values, self.n_ss], [*other.values, other.n_ss])))
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    def append(self, values: dict[str, float], n_ss: float, note: str) -> None:
        for name, column in zip(self.variables, self.values):
            column.append(values[name])
        self.n_ss.append(n_ss)
        self.notes.append(note)

    def best(self) -> int | None:
        """The index of the first feasible probe of least ``n_ss``, the search's
        optimum; None while no probe is feasible. A NaN ``n_ss`` is never the best."""
        n_ss = np.array(self.n_ss)
        return _first_least(n_ss, (np.array(self.notes, dtype=object) == "") & (n_ss == n_ss))


@dataclass(frozen=True)
class OptimizeResult:
    """The optimum: its variables' values, its evaluation and config, and the
    trace of every probe; its occupation is ``report.occupation``."""

    best_values: dict[str, float]
    derived: DerivedSystem      # the optimum's evaluation
    bundle: RateBundle
    report: SteadyStateReport
    config: SystemConfig
    trace: ProbeTrace

    def trace_csv(self) -> str:
        """The trace as CSV: a header, then one row per probe.

        Variables and ``n_ss`` are ``'%.12g'`` text (``n_ss`` is empty where it
        is NaN), ``feasible`` is true or false, and ``note`` is as in the trace.
        """
        from . import csvtext   # its tables take milliseconds to build; only traces need them
        trace = self.trace
        # the feasible and note fields depend on the note alone: one text per distinct note
        ids: dict[str, int] = {}
        code = np.array([ids.setdefault(note, len(ids)) for note in trace.notes], np.intp)
        tails = [("false," if note else "true,") + note for note in ids]
        header = ",".join([*trace.variables, "n_ss", "feasible", "note"])
        numbers = [("%.12g", column, None) for column in [*trace.values, trace.n_ss]]
        return csvtext.table(header, [*numbers, ("%s", tails, code)])


class _Objective:
    """Evaluates occupation under constraints, recording every probe in `trace`,
    the search's only record: its best is `trace.best()`."""

    def __init__(self, spec: OptimizeSpec):
        self.spec = spec
        self.trace = ProbeTrace(spec.variables)

    def config(self, values: dict) -> SystemConfig:
        """The base config with each variable set to its value."""
        config = self.spec.base_config
        for key, value in values.items():
            config = set_value(config, key, value)
        return config

    def values(self, index: int) -> dict[str, float]:
        """Each variable's value at probe `index` of the trace."""
        return dict(zip(self.spec.variables, [col[index] for col in self.trace.values]))

    def probe(self, values: dict[str, float], config: SystemConfig) -> float:
        """Evaluate `config`, the design point at `values`, and record it."""
        try:
            report = evaluate(config)[2]
        except EVALUATION_ERRORS as exc:
            self.trace.append(values, math.nan, f"error:{error_reason(exc)}")
            return math.inf
        return self.record(values, report)

    def record(self, values: dict[str, float], report: SteadyStateReport) -> float:
        """Record the point at `values` given `report`, its steady state."""
        # an unconfigured flag (None) never holds
        note = ";".join(flag for flag in self.spec.require if not getattr(report.flags, flag))
        self.trace.append(values, report.occupation, note)
        return math.inf if note else report.occupation

    def coarse(self, grids: dict[str, np.ndarray]) -> None:
        """Probe every point of the variables' grids in one broadcast pass.

        Variable i runs along axis i, so the cells come out in the order of
        ``itertools.product`` over the grids, and each is recorded as its
        own probe would be.
        """
        names = self.spec.variables
        values, flags, errors = evaluate_grid(
            self.spec.base_config, {name: KEY_MAP[name].to_si(grids[name]) for name in names})
        occupation = values["occupation"]
        # each variable's value at every cell, in key units
        meshes = np.meshgrid(*(grids[name] for name in names), indexing="ij")
        # bit b of a cell's code: flag b of `required` is violated there; an
        # unconfigured flag (None) never holds
        required = self.spec.require
        code = np.zeros(occupation.size, np.intp)
        for bit, flag in enumerate(required):
            code |= (1 if flags[flag] is None else ~flags[flag]) << bit
        table = [";".join(flag for bit, flag in enumerate(required) if c >> bit & 1)
                 for c in range(1 << len(required))]
        notes = [table[c] for c in code.tolist()]
        for index, reason in errors.items():
            notes[index] = f"error:{reason}"
        for column, mesh in zip(self.trace.values, meshes):
            column.frombytes(mesh.tobytes())
        self.trace.n_ss.frombytes(occupation.tobytes())
        self.trace.notes.extend(notes)

    def result(self) -> OptimizeResult:
        """The best probe so far, evaluated alone."""
        values = self.values(self.trace.best())
        config = self.config(values)
        return OptimizeResult(values, *evaluate(config), config, self.trace)


def _axis_grid(lo: float, hi: float, points: int) -> np.ndarray:
    # log spacing once the box spans two decades; the design knobs are all positive
    if hi / lo >= 100.0:
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _golden_section(fun, lo: float, hi: float, tol: float):
    """Golden-section minimum of fun over [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(60):  # a cap for a bracket that rounding keeps wider than tol
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return (c, fc) if fc < fd else (d, fd)


def optimize(spec: OptimizeSpec) -> OptimizeResult:
    """Minimize the occupation over the spec's box under its constraints.

    Raises `InfeasibleError` when no probed point satisfies the constraints;
    the error lists which constraints failed at the best unconstrained point.
    """
    objective = _Objective(spec)

    if not spec.variables:
        # a base design the model rejects is an input error, raised as is
        evaluation = evaluate(spec.base_config)
        objective.record({}, evaluation[2])
        violated = objective.trace.notes[-1]
        if violated:
            raise InfeasibleError("base configuration violates the required constraints",
                                  tuple(violated.split(";")))
        return OptimizeResult({}, *evaluation, spec.base_config, objective.trace)

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {name: _axis_grid(*spec.bounds[name], points) for name in spec.variables}
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}

    objective.coarse(grids)
    trace = objective.trace

    best = trace.best()
    if best is None:
        # every probe with a finite occupation violated a required flag
        n_ss = np.array(trace.n_ss)
        nearest = _first_least(n_ss, np.isfinite(n_ss))
        violated = (spec.require if nearest is None
                    else tuple(trace.notes[nearest].split(";")))
        raise InfeasibleError(
            "no feasible point in the search box "
            f"(required flags: {', '.join(spec.require) or 'none'})", violated)

    current = objective.values(best)
    previous_best = trace.n_ss[best]
    for _ in range(MAX_SWEEPS):
        for name in spec.variables:
            lo_b, hi_b = spec.bounds[name]
            half = spacing[name]
            lo = max(lo_b, current[name] - half)
            hi = min(hi_b, current[name] + half)
            if hi <= lo:
                continue
            fixed = objective.config(current)

            def line(x, _name=name, _fixed=fixed):
                probe = dict(current)
                probe[_name] = float(x)
                return objective.probe(probe, set_value(_fixed, _name, probe[_name]))

            x, fx = _golden_section(line, lo, hi, tol=1e-6 * (hi_b - lo_b))
            if math.isfinite(fx):
                current[name] = float(x)
        best_now = trace.n_ss[trace.best()]
        if previous_best - best_now <= REL_TOLERANCE * abs(previous_best):
            break
        previous_best = best_now

    return objective.result()
