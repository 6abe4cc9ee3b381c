"""Design-space exploration: 2-D maps and constrained search.

Every scan is one `evaluate_grid(base, axes)` pass: `axes` maps float
config keys to 1-D arrays of SI values, axis i runs along dimension i, and
the grid is evaluated around `base` in one broadcast pass through the full
pipeline. Cells come out in row-major order, each bit-for-bit what
`evaluate` gives that point alone; a cell whose point `evaluate` rejects
(a violated model precondition, or a quantity that is not finite) carries
a reason code, never dropped.

A sweep scans sphere radius x atom count, each an `Axis`. The optimizer
minimizes the steady-state occupation over a few design variables under
regime-flag constraints: a coarse grid, then coordinate-wise golden-section
refinement. The returned point is never worse than the best coarse cell.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .configfile import (KEY_MAP, SECTION_CHECKS, check_rules, numeric_key, set_si, set_value,
                         validate_config)
from .constants import to_display_hz
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .numeric import frozen_record
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


class Axis(NamedTuple):
    """`steps` values from `lo` to `hi`, in its owner's units: evenly spaced, or
    geometrically where `log` is set."""

    lo: float
    hi: float
    steps: int
    log: bool = False

    def values(self) -> np.ndarray:
        if not self.log:
            return np.linspace(self.lo, self.hi, self.steps)
        # ``np.geomspace``, bit for bit, for 0 < lo <= hi: without its checks
        values = np.power(10.0, np.linspace(np.log10(self.lo), np.log10(self.hi), self.steps))
        values[0] = self.lo
        if self.steps > 1:
            values[-1] = self.hi
        return values

    def check(self, name: str) -> None:
        """Raise `ConfigError`, naming the axis `name`, unless its ends are finite and
        positive with lo <= hi, and it has 1 step where lo == hi and 2 or more elsewhere."""
        lo, hi, steps, _ = self
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"{name} range must be finite")
        if lo <= 0 or hi <= 0:
            raise ConfigError(f"{name} range must be positive")
        if hi < lo:
            raise ConfigError(f"{name} range must have stop >= start")
        if hi == lo:
            if steps != 1:
                raise ConfigError(f"degenerate {name} range needs exactly 1 step")
        elif steps < 2:
            raise ConfigError(f"{name} range needs at least 2 steps")


@dataclass(frozen=True)
class SweepSpec:
    """Grid over sphere radius (m) and atom count around a base configuration."""

    base_config: SystemConfig
    radius: Axis
    atoms: Axis

    def __post_init__(self):
        self.radius.check("radius")
        self.atoms.check("atoms")
        cells = self.radius.steps * self.atoms.steps
        if cells > MAX_CELLS:
            raise ConfigError(f"sweep of {cells} cells exceeds the limit of {MAX_CELLS} cells")


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
#: bit k's weight, in the least unsigned type that holds every label code
_FLAG_WEIGHTS = (1 << np.arange(len(FLAG_NAMES))).astype(np.min_scalar_type(len(_LABELS) - 1))


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

    def to_csv(self, file=None) -> str | None:
        from . import csvtext   # its tables take milliseconds to build; `point` never needs them
        rows, cols = self.radii.size, self.counts.size
        by_radius = (1, cols)       # csvtext's grid axes: written by broadcast
        columns = [("%.12g", self.radii * 1e9, by_radius), ("%.12g", self.counts, (rows, 1))]
        # a quantity of the radius alone (each row one value, bit for bit) is
        # formatted once per radius; error cells are NaN
        for name in _VALUE_FIELDS:
            values = self.values[name]
            bits = values.view(np.int64).reshape(rows, cols)
            alone = bool((bits == bits[:, :1]).all())
            shown = values[::cols] if alone else values
            columns.append(("%.12g", to_display_hz(shown) if name in _RATE_FIELDS else shown,
                            by_radius if alone else None))
        code = np.zeros(rows * cols, _FLAG_WEIGHTS.dtype)
        for bit, name in enumerate(FLAG_NAMES):
            if (flag := self.flags[name]) is not None:
                code += flag * _FLAG_WEIGHTS[bit]
        for index, reason in self.errors.items():
            code[index] = _LABEL_CODE[f"error:{reason}"]
        # only the labels in use, in code order: the field is as wide as the longest label
        used = np.flatnonzero(np.bincount(code))
        remap = np.zeros(len(_LABELS), np.intp)
        remap[used] = np.arange(used.size)
        labels = [_LABELS[c] for c in used.tolist()]
        return csvtext.table(CSV_HEADER, [*columns, ("%s", labels, remap.take(code))], file)

    def min_occupation_cell(self) -> tuple[float, float, float] | None:
        """``(radius, atom_count, occupation)`` of the first valid cell of least
        occupation in row-major order; None when no cell is valid."""
        occupation = self.values["occupation"]
        # `evaluate_grid` leaves NaN in exactly the error cells
        index = _first_least(occupation, ~np.isnan(occupation))
        if index is None:
            return None
        i, j = divmod(index, self.counts.size)
        return (float(self.radii[i]), float(self.counts[j]),
                float(self.values["occupation"][index]))

    def strong_coupling_fraction(self) -> float:
        """The share of valid cells whose strong-coupling ratio exceeds 1 (0 if none is)."""
        count = len(self.cells) - len(self.errors)
        if count == 0:
            return 0.0
        # the error cells hold NaN, which is not above 1
        return int(np.count_nonzero(self.values["strong_coupling_ratio"] > 1.0)) / count


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

    `axes` maps float config keys to 1-D arrays of SI values; axis i runs
    along dimension i of the grid. Returns ``(values, flags, errors)`` over
    the cells in row-major order: `values` maps each value field
    (`_VALUE_FIELDS`) to a flat float array (NaN in error cells), `flags`
    maps each regime flag to a flat bool array (None where the flag is not
    configured), and `errors` maps the index of each error cell to its
    reason code. A `ConfigError` that every cell shares propagates; when
    another guard on an input shared by all cells fails, or a quantity they
    share is not finite, every cell fails with its reason. The grid config is
    validated once, for `evaluate` and the cell masks. A cell that breaks
    a check or rule of `validate_config`, or whose sum of the pass's array
    fields is not finite (a NaN or inf field, or finite fields whose sum
    overflows), is evaluated alone through `evaluate` (each varied key set
    to its cell's float) and keeps that point's outcome. Every
    other cell is its point, bar one gap: where a Python ``**`` overflows
    alone (a waist or tweezer wavelength of 1e294 m or more), the grid's inf
    cancels into a finite cell.
    """
    shape = tuple(axis.size for axis in axes.values())
    size = math.prod(shape)
    config = base
    for i, (key, axis) in enumerate(axes.items()):
        numeric_key(key)
        # trailing unit dimensions put axis i on dimension i of the broadcast
        config = set_si(config, key, axis.reshape(-1, *[1] * (len(shape) - 1 - i)))
    flags = dict.fromkeys(FLAG_NAMES)
    with np.errstate(all="ignore"):
        violations = validate_config(config)
        try:
            derived, bundle, report = evaluate(config, violations)
        except (InvalidGeometryError, SingularConfigurationError, ArithmeticError) as exc:
            return ({name: np.full(size, math.nan) for name in _VALUE_FIELDS}, flags,
                    dict.fromkeys(range(size), error_reason(exc)))
        # a NaN or inf field makes its cells' sum non-finite; a sum that only
        # overflows sends finite cells alone, which costs time, not bits
        total = np.zeros(shape)
        for part in (derived, bundle, report):
            for value in vars(part).values():
                if type(value) is np.ndarray:
                    total += value
        unsettled = ~np.isfinite(total)
        for violation in violations:   # derive raised on each one without a mask
            unsettled |= violation[3]
        # filled in place: `broadcast_to(...).flatten()` costs several times more a call
        values = {name: np.empty(size) for name in _VALUE_FIELDS}
        for name, column in values.items():
            column.reshape(shape)[...] = _value(bundle, report, name)
        for name in FLAG_NAMES:
            if (flag := getattr(report.flags, name)) is not None:
                flags[name] = np.empty(size, bool)
                flags[name].reshape(shape)[...] = flag
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
    radii, counts = spec.radius.values(), spec.atoms.values()
    return SweepResult(radii, counts, *evaluate_grid(
        spec.base_config, {"sphere.radius_nm": radii, "atoms.count": counts}))


# ---------------------------------------------------------------------------
# constrained minimization of the steady-state occupation

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
        if len(self.variables) > max(_COARSE_POINTS):
            raise ConfigError(f"at most {max(_COARSE_POINTS)} variables may be varied")
        for index, name in enumerate(self.variables):
            if name in self.variables[:index]:
                raise ConfigError(f"variable {name!r} is listed more than once")
            numeric_key(name)
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
    Float columns are ``array("d")``, which numpy reads without a per-item loop;
    each note is kept as its code in `note_codes`, which maps the distinct notes
    to 0, 1, ...: code 0 is the empty note. The coarse pass codes its notes by
    their mask of violated required flags (flag i of ``require`` is bit i), its
    error notes after them in cell order; a later probe's new note takes the
    next code.
    """

    def __init__(self, variables: tuple[str, ...]):
        self.variables = variables
        self.values = [array("d") for _ in variables]
        self.n_ss = array("d")
        self.codes = array("q")
        self.note_codes = {"": 0}

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> dict:
        index = range(len(self))[index]     # from the end where negative; IndexError past it
        record = {name: column[index] for name, column in zip(self.variables, self.values)}
        note = list(self.note_codes)[self.codes[index]]
        record.update(n_ss=self.n_ss[index], feasible=not note, note=note)
        return record

    def append(self, values: dict[str, float], n_ss: float, note: str) -> None:
        for name, column in zip(self.variables, self.values):
            column.append(values[name])
        self.n_ss.append(n_ss)
        self.codes.append(self.note_codes.setdefault(note, len(self.note_codes)))

    def best(self) -> int | None:
        """The index of the first feasible probe of least ``n_ss``, the search's
        optimum; None while no probe is feasible. A NaN ``n_ss`` is never the best."""
        n_ss = np.array(self.n_ss)
        return _first_least(n_ss, (np.array(self.codes) == 0) & (n_ss == n_ss))


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """The optimum: its variables' values, its evaluation and config, and the
    trace of every probe; its occupation is ``report.occupation``."""

    best_values: dict[str, float]
    derived: DerivedSystem      # the optimum's evaluation
    bundle: RateBundle
    report: SteadyStateReport
    config: SystemConfig
    trace: ProbeTrace

    def trace_csv(self, file=None) -> str | None:
        """The trace as CSV: a header, then one row per probe.

        Variables and ``n_ss`` are ``'%.12g'`` text (``n_ss`` is empty where it
        is NaN), ``feasible`` is true or false, and ``note`` is as in the trace.
        """
        from . import csvtext   # its tables take milliseconds to build; only traces need them
        trace = self.trace
        # the feasible and note fields depend on the note alone: one text per distinct note
        tails = [("false," if note else "true,") + note for note in trace.note_codes]
        header = ",".join([*trace.variables, "n_ss", "feasible", "note"])
        numbers = [("%.12g", column, None) for column in [*trace.values, trace.n_ss]]
        return csvtext.table(header, [*numbers, ("%s", tails, np.array(trace.codes))], file)


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

    def note(self, report: SteadyStateReport) -> str:
        """The required flags `report` violates, joined by ";"."""
        require = self.spec.require     # an unconfigured flag (None) never holds
        return ";".join([f for f in require if not getattr(report.flags, f)]) if require else ""

    def line(self, name: str, fixed: SystemConfig, values: dict[str, float],
             lo: float, hi: float, tol: float) -> tuple[float, float]:
        """Golden-section search of `name` over [lo, hi] from `fixed`, the evaluated
        design at `values`; returns (x, f(x)). A probe moves `name` alone in a config
        that breaks no check, so its section's checks plus the rules tying keys are
        `validate_config`'s list, which it hands to `evaluate`; no probe is validated
        in full. The probes join the trace at the end of the line."""
        (section, fieldname), scale = KEY_MAP[name].path, KEY_MAP[name].scale
        check, codes, part = SECTION_CHECKS[section], self.trace.note_codes, getattr(fixed, section)
        part_class, part_fields, config_class, config_fields = (
            part.__class__, vars(part), fixed.__class__, vars(fixed))
        xs, n_ss, notes = array("d"), array("d"), array("q")

        def probe(x: float) -> float:
            point = frozen_record(config_class, {**config_fields, section: frozen_record(
                part_class, {**part_fields, fieldname: x * scale})})
            try:
                report = evaluate(point, check(point) + check_rules(point))[2]
                occupation, note = report.occupation, self.note(report)
            except EVALUATION_ERRORS as exc:
                occupation, note = math.nan, f"error:{error_reason(exc)}"
            xs.append(x)
            n_ss.append(occupation)
            notes.append(codes.setdefault(note, len(codes)))
            return math.inf if note else occupation

        found = _golden_section(probe, lo, hi, tol)
        for variable, column in zip(self.trace.variables, self.trace.values):
            column.extend(xs if variable == name else array("d", [values[variable]]) * len(xs))
        self.trace.n_ss.extend(n_ss)
        self.trace.codes.extend(notes)
        return found

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
        # unconfigured flag (None) never holds; error cells follow
        required = self.spec.require
        code = np.zeros(occupation.size, np.int64)
        for bit, flag in enumerate(required):
            code |= (1 if flags[flag] is None else ~flags[flag]) << bit
        notes = [";".join(flag for bit, flag in enumerate(required) if c >> bit & 1)
                 for c in range(1 << len(required))]
        for index, reason in errors.items():
            code[index] = len(notes)
            notes.append(f"error:{reason}")
        # the trace codes of the notes in use, in code order
        used, known = np.flatnonzero(np.bincount(code)), self.trace.note_codes
        remap = np.zeros(len(notes), np.int64)
        remap[used] = [known.setdefault(notes[c], len(known)) for c in used.tolist()]
        for column, mesh in zip(self.trace.values, meshes):
            column.frombytes(mesh.tobytes())
        self.trace.n_ss.frombytes(occupation.tobytes())
        self.trace.codes.frombytes(remap.take(code).tobytes())

    def result(self) -> OptimizeResult:
        """The best probe so far, evaluated alone."""
        values = self.values(self.trace.best())
        config = self.config(values)
        return OptimizeResult(values, *evaluate(config), config, self.trace)


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
    The coarse grid is validated once (see `evaluate_grid`); a line probe runs
    only its key's section checks and the rules tying keys (`_Objective.line`).
    """
    objective = _Objective(spec)

    if not spec.variables:
        # a base design the model rejects is an input error, raised as is
        evaluation = evaluate(spec.base_config)
        violated = objective.note(evaluation[2])
        objective.trace.append({}, evaluation[2].occupation, violated)
        if violated:
            raise InfeasibleError("base configuration violates the required constraints",
                                  tuple(violated.split(";")))
        return OptimizeResult({}, *evaluation, spec.base_config, objective.trace)

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {}
    for name in spec.variables:
        # log spacing once the box spans two decades; the bounds are all positive
        lo, hi = spec.bounds[name]
        grids[name] = Axis(lo, hi, points, hi / lo >= 100.0).values()
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}

    objective.coarse(grids)
    trace = objective.trace

    best = trace.best()
    if best is None:
        # every probe with a finite occupation violated a required flag
        n_ss = np.array(trace.n_ss)
        nearest = _first_least(n_ss, np.isfinite(n_ss))
        violated = (spec.require if nearest is None
                    else tuple(list(trace.note_codes)[trace.codes[nearest]].split(";")))
        raise InfeasibleError(
            "no feasible point in the search box "
            f"(required flags: {', '.join(spec.require) or 'none'})", violated)

    current = objective.values(best)
    config = objective.config(current)
    previous_best = trace.n_ss[best]
    for _ in range(MAX_SWEEPS):
        for name in spec.variables:
            lo_b, hi_b = spec.bounds[name]
            half = spacing[name]
            lo = max(lo_b, current[name] - half)
            hi = min(hi_b, current[name] + half)
            if hi <= lo:
                continue
            x, fx = objective.line(name, config, current, lo, hi, tol=1e-6 * (hi_b - lo_b))
            if math.isfinite(fx):
                current[name] = x
                config = set_value(config, name, x)
        best_now = trace.n_ss[trace.best()]
        if previous_best - best_now <= REL_TOLERANCE * abs(previous_best):
            break
        previous_best = best_now

    return objective.result()
