"""Design-space exploration: 2-D maps, constrained search, finesse trade-off.

Sweeps evaluate a (sphere radius x atom count) grid in one broadcast pass
through the full pipeline (`evaluate_grid`) and emit one record per cell in
row-major order (radius outer, atom count inner); each record is
bit-for-bit what `evaluate` gives for that point alone. A cell whose point
`evaluate` rejects (a violated model precondition, or a quantity that is
not finite) is recorded with a reason code, never dropped.

The optimizer minimizes the steady-state occupation over a small set of
design variables under regime-flag constraints: a coarse grid, evaluated in
one broadcast pass like a sweep, followed by coordinate-wise golden-section
refinement. The returned point is never worse than the best coarse cell.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .configfile import KEYS, set_value
from .constants import to_display_hz
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .rates import RateBundle
from .steady_state import FLAG_NAMES, RegimeFlags, SteadyStateReport, evaluate
from .system import DerivedSystem, SystemConfig

ERROR_SINGULAR = "singular-config"
ERROR_GEOMETRY = "invalid-geometry"
ERROR_INFEASIBLE = "infeasible"

#: what evaluating a design point may raise: typed model errors are
#: ValueErrors, and float arithmetic can divide by zero or overflow
EVALUATION_ERRORS = (ValueError, ArithmeticError)

#: most cells a sweep may have; a sweep's peak memory is about 1 KB a cell
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
        if self.log_atoms and self.atoms_start <= 0:
            raise ConfigError("log-spaced atom axis needs a positive start")
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


@dataclass(frozen=True)
class SweepCell:
    """One grid point; either a full record or an error reason."""

    radius: float                  # m
    atom_count: float
    error: str | None = None
    coupling: float = math.nan
    cooling: float = math.nan
    sphere_recoil: float = math.nan
    sphere_backaction: float = math.nan
    thermalization: float = math.nan
    occupation: float = math.nan
    strong_coupling_ratio: float = math.nan
    flags: RegimeFlags | None = None


#: SweepCell fields taken from the rate bundle (shown in Hz) and from the steady state
_RATE_FIELDS = ("coupling", "cooling", "sphere_recoil", "sphere_backaction", "thermalization")
_STEADY_FIELDS = ("occupation", "strong_coupling_ratio")
_VALUE_FIELDS = _RATE_FIELDS + _STEADY_FIELDS

#: CSV flags text by flag bits, bit k standing for FLAG_NAMES[k] being true
_FLAGS_TEXT = tuple(
    ";".join(name for bit, name in enumerate(FLAG_NAMES) if code >> bit & 1) or "-"
    for code in range(1 << len(FLAG_NAMES)))


def _radius_only(grid: np.ndarray) -> bool:
    """Whether each row of a 2-D grid holds one value, bit for bit."""
    bits = grid.view(np.int64)
    return bool((bits == bits[:, :1]).all())


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A swept grid: its axes and the per-cell columns of `evaluate_grid`.

    `cells` builds SweepCell records only for the cells indexed.
    """

    spec: SweepSpec
    radii: np.ndarray              # m, the radius axis
    counts: np.ndarray             # the atom-count axis
    values: dict[str, np.ndarray]
    flags: dict[str, np.ndarray | None]
    errors: dict[int, str]

    @property
    def cells(self) -> Sequence[SweepCell]:
        return _CellView(self)

    def cell(self, index: int) -> SweepCell:
        i, j = divmod(index, self.counts.size)
        radius, count = float(self.radii[i]), float(self.counts[j])
        reason = self.errors.get(index)
        if reason is not None:
            return SweepCell(radius=radius, atom_count=count, error=reason)
        flags = RegimeFlags(**{name: None if column is None else bool(column[index])
                               for name, column in self.flags.items()})
        return SweepCell(radius=radius, atom_count=count, flags=flags,
                         **{name: float(column[index]) for name, column in self.values.items()})

    def to_csv(self) -> str:
        from . import csvtext   # its tables take milliseconds to build; `point` never needs them
        rows, cols = self.radii.size, self.counts.size
        grids = [to_display_hz(self.values[name]).reshape(rows, cols) for name in _RATE_FIELDS]
        grids += [self.values[name].reshape(rows, cols) for name in _STEADY_FIELDS]
        # every number in one formatting pass; a quantity that depends on the
        # radius only (as the radius itself) is formatted once per radius
        per_radius = [_radius_only(grid) for grid in grids]
        parts = [self.radii * 1e9, self.counts]
        parts += [grid[:, 0] if by_radius else grid.ravel()
                  for grid, by_radius in zip(grids, per_radius)]
        texts = csvtext.g12_texts(np.concatenate(parts))
        ends = np.cumsum([part.size for part in parts]).tolist()
        a_nm, n_at, *columns = [texts[start:end] for start, end in zip([0, *ends], ends)]
        a_nm = [text for text in a_nm for _ in range(cols)]
        n_at *= rows
        columns = [[text for text in column for _ in range(cols)] if by_radius else column
                   for column, by_radius in zip(columns, per_radius)]
        code = np.zeros(rows * cols, dtype=np.intp)
        for bit, name in enumerate(FLAG_NAMES):
            if self.flags[name] is not None:
                code |= self.flags[name].astype(np.intp) << bit
        flags_text = [_FLAGS_TEXT[c] for c in code.tolist()]
        lines = list(map(",".join, zip(a_nm, n_at, *columns, flags_text)))
        for index, reason in self.errors.items():
            lines[index] = f"{a_nm[index]},{n_at[index]},,,,,,,,error:{reason}"
        return "\n".join([CSV_HEADER, *lines, ""])

    def _valid(self) -> np.ndarray:
        valid = np.ones(self.radii.size * self.counts.size, dtype=bool)
        valid[list(self.errors)] = False
        return valid

    def min_occupation_cell(self) -> SweepCell | None:
        """The first valid cell of least occupation, as ``min`` over the cells finds it."""
        indices = np.flatnonzero(self._valid())
        if indices.size == 0:
            return None
        best = int(np.argmin(self.values["occupation"][indices]))
        return self.cell(int(indices[best]))

    def strong_coupling_fraction(self) -> float:
        valid = self._valid()
        count = int(np.count_nonzero(valid))
        if count == 0:
            return 0.0
        ratio = self.values["strong_coupling_ratio"][valid]
        return int(np.count_nonzero(ratio > 1.0)) / count


class _Records(Sequence):
    """Read-only sequence whose records are built by `_record(index)` when indexed."""

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._record, range(len(self))[index]))
        return self._record(range(len(self))[index])


class _CellView(_Records):
    """A sweep's cells, each built when it is indexed."""

    def __init__(self, result: SweepResult):
        self._result = result
        self._record = result.cell

    def __len__(self) -> int:
        return self._result.radii.size * self._result.counts.size


def error_reason(exc: Exception) -> str:
    if isinstance(exc, InvalidGeometryError):
        return ERROR_GEOMETRY
    if isinstance(exc, (SingularConfigurationError, ArithmeticError)):
        return ERROR_SINGULAR
    return ERROR_INFEASIBLE


#: (section, field) of each config key that may hold a grid, in registry order
_GRID_PATHS = tuple(spec.path for spec in KEYS if spec.grid)


def _point_at(config: SystemConfig, shape: tuple[int, ...], index: int) -> SystemConfig:
    """The design point at flat `index` of a grid config, on plain floats."""
    cell = np.unravel_index(index, shape)
    for section, name in _GRID_PATHS:
        part = getattr(config, section)
        value = getattr(part, name)
        if type(value) is np.ndarray:
            value = float(np.broadcast_to(value, shape)[cell])
            config = replace(config, **{section: replace(part, **{name: value})})
    return config


GridColumns = tuple[dict[str, np.ndarray], dict[str, np.ndarray | None], dict[int, str]]


def _value(bundle: RateBundle, report: SteadyStateReport, name: str):
    return getattr(bundle if name in _RATE_FIELDS else report, name)


def evaluate_grid(config: SystemConfig, shape: tuple[int, ...]) -> GridColumns:
    """Evaluate every cell of a grid in one pass through the pipeline.

    `config` holds numpy arrays that broadcast to `shape` for the varied
    keys (those marked `grid` in the config-key registry). Returns
    ``(values, flags, errors)`` over the cells in row-major order: `values`
    maps each SweepCell value field to a flat float array (NaN in error
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
    size = math.prod(shape)
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
            try:
                _, cell_bundle, cell_report = evaluate(_point_at(config, shape, index))
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
    base = spec.base_config
    radii, counts = spec.radius_values(), spec.atoms_values()
    grid = replace(base, sphere=replace(base.sphere, radius=radii[:, None]),
                   atoms=replace(base.atoms, count=counts[None, :]))
    return SweepResult(spec, radii, counts,
                       *evaluate_grid(grid, (radii.size, counts.size)))


# ---------------------------------------------------------------------------
# constrained minimization of the steady-state occupation

#: config keys the optimizer may vary (bounds are given in these key units):
#: the registry's grid keys, in registry order
OPTIMIZABLE_KEYS = tuple(spec.name for spec in KEYS if spec.grid)

#: coarse-grid points per variable, by number of variables
_COARSE_POINTS = {1: 33, 2: 11, 3: 7, 4: 5, 5: 4}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizeSpec:
    """Search box for minimizing the occupation under flag constraints."""

    base_config: SystemConfig
    variables: tuple[str, ...] = ()
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    require: tuple[str, ...] = ()
    max_sweeps: int = 100
    rel_tolerance: float = 1e-4

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


class ProbeTrace(_Records):
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


@dataclass(frozen=True)
class OptimizeResult:
    best_values: dict[str, float]
    occupation: float
    derived: DerivedSystem      # the optimum's evaluation
    bundle: RateBundle
    report: SteadyStateReport
    config: SystemConfig
    trace: ProbeTrace
    evaluations: int

    def trace_csv(self) -> str:
        """The trace as CSV: a header, then one row per probe.

        Variables and ``n_ss`` are ``'%.12g'`` text (``n_ss`` is empty where it
        is NaN), ``feasible`` is true or false, and ``note`` is as in the trace.
        """
        from . import csvtext   # its tables take milliseconds to build; only traces need them
        trace = self.trace
        numbers = [*trace.values, trace.n_ss]
        # the feasible and note fields depend on the note alone: one text per distinct note
        ids: dict[str, int] = {}
        code = np.array([ids.setdefault(note, len(ids)) for note in trace.notes], np.intp)
        tails = [("false," if note else "true,") + note for note in ids]
        width = max(map(len, tails), default=0)
        rows, slots = csvtext.row_matrix(
            len(trace), [csvtext.G12_WIDTH] * len(numbers) + [width])
        # column by column: one pass over all numbers would hold several times
        # the temporaries of the largest column at once
        for slot, column in zip(slots, numbers):
            csvtext.write_g12(slot, np.array(column))
        slots[len(numbers) - 1][np.isnan(np.array(trace.n_ss))] = 0
        padded = b"".join(tail.encode("ascii").ljust(width, b"\0") for tail in tails)
        table = np.frombuffer(padded, np.uint8).reshape(len(tails), width)
        slots[-1][:] = table.take(code, axis=0)
        header = ",".join([*trace.variables, "n_ss", "feasible", "note"])
        return header + "\n" + csvtext.text(rows)


class _Objective:
    """Evaluates occupation under constraints, recording every probe in `trace`.

    `best` is (occupation, values, outcome, config) of the first feasible
    probe, replaced only by a strictly smaller occupation, where outcome is
    what `evaluate` returned for it; outcome and config are None for a point
    probed in a coarse-grid pass until `result` fills them in.
    """

    def __init__(self, spec: OptimizeSpec):
        self.spec = spec
        self.trace = ProbeTrace(spec.variables)
        self.best: tuple[float, dict, tuple | None, SystemConfig | None] | None = None

    def config(self, values: dict, config: SystemConfig | None = None) -> SystemConfig:
        """`config` (by default the base config) with each variable set to its value.

        Values are floats, or numpy arrays that span a grid.
        """
        if config is None:
            config = self.spec.base_config
        for key, value in values.items():
            config = set_value(config, key, value)
        return config

    def probe(self, values: dict[str, float], config: SystemConfig) -> float:
        """Evaluate `config`, the design point at `values`, and record it."""
        try:
            outcome = evaluate(config)
        except EVALUATION_ERRORS as exc:
            self.trace.append(values, math.nan, f"error:{error_reason(exc)}")
            return math.inf
        return self.record(values, outcome, config)

    def record(self, values: dict[str, float], outcome: tuple, config: SystemConfig) -> float:
        """Record the point at `values` given `outcome`, its `evaluate` of `config`."""
        report = outcome[2]
        # an unconfigured flag (None) never holds
        note = ";".join(flag for flag in self.spec.require if not getattr(report.flags, flag))
        self.trace.append(values, report.occupation, note)
        if note:
            return math.inf
        if self.best is None or report.occupation < self.best[0]:
            self.best = (report.occupation, dict(values), outcome, config)
        return report.occupation

    def coarse(self, grids: dict[str, np.ndarray]) -> None:
        """Probe every point of the variables' grids in one broadcast pass.

        Variable i runs along axis i, so the cells come out in the order of
        ``itertools.product`` over the grids, and each is recorded as its
        own probe would be.
        """
        names = self.spec.variables
        axes = [grids[name].reshape([-1 if a == i else 1 for a in range(len(names))])
                for i, name in enumerate(names)]
        shape = tuple(grids[name].size for name in names)
        values, flags, errors = evaluate_grid(self.config(dict(zip(names, axes))), shape)
        # bit b of a cell's code: flag b of `required` is violated there; an
        # unconfigured flag (None) never holds
        required = self.spec.require
        code = np.zeros(math.prod(shape), np.intp)
        for bit, flag in enumerate(required):
            code |= (1 if flags[flag] is None else ~flags[flag]) << bit
        table = [";".join(flag for bit, flag in enumerate(required) if c >> bit & 1)
                 for c in range(1 << len(required))]
        notes = [table[c] for c in code.tolist()]
        for index, reason in errors.items():
            notes[index] = f"error:{reason}"
            code[index] = -1
        occupation = values["occupation"]
        for column, axis in zip(self.trace.values, axes):
            column.frombytes(np.broadcast_to(axis, shape).tobytes())
        self.trace.n_ss.frombytes(occupation.tobytes())
        self.trace.notes.extend(notes)
        feasible = np.flatnonzero(code == 0)
        if feasible.size:
            # the first cell of least occupation, as probing the cells in turn
            # finds it; the grid pass is the search's first, so nothing is best yet
            index = int(feasible[np.argmin(occupation[feasible])])
            cell = np.unravel_index(index, shape)
            self.best = (float(occupation[index]),
                         {name: float(grids[name][i]) for name, i in zip(names, cell)},
                         None, None)

    def result(self) -> OptimizeResult:
        """The best probe so far, evaluated alone if it came from a grid pass."""
        occupation, values, outcome, config = self.best
        if outcome is None:
            config = self.config(values)
            outcome = evaluate(config)
        return OptimizeResult(values, occupation, *outcome, config,
                              self.trace, len(self.trace))


def _axis_grid(lo: float, hi: float, points: int) -> np.ndarray:
    # log spacing once the box spans two decades; the design knobs are all positive
    if hi / lo >= 100.0:
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


def _golden_section(fun, lo: float, hi: float, tol: float, max_iter: int = 60):
    """Golden-section minimum of fun over [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(max_iter):
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
        objective.record({}, evaluate(spec.base_config), spec.base_config)
        violated = objective.trace.notes[-1]
        if violated:
            raise InfeasibleError("base configuration violates the required constraints",
                                  tuple(violated.split(";")))
        return objective.result()

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {name: _axis_grid(*spec.bounds[name], points) for name in spec.variables}
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}

    objective.coarse(grids)

    if objective.best is None:
        n_ss = np.array(objective.trace.n_ss)
        finite = np.flatnonzero(np.isfinite(n_ss))
        if finite.size:
            # every probe with a finite occupation violated a required flag
            nearest = int(finite[np.argmin(n_ss[finite])])
            violated = tuple(objective.trace.notes[nearest].split(";"))
        else:
            violated = spec.require
        raise InfeasibleError(
            "no feasible point in the search box "
            f"(required flags: {', '.join(spec.require) or 'none'})", violated)

    current = dict(objective.best[1])
    previous_best = objective.best[0]
    for _ in range(spec.max_sweeps):
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
                return objective.probe(probe, objective.config({_name: probe[_name]}, _fixed))

            x, fx = _golden_section(line, lo, hi, tol=1e-6 * (hi_b - lo_b))
            if math.isfinite(fx):
                current[name] = float(x)
        best_now = objective.best[0]
        if previous_best - best_now <= spec.rel_tolerance * abs(previous_best):
            break
        previous_best = best_now

    return objective.result()


def finesse_tradeoff(base_config: SystemConfig, finesse_values) -> list[dict]:
    """Sweep the cavity finesse at fixed geometry.

    Emits, per finesse, the coupling and backaction together with their
    finesse-normalized columns (coupling/F and backaction/F^2 stay flat,
    exhibiting the linear and quadratic scalings), plus the occupation.
    """
    rows = []
    for finesse in finesse_values:
        config = replace(base_config,
                         cavity=replace(base_config.cavity, finesse=float(finesse)))
        _, bundle, report = evaluate(config)
        rows.append({
            "finesse": float(finesse),
            "coupling": float(bundle.coupling),
            "sphere_backaction": float(bundle.sphere_backaction),
            "occupation": report.occupation,
            "coupling_per_finesse": bundle.coupling / finesse,
            "backaction_per_finesse_sq": bundle.sphere_backaction / finesse**2,
        })
    return rows
