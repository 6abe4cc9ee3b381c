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

import itertools
import math
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


def _format_numbers(values: list[float]) -> list[str]:
    """Each value as ``format(value, ".12g")``, rendered in one formatting call."""
    return (",".join(["%.12g"] * len(values)) % tuple(values)).split(",")


def _format_grid(values: np.ndarray) -> list[str]:
    """CSV text of each cell of a 2-D grid, in row-major order.

    A quantity that depends on the radius only is formatted once per row.
    """
    bits = values.view(np.int64)
    if (bits == bits[:, :1]).all():
        return [text for text in _format_numbers(values[:, 0].tolist())
                for _ in range(values.shape[1])]
    return _format_numbers(values.ravel().tolist())


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
        shape = (self.radii.size, self.counts.size)
        a_nm = _format_grid(np.broadcast_to((self.radii * 1e9)[:, None], shape))
        n_at = _format_numbers(self.counts.tolist()) * self.radii.size
        columns = [_format_grid(to_display_hz(self.values[name]).reshape(shape))
                   for name in _RATE_FIELDS]
        columns += [_format_grid(self.values[name].reshape(shape)) for name in _STEADY_FIELDS]
        code = np.zeros(self.radii.size * self.counts.size, dtype=np.intp)
        for bit, name in enumerate(FLAG_NAMES):
            if self.flags[name] is not None:
                code |= self.flags[name].astype(np.intp) << bit
        flags_text = [_FLAGS_TEXT[c] for c in code.tolist()]
        rows = list(map(",".join, zip(a_nm, n_at, *columns, flags_text)))
        for index, reason in self.errors.items():
            rows[index] = f"{a_nm[index]},{n_at[index]},,,,,,,,error:{reason}"
        return "\n".join([CSV_HEADER, *rows, ""])

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


class _CellView(Sequence):
    """Read-only sequence of a sweep's cells, each built when it is indexed."""

    def __init__(self, result: SweepResult):
        self._result = result

    def __len__(self) -> int:
        return self._result.radii.size * self._result.counts.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._result.cell, range(len(self))[index]))
        return self._result.cell(range(len(self))[index])


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
        for flag in self.require:
            if flag not in FLAG_NAMES:
                raise ConfigError(f"unknown constraint flag {flag!r}; choose from {FLAG_NAMES}")


@dataclass(frozen=True)
class OptimizeResult:
    best_values: dict[str, float]
    occupation: float
    derived: DerivedSystem      # the optimum's evaluation
    bundle: RateBundle
    report: SteadyStateReport
    config: SystemConfig
    trace: tuple[dict, ...]
    evaluations: int


class _Objective:
    """Evaluates occupation under constraints, recording every probe.

    `best` is (occupation, values, outcome, config) of the first feasible
    probe, replaced only by a strictly smaller occupation, where outcome is
    what `evaluate` returned for it; outcome and config are None for a point
    probed in a coarse-grid pass until `result` fills them in.
    """

    def __init__(self, spec: OptimizeSpec):
        self.spec = spec
        self.trace: list[dict] = []
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
            return self._record_error(values, error_reason(exc))
        report = outcome[2]
        return self._record(values, report.occupation, self._violated(report), outcome, config)

    def _violated(self, report: SteadyStateReport) -> list[str]:
        # an unconfigured flag (None) never holds
        return [flag for flag in self.spec.require if not getattr(report.flags, flag)]

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
        points = [dict(zip(names, combo))
                  for combo in itertools.product(*(grids[name].tolist() for name in names))]
        values, flags, errors = evaluate_grid(self.config(dict(zip(names, axes))), shape)
        occupation = values["occupation"].tolist()
        # an unconfigured flag (None) never holds
        held = {flag: [False] * len(points) if flags[flag] is None else flags[flag].tolist()
                for flag in self.spec.require}
        for index, point in enumerate(points):
            if index in errors:
                self._record_error(point, errors[index])
            else:
                violated = [flag for flag in self.spec.require if not held[flag][index]]
                self._record(point, occupation[index], violated)

    def _record(self, values: dict, occupation: float, violated: list[str],
                outcome: tuple | None = None,
                config: SystemConfig | None = None) -> float:
        entry = dict(values)
        entry.update(n_ss=occupation, feasible=not violated, note=";".join(violated))
        self.trace.append(entry)
        if violated:
            return math.inf
        if self.best is None or occupation < self.best[0]:
            self.best = (occupation, dict(values), outcome, config)
        return occupation

    def _record_error(self, values: dict, reason: str) -> float:
        entry = dict(values)
        entry.update(n_ss=math.nan, feasible=False, note=f"error:{reason}")
        self.trace.append(entry)
        return math.inf

    def result(self) -> OptimizeResult:
        """The best probe so far, evaluated alone if it came from a grid pass."""
        occupation, values, outcome, config = self.best
        if outcome is None:
            config = self.config(values)
            outcome = evaluate(config)
        return OptimizeResult(values, occupation, *outcome, config,
                              tuple(self.trace), len(self.trace))


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
        value = objective.probe({}, spec.base_config)
        if not math.isfinite(value):
            violated = [flag for flag in spec.require
                        if objective.trace and flag in objective.trace[-1]["note"]]
            raise InfeasibleError(
                "base configuration violates the required constraints",
                violated or spec.require)
        return objective.result()

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {name: _axis_grid(*spec.bounds[name], points) for name in spec.variables}
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}

    objective.coarse(grids)

    if objective.best is None:
        finite = [e for e in objective.trace if math.isfinite(e["n_ss"])]
        if finite:
            nearest = min(finite, key=lambda e: e["n_ss"])
            violated = tuple(nearest["note"].split(";")) if nearest["note"] else ()
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
