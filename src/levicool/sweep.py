"""Design-space exploration: 2-D maps, constrained search, finesse trade-off.

Sweeps evaluate a (sphere radius x atom count) grid in one broadcast pass
through the full pipeline and emit one record per cell in row-major order
(radius outer, atom count inner); each record is bit-for-bit what
`evaluate` gives for that point alone. Cells whose configuration violates a
model precondition are recorded with a reason code, never dropped.

The optimizer minimizes the steady-state occupation over a small set of
design variables under regime-flag constraints: a coarse grid pass followed
by coordinate-wise golden-section refinement. The returned point is never
worse than the best coarse cell.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import to_display_hz
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .steady_state import FLAG_NAMES, RegimeFlags, SteadyStateReport, evaluate
from .system import SystemConfig

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
    """A swept grid as per-cell columns, in row-major cell order.

    `values` maps each SweepCell value field to a flat float array (NaN in
    error cells), `flags` maps each regime flag to a flat bool array (None
    where the flag is not configured), and `errors` maps the index of each
    error cell to its reason code. `cells` builds SweepCell records only for
    the cells indexed.
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

    def valid_cells(self) -> list[SweepCell]:
        return [c for c in self.cells if c.error is None]

    def min_occupation_cell(self) -> SweepCell | None:
        """The first valid cell of least occupation, as ``min`` over the cells finds it."""
        indices = np.flatnonzero(self._valid())
        if indices.size == 0:
            return None
        occupation = self.values["occupation"][indices]
        # min() keeps a leading NaN, and otherwise never moves onto one
        best = 0 if math.isnan(occupation[0]) else int(np.nanargmin(occupation))
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


def _with_point(base: SystemConfig, radius, count) -> SystemConfig:
    """`base` with its sphere radius and atom count replaced (floats or grid axes)."""
    return replace(base, sphere=replace(base.sphere, radius=radius),
                   atoms=replace(base.atoms, count=count))


def _cell_values(bundle, report) -> dict:
    return {**{name: getattr(bundle, name) for name in _RATE_FIELDS},
            **{name: getattr(report, name) for name in _STEADY_FIELDS}}


def run_sweep(spec: SweepSpec, parallel: bool = False,
              max_workers: int | None = None) -> SweepResult:
    """Evaluate the grid in one broadcast pass through the pipeline.

    Radius runs along axis 0 and atom count along axis 1, so cells come out
    radius-major. A guard on an input shared by all cells fails every cell
    with its reason code. A cell with a non-finite value anywhere in the
    pass, or with no atom cooling, is where the single-point pipeline may
    raise or take another branch, so it is evaluated alone through
    `evaluate` and keeps exactly that point's outcome. `parallel` and
    `max_workers` are accepted for compatibility and change nothing.
    """
    base = spec.base_config
    radii, counts = spec.radius_values(), spec.atoms_values()
    shape = (radii.size, counts.size)

    def column(value):
        return np.broadcast_to(value, shape).flatten()

    result = SweepResult(spec=spec, radii=radii, counts=counts, values={},
                         flags=dict.fromkeys(FLAG_NAMES), errors={})
    with np.errstate(all="ignore"):
        try:
            derived, bundle, report = evaluate(_with_point(base, radii[:, None], counts[None, :]))
        except EVALUATION_ERRORS as exc:
            for name in _RATE_FIELDS + _STEADY_FIELDS:
                result.values[name] = column(math.nan)
            result.errors.update(dict.fromkeys(range(radii.size * counts.size),
                                               error_reason(exc)))
            return result
        for name, value in _cell_values(bundle, report).items():
            result.values[name] = column(value)
        for name in FLAG_NAMES:
            if getattr(report.flags, name) is not None:
                result.flags[name] = column(getattr(report.flags, name))

        unsettled = np.broadcast_to(bundle.atom_cooling <= 0, shape).copy()
        for part in (derived, bundle, report):
            for value in vars(part).values():
                if type(value) is np.ndarray:
                    unsettled |= ~np.isfinite(value)
        for index in np.flatnonzero(unsettled).tolist():
            i, j = divmod(index, counts.size)
            try:
                _, cell_bundle, cell_report = evaluate(_with_point(base, radii[i], counts[j]))
            except EVALUATION_ERRORS as exc:
                result.errors[index] = error_reason(exc)
                values = dict.fromkeys(result.values, math.nan)
            else:
                values = _cell_values(cell_bundle, cell_report)
                for name, flags in result.flags.items():
                    if flags is not None:
                        flags[index] = getattr(cell_report.flags, name)
            for name, value in values.items():
                result.values[name][index] = value
    return result


# ---------------------------------------------------------------------------
# constrained minimization of the steady-state occupation

#: config keys the optimizer may vary (bounds are given in these key units)
OPTIMIZABLE_KEYS = (
    "sphere.radius_nm",
    "atoms.count",
    "lattice.power_uw",
    "tweezer.power_mw",
    "cavity.finesse",
)

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
        for name in self.variables:
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
    report: SteadyStateReport
    config: SystemConfig
    trace: tuple[dict, ...]
    evaluations: int


class _Objective:
    """Evaluates occupation under constraints, recording every probe."""

    def __init__(self, spec: OptimizeSpec):
        from .configfile import set_value

        self._set_value = set_value
        self.spec = spec
        self.trace: list[dict] = []
        self.best: tuple[float, dict, SteadyStateReport, SystemConfig] | None = None

    def __call__(self, values: dict[str, float]) -> float:
        config = self.spec.base_config
        for key, value in values.items():
            config = self._set_value(config, key, value)
        entry = dict(values)
        try:
            _, _, report = evaluate(config)
        except EVALUATION_ERRORS as exc:
            entry.update(n_ss=math.nan, feasible=False, note=f"error:{error_reason(exc)}")
            self.trace.append(entry)
            return math.inf
        violated = [flag for flag in self.spec.require
                    if getattr(report.flags, flag) is not True]
        feasible = not violated
        entry.update(n_ss=report.occupation, feasible=feasible,
                     note=";".join(violated) if violated else "")
        self.trace.append(entry)
        if not feasible:
            return math.inf
        if self.best is None or report.occupation < self.best[0]:
            self.best = (report.occupation, dict(values), report, config)
        return report.occupation


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
        value = objective({})
        if not math.isfinite(value):
            violated = [flag for flag in spec.require
                        if objective.trace and flag in objective.trace[-1]["note"]]
            raise InfeasibleError(
                "base configuration violates the required constraints",
                violated or spec.require)
        best_occ, best_values, report, config = objective.best
        return OptimizeResult(best_values, best_occ, report, config,
                              tuple(objective.trace), len(objective.trace))

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {name: _axis_grid(*spec.bounds[name], points) for name in spec.variables}
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}

    for combo in itertools.product(*(grids[name] for name in spec.variables)):
        objective({name: float(v) for name, v in zip(spec.variables, combo)})

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

            def line(x, _name=name):
                probe = dict(current)
                probe[_name] = float(x)
                return objective(probe)

            x, fx = _golden_section(line, lo, hi, tol=1e-6 * (hi_b - lo_b))
            if math.isfinite(fx):
                current[name] = float(x)
        best_now = objective.best[0]
        if previous_best - best_now <= spec.rel_tolerance * abs(previous_best):
            break
        previous_best = best_now

    best_occ, best_values, report, config = objective.best
    return OptimizeResult(best_values, best_occ, report, config,
                          tuple(objective.trace), len(objective.trace))


def finesse_tradeoff(base_config: SystemConfig, finesse_values) -> list[dict]:
    """Sweep the cavity finesse at fixed geometry.

    Emits, per finesse, the coupling and backaction together with their
    finesse-normalized columns (coupling/F and backaction/F^2 stay flat,
    exhibiting the linear and quadratic scalings), plus the occupation.
    """
    rows = []
    for finesse in finesse_values:
        if finesse <= 0:
            raise ConfigError("finesse values must be > 0")
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
