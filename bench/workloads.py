"""Seeded inputs, timed jobs and output checks for the benchmark workloads.

Every workload is a closed loop with one client: the next job is generated
(untimed) only after the previous one has finished and been checked. Job
inputs come from one numpy Generator per (seed, workload, stream), drawn in
job order, so job ``i`` of a seed is the same on every run however many jobs
a run completes. The program only ever sees the config files and argv built
here.

Why these workloads:

* ``point`` - one design point at a time through the library
  (``load_config`` -> ``evaluate`` -> ``build_report`` -> render), the
  interactive use. Evaluation is a small share of such a job; config parsing,
  report building and rendering dominate, so report and parser changes show
  here, and so does a size-1 slowdown of a vectorized evaluator. It calls the
  library rather than ``cli.main`` because building the argparse parser would
  otherwise be the largest cost, one a CLI user pays once beside the imports.
* ``map`` - design maps through an in-process ``cli.main(["sweep", ...])``:
  the per-cell evaluation loop is the compute hot spot, followed by per-cell
  glue and CSV rendering.
* ``search`` - constrained ``optimize`` followed by ``simulate`` on the same
  config: the same evaluation layer as ``map``, but as a chain of sequential
  scalar calls (golden-section refinement cannot be batched), plus the only
  use of the ``dynamics`` layer.

Job sizes are stratified: each block of consecutive jobs holds a fixed mix of
size classes in a seeded order, so throughput and percentiles do not hinge on
how many large jobs one seed happens to draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

cli = importlib.import_module("levicool.cli")
configfile = importlib.import_module("levicool.configfile")
constants = importlib.import_module("levicool.constants")
errors = importlib.import_module("levicool.errors")
report = importlib.import_module("levicool.report")
# the package re-exports the function `steady_state` under the module's name
steady_state = importlib.import_module("levicool.steady_state")

DEFAULT_SEED = 0
MEASURED, WARM_UP = 0, 1

TYPED_ERRORS = (errors.ConfigError, errors.SingularConfigurationError,
                errors.InvalidGeometryError)

#: the sweep CSV header, part of the documented output contract
SWEEP_HEADER = ("a_nm,N_at,g_2pi_hz,Gamma_cool_2pi_hz,gamma_sc_2pi_hz,"
                "gamma_m_diff_2pi_hz,Gamma_th_2pi_hz,n_ss,sc_ratio,flags")

#: relative tolerance of the integrator against the closed form
#: (acceptance criterion 6)
DYNAMICS_REL_TOL = 1e-6


class CheckError(Exception):
    """A job's output failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# inputs


def draw_design(rng: np.random.Generator) -> dict[str, float]:
    """A random design point in config-file key units.

    Same box as `make_random_config` in the test suite: 10-500 nm radius,
    1e3-1e9 atoms, ~3-316 kHz axial frequency, 1e-9-1e-6 Pa, 4-600 K.
    """
    u = rng.uniform
    return {
        "sphere.radius_nm": 10.0 * 10 ** u(0.0, math.log10(50.0)),
        "sphere.density_kg_m3": u(1500.0, 4000.0),
        "sphere.epsilon": u(1.5, 4.0),
        "cavity.length_cm": u(1.0, 20.0),
        "cavity.finesse": u(50.0, 5000.0),
        "cavity.waist_um": u(2.0, 20.0),
        "lattice.wavelength_nm": 780.74,
        "lattice.power_uw": 10 ** u(0.0, 3.0),
        "lattice.waist_um": u(10.0, 100.0),
        "tweezer.wavelength_nm": 1550.0,
        "tweezer.power_mw": 10 ** u(1.0, 3.0),
        "tweezer.waist_um": u(1.0, 5.0),
        "atoms.count": 10 ** u(3.0, 9.0),
        "atoms.axial_frequency_2pi_hz": 10 ** u(3.5, 5.5),
        "env.pressure_torr": 10 ** u(-9.0, -6.0) / constants.TORR_IN_PASCAL,
        "env.temperature_k": u(4.0, 600.0),
    }


def config_text(values: dict[str, object], mode: str = "paper-anchored") -> str:
    lines = ["# generated design point", f"mode = {mode}", ""]
    for key, value in values.items():
        lines.append(f"{key} = {value if isinstance(value, str) else repr(float(value))}")
    return "\n".join(lines) + "\n"


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10 ** rng.uniform(math.log10(lo), math.log10(hi)))


def log_range(rng: np.random.Generator, lo: float, hi: float,
              min_ratio: float) -> tuple[float, float]:
    """A random [a, b] inside [lo, hi], log-uniform, with b / a >= min_ratio."""
    a = log_uniform(rng, lo, hi / min_ratio)
    return a, a * log_uniform(rng, min_ratio, hi / a)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    """One seeded job stream. Subclasses define next_job, run and check.

    `run` is the timed part. `check` raises CheckError on a wrong output and
    returns (design points evaluated, output digest).
    """

    name = ""
    block: tuple = ()
    #: warm-up jobs run during set-up, before anything is timed
    warm_up_jobs = 1

    def __init__(self, seed: int, workdir: Path, stream: int = MEASURED):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(type(self)), stream])
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.index = 0
        self._pending: list = []

    def next_class(self):
        if not self._pending:
            self._pending = [self.block[i] for i in self.rng.permutation(len(self.block))]
        return self._pending.pop()

    def path(self, name: str) -> Path:
        return self.workdir / f"{self.name}-{name}"

    def warm_up(self) -> None:
        """Run jobs unchecked; the measured pass checks and counts failures."""
        for _ in range(self.warm_up_jobs):
            self.run(self.next_job())


# ---------------------------------------------------------------------------
# point: single design points through the library


@dataclass(frozen=True)
class PointJob:
    index: int
    kind: str          # "paper-anchored", "first-principles" or an INVALID kind
    as_json: bool
    path: Path


#: deliberately invalid inputs and the typed error each must raise
INVALID = {
    "blue-detuned": errors.SingularConfigurationError,
    "zero-finesse": errors.ConfigError,
    "unknown-key": errors.ConfigError,
}


class Point(Workload):
    name = "point"
    # per 16 jobs: a quarter first-principles, one deliberately invalid
    block = ("paper-anchored",) * 11 + ("first-principles",) * 4 + ("invalid",)
    warm_up_jobs = 64

    def next_job(self) -> PointJob:
        kind = self.next_class()
        values = draw_design(self.rng)
        mode = "paper-anchored"
        if kind == "first-principles":
            mode = kind
            del values["atoms.axial_frequency_2pi_hz"]
        elif kind == "invalid":
            kind = sorted(INVALID)[int(self.rng.integers(len(INVALID)))]
            if kind == "blue-detuned":
                values["lattice.wavelength_nm"] = self.rng.uniform(770.0, 780.2)
            elif kind == "zero-finesse":
                values["cavity.finesse"] = 0.0
            else:
                values["cavity.finess"] = values.pop("cavity.finesse")
        job = PointJob(self.index, kind, bool(self.rng.integers(2)), self.path("job.cfg"))
        job.path.write_text(config_text(values, mode), encoding="utf-8")
        self.index += 1
        return job

    def run(self, job: PointJob):
        try:
            config = configfile.load_config(job.path)
            derived, bundle, steady = steady_state.evaluate(config)
        except TYPED_ERRORS as exc:
            return exc
        document = report.build_report(config, derived, bundle, steady)
        render = report.render_json if job.as_json else report.render_text
        return steady, render(document)

    def check(self, job: PointJob, out):
        expected_error = INVALID.get(job.kind)
        if expected_error is not None:
            _require(type(out) is expected_error,
                     f"{job.kind} config gave {out!r}, expected {expected_error.__name__}")
            if job.kind == "unknown-key":
                _require("unknown key 'cavity.finess'" in str(out), f"error names no key: {out}")
            return 0, digest(type(out).__name__.encode())
        _require(not isinstance(out, Exception), f"valid config raised {out!r}")
        steady, text = out
        terms = (steady.term_cooling_balance + steady.term_atom_cooling_limit
                 + steady.term_atom_diffusion_limit)
        _require(math.isfinite(steady.occupation) and steady.occupation == terms,
                 f"occupation {steady.occupation!r} != sum of terms {terms!r}")
        if job.as_json:
            sections = json.loads(text)
            _require(set(sections) == {"config", "derived", "rates", "steady_state",
                                       "provenance"}, f"report sections {sorted(sections)}")
            _require(sections["provenance"]["mode"] == job.kind, "report mode")
        else:
            _require(text.startswith("[config]\n") and "\n[steady_state]\n" in text
                     and f" = {job.kind}\n" in text, "text report layout")
        return 1, digest(text.encode())


# ---------------------------------------------------------------------------
# map: design maps through `levicool sweep`


@dataclass(frozen=True)
class MapJob:
    index: int
    argv: list
    radius_axis: tuple[float, float, int]   # nm
    atoms_axis: tuple[float, float, int]
    log_atoms: bool
    sample: int                             # flat index of the cell re-evaluated
    config_path: Path
    csv_path: Path


class Map(Workload):
    name = "map"
    # (radius steps, atom steps) per 10 jobs; p50 falls inside the 32x32 class
    # and p90 inside the 48x48 class, so neither sits on a class boundary
    block = ((16, 16), (16, 16), (24, 24), (32, 24), (32, 32), (32, 32), (32, 32),
             (40, 40), (48, 48), (48, 48))

    def next_job(self) -> MapJob:
        nr, na = self.next_class()
        values = draw_design(self.rng)
        r_lo, r_hi = log_range(self.rng, 10.0, 500.0, 2.0)
        a_lo, a_hi = log_range(self.rng, 1e3, 1e9, 10.0)
        log_atoms = bool(self.rng.integers(2))
        sample = int(self.rng.integers(nr * na))
        config_path, csv_path = self.path("base.cfg"), self.path("map.csv")
        config_path.write_text(config_text(values), encoding="utf-8")
        argv = ["sweep", "--config", str(config_path),
                "--radius", f"{r_lo!r}:{r_hi!r}:{nr}",
                "--atoms", f"{a_lo!r}:{a_hi!r}:{na}",
                "--out", str(csv_path)]
        if log_atoms:
            argv.insert(-2, "--log-atoms")
        job = MapJob(self.index, argv, (r_lo, r_hi, nr), (a_lo, a_hi, na), log_atoms,
                     sample, config_path, csv_path)
        self.index += 1
        return job

    def run(self, job: MapJob):
        return run_cli(job.argv)

    def check(self, job: MapJob, out):
        code, stdout, stderr = out
        _require(code == 0, f"sweep exited {code}: {stderr.strip()}")
        data = job.csv_path.read_bytes()
        rows = data.decode("utf-8").split("\n")
        nr, na = job.radius_axis[2], job.atoms_axis[2]
        _require(rows[0] == SWEEP_HEADER and rows[-1] == "" and len(rows) == nr * na + 2,
                 "sweep CSV header or row count")
        _require(stdout.startswith(f"wrote {nr * na} rows"), f"sweep stdout {stdout[:40]!r}")
        got = rows[1 + job.sample]
        want = expected_sweep_row(job)
        _require(got == want or (want.endswith(",error:") and got.startswith(want)),
                 f"cell {job.sample}: CSV row {got!r} != evaluate {want!r}")
        return nr * na, digest(data, stdout.replace(str(job.csv_path), "OUT").encode())


def expected_sweep_row(job: MapJob) -> str:
    """The CSV row of the sampled cell, rebuilt from `evaluate` of that cell."""
    i, j = divmod(job.sample, job.atoms_axis[2])
    r_lo, r_hi, nr = job.radius_axis
    radius = np.linspace(r_lo * 1e-9, r_hi * 1e-9, nr)[i]
    spacing = np.geomspace if job.log_atoms else np.linspace
    count = spacing(*job.atoms_axis)[j]
    base = configfile.load_config(job.config_path)
    config = replace(base, sphere=replace(base.sphere, radius=radius),
                     atoms=replace(base.atoms, count=count))
    head = [format(radius * 1e9, ".12g"), format(count, ".12g")]
    try:
        _, bundle, steady = steady_state.evaluate(config)
    except (*TYPED_ERRORS, ZeroDivisionError, ValueError):
        return ",".join(head) + ",,,,,,,,error:"
    hz = constants.to_display_hz
    fields = head + [format(hz(rate), ".12g") for rate in (
        bundle.coupling, bundle.cooling, bundle.sphere_recoil,
        bundle.sphere_backaction, bundle.thermalization)]
    fields += [format(steady.occupation, ".12g"),
               format(steady.strong_coupling_ratio, ".12g"),
               ";".join(steady.flags.true_names()) or "-"]
    return ",".join(fields)


# ---------------------------------------------------------------------------
# search: `levicool optimize`, then `levicool simulate` on the same config

#: the optimizer's variables and the design box each is searched in (key units)
SEARCH_BOX = {
    "sphere.radius_nm": (10.0, 500.0),
    "atoms.count": (1e3, 1e9),
    "lattice.power_uw": (1.0, 1e3),
    "tweezer.power_mw": (10.0, 1e3),
    "cavity.finesse": (50.0, 5000.0),
}
REQUIRABLE = ("ground_state", "strong_coupling")
#: integration steps per phase of each simulate (cooling on, then off)
STEPS_PER_PHASE = 5000


@dataclass(frozen=True)
class SearchJob:
    index: int
    variables: tuple[str, ...]
    require: tuple[str, ...]
    optimize_argv: list
    simulate_argv: list
    config_path: Path
    trace_path: Path
    sim_path: Path


class Search(Workload):
    name = "search"
    # (variables, has a required flag) per 10 jobs; the 5-variable searches set p90
    block = tuple((n, req) for n in range(1, 6) for req in (False, True))

    def next_job(self) -> SearchJob:
        nvars, has_require = self.next_class()
        while True:
            values = draw_design(self.rng)
            try:
                _, bundle, _ = steady_state.evaluate(configfile.build_config(values))
            except TYPED_ERRORS:
                continue
            break
        names = tuple(sorted(SEARCH_BOX))
        variables = tuple(names[i] for i in self.rng.permutation(len(names))[:nvars])
        bounds = [log_range(self.rng, *SEARCH_BOX[name], 2.0) for name in variables]
        require = (REQUIRABLE[int(self.rng.integers(len(REQUIRABLE)))],) if has_require else ()
        # the CLI's default step is 0.02 of the relaxation time
        t_end = 2 * STEPS_PER_PHASE * 0.02 / (bundle.gas_damping + bundle.cooling)

        config_path = self.path("base.cfg")
        trace_path, sim_path = self.path("trace.csv"), self.path("sim.csv")
        config_path.write_text(config_text(values), encoding="utf-8")
        optimize_argv = ["optimize", "--config", str(config_path),
                         "--vary", ",".join(variables),
                         "--bounds", ",".join(f"{lo!r}:{hi!r}" for lo, hi in bounds),
                         "--trace-out", str(trace_path), "--format", "json"]
        if require:
            optimize_argv += ["--require", ",".join(require)]
        simulate_argv = ["simulate", "--config", str(config_path),
                         "--t-end", repr(t_end), "--cooling-off-at", repr(t_end / 2),
                         "--out", str(sim_path)]
        job = SearchJob(self.index, variables, require, optimize_argv, simulate_argv,
                        config_path, trace_path, sim_path)
        self.index += 1
        return job

    def run(self, job: SearchJob):
        return run_cli(job.optimize_argv), run_cli(job.simulate_argv)

    def check(self, job: SearchJob, out):
        (code, stdout, stderr), simulated = out
        base = configfile.load_config(job.config_path)
        evaluations = 0
        if code == 3:
            _require(bool(job.require) and stderr.startswith("infeasible:"),
                     f"exit 3 without a required flag: {stderr.strip()}")
        else:
            _require(code == 0, f"optimize exited {code}: {stderr.strip()}")
            evaluations = check_optimum(job, base, json.loads(stdout)["optimize"])
        check_simulation(job, base, simulated)
        return evaluations, digest(str(code).encode(), stdout.encode())


def check_optimum(job: SearchJob, base, result: dict) -> int:
    """The optimum meets its required flags and no feasible probe beats it."""
    config = base
    for name in job.variables:
        config = configfile.set_value(config, name, result["best"][name])
    _, _, steady = steady_state.evaluate(config)
    _require(steady.occupation == result["n_ss"],
             f"optimum re-evaluates to {steady.occupation!r}, reported {result['n_ss']!r}")
    for flag in job.require:
        _require(getattr(steady.flags, flag) is True, f"optimum violates {flag}")
    rows = job.trace_path.read_text(encoding="utf-8").splitlines()
    header = rows[0].split(",")
    _require(header == [*job.variables, "n_ss", "feasible", "note"], "trace header")
    _require(len(rows) - 1 == result["evaluations"], "trace rows != evaluations")
    best = float(format(result["n_ss"], ".12g"))   # the trace's own rounding
    n_col, feasible_col = len(job.variables), len(job.variables) + 1
    for row in rows[1:]:
        fields = row.split(",")
        if fields[feasible_col] == "true":
            _require(best <= float(fields[n_col]), f"probe {row!r} beats the optimum")
    return result["evaluations"]


def check_simulation(job: SearchJob, base, out) -> None:
    """Trace vs the closed-form relaxation, at the phase switch and the end."""
    code, stdout, stderr = out
    _require(code == 0, f"simulate exited {code}: {stderr.strip()}")
    _, bundle, steady = steady_state.evaluate(base)
    rows = job.sim_path.read_text(encoding="utf-8").splitlines()
    switch = max(k for k, row in enumerate(rows) if row.endswith(",cooling-on"))
    _require(rows[-1].endswith(",cooling-off"), "simulate has no cooling-off phase")
    t_switch, n_switch = (float(x) for x in rows[switch].split(",")[:2])
    t_end, n_end = (float(x) for x in rows[-1].split(",")[:2])
    rate_on = bundle.gas_damping + bundle.cooling
    n0 = bundle.thermal_occupation
    want_switch = steady.occupation + (n0 - steady.occupation) * math.exp(-rate_on * t_switch)
    # reheating toward the heating-only fixed point, written without cancellation
    rate_off = float(bundle.gas_damping)
    x = rate_off * (t_end - t_switch)
    want_end = (want_switch * math.exp(-x)
                - steady_state.sphere_heating_sum(bundle) * math.expm1(-x) / rate_off)
    for got, want, where in ((n_switch, want_switch, "switch"), (n_end, want_end, "end")):
        _require(abs(got - want) <= DYNAMICS_REL_TOL * abs(want),
                 f"simulate at {where}: {got!r} vs closed form {want!r}")
    _require(len(rows) - 1 >= 2 * STEPS_PER_PHASE, f"only {len(rows) - 1} steps")


WORKLOADS = (Point, Map, Search)
BY_NAME = {w.name: w for w in WORKLOADS}
