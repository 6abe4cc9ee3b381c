"""Grid passes against point-by-point oracles through scalar `evaluate`.

The sweep oracle is the per-cell loop the grid pass replaced: it rebuilds
the config for every cell and renders the CSV row from that cell's own
`evaluate`. A sweep must reproduce it byte for byte, including the error
cells at the edges of the model's range. The optimizer oracle
is the probe-by-probe coarse loop its grid pass replaced, followed by the
same golden-section refinement; `optimize` must give the same trace, the
same optimum and the same CLI output bytes.
"""

import hashlib
import itertools
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from levicool import (Axis, AtomEnsemble, Cavity, ConfigError, Environment, FeedbackReadout,
                      InfeasibleError, InvalidGeometryError, LatticeBeam,
                      NoiseBudget, OptimizeSpec, SingularConfigurationError,
                      Sphere, SweepSpec, SystemConfig, TweezerBeam,
                      config_items, evaluate, from_display_hz, get_value, load_config,
                      optimize, run_sweep, set_value, to_display_hz)
from levicool.cli import main
import levicool.sweep as sweep_module
import levicool.system as system_module
from levicool.configfile import (KEY_MAP, KEYS, KIND_FLOAT, SECTION_CHECKS, set_si,
                                 validate_config)
from levicool.steady_state import EVALUATION_ERRORS, FLAG_NAMES
from levicool.sweep import (_COARSE_POINTS, CSV_HEADER, MAX_SWEEPS,
                            REL_TOLERANCE, OptimizeResult, ProbeTrace,
                            _golden_section, _Objective, error_reason, evaluate_grid)

from conftest import CONFIG_100NM, CONFIG_300NM, make_random_config
from test_csvtext import _near_boundaries, _scaled_ties, _ties
from test_finite import ATOM_RANGES, RADIUS_RANGES, designs

# the oracle evaluates edge cells on numpy scalars, which warn on overflow
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _oracle_cell(base, radius, count):
    """(row, rate bundle, steady report) of one cell, evaluated on its own;
    the bundle and report are None for an error cell."""
    config = replace(base, sphere=replace(base.sphere, radius=radius),
                     atoms=replace(base.atoms, count=count))
    head = f"{format(radius * 1e9, '.12g')},{format(count, '.12g')}"
    try:
        _, bundle, report = evaluate(config)
    except (ValueError, ArithmeticError) as exc:
        if isinstance(exc, InvalidGeometryError):
            reason = "invalid-geometry"
        elif isinstance(exc, (SingularConfigurationError, ArithmeticError)):
            reason = "singular-config"
        else:
            reason = "infeasible"
        return f"{head},,,,,,,,error:{reason}", None, None
    fields = [format(to_display_hz(rate), ".12g") for rate in (
        bundle.coupling, bundle.cooling, bundle.sphere_recoil,
        bundle.sphere_backaction, bundle.thermalization)]
    fields += [format(report.occupation, ".12g"),
               format(report.strong_coupling_ratio, ".12g"),
               ";".join(report.flags.true_names()) or "-"]
    return f"{head},{','.join(fields)}", bundle, report


def _oracle_values(lo, hi, steps, log):
    """An axis's values by numpy's own spacing rules."""
    return (np.geomspace if log else np.linspace)(lo, hi, steps)


def _oracle_grid(lo, hi, points):
    """A search variable's coarse grid: log-spaced once its box spans two decades."""
    return _oracle_values(lo, hi, points, hi / lo >= 100)


def assert_matches_oracle(spec):
    result = run_sweep(spec)
    cells = [_oracle_cell(spec.base_config, radius, count)
             for radius in _oracle_values(*spec.radius)
             for count in _oracle_values(*spec.atoms)]
    csv_text = result.to_csv()
    assert csv_text == "\n".join([CSV_HEADER, *(row for row, _, _ in cells)]) + "\n"
    # the columns carry the scalar pipeline's bits, not just 12 digits
    for index, (row, bundle, report) in zip(result.cells, cells, strict=True):
        if report is None:
            assert row.endswith(f",error:{result.errors[index]}")
            assert all(math.isnan(column[index]) for column in result.values.values())
            continue
        assert index not in result.errors
        assert {name: None if column is None else bool(column[index])
                for name, column in result.flags.items()} == vars(report.flags)
        for name, column in result.values.items():
            got, want = column[index], getattr(bundle if name in _BUNDLE_COLUMNS else report, name)
            assert got == want or (math.isnan(got) and math.isnan(want))
    return csv_text.splitlines()[1:]


def grid(base, radius=(50e-9, 300e-9, 6), atoms=(1e6, 1e8, 5), log_atoms=True):
    return SweepSpec(base, Axis(*radius), Axis(*atoms, log_atoms))


@pytest.mark.parametrize("seed", range(20))
def test_random_designs(seed):
    base = make_random_config(np.random.default_rng(seed))
    assert_matches_oracle(grid(base, radius=(10e-9, 500e-9, 7),
                               atoms=(1e3, 1e9, 6), log_atoms=seed % 2 == 0))


def test_dark_lattice_fails_every_cell(config_300nm):
    dark = replace(config_300nm, lattice=replace(config_300nm.lattice, power=0.0))
    rows = assert_matches_oracle(grid(dark))
    assert all(row.endswith(",error:singular-config") for row in rows)


def test_astronomical_radius_is_singular(config_300nm):
    """Radii whose rates overflow to inf or nan: every cell is an error row."""
    rows = assert_matches_oracle(grid(config_300nm, radius=(1e281, 1e291, 5)))
    assert all(row.endswith(",error:singular-config") for row in rows)


def test_vanishing_radius_is_singular(config_300nm):
    rows = assert_matches_oracle(grid(config_300nm, radius=(1e-309, 1e-299, 5)))
    assert all(row.endswith(",error:singular-config") for row in rows)


def test_overflowing_atom_count_is_singular(config_300nm):
    rows = assert_matches_oracle(grid(config_300nm, atoms=(1e300, 1e308, 4)))
    assert all(row.endswith(",error:singular-config") for row in rows)


@pytest.mark.parametrize("variant", [
    "zero-pressure", "quality-override", "cooling-override", "first-principles",
    "feedback-and-detection", "noise-in-occupation",
])
def test_model_branches(config_300nm, variant):
    c = config_300nm
    base = {
        "zero-pressure": replace(c, environment=replace(c.environment, pressure=0.0)),
        "quality-override": replace(c, sphere=replace(c.sphere, quality_factor=1e9)),
        "cooling-override": replace(
            c, atoms=replace(c.atoms, cooling_rate=from_display_hz(5e3))),
        "first-principles": replace(c, mode="first-principles"),
        "feedback-and-detection": replace(
            c, cavity=replace(c.cavity, detection_power=1e-5),
            feedback=FeedbackReadout(intracavity_photons=1e6)),
        "noise-in-occupation": replace(c, noise=NoiseBudget(
            intensity_psd=1e-8, pointing_psd=1e-30, mean_square_position=1e-18,
            include_in_occupation=True)),
    }[variant]
    assert_matches_oracle(grid(base))


@st.composite
def _axes(draw, ranges):
    """(start, stop, steps) of an axis: 1 to 8 steps over one of `ranges`,
    the design box (the first) in at least half the draws."""
    start, stop = draw(st.just(ranges[0]) | st.sampled_from(ranges))
    steps = draw(st.integers(1, 8))
    return (start, start if steps == 1 else stop, steps)


@settings(max_examples=100)
@given(base=designs(), radius=_axes(RADIUS_RANGES), atoms=_axes(ATOM_RANGES),
       log_atoms=st.booleans())
def test_sweep_csv_equals_per_cell_format(base, radius, atoms, log_atoms):
    """Radius-only columns, all-error grids and NaN columns come out as the oracle's."""
    assert_matches_oracle(grid(base, radius=radius, atoms=atoms, log_atoms=log_atoms))


def test_default_cli_sweep_is_pinned(capsys, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["sweep", "--config", str(CONFIG_300NM), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "0cde23a195517ae6ceda99ffb6df918a3b6b00d098ea0947ebca524aa02e9902"
    assert capsys.readouterr().out == (
        f"wrote 546 rows to {out}\n"
        "min n_ss = 0.05854 at a = 50.00 nm, N_at = 1.000e+08\n"
        "strong-coupling fraction = 0.1941\n")


# ---------------------------------------------------------------------------
# optimize: the grid coarse pass against the probe-by-probe loop


def _oracle_optimize(spec):
    """(trace, best) of the optimizer as it probed one point at a time.

    Every probe rebuilds its config from the base with one `set_value` per
    variable; `best` is (occupation, values, report, config), or None.
    """
    trace, best = [], None

    def objective(values):
        nonlocal best
        config = spec.base_config
        for key, value in values.items():
            config = set_value(config, key, value)
        entry = dict(values)
        try:
            _, _, report = evaluate(config)
        except EVALUATION_ERRORS as exc:
            entry.update(n_ss=math.nan, feasible=False, note=f"error:{error_reason(exc)}")
            trace.append(entry)
            return math.inf
        violated = [flag for flag in spec.require
                    if getattr(report.flags, flag) is not True]
        entry.update(n_ss=report.occupation, feasible=not violated, note=";".join(violated))
        trace.append(entry)
        if violated:
            return math.inf
        if best is None or report.occupation < best[0]:
            best = (report.occupation, dict(values), report, config)
        return report.occupation

    points = _COARSE_POINTS[len(spec.variables)]
    grids = {name: _oracle_grid(*spec.bounds[name], points) for name in spec.variables}
    spacing = {name: float(np.max(np.diff(grids[name]))) for name in spec.variables}
    for combo in itertools.product(*(grids[name] for name in spec.variables)):
        objective({name: float(v) for name, v in zip(spec.variables, combo)})
    if best is None:
        return trace, None

    current = dict(best[1])
    previous_best = best[0]
    for _ in range(MAX_SWEEPS):
        for name in spec.variables:
            lo_b, hi_b = spec.bounds[name]
            lo = max(lo_b, current[name] - spacing[name])
            hi = min(hi_b, current[name] + spacing[name])
            if hi <= lo:
                continue

            def line(x, _name=name):
                probe = dict(current)
                probe[_name] = float(x)
                return objective(probe)

            x, fx = _golden_section(line, lo, hi, tol=1e-6 * (hi_b - lo_b))
            if math.isfinite(fx):
                current[name] = float(x)
        if previous_best - best[0] <= REL_TOLERANCE * abs(previous_best):
            break
        previous_best = best[0]
    return trace, best


def _trace_csv(variables, trace):
    """The CLI's --trace-out rendering of a trace."""
    lines = [",".join([*variables, "n_ss", "feasible", "note"])]
    for entry in trace:
        row = [format(entry[name], ".12g") for name in variables]
        row.append("" if math.isnan(entry["n_ss"]) else format(entry["n_ss"], ".12g"))
        row += ["true" if entry["feasible"] else "false", entry["note"]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


#: every kind of trace note: feasible, one or two violated flags, each error reason
_NOTES = ("", "ground_state", "feedback_ground_state_feasible",
          "ground_state;strong_coupling", "error:singular-config",
          "error:invalid-geometry", "error:infeasible")


@st.composite
def probe_traces(draw):
    """(trace, entries): a ProbeTrace and the same probes as plain dicts.

    Rows repeat a small pool of drawn probes, so a trace can be long.
    """
    variables = draw(st.permutations(tuple(_BOX)))[:draw(st.integers(0, 5))]
    numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        _near_boundaries, _ties, _scaled_ties)
    n_ss = st.one_of(numbers, st.just(math.nan), st.just(math.inf))
    pool = draw(st.lists(st.tuples(st.lists(numbers, min_size=len(variables),
                                            max_size=len(variables)),
                                   n_ss, st.sampled_from(_NOTES)),
                         min_size=1, max_size=12))
    rows = draw(st.sampled_from((1, 2, 37, 2000)))
    rng = draw(st.randoms(use_true_random=False))
    trace, entries = ProbeTrace(tuple(variables)), []
    for _ in range(rows):
        values, occupation, note = rng.choice(pool)
        point = dict(zip(variables, values))
        trace.append(point, occupation, note)
        entries.append({**point, "n_ss": occupation, "feasible": note == "", "note": note})
    return trace, entries


@settings(max_examples=80)
@given(probe_traces())
def test_trace_csv_equals_per_row_format(drawn):
    trace, entries = drawn
    result = OptimizeResult({}, None, None, None, None, trace)
    assert result.trace_csv() == _trace_csv(trace.variables, entries)
    # records read by iterating and by indexing are the drawn probes
    assert repr(list(trace)) == repr(entries) == repr([trace[k] for k in range(len(trace))])


def _same(a, b):
    """Equal, with NaN equal to NaN (reports compare through their repr)."""
    return repr(a) == repr(b) and type(a) is type(b)


def assert_same_trace(got, want):
    assert len(got) == len(want)
    for got_entry, want_entry in zip(got, want):
        assert list(got_entry) == list(want_entry)
        assert all(_same(got_entry[key], want_entry[key]) for key in want_entry)


#: the search box of each optimizable key, in key units
_BOX = {
    "sphere.radius_nm": (10.0, 500.0),
    "atoms.count": (1e3, 1e9),
    "lattice.power_uw": (1.0, 1e3),
    "tweezer.power_mw": (10.0, 1e3),
    "cavity.finesse": (50.0, 5000.0),
}


def _config_text(value):
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(float(value))


def _random_search(seed, tmp_path):
    """A random base design written to a file, and a random search over it."""
    rng = np.random.default_rng(1000 + seed)
    base = make_random_config(rng)
    if seed % 3 == 0:
        base = replace(base, mode="first-principles")
    if seed % 4 == 1:
        base = replace(base, cavity=replace(base.cavity, detection_power=1e-5),
                       feedback=FeedbackReadout(intracavity_photons=10 ** rng.uniform(3, 8)))
    if seed % 5 == 2:
        base = replace(base, noise=NoiseBudget(
            intensity_psd=1e-8, pointing_psd=1e-30, mean_square_position=1e-18,
            include_in_occupation=True))
    path = tmp_path / "base.cfg"
    path.write_text("".join(f"{key} = {_config_text(value)}\n"
                            for key, value in config_items(base) if value is not None),
                    encoding="utf-8")
    variables = tuple(tuple(_BOX)[i] for i in rng.permutation(5)[:1 + seed % 5])
    bounds = {}
    for name in variables:
        lo, hi = _BOX[name]
        a = 10 ** rng.uniform(math.log10(lo), math.log10(hi / 2))
        bounds[name] = (a, a * 10 ** rng.uniform(math.log10(2), math.log10(hi / a)))
    if seed % 7 == 3 and "sphere.radius_nm" in variables:
        bounds["sphere.radius_nm"] = (1e290, 1e300)
    require = (FLAG_NAMES[seed % 6],) if seed % 12 < 6 else ()
    return path, variables, bounds, require


def assert_optimize_matches_oracle(path, variables, bounds, require, tmp_path):
    spec = OptimizeSpec(base_config=load_config(path), variables=variables,
                        bounds=bounds, require=require)
    trace, best = _oracle_optimize(spec)
    argv = ["optimize", "--config", str(path), "--format", "json",
            "--trace-out", str(tmp_path / "trace.csv")]
    if variables:
        argv += ["--vary", ",".join(variables),
                 "--bounds", ",".join(f"{bounds[name][0]!r}:{bounds[name][1]!r}"
                                      for name in variables)]
    if require:
        argv += ["--require", ",".join(require)]
    if best is None:
        with pytest.raises(InfeasibleError):
            optimize(spec)
        # the search stops after its coarse pass: compare that pass's probes
        objective = _Objective(spec)
        points = _COARSE_POINTS[len(variables)]
        objective.coarse({name: _oracle_grid(*bounds[name], points) for name in variables})
        assert_same_trace(objective.trace, trace)
        assert main(argv) == 3
        return None
    result = optimize(spec)
    assert_same_trace(result.trace, trace)
    assert list(result.best_values.items()) == list(best[1].items())
    assert _same(result.report.occupation, best[0])
    assert repr(result.report) == repr(best[2])
    assert result.config == best[3]
    assert main(argv) == 0
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == _trace_csv(variables, trace)
    return result


@pytest.mark.parametrize("seed", range(36))
def test_optimize_random_searches(seed, tmp_path):
    assert_optimize_matches_oracle(*_random_search(seed, tmp_path), tmp_path)


@pytest.mark.parametrize("flag", FLAG_NAMES)
def test_optimize_requiring_each_flag(flag, tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(CONFIG_300NM.read_text(encoding="utf-8")
                    + "feedback.intracavity_photons = 1e6\n",
                    encoding="utf-8")
    assert_optimize_matches_oracle(
        path, ("sphere.radius_nm", "cavity.finesse"),
        {"sphere.radius_nm": (50.0, 300.0), "cavity.finesse": (100.0, 2000.0)},
        (flag,), tmp_path)


def test_optimize_unconfigured_feedback_flag_is_violated(tmp_path, capsys):
    assert_optimize_matches_oracle(
        CONFIG_300NM, ("atoms.count",), {"atoms.count": (1e6, 1e8)},
        ("feedback_ground_state_feasible",), tmp_path)
    assert "feedback_ground_state_feasible" in capsys.readouterr().err


def test_optimize_first_principles_lattice_power(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(CONFIG_300NM.read_text(encoding="utf-8").replace(
        "mode = paper-anchored", "mode = first-principles"), encoding="utf-8")
    assert_optimize_matches_oracle(
        path, ("lattice.power_uw", "sphere.radius_nm", "tweezer.power_mw"),
        {"lattice.power_uw": (1.0, 1e3), "sphere.radius_nm": (50.0, 300.0),
         "tweezer.power_mw": (10.0, 1e3)}, ("ground_state",), tmp_path)


def test_optimize_astronomical_radii(tmp_path):
    """Radii whose volume overflows: every probe is re-run and fails alone."""
    assert assert_optimize_matches_oracle(
        CONFIG_300NM, ("sphere.radius_nm", "lattice.power_uw"),
        {"sphere.radius_nm": (1e290, 1e300), "lattice.power_uw": (10.0, 100.0)},
        (), tmp_path) is None


def test_optimize_underflowing_gas_speed(tmp_path):
    """Every coarse probe fails on the gas mean speed, as each does alone."""
    path = tmp_path / "base.cfg"
    path.write_text(CONFIG_300NM.read_text(encoding="utf-8").replace(
        "env.temperature_k = 300", "env.temperature_k = 1e-310"), encoding="utf-8")
    assert assert_optimize_matches_oracle(
        path, ("sphere.radius_nm",), {"sphere.radius_nm": (1e-301, 1e-290)},
        (), tmp_path) is None


def test_optimize_non_finite_probes_are_infeasible(tmp_path):
    """Lattice powers whose occupation overflows: every probe is an error."""
    variables = ("lattice.power_uw", "atoms.count")
    bounds = {"lattice.power_uw": (1e300, 1e308), "atoms.count": (1e6, 1e8)}
    trace, best = _oracle_optimize(OptimizeSpec(
        base_config=load_config(CONFIG_300NM), variables=variables, bounds=bounds))
    assert best is None
    assert {entry["note"] for entry in trace} == {"error:singular-config"}
    assert assert_optimize_matches_oracle(
        CONFIG_300NM, variables, bounds, (), tmp_path) is None


def test_optimize_every_variable(tmp_path):
    assert_optimize_matches_oracle(
        CONFIG_300NM, tuple(_BOX), _BOX, ("ground_state",), tmp_path)


# ---------------------------------------------------------------------------
# property: a grid cell has the bits of the same point evaluated alone


@st.composite
def box_designs(draw):
    """A design from the documented box (see `make_random_config`)."""
    def uniform(lo, hi):
        return draw(st.floats(lo, hi))

    return SystemConfig(
        sphere=Sphere(radius=10e-9 * 10 ** uniform(0.0, math.log10(50.0)),
                      density=uniform(1500, 4000), epsilon=uniform(1.5, 4.0)),
        cavity=Cavity(length=uniform(0.01, 0.2), finesse=uniform(50, 5000),
                      waist=uniform(2e-6, 20e-6)),
        lattice=LatticeBeam(wavelength=780.74e-9, power=10 ** uniform(-6, -3),
                            waist=uniform(10e-6, 100e-6)),
        tweezer=TweezerBeam(wavelength=1550e-9, power=10 ** uniform(-2, 0),
                            waist=uniform(1e-6, 5e-6)),
        atoms=AtomEnsemble(count=10 ** uniform(3.0, 9.0),
                           axial_frequency=from_display_hz(10 ** uniform(3.5, 5.5))),
        environment=Environment(pressure=10 ** uniform(-9, -6),
                                temperature=uniform(4.0, 600.0)),
        mode=draw(st.sampled_from(["paper-anchored", "first-principles"])),
    )


#: evaluate_grid's value columns, by where the scalar pipeline holds them
_BUNDLE_COLUMNS = ("coupling", "cooling", "sphere_recoil", "sphere_backaction",
                   "thermalization")
_REPORT_COLUMNS = ("occupation", "strong_coupling_ratio")


#: optimizable-key values at the model's edges: no atom cooling, overflow to
#: inf or nan, and failing per-cell guards; an axis holding one of them mixes
#: cells the broadcast pass settles with cells evaluated alone
_EDGES = (("atoms.count", 0.0), ("atoms.count", 1e308), ("lattice.power_uw", 0.0),
          ("lattice.power_uw", 1e300), ("tweezer.power_mw", 1e300),
          ("sphere.radius_nm", 1e-300), ("sphere.radius_nm", 1e290),
          ("cavity.finesse", 1e300))


def _small_axis(draw, lo, hi):
    a = draw(st.floats(lo, hi))
    return np.array(sorted({a, draw(st.floats(lo, hi))}))


@settings(max_examples=60)
@given(base=box_designs(), data=st.data())
def test_grid_cells_have_scalar_bits(base, data):
    axes = [_small_axis(data.draw, *_BOX[name]) for name in _BOX]
    edge = data.draw(st.one_of(st.none(), st.sampled_from(_EDGES)))
    if edge is not None:
        i = list(_BOX).index(edge[0])
        axes[i] = np.array(sorted({*axes[i].tolist(), edge[1]}))
    shape = tuple(axis.size for axis in axes)
    grid_config = base
    for i, (name, axis) in enumerate(zip(_BOX, axes)):
        grid_config = set_value(grid_config, name,
                                axis.reshape([-1 if a == i else 1 for a in range(5)]))
    points = list(itertools.product(*(axis.tolist() for axis in axes)))

    def point_config(index):
        config = base
        for name, value in zip(_BOX, points[index]):
            config = set_value(config, name, value)
        return config

    values, flags, errors = evaluate_grid(
        base, {name: KEY_MAP[name].to_si(axis) for name, axis in zip(_BOX, axes)})
    assert set(values) == {*_BUNDLE_COLUMNS, *_REPORT_COLUMNS}
    assert set(flags) == set(FLAG_NAMES)
    # the broadcast pass itself, and the cells it settles: finite everywhere
    # in the pass, and breaking no rule of `validate_config`
    try:
        with np.errstate(all="ignore"):
            derived, bundle, report = evaluate(grid_config)
    except EVALUATION_ERRORS:
        settled = np.zeros(shape, dtype=bool)
    else:
        settled = np.ones(shape, dtype=bool)
        for *_, cells in validate_config(grid_config):
            settled &= ~cells
        for part in (derived, bundle, report):
            for value in vars(part).values():
                if type(value) is np.ndarray:
                    settled &= np.isfinite(value)
    for index in range(len(points)):
        cell = np.unravel_index(index, shape)
        try:
            _, cell_bundle, cell_report = evaluate(point_config(index))
        except EVALUATION_ERRORS as exc:
            assert not settled[cell]
            assert errors.get(index) == error_reason(exc)
            assert all(math.isnan(column[index]) for column in values.values())
            continue
        assert index not in errors
        # every column, re-run cells included, has the scalar bits
        wants = {**{name: getattr(cell_bundle, name) for name in _BUNDLE_COLUMNS},
                 **{name: getattr(cell_report, name) for name in _REPORT_COLUMNS}}
        for name, want in wants.items():
            got = values[name][index]
            assert got == want or (math.isnan(got) and math.isnan(want)), name
        for name in FLAG_NAMES:
            want = getattr(cell_report.flags, name)
            if want is None:
                assert flags[name] is None, name
            else:
                assert flags[name][index] == want, name
        if not settled[cell]:
            continue
        # a settled cell of the broadcast pass has every field's scalar bits
        for part, grid_part in ((cell_bundle, bundle), (cell_report, report),
                                (cell_report.flags, report.flags)):
            for f in fields(part):
                want, got = getattr(part, f.name), getattr(grid_part, f.name)
                if isinstance(want, (float, bool)):
                    got = np.broadcast_to(got, shape)[cell]
                    assert got == want or (math.isnan(got) and math.isnan(want)), f.name
                elif f.name != "flags":
                    assert got is want, f.name


# ---------------------------------------------------------------------------
# every float key takes an axis: each cell is its point evaluated alone


def _bases():
    """Both reference designs, and designs that reach the model's branches:
    first-principles mode, a feedback readout with a detection beam, laser
    noise in the occupation, and no gas."""
    c300, c100 = load_config(CONFIG_300NM), load_config(CONFIG_100NM)
    return (c300, c100, replace(c300, mode="first-principles"),
            replace(c300, cavity=replace(c300.cavity, detection_power=1e-5),
                    feedback=FeedbackReadout(intracavity_photons=1e6)),
            replace(c100, noise=NoiseBudget(
                intensity_psd=1e-8, pointing_psd=1e-30, mean_square_position=1e-18,
                include_in_occupation=True)),
            replace(c300, environment=replace(c300.environment, pressure=0.0)))


_BASES = _bases()
_FLOAT_KEYS = tuple(spec.name for spec in KEYS if spec.kind == KIND_FLOAT)


def assert_cells_are_points(base, axes):
    """`evaluate_grid(base, axes)`, with `axes` in key units, against each of
    its points evaluated alone: a cell has its point's bits and flags, or its
    point's reason code, and a `ConfigError` of the whole grid is one that
    every point alone fails with too.

    Returns the cells whose point alone overflows a Python ``**`` while the
    grid's inf cancels to a finite cell (see `test_overflow_only_cell`).
    """
    keys = tuple(axes)
    si = {key: KEY_MAP[key].to_si(np.asarray(axis, float)) for key, axis in axes.items()}
    points = list(itertools.product(*(axis.tolist() for axis in si.values())))

    def alone(point):
        config = base
        for key, value in zip(keys, point):
            config = set_si(config, key, value)
        return evaluate(config)

    try:
        values, flags, errors = evaluate_grid(base, si)
    except ConfigError:
        for point in points:
            with pytest.raises(EVALUATION_ERRORS):
                alone(point)
        return []
    overflow_only = []
    for index, point in enumerate(points):
        try:
            _, bundle, report = alone(point)
        except EVALUATION_ERRORS as exc:
            if isinstance(exc, OverflowError) and index not in errors:
                overflow_only.append(index)
                continue
            assert errors.get(index) == error_reason(exc), point
            assert all(math.isnan(column[index]) for column in values.values())
            continue
        assert index not in errors, point
        for name, column in values.items():
            want = getattr(bundle if name in _BUNDLE_COLUMNS else report, name)
            assert float(column[index]).hex() == float(want).hex(), (point, name)
        for name, column in flags.items():
            want = getattr(report.flags, name)
            assert column is None if want is None else column[index] == want, (point, name)
    return overflow_only


#: multiples of a key's value on every axis: negative, zero, below and above
#: one, and the float range's edges
_FACTORS = (-1.0, 0.0, 0.5, 1.0, 2.0, 1e-300, 1e300)


def _axis(base, key, factors):
    """`factors` times the key's value in `base` (1 where it is unset or 0), kept finite."""
    value = get_value(base, key) or 1.0
    return [value * f for f in factors if math.isfinite(value * f * KEY_MAP[key].scale)]


@settings(max_examples=150)
@given(base=st.sampled_from(_BASES), key=st.sampled_from(_FLOAT_KEYS),
       other=st.one_of(st.none(), st.sampled_from(_FLOAT_KEYS)), data=st.data())
def test_every_float_key_axis_cells_are_points(base, key, other, data):
    """Each float key on an axis that crosses its constraints, alone or
    against a second key's axis: every cell is its point, bits or reason."""
    rng = data.draw(st.randoms(use_true_random=False))
    drawn = [rng.uniform(-3.0, 3.0) for _ in range(6)]
    axes = {key: _axis(base, key, (*_FACTORS, *drawn))}
    if other is not None and other != key:
        axes[other] = _axis(base, other, (1.0, data.draw(st.sampled_from(_FACTORS)
                                                          | st.floats(0.5, 2.0))))
    assert_cells_are_points(base, axes)


@pytest.mark.parametrize("key", _FLOAT_KEYS)
def test_float_key_axis_rounds_as_its_points(key):
    """256 random values near each key's value: an array operation that rounds
    unlike the float one, such as numpy's own ``**``, shows in some cell."""
    base = _BASES[{"lattice.depth_recoils": 2, "noise.pointing_psd_m2_per_hz": 4}.get(key, 3)]
    factors = np.random.default_rng(7).uniform(0.5, 2.0, 256)
    assert assert_cells_are_points(base, {key: _axis(base, key, factors)}) == []


@pytest.mark.parametrize("axes", [
    # the red-detuning rule ties the lattice wavelength to the reference line
    {"lattice.wavelength_nm": [0.0, 780.0, 780.24, 780.2400000000001, 780.74]},
    {"lattice.reference_wavelength_nm": [-1.0, 780.0, 780.74, 781.0]},
    {"lattice.wavelength_nm": [780.0, 780.5, 781.0],
     "lattice.reference_wavelength_nm": [780.24, 780.5, 780.74]},
    # (0, 1] and > 1 checks, and the gas mean speed of each temperature
    {"cavity.coupling_efficiency": [-0.5, 0.0, 0.5, 1.0, 1.5]},
    {"sphere.epsilon": [0.5, 1.0, 1.5, 2.0]},
    {"env.temperature_k": [-1.0, 0.0, 1e-310, 300.0], "env.gas_mass_amu": [-1.0, 28.97]},
])
def test_cross_key_and_constraint_cells_are_points(config_300nm, axes):
    assert assert_cells_are_points(config_300nm, axes) == []


def test_zero_pressure_cell_of_a_feedback_design_is_singular():
    """Without gas the feedback cooperativity divides by zero: the cell fails
    as its point does, while the gas-free point without feedback evaluates."""
    feedback = _BASES[3]
    axis = {"env.pressure_torr": [0.0, 1e-10]}
    assert assert_cells_are_points(feedback, axis) == []
    assert evaluate_grid(feedback, {"env.pressure_torr": np.array([0.0, 1e-10])})[2] == {
        0: "singular-config"}
    assert assert_cells_are_points(_BASES[0], axis) == []


@pytest.mark.parametrize("axes", [
    {"atoms.count": [0.0, 1e6, 5e7]},
    {"sphere.radius_nm": [50.0, 150.0, 300.0]},
    {"sphere.radius_nm": [50.0, 150.0], "atoms.count": [0.0, 5e7]},
], ids=["atom-count", "radius", "both"])
def test_zero_atom_cooling_cells_are_points(config_300nm, axes):
    """A zero atom cooling override has no steady state with atoms: each
    cell with atoms fails as its point does, and the cell without is decoupled."""
    uncooled = set_value(config_300nm, "atoms.cooling_rate_2pi_hz", 0.0)
    assert assert_cells_are_points(uncooled, axes) == []
    si = {key: KEY_MAP[key].to_si(np.array(axis)) for key, axis in axes.items()}
    errors = evaluate_grid(uncooled, si)[2]
    counts = [dict(zip(axes, point)).get("atoms.count", get_value(uncooled, "atoms.count"))
              for point in itertools.product(*axes.values())]
    assert errors == {index: "singular-config" for index, count in enumerate(counts)
                      if count > 0}


def test_inf_quality_factor_on_a_pressure_axis():
    """An inf Q override (library code only) is finite by design only without
    gas: on a gas-free axis the cells are their points, and on an axis with
    gas it is a non-finite quantity every cell shares, so every cell fails."""
    config = set_value(_BASES[0], "sphere.quality_factor", math.inf)
    assert assert_cells_are_points(config, {"env.pressure_torr": [0.0, 0.0]}) == []
    with pytest.raises(SingularConfigurationError, match="quality_factor"):
        evaluate(set_si(config, "env.pressure_torr", 1e-10))
    assert evaluate_grid(config, {"env.pressure_torr": np.array([0.0, 1e-10])})[2] == {
        0: "singular-config", 1: "singular-config"}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the point alone overflows a Python ** and fails; on the grid numpy gives "
    "inf, which cancels (x / inf = 0), so the cell comes out finite"))
@pytest.mark.parametrize("key", ["lattice.waist_um", "tweezer.waist_um",
                                 "tweezer.wavelength_nm"])
def test_overflow_only_cell(config_300nm, key):
    value = get_value(config_300nm, key) * 1e300
    with pytest.raises(OverflowError):
        evaluate(set_value(config_300nm, key, value))
    assert assert_cells_are_points(config_300nm, {key: [value]}) == []


# ---------------------------------------------------------------------------
# an optimizer line probe, which validates only its key's section and the
# rules tying keys, against a full evaluation of the same point

#: the values a probe sets its key to, in key units; an in-box value joins them
PROBE_VALUES = (0.0, -1.0, 1e-300, 1e300, math.nan, math.inf)


def _outcome(evaluation):
    """The occupation's bits and the flags of an evaluation, or the class and
    message of the error it raised."""
    if isinstance(evaluation, Exception):
        return type(evaluation), str(evaluation)
    report = evaluation[2]
    return np.float64(report.occupation).tobytes(), report.flags


def _recorder(probes):
    """`evaluate`, appending (config, its evaluation or the error it raised) to `probes`."""
    def recording(point, *violations):
        try:
            evaluation = evaluate(point, *violations)
        except EVALUATION_ERRORS as exc:
            probes.append((point, exc))
            raise
        probes.append((point, evaluation))
        return evaluation
    return recording


def assert_line_probes_are_points(config, inbox):
    """Run a line of each float key of `config`, a design that breaks no
    check, over `PROBE_VALUES` and the key's value in `inbox` (1.0 where
    `inbox` leaves it unset): each probe is evaluated once, on the config
    `set_value` gives, with the outcome a full evaluation of that config gives."""
    probes = []

    def each_value(fun, lo, hi, tol):
        return min((fun(x), x) for x in values)[::-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep_module, "evaluate", _recorder(probes))
        patch.setattr(sweep_module, "_golden_section", each_value)
        for key in _FLOAT_KEYS:
            in_box = get_value(inbox, key)
            values = (*PROBE_VALUES, 1.0 if in_box is None else in_box)
            objective = _Objective(OptimizeSpec(config, (key,), {key: (1.0, 2.0)}))
            probes.clear()
            objective.line(key, config, {}, 1.0, 2.0, 1.0)
            assert len(probes) == len(values) == len(objective.trace), key
            for x, (point, evaluation) in zip(values, probes):
                want = set_value(config, key, x)
                assert repr(point) == repr(want), (key, x)
                try:
                    alone = evaluate(want)
                except EVALUATION_ERRORS as exc:
                    alone = exc
                assert _outcome(evaluation) == _outcome(alone), (key, x)


@settings(max_examples=60)
@given(config=designs(), seed=st.integers(0, 2**32 - 1))
# with a feedback readout, or without gas, a probe can break the rule tying the two
@example(config=_BASES[3], seed=0)
@example(config=_BASES[5], seed=0)
def test_line_probes_are_points(config, seed):
    assume(not validate_config(config))
    assert_line_probes_are_points(config, make_random_config(np.random.default_rng(seed)))


def test_a_line_probe_is_never_validated_in_full(config_300nm, monkeypatch):
    """A line over the tweezer power through 0, whose negative probes break the
    key's check, runs no full `validate_config`; each probe has the outcome,
    error class and message included, of `evaluate` on its config."""
    key = "tweezer.power_mw"
    full, probes = [], []

    def counted(config):
        full.append(config)
        return validate_config(config)

    monkeypatch.setattr(system_module, "validate_config", counted)
    monkeypatch.setattr(sweep_module, "evaluate", _recorder(probes))
    objective = _Objective(OptimizeSpec(config_300nm, (key,), {key: (1.0, 2.0)}))
    objective.line(key, config_300nm, {}, -1000.0, 1000.0, 2e-3)
    assert full == []
    monkeypatch.undo()
    xs = [record[key] for record in objective.trace]
    assert len(probes) == len(xs)
    assert sum(isinstance(evaluation, ConfigError) for _, evaluation in probes) > 0
    for x, (point, evaluation) in zip(xs, probes):
        want = set_value(config_300nm, key, x)
        assert repr(point) == repr(want), x
        try:
            alone = evaluate(want)
        except EVALUATION_ERRORS as exc:
            alone = exc
        assert _outcome(evaluation) == _outcome(alone), x


def test_every_check_reads_only_its_keys_section(config_300nm):
    """A section's checks, the gas mean speed's `quantity` check included, run
    on that section alone and find what they find on the whole config."""
    chilled = set_value(config_300nm, "env.temperature_k", 1e-310)   # no gas speed
    configs = [config_300nm, chilled, replace(config_300nm, mode="bogus")]
    for spec in KEYS:
        if spec.kind == KIND_FLOAT:
            configs += [set_value(config_300nm, spec.name, x) for x in PROBE_VALUES]
    for config in configs:
        for section, check in SECTION_CHECKS.items():
            alone = check(SimpleNamespace(**{section: getattr(config, section)}))
            assert alone == check(config)
    assert ("env.temperature_k", "geometry", "gas mean speed must be > 0") in (
        validate_config(chilled))
