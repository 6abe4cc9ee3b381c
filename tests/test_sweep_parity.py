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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levicool import (AtomEnsemble, Cavity, Environment, FeedbackReadout,
                      InfeasibleError, InvalidGeometryError, LatticeBeam,
                      NoiseBudget, OptimizeSpec, SingularConfigurationError,
                      Sphere, SweepSpec, SystemConfig, TweezerBeam,
                      config_items, evaluate, from_display_hz, load_config,
                      optimize, run_sweep, set_value, to_display_hz)
from levicool.cli import main
from levicool.configfile import KEY_MAP
from levicool.steady_state import EVALUATION_ERRORS, FLAG_NAMES
from levicool.sweep import (_COARSE_POINTS, CSV_HEADER, MAX_SWEEPS,
                            REL_TOLERANCE, OptimizeResult, ProbeTrace, _axis_grid,
                            _golden_section, _Objective, error_reason, evaluate_grid)

from conftest import CONFIG_300NM, make_random_config
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


def assert_matches_oracle(spec):
    result = run_sweep(spec)
    cells = [_oracle_cell(spec.base_config, radius, count)
             for radius in spec.radius_values() for count in spec.atoms_values()]
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
    return SweepSpec(base_config=base, radius_start=radius[0], radius_stop=radius[1],
                     radius_steps=radius[2], atoms_start=atoms[0], atoms_stop=atoms[1],
                     atoms_steps=atoms[2], log_atoms=log_atoms)


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
    grids = {name: _axis_grid(*spec.bounds[name], points) for name in spec.variables}
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
    assert repr(list(trace)) == repr(entries) == repr(list(trace[:]))


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
        objective.coarse({name: _axis_grid(*bounds[name], points) for name in variables})
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
    # in the pass, with atom cooling
    try:
        with np.errstate(all="ignore"):
            derived, bundle, report = evaluate(grid_config)
    except EVALUATION_ERRORS:
        settled = np.zeros(shape, dtype=bool)
    else:
        settled = np.broadcast_to(bundle.atom_cooling > 0, shape).copy()
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
