"""Sweep grids, the constrained optimizer, and a scan over the cavity finesse."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levicool import (Axis, ConfigError, InfeasibleError, OptimizeSpec, SweepSpec,
                      evaluate, optimize, run_sweep)
from levicool import sweep
from levicool.configfile import set_si
from levicool.sweep import CSV_HEADER, ERROR_SINGULAR, ProbeTrace


RADIUS = Axis(50e-9, 300e-9, 4)
ATOMS = Axis(1e6, 1e8, 5, log=True)


def small_spec(config, radius=RADIUS, atoms=ATOMS):
    return SweepSpec(config, radius, atoms)


class TestRunSweep:
    def test_grid_shape_and_order(self, config_300nm):
        result = run_sweep(small_spec(config_300nm))
        assert result.cells == range(4 * 5)
        assert result.radii.tolist() == sorted(result.radii.tolist())
        assert result.counts.tolist() == sorted(result.counts.tolist())
        # radius-major ordering: cell i is radius i // 5 and atom count i % 5
        for index in result.cells:
            i, j = divmod(index, 5)
            point = set_si(set_si(config_300nm, "sphere.radius_nm", float(result.radii[i])),
                           "atoms.count", float(result.counts[j]))
            assert result.values["occupation"][index] == evaluate(point)[2].occupation

    def test_single_point_grid_matches_report_bit_for_bit(self, config_300nm,
                                                          pipeline_300nm):
        _, bundle, steady = pipeline_300nm
        radius, count = config_300nm.sphere.radius, config_300nm.atoms.count
        spec = SweepSpec(config_300nm, Axis(radius, radius, 1), Axis(count, count, 1))
        result = run_sweep(spec)
        assert result.cells == range(1)
        assert result.values["occupation"][0] == steady.occupation
        assert result.values["coupling"][0] == bundle.coupling
        assert result.values["cooling"][0] == bundle.cooling
        assert result.values["strong_coupling_ratio"][0] == steady.strong_coupling_ratio

    def test_degenerate_range_requires_single_step(self, config_300nm):
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius=Axis(150e-9, 150e-9, 3))
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius=RADIUS._replace(steps=1))

    @pytest.mark.parametrize("axis", ["radius", "atoms"])
    def test_reversed_range_rejected(self, config_300nm, axis):
        ends = getattr(small_spec(config_300nm), axis)
        with pytest.raises(ConfigError, match=f"^{axis} range must have stop >= start$"):
            small_spec(config_300nm, **{axis: ends._replace(lo=ends.hi, hi=ends.lo)})

    @pytest.mark.parametrize("bounds", [
        {"radius": RADIUS._replace(lo=math.nan)}, {"radius": RADIUS._replace(hi=math.nan)},
        {"radius": RADIUS._replace(hi=math.inf)}, {"radius": RADIUS._replace(lo=-math.inf)},
        {"atoms": ATOMS._replace(lo=math.nan)}, {"atoms": ATOMS._replace(hi=math.nan)},
        {"atoms": ATOMS._replace(hi=math.inf)},
    ])
    def test_non_finite_bounds_rejected(self, config_300nm, bounds):
        with pytest.raises(ConfigError, match=f"{next(iter(bounds))} range must be finite"):
            small_spec(config_300nm, **bounds)

    def test_cell_limit_rejects_before_allocating(self, config_300nm):
        with pytest.raises(ConfigError, match=r"^sweep of 1000000000000 cells exceeds "
                                              r"the limit of 1000000 cells$"):
            small_spec(config_300nm, RADIUS._replace(steps=10**6), ATOMS._replace(steps=10**6))

    def test_cell_limit_is_inclusive(self, config_300nm, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_CELLS", 20)
        assert len(run_sweep(small_spec(config_300nm)).cells) == 4 * 5
        with pytest.raises(ConfigError, match="^sweep of 21 cells exceeds the limit of 20 cells$"):
            small_spec(config_300nm, RADIUS._replace(steps=21), Axis(1e6, 1e6, 1))

    def test_error_cells_are_recorded_not_dropped(self, config_300nm):
        dark = replace(config_300nm,
                       lattice=replace(config_300nm.lattice, power=0.0))
        result = run_sweep(small_spec(dark, RADIUS._replace(steps=2), Axis(1e6, 1e8, 2)))
        assert result.cells == range(4)
        assert result.errors == dict.fromkeys(range(4), ERROR_SINGULAR)
        assert all(np.isnan(column).all() for column in result.values.values())
        csv_text = result.to_csv()
        assert csv_text.count(f"error:{ERROR_SINGULAR}") == 4
        assert result.min_occupation_cell() is None
        assert result.strong_coupling_fraction() == 0.0

    def test_repeated_sweeps_are_byte_identical(self, config_300nm):
        spec = small_spec(config_300nm)
        first = run_sweep(spec).to_csv()
        again = run_sweep(spec).to_csv()
        assert first == again

    def test_csv_schema(self, config_300nm):
        result = run_sweep(small_spec(config_300nm, RADIUS._replace(steps=2),
                                      Axis(1e6, 1e8, 2)))
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(50.0)       # nm
        assert float(first[1]) == pytest.approx(1e6)

    def test_ratio_monotone_in_atom_count_along_rows(self, config_300nm):
        result = run_sweep(small_spec(config_300nm))
        for ratios in result.values["strong_coupling_ratio"].reshape(4, 5).tolist():
            assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_summary_helpers(self, config_300nm):
        result = run_sweep(small_spec(config_300nm))
        best = result.min_occupation_cell()
        assert best is not None
        radius, atom_count, occupation = best
        # cooling grows with atom count, so the minimum sits on the last column
        assert atom_count == pytest.approx(1e8, rel=1e-9)
        assert radius in result.radii.tolist()
        assert occupation == float(np.nanmin(result.values["occupation"]))
        assert 0.0 <= result.strong_coupling_fraction() <= 1.0

    def test_min_occupation_cell_is_first_of_least(self, config_300nm):
        """Of equal least occupations the first cell in row-major order wins;
        error cells (NaN) never do."""
        result = run_sweep(small_spec(config_300nm, RADIUS._replace(steps=2),
                                      ATOMS._replace(steps=3)))
        occupation = np.array([math.nan, 2.0, 1.0, 3.0, 1.0, math.nan])
        tied = replace(result, values={**result.values, "occupation": occupation},
                       errors={0: ERROR_SINGULAR, 5: ERROR_SINGULAR})
        best = tied.min_occupation_cell()
        assert best == (float(result.radii[0]), float(result.counts[2]), 1.0)
        assert all(type(value) is float for value in best)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=2000)
@given(ends=st.lists(_POSITIVE, min_size=2, max_size=2), steps=st.integers(1, 100))
@example(ends=[1e6, 1e8], steps=1)
@example(ends=[1e6, 1e8], steps=2)
@example(ends=[5e7, 5e7], steps=1)
@example(ends=[5e7, 5e7], steps=2)
@example(ends=[5e-324, 1.7976931348623157e308], steps=21)
def test_log_axis_is_geomspace_bit_for_bit(ends, steps):
    """The log-spaced atom-count and search axes are `np.geomspace`'s values,
    which reach every CSV and digest of a `--log-atoms` map."""
    lo, hi = sorted(ends)
    with np.errstate(over="ignore"):    # both overflow to inf next to the largest float
        assert (Axis(lo, hi, steps, log=True).values().tobytes()
                == np.geomspace(lo, hi, steps).tobytes())


@given(ends=st.lists(_POSITIVE, min_size=2, max_size=2), steps=st.integers(1, 100))
def test_linear_axis_is_linspace_bit_for_bit(ends, steps):
    """The radius axis and the narrow search axes are `np.linspace`'s values."""
    lo, hi = sorted(ends)
    with np.errstate(over="ignore"):    # hi - lo overflows next to the largest float
        assert Axis(lo, hi, steps).values().tobytes() == np.linspace(lo, hi, steps).tobytes()


class TestOptimize:
    def test_empty_variable_set_echoes_base(self, config_300nm, pipeline_300nm):
        _, _, steady = pipeline_300nm
        result = optimize(OptimizeSpec(base_config=config_300nm))
        assert result.report.occupation == steady.occupation
        assert result.best_values == {}
        assert len(result.trace) == 1

    def test_empty_variable_set_evaluates_once(self, config_300nm, monkeypatch):
        calls = []

        def counted(config):
            calls.append(config)
            return evaluate(config)

        monkeypatch.setattr(sweep, "evaluate", counted)
        result = optimize(OptimizeSpec(base_config=config_300nm))
        assert calls == [config_300nm]
        assert result.config is config_300nm
        assert (result.derived, result.bundle, result.report) == evaluate(config_300nm)

    def test_best_probe_is_first_of_least(self, config_300nm):
        """A later feasible probe of equal occupation does not replace the best."""
        objective = sweep._Objective(OptimizeSpec(
            base_config=config_300nm, variables=("atoms.count",),
            bounds={"atoms.count": (1e6, 1e8)}))
        occupation = evaluate(config_300nm)[2].occupation
        for count in (1e7, 2e7):
            objective.trace.append({"atoms.count": count}, occupation, "")
        assert objective.trace.best() == 0
        assert objective.result().best_values == {"atoms.count": 1e7}

    def test_coarse_best_is_first_of_least(self, config_300nm, monkeypatch):
        """Of coarse cells of equal least occupation the first is the best, and a
        later line-search probe that ties it does not replace it."""
        occupation = np.array([2.0, 1.0, 3.0, 1.0])
        monkeypatch.setattr(sweep, "evaluate_grid", lambda base, axes: (
            {"occupation": occupation}, {}, {}))
        objective = sweep._Objective(OptimizeSpec(
            base_config=config_300nm, variables=("atoms.count",),
            bounds={"atoms.count": (1e6, 1e8)}))
        objective.coarse({"atoms.count": np.array([1e6, 2e6, 3e6, 4e6])})
        assert objective.trace.best() == 1
        objective.trace.append({"atoms.count": 2.5e6}, 1.0, "")
        assert objective.trace.best() == 1
        objective.trace.append({"atoms.count": 2.4e6}, 0.5, "")
        assert objective.trace.best() == 5

    def test_best_skips_infeasible_error_and_nan_probes(self):
        """An all-error trace has no best; a probe with a note, or with a NaN
        n_ss even under an empty note, is never the best."""
        trace = ProbeTrace(("atoms.count",))
        assert trace.best() is None
        for count in (1e6, 2e6):
            trace.append({"atoms.count": count}, math.nan, f"error:{ERROR_SINGULAR}")
        assert trace.best() is None
        trace.append({"atoms.count": 3e6}, math.nan, "")
        assert trace.best() is None
        trace.append({"atoms.count": 4e6}, 0.1, "ground_state")
        trace.append({"atoms.count": 5e6}, 2.0, "")
        trace.append({"atoms.count": 6e6}, math.nan, "")
        assert trace.best() == 4

    @given(data=st.data())
    @settings(max_examples=200)
    def test_best_is_the_brute_force_rule(self, config_300nm, data):
        """Over traces built through the coarse bulk path and then `append`, the best
        is the first probe with an empty note and the least non-NaN n_ss, or None;
        each coarse cell's note is its error, or its violated required flags."""
        n_ss = st.sampled_from([0.25, 1.0, 1.0, 3.0, math.inf, math.nan])
        require = data.draw(st.lists(st.sampled_from(sweep.FLAG_NAMES), unique=True,
                                     max_size=3))
        size = data.draw(st.integers(1, 24))
        occupation = np.array(data.draw(st.lists(n_ss, min_size=size, max_size=size)))
        flags = {flag: data.draw(st.none() | st.lists(st.booleans(), min_size=size,
                                                      max_size=size).map(np.array))
                 for flag in require}
        errors = data.draw(st.dictionaries(st.integers(0, size - 1), st.sampled_from(
            [sweep.ERROR_SINGULAR, sweep.ERROR_GEOMETRY, sweep.ERROR_INFEASIBLE])))
        objective = sweep._Objective(OptimizeSpec(
            base_config=config_300nm, variables=("atoms.count",),
            bounds={"atoms.count": (1.0, 1e3)}, require=tuple(require)))
        with mock.patch.object(sweep, "evaluate_grid", lambda base, axes: (
                {"occupation": occupation}, flags, errors)):
            objective.coarse({"atoms.count": np.arange(1.0, size + 1)})
        trace = objective.trace
        assert trace.notes == [
            f"error:{errors[k]}" if k in errors else ";".join(
                flag for flag in require if flags[flag] is None or not flags[flag][k])
            for k in range(size)]
        notes = st.sampled_from(["", "", "ground_state", "ground_state;strong_coupling",
                                 f"error:{sweep.ERROR_SINGULAR}"])
        for value, probe_n_ss, note in data.draw(st.lists(st.tuples(
                st.floats(1.0, 1e3), n_ss, notes), max_size=12)):
            trace.append({"atoms.count": value}, probe_n_ss, note)
        candidates = [k for k, note in enumerate(trace.notes)
                      if note == "" and not math.isnan(trace.n_ss[k])]
        expected = min(candidates, key=lambda k: (trace.n_ss[k], k)) if candidates else None
        assert trace.best() == expected
        assert [record["feasible"] for record in trace] == [not n for n in trace.notes]

    def test_atom_count_minimizer_at_upper_bound(self, config_100nm):
        """Occupation falls monotonically with atom count, so the search
        must land on the upper bound; brute force confirms monotonicity."""
        spec = OptimizeSpec(
            base_config=config_100nm,
            variables=("atoms.count",),
            bounds={"atoms.count": (1e6, 1e8)},
        )
        result = optimize(spec)
        assert result.best_values["atoms.count"] == pytest.approx(1e8, rel=1e-3)

        counts = np.geomspace(1e6, 1e8, 25)
        occupations = []
        for count in counts:
            config = replace(config_100nm,
                             atoms=replace(config_100nm.atoms, count=float(count)))
            occupations.append(evaluate(config)[2].occupation)
        assert all(a > b for a, b in zip(occupations, occupations[1:]))
        assert result.report.occupation <= occupations[-1] * (1.0 + 1e-12)

    def test_never_worse_than_any_probe(self, config_300nm):
        spec = OptimizeSpec(
            base_config=config_300nm,
            variables=("atoms.count",),
            bounds={"atoms.count": (1e6, 1e8)},
            require=("ground_state",),
        )
        result = optimize(spec)
        feasible = [entry["n_ss"] for entry in result.trace
                    if entry["feasible"] and math.isfinite(entry["n_ss"])]
        assert result.report.occupation == min(feasible)

    @pytest.mark.parametrize("bounds, has_errors", [((50.0, 300.0), False),
                                                    ((50.0, 1e200), True)])
    def test_same_search_gives_equal_results(self, config_300nm, bounds, has_errors):
        spec = OptimizeSpec(base_config=config_300nm, variables=("sphere.radius_nm",),
                            bounds={"sphere.radius_nm": bounds})
        first, second = optimize(spec), optimize(spec)
        assert any(math.isnan(entry["n_ss"]) for entry in first.trace) == has_errors
        assert first == second
        assert first.trace == second.trace
        # traces compare their columns' bytes, but a NaN n_ss is unequal to
        # itself in the records
        assert (list(first.trace) == list(second.trace)) != has_errors
        shorter = ProbeTrace(first.trace.variables)
        for record in list(first.trace)[:-1]:
            shorter.append(record, record["n_ss"], record["note"])
        assert first.trace != shorter

    def test_strong_coupling_infeasible_for_large_sphere(self, config_300nm):
        """At 150 nm radius the ratio stays ~0.55 up to 5e7 atoms."""
        spec = OptimizeSpec(
            base_config=config_300nm,
            variables=("atoms.count",),
            bounds={"atoms.count": (1e6, 5e7)},
            require=("strong_coupling",),
        )
        with pytest.raises(InfeasibleError) as excinfo:
            optimize(spec)
        assert "strong_coupling" in excinfo.value.violated

    def test_trace_equals_only_a_trace(self):
        assert (ProbeTrace(("a",)) == 1) is False
        assert ProbeTrace(("a",)) == ProbeTrace(("a",)) != []

    def test_unknown_variable_rejected(self, config_300nm):
        with pytest.raises(ConfigError, match="^'noise.include_in_occupation' is not a numeric"):
            OptimizeSpec(base_config=config_300nm,
                         variables=("noise.include_in_occupation",),
                         bounds={"noise.include_in_occupation": (0.5, 1.0)})

    def test_missing_bounds_rejected(self, config_300nm):
        with pytest.raises(ConfigError):
            OptimizeSpec(base_config=config_300nm, variables=("atoms.count",))

    def test_repeated_variable_rejected(self, config_300nm):
        with pytest.raises(ConfigError, match="'atoms.count' is listed more than once"):
            OptimizeSpec(base_config=config_300nm,
                         variables=("atoms.count", "atoms.count"),
                         bounds={"atoms.count": (1e8, 1e9)})

    def test_repeated_constraint_flag_rejected(self, config_300nm):
        with pytest.raises(ConfigError, match="'ground_state' is listed more than once"):
            OptimizeSpec(base_config=config_300nm,
                         variables=("atoms.count",),
                         bounds={"atoms.count": (1e8, 1e9)},
                         require=("ground_state", "strong_coupling", "ground_state"))

    def test_two_variable_search_beats_base(self, config_300nm, pipeline_300nm):
        _, _, steady = pipeline_300nm
        spec = OptimizeSpec(
            base_config=config_300nm,
            variables=("sphere.radius_nm", "atoms.count"),
            bounds={"sphere.radius_nm": (50.0, 300.0),
                    "atoms.count": (1e6, 1e8)},
        )
        result = optimize(spec)
        assert result.report.occupation < steady.occupation
        assert 50.0 <= result.best_values["sphere.radius_nm"] <= 300.0


class TestEvaluateGrid:
    @pytest.mark.parametrize("key, message", [
        ("mode", "'mode' is not a numeric key"),
        ("cavity.length", "unknown key 'cavity.length'")])
    def test_only_grid_keys_take_an_axis(self, config_300nm, key, message):
        with pytest.raises(ConfigError, match=message):
            sweep.evaluate_grid(config_300nm, {key: np.array([1.0, 2.0])})

    def test_rule_no_cell_meets_fails_the_whole_grid(self, config_300nm):
        """A depth override conflicts with paper-anchored mode in every cell,
        so the grid raises the error each point raises, naming the axis key."""
        with pytest.raises(ConfigError, match="^lattice.depth_recoils: lattice depth override"):
            sweep.evaluate_grid(config_300nm, {"lattice.depth_recoils": np.array([10.0, 20.0])})

    def test_cell_breaking_a_check_is_its_point_error(self, config_300nm):
        """A -0.46 W tweezer power breaks `tweezer.power_mw >= 0`, and is
        finite on the grid (n_ss -0.1347, ground state): it is evaluated
        alone and fails as its point does; the other cell is its point."""
        values, flags, errors = sweep.evaluate_grid(
            config_300nm, {"tweezer.power_mw": np.array([-0.46, 0.46])})
        with pytest.raises(ConfigError, match="tweezer.power_mw: tweezer power must be >= 0"):
            evaluate(set_si(config_300nm, "tweezer.power_mw", -0.46))
        assert errors == {0: "infeasible"}
        assert all(math.isnan(column[0]) for column in values.values())
        steady = evaluate(set_si(config_300nm, "tweezer.power_mw", 0.46))[2]
        assert values["occupation"][1] == steady.occupation
        assert flags["ground_state"][1] == steady.flags.ground_state

    def test_cell_evaluated_alone_keeps_its_own_outcome(self, config_300nm):
        """A cell with no atoms has no atom cooling, so the grid re-runs it
        through `evaluate`; the decoupled point evaluates, n_ss ~ 1.226e11."""
        values, flags, errors = sweep.evaluate_grid(
            config_300nm, {"atoms.count": np.array([0.0, 1e6, 5e7])})
        assert errors == {}
        _, bundle, steady = evaluate(replace(config_300nm,
                                             atoms=replace(config_300nm.atoms, count=0.0)))
        assert steady.occupation.hex() == "0x1.c8bc506b18e61p+36"
        assert values["occupation"][0] == steady.occupation
        assert values["coupling"][0] == bundle.coupling == 0.0
        for name, column in flags.items():
            want = getattr(steady.flags, name)
            assert column is None if want is None else column[0] == want, name


def _columns_bits(values, flags, errors):
    return ({name: column.tobytes() for name, column in values.items()},
            {name: None if column is None else column.tobytes()
             for name, column in flags.items()}, errors)


class TestGridSumRule:
    """A cell whose sum of array fields is not finite is evaluated alone and
    keeps its point's bits and reason code, whatever it held in the pass."""

    AXES = {"cavity.finesse": np.array([400.0, 0.0, 1e300, 800.0, 1600.0])}

    @pytest.mark.parametrize("planted", [
        {"coupling": 1e308, "cooling": 1e308},
        {"coupling": math.nan}, {"cooling": math.inf}, {"sphere_recoil": -math.inf}],
        ids=["finite-sum-overflows", "nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("cell", [0, 1, 2, 3])
    def test_cell_keeps_its_own_outcome(self, config_300nm, monkeypatch, planted, cell):
        want = sweep.evaluate_grid(config_300nm, self.AXES)
        assert want[2] == {1: "infeasible", 2: ERROR_SINGULAR}
        real = sweep.evaluate
        alone = []

        def planting(config, *violations):
            if not isinstance(config.cavity.finesse, np.ndarray):
                alone.append(config.cavity.finesse)
                return real(config, *violations)
            derived, bundle, report = real(config, *violations)
            changes = {}
            for name, value in planted.items():
                column = getattr(bundle, name).copy()
                column[cell] = value
                changes[name] = column
            return derived, replace(bundle, **changes), report

        monkeypatch.setattr(sweep, "evaluate", planting)
        got = sweep.evaluate_grid(config_300nm, self.AXES)
        assert _columns_bits(*got) == _columns_bits(*want)
        # the error cells, and the planted one, each evaluated alone once
        assert alone == [self.AXES["cavity.finesse"][i] for i in sorted({1, 2, cell})]


def _finesse_pass(config, finesses):
    """One `evaluate_grid` pass over the cavity finesse: (values, errors)."""
    values, _, errors = sweep.evaluate_grid(
        config, {"cavity.finesse": np.array(finesses, dtype=float)})
    return values, errors


class TestFinesseScan:
    """A one-axis grid over the cavity finesse: coupling grows as F and
    backaction as F^2, so the occupation has an interior minimum."""

    def test_scalings_over_a_doubling(self, config_300nm):
        values, _ = _finesse_pass(config_300nm, [400.0, 800.0])
        coupling, backaction = values["coupling"], values["sphere_backaction"]
        assert coupling[1] / coupling[0] == pytest.approx(2.0, rel=0.01)
        assert backaction[1] / backaction[0] == pytest.approx(4.0, rel=0.01)

    def test_normalized_columns_are_flat(self, config_300nm):
        finesses = np.array([100.0, 400.0, 1600.0])
        values, _ = _finesse_pass(config_300nm, finesses)
        per_f = values["coupling"] / finesses
        per_f2 = values["sphere_backaction"] / finesses**2
        assert max(per_f) / min(per_f) == pytest.approx(1.0, rel=1e-9)
        assert max(per_f2) / min(per_f2) == pytest.approx(1.0, rel=1e-9)

    def test_coupling_vanishes_with_finesse(self, config_300nm):
        values, _ = _finesse_pass(config_300nm, [1e-3, 400.0])
        assert values["coupling"][0] < 1e-5 * values["coupling"][1]

    def test_interior_occupation_minimum(self, config_300nm):
        """Brute-force scan: the occupation has an interior minimum at a few
        hundred in finesse (backaction grows as F^2 while cooling gains as F)."""
        grid = np.geomspace(100.0, 4000.0, 41)
        values, errors = _finesse_pass(config_300nm, grid)
        assert errors == {}
        best = int(np.argmin(values["occupation"]))
        assert 0 < best < len(grid) - 1
        assert 200.0 <= grid[best] <= 1500.0

    @pytest.mark.parametrize("name", ["config_100nm", "config_300nm"])
    def test_cells_have_the_bits_of_each_point_alone(self, request, name):
        config = request.getfixturevalue(name)
        grid = np.append(np.geomspace(10.0, 1e5, 50), [1e-3, 400.0])
        values, errors = _finesse_pass(config, grid)
        assert errors == {}
        for index, finesse in enumerate(grid.tolist()):
            _, bundle, report = evaluate(set_si(config, "cavity.finesse", finesse))
            want = {"coupling": bundle.coupling,
                    "sphere_backaction": bundle.sphere_backaction,
                    "occupation": report.occupation}
            assert {key: float(values[key][index]).hex() for key in want} == \
                {key: value.hex() for key, value in want.items()}, finesse

    @pytest.mark.parametrize("finesses, errors", [
        ([400.0, 0.0], {1: "infeasible"}),
        ([math.nan], {0: ERROR_SINGULAR}),
        ([1e300], {0: ERROR_SINGULAR})])
    def test_rejected_finesse_gets_its_reason_code(self, config_300nm, finesses, errors):
        values, got = _finesse_pass(config_300nm, finesses)
        assert got == errors
        assert all(math.isnan(values["occupation"][index]) for index in errors)
