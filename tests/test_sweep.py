"""Sweep grids, the constrained optimizer, and a scan over the cavity finesse."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levicool import (ConfigError, InfeasibleError, OptimizeSpec, SweepSpec,
                      evaluate, optimize, run_sweep)
from levicool import sweep
from levicool.configfile import set_si
from levicool.sweep import CSV_HEADER, ERROR_SINGULAR, ProbeTrace


def small_spec(config, **overrides):
    settings = dict(
        base_config=config,
        radius_start=50e-9, radius_stop=300e-9, radius_steps=4,
        atoms_start=1e6, atoms_stop=1e8, atoms_steps=5, log_atoms=True,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


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
        spec = SweepSpec(
            base_config=config_300nm,
            radius_start=config_300nm.sphere.radius,
            radius_stop=config_300nm.sphere.radius,
            radius_steps=1,
            atoms_start=config_300nm.atoms.count,
            atoms_stop=config_300nm.atoms.count,
            atoms_steps=1,
        )
        result = run_sweep(spec)
        assert result.cells == range(1)
        assert result.values["occupation"][0] == steady.occupation
        assert result.values["coupling"][0] == bundle.coupling
        assert result.values["cooling"][0] == bundle.cooling
        assert result.values["strong_coupling_ratio"][0] == steady.strong_coupling_ratio

    def test_degenerate_range_requires_single_step(self, config_300nm):
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius_start=150e-9, radius_stop=150e-9,
                       radius_steps=3)
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius_steps=1)

    @pytest.mark.parametrize("axis", ["radius", "atoms"])
    def test_reversed_range_rejected(self, config_300nm, axis):
        spec = small_spec(config_300nm)
        start, stop = getattr(spec, f"{axis}_start"), getattr(spec, f"{axis}_stop")
        with pytest.raises(ConfigError, match=f"^{axis} range must have stop >= start$"):
            small_spec(config_300nm, **{f"{axis}_start": stop, f"{axis}_stop": start})

    @pytest.mark.parametrize("bounds", [
        {"radius_start": math.nan}, {"radius_stop": math.nan},
        {"radius_stop": math.inf}, {"radius_start": -math.inf},
        {"atoms_start": math.nan}, {"atoms_stop": math.nan}, {"atoms_stop": math.inf},
    ])
    def test_non_finite_bounds_rejected(self, config_300nm, bounds):
        axis = next(iter(bounds)).split("_")[0]
        with pytest.raises(ConfigError, match=f"{axis} range must be finite"):
            small_spec(config_300nm, **bounds)

    def test_cell_limit_rejects_before_allocating(self, config_300nm):
        with pytest.raises(ConfigError, match=r"^sweep of 1000000000000 cells exceeds "
                                              r"the limit of 1000000 cells$"):
            small_spec(config_300nm, radius_steps=10**6, atoms_steps=10**6)

    def test_cell_limit_is_inclusive(self, config_300nm, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_CELLS", 20)
        assert len(run_sweep(small_spec(config_300nm, radius_steps=4, atoms_steps=5)).cells) == 20
        with pytest.raises(ConfigError, match="^sweep of 21 cells exceeds the limit of 20 cells$"):
            small_spec(config_300nm, radius_steps=21, atoms_steps=1,
                       atoms_start=1e6, atoms_stop=1e6)

    def test_error_cells_are_recorded_not_dropped(self, config_300nm):
        dark = replace(config_300nm,
                       lattice=replace(config_300nm.lattice, power=0.0))
        result = run_sweep(small_spec(dark, radius_steps=2, atoms_steps=2,
                                      log_atoms=False))
        assert result.cells == range(4)
        assert result.errors == dict.fromkeys(range(4), ERROR_SINGULAR)
        assert all(np.isnan(column).all() for column in result.values.values())
        csv_text = result.to_csv()
        assert csv_text.count(f"error:{ERROR_SINGULAR}") == 4
        assert result.min_occupation_cell() is None
        assert result.strong_coupling_fraction() == 0.0

    def test_serial_and_parallel_are_byte_identical(self, config_300nm):
        spec = small_spec(config_300nm)
        serial = run_sweep(spec).to_csv()
        again = run_sweep(spec).to_csv()
        assert serial == again

    def test_csv_schema(self, config_300nm):
        result = run_sweep(small_spec(config_300nm, radius_steps=2, atoms_steps=2,
                                      log_atoms=False))
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
        result = run_sweep(small_spec(config_300nm, radius_steps=2, atoms_steps=3))
        occupation = np.array([math.nan, 2.0, 1.0, 3.0, 1.0, math.nan])
        tied = replace(result, values={**result.values, "occupation": occupation},
                       errors={0: ERROR_SINGULAR, 5: ERROR_SINGULAR})
        best = tied.min_occupation_cell()
        assert best == (float(result.radii[0]), float(result.counts[2]), 1.0)
        assert all(type(value) is float for value in best)


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
        report = evaluate(config_300nm)[2]
        for count in (1e7, 2e7):
            assert objective.record({"atoms.count": count}, report) == report.occupation
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
        # a trace equals the tuple of its records, except that a NaN n_ss is
        # unequal to itself in the records
        assert (first.trace == tuple(first.trace)) != has_errors
        assert first.trace != first.trace[:-1]

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

    def test_trace_is_not_equal_to_a_non_sequence(self):
        assert (ProbeTrace(("a",)) == 1) is False
        assert ProbeTrace(("a",)) == ProbeTrace(("a",)) == []

    def test_unknown_variable_rejected(self, config_300nm):
        with pytest.raises(ConfigError):
            OptimizeSpec(base_config=config_300nm,
                         variables=("sphere.epsilon",),
                         bounds={"sphere.epsilon": (1.5, 3.0)})

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
        ("cavity.length_cm", "'cavity.length_cm' cannot hold a grid"),
        ("cavity.length", "unknown key 'cavity.length'")])
    def test_only_grid_keys_take_an_axis(self, config_300nm, key, message):
        with pytest.raises(ConfigError, match=message):
            sweep.evaluate_grid(config_300nm, {key: np.array([1.0, 2.0])})


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
