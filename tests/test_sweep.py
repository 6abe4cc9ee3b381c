"""Sweep grids, the constrained optimizer, and the finesse trade-off."""

import math
from dataclasses import replace

import numpy as np
import pytest

from levicool import (ConfigError, InfeasibleError, OptimizeSpec, SweepSpec,
                      evaluate, finesse_tradeoff, optimize, run_sweep)
from levicool import sweep
from levicool.sweep import CSV_HEADER, ERROR_SINGULAR


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
        assert len(result.cells) == 4 * 5
        radii = [cell.radius for cell in result.cells]
        assert radii == sorted(radii)  # radius-major ordering
        for row_start in range(0, 20, 5):
            row = result.cells[row_start:row_start + 5]
            counts = [cell.atom_count for cell in row]
            assert counts == sorted(counts)

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
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.occupation == steady.occupation
        assert cell.coupling == bundle.coupling
        assert cell.cooling == bundle.cooling
        assert cell.strong_coupling_ratio == steady.strong_coupling_ratio

    def test_degenerate_range_requires_single_step(self, config_300nm):
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius_start=150e-9, radius_stop=150e-9,
                       radius_steps=3)
        with pytest.raises(ConfigError):
            small_spec(config_300nm, radius_steps=1)

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
        assert len(result.cells) == 4
        assert all(cell.error == ERROR_SINGULAR for cell in result.cells)
        csv_text = result.to_csv()
        assert csv_text.count(f"error:{ERROR_SINGULAR}") == 4

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
        for row_start in range(0, 20, 5):
            row = result.cells[row_start:row_start + 5]
            ratios = [cell.strong_coupling_ratio for cell in row]
            assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_summary_helpers(self, config_300nm):
        result = run_sweep(small_spec(config_300nm))
        best = result.min_occupation_cell()
        assert best is not None
        # cooling grows with atom count, so the minimum sits on the last column
        assert best.atom_count == pytest.approx(1e8, rel=1e-9)
        assert 0.0 <= result.strong_coupling_fraction() <= 1.0


class TestOptimize:
    def test_empty_variable_set_echoes_base(self, config_300nm, pipeline_300nm):
        _, _, steady = pipeline_300nm
        result = optimize(OptimizeSpec(base_config=config_300nm))
        assert result.occupation == steady.occupation
        assert result.best_values == {}
        assert result.evaluations == 1

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
        assert result.occupation <= occupations[-1] * (1.0 + 1e-12)

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
        assert result.occupation == min(feasible)

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
        assert result.occupation < steady.occupation
        assert 50.0 <= result.best_values["sphere.radius_nm"] <= 300.0


class TestFinesseTradeoff:
    def test_scalings_over_a_doubling(self, config_300nm):
        rows = finesse_tradeoff(config_300nm, [400.0, 800.0])
        assert rows[1]["coupling"] / rows[0]["coupling"] == pytest.approx(2.0,
                                                                          rel=0.01)
        assert rows[1]["sphere_backaction"] / rows[0]["sphere_backaction"] == \
            pytest.approx(4.0, rel=0.01)

    def test_normalized_columns_are_flat(self, config_300nm):
        rows = finesse_tradeoff(config_300nm, [100.0, 400.0, 1600.0])
        per_f = [row["coupling_per_finesse"] for row in rows]
        per_f2 = [row["backaction_per_finesse_sq"] for row in rows]
        assert max(per_f) / min(per_f) == pytest.approx(1.0, rel=1e-9)
        assert max(per_f2) / min(per_f2) == pytest.approx(1.0, rel=1e-9)

    def test_coupling_vanishes_with_finesse(self, config_300nm):
        rows = finesse_tradeoff(config_300nm, [1e-3, 400.0])
        assert rows[0]["coupling"] < 1e-5 * rows[1]["coupling"]

    def test_interior_occupation_minimum(self, config_300nm):
        """Brute-force scan: the occupation has an interior minimum at a few
        hundred in finesse (backaction grows as F^2 while cooling gains as F)."""
        grid = np.geomspace(100.0, 4000.0, 41)
        rows = finesse_tradeoff(config_300nm, grid)
        occupations = [row["occupation"] for row in rows]
        best = int(np.argmin(occupations))
        assert 0 < best < len(grid) - 1
        assert 200.0 <= grid[best] <= 1500.0
