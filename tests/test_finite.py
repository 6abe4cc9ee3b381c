"""Finite or a typed error: what a design point, a sweep or a search gives.

Designs come from `make_random_config`'s box, in either derivation mode,
with at most one numeric key set to an edge value (0, 1e-300 or 1e300 in
the key's own units). Every such point evaluates to finite numbers or
raises a typed error; sweeps and searches inherit that cell by cell and
probe by probe. A point given on numpy scalars evaluates as on floats.
"""

import contextlib
import io
import json
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from levicool import (ConfigError, InfeasibleError, InvalidGeometryError,
                      OptimizeSpec, SingularConfigurationError, SweepSpec,
                      evaluate, load_config, optimize, run_sweep, set_value)
from levicool.configfile import KEYS, KIND_FLOAT, MODES
import levicool.cli
from levicool.report import build_report, render_json, render_text
from levicool.steady_state import FLAG_NAMES
from levicool.sweep import OPTIMIZABLE_KEYS

from conftest import (CONFIG_100NM, CONFIG_300NM, document_to_dict, make_random_config,
                      strict_json_loads)

#: what a design point may raise instead of giving finite numbers
TYPED_ERRORS = (ConfigError, InvalidGeometryError, SingularConfigurationError,
                ArithmeticError)
EDGES = (0.0, 1e-300, 1e300)
FLOAT_KEYS = tuple(spec.name for spec in KEYS if spec.kind == KIND_FLOAT)


@st.composite
def designs(draw):
    """A design from the documented box, with at most one key at an edge."""
    config = make_random_config(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    config = replace(config, mode=draw(st.sampled_from(MODES)))
    if draw(st.booleans()):
        config = set_value(config, draw(st.sampled_from(FLOAT_KEYS)),
                           draw(st.sampled_from(EDGES)))
    return config


def _finite(value) -> bool:
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=400)
@given(config=designs())
def test_point_is_finite_or_a_typed_error(config):
    try:
        derived, bundle, steady = evaluate(config)
    except TYPED_ERRORS:
        return
    # the one documented infinity: the quality factor without gas
    gas_free = config.environment.pressure == 0
    for part in (derived, bundle, steady):
        for f in fields(part):
            if not (f.name == "quality_factor" and gas_free):
                assert _finite(getattr(part, f.name)), f.name
    for rows in build_report(config, derived, bundle, steady).values():
        for row in rows:
            if not (row.name == "quality_factor" and gas_free):
                assert _finite(row.value), row.name


@settings(max_examples=500)
@given(config=designs())
def test_point_satisfies_the_model_identities(config):
    """Signs and the exact identities the rates and steady state are built on."""
    try:
        _, bundle, steady = evaluate(config)
    except TYPED_ERRORS:
        return
    for f in fields(bundle):
        value = getattr(bundle, f.name)
        assert value is None or value >= 0, f.name
    terms = (steady.term_cooling_balance, steady.term_atom_cooling_limit,
             steady.term_atom_diffusion_limit)
    assert min(steady.occupation, *terms) >= 0
    assert steady.occupation == terms[0] + terms[1] + terms[2]
    assert bundle.coupling == 2 * bundle.coupling_atom * bundle.coupling_sphere
    assert bundle.sphere_backaction == 2 * bundle.coupling_sphere**2
    if config.sphere.quality_factor is None:
        assert bundle.thermalization == bundle.thermal_occupation * bundle.gas_damping
    assert steady.flags.ground_state == (steady.occupation < 1)


@settings(max_examples=60)
@given(config=designs(), param=st.sampled_from(FLOAT_KEYS))
@example(config=set_value(load_config(CONFIG_300NM), "env.pressure_torr", 0.0),
         param="atoms.count")   # gas-free: an infinite quality factor
def test_json_outputs_are_strict_json(config, param):
    """What `report`, `optimize` and `sensitivity` write as JSON parses with
    NaN and Infinity rejected, or the command exits 2 having written nothing."""
    commands = (("report",), ("optimize",), ("sensitivity", "--param", param))
    with mock.patch.object(levicool.cli, "_load", lambda path: config):
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = levicool.cli.main([*command, "--config", "-", "--format", "json"])
            if code == 0:
                strict_json_loads(out.getvalue())
            else:
                assert (code, out.getvalue()) == (2, ""), err.getvalue()


#: (start, stop) of each sweep axis: the box, and runs at the float range's edges
RADIUS_RANGES = ((10e-9, 500e-9), (1e-309, 1e-299), (1e281, 1e291))
ATOM_RANGES = ((1e3, 1e9), (1e300, 1e308))


@settings(max_examples=60)
@given(base=designs(), radius=st.sampled_from(RADIUS_RANGES),
       atoms=st.sampled_from(ATOM_RANGES), log_atoms=st.booleans())
def test_sweep_cells_are_finite_or_errors(base, radius, atoms, log_atoms):
    result = run_sweep(SweepSpec(base_config=base, radius_start=radius[0],
                                 radius_stop=radius[1], radius_steps=4,
                                 atoms_start=atoms[0], atoms_stop=atoms[1],
                                 atoms_steps=4, log_atoms=log_atoms))
    for index, row in enumerate(result.to_csv().splitlines()[1:]):
        *numbers, flags = row.split(",")
        if index in result.errors:
            assert flags == f"error:{result.errors[index]}"
            continue
        assert all(math.isfinite(float(number)) for number in numbers), row
        for name in FLAG_NAMES:
            column = result.flags[name]
            assert column is None or column.dtype == bool, name


#: optimizer bounds per key: the box, and boxes at the float range's edges
BOUNDS = {
    "sphere.radius_nm": ((10.0, 500.0), (1e-300, 1e-290), (1e290, 1e300)),
    "atoms.count": ((1e3, 1e9), (1e290, 1e300)),
    "lattice.power_uw": ((1.0, 1e3), (1e-300, 1e-290), (1e290, 1e300)),
    "tweezer.power_mw": ((10.0, 1e3), (1e290, 1e300)),
    "cavity.finesse": ((50.0, 5000.0), (1e290, 1e300)),
}


@settings(max_examples=40)
@given(base=designs(), data=st.data())
def test_optimum_is_never_worse_than_a_feasible_probe(base, data):
    variables = tuple(data.draw(st.lists(st.sampled_from(OPTIMIZABLE_KEYS),
                                         min_size=1, max_size=2, unique=True)))
    bounds = {name: data.draw(st.sampled_from(BOUNDS[name])) for name in variables}
    require = data.draw(st.sampled_from(((),) + tuple((flag,) for flag in FLAG_NAMES)))
    try:
        result = optimize(OptimizeSpec(base_config=base, variables=variables,
                                       bounds=bounds, require=require))
    except InfeasibleError:
        return
    feasible = [entry["n_ss"] for entry in result.trace if entry["feasible"]]
    assert all(math.isfinite(n_ss) for n_ss in feasible)
    assert math.isfinite(result.report.occupation)
    assert result.report.occupation <= min(feasible)


def _numpy_scalars(config):
    """`config` with every float field a numpy float64 of the same value."""
    sections = {}
    for section in fields(config):
        part = getattr(config, section.name)
        if section.name != "mode":
            sections[section.name] = replace(part, **{
                f.name: np.float64(getattr(part, f.name)) for f in fields(part)
                if type(getattr(part, f.name)) is float})
    return replace(config, **sections)


def test_numpy_scalar_config_evaluates_as_floats():
    """Reports, flags and searches do not depend on the float type of the inputs."""
    for path in (CONFIG_300NM, CONFIG_100NM):
        config = load_config(path)
        outputs = []
        for point in (config, _numpy_scalars(config)):
            derived, bundle, steady = evaluate(point)
            document = build_report(point, derived, bundle, steady)
            outputs.append((render_text(document), render_json(document),
                            json.dumps(document_to_dict(document)),
                            steady.flags.true_names()))
            spec = OptimizeSpec(base_config=point,
                                variables=("sphere.radius_nm", "cavity.finesse"),
                                bounds={"sphere.radius_nm": (50.0, 300.0),
                                        "cavity.finesse": (100.0, 2000.0)},
                                require=("ground_state",))
            result = optimize(spec)
            outputs.append((result.best_values, result.report.occupation, len(result.trace),
                            [entry["feasible"] for entry in result.trace]))
        assert outputs[:2] == outputs[2:]
        # flags evaluated on floats stay plain bools
        assert type(evaluate(config)[2].flags.ground_state) is bool
