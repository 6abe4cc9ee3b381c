"""The config section classes, the pipeline's frozen records and `set_si`'s
config copies.

The section classes are built from the key registry: their fields, order and
defaults are checked against it, and configs built from them must survive
pickling, copying and hashing.

`build_config`, `derive`, `build_rate_bundle`, `steady_state` and `set_si`
build their frozen dataclasses with `levicool.numeric.frozen_record`,
without the generated ``__init__``. These check that every record they
build is complete and behaves as one built by ``__init__``, that
`build_config` and `set_si` give what the constructors and
`dataclasses.replace` give, and that neither loading, evaluation nor
`set_value` calls a generated ``__init__``.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from levicool import (AtomEnsemble, Cavity, DerivedSystem, Environment,
                      FeedbackReadout, LatticeBeam, NoiseBudget, RateBundle,
                      RegimeFlags, Sphere, SteadyStateReport, SystemConfig,
                      TweezerBeam, evaluate, load_config, set_value, sweep)
from levicool.configfile import (DEFAULTS, KEYS, KIND_BOOL, KIND_MODE, build_config,
                                 config_items, parse_config_text, set_si)
from levicool.system import SECTIONS as SECTION_CLASSES

from conftest import CONFIG_100NM, CONFIG_300NM, make_random_config

SECTIONS = (Sphere, Cavity, LatticeBeam, TweezerBeam, AtomEnsemble, Environment,
            NoiseBudget, FeedbackReadout)
RECORDS = (DerivedSystem, RateBundle, SteadyStateReport, RegimeFlags)

#: a config with every optional rate input set, so no record field is None
OPTIONALS = (("noise.intensity_psd_per_hz", 1e-8), ("noise.pointing_psd_m2_per_hz", 1e-30),
             ("noise.mean_square_position_m2", 1e-18), ("cavity.detection_power_uw", 5.0),
             ("feedback.intracavity_photons", 1e4),
             ("feedback.measurement_linewidth_2pi_hz", 1e6))

POINTS = {
    "300nm": (CONFIG_300NM,),
    "100nm": (CONFIG_100NM,),
    "300nm-no-gas": (CONFIG_300NM, ("env.pressure_torr", 0.0)),
    "300nm-first-principles": (CONFIG_300NM, ("mode", "first-principles")),
    "300nm-first-principles-depth": (CONFIG_300NM, ("mode", "first-principles"),
                                     ("lattice.depth_recoils", 30.0)),
    "300nm-optionals": (CONFIG_300NM, *OPTIONALS),
}


@pytest.mark.parametrize("section", list(SECTION_CLASSES))
def test_section_fields_are_the_registry_keys(section):
    """One field per key under the section, in registry order, defaulting to
    the key's SI default exactly when the key is not required."""
    cls = SECTION_CLASSES[section]
    specs = [spec for spec in KEYS if spec.path[0] == section]
    fields = dataclasses.fields(cls)
    assert [field.name for field in fields] == [spec.path[1] for spec in specs]
    for field, spec in zip(fields, specs):
        assert (field.default is dataclasses.MISSING) == spec.required, spec.name
        if not spec.required:
            assert field.default is DEFAULTS[spec.name], spec.name
        assert spec.name in cls.__doc__
    assert cls.__module__ == "levicool.system"
    assert cls.__dataclass_params__.frozen


def test_section_classes_are_the_config_sections():
    assert list(SECTION_CLASSES.values()) == list(SECTIONS)
    assert [field.name for field in dataclasses.fields(SystemConfig)] == [
        *SECTION_CLASSES, "mode"]


def test_lattice_fields_follow_the_registry():
    assert [field.name for field in dataclasses.fields(LatticeBeam)] == [
        "wavelength", "reference_wavelength", "power", "waist", "depth_recoils"]


def test_sections_build_with_only_their_required_keys():
    assert Cavity() == Cavity(length=0.05, finesse=400.0, waist=DEFAULTS["cavity.waist_um"])
    assert Environment().mean_speed == Environment(pressure=0.0).mean_speed > 0
    with pytest.raises(TypeError):
        Sphere()
    with pytest.raises(TypeError):
        AtomEnsemble()


def _hand_built():
    return SystemConfig(
        sphere=Sphere(radius=150e-9), cavity=Cavity(finesse=800.0),
        lattice=LatticeBeam(power=50e-6), tweezer=TweezerBeam(),
        atoms=AtomEnsemble(count=5e7, axial_frequency=2.8e5), environment=Environment(),
        noise=NoiseBudget(intensity_psd=1e-8), feedback=FeedbackReadout())


@pytest.mark.parametrize("make", [lambda: load_config(CONFIG_300NM), _hand_built],
                         ids=["loaded", "hand-built"])
def test_config_round_trips(make):
    config = make()
    for copied in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config),
                   dataclasses.replace(config)):
        assert copied == config and copied is not config
        assert hash(copied) == hash(config)
        assert repr(copied) == repr(config)
        assert type(copied.environment) is Environment
    assert evaluate(pickle.loads(pickle.dumps(config))) == evaluate(config)


def _constructed(values):
    """What `build_config` gives for raw key-unit `values`, built by the
    generated ``__init__`` of each section and of `SystemConfig`."""
    sections = {}
    for spec in KEYS:
        value = spec.to_si(values.get(spec.name, spec.default))
        if spec.kind == KIND_MODE:
            mode = value
        else:
            sections.setdefault(spec.path[0], {})[spec.path[1]] = value
    return SystemConfig(**{section: SECTION_CLASSES[section](**fields)
                           for section, fields in sections.items()}, mode=mode)


def _raw_values(source):
    if isinstance(source, int):   # a random design, read back in key units
        config = make_random_config(np.random.default_rng(source))
        return {key: value for key, value in config_items(config) if value is not None}
    with open(source, encoding="utf-8") as file:
        return parse_config_text(file.read())


@pytest.mark.parametrize("source", [CONFIG_300NM, CONFIG_100NM, *range(8)],
                         ids=["300nm", "100nm", *[f"random-{seed}" for seed in range(8)]])
def test_built_config_behaves_as_a_constructed_one(source):
    values = _raw_values(source)
    built, constructed = build_config(values), _constructed(values)
    assert built == constructed and constructed == built
    assert hash(built) == hash(constructed)
    assert repr(built) == repr(constructed)
    assert _snapshot(built) == _snapshot(constructed)
    assert list(vars(built)) == list(vars(constructed))
    for config in (built, *vars(built).values()):
        if dataclasses.is_dataclass(config):
            _assert_complete(config)
    for copied in (pickle.loads(pickle.dumps(built)), dataclasses.replace(built)):
        assert copied == constructed and type(copied) is SystemConfig
        assert hash(copied) == hash(constructed) and repr(copied) == repr(constructed)
    assert (dataclasses.replace(built, cavity=dataclasses.replace(built.cavity, finesse=1e3))
            == dataclasses.replace(constructed, cavity=dataclasses.replace(
                constructed.cavity, finesse=1e3)))
    assert evaluate(built) == evaluate(constructed)


def _point(path, *settings):
    config = load_config(path)
    for key, value in settings:
        config = set_value(config, key, value)
    return config


def _records(derived, bundle, report):
    return derived, bundle, report, report.flags


def _assert_complete(record):
    names = [field.name for field in dataclasses.fields(record)]
    assert list(vars(record)) == names
    copy = dataclasses.replace(record)   # built by the generated __init__
    assert copy == record and record == copy
    assert repr(copy) == repr(record)
    try:
        expected = hash(copy)
    except TypeError:                    # a grid pass holds arrays
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("name", list(POINTS))
def test_point_records_are_complete(name):
    records = _records(*evaluate(_point(*POINTS[name])))
    assert [type(record) for record in records] == list(RECORDS)
    for record in records:
        _assert_complete(record)
    if name == "300nm-optionals":
        assert None not in vars(records[1]).values()
        assert records[3].feedback_ground_state_feasible is not None


def test_grid_records_are_complete(config_300nm, monkeypatch):
    passes = []

    def recording(config, *violations):
        passes.append(evaluate(config, *violations))
        return passes[-1]

    monkeypatch.setattr(sweep, "evaluate", recording)
    axes = {"sphere.radius_nm": np.array([60e-9, 150e-9, 400e-9]),
            "atoms.count": np.array([1e5, 1e6, 5e7, 1e9])}
    sweep.evaluate_grid(config_300nm, axes)
    assert len(passes) == 1
    assert isinstance(passes[0][0].sphere_volume, np.ndarray)
    config = passes[0][0].config       # built by `set_si` from the axes
    for record in (*_records(*passes[0]), config, config.sphere, config.atoms):
        _assert_complete(record)


def _raw_value(spec):
    if spec.kind == KIND_MODE:
        return "first-principles"
    if spec.kind == KIND_BOOL:
        return True
    return 7.5


def _snapshot(config):
    return {name: dict(vars(value)) if dataclasses.is_dataclass(value) else value
            for name, value in vars(config).items()}


@pytest.mark.parametrize("path", [CONFIG_300NM, CONFIG_100NM], ids=["300nm", "100nm"])
@pytest.mark.parametrize("spec", KEYS, ids=[spec.name for spec in KEYS])
def test_set_si_matches_replace(path, spec):
    config = load_config(path)
    before = _snapshot(config)
    raw = _raw_value(spec)
    value = spec.to_si(raw)
    section = spec.path[0]
    if spec.kind == KIND_MODE:
        expected = dataclasses.replace(config, mode=value)
    else:
        part = dataclasses.replace(getattr(config, section), **{spec.path[1]: value})
        expected = dataclasses.replace(config, **{section: part})
    for result in (set_si(config, spec.name, value), set_value(config, spec.name, raw)):
        assert result == expected and type(result) is SystemConfig
        assert _snapshot(result) == _snapshot(expected)
        assert list(vars(result)) == list(vars(expected))
        for name in vars(config):
            if name != section:
                assert getattr(result, name) is getattr(config, name)
        assert _snapshot(config) == before
        _assert_complete(result)
        if spec.kind != KIND_MODE:
            _assert_complete(getattr(result, section))


def _refuse(*args, **kwargs):
    raise AssertionError("a generated __init__ ran")


@pytest.mark.parametrize("path", [CONFIG_300NM, CONFIG_100NM], ids=["300nm", "100nm"])
def test_no_generated_init_per_evaluation(path, monkeypatch):
    config = load_config(path)
    expected = evaluate(config)
    for cls in (*RECORDS, *SECTIONS, SystemConfig):
        monkeypatch.setattr(cls, "__init__", _refuse)
    assert load_config(path) == config
    assert evaluate(config) == expected
    for spec in KEYS:
        set_value(config, spec.name, _raw_value(spec))
    evaluate(set_value(config, "sphere.radius_nm", 250.0))
