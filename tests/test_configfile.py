"""Config-file grammar: parsing, defaults, errors, programmatic access."""

import math
import os
from dataclasses import MISSING, fields, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levicool import (ConfigError, InvalidGeometryError, SingularConfigurationError,
                      SystemConfig, TWO_PI, build_config, config_items, derive,
                      evaluate, get_value, load_config, parse_config_text, set_value)
from levicool.configfile import (GEOMETRY, KEYS, KIND_FLOAT, MODES, SINGULAR, VALUE,
                                  check_rules, read_number, validate_config)
from levicool.sweep import OptimizeSpec

from conftest import CONFIG_100NM, CONFIG_300NM, make_random_config

_FLOAT_KEYS = tuple(spec.name for spec in KEYS if spec.kind == KIND_FLOAT)


class TestParsing:
    def test_reference_file_round_trip(self, config_300nm):
        assert config_300nm.sphere.radius == pytest.approx(150e-9, rel=1e-12)
        assert config_300nm.cavity.length == pytest.approx(0.05, rel=1e-12)
        assert config_300nm.cavity.finesse == 400.0
        assert config_300nm.lattice.power == pytest.approx(62e-6, rel=1e-12)
        assert config_300nm.atoms.count == 5e7
        assert float(config_300nm.atoms.axial_frequency) == pytest.approx(
            TWO_PI * 45e3, rel=1e-12)
        assert config_300nm.environment.pressure == pytest.approx(
            1e-10 * 133.322, rel=1e-12)
        assert config_300nm.mode == "paper-anchored"

    def test_comments_and_blank_lines(self):
        text = """
        # leading comment
        sphere.radius_nm = 100   # trailing comment

        atoms.count = 1e6
        """
        values = parse_config_text(text)
        assert values == {"sphere.radius_nm": 100.0, "atoms.count": 1e6}

    def test_unknown_key_reports_line_number(self):
        text = "sphere.radius_nm = 100\nsphere.colour = blue\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text, source="test.cfg")
        message = str(excinfo.value)
        assert "test.cfg:2" in message
        assert "sphere.colour" in message

    def test_bad_number_reports_key(self):
        with pytest.raises(ConfigError, match="atoms.count"):
            parse_config_text("atoms.count = many\n")

    def test_decimal_comma_rejected(self):
        with pytest.raises(ConfigError, match="decimal commas"):
            parse_config_text("sphere.radius_nm = 1,5\n")

    @pytest.mark.parametrize("raw", ["1_50", "\u0663\u0660\u0660"])
    def test_only_ascii_decimal_numbers_accepted(self, raw):
        # float() reads both of these (as 150 and 300)
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(f"atoms.count = 1\nsphere.radius_nm = {raw}\n",
                              source="test.cfg")
        assert excinfo.value.violations == [
            f"test.cfg:2: expected a number for 'sphere.radius_nm', got {raw!r}"]

    @pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff16", "6.0", "1e3", "six", ""])
    def test_integers_are_ascii_decimal(self, text):
        # int() reads the first three (as 10, 3 and 6)
        with pytest.raises(ValueError):
            read_number(text, int)

    @pytest.mark.parametrize("text, value", [("26", 26), ("+6", 6), ("-3", -3), ("007", 7)])
    def test_integer_forms_parse(self, text, value):
        assert read_number(text, int) == value

    @pytest.mark.parametrize("raw, value", [
        ("45e3", 45e3), ("1E-10", 1e-10), ("-0.5", -0.5), (".5", 0.5), ("5.", 5.0),
    ])
    def test_float_forms_still_parse(self, raw, value):
        assert parse_config_text(f"sphere.radius_nm = {raw}\n") == {"sphere.radius_nm": value}

    @pytest.mark.parametrize("raw", ["inf", "-Infinity", "nan", "1e999"])
    def test_non_finite_numbers_rejected_as_such(self, raw):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config_text(f"sphere.radius_nm = {raw}\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("atoms.count = 1\natoms.count = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("atoms.count 5\n")

    def test_all_errors_collected(self):
        text = "bogus.key = 1\natoms.count = many\n"
        with pytest.raises(ConfigError) as excinfo:
            parse_config_text(text)
        assert len(excinfo.value.violations) == 2

    def test_boolean_values(self):
        values = parse_config_text("noise.include_in_occupation = true\n")
        assert values["noise.include_in_occupation"] is True
        with pytest.raises(ConfigError):
            parse_config_text("noise.include_in_occupation = maybe\n")

    def test_mode_values(self):
        values = parse_config_text("mode = first-principles\n")
        assert values["mode"] == "first-principles"
        with pytest.raises(ConfigError):
            parse_config_text("mode = guesswork\n")


class TestReadingFiles:
    """`load_config` reads UTF-8 bytes and splits lines as `str.splitlines` does."""

    @pytest.mark.parametrize("reference", [CONFIG_300NM, CONFIG_100NM],
                             ids=lambda path: path.stem)
    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_load_to_the_equal_config(self, tmp_path, reference, line_end):
        data = reference.read_bytes()
        assert b"\r" not in data
        copy = tmp_path / "copy.cfg"
        copy.write_bytes(data.replace(b"\n", line_end))
        assert load_config(copy) == load_config(reference)

    def test_unknown_key_in_crlf_file_reports_its_line(self, tmp_path):
        path = tmp_path / "crlf.cfg"
        path.write_bytes(b"sphere.radius_nm = 100\r\natoms.count = 5e7\r\n"
                         b"sphere.colour = blue\r\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.violations == [f"{path}:3: unknown key 'sphere.colour'"]

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "two_boms.cfg"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + CONFIG_300NM.read_bytes())
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert excinfo.value.violations == [f"{path}:1: expected 'key = value'"]

    def test_bytes_path_named_as_text(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"sphere.colour = blue\n")
        with pytest.raises(ConfigError) as excinfo:
            load_config(os.fsencode(path))
        assert excinfo.value.violations == [f"{path}:1: unknown key 'sphere.colour'"]

    def test_file_descriptor_refused(self):
        fd = os.open(CONFIG_300NM, os.O_RDONLY)
        try:
            with pytest.raises(TypeError):
                load_config(fd)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)


class TestBuildConfig:
    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError) as excinfo:
            build_config({})
        message = str(excinfo.value)
        assert "sphere.radius_nm" in message
        assert "atoms.count" in message

    def test_defaults_applied(self):
        config = build_config({"sphere.radius_nm": 100.0, "atoms.count": 1e7,
                               "atoms.axial_frequency_2pi_hz": 45e3})
        assert config.sphere.density == 2200.0
        assert config.cavity.finesse == 400.0
        assert config.lattice.wavelength == pytest.approx(780.74e-9, rel=1e-12)
        assert config.noise.include_in_occupation is False
        assert config.feedback.intracavity_photons is None


class TestProgrammaticAccess:
    def test_get_value_in_key_units(self, config_300nm):
        assert get_value(config_300nm, "sphere.radius_nm") == pytest.approx(
            150.0, rel=1e-12)
        assert get_value(config_300nm, "env.pressure_torr") == pytest.approx(
            1e-10, rel=1e-12)
        assert get_value(config_300nm, "atoms.axial_frequency_2pi_hz") == \
            pytest.approx(45e3, rel=1e-12)
        assert get_value(config_300nm, "lattice.depth_recoils") is None

    def test_set_value_round_trips(self, config_300nm):
        updated = set_value(config_300nm, "sphere.radius_nm", 75.0)
        assert updated.sphere.radius == pytest.approx(75e-9, rel=1e-12)
        assert get_value(updated, "sphere.radius_nm") == pytest.approx(75.0,
                                                                       rel=1e-12)
        # the source config is untouched
        assert config_300nm.sphere.radius == pytest.approx(150e-9, rel=1e-12)

    def test_set_value_angular_keys(self, config_300nm):
        updated = set_value(config_300nm, "atoms.cooling_rate_2pi_hz", 6.5e3)
        assert float(updated.atoms.cooling_rate) == pytest.approx(TWO_PI * 6.5e3,
                                                                  rel=1e-12)

    def test_unknown_key_rejected(self, config_300nm):
        with pytest.raises(ConfigError):
            set_value(config_300nm, "sphere.colour", 1.0)
        with pytest.raises(ConfigError):
            get_value(config_300nm, "sphere.colour")

    def test_config_items_covers_registry(self, config_300nm):
        items = dict(config_items(config_300nm))
        assert items["sphere.radius_nm"] == pytest.approx(150.0, rel=1e-12)
        assert items["mode"] == "paper-anchored"
        assert items["noise.intensity_psd_per_hz"] is None

    def test_reference_file_parses_cleanly(self):
        text = CONFIG_300NM.read_text(encoding="utf-8")
        values = parse_config_text(text, source=str(CONFIG_300NM))
        config = build_config(values)
        assert math.isclose(config.tweezer.power, 0.46, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# the key registry: one source of defaults and constraints

_SECTIONS = get_type_hints(SystemConfig)


def _field_default(spec):
    """The default of the dataclass field a key sets (MISSING if it has none)."""
    owner = SystemConfig if len(spec.path) == 1 else _SECTIONS[spec.path[0]]
    return {f.name: f.default for f in fields(owner)}[spec.path[-1]]


def _resolved(config, spec):
    node = config
    for attr in spec.path:
        node = getattr(node, attr)
    return node


#: keys a config file may omit and a hand-built dataclass may leave out
_DEFAULTED = [spec for spec in KEYS
              if spec.default is not None and _field_default(spec) is not MISSING]


class TestRegistryDefaults:
    @pytest.mark.parametrize("spec", _DEFAULTED, ids=lambda spec: spec.name)
    def test_omitted_key_and_dataclass_default_agree_bit_for_bit(self, spec):
        from_file = _resolved(build_config({"sphere.radius_nm": 150.0, "atoms.count": 5e7}),
                              spec)
        hand_built = _field_default(spec)
        assert type(from_file) is type(hand_built)
        if isinstance(from_file, float):
            assert from_file.hex() == hand_built.hex()
        else:
            assert from_file == hand_built

    def test_defaulted_fields_include_the_reference_line(self):
        names = {spec.name for spec in _DEFAULTED}
        assert {"lattice.reference_wavelength_nm", "atoms.mass_amu", "env.gas_mass_amu",
                "env.temperature_k", "sphere.density_kg_m3", "mode"} <= names

    def test_grid_keys_are_the_optimizable_keys(self, config_300nm):
        """A search may vary every float key, and no other key."""
        for spec in KEYS:
            variables, bounds = (spec.name,), {spec.name: (1.0, 2.0)}
            if spec.kind == KIND_FLOAT:
                assert OptimizeSpec(config_300nm, variables, bounds).variables == variables
            else:
                with pytest.raises(ConfigError, match=f"^'{spec.name}' is not a numeric key$"):
                    OptimizeSpec(config_300nm, variables, bounds)


#: a value in key units that breaks each constraint
_BREAKING = {"> 0": 0.0, ">= 0": -1.0, "> 1": 1.0, "in (0, 1]": 0.0,
             f"one of {MODES}": "guesswork"}
#: a value that breaks each checked quantity: a temperature so low that
#: the gas mean speed underflows to 0
_BREAKING_QUANTITY = {"mean_speed": 1e-310}
_ERRORS = {GEOMETRY: InvalidGeometryError, SINGULAR: SingularConfigurationError,
           VALUE: ConfigError}


def _broken_checks():
    for spec in KEYS:
        for check in spec.checks:
            raw = (_BREAKING_QUANTITY[check.quantity] if check.quantity
                   else _BREAKING[check.constraint])
            yield pytest.param(spec.name, raw, _ERRORS[check.failure],
                               id=f"{spec.name}:{check.label}")


class TestViolationsNameTheirKey:
    @pytest.mark.parametrize("key, raw, error", list(_broken_checks()))
    def test_each_check(self, config_300nm, key, raw, error):
        with pytest.raises(error) as excinfo:
            derive(set_value(config_300nm, key, raw))
        assert type(excinfo.value) is error
        assert f"{key}: " in str(excinfo.value)

    def test_checks_are_listed_in_registry_order(self, config_300nm):
        """With every checked key broken at once, `validate_config` lists each
        key's first check in `KEYS` order, then the rules that tie keys."""
        config, expected = config_300nm, []
        for spec in KEYS:
            if spec.checks:
                check = spec.checks[0]
                config = set_value(config, spec.name, _BREAKING[check.constraint])
                expected.append((spec.name, check.failure, f"{check.label} must be "
                                 f"{check.constraint}" + " when set" * check.when_set))
        found = validate_config(config)
        assert found[:len(expected)] == expected
        assert found[len(expected):] == check_rules(config)

    @pytest.mark.parametrize("key", ["cavity.coupling_efficiency",
                                     "cavity.path_transmittivity"])
    def test_nan_fraction_names_its_key(self, config_300nm, key):
        with pytest.raises(ConfigError, match=f"^{key}: .* must be in \\(0, 1\\]$"):
            derive(set_value(config_300nm, key, math.nan))

    @pytest.mark.parametrize("changes, key, error", [
        ({"lattice.wavelength_nm": 780.0}, "lattice.wavelength_nm",
         SingularConfigurationError),
        ({"lattice.depth_recoils": 18.0}, "lattice.depth_recoils", ConfigError),
        ({"atoms.axial_frequency_2pi_hz": None}, "atoms.axial_frequency_2pi_hz", ConfigError),
        ({"noise.pointing_psd_m2_per_hz": 1e-30}, "noise.mean_square_position_m2",
         ConfigError),
        ({"env.pressure_torr": 0.0, "feedback.intracavity_photons": 1e8},
         "feedback.intracavity_photons", SingularConfigurationError),
        ({"atoms.cooling_rate_2pi_hz": 0.0}, "atoms.cooling_rate_2pi_hz",
         SingularConfigurationError),
    ], ids=["red-detuning", "depth-override", "anchor", "pointing-noise", "feedback-gas",
            "zero-atom-cooling"])
    def test_each_cross_key_rule(self, config_300nm, changes, key, error):
        config = config_300nm
        for name, raw in changes.items():
            config = set_value(config, name, raw)
        with pytest.raises(error) as excinfo:
            derive(config)
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"{key}: ")

    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    @pytest.mark.parametrize("mode", MODES)
    def test_nan_names_its_key(self, config_300nm, mode, key):
        """A NaN set in code, which no config file can hold, either goes unused
        or fails naming its key, on a design that uses every optional key."""
        config = config_300nm
        for name, raw in (("mode", mode), ("noise.intensity_psd_per_hz", 1e-8),
                          ("noise.pointing_psd_m2_per_hz", 1e-30),
                          ("noise.mean_square_position_m2", 1e-18),
                          ("feedback.intracavity_photons", 1e6)):
            config = set_value(config, name, raw)
        try:
            evaluate(set_value(config, key, math.nan))
        except (ValueError, ArithmeticError) as exc:
            assert str(exc).startswith(f"{key}: ")
            assert isinstance(exc, (ConfigError, SingularConfigurationError))

    def test_cross_key_rules_follow_the_mode(self, config_300nm):
        config = set_value(set_value(config_300nm, "atoms.axial_frequency_2pi_hz", None),
                           "lattice.depth_recoils", 18.0)
        with pytest.raises(ConfigError) as excinfo:
            derive(config)
        assert len(excinfo.value.violations) == 2
        derive(set_value(config, "mode", "first-principles"))


def config_file_text(config: SystemConfig) -> str:
    """A config file stating every set key of `config`, in key units."""
    return "".join(f"{key} = {value if isinstance(value, str) else repr(value)}\n"
                   for key, value in config_items(config) if value is not None)


def read_config_text(text: str) -> SystemConfig:
    """What `load_config` builds from a file holding `text`."""
    return build_config(parse_config_text(text))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MODES))
def test_config_text_round_trip_is_the_identity(seed, mode):
    """config -> config_items -> config text -> load_config gives the config back.

    The designed point is first stated as a config file: a float built in SI
    units, such as 1550e-9 m, can lie between the SI values that any
    key-unit float reaches (1550 nm gives 1.5500000000000002e-06 m), so only
    configs a file can state can come back exactly. Their key-unit values
    are the designed ones.
    """
    designed = replace(make_random_config(np.random.default_rng(seed)), mode=mode)
    config = read_config_text(config_file_text(designed))
    assert config_items(config) == config_items(designed)
    assert read_config_text(config_file_text(config)) == config
