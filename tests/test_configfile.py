"""Config-file grammar: parsing, defaults, errors, programmatic access."""

import math

import pytest

from levicool import (ConfigError, TWO_PI, build_config, config_items,
                      get_value, parse_config_text, set_value)

from conftest import CONFIG_300NM


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
