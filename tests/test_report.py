"""Report layer: pinned reference outputs, the one-pass display rule against
the two-pass formatter it replaced, and the JSON writer against `json.dumps`."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from levicool import (FeedbackReadout, InvalidGeometryError, NoiseBudget,
                      SingularConfigurationError, evaluate, load_config)
from levicool.report import (ReportRow, build_report, display_quantity, render_json,
                             render_text)

from conftest import CONFIG_DIR, document_to_dict, make_random_config

#: sha256 of the reports of the two reference configs, as `levicool report` writes them
REFERENCE_SHA256 = {
    ("table1_300nm", "text"): "d57941682f35037364a6667a84f3c2355a3a71be8491c8c2c406c5609a9c01d2",
    ("table1_300nm", "json"): "fc2b98dde52c2785be2b32495ff7c91f5caef030268d649628cce1e4bac12194",
    ("table1_100nm", "text"): "294f7a4b27b321e3d71a8267a1f62350023160c970af9e0dce80542996e62430",
    ("table1_100nm", "json"): "5a10978f0dd3a1b8aace37990116cf0d9c528dedf72a656f4f9b823cd31540b0",
}


@pytest.mark.parametrize("name, fmt", sorted(REFERENCE_SHA256))
def test_reference_report_bytes_are_pinned(name, fmt):
    config = load_config(CONFIG_DIR / f"{name}.cfg")
    document = build_report(config, *evaluate(config))
    rendered = render_text(document) if fmt == "text" else render_json(document)
    assert hashlib.sha256(rendered.encode()).hexdigest() == REFERENCE_SHA256[name, fmt]


SECTIONS = ("config", "derived", "rates", "steady_state", "provenance")


def test_report_is_its_sections_in_order(config_300nm, pipeline_300nm):
    document = build_report(config_300nm, *pipeline_300nm)
    assert tuple(document) == SECTIONS
    for rows in document.values():
        assert type(rows) is tuple and rows
        assert all(type(row) is ReportRow for row in rows)


# ---------------------------------------------------------------------------
# the display rule: one pass equals rounding, then formatting the rounded value


def _format_unrounded(value):
    """The report's formatter before rows were formatted once (decimals clamped at 0)."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e4 or magnitude < 1e-2:
        return f"{value:.3e}"
    decimals = max(0, 3 - int(math.floor(math.log10(magnitude))))
    return f"{value:.{decimals}f}"


def two_pass_display(value):
    shown = float(_format_unrounded(value))
    return shown, _format_unrounded(shown)


def _ulps_away(value, steps):
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


#: values within a few ulp of 10^k, 9.9995 * 10^k (rounds up across a decade),
#: 0.99995 * 10^k and 5 * 10^k (a rounding tie in decimal)
near_decades = st.builds(
    lambda mantissa, exponent, steps, sign: sign * _ulps_away(
        float(f"{mantissa}e{exponent}"), steps),
    st.sampled_from(["1", "9.9995", "0.99995", "5"]), st.integers(-325, 309),
    st.integers(-4, 4), st.sampled_from([1.0, -1.0]))
subnormals = st.builds(lambda n, sign: sign * n * 5e-324,
                       st.integers(1, 2**52 - 1), st.sampled_from([1.0, -1.0]))
named_values = st.sampled_from([
    0.0, -0.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
    -1.7976931348623157e308, 9999.7, 99.9996, 0.0099996, 9999.999999999998])


@pytest.mark.parametrize("value, shown, text", [
    (9999.7, 1e4, "1.000e+04"), (99.9996, 100.0, "100.0"), (0.0099996, 0.01, "0.01000"),
    (9999.999999999998, 1e4, "1.000e+04"), (1.7976931348623157e308, math.inf, "inf"),
    (-0.0, 0.0, "0"), (2200.0, 2200.0, "2200"), (-1.23456e-5, -1.235e-5, "-1.235e-05")])
def test_display_examples(value, shown, text):
    assert display_quantity(value) == (shown, text)


@settings(max_examples=1500)
@given(st.one_of(st.floats(), near_decades, subnormals, named_values))
def test_display_matches_two_pass_formatter(value):
    shown, text = display_quantity(value)
    want_shown, want_text = two_pass_display(value)
    assert text == want_text
    assert type(shown) is float
    assert shown == want_shown or (math.isnan(shown) and math.isnan(want_shown))


# ---------------------------------------------------------------------------
# the JSON writer: the bytes of json.dumps(indent=2), non-finite floats as null


def _plain(value):
    """`value` as plain JSON data: rows as dicts, non-finite floats None."""
    if isinstance(value, tuple):
        value = {row.key: row.value for row in value}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def assert_json_matches_dumps(payload):
    assert render_json(payload) == json.dumps(_plain(payload), indent=2,
                                              allow_nan=False) + "\n"


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from(["paper-anchored", "first-principles"]),
       detection=st.booleans(), feedback=st.booleans(), noise=st.booleans())
def test_json_writer_matches_json_dumps_on_design_points(seed, mode, detection,
                                                         feedback, noise):
    config = make_random_config(np.random.default_rng(seed))
    config = replace(config, mode=mode, cavity=replace(
        config.cavity, detection_power=1e-5 if detection else None))
    if feedback:
        config = replace(config, feedback=FeedbackReadout(intracavity_photons=1e6))
    if noise:
        config = replace(config, noise=NoiseBudget(
            intensity_psd=1e-8, pointing_psd=1e-30, mean_square_position=1e-18,
            include_in_occupation=True))
    try:
        pipeline = evaluate(config)
    except (InvalidGeometryError, SingularConfigurationError):
        reject()
    document = build_report(config, *pipeline)
    payload = document_to_dict(document)
    assert ("displacement_floor" in payload["rates"]) == detection
    assert ("feedback_cooperativity" in payload["rates"]) == feedback
    assert (payload["steady_state"]["feedback_ground_state_feasible"] is None) == (
        not feedback)
    assert_json_matches_dumps(document)


row_values = st.one_of(st.none(), st.booleans(), st.floats(), st.text())
rows = st.dictionaries(st.text(), row_values).map(
    lambda section: tuple(ReportRow(key, value, "", key) for key, value in section.items()))
documents = st.lists(rows, min_size=5, max_size=5).map(lambda sections: dict(zip(SECTIONS, sections)))
payloads = st.recursive(
    st.one_of(row_values, st.integers(), rows, documents),
    lambda children: st.dictionaries(st.text(), children), max_leaves=30)


@settings(max_examples=150)
@given(st.one_of(documents, st.dictionaries(st.text(), payloads)))
def test_json_writer_matches_json_dumps_on_any_rows(payload):
    """Any key text (quotes, controls, non-ASCII), non-finite floats, ints, empty
    sections and dicts, and documents and rows nested in dicts."""
    assert_json_matches_dumps(payload)

