"""Reports: the resolved config, derived quantities, rates, and steady
state, rendered as text or JSON with identical values.

`build_report` returns a `Report`: a dict of the five sections `config`,
`derived`, `rates`, `steady_state` and `provenance`, in that order, each a
tuple of `ReportRow`. `render_text` and `render_json` take it.

Display rule: a number is rounded to 4 significant digits (the correctly
rounded `%.3e`), and the rounded value picks the notation, fixed in
[1e-2, 1e4) and scientific outside it: 9999.7 shows as `1.000e+04`, 99.9996
as `100.0`, 0.0099996 as `0.01000`, a value rounding past the largest float
as `inf`, zero as `0`. Angular rates are displayed in the "2 pi x ... Hz"
style; the JSON mirror carries the same rounded numbers under keys suffixed
with their unit. `build_report` formats each number once.
"""

from __future__ import annotations

import math
from functools import partial
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .configfile import config_items
from .constants import to_display_hz
from .rates import RateBundle
from .steady_state import FLAG_NAMES, SteadyStateReport
from .system import DerivedSystem, SystemConfig


#: the exponent (last 3 characters) of `%.3e` text in [1e-2, 1e4) -> fixed decimals
_FIXED_DECIMALS = {"-02": 5, "-01": 4, "+00": 3, "+01": 2, "+02": 1, "+03": 0}


def display_quantity(value: float) -> tuple[float, str]:
    """The rounded float a report shows for `value`, and its text (see module doc)."""
    rounded = "%.3e" % value
    shown = float(rounded)
    if shown == 0:
        return 0.0, "0"
    decimals = _FIXED_DECIMALS.get(rounded[-3:])
    if decimals is not None:
        return shown, "%.*f" % (decimals, value)
    if math.isinf(shown):  # inf itself, or rounded past the largest float
        return shown, repr(shown)
    return shown, rounded


class ReportRow(NamedTuple):
    name: str
    value: object          # display-rounded float, bool, str, or None
    text: str              # the value as the text report shows it, unit included
    key: str               # JSON key: the name, suffixed with "_2pi_hz" for rates


#: builds a row without the Python-level `__new__` a NamedTuple call runs
_row = partial(tuple.__new__, ReportRow)
_FLAG_TEXT = {True: "true", False: "false", None: "n/a"}

#: the sections of a report, in order, each a tuple of rows
Report = dict[str, tuple[ReportRow, ...]]


def _num_row(name: str, value: float, unit: str = "") -> ReportRow:
    shown, text = display_quantity(value)
    return _row((name, shown, f"{text} {unit}" if unit else text, name))


def _rate_row(name: str, value: float) -> ReportRow:
    shown, text = display_quantity(to_display_hz(value))
    return _row((name, shown, f"2pi x {text} Hz", f"{name}_2pi_hz"))


def _plain_row(name: str, value: object) -> ReportRow:
    """A str, bool or None (unconfigured) row; a flag computed from numpy
    scalars is a numpy bool, shown and written as a bool."""
    if isinstance(value, str):
        return _row((name, value, value, name))
    value = None if value is None else bool(value)
    return _row((name, value, _FLAG_TEXT[value], name))


def build_report(config: SystemConfig, derived: DerivedSystem,
                 bundle: RateBundle, steady: SteadyStateReport) -> Report:
    config_rows = [_plain_row(key, value) if isinstance(value, (bool, str))
                   else _num_row(key, value)
                   for key, value in config_items(config) if value is not None]

    derived_rows = (
        _num_row("sphere_volume", derived.sphere_volume, "m^3"),
        _num_row("sphere_mass", derived.sphere_mass, "kg"),
        _num_row("cavity_mode_volume", derived.mode_volume, "m^3"),
        _rate_row("cavity_linewidth", derived.cavity_linewidth),
        _rate_row("lattice_frequency", derived.lattice_frequency),
        _rate_row("lattice_detuning", derived.detuning),
        _num_row("photon_flux_amplitude", derived.flux_amplitude),
        _num_row("lattice_input_intensity", derived.lattice_input_intensity, "W/m^2"),
        _num_row("lattice_circulating_intensity",
                 derived.lattice_circulating_intensity, "W/m^2"),
        _num_row("lattice_depth", derived.lattice_depth, "J"),
        _num_row("lattice_depth_recoils", derived.lattice_depth_recoils),
        _num_row("atom_recoil_energy", derived.recoil_energy, "J"),
        _rate_row("atom_axial_frequency", derived.atom_frequency),
        _rate_row("atom_radial_frequency", derived.atom_radial_frequency),
        _rate_row("sphere_frequency", derived.sphere_frequency),
        _num_row("atom_oscillator_length", derived.atom_oscillator_length, "m"),
        _num_row("sphere_oscillator_length", derived.sphere_oscillator_length, "m"),
        _num_row("tweezer_intensity", derived.tweezer_intensity, "W/m^2"),
        _rate_row("sphere_recoil_frequency_trap", derived.sphere_recoil_trap),
        _rate_row("sphere_recoil_frequency_lattice", derived.sphere_recoil_lattice),
        _num_row("gas_mean_speed", derived.gas_mean_speed, "m/s"),
        _num_row("thermal_occupation", derived.thermal_occupation),
        _num_row("quality_factor", derived.quality_factor),
    )

    rate_rows = [
        _rate_row("atom_light_coupling", bundle.coupling_atom),
        _rate_row("sphere_light_coupling", bundle.coupling_sphere),
        _rate_row("atom_sphere_coupling", bundle.coupling),
        _rate_row("atom_cooling", bundle.atom_cooling),
        _rate_row("sympathetic_cooling", bundle.cooling),
        _rate_row("atom_diffusion_heating", bundle.atom_diffusion),
        _rate_row("backaction_heating", bundle.sphere_backaction),
        _rate_row("recoil_heating", bundle.sphere_recoil),
        _rate_row("gas_damping", bundle.gas_damping),
        _rate_row("thermalization", bundle.thermalization),
        _rate_row("intensity_noise_heating", bundle.intensity_noise),
        _rate_row("pointing_noise_heating", bundle.pointing_noise),
        _rate_row("cavity_linewidth", bundle.cavity_linewidth),
        _num_row("trap_scatter_rate", bundle.scatter_trap, "1/s"),
        _num_row("lattice_scatter_rate", bundle.scatter_lattice, "1/s"),
    ]
    if bundle.sensitivity_floor is not None:
        rate_rows.append(_num_row("displacement_floor", bundle.sensitivity_floor,
                                  "m/sqrt(Hz)"))
    if bundle.cooperativity is not None:
        rate_rows.append(_num_row("feedback_cooperativity", bundle.cooperativity))

    steady_rows = [
        _num_row("occupation", steady.occupation),
        _num_row("term_cooling_balance", steady.term_cooling_balance),
        _num_row("term_atom_cooling_limit", steady.term_atom_cooling_limit),
        _num_row("term_atom_diffusion_limit", steady.term_atom_diffusion_limit),
        _num_row("strong_coupling_ratio", steady.strong_coupling_ratio),
    ]
    steady_rows += [_plain_row(flag, getattr(steady.flags, flag)) for flag in FLAG_NAMES]

    provenance_rows = (
        _plain_row("mode", config.mode),
        _plain_row("units", "SI internally; angular rates in rad/s, shown as 2pi x Hz"),
        _plain_row("generator", f"levicool {__version__}"),
    )

    return {
        "config": tuple(config_rows),
        "derived": derived_rows,
        "rates": tuple(rate_rows),
        "steady_state": tuple(steady_rows),
        "provenance": provenance_rows,
    }


def render_text(report: Report) -> str:
    lines = []
    for title, rows in report.items():
        lines.append(f"[{title}]")
        width = max((len(row.name) for row in rows), default=0)
        lines += [f"{name.ljust(width)} = {text}" for name, _, text, _ in rows]
        lines.append("")
    return "\n".join(lines)


def _json_text(value: object, pad: str) -> str:
    """`value` as `json.dumps(value, indent=2)` lays it out at indent `pad`."""
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, tuple):  # report rows
        pairs = [(key, row_value) for _, row_value, _, key in value]
    else:
        pairs = value.items()
    inner = pad + "  "
    members = ",\n".join([f"{inner}{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                          for key, item in pairs])
    return f"{{\n{members}\n{pad}}}" if members else "{}"


def render_json(payload: dict) -> str:
    """`payload`, a report or a dict of scalars, dicts, reports and report rows,
    laid out as by `json.dumps(indent=2)` plus a newline. A non-finite float (`inf`
    in the text report) is written as null, so the text is strict RFC 8259 JSON."""
    return _json_text(payload, "") + "\n"
