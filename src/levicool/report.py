"""Report documents: the resolved config, derived quantities, rates, and
steady state, rendered as text or JSON with identical values.

All numbers are rounded to 4 significant digits (round-half-even through
the float formatter), switching to scientific notation at or above 1e4 and
below 1e-2, so golden outputs stay stable. Angular rates are displayed in
the "2 pi x ... Hz" style; the JSON mirror carries the same display numbers
under keys suffixed with their unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__
from .configfile import config_items
from .constants import to_display_hz
from .rates import RateBundle
from .steady_state import FLAG_NAMES, SteadyStateReport
from .system import DerivedSystem, SystemConfig


def format_quantity(value: float) -> str:
    """4 significant digits; scientific notation outside [1e-2, 1e4)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
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
    decimals = 3 - int(math.floor(math.log10(magnitude)))
    return f"{value:.{decimals}f}"


def display_number(value: float) -> float:
    """The float a report actually shows (value rounded to display precision)."""
    return float(format_quantity(value))


UNIT_2PI_HZ = "2pi_hz"


@dataclass(frozen=True)
class ReportRow:
    name: str
    value: object          # display-rounded float, bool, str, or None
    unit: str = ""


@dataclass(frozen=True)
class ReportDocument:
    """Deterministic snapshot of one full evaluation."""

    config_rows: tuple[ReportRow, ...]
    derived_rows: tuple[ReportRow, ...]
    rate_rows: tuple[ReportRow, ...]
    steady_rows: tuple[ReportRow, ...]
    provenance_rows: tuple[ReportRow, ...]

    def sections(self) -> list[tuple[str, tuple[ReportRow, ...]]]:
        return [
            ("config", self.config_rows),
            ("derived", self.derived_rows),
            ("rates", self.rate_rows),
            ("steady_state", self.steady_rows),
            ("provenance", self.provenance_rows),
        ]


def _num_row(name: str, value: float, unit: str = "") -> ReportRow:
    return ReportRow(name, display_number(value), unit)


def _rate_row(name: str, value: float) -> ReportRow:
    return ReportRow(name, display_number(to_display_hz(value)), UNIT_2PI_HZ)


def build_report(config: SystemConfig, derived: DerivedSystem,
                 bundle: RateBundle, steady: SteadyStateReport) -> ReportDocument:
    config_rows = []
    for key, value in config_items(config):
        if value is None:
            continue
        if isinstance(value, (bool, str)):
            config_rows.append(ReportRow(key, value))
        else:
            config_rows.append(_num_row(key, value))

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
    for flag in FLAG_NAMES:
        steady_rows.append(ReportRow(flag, getattr(steady.flags, flag)))

    provenance_rows = (
        ReportRow("mode", config.mode),
        ReportRow("units", "SI internally; angular rates in rad/s, shown as 2pi x Hz"),
        ReportRow("generator", f"levicool {__version__}"),
    )

    return ReportDocument(
        config_rows=tuple(config_rows),
        derived_rows=tuple(derived_rows),
        rate_rows=tuple(rate_rows),
        steady_rows=tuple(steady_rows),
        provenance_rows=tuple(provenance_rows),
    )


def _text_value(row: ReportRow) -> str:
    if row.value is None:
        return "n/a"
    if isinstance(row.value, bool):
        return "true" if row.value else "false"
    if isinstance(row.value, str):
        return row.value
    if row.unit == UNIT_2PI_HZ:
        return f"2pi x {format_quantity(row.value)} Hz"
    rendered = format_quantity(row.value)
    return f"{rendered} {row.unit}" if row.unit else rendered


def render_text(document: ReportDocument) -> str:
    lines = []
    for title, rows in document.sections():
        lines.append(f"[{title}]")
        width = max((len(row.name) for row in rows), default=0)
        for row in rows:
            lines.append(f"{row.name.ljust(width)} = {_text_value(row)}")
        lines.append("")
    return "\n".join(lines)


def _json_key(row: ReportRow) -> str:
    return f"{row.name}_{UNIT_2PI_HZ}" if row.unit == UNIT_2PI_HZ else row.name


def document_to_dict(document: ReportDocument) -> dict:
    payload: dict[str, dict] = {}
    for title, rows in document.sections():
        payload[title] = {_json_key(row): row.value for row in rows}
    return payload


def render_json(document: ReportDocument) -> str:
    return json.dumps(document_to_dict(document), indent=2) + "\n"
