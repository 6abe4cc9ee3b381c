"""Line-oriented ``key = value`` configuration files.

Keys are namespaced and carry their units in the name (sphere.radius_nm,
lattice.power_uw, ...), so a config file is self-documenting and the parser
never guesses units. '#' starts a comment; unknown keys are rejected with
the offending line number. Parsing is locale-independent: a number is an
ASCII decimal float (``45e3``, ``1E-10``, ``-0.5``, ``.5``, ``5.``), with a
decimal point only and no digit separators.

The same registry drives parsing, the resolved-config echo in reports, and
programmatic access (`get_value` / `set_value`) used by the optimizer and
the sensitivity command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .constants import CONSTANTS, TORR_IN_PASCAL, TWO_PI, AngularRate
from .errors import ConfigError
from .system import (MODES, AtomEnsemble, Cavity, Environment, FeedbackReadout,
                     LatticeBeam, NoiseBudget, Sphere, SystemConfig, TweezerBeam)

KIND_FLOAT = "float"
KIND_BOOL = "bool"
KIND_MODE = "mode"


@dataclass(frozen=True)
class KeySpec:
    """One config key: its units (as a scale to SI), default, and target field."""

    name: str
    path: tuple[str, ...]            # attribute path inside SystemConfig
    scale: float = 1.0               # SI value = raw value * scale
    kind: str = KIND_FLOAT
    required: bool = False
    default: object = None           # in key units; None = optional field
    angular: bool = False            # wrap the SI value as AngularRate
    help: str = ""


_AMU = CONSTANTS.amu

KEYS: tuple[KeySpec, ...] = (
    KeySpec("mode", ("mode",), kind=KIND_MODE, default="paper-anchored",
            help="derivation mode: paper-anchored or first-principles"),
    KeySpec("sphere.radius_nm", ("sphere", "radius"), 1e-9, required=True,
            help="sphere radius"),
    KeySpec("sphere.density_kg_m3", ("sphere", "density"), 1.0, default=2200.0,
            help="sphere material density"),
    KeySpec("sphere.epsilon", ("sphere", "epsilon"), 1.0, default=2.0,
            help="sphere dielectric constant"),
    KeySpec("sphere.quality_factor", ("sphere", "quality_factor"), 1.0,
            help="override for the effective mechanical Q (default: omega_m/gamma_g)"),
    KeySpec("cavity.length_cm", ("cavity", "length"), 1e-2, default=5.0,
            help="cavity length"),
    KeySpec("cavity.finesse", ("cavity", "finesse"), 1.0, default=400.0,
            help="cavity finesse"),
    KeySpec("cavity.waist_um", ("cavity", "waist"), 1e-6, default=5.0,
            help="cavity mode waist"),
    KeySpec("cavity.detection_power_uw", ("cavity", "detection_power"), 1e-6,
            help="separate displacement-readout beam power"),
    KeySpec("cavity.coupling_efficiency", ("cavity", "coupling_efficiency"), 1.0,
            default=1.0, help="mode-coupling efficiency eta, in (0, 1]"),
    KeySpec("cavity.path_transmittivity", ("cavity", "path_transmittivity"), 1.0,
            default=1.0, help="optical path transmittivity t, in (0, 1]"),
    KeySpec("lattice.wavelength_nm", ("lattice", "wavelength"), 1e-9, default=780.74,
            help="lattice/cooling laser wavelength"),
    KeySpec("lattice.reference_wavelength_nm", ("lattice", "reference_wavelength"),
            1e-9, default=780.24,
            help="atomic reference line the detuning is measured from"),
    KeySpec("lattice.power_uw", ("lattice", "power"), 1e-6, default=62.0,
            help="lattice input power"),
    KeySpec("lattice.waist_um", ("lattice", "waist"), 1e-6, default=30.0,
            help="lattice beam waist at the atoms"),
    KeySpec("lattice.depth_recoils", ("lattice", "depth_recoils"), 1.0,
            help="optional lattice depth override, in atom recoil energies "
                 "(first-principles mode only)"),
    KeySpec("tweezer.wavelength_nm", ("tweezer", "wavelength"), 1e-9, default=1550.0,
            help="tweezer wavelength"),
    KeySpec("tweezer.power_mw", ("tweezer", "power"), 1e-3, default=460.0,
            help="tweezer power"),
    KeySpec("tweezer.waist_um", ("tweezer", "waist"), 1e-6, default=2.0,
            help="tweezer waist at the sphere"),
    KeySpec("atoms.count", ("atoms", "count"), 1.0, required=True,
            help="number of lattice-trapped atoms"),
    KeySpec("atoms.mass_amu", ("atoms", "mass"), _AMU, default=86.909,
            help="atomic mass"),
    KeySpec("atoms.axial_frequency_2pi_hz", ("atoms", "axial_frequency"), TWO_PI,
            angular=True,
            help="axial trap frequency (required in paper-anchored mode)"),
    KeySpec("atoms.cooling_rate_2pi_hz", ("atoms", "cooling_rate"), TWO_PI,
            angular=True,
            help="applied atom cooling rate (default: 1.1 x coupling)"),
    KeySpec("atoms.sphere_detuning_2pi_hz", ("atoms", "sphere_detuning"), TWO_PI,
            default=0.0, angular=True,
            help="sphere-minus-atom trap frequency offset"),
    KeySpec("env.pressure_torr", ("environment", "pressure"), TORR_IN_PASCAL,
            default=1e-10, help="background gas pressure"),
    KeySpec("env.temperature_k", ("environment", "temperature"), 1.0, default=300.0,
            help="environment temperature"),
    KeySpec("env.gas_mass_amu", ("environment", "gas_mass"), _AMU, default=28.97,
            help="mean molecular mass of the background gas"),
    KeySpec("noise.intensity_psd_per_hz", ("noise", "intensity_psd"), 1.0,
            help="fractional intensity-noise PSD at twice the trap frequency"),
    KeySpec("noise.pointing_psd_m2_per_hz", ("noise", "pointing_psd"), 1.0,
            help="pointing-noise PSD at twice the trap frequency"),
    KeySpec("noise.mean_square_position_m2", ("noise", "mean_square_position"), 1.0,
            help="reference mean-square sphere position for pointing noise"),
    KeySpec("noise.include_in_occupation", ("noise", "include_in_occupation"),
            kind=KIND_BOOL, default=False,
            help="add the laser-noise heating rates to the occupation balance"),
    KeySpec("feedback.intracavity_photons", ("feedback", "intracavity_photons"), 1.0,
            help="mean intracavity photon number of the measurement cavity"),
    KeySpec("feedback.measurement_linewidth_2pi_hz",
            ("feedback", "measurement_linewidth"), TWO_PI, angular=True,
            help="measurement-cavity linewidth (default: the science cavity's)"),
)

KEY_MAP = {spec.name: spec for spec in KEYS}


def _parse_scalar(spec: KeySpec, raw: str, where: str):
    if spec.kind == KIND_BOOL:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"{where}: expected a boolean for {spec.name!r}, got {raw!r}")
    if spec.kind == KIND_MODE:
        value = raw.strip()
        if value not in MODES:
            raise ConfigError(f"{where}: mode must be one of {MODES}, got {value!r}")
        return value
    if "," in raw:
        raise ConfigError(f"{where}: decimal commas are not accepted in {spec.name!r}")
    try:
        # on ASCII text without digit separators, float() reads exactly the
        # decimal float grammar (and inf / nan, rejected below)
        if not raw.isascii() or "_" in raw:
            raise ValueError
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number for {spec.name!r}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {spec.name!r} must be finite, got {raw!r}")
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key = value lines into raw (key-unit) values; collect all errors."""
    values: dict[str, object] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            errors.append(f"{where}: expected 'key = value'")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        spec = KEY_MAP.get(key)
        if spec is None:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"{where}: duplicate key {key!r}")
            continue
        try:
            values[key] = _parse_scalar(spec, raw.strip(), where)
        except ConfigError as exc:
            errors.extend(exc.violations)
    if errors:
        raise ConfigError(errors)
    return values


def build_config(values: dict[str, object]) -> SystemConfig:
    """Assemble a SystemConfig from raw key-unit values, applying defaults."""
    missing = [spec.name for spec in KEYS
               if spec.required and spec.name not in values]
    if missing:
        raise ConfigError([f"missing required key {name!r}" for name in missing])

    sections: dict[str, dict[str, object]] = {}
    mode = "paper-anchored"
    for spec in KEYS:
        raw = values.get(spec.name, spec.default)
        if spec.kind == KIND_MODE:
            mode = raw
            continue
        if spec.kind == KIND_BOOL or raw is None:
            value = raw
        else:
            value = raw * spec.scale
            if spec.angular:
                value = AngularRate(value)
        section, fieldname = spec.path
        sections.setdefault(section, {})[fieldname] = value

    return SystemConfig(
        sphere=Sphere(**sections["sphere"]),
        cavity=Cavity(**sections["cavity"]),
        lattice=LatticeBeam(**sections["lattice"]),
        tweezer=TweezerBeam(**sections["tweezer"]),
        atoms=AtomEnsemble(**sections["atoms"]),
        environment=Environment(**sections["environment"]),
        noise=NoiseBudget(**sections["noise"]),
        feedback=FeedbackReadout(**sections["feedback"]),
        mode=mode,
    )


def load_config(path: str | Path) -> SystemConfig:
    """Read and build a config file; I/O errors propagate as OSError."""
    text = Path(path).read_text(encoding="utf-8")
    return build_config(parse_config_text(text, source=str(path)))


def get_value(config: SystemConfig, key: str) -> object:
    """Current value of a config key, in the key's own units."""
    spec = KEY_MAP.get(key)
    if spec is None:
        raise ConfigError(f"unknown key {key!r}")
    node = config
    for attr in spec.path:
        node = getattr(node, attr)
    if spec.kind != KIND_FLOAT or node is None:
        return node
    return node / spec.scale


def set_value(config: SystemConfig, key: str, raw_value: float) -> SystemConfig:
    """Return a new config with one key replaced (value in key units)."""
    spec = KEY_MAP.get(key)
    if spec is None:
        raise ConfigError(f"unknown key {key!r}")
    if spec.kind == KIND_MODE:
        if raw_value not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        return replace(config, mode=raw_value)
    if spec.kind == KIND_BOOL:
        value: object = bool(raw_value)
    else:
        value = raw_value * spec.scale
        if spec.angular:
            value = AngularRate(value)
    section, fieldname = spec.path
    updated_section = replace(getattr(config, section), **{fieldname: value})
    return replace(config, **{section: updated_section})


def config_items(config: SystemConfig) -> list[tuple[str, object]]:
    """The resolved configuration as (key, value-in-key-units) pairs."""
    return [(spec.name, get_value(config, spec.name)) for spec in KEYS]
