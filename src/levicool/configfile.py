"""Line-oriented ``key = value`` configuration files.

Keys are namespaced and carry their units in the name (sphere.radius_nm,
lattice.power_uw, ...), so a config file is self-documenting and the parser
never guesses units. '#' starts a comment; unknown keys are rejected with
the offending line number. A file is UTF-8, and may start with one
byte-order mark; its lines end where `str.splitlines` ends them, so LF, CRLF
and lone-CR files parse alike. Parsing is locale-independent: a number is an
ASCII decimal float (``45e3``, ``1E-10``, ``-0.5``, ``.5``, ``5.``), with a
decimal point only and no digit separators.

The registry `KEYS` is the one place that states each model input's
unit, default, constraint and failure class. It drives parsing, the config
section classes of `levicool.system` (their fields, order, kinds and
defaults), validation (`validate_config`, whose every violation names its
key), the resolved-config echo in reports, and programmatic access
(`get_value`, `set_value` and its SI form `set_si`) used by the optimizer,
the grid evaluator and the sensitivity command.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple

from .constants import ATOM_COOLING_FACTOR, CONSTANTS, TORR_IN_PASCAL, TWO_PI
from .errors import ConfigError, InvalidGeometryError, SingularConfigurationError
from .numeric import frozen_record, listed

if TYPE_CHECKING:
    from .system import SystemConfig

KIND_FLOAT = "float"
KIND_BOOL = "bool"
KIND_MODE = "mode"

PAPER_ANCHORED = "paper-anchored"
FIRST_PRINCIPLES = "first-principles"
MODES = (PAPER_ANCHORED, FIRST_PRINCIPLES)

# failure classes of a violation, reported in this order
GEOMETRY = "geometry"    # a degenerate length or speed
SINGULAR = "singular"    # a singularity of the model, such as zero detuning
VALUE = "value"          # everything else

#: each constraint a key may carry, and the test that a value (or an array's cell) breaks it
_BROKEN_BY = {
    "> 0": "{} <= 0",
    ">= 0": "{} < 0",
    "> 1": "{} <= 1",
    "in (0, 1]": "({0} <= 0) | ({0} > 1) | ({0} != {0})",
    f"one of {MODES}": "{} not in MODES",
}


class Check(NamedTuple):
    """A constraint on a key's SI value, or on a `quantity` of its config
    section that the value sets, such as the gas mean speed."""

    constraint: str          # one of `_BROKEN_BY`
    label: str               # what a violation message calls the value
    failure: str = VALUE
    when_set: bool = False   # the message says the constraint applies when set
    quantity: str | None = None


@dataclass(frozen=True)
class KeySpec:
    """One config key: its units (as a scale to SI), default, target field, checks."""

    name: str
    path: tuple[str, ...]            # attribute path inside SystemConfig
    scale: float = 1.0               # SI value = raw value * scale
    kind: str = KIND_FLOAT
    required: bool = False
    default: object = None           # in key units; None = optional field
    help: str = ""
    checks: tuple[Check, ...] = ()

    def to_si(self, raw):
        """The SI value of `raw`, given in the key's units (None stays None)."""
        if raw is None or self.kind != KIND_FLOAT:
            return raw
        return raw * self.scale


def _positive(label: str, failure: str = VALUE, **options) -> tuple[Check, ...]:
    return (Check("> 0", label, failure, **options),)


def _nonnegative(label: str, **options) -> tuple[Check, ...]:
    return (Check(">= 0", label, **options),)


KEYS: tuple[KeySpec, ...] = (
    KeySpec("mode", ("mode",), kind=KIND_MODE, default=PAPER_ANCHORED,
            checks=(Check(f"one of {MODES}", "mode"),),
            help="derivation mode: paper-anchored or first-principles"),
    KeySpec("sphere.radius_nm", ("sphere", "radius"), 1e-9, required=True,
            checks=_positive("sphere radius", GEOMETRY), help="sphere radius"),
    KeySpec("sphere.density_kg_m3", ("sphere", "density"), 1.0, default=2200.0,
            checks=_positive("sphere density"), help="sphere material density (silica)"),
    KeySpec("sphere.epsilon", ("sphere", "epsilon"), 1.0, default=2.0,
            checks=(Check("> 1", "sphere dielectric constant"),),
            help="sphere dielectric constant (silica)"),
    KeySpec("sphere.quality_factor", ("sphere", "quality_factor"), 1.0,
            checks=_positive("sphere quality factor override"),
            help="override for the effective mechanical Q (default: omega_m/gamma_g)"),
    KeySpec("cavity.length_cm", ("cavity", "length"), 1e-2, default=5.0,
            checks=_positive("cavity length", GEOMETRY), help="cavity length"),
    KeySpec("cavity.finesse", ("cavity", "finesse"), 1.0, default=400.0,
            checks=_positive("cavity finesse"), help="cavity finesse"),
    KeySpec("cavity.waist_um", ("cavity", "waist"), 1e-6, default=5.0,
            checks=_positive("cavity mode waist", GEOMETRY), help="cavity mode waist"),
    KeySpec("cavity.detection_power_uw", ("cavity", "detection_power"), 1e-6,
            checks=_positive("detection power", when_set=True),
            help="separate displacement-readout beam power"),
    KeySpec("cavity.coupling_efficiency", ("cavity", "coupling_efficiency"), 1.0,
            default=1.0, checks=(Check("in (0, 1]", "coupling efficiency"),),
            help="mode-coupling efficiency eta"),
    KeySpec("cavity.path_transmittivity", ("cavity", "path_transmittivity"), 1.0,
            default=1.0, checks=(Check("in (0, 1]", "path transmittivity"),),
            help="optical path transmittivity t"),
    KeySpec("lattice.wavelength_nm", ("lattice", "wavelength"), 1e-9, default=780.74,
            checks=_positive("lattice wavelength", GEOMETRY),
            help="lattice/cooling laser wavelength"),
    KeySpec("lattice.reference_wavelength_nm", ("lattice", "reference_wavelength"), 1e-9,
            default=780.24, help="the atomic line the detuning is measured from (Rb-87 D2)"),
    KeySpec("lattice.power_uw", ("lattice", "power"), 1e-6, default=62.0,
            checks=_positive("lattice power", SINGULAR), help="lattice input power"),
    KeySpec("lattice.waist_um", ("lattice", "waist"), 1e-6, default=30.0,
            checks=_positive("lattice waist", GEOMETRY),
            help="lattice beam waist at the atoms"),
    KeySpec("lattice.depth_recoils", ("lattice", "depth_recoils"), 1.0,
            checks=_positive("lattice depth override"),
            help="lattice depth override, in atom recoil energies (first-principles mode)"),
    KeySpec("tweezer.wavelength_nm", ("tweezer", "wavelength"), 1e-9, default=1550.0,
            checks=_positive("tweezer wavelength", GEOMETRY), help="tweezer wavelength"),
    KeySpec("tweezer.power_mw", ("tweezer", "power"), 1e-3, default=460.0,
            checks=_nonnegative("tweezer power"), help="tweezer power"),
    KeySpec("tweezer.waist_um", ("tweezer", "waist"), 1e-6, default=2.0,
            checks=_positive("tweezer waist", GEOMETRY),
            help="tweezer waist at the sphere"),
    KeySpec("atoms.count", ("atoms", "count"), 1.0, required=True,
            checks=_nonnegative("atom count"), help="number of lattice-trapped atoms"),
    KeySpec("atoms.mass_amu", ("atoms", "mass"), CONSTANTS.amu, default=86.909,
            checks=_positive("atom mass"), help="atomic mass (Rb-87)"),
    KeySpec("atoms.axial_frequency_2pi_hz", ("atoms", "axial_frequency"), TWO_PI,
            checks=_positive("atom axial frequency", when_set=True),
            help="axial trap frequency (required in paper-anchored mode)"),
    KeySpec("atoms.cooling_rate_2pi_hz", ("atoms", "cooling_rate"), TWO_PI,
            checks=_nonnegative("atom cooling rate", when_set=True),
            help=f"applied atom cooling rate (default: {ATOM_COOLING_FACTOR} x coupling)"),
    KeySpec("atoms.sphere_detuning_2pi_hz", ("atoms", "sphere_detuning"), TWO_PI,
            default=0.0, help="sphere-minus-atom trap frequency offset"),
    KeySpec("env.pressure_torr", ("environment", "pressure"), TORR_IN_PASCAL,
            default=1e-10, checks=_nonnegative("gas pressure"),
            help="background gas pressure"),
    KeySpec("env.temperature_k", ("environment", "temperature"), 1.0, default=300.0,
            checks=(Check("> 0", "environment temperature"),
                    Check("> 0", "gas mean speed", GEOMETRY, quantity="mean_speed")),
            help="environment temperature"),
    KeySpec("env.gas_mass_amu", ("environment", "gas_mass"), CONSTANTS.amu, default=28.97,
            checks=_positive("gas molecular mass"),
            help="mean molecular mass of the background gas (air)"),
    KeySpec("noise.intensity_psd_per_hz", ("noise", "intensity_psd"), 1.0,
            checks=_nonnegative("intensity noise PSD"),
            help="fractional intensity-noise PSD at twice the trap frequency"),
    KeySpec("noise.pointing_psd_m2_per_hz", ("noise", "pointing_psd"), 1.0,
            checks=_nonnegative("pointing noise PSD"),
            help="pointing-noise PSD at twice the trap frequency"),
    KeySpec("noise.mean_square_position_m2", ("noise", "mean_square_position"), 1.0,
            checks=_positive("reference mean-square position"),
            help="reference mean-square sphere position for pointing noise"),
    KeySpec("noise.include_in_occupation", ("noise", "include_in_occupation"),
            kind=KIND_BOOL, default=False,
            help="add the laser-noise heating rates to the occupation balance"),
    KeySpec("feedback.intracavity_photons", ("feedback", "intracavity_photons"), 1.0,
            checks=_nonnegative("intracavity photon number"),
            help="mean intracavity photon number of the measurement cavity"),
    KeySpec("feedback.measurement_linewidth_2pi_hz", ("feedback", "measurement_linewidth"),
            TWO_PI, checks=_positive("measurement cavity linewidth", when_set=True),
            help="measurement-cavity linewidth (default: the science cavity's)"),
)

KEY_MAP = {spec.name: spec for spec in KEYS}
#: key -> (getter of its field in a SystemConfig, SI-to-key-units divisor or None)
_READERS = {spec.name: (attrgetter(".".join(spec.path)),
                        spec.scale if spec.kind == KIND_FLOAT else None) for spec in KEYS}

#: the SI value of each key that a config file omitting it gets
DEFAULTS = {spec.name: spec.to_si(spec.default) for spec in KEYS}


# ---------------------------------------------------------------------------
# validation

def _compile_checks(specs):
    """One function running every check of `specs`, in their order: the keys
    of one config section (see `SECTION_CHECKS`).

    It is generated as Python source and compiled once, as `dataclasses`
    builds an ``__init__``, so a call costs what hand-written checks would.
    A key reports its first broken check only, so a `quantity` is checked
    where the key's own value is valid (and skipped where another key it is
    computed from is invalid). An unset (None) value is not checked; a check
    on an array is decided per cell (see `levicool.numeric.listed`).
    """
    lines = ["def check_keys(config):", "    found = []"]
    violations = []
    for spec in specs:
        indent = "    "
        for check in spec.checks:
            path = spec.path[:-1] + (check.quantity,) if check.quantity else spec.path
            get = f"value = config.{'.'.join(path)}"
            if check.quantity:
                lines += [f"{indent}try:", f"{indent}    {get}",
                          f"{indent}except (ArithmeticError, ValueError):",
                          f"{indent}    value = None"]
            else:
                lines.append(f"{indent}{get}")
            broken = _BROKEN_BY[check.constraint].format("value")
            lines.append(f"{indent}if value is None or (broken := {broken}) is False or "
                         f"not listed(found, VIOLATIONS[{len(violations)}], broken):")
            indent += "    "
            message = f"{check.label} must be {check.constraint}"
            violations.append((spec.name, check.failure,
                               message + (" when set" if check.when_set else "")))
        lines.append(f"{indent}pass")
    lines.append("    return found")
    namespace = {"listed": listed, "MODES": MODES, "VIOLATIONS": tuple(violations)}
    exec("\n".join(lines), namespace)
    return namespace["check_keys"]


#: the checks of one config section's keys, by section in registry order (each
#: section's keys are contiguous in `KEYS`); each reads that section alone
SECTION_CHECKS = {section: _compile_checks([spec for spec in KEYS if spec.path[0] == section])
                  for section in dict.fromkeys(spec.path[0] for spec in KEYS)}


def check_rules(config) -> list[tuple[str, str, str]]:
    """The violations of the rules that tie keys, as `validate_config` lists them."""
    found = []
    lattice, atoms, mode = config.lattice, config.atoms, config.mode
    listed(found, ("lattice.wavelength_nm", SINGULAR, "lattice must be red-detuned: "
                   "wavelength must exceed the reference line"),
           (0 < lattice.wavelength) & (lattice.wavelength <= lattice.reference_wavelength))
    if lattice.depth_recoils is not None and mode == PAPER_ANCHORED:
        found.append(("lattice.depth_recoils", VALUE,
                      "lattice depth override conflicts with paper-anchored mode "
                      "(the depth is back-computed from the axial frequency)"))
    if atoms.axial_frequency is None and mode == PAPER_ANCHORED:
        found.append(("atoms.axial_frequency_2pi_hz", VALUE,
                      "paper-anchored mode requires the atom axial frequency"))
    if atoms.cooling_rate is not None:
        listed(found, ("atoms.cooling_rate_2pi_hz", SINGULAR, "a coupled ensemble "
                       "(atoms.count > 0) needs a nonzero atom cooling rate"),
               (atoms.cooling_rate == 0) & (atoms.count > 0))
    if config.noise.pointing_psd is not None and config.noise.mean_square_position is None:
        found.append(("noise.mean_square_position_m2", VALUE,
                      "pointing noise PSD requires the reference mean-square position"))
    if config.feedback.intracavity_photons is not None:
        listed(found, ("feedback.intracavity_photons", SINGULAR, "the feedback cooperativity "
                       "divides by the gas damping: env.pressure_torr must be > 0"),
               config.environment.pressure == 0)
    return found


def validate_config(config) -> list[tuple[str, str, str]]:
    """Every constraint a config violates, as (key, failure class, message):
    each section's `SECTION_CHECKS` in registry order, then `check_rules`.
    A constraint on an array is listed with the mask of its cells that break it.
    `derive` runs it once per evaluation, bar where the caller hands in the
    list: a grid validates once, and an optimizer line probe, which moves one
    key of a valid config, hands in its key's section checks plus `check_rules`,
    which is this list."""
    found = []
    for check in SECTION_CHECKS.values():
        found += check(config)
    return found + check_rules(config)


def raise_violations(violations: list[tuple[str, str, str]]) -> None:
    """Raise the error of the first failure class with violations:
    `InvalidGeometryError`, `SingularConfigurationError`, then `ConfigError`."""
    for failure, error in ((GEOMETRY, InvalidGeometryError),
                           (SINGULAR, SingularConfigurationError), (VALUE, ConfigError)):
        messages = [f"{key}: {message}" for key, cls, message, *cells in violations
                    if cls == failure and not cells]
        if messages:
            raise error(messages) if error is ConfigError else error("; ".join(messages))


def read_number(text: str, kind: type = float):
    """`text` as a number of `kind`: for `float` an ASCII decimal float (or inf
    or nan), for `int` an ASCII decimal integer; `ValueError` for anything else.
    The one number grammar of config files and command-line ranges."""
    # on ASCII text without digit separators, float() and int() read exactly these
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number without digit separators: {text!r}")
    return kind(text)


def _parse_scalar(spec: KeySpec, raw: str):
    if spec.kind == KIND_BOOL:
        lowered = raw.strip().lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError(f"expected a boolean for {spec.name!r}, got {raw!r}")
    if spec.kind == KIND_MODE:
        value = raw.strip()
        if value not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {value!r}")
        return value
    if "," in raw:
        raise ConfigError(f"decimal commas are not accepted in {spec.name!r}")
    try:
        value = read_number(raw)    # inf and nan are rejected below
    except ValueError:
        raise ConfigError(f"expected a number for {spec.name!r}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{spec.name!r} must be finite, got {raw!r}")
    return value


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key = value lines into raw (key-unit) values; collect all errors."""
    values: dict[str, object] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'key = value'")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        spec = KEY_MAP.get(key)
        if spec is None:
            errors.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _parse_scalar(spec, raw.strip())
        except ConfigError as exc:
            errors += [f"{source}:{lineno}: {message}" for message in exc.violations]
    if errors:
        raise ConfigError(errors)
    return values


def build_config(values: dict[str, object]) -> SystemConfig:
    """Assemble a SystemConfig from raw key-unit values, applying defaults."""
    from . import system  # whose section classes are built from this registry

    missing = [spec.name for spec in KEYS
               if spec.required and spec.name not in values]
    if missing:
        raise ConfigError([f"missing required key {name!r}" for name in missing])

    sections: dict[str, dict[str, object]] = {section: {} for section in system.SECTIONS}
    for spec in KEYS:
        value = spec.to_si(values.get(spec.name, spec.default))
        if spec.kind == KIND_MODE:
            mode = value
        else:
            section, fieldname = spec.path
            sections[section][fieldname] = value
    # every field is set, in declaration order, so no generated __init__ need run
    return frozen_record(system.SystemConfig, {
        **{section: frozen_record(system.SECTIONS[section], fields)
           for section, fields in sections.items()}, "mode": mode})


def load_config(path: str | bytes | os.PathLike) -> SystemConfig:
    """Read and build a config file; I/O errors propagate as OSError, and bytes
    that are not UTF-8 after one leading byte-order mark as UnicodeDecodeError."""
    source = os.fsdecode(path)  # a str, also for a bytes path; refuses a file descriptor
    with open(source, "rb") as file:
        data = file.read()
    text = data.removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    return build_config(parse_config_text(text, source=source))


def key_spec(key: str) -> KeySpec:
    """The registry entry of a key; `ConfigError` for an unknown key."""
    if key not in KEY_MAP:
        raise ConfigError(f"unknown key {key!r}")
    return KEY_MAP[key]


def numeric_key(key: str) -> None:
    """Raise `ConfigError` unless `key` is a float key of the registry."""
    if key_spec(key).kind != KIND_FLOAT:
        raise ConfigError(f"{key!r} is not a numeric key")


def get_value(config: SystemConfig, key: str) -> object:
    """Current value of a config key, in the key's own units."""
    key_spec(key)
    get, scale = _READERS[key]
    value = get(config)
    return value / scale if value is not None and scale else value


def set_value(config: SystemConfig, key: str, raw_value: float) -> SystemConfig:
    """Return a new config with one key replaced (value in key units)."""
    spec = key_spec(key)
    return set_si(config, key, bool(raw_value) if spec.kind == KIND_BOOL
                  else spec.to_si(raw_value))


def set_si(config: SystemConfig, key: str, value) -> SystemConfig:
    """Return a new config with one key replaced (value in SI units)."""
    spec = key_spec(key)
    if spec.kind != KIND_MODE:  # the mode is a field of the config itself
        section, fieldname = spec.path
        part = getattr(config, section)
        value = frozen_record(part.__class__, {**vars(part), fieldname: value})
    return frozen_record(config.__class__, {**vars(config), spec.path[0]: value})


def config_items(config: SystemConfig) -> list[tuple[str, object]]:
    """The resolved configuration as (key, value-in-key-units) pairs."""
    return [(key, value / scale if (value := get(config)) is not None and scale else value)
            for key, (get, scale) in _READERS.items()]
