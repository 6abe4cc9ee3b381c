"""Plain-data configuration types (`SystemConfig` and its sections) and
`derive`, the one place derived quantities are computed.

`SystemConfig` holds exactly what a user specifies about the apparatus:
sphere, cavity, lattice beam, tweezer, atom ensemble, vacuum environment,
plus optional laser-noise and feedback-readout settings. Its section
classes are built from the key registry `levicool.configfile.KEYS`: one
field per key of the section, in registry order, holding the key's SI value
and defaulting to the key's default unless the key is required. `derive`
expands a config, once, into the `DerivedSystem` quantities the rate
formulas consume.

Two derivation modes are supported:

* ``paper-anchored`` (default): the atomic axial trap frequency is taken
  from the configured override and the lattice depth is back-computed from
  it. This pins the model to a measured/targeted trap frequency.
* ``first-principles``: the lattice depth follows from the beam intensity
  and detuning (retro-reflected standing wave), and the trap frequencies
  follow from the depth.

The two disagree by ~sqrt(2) for the reference design because the stated
depth and the stated trap frequency of that design are themselves mutually
inconsistent; anchoring on the frequency is what reproduces its rate table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, make_dataclass

# the mode names are re-exported next to `derive`, which implements the modes
from .configfile import (DEFAULTS, FIRST_PRINCIPLES, KEYS, KIND_BOOL, MODES,  # noqa: F401
                         PAPER_ANCHORED, raise_violations, validate_config)
from .constants import CONSTANTS, TWO_PI, AngularRate
from .errors import SingularConfigurationError
from .numeric import frozen_record, holds, power, sqrt


def photon_frequency(wavelength: float) -> AngularRate:
    """Angular frequency 2 pi c / lambda of light of the given wavelength."""
    return TWO_PI * CONSTANTS.c / wavelength


def _section_class(section: str, name: str, doc: str) -> type:
    """The frozen dataclass of a config section: one field per key under `section`,
    in registry order, holding its SI value and defaulting to `DEFAULTS` unless
    the key is required (a key without a registry default may be None)."""
    specs = [spec for spec in KEYS if spec.path[0] == section]
    fields = []
    for spec in specs:
        kind = bool if spec.kind == KIND_BOOL else float
        fields.append((spec.path[1], kind) if spec.required else (
            spec.path[1], kind if spec.default is not None else kind | None,
            field(default=DEFAULTS[spec.name])))
    cls = make_dataclass(name, fields, frozen=True)
    cls.__doc__ = "\n".join([doc, "", "Fields, SI values of the config keys:", *(
        f"    {spec.path[1]} ({spec.name}): {spec.help}" for spec in specs)])
    cls.__module__ = __name__
    return cls


#: the class of each config section, by its attribute name in `SystemConfig`
SECTIONS = {section: _section_class(section, name, doc) for section, name, doc in (
    ("sphere", "Sphere", "Dielectric nanosphere: radius a, density rho, dielectric constant."),
    ("cavity", "Cavity", "Two-mirror cavity holding the sphere."),
    ("lattice", "LatticeBeam", "Cooling/lattice laser, red-detuned from the atomic "
     "reference line.\n\n`power` is the input power and `waist` the waist at the atoms."),
    ("tweezer", "TweezerBeam", "Dual-beam optical tweezer holding the sphere."),
    ("atoms", "AtomEnsemble", "Lattice-trapped cold atoms acting as the cold reservoir."),
    ("environment", "Environment", "Background gas conditions."),
    ("noise", "NoiseBudget",
     "Laser technical-noise inputs, both evaluated at twice the trap frequency."),
    ("feedback", "FeedbackReadout",
     "Optional measurement-cavity settings for the feedback-cooling figure."),
)}
(Sphere, Cavity, LatticeBeam, TweezerBeam, AtomEnsemble, Environment, NoiseBudget,
 FeedbackReadout) = SECTIONS.values()


# the one property of a config section: the registry's gas-mean-speed check reads it
Environment.mean_speed = property(
    lambda self: sqrt(8.0 * CONSTANTS.k_B * self.temperature / (math.pi * self.gas_mass)),
    doc="Mean thermal speed sqrt(8 k_B T / (pi m)) of the background gas.")


@dataclass(frozen=True)
class SystemConfig:
    """Complete user-specified experiment description."""

    sphere: Sphere
    cavity: Cavity
    lattice: LatticeBeam
    tweezer: TweezerBeam
    atoms: AtomEnsemble
    environment: Environment
    noise: NoiseBudget = field(default_factory=NoiseBudget)
    feedback: FeedbackReadout = field(default_factory=FeedbackReadout)
    mode: str = DEFAULTS["mode"]


@dataclass(frozen=True)
class DerivedSystem:
    """All intermediate quantities the rate formulas consume. SI, rad/s."""

    config: SystemConfig

    sphere_volume: float                  # m^3
    sphere_mass: float                    # kg
    polarizability_factor: float          # (eps - 1)/(eps + 2), Clausius-Mossotti contrast
    mode_volume: float                    # m^3
    cavity_linewidth: AngularRate

    lattice_wavenumber: float             # 1/m
    lattice_frequency: AngularRate
    detuning: AngularRate                 # from the atomic reference line
    flux_amplitude: float
    lattice_input_intensity: float        # W/m^2, standing-wave peak at the atoms
    lattice_circulating_intensity: float  # W/m^2, intracavity circulating beam peak
    lattice_depth: float                  # J
    lattice_depth_recoils: float
    recoil_energy: float                  # J, atom recoil off a lattice photon

    atom_frequency: AngularRate           # axial trap frequency
    atom_radial_frequency: AngularRate
    sphere_frequency: AngularRate
    atom_oscillator_length: float         # m
    sphere_oscillator_length: float       # m

    trap_wavenumber: float                # 1/m
    tweezer_intensity: float              # W/m^2, Gaussian peak at the full quoted power
    sphere_recoil_trap: AngularRate       # hbar k_trap^2 / 2M
    sphere_recoil_lattice: AngularRate    # hbar k_L^2 / 2M

    gas_mean_speed: float                 # m/s
    gas_damping: AngularRate              # 16 P / (pi vbar rho a)
    thermal_occupation: float             # initial-bath phonon number
    quality_factor: float                 # effective Q entering thermalization


def derive(config: SystemConfig, violations: list | None = None) -> DerivedSystem:
    """Expand a config into the model's derived quantities.

    Pure and deterministic: identical inputs produce bit-identical outputs.
    Raises the typed error of `levicool.configfile.validate_config`'s
    violations, each naming its key, when the config is unusable: it validates
    once per evaluation, unless the caller hands in the `violations` it found.

    Any float key may also be a numpy array, as in a sweep or optimizer
    grid: the arrays and the quantities that depend on them broadcast, and
    a check or guard on an array is left per cell (see `validate_config`
    and `levicool.numeric.holds`).
    """
    if violations is None:
        violations = validate_config(config)
    if violations:
        raise_violations(violations)

    hbar = CONSTANTS.hbar
    sphere, cavity, lattice, atoms = config.sphere, config.cavity, config.lattice, config.atoms
    tweezer, environment = config.tweezer, config.environment

    volume = (4.0 / 3.0) * math.pi * power(sphere.radius, 3)
    mass = sphere.density * volume
    contrast = (sphere.epsilon - 1.0) / (sphere.epsilon + 2.0)
    k_lattice = TWO_PI / lattice.wavelength
    omega_lattice = photon_frequency(lattice.wavelength)
    # red detuning from the reference line; > 0 for lambda > lambda_ref
    delta = (TWO_PI * CONSTANTS.c
             * (lattice.wavelength - lattice.reference_wavelength) / power(lattice.wavelength, 2))
    # photon-flux amplitude alpha, defined through P = hbar omega alpha^2 / 2 pi
    alpha = sqrt(TWO_PI * lattice.power / (hbar * omega_lattice))
    # photon recoil energy hbar^2 k^2 / (2 m) of one atom
    k_lattice_2 = power(k_lattice, 2)
    e_recoil = hbar**2 * k_lattice_2 / (2.0 * atoms.mass)

    # retro-reflected standing wave: 4 x the single-beam Gaussian peak 2P/(pi w^2)
    lattice_waist_2 = power(lattice.waist, 2)
    input_intensity = 4.0 * (2.0 * lattice.power / (math.pi * lattice_waist_2))

    if config.mode == PAPER_ANCHORED:
        atom_frequency = atoms.axial_frequency
        depth = atoms.mass * power(atom_frequency, 2) / (2.0 * k_lattice_2)
    else:
        if lattice.depth_recoils is not None:
            depth = lattice.depth_recoils * e_recoil
        else:
            depth = (hbar * CONSTANTS.rb87_gamma_se**2 * input_intensity
                     / (12.0 * delta * CONSTANTS.rb87_I_sat))
        atom_frequency = sqrt(2.0 * depth * k_lattice_2 / atoms.mass)

    radial_frequency = sqrt(4.0 * depth / (atoms.mass * lattice_waist_2))
    sphere_frequency = atom_frequency + atoms.sphere_detuning
    if holds(sphere_frequency <= 0):
        raise SingularConfigurationError(
            "sphere trap frequency (atom frequency + detuning) must be > 0"
        )

    ell_atom = sqrt(hbar / (2.0 * atoms.mass * atom_frequency))
    ell_sphere = sqrt(hbar / (2.0 * mass * sphere_frequency))

    k_trap = TWO_PI / tweezer.wavelength
    # cavity linewidth kappa = pi c / (L F)
    linewidth = math.pi * CONSTANTS.c / (cavity.length * cavity.finesse)
    # circulating-beam peak intensity at the sphere: resonant buildup F/pi
    # over the input power, Gaussian peak 2P/(pi w^2); the standing-wave
    # factor is not applied (the sphere sits off the antinode, at the
    # maximal-gradient point of the fringe).
    cavity_waist_2 = power(cavity.waist, 2)
    circulating = 2.0 * (cavity.finesse / math.pi) * lattice.power / (math.pi * cavity_waist_2)

    mean_speed = environment.mean_speed
    occupation = CONSTANTS.k_B * environment.temperature / (hbar * sphere_frequency)
    # background-gas damping 16 P / (pi vbar rho a)
    damping = (16.0 * environment.pressure
               / (math.pi * mean_speed * sphere.density * sphere.radius))

    if sphere.quality_factor is not None:
        quality = sphere.quality_factor
    elif holds(environment.pressure == 0):
        quality = math.inf
    else:
        quality = sphere_frequency / damping

    return frozen_record(DerivedSystem, {
        "config": config,
        "sphere_volume": volume,
        "sphere_mass": mass,
        "polarizability_factor": contrast,
        "mode_volume": (math.pi / 4.0) * cavity_waist_2 * cavity.length,
        "cavity_linewidth": linewidth,
        "lattice_wavenumber": k_lattice,
        "lattice_frequency": omega_lattice,
        "detuning": delta,
        "flux_amplitude": alpha,
        "lattice_input_intensity": input_intensity,
        "lattice_circulating_intensity": circulating,
        "lattice_depth": depth,
        "lattice_depth_recoils": depth / e_recoil,
        "recoil_energy": e_recoil,
        "atom_frequency": atom_frequency,
        "atom_radial_frequency": radial_frequency,
        "sphere_frequency": sphere_frequency,
        "atom_oscillator_length": ell_atom,
        "sphere_oscillator_length": ell_sphere,
        "trap_wavenumber": k_trap,
        "tweezer_intensity": 2.0 * tweezer.power / (math.pi * power(tweezer.waist, 2)),
        "sphere_recoil_trap": hbar * power(k_trap, 2) / (2.0 * mass),
        "sphere_recoil_lattice": hbar * k_lattice_2 / (2.0 * mass),
        "gas_mean_speed": mean_speed,
        "gas_damping": damping,
        "thermal_occupation": occupation,
        "quality_factor": quality,
    })
