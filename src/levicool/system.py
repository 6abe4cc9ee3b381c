"""Experiment description (`SystemConfig`) and derived quantities.

`SystemConfig` holds exactly what a user specifies about the apparatus:
sphere, cavity, lattice beam, tweezer, atom ensemble, vacuum environment,
plus optional laser-noise and feedback-readout settings. `derive` expands a
config into the intermediate physical quantities the rate formulas consume.

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
from dataclasses import dataclass, field

from .constants import CONSTANTS, TWO_PI, AngularRate
from .errors import ConfigError, InvalidGeometryError, SingularConfigurationError
from .numeric import angular, holds, power, sqrt

PAPER_ANCHORED = "paper-anchored"
FIRST_PRINCIPLES = "first-principles"
MODES = (PAPER_ANCHORED, FIRST_PRINCIPLES)


@dataclass(frozen=True)
class Sphere:
    """Dielectric nanosphere: radius a, density rho, dielectric constant."""

    radius: float                                   # m
    density: float = CONSTANTS.silica_density       # kg/m^3
    epsilon: float = CONSTANTS.silica_epsilon       # dimensionless, > 1
    quality_factor: float | None = None             # overrides omega_m/gamma_g

    @property
    def volume(self) -> float:
        return (4.0 / 3.0) * math.pi * power(self.radius, 3)

    @property
    def mass(self) -> float:
        return self.density * self.volume

    @property
    def polarizability_factor(self) -> float:
        """(eps - 1)/(eps + 2), the Clausius-Mossotti contrast."""
        return (self.epsilon - 1.0) / (self.epsilon + 2.0)


@dataclass(frozen=True)
class Cavity:
    """Two-mirror cavity holding the sphere; linewidth kappa = pi c / (L F)."""

    length: float                                   # m
    finesse: float
    waist: float                                    # m, TEM00 mode waist
    detection_power: float | None = None            # W, separate readout beam
    coupling_efficiency: float = 1.0                # eta in (0, 1]
    path_transmittivity: float = 1.0                # t in (0, 1]

    @property
    def linewidth(self) -> AngularRate:
        return AngularRate(math.pi * CONSTANTS.c / (self.length * self.finesse))

    @property
    def mode_volume(self) -> float:
        return (math.pi / 4.0) * self.waist**2 * self.length


def photon_frequency(wavelength: float) -> AngularRate:
    """Angular frequency 2 pi c / lambda of light of the given wavelength."""
    return AngularRate(TWO_PI * CONSTANTS.c / wavelength)


@dataclass(frozen=True)
class _Beam:
    """A Gaussian laser beam."""

    wavelength: float                               # m
    power: float                                    # W
    waist: float                                    # m

    @property
    def wavenumber(self) -> float:
        return TWO_PI / self.wavelength

    @property
    def peak_intensity(self) -> float:
        """Gaussian-beam peak intensity 2P/(pi w^2) at the full quoted power."""
        return 2.0 * self.power / (math.pi * self.waist**2)


@dataclass(frozen=True)
class LatticeBeam(_Beam):
    """Cooling/lattice laser, red-detuned from the atomic reference line.

    `power` is the input power and `waist` the waist at the atoms.
    """

    depth_recoils: float | None = None              # optional depth override (units of E_r)
    reference_wavelength: float = CONSTANTS.rb87_d2_wavelength  # m

    @property
    def frequency(self) -> AngularRate:
        return photon_frequency(self.wavelength)

    @property
    def detuning(self) -> AngularRate:
        """Red detuning from the reference line; > 0 for lambda > lambda_ref."""
        return AngularRate(
            TWO_PI * CONSTANTS.c
            * (self.wavelength - self.reference_wavelength) / self.wavelength**2
        )

    @property
    def flux_amplitude(self) -> float:
        """Photon-flux amplitude alpha, defined through P = hbar omega alpha^2 / 2 pi."""
        return math.sqrt(TWO_PI * self.power / (CONSTANTS.hbar * self.frequency))


@dataclass(frozen=True)
class TweezerBeam(_Beam):
    """Dual-beam optical tweezer holding the sphere."""


@dataclass(frozen=True)
class AtomEnsemble:
    """Lattice-trapped cold atoms acting as the cold reservoir."""

    count: float                                    # N_at >= 0
    mass: float = CONSTANTS.rb87_mass               # kg
    axial_frequency: AngularRate | None = None      # rad/s; required in paper-anchored mode
    cooling_rate: AngularRate | None = None         # rad/s; default rule is 1.1 x coupling
    sphere_detuning: AngularRate = AngularRate(0.0)  # rad/s, omega_m - omega_at


@dataclass(frozen=True)
class Environment:
    """Background gas conditions."""

    pressure: float                                 # Pa
    temperature: float = 300.0                      # K
    gas_mass: float = CONSTANTS.air_mean_molecular_mass  # kg

    @property
    def mean_speed(self) -> float:
        return math.sqrt(8.0 * CONSTANTS.k_B * self.temperature / (math.pi * self.gas_mass))


@dataclass(frozen=True)
class NoiseBudget:
    """Laser technical-noise inputs, both evaluated at twice the trap frequency."""

    intensity_psd: float | None = None              # 1/Hz, fractional intensity PSD
    pointing_psd: float | None = None               # m^2/Hz
    mean_square_position: float | None = None       # m^2, reference <x^2> for pointing noise
    include_in_occupation: bool = False             # add these rates to the heating sum


@dataclass(frozen=True)
class FeedbackReadout:
    """Optional measurement-cavity settings for the feedback-cooling figure."""

    intracavity_photons: float | None = None
    measurement_linewidth: AngularRate | None = None  # rad/s; defaults to the cavity linewidth


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
    mode: str = PAPER_ANCHORED


@dataclass(frozen=True)
class DerivedSystem:
    """All intermediate quantities the rate formulas consume. SI, rad/s."""

    config: SystemConfig
    mode: str

    sphere_volume: float                  # m^3
    sphere_mass: float                    # kg
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
    tweezer_intensity: float              # W/m^2
    sphere_recoil_trap: AngularRate       # hbar k_trap^2 / 2M
    sphere_recoil_lattice: AngularRate    # hbar k_L^2 / 2M

    gas_mean_speed: float                 # m/s
    gas_damping: AngularRate              # 16 P / (pi vbar rho a)
    thermal_occupation: float             # initial-bath phonon number
    quality_factor: float                 # effective Q entering thermalization


def recoil_energy(atoms: AtomEnsemble, lattice: LatticeBeam) -> float:
    """Photon recoil energy hbar^2 k^2 / (2 m) for one atom, in J."""
    if atoms.mass <= 0:
        raise ValueError("atom mass must be > 0")
    if lattice.wavelength <= 0:
        raise InvalidGeometryError("lattice wavelength must be > 0")
    k = lattice.wavenumber
    return CONSTANTS.hbar**2 * k**2 / (2.0 * atoms.mass)


def gas_damping_rate(environment: Environment, sphere: Sphere, mean_speed: float) -> float:
    """Background-gas damping 16 P / (pi vbar rho a), in rad/s."""
    if holds(sphere.radius <= 0) or sphere.density <= 0 or mean_speed <= 0:
        raise InvalidGeometryError("gas damping needs positive radius, density, speed")
    return 16.0 * environment.pressure / (math.pi * mean_speed * sphere.density * sphere.radius)


def gas_mean_speed(environment: Environment) -> float:
    """Mean thermal speed sqrt(8 k_B T / (pi m)) of the background gas."""
    if environment.temperature <= 0:
        raise ValueError("temperature must be > 0")
    if environment.gas_mass <= 0:
        raise ValueError("gas molecular mass must be > 0")
    return environment.mean_speed


def validate_config(config: SystemConfig) -> dict[str, list[str]]:
    """Collect every constraint violation, grouped by failure class.

    Classes: ``geometry`` (degenerate lengths), ``singular`` (model
    singularities such as zero detuning), ``value`` (everything else).
    """
    geometry: list[str] = []
    singular: list[str] = []
    value: list[str] = []

    s, cav, lat, tw = config.sphere, config.cavity, config.lattice, config.tweezer
    if holds(s.radius <= 0):
        geometry.append("sphere radius must be > 0")
    if cav.length <= 0:
        geometry.append("cavity length must be > 0")
    if cav.waist <= 0:
        geometry.append("cavity mode waist must be > 0")
    if lat.waist <= 0:
        geometry.append("lattice waist must be > 0")
    if lat.wavelength <= 0:
        geometry.append("lattice wavelength must be > 0")
    if tw.waist <= 0:
        geometry.append("tweezer waist must be > 0")
    if tw.wavelength <= 0:
        geometry.append("tweezer wavelength must be > 0")

    if lat.wavelength > 0 and lat.wavelength <= lat.reference_wavelength:
        singular.append(
            "lattice must be red-detuned: wavelength must exceed the reference line"
        )

    if s.density <= 0:
        value.append("sphere density must be > 0")
    if s.epsilon <= 1:
        value.append("sphere dielectric constant must be > 1")
    if s.quality_factor is not None and s.quality_factor <= 0:
        value.append("sphere quality factor override must be > 0")
    if cav.finesse <= 0:
        value.append("cavity finesse must be > 0")
    if cav.detection_power is not None and cav.detection_power <= 0:
        value.append("detection power must be > 0 when set")
    if not 0 < cav.coupling_efficiency <= 1:
        value.append("coupling efficiency must be in (0, 1]")
    if not 0 < cav.path_transmittivity <= 1:
        value.append("path transmittivity must be in (0, 1]")
    if lat.power < 0:
        value.append("lattice power must be >= 0")
    if lat.depth_recoils is not None:
        if lat.depth_recoils <= 0:
            value.append("lattice depth override must be > 0")
        if config.mode == PAPER_ANCHORED:
            value.append(
                "lattice depth override conflicts with paper-anchored mode "
                "(the depth is back-computed from the axial frequency)"
            )
    if tw.power < 0:
        value.append("tweezer power must be >= 0")
    if holds(config.atoms.count < 0):
        value.append("atom count must be >= 0")
    if config.atoms.mass <= 0:
        value.append("atom mass must be > 0")
    if config.atoms.axial_frequency is not None and config.atoms.axial_frequency <= 0:
        value.append("atom axial frequency must be > 0 when set")
    if config.atoms.cooling_rate is not None and config.atoms.cooling_rate < 0:
        value.append("atom cooling rate must be >= 0 when set")
    if config.environment.pressure < 0:
        value.append("gas pressure must be >= 0")
    if config.environment.temperature <= 0:
        value.append("environment temperature must be > 0")
    if config.environment.gas_mass <= 0:
        value.append("gas molecular mass must be > 0")
    if config.mode not in MODES:
        value.append(f"unknown mode {config.mode!r}; expected one of {MODES}")
    elif config.mode == PAPER_ANCHORED and config.atoms.axial_frequency is None:
        value.append("paper-anchored mode requires the atom axial frequency")
    noise = config.noise
    if noise.intensity_psd is not None and noise.intensity_psd < 0:
        value.append("intensity noise PSD must be >= 0")
    if noise.pointing_psd is not None:
        if noise.pointing_psd < 0:
            value.append("pointing noise PSD must be >= 0")
        if noise.mean_square_position is None:
            value.append(
                "pointing noise PSD requires the reference mean-square position"
            )
    if noise.mean_square_position is not None and noise.mean_square_position <= 0:
        value.append("reference mean-square position must be > 0")
    fb = config.feedback
    if fb.intracavity_photons is not None and fb.intracavity_photons < 0:
        value.append("intracavity photon number must be >= 0")
    if fb.measurement_linewidth is not None and fb.measurement_linewidth <= 0:
        value.append("measurement cavity linewidth must be > 0 when set")

    return {"geometry": geometry, "singular": singular, "value": value}


def derive(config: SystemConfig, mode: str | None = None) -> DerivedSystem:
    """Expand a config into the model's derived quantities.

    Pure and deterministic: identical inputs produce bit-identical outputs.
    Raises `InvalidGeometryError`, `SingularConfigurationError`, or
    `ConfigError` (carrying every violation) when the config is unusable.

    `sphere.radius` and `atoms.count` may also be numpy arrays that
    broadcast against each other, such as a sweep grid; the quantities that
    depend on them then broadcast too, and checks on them are left per cell
    (see `levicool.numeric.holds`).
    """
    if mode is None:
        mode = config.mode
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")

    problems = validate_config(config)
    if mode == FIRST_PRINCIPLES:
        # only the anchored mode needs the frequency override
        problems["value"] = [
            v for v in problems["value"]
            if not (v.startswith("paper-anchored mode requires")
                    or v.startswith("lattice depth override conflicts"))
        ]
    if problems["geometry"]:
        raise InvalidGeometryError("; ".join(problems["geometry"]))
    if problems["singular"]:
        raise SingularConfigurationError("; ".join(problems["singular"]))
    if problems["value"]:
        raise ConfigError(problems["value"])

    hbar = CONSTANTS.hbar
    sphere, cavity, lattice, atoms = config.sphere, config.cavity, config.lattice, config.atoms

    volume = sphere.volume
    mass = sphere.mass
    k_lattice = lattice.wavenumber
    omega_lattice = lattice.frequency
    delta = lattice.detuning
    alpha = lattice.flux_amplitude
    e_recoil = recoil_energy(atoms, lattice)

    # retro-reflected standing wave: 4 x the single-beam peak intensity
    input_intensity = 4.0 * lattice.peak_intensity

    if mode == PAPER_ANCHORED:
        atom_frequency = AngularRate(atoms.axial_frequency)
        depth = atoms.mass * atom_frequency**2 / (2.0 * k_lattice**2)
    else:
        if lattice.depth_recoils is not None:
            depth = lattice.depth_recoils * e_recoil
        else:
            depth = (hbar * CONSTANTS.rb87_gamma_se**2 * input_intensity
                     / (12.0 * delta * CONSTANTS.rb87_I_sat))
        atom_frequency = AngularRate(math.sqrt(2.0 * depth * k_lattice**2 / atoms.mass))

    radial_frequency = AngularRate(math.sqrt(4.0 * depth / (atoms.mass * lattice.waist**2)))
    sphere_frequency = AngularRate(atom_frequency + atoms.sphere_detuning)
    if sphere_frequency <= 0:
        raise SingularConfigurationError(
            "sphere trap frequency (atom frequency + detuning) must be > 0"
        )

    ell_atom = math.sqrt(hbar / (2.0 * atoms.mass * atom_frequency))
    ell_sphere = sqrt(hbar / (2.0 * mass * sphere_frequency))

    k_trap = config.tweezer.wavenumber
    linewidth = cavity.linewidth
    # circulating-beam peak intensity at the sphere: resonant buildup F/pi
    # over the input power, Gaussian peak 2P/(pi w^2); the standing-wave
    # factor is not applied (the sphere sits off the antinode, at the
    # maximal-gradient point of the fringe).
    circulating = 2.0 * (cavity.finesse / math.pi) * lattice.power / (math.pi * cavity.waist**2)

    mean_speed = config.environment.mean_speed
    occupation = CONSTANTS.k_B * config.environment.temperature / (hbar * sphere_frequency)
    damping = gas_damping_rate(config.environment, sphere, mean_speed)

    if sphere.quality_factor is not None:
        quality = sphere.quality_factor
    elif config.environment.pressure > 0:
        quality = sphere_frequency / damping
    else:
        quality = math.inf

    return DerivedSystem(
        config=config,
        mode=mode,
        sphere_volume=volume,
        sphere_mass=mass,
        mode_volume=cavity.mode_volume,
        cavity_linewidth=linewidth,
        lattice_wavenumber=k_lattice,
        lattice_frequency=omega_lattice,
        detuning=delta,
        flux_amplitude=alpha,
        lattice_input_intensity=input_intensity,
        lattice_circulating_intensity=circulating,
        lattice_depth=depth,
        lattice_depth_recoils=depth / e_recoil,
        recoil_energy=e_recoil,
        atom_frequency=atom_frequency,
        atom_radial_frequency=radial_frequency,
        sphere_frequency=sphere_frequency,
        atom_oscillator_length=ell_atom,
        sphere_oscillator_length=ell_sphere,
        trap_wavenumber=k_trap,
        tweezer_intensity=config.tweezer.peak_intensity,
        sphere_recoil_trap=angular(hbar * k_trap**2 / (2.0 * mass)),
        sphere_recoil_lattice=angular(hbar * k_lattice**2 / (2.0 * mass)),
        gas_mean_speed=mean_speed,
        gas_damping=angular(damping),
        thermal_occupation=occupation,
        quality_factor=quality,
    )
