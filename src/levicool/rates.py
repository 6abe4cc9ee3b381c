"""Coupling, cooling, heating, damping, and sensing rates of the model.

Every operation consumes a `DerivedSystem` (or explicit scalars where the
quantity is an external knob) and returns angular rates in rad/s. The
assembled `RateBundle` is what the steady-state, sweep, and dynamics layers
work with.

Conventions that matter here:

* The sphere-light coupling scales the cavity response by alpha/kappa; the
  identity coupling = 2 * coupling_atom * coupling_sphere holds exactly.
* Radiation-pressure backaction is 2 * coupling_sphere**2, read as rad/s.
* The photon-recoil heating sums a tweezer term (Gaussian peak intensity at
  the full quoted power) and a lattice term (intracavity circulating-beam
  peak intensity); the tweezer term dominates for realistic designs.
* With no quality-factor override, thermalization is the product of the
  bath occupation and the gas damping rate, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS, AngularRate
from .errors import InvalidGeometryError, SingularConfigurationError
from .numeric import angular, holds, power, sqrt
from .system import DerivedSystem, gas_damping_rate, photon_frequency

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class RateBundle:
    """Every rate of the coupled atom-sphere model, plus its sensing figures."""

    coupling_atom: AngularRate         # atom-light coupling
    coupling_sphere: AngularRate       # sphere-light coupling
    coupling: AngularRate              # effective atom-sphere exchange rate
    atom_cooling: AngularRate          # applied cold-atom cooling rate
    cooling: AngularRate               # sympathetic cooling rate of the sphere
    atom_diffusion: AngularRate        # lattice-photon momentum diffusion (atoms)
    sphere_backaction: AngularRate     # radiation-pressure momentum diffusion (sphere)
    sphere_recoil: AngularRate         # photon-recoil heating (sphere)
    gas_damping: AngularRate
    thermalization: AngularRate
    intensity_noise: AngularRate       # parametric heating from intensity noise
    pointing_noise: AngularRate        # heating from beam-pointing noise
    cavity_linewidth: AngularRate
    atom_frequency: AngularRate
    sphere_frequency: AngularRate
    thermal_occupation: float          # initial-bath phonon occupation
    scatter_trap: float                # photons/s off the tweezer
    scatter_lattice: float             # photons/s off the intracavity lattice
    sensitivity_floor: float | None    # m/sqrt(Hz); None without a detection beam
    cooperativity: float | None        # feedback figure; None unless configured
    include_noise_in_occupation: bool = False


def atom_light_coupling(d: DerivedSystem) -> AngularRate:
    """Atom-light coupling: omega_at sqrt(pi N) / (2 alpha k_L ell_at)."""
    if d.flux_amplitude == 0:
        raise SingularConfigurationError("atom-light coupling needs lattice power > 0")
    n = d.config.atoms.count
    return angular(
        d.atom_frequency * sqrt(math.pi * n)
        / (2.0 * d.flux_amplitude * d.lattice_wavenumber * d.atom_oscillator_length)
    )


def sphere_light_coupling(d: DerivedSystem) -> AngularRate:
    """Sphere-light coupling: (3/2)(V/V_c) contrast * omega k_L ell_m (alpha/kappa)/sqrt(pi)."""
    if d.cavity_linewidth == 0:
        raise InvalidGeometryError("cavity linewidth must be > 0")
    return angular(
        1.5 * (d.sphere_volume / d.mode_volume)
        * d.config.sphere.polarizability_factor
        * d.lattice_frequency * d.lattice_wavenumber * d.sphere_oscillator_length
        * (d.flux_amplitude / d.cavity_linewidth) / SQRT_PI
    )


def effective_coupling(d: DerivedSystem) -> AngularRate:
    """Closed form of the atom-sphere exchange rate.

    Equals 2 * atom_light_coupling * sphere_light_coupling; the lattice
    amplitude and oscillator lengths cancel, leaving the mass-ratio form.
    """
    if d.cavity_linewidth == 0:
        raise InvalidGeometryError("cavity linewidth must be > 0")
    atoms = d.config.atoms
    return angular(
        1.5 * (d.sphere_volume / d.mode_volume)
        * d.config.sphere.polarizability_factor
        * (d.lattice_frequency / d.cavity_linewidth) * d.atom_frequency
        * sqrt(atoms.mass * atoms.count * d.atom_frequency
                    / (d.sphere_mass * d.sphere_frequency))
    )


def sympathetic_cooling_rate(coupling: float, atom_cooling: float,
                             detuning: float = 0.0) -> AngularRate:
    """Cooling of the sphere through the atoms.

    gamma_cool = atom_cooling * g^2 / (detuning^2 + (atom_cooling/2)^2);
    on resonance this is 4 g^2 / atom_cooling.
    """
    if holds(atom_cooling <= 0):
        raise SingularConfigurationError("atom cooling rate must be > 0")
    return angular(
        atom_cooling * power(coupling, 2) / (detuning**2 + power(atom_cooling / 2.0, 2))
    )


def atom_diffusion_rate(d: DerivedSystem) -> AngularRate:
    """Lattice-photon momentum diffusion of the atoms.

    (k_L ell_at)^2 gamma_se V0 / (hbar delta), with V0 consistent with the
    active derivation mode.
    """
    if d.detuning <= 0:
        raise SingularConfigurationError("atom diffusion needs red detuning > 0")
    return AngularRate(
        (d.lattice_wavenumber * d.atom_oscillator_length)**2
        * CONSTANTS.rb87_gamma_se * d.lattice_depth / (CONSTANTS.hbar * d.detuning)
    )


def rayleigh_scattering_rate(intensity: float, wavelength: float,
                             volume: float, epsilon: float) -> float:
    """Photon scattering rate of a dielectric sphere, in photons/s.

    24 pi^3 I V^2 / lambda^4 * 1/(hbar omega) * ((eps-1)/(eps+2))^2.
    """
    if wavelength <= 0:
        raise InvalidGeometryError("wavelength must be > 0")
    omega = photon_frequency(wavelength)
    contrast = (epsilon - 1.0) / (epsilon + 2.0)
    return (24.0 * math.pi**3 * intensity * power(volume, 2) / wavelength**4
            / (CONSTANTS.hbar * omega) * contrast**2)


def _scatter_rates(d: DerivedSystem) -> tuple[float, float]:
    """Photons/s the sphere scatters off the tweezer and off the intracavity lattice."""
    eps = d.config.sphere.epsilon
    trap = rayleigh_scattering_rate(
        d.tweezer_intensity, d.config.tweezer.wavelength, d.sphere_volume, eps)
    lattice = rayleigh_scattering_rate(
        d.lattice_circulating_intensity, d.config.lattice.wavelength,
        d.sphere_volume, eps)
    return trap, lattice


def _recoil_heating(d: DerivedSystem, scatter_trap: float,
                    scatter_lattice: float) -> AngularRate:
    if d.sphere_frequency <= 0:
        raise SingularConfigurationError("sphere trap frequency must be > 0")
    return angular(
        0.4 * (d.sphere_recoil_trap / d.sphere_frequency) * scatter_trap
        + 0.4 * (d.sphere_recoil_lattice / d.sphere_frequency) * scatter_lattice
    )


def sphere_recoil_heating(d: DerivedSystem) -> AngularRate:
    """Recoil heating of the sphere: (2/5)(omega_rec/omega_m) R_sc per beam."""
    return _recoil_heating(d, *_scatter_rates(d))


def radiation_pressure_diffusion(coupling_sphere: float) -> AngularRate:
    """Radiation-pressure shot-noise diffusion, 2 * coupling_sphere^2 (rad/s)."""
    return angular(2.0 * power(coupling_sphere, 2))


def gas_damping(d: DerivedSystem) -> AngularRate:
    """Background-gas damping 16 P / (pi vbar rho a), from the system's config.

    `derive` stores the same value as `DerivedSystem.gas_damping`.
    """
    return angular(gas_damping_rate(d.config.environment, d.config.sphere,
                                    d.gas_mean_speed))


def thermalization_rate(d: DerivedSystem) -> AngularRate:
    """Bath thermalization k_B T / (hbar Q).

    With no quality-factor override, Q = omega_m / gamma_g, and the rate is
    computed as thermal_occupation * gas_damping so the identity with those
    bundle entries is exact.
    """
    if d.config.sphere.quality_factor is not None:
        return AngularRate(
            CONSTANTS.k_B * d.config.environment.temperature
            / (CONSTANTS.hbar * d.config.sphere.quality_factor)
        )
    return angular(d.thermal_occupation * d.gas_damping)


def _dispersive_shift(d: DerivedSystem) -> float:
    """Dispersive shift rate (3V/4V_c) * contrast * omega_c of the cavity."""
    return (0.75 * (d.sphere_volume / d.mode_volume)
            * d.config.sphere.polarizability_factor * d.lattice_frequency)


def single_phonon_coupling(d: DerivedSystem) -> AngularRate:
    """Single-phonon dispersive coupling: cavity frequency pull per zero-point step.

    The pull per displacement is twice the dispersive shift over c in
    wavenumber terms, and one phonon moves the sphere by its oscillator
    length.
    """
    pull_per_meter = 2.0 * d.lattice_frequency * _dispersive_shift(d) / CONSTANTS.c
    return angular(pull_per_meter * d.sphere_oscillator_length)


def displacement_sensitivity(d: DerivedSystem, probe_frequency: float,
                             detection_power: float) -> float:
    """Shot-noise-limited displacement sensitivity, m/sqrt(Hz).

    (kappa c / (4 omega_c g_s)) / sqrt(photon flux) * sqrt(1 + 4 Omega^2/kappa^2),
    with the dispersive shift rate g_s standing in for the coupling in the
    denominator.
    """
    if detection_power <= 0:
        raise SingularConfigurationError("detection power must be > 0")
    shift = _dispersive_shift(d)
    if holds(shift == 0):
        raise SingularConfigurationError("dispersive shift vanishes (no sphere contrast)")
    flux = detection_power / (CONSTANTS.hbar * d.lattice_frequency)
    return (d.cavity_linewidth * CONSTANTS.c / (4.0 * d.lattice_frequency * shift)
            / math.sqrt(flux)
            * math.sqrt(1.0 + 4.0 * probe_frequency**2 / d.cavity_linewidth**2))


def intensity_noise_heating(trap_frequency: float, intensity_psd: float) -> AngularRate:
    """Parametric heating omega_m^2 / 4 * S_k(2 omega_m) from intensity noise."""
    if intensity_psd < 0:
        raise ValueError("intensity PSD must be >= 0")
    return AngularRate(trap_frequency**2 / 4.0 * intensity_psd)


def pointing_noise_heating(trap_frequency: float, pointing_psd: float,
                           mean_square_position: float) -> AngularRate:
    """Heating omega_m^2 S_x(2 omega_m) / (4 <x^2>) from beam pointing noise.

    The reference <x^2> is an explicit input; pick the thermal, steady-state,
    or zero-point value according to the scenario being budgeted.
    """
    if mean_square_position <= 0:
        raise SingularConfigurationError("mean-square position must be > 0")
    if pointing_psd < 0:
        raise ValueError("pointing PSD must be >= 0")
    return AngularRate(
        trap_frequency**2 * pointing_psd / (4.0 * mean_square_position)
    )


def transmission_degraded_cooling(cooling: float, transmittivity: float,
                                  efficiency: float) -> AngularRate:
    """Reduce the sympathetic cooling rate by t^2 eta^2 for a lossy path."""
    if not 0 < transmittivity <= 1:
        raise ValueError("transmittivity must be in (0, 1]")
    if not 0 < efficiency <= 1:
        raise ValueError("coupling efficiency must be in (0, 1]")
    return angular(cooling * transmittivity**2 * efficiency**2)


def feedback_cooperativity(single_phonon: float, intracavity_photons: float,
                           mechanical_damping: float,
                           readout_linewidth: float) -> float:
    """Measurement cooperativity 4 g0^2 n_c / (Gamma_m kappa_MC)."""
    if holds(mechanical_damping <= 0) or readout_linewidth <= 0:
        raise SingularConfigurationError(
            "cooperativity needs mechanical damping and readout linewidth > 0")
    if intracavity_photons < 0:
        raise ValueError("intracavity photon number must be >= 0")
    return (4.0 * power(single_phonon, 2) * intracavity_photons
            / (mechanical_damping * readout_linewidth))


# Default rule for the applied atom cooling rate when no override is given:
# slightly above the coupling, which keeps the adiabatic condition satisfied
# while nearly maximizing the on-resonance cooling 4 g^2 / gamma.
ATOM_COOLING_FACTOR = 1.1


def build_rate_bundle(d: DerivedSystem) -> RateBundle:
    """Assemble the full rate bundle for a derived system.

    Handles the decoupled limit (no atoms and no cooling override) by
    setting the cooling channel to zero instead of failing, and applies the
    t^2 eta^2 transmission factor to the sympathetic cooling rate.
    """
    config = d.config
    g_atom = atom_light_coupling(d)
    g_sphere = sphere_light_coupling(d)
    g = angular(2.0 * g_atom * g_sphere)

    if config.atoms.cooling_rate is not None:
        atom_cooling = AngularRate(config.atoms.cooling_rate)
    else:
        atom_cooling = angular(ATOM_COOLING_FACTOR * g)

    if holds(atom_cooling == 0):
        if holds(g != 0):
            raise SingularConfigurationError(
                "a coupled ensemble needs a nonzero atom cooling rate")
        cooling = AngularRate(0.0)
    else:
        cooling = sympathetic_cooling_rate(g, atom_cooling,
                                           config.atoms.sphere_detuning)
        cooling = transmission_degraded_cooling(
            cooling, config.cavity.path_transmittivity,
            config.cavity.coupling_efficiency)

    scatter_trap, scatter_lattice = _scatter_rates(d)

    noise = config.noise
    if noise.intensity_psd is not None:
        gamma_intensity = intensity_noise_heating(d.sphere_frequency, noise.intensity_psd)
    else:
        gamma_intensity = AngularRate(0.0)
    if noise.pointing_psd is not None:
        gamma_pointing = pointing_noise_heating(
            d.sphere_frequency, noise.pointing_psd, noise.mean_square_position)
    else:
        gamma_pointing = AngularRate(0.0)

    if config.cavity.detection_power is not None:
        floor = displacement_sensitivity(d, d.sphere_frequency,
                                         config.cavity.detection_power)
    else:
        floor = None

    if config.feedback.intracavity_photons is not None:
        readout = config.feedback.measurement_linewidth
        if readout is None:
            readout = d.cavity_linewidth
        cooperativity = feedback_cooperativity(
            single_phonon_coupling(d), config.feedback.intracavity_photons,
            d.gas_damping, readout)
    else:
        cooperativity = None

    return RateBundle(
        coupling_atom=g_atom,
        coupling_sphere=g_sphere,
        coupling=g,
        atom_cooling=atom_cooling,
        cooling=cooling,
        atom_diffusion=atom_diffusion_rate(d),
        sphere_backaction=radiation_pressure_diffusion(g_sphere),
        sphere_recoil=_recoil_heating(d, scatter_trap, scatter_lattice),
        gas_damping=d.gas_damping,
        thermalization=thermalization_rate(d),
        intensity_noise=gamma_intensity,
        pointing_noise=gamma_pointing,
        cavity_linewidth=d.cavity_linewidth,
        atom_frequency=d.atom_frequency,
        sphere_frequency=d.sphere_frequency,
        thermal_occupation=d.thermal_occupation,
        scatter_trap=scatter_trap,
        scatter_lattice=scatter_lattice,
        sensitivity_floor=floor,
        cooperativity=cooperativity,
        include_noise_in_occupation=noise.include_in_occupation,
    )
