"""levicool: design toolkit for sympathetic cooling of an optically levitated
nanosphere by lattice-trapped cold atoms.

The pipeline is config -> derived quantities -> rate bundle -> steady-state
report; sweeps, optimization, and time evolution are layered on top of the
same pure evaluation.
"""

__version__ = "0.1.0"

from .constants import (AngularRate, CONSTANTS, PhysicalConstants, TWO_PI,
                        from_display_hz, to_display_hz, torr_to_pascal)
from .errors import (ConfigError, InfeasibleError, InvalidGeometryError,
                     SingularConfigurationError)
from .system import (AtomEnsemble, Cavity, DerivedSystem, Environment,
                     FeedbackReadout, LatticeBeam, NoiseBudget, Sphere,
                     SystemConfig, TweezerBeam, derive, gas_mean_speed,
                     recoil_energy)
from .rates import RateBundle, build_rate_bundle
from .steady_state import (RegimeFlags, SteadyStateReport, classify_regimes,
                           evaluate, strong_coupling_ratio)
from .dynamics import NormalModes, SimulationTrace, evolve_occupation, normal_modes
from .sweep import (OptimizeSpec, OptimizeResult, SweepCell, SweepResult,
                    SweepSpec, finesse_tradeoff, optimize, run_sweep)
from .configfile import (build_config, config_items, get_value, load_config,
                         parse_config_text, set_value)

__all__ = [
    "AngularRate", "CONSTANTS", "PhysicalConstants", "TWO_PI",
    "from_display_hz", "to_display_hz", "torr_to_pascal",
    "ConfigError", "InfeasibleError", "InvalidGeometryError",
    "SingularConfigurationError",
    "AtomEnsemble", "Cavity", "DerivedSystem", "Environment",
    "FeedbackReadout", "LatticeBeam", "NoiseBudget", "Sphere",
    "SystemConfig", "TweezerBeam", "derive", "gas_mean_speed", "recoil_energy",
    "RateBundle", "build_rate_bundle",
    "RegimeFlags", "SteadyStateReport", "classify_regimes", "evaluate",
    "strong_coupling_ratio",
    "NormalModes", "SimulationTrace", "evolve_occupation", "normal_modes",
    "OptimizeSpec", "OptimizeResult", "SweepCell", "SweepResult", "SweepSpec",
    "finesse_tradeoff", "optimize", "run_sweep",
    "build_config", "config_items", "get_value", "load_config",
    "parse_config_text", "set_value",
]
