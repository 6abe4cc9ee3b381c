"""Shared fixtures: the two bundled reference configs and their pipelines,
the JSON oracles, the closed-form coupling oracle, and the hypothesis
profile every property runs under."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from levicool import (AtomEnsemble, Cavity, Environment, LatticeBeam,
                      NoiseBudget, Sphere, SystemConfig, TweezerBeam,
                      evaluate, from_display_hz, load_config)

# every property draws the same examples on every run: the seed comes from the
# test's own source, and no example database carries failures between runs
settings.register_profile("levicool", deadline=None, derandomize=True, database=None)
settings.load_profile("levicool")


def strict_json_loads(text: str):
    """`json.loads` that rejects NaN, Infinity and -Infinity, which RFC 8259 lacks."""
    def reject(constant):
        raise ValueError(f"{constant} is not RFC 8259 JSON")
    return json.loads(text, parse_constant=reject)


def document_to_dict(document) -> dict:
    """A report as the nested dict its JSON rendering writes."""
    return {title: {row.key: row.value for row in rows}
            for title, rows in document.items()}


REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
CONFIG_300NM = CONFIG_DIR / "table1_300nm.cfg"
CONFIG_100NM = CONFIG_DIR / "table1_100nm.cfg"


@pytest.fixture(scope="session")
def config_300nm():
    return load_config(CONFIG_300NM)


@pytest.fixture(scope="session")
def config_100nm():
    return load_config(CONFIG_100NM)


@pytest.fixture(scope="session")
def pipeline_300nm(config_300nm):
    return evaluate(config_300nm)


@pytest.fixture(scope="session")
def pipeline_100nm(config_100nm):
    return evaluate(config_100nm)


def make_random_config(rng: np.random.Generator) -> SystemConfig:
    """A random valid configuration spanning the documented design ranges."""
    radius = 10e-9 * 10 ** rng.uniform(0.0, np.log10(50.0))   # 10..500 nm
    count = 10 ** rng.uniform(3.0, 9.0)                       # 1e3..1e9 atoms
    axial = from_display_hz(10 ** rng.uniform(3.5, 5.5))      # ~3 kHz..316 kHz
    return SystemConfig(
        sphere=Sphere(radius=radius, density=rng.uniform(1500, 4000),
                      epsilon=rng.uniform(1.5, 4.0)),
        cavity=Cavity(length=rng.uniform(0.01, 0.2),
                      finesse=rng.uniform(50, 5000),
                      waist=rng.uniform(2e-6, 20e-6)),
        lattice=LatticeBeam(wavelength=780.74e-9,
                            power=10 ** rng.uniform(-6, -3),
                            waist=rng.uniform(10e-6, 100e-6)),
        tweezer=TweezerBeam(wavelength=1550e-9,
                            power=10 ** rng.uniform(-2, 0),
                            waist=rng.uniform(1e-6, 5e-6)),
        atoms=AtomEnsemble(count=count, axial_frequency=axial),
        environment=Environment(pressure=10 ** rng.uniform(-9, -6),
                                temperature=rng.uniform(4.0, 600.0)),
        noise=NoiseBudget(),
    )


@pytest.fixture
def random_config_factory():
    return make_random_config


def closed_form_coupling(d) -> float:
    """The atom-sphere exchange rate in its mass-ratio closed form, an oracle
    for 2 * coupling_atom * coupling_sphere: the lattice amplitude and the
    oscillator lengths cancel from that product."""
    atoms = d.config.atoms
    return (1.5 * (d.sphere_volume / d.mode_volume) * d.polarizability_factor
            * (d.lattice_frequency / d.cavity_linewidth) * d.atom_frequency
            * math.sqrt(atoms.mass * atoms.count * d.atom_frequency
                        / (d.sphere_mass * d.sphere_frequency)))
