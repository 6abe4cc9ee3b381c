"""Bit-for-bit pins of the derived quantities and the rate bundle.

The other oracles compare to `rel=1e-9`, to 4-digit report text or to
`%.12g` CSV cells, so none of them sees a last-bit change. These pin the
exact bits of every float field of `DerivedSystem` and `RateBundle` (by
`float.hex`, or by the bytes of an array field) on the reference designs,
on first-principles mode with and without a depth override, without gas,
and on the broadcast pass of a radius x atom-count grid.
"""

import hashlib

import numpy as np
import pytest

from levicool import evaluate, load_config, set_value
from levicool import sweep

from conftest import CONFIG_100NM, CONFIG_300NM

#: the pinned fields, as `DerivedSystem` and `RateBundle` declared them when
#: the digests below were recorded
DERIVED_FIELDS = (
    "sphere_volume", "sphere_mass", "mode_volume", "cavity_linewidth",
    "lattice_wavenumber", "lattice_frequency", "detuning", "flux_amplitude",
    "lattice_input_intensity", "lattice_circulating_intensity", "lattice_depth",
    "lattice_depth_recoils", "recoil_energy", "atom_frequency",
    "atom_radial_frequency", "sphere_frequency", "atom_oscillator_length",
    "sphere_oscillator_length", "trap_wavenumber", "tweezer_intensity",
    "sphere_recoil_trap", "sphere_recoil_lattice", "gas_mean_speed",
    "gas_damping", "thermal_occupation", "quality_factor",
)
BUNDLE_FIELDS = (
    "coupling_atom", "coupling_sphere", "coupling", "atom_cooling", "cooling",
    "atom_diffusion", "sphere_backaction", "sphere_recoil", "gas_damping",
    "thermalization", "intensity_noise", "pointing_noise", "cavity_linewidth",
    "atom_frequency", "sphere_frequency", "thermal_occupation", "scatter_trap",
    "scatter_lattice", "sensitivity_floor", "cooperativity",
)


def _bits(value) -> str:
    if value is None:
        return "None"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}:{value.tobytes().hex()}"
    return float(value).hex()


def _digest(derived, bundle) -> str:
    lines = [f"derived.{name}={_bits(getattr(derived, name))}" for name in DERIVED_FIELDS]
    lines += [f"bundle.{name}={_bits(getattr(bundle, name))}" for name in BUNDLE_FIELDS]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _point(path, *settings):
    config = load_config(path)
    for key, value in settings:
        config = set_value(config, key, value)
    return config


POINTS = {
    "300nm": (CONFIG_300NM,),
    "100nm": (CONFIG_100NM,),
    "300nm-first-principles": (CONFIG_300NM, ("mode", "first-principles")),
    "300nm-first-principles-depth": (CONFIG_300NM, ("mode", "first-principles"),
                                     ("lattice.depth_recoils", 30.0)),
    "100nm-first-principles-depth": (CONFIG_100NM, ("mode", "first-principles"),
                                     ("lattice.depth_recoils", 18.0)),
    "300nm-no-gas": (CONFIG_300NM, ("env.pressure_torr", 0.0)),
}

#: sha256 of the field bits of each point, recorded before `derive` became
#: the one place derived quantities are computed
POINT_SHA256 = {
    "300nm":
        "c6f8d166946f84cd221e27dc507981f60a0b46854857cb41083ef55b85181486",
    "100nm":
        "692be1a5532e7a876a46208ad8e4322c193d7403b5308153a6167201bbc50a1b",
    "300nm-first-principles":
        "c628cef3ec982bef9794b5454feaea1af05b4302a298d81be02f057058da9945",
    "300nm-first-principles-depth":
        "9aa02a39a99e297cb86ecc5af6232d87aad3661bfadd2726827dc42119ae048f",
    "100nm-first-principles-depth":
        "0a4693c8657f9d7bc72307dd5862df2b11e28f77ca9f2b103a661cfdce1cfa00",
    "300nm-no-gas":
        "0c474520374122ded84163f4cd1af47f050a5c752c5da13e1f74d60092ac6791",
}

#: the same for the broadcast pass of a 3 x 4 radius x atom-count grid around
#: the 300 nm design (the 100 nm design differs from it only in the radius),
#: and the sha256 of that grid's value columns
GRID_SHA256 = ("66546130fe3a153a9cc925fd880bc0637c97baca723a45cd6e063e784d6abd8d",
               "53ce166d1c1ac49a5aef744fb96a9d0e5f7c5b54daa0aecffe9758cc04a40b15")


@pytest.mark.parametrize("name", list(POINTS))
def test_point_bits(name):
    derived, bundle, _ = evaluate(_point(*POINTS[name]))
    assert _digest(derived, bundle) == POINT_SHA256[name]


def test_grid_bits(config_300nm, monkeypatch):
    passes = []

    def recording(config):
        passes.append(evaluate(config))
        return passes[-1]

    monkeypatch.setattr(sweep, "evaluate", recording)
    axes = {"sphere.radius_nm": np.array([60e-9, 150e-9, 400e-9]),
            "atoms.count": np.array([1e5, 1e6, 5e7, 1e9])}
    values, _, errors = sweep.evaluate_grid(config_300nm, axes)
    assert not errors and len(passes) == 1
    derived, bundle, _ = passes[0]
    assert isinstance(derived.sphere_volume, np.ndarray)
    columns = hashlib.sha256(b"".join(
        name.encode() + column.tobytes() for name, column in values.items())).hexdigest()
    assert (_digest(derived, bundle), columns) == GRID_SHA256
