"""Arithmetic that the evaluation pipeline runs on floats and on grids alike.

`derive`, the rate functions and `steady_state` evaluate one design point
on plain floats, and a whole sweep grid in one pass on numpy arrays that
broadcast (sphere radius along axis 0, atom count along axis 1). These
helpers are the only places where the two cases differ. On a float each
one is the plain Python operation, so a single point stays plain-float
code, and a grid cell gets exactly the bits the same point gets alone.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import AngularRate

# module constants: the helpers run several times per scalar evaluation
_NDARRAY = np.ndarray
_NUMPY_TRUE = np.True_


def power(x, p):
    """``x ** p``, with every array element rounded as Python's ``float ** p``.

    numpy's array power (and ``np.square``) rounds differently from libm
    ``pow`` in the last bit for a fraction of a percent of squares and a few
    percent of cubes, so array elements go through ``pow`` one by one. An
    element that overflows becomes inf, as a numpy scalar's power does.
    """
    if x.__class__ is not _NDARRAY:
        return x ** p
    values = x.ravel().tolist()
    try:
        result = [v ** p for v in values]
    except OverflowError:
        with np.errstate(over="ignore"):
            result = [np.float64(v) ** p for v in values]
    return np.array(result, dtype=float).reshape(x.shape)


def sqrt(x):
    """`math.sqrt` for a scalar, `np.sqrt` (same rounding) for an array."""
    return np.sqrt(x) if x.__class__ is _NDARRAY else math.sqrt(x)


def angular(x):
    """Tag a scalar as an `AngularRate`; an array of rates passes unchanged."""
    return x if x.__class__ is _NDARRAY else AngularRate(x)


def holds(condition) -> bool:
    """Whether a per-point guard or branch condition holds.

    A scalar condition decides as usual. A grid condition never holds here:
    every cell is evaluated, and the cells it would have stopped come out
    non-finite or with zero atom cooling, which the sweep re-evaluates one
    by one (see `levicool.sweep.run_sweep`).
    """
    return condition is True or condition is _NUMPY_TRUE
