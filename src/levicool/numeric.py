"""Arithmetic that the evaluation pipeline runs on floats and on grids alike.

`derive`, the rate functions and `steady_state` evaluate one design point
on plain floats, and a whole grid in one pass on numpy arrays that
broadcast. The keys that may be arrays are those marked `grid` in the
config-key registry (a sweep varies the sphere radius and atom count, the
optimizer's coarse grid any of them). These helpers are the only places
where the two cases differ. On a float each one is the plain Python
operation, so a single point stays plain-float code; on an array it is
numpy code that rounds each element the same way, so a grid cell gets
exactly the bits the same point gets alone. Every other operation of the
pipeline is written once and runs unchanged on both.
"""

from __future__ import annotations

import math

import numpy as np

# module constants: the helpers run several times per scalar evaluation
_NDARRAY = np.ndarray
_NUMPY_TRUE = np.True_


def power(x, p):
    """``x ** p``, with every array element rounded as Python's ``float ** p``.

    An array goes through one `np.float_power` call, whose float64 loop
    calls the libm ``pow`` of ``float ** p`` (`np.power` and `np.square`
    round differently). The result is float64 of `x`'s shape, 0-d included,
    and an element that overflows becomes inf without a warning.
    """
    if x.__class__ is not _NDARRAY:
        return x ** p
    with np.errstate(over="ignore"):
        return np.float_power(x, p, out=np.empty(x.shape))


def sqrt(x):
    """`math.sqrt` for a scalar, `np.sqrt` (same rounding) for an array."""
    return np.sqrt(x) if x.__class__ is _NDARRAY else math.sqrt(x)


def minimum(a, b):
    """``min(a, b)``, element by element when either is an array.

    Like ``min``, it keeps `a` unless `b` is strictly smaller, so a NaN in
    `a` is kept and a NaN in `b` never wins.
    """
    if a.__class__ is not _NDARRAY and b.__class__ is not _NDARRAY:
        return min(a, b)
    return np.where(b < a, b, a)


def holds(condition) -> bool:
    """Whether a per-point guard or branch condition holds.

    A scalar condition decides as usual. A grid condition never holds here:
    every cell is evaluated, and the cells it would have stopped come out
    non-finite or with zero atom cooling, which the grid evaluator
    re-evaluates one by one (see `levicool.sweep.evaluate_grid`).
    """
    return condition is True or condition is _NUMPY_TRUE
