"""Arithmetic that the evaluation pipeline runs on floats and on grids alike.

`derive`, the rate functions and `steady_state` evaluate one design point
on plain floats, and a whole grid in one pass on numpy arrays that
broadcast: any float config key may be an array, set by
`levicool.sweep.evaluate_grid` from 1-D axes. These helpers are the only
places where the two cases differ, so every power of a quantity goes
through `power`. On a float each one is the plain Python operation, so a
single point stays plain-float code; on an array it is numpy code that
rounds each element the same way, so a grid cell gets exactly the bits the
same point gets alone. `frozen_record` builds the pipeline's frozen records.
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


def holds(condition) -> bool:
    """Whether a per-point guard or branch condition holds.

    A scalar condition decides as usual. A grid condition never holds here:
    every cell is evaluated, and `levicool.sweep.evaluate_grid` evaluates
    alone each cell that breaks a check of `validate_config` or comes out
    non-finite, as a cell that breaks a guard does.
    """
    return condition is True or condition is _NUMPY_TRUE


def listed(found: list, item: tuple, condition) -> bool:
    """Whether a scalar `condition` holds, appending `item` to `found` if so.
    An array condition, a mask of cells, goes in as `item`'s last element; it gives False."""
    if condition.__class__ is not _NDARRAY:
        if condition:
            found.append(item)
        return condition
    found.append((*item, condition))
    return False


def frozen_record(cls, fields: dict):
    """An instance of the frozen dataclass `cls` whose ``__dict__`` is `fields`,
    a new dict of every field in declaration order.

    A frozen ``__init__`` calls `object.__setattr__` once per field, which took
    about a third of a scalar evaluation. No ``__init__`` or ``__post_init__``
    runs; equality, hashing, ``repr`` and `dataclasses.replace` behave as usual.
    """
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", fields)
    return record
