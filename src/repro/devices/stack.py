"""The corner axis of the device equations.

Every device model evaluates one bias point or a *stack* of bias corners:
1-D arrays along a leading corner axis, every quantity it returns then the
array of its values there.  The equations are written once, in operations
that mean the same on Python floats and elementwise on arrays: IEEE
arithmetic and ``sqrt``, which round the same either way, :func:`pick` for
a per-corner choice, and :func:`libm` for the transcendental functions,
which run the C library's kernel on every corner (numpy's vectorised
``pow``/``tanh``/``cosh`` differ from it in the last bit).  So a corner's
values are bit-identical alone or in any stack, and a scalar call costs
only Python float arithmetic.
"""

from __future__ import annotations

import math

import numpy as np


def as_corners(*values) -> tuple:
    """``values`` as Python floats when every one is a scalar (one bias
    point), else as contiguous 1-D float arrays broadcast to one length."""
    if not any(isinstance(value, np.ndarray) and value.ndim
               for value in values):
        return tuple(float(value) for value in values)
    arrays = np.broadcast_arrays(*(np.atleast_1d(np.asarray(value, dtype=float))
                                   for value in values))
    return tuple(np.ascontiguousarray(array) for array in arrays)


def pick(mask, a, b):
    """``a`` where ``mask`` holds, else ``b``: per corner of a stack."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def choose(code, options):
    """``options[code]``, per corner of a stack of integer codes."""
    if isinstance(code, np.ndarray):
        return np.choose(code, options)
    return options[code]


def anywhere(mask) -> bool:
    """Whether ``mask`` holds on any corner."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def larger(a, b):
    """The larger of ``a`` and ``b`` (``a`` on a tie), per corner."""
    return pick(a < b, b, a)


def smaller(a, b):
    """The smaller of ``a`` and ``b`` (``a`` on a tie), per corner."""
    return pick(b < a, b, a)


def sqrt(x):
    """The correctly rounded square root, of a scalar or per corner."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def libm(function, x):
    """``function`` (a one-argument ``math`` function) of a scalar, or of
    every corner of a stack: the C library's result either way."""
    if isinstance(x, np.ndarray):
        return np.array([function(value) for value in x.tolist()])
    return function(x)
