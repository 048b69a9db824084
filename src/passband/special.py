"""scipy.special's expit, logit and xlogy(x, x) as the formulas scipy 1.17
computes, one Python float at a time.

Each goes through Python's math module, which calls libm's exp, log and
log1p as scipy's compiled ufuncs do, so it gives scipy's bits where both
call the same libm. numpy's own exp and log differ from libm in the last
bit on some inputs, so per_element maps an array through Python floats,
not through a numpy ufunc.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["expit", "logit", "xlogx", "per_element"]


def expit(x: float) -> float:
    """1 / (1 + exp(-x)): scipy's expit, 0.0 where exp(-x) overflows (x
    below about -709.78, where expit's 1 / inf is 0.0 too)."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def logit(p: float) -> float:
    """scipy's logit: log1p(2(p - 1/2)) - log1p(-2(p - 1/2)) on [0.3, 0.65],
    log(p / (1 - p)) elsewhere in (0, 1); -inf at 0, inf at 1, nan outside."""
    if 0.3 <= p <= 0.65:
        s = 2.0 * (p - 0.5)
        return math.log1p(s) - math.log1p(-s)
    if 0.0 < p < 1.0:
        return math.log(p / (1.0 - p))
    return -math.inf if p == 0.0 else math.inf if p == 1.0 else math.nan


def xlogx(x: float) -> float:
    """x log x for x in [0, 1], 0.0 at 0: scipy's xlogy(x, x)."""
    return x * math.log(x) if x else 0.0


def per_element(f, x) -> np.ndarray:
    """f applied to each element of x as a Python float, in x's shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
