"""Checks and conversions shared by the modules whose formulas take arrays."""
from __future__ import annotations

import math

import numpy as np

# the most rows one table or K grid may hold, checked before anything is
# allocated: 10^12 rows would need terabytes, and numpy's MemoryError or
# "Maximum allowed size exceeded" names no input
MAX_ROWS = 10**7


def check_in(name: str, x, low: float = -math.inf, closed: bool = False) -> None:
    """Raise ValueError naming the input unless every value of x lies in
    (low, inf), or [low, inf) when closed; nan and inf never do."""
    inside = ((low <= x) if closed else (low < x)) & (x < math.inf)
    if not np.all(inside):
        bad = np.extract(~np.asarray(inside), x)[0]
        bracket = "[" if closed else "("
        raise ValueError(f"{name} must lie in {bracket}{low}, inf), got {bad}")


def require_in(
    obj, names: tuple[str, ...], low: float = -math.inf, closed: bool = False
) -> None:
    """check_in on each named field of obj, in order."""
    for name in names:
        check_in(name, getattr(obj, name), low, closed)


def require_scalar(obj) -> None:
    """Raise ValueError naming the first field of obj that holds an array:
    for the functions that take one process, not a sweep of them."""
    for name, x in vars(obj).items():
        if np.ndim(x):
            raise ValueError(f"{name} must be a single value, got an array of shape {np.shape(x)}")


def check_finite(name: str, x):
    """x, or ValueError naming the intermediate if a value of x is nan or inf."""
    finite = np.isfinite(x)
    # a scalar's truth value is free; .all() would add a reduction to every call
    if not (finite.all() if finite.shape else finite):
        bad = np.extract(~finite, x)[0]
        raise ValueError(f"{name} is not finite ({bad}): the inputs leave the float range")
    return x


def check_sq(name: str, x, high: float = 4.0) -> None:
    """Raise ValueError naming the input unless every value of x lies in
    [0, high]; the default 4 bounds squared errors and disturbances."""
    inside = (0.0 <= x) & (x <= high)
    if not np.all(inside):
        bad = np.extract(~np.asarray(inside), x)[0]
        raise ValueError(f"{name} must lie in [0, {high:g}], got {bad}")


def clamp_sq(x):
    """Clip squared errors or disturbances into [0, 4], which rounding leaves
    by a few ulp at most (4.0000000000000018 at theta = pi/2 of lw_sweep)."""
    return np.clip(x, 0.0, 4.0)


def unwrap(x):
    """x as a Python scalar when it is zero-dimensional, else as it is."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x
