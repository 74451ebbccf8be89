"""Checks and conversions shared by the modules whose formulas take arrays."""
from __future__ import annotations

import math

import numpy as np

# the most rows one table, K grid or oracle grid may hold, which check_count
# compares before anything is allocated: 10^12 rows would need terabytes, and
# numpy's MemoryError or "Maximum allowed size exceeded" names no input
MAX_ROWS = 10**7


def check_in(
    name: str, x, low: float = -math.inf, high: float = math.inf, closed: bool = False
) -> None:
    """Raise ValueError naming the input unless every value of x lies in
    (low, high), or [low, high] when closed; an infinite end stays open, so
    nan and inf never do."""
    shut_low, shut_high = closed and low > -math.inf, closed and high < math.inf
    inside = ((low <= x) if shut_low else (low < x)) & ((x <= high) if shut_high else (x < high))
    if not np.all(inside):
        bad = np.extract(~np.asarray(inside), x)[0]
        left, right = ("[" if shut_low else "("), ("]" if shut_high else ")")
        raise ValueError(f"{name} must lie in {left}{low}, {high}{right}, got {bad}")


def require_in(
    obj, names: tuple[str, ...], low: float = -math.inf, high: float = math.inf,
    closed: bool = False,
) -> None:
    """check_in on each named field of obj, in order."""
    for name in names:
        check_in(name, getattr(obj, name), low, high, closed)


def check_count(name: str, n, low: int, high: int = MAX_ROWS) -> int:
    """n as an int, or ValueError naming the input unless n is a whole number
    in [low, high]: an int, a numpy integer or an integral float (a config
    file's value), never a bool.  The bounds are compared before n meets
    float(), which overflows past 1e308."""
    number = isinstance(n, (int, float, np.integer, np.floating)) and not isinstance(n, bool)
    if number and low <= n <= high and float(n).is_integer():
        return int(n)
    raise ValueError(f"{name} must be an integer in [{low}, {high}], got {n}")


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


def clamp_sq(x):
    """Clip squared errors or disturbances into [0, 4], which rounding leaves
    by a few ulp at most (4.0000000000000018 at theta = pi/2 of lw_sweep)."""
    return np.clip(x, 0.0, 4.0)


def unwrap(x):
    """x as a Python scalar when it is zero-dimensional, else as it is."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x
