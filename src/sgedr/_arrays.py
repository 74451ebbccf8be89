"""Checks and conversions shared by the modules whose formulas take arrays."""
from __future__ import annotations

import math

import numpy as np


def require_in(
    obj, names: tuple[str, ...], low: float = -math.inf, closed: bool = False
) -> None:
    """Raise ValueError naming the first field of obj not inside (low, inf),
    or [low, inf) when closed."""
    for name in names:
        value = getattr(obj, name)
        inside = ((low <= value) if closed else (low < value)) & (value < math.inf)
        if not np.all(inside):
            bad = np.extract(~np.asarray(inside), value)[0]
            bracket = "[" if closed else "("
            raise ValueError(f"{name} must lie in {bracket}{low}, inf), got {bad}")


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
