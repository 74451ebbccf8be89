"""Closed-form Stern-Gerlach error and disturbance.

Error comes from the finite spread of the packet on the screen, disturbance
from uncontrolled precession inside the magnet.  The free-flight time tau is
finite; error_sq_limit is the separate tau -> infinity limit of the error.

The formulas broadcast over array-valued fields; scalar inputs return floats.
An intermediate that leaves the float range raises ValueError naming it,
except an infinite damping exponent: total damping, a disturbance of exactly 2.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._arrays import check_finite, check_in, clamp_sq, require_in, require_scalar, unwrap
from .probe import GaussianProbe, moments, sigma_t

REGION_TOL = 1e-12

_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function: math.erfc applied elementwise, once per
    distinct value.  in_region's arguments repeat, as its eta^2 column does
    over a product grid (4,096 distinct of 65,536 at region --steps 16).
    A single value goes to math.erfc directly: np.unique costs it 20 us."""
    if np.ndim(x) == 0:
        return math.erfc(x)
    distinct, inverse = np.unique(x, return_inverse=True)
    values = np.asarray(_erfc(distinct), dtype=float)
    return unwrap(values[inverse.reshape(np.shape(x))])


@dataclass(frozen=True)
class SGParams:
    """Magnet, timing and particle constants of the Stern-Gerlach process (SI units)."""

    mu: float
    B0: float
    B1: float
    mass: float
    hbar: float
    dt: float
    tau: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        require_in(self, ("mu", "B0", "B1"))
        require_in(self, ("mass", "hbar", "dt"), 0.0)
        require_in(self, ("tau",), 0.0, closed=True)


@np.errstate(all="ignore")
def g0(p: SGParams):
    """Half-separation of the packet centers at the screen."""
    return check_finite("g0", p.mu * p.B1 * p.dt * (p.dt / 2.0 + p.tau) / p.mass)


@np.errstate(all="ignore")
def erfc_arg(p: SGParams, probe: GaussianProbe):
    """|g0| / (sqrt(2) sigma(dt + tau)), the argument of error_sq's erfc."""
    spread = sigma_t(probe, p.dt + p.tau, p.hbar, p.mass)
    return unwrap(check_finite("erfc_arg", np.divide(abs(g0(p)), math.sqrt(2.0) * spread)))


@np.errstate(all="ignore")
def damping_exponent(p: SGParams, probe: GaussianProbe):
    """(2 mu^2 B1^2 dt^2 / hbar^2) sigma(dt/2)^2, the decay of <sigma_x>."""
    spread = sigma_t(probe, p.dt / 2.0, p.hbar, p.mass)
    # numpy's scalar ** is C pow, as Python's float ** is, but overflows to inf
    exponent = 2.0 * np.float64(p.mu * p.B1 * p.dt / p.hbar) ** 2 * (spread * spread)
    if np.isnan(exponent).any():
        raise ValueError("damping_exponent is nan: an infinite factor meets a zero one")
    return unwrap(exponent)


def error_sq(p: SGParams, probe: GaussianProbe):
    """Squared q-rms error 2*erfc(|g0| / (sqrt(2) sigma(dt + tau))).

    The |g0| convention keeps the result in (0, 2] for either sign of mu*B1
    (the meter orientation absorbs the sign).
    """
    return 2.0 * erfc(erfc_arg(p, probe))


@np.errstate(all="ignore")
def error_sq_limit(p: SGParams, probe: GaussianProbe):
    """Limit of error_sq as the free flight grows without bound; p.tau is not read."""
    arg = abs(p.mu * p.B1 * p.dt) / (math.sqrt(2.0) * np.sqrt(moments(probe, p.hbar)[1]))
    return 2.0 * erfc(check_finite("erfc_arg", arg))


@np.errstate(all="ignore")
def disturbance_sq(p: SGParams, probe: GaussianProbe):
    """Squared q-rms disturbance of sigma_x; independent of tau.

    2 - 2 exp(-(2 mu^2 B1^2 dt^2 / hbar^2) sigma(dt/2)^2) cos(2 mu dt B0 / hbar);
    equals exactly 2 once exp underflows to zero, whatever the phase.
    """
    damping = np.exp(-damping_exponent(p, probe))
    phase = np.where(damping > 0.0, 2.0 * p.mu * p.dt * p.B0 / p.hbar, 0.0)
    return unwrap(2.0 - 2.0 * damping * np.cos(check_finite("phase", phase)))


@np.errstate(all="ignore")
def optimal_tau(p: SGParams, probe: GaussianProbe) -> float | None:
    """Error-minimizing free-flight time, or None where m <{Z,P}> + Var P dt >= 0:
    there the error falls toward error_sq_limit and has no finite minimizer.

    Past g0's zero at tau = -dt/2, |g0| / sigma(dt + tau) has one stationary
    point, its maximum; when that lies below 0 the error rises on all of
    tau >= 0, and the minimizer is tau = 0.  p and probe must hold single
    values: a field that is an array raises ValueError naming it.
    """
    require_scalar(p)
    require_scalar(probe)
    var_z, var_p, anticom = moments(probe, p.hbar)
    m = p.mass
    # a nan denominator (m <{Z,P}> = -inf against Var P dt = inf) has no sign
    denom = check_finite("tau_denom", m * anticom + var_p * p.dt)
    if denom >= 0.0:
        return None
    # np.float64's ** is C pow, as the float ** it replaces, but overflows to inf
    num = 4.0 * m * m * var_z + 3.0 * m * anticom * p.dt + 2.0 * var_p * np.float64(p.dt) ** 2
    tau0 = -check_finite("tau_num", num) / (2.0 * denom)
    return max(0.0, float(check_finite("optimal_tau", tau0)))


def _erfc_inverse(y: np.ndarray) -> np.ndarray:
    """u >= 0 with erfc(u) = y for y in (0, 1]: Newton steps on the nearly
    quadratic log erfc(u) - log y from Winitzki's approximation of erfinv(1 - y).
    """
    # below 1e-300 the bound is under 1e-297; the floor keeps exp(u*u) finite
    y = np.maximum(y, 1e-300)
    a = 0.147
    log_1mx2 = np.log(y * (2.0 - y))  # log(1 - x^2) with x = 1 - y
    t = 2.0 / (np.pi * a) + log_1mx2 / 2.0
    u = np.sqrt(np.maximum(np.sqrt(t * t - log_1mx2 / a) - t, 0.0))
    # three steps reach the fixed point on [1e-300, 1]; the fourth is margin
    for _ in range(4):
        erfc_u = erfc(u)
        u = u + (np.log(erfc_u) - np.log(y)) * erfc_u * np.exp(u * u) * (np.sqrt(np.pi) / 2.0)
    return u


def region_bound(eps_sq):
    """Largest achievable |2 - eta_sq|/2 at a given squared error.

    exp(-erfinv((2 - eps_sq)/2)^2), solved as erfc(u) = min(eps_sq, 4 - eps_sq)/2
    so the tails keep full precision; exactly 0 at eps_sq in {0, 4}.

    The bound is Robertson's inequality: for A = Z + (dt/2) P/m and
    B = Z + (dt + tau) P/m, sigma_A sigma_B >= (dt/2 + tau) hbar / (2m) gives
    damping_exponent >= erfc_arg^2, so |2 - eta_sq|/2 = exp(-damping_exponent)
    <= exp(-erfc_arg^2) at B0 = 0, with equality for Cov(A, B) = 0.
    """
    eps_sq = np.asarray(eps_sq, dtype=float)
    check_in("eps_sq", eps_sq, 0, 4, closed=True)
    y = np.minimum(eps_sq, 4.0 - eps_sq) / 2.0
    u = _erfc_inverse(y)
    return unwrap(np.where(y > 0.0, np.exp(-u * u), 0.0))


def in_region(eps_sq, eta_sq):
    """Whether error-disturbance pairs lie in the achievable region,
    |2 - eta_sq|/2 <= region_bound(eps_sq) + REGION_TOL.

    erfc is decreasing, so no inverse is needed: with
    b = |2 - eta_sq|/2 - REGION_TOL and y = min(eps_sq, 4 - eps_sq)/2, a pair
    is inside when b <= 0, or when y > 0 and y >= erfc(sqrt(-ln b)); b < 1
    for eta_sq in [0, 4].  That is one erfc per pair, where region_bound's
    inverse takes four.  The y > 0 term is the bound's exact 0 at eps_sq in
    {0, 4}, which holds for any b > 0 even where math.erfc rounds to 0.
    """
    eta_sq = np.asarray(eta_sq, dtype=float)
    check_in("eta_sq", eta_sq, 0, 4, closed=True)
    eps_sq = np.asarray(eps_sq, dtype=float)
    check_in("eps_sq", eps_sq, 0, 4, closed=True)
    b = np.abs(2.0 - eta_sq) / 2.0 - REGION_TOL
    y = np.minimum(eps_sq, 4.0 - eps_sq) / 2.0
    # log(1) = 0 stands in where b <= 0, which is inside whatever erfc gives
    u = np.sqrt(-np.log(np.where(b > 0.0, b, 1.0)))
    return unwrap((b <= 0.0) | ((y > 0.0) & (y >= erfc(u))))


def sweep_region(
    base: SGParams,
    lambdas: Iterable[complex],
    b0_values: Iterable[float],
    taus: Iterable[float],
) -> np.ndarray:
    """(eps^2, eta^2) over a grid of (lambda, B0, tau), shape (N, 2).

    Rows follow the itertools.product order of the inputs; deterministic for
    fixed inputs.  base supplies every field but B0 and tau.
    """
    lam = np.fromiter(lambdas, complex).reshape(-1, 1, 1)
    b0 = np.fromiter(b0_values, float).reshape(1, -1, 1)
    tau = np.fromiter(taus, float).reshape(1, 1, -1)
    probe = GaussianProbe(lam.real, lam.imag)
    params = dataclasses.replace(base, B0=b0, tau=tau)
    eps_sq, eta_sq = np.broadcast_arrays(error_sq(params, probe), disturbance_sq(params, probe))
    return clamp_sq(np.stack([eps_sq.ravel(), eta_sq.ravel()], axis=1))
