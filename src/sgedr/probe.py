"""Gaussian probe states, ballistic spread, and the collimator/slit posterior.

The probe wave function is exp(-lambda z^2) with Re(lambda) > 0.  Second
moments follow closed forms; the test suite checks them against a quadrature
oracle before anything downstream relies on them; they broadcast over arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import check_finite, require_in, unwrap


@dataclass(frozen=True)
class GaussianProbe:
    """The packet exp(-lambda z^2) alone, lambda = lambda_re + i*lambda_im (1/m^2);
    hbar and the mass belong to SGParams and reach moments and sigma_t as arguments."""

    lambda_re: float
    lambda_im: float = 0.0

    def __post_init__(self) -> None:
        require_in(self, ("lambda_im",))
        # Re(lambda) > 0 for normalizability
        require_in(self, ("lambda_re",), 0.0)

    @property
    def lam(self) -> complex:
        return complex(self.lambda_re, self.lambda_im)

    @property
    @np.errstate(all="ignore")
    def var_z(self):
        """Var Z = 1/(4 Re lambda), the one moment in which hbar does not enter."""
        return check_finite("var_z", 1.0 / (4.0 * self.lambda_re))


@np.errstate(all="ignore")
def moments(probe: GaussianProbe, hbar: float) -> tuple[float, float, float]:
    """(Var Z, Var P, <{Z,P}>) of the Gaussian probe of a particle with this hbar.

    Var Z = 1/(4 Re lambda), Var P = hbar^2 |lambda|^2 / Re lambda,
    <{Z,P}> = -hbar Im lambda / Re lambda.  The product identity
    VarZ*VarP - <{Z,P}>^2/4 = hbar^2/4 holds for every pure Gaussian.
    """
    re = probe.lambda_re
    im = probe.lambda_im
    var_p = hbar * hbar * (re * re + im * im) / re
    anticom = -hbar * im / re
    return (probe.var_z, *map(check_finite, ("var_p", "anticom"), (var_p, anticom)))


@np.errstate(all="ignore")
def sigma_t(probe: GaussianProbe, t, hbar: float, mass: float):
    """Ballistic spread <(Z + tP/m)^2>^(1/2) at time t (t < 0 allowed) for this hbar and m."""
    var_z, var_p, anticom = moments(probe, hbar)
    s = t / mass
    radicand = var_z + s * anticom + s * s * var_p
    # exact value is a Hermitian square; clamp rounding residue
    return unwrap(check_finite("sigma_t", np.sqrt(np.maximum(radicand, 0.0))))


@dataclass(frozen=True)
class CollimatorModel:
    """Hole-and-slit beam filter producing a real-lambda Gaussian posterior.

    The momentum and position resolutions are D = 1.25*K*delta with
    K in [0.6, 1], bracketing the geometric half-widths by +-25%.  K may be
    an array of scale factors; D_p, D_z and the posterior then follow it.
    """

    d1: float
    d2: float
    L1: float
    v_y: float
    mass: float
    hbar: float
    K: float | np.ndarray = 1.0

    def __post_init__(self) -> None:
        require_in(self, ("d1", "d2", "L1", "v_y", "mass", "hbar"), 0.0)
        if not np.all((0.6 <= self.K) & (self.K <= 1.0)):
            raise ValueError("K must lie in [0.6, 1.0]")

    @property
    def delta_p(self) -> float:
        """Half width of the classical momentum after the collimator."""
        return (self.d1 + self.d2) / (2.0 * self.L1) * self.mass * self.v_y

    @property
    def delta_z(self) -> float:
        """Half width of the classical position after the slit."""
        return self.d2 / 2.0

    @property
    def D_p(self) -> float:
        return 1.25 * self.K * self.delta_p

    @property
    def D_z(self) -> float:
        return 1.25 * self.K * self.delta_z


def collimator_posterior(cm: CollimatorModel) -> GaussianProbe:
    """Posterior Gaussian of the beam after hole-and-slit filtering.

    lambda = D_p^2/hbar^2 + 1/(4 D_z^2), real, squared by products so that an
    array K gives its scalar posteriors bit for bit; assumes the prior momentum
    spread dominates D_p so the prior width drops out.  The packet alone: cm's
    hbar and mass reach the closed forms through SGParams."""
    lam = cm.D_p * cm.D_p / cm.hbar**2 + 1.0 / (4.0 * (cm.D_z * cm.D_z))
    return GaussianProbe(lam, 0.0)
