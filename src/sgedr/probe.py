"""Gaussian probe states, ballistic spread, and the collimator/slit posterior.

The probe wave function is exp(-lambda z^2) with Re(lambda) > 0.  Second
moments follow closed forms; the test suite checks them against a quadrature
oracle before anything downstream relies on them; they broadcast over arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import check_finite, check_in, require_in, unwrap


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


def collimator_posterior(D_p, D_z, hbar: float) -> GaussianProbe:
    """Posterior Gaussian of the beam after hole-and-slit filtering to momentum
    and position resolutions D_p and D_z (each a positive float or array).

    lambda = D_p^2/hbar^2 + 1/(4 D_z^2), real, squared by products so that
    arrays give their scalar posteriors bit for bit; assumes the prior momentum
    spread dominates D_p so the prior width drops out."""
    for name, x in (("D_p", D_p), ("D_z", D_z), ("hbar", hbar)):
        check_in(name, x, 0.0)
    lam = D_p * D_p / hbar**2 + 1.0 / (4.0 * (D_z * D_z))
    return GaussianProbe(lam, 0.0)
