"""Cross-validation of the closed forms against the grid simulator.

The dimensionless (hbar = m = 1, dt = 1) test set spans real and complex
probe widths, uniform field on and off, and zero and nonzero free flight.
Each case is propagated once, and both the error and the disturbance are
read from that field.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .gridsim import measure_disturbance, measure_error, propagate
from .probe import GaussianProbe
from .sgmodel import SGParams, disturbance_sq, error_sq

# A case passes when its relative eps^2 error is within EPS_REL_AT_512
# (512/n)^6 + EPS_REL_FLOOR and its eta^2 error within ETA_REL_FLOOR: the
# oracle's measured error with at least 14x margin.  Over the default cases
# the worst eps^2 error falls as n^-6, the sixth-order readout's: 6.88e-10
# at n = 512, 1.07e-11 at 1024 and 1.26e-13 at 2048, to a plateau of
# 3.95-4.30e-14 from 4096 to 2^20; eta^2 agrees to 1.4e-15 at every n.
# So an eps^2 off by 1e-4 fails at every n.  The plateau is no rounding
# floor but _grid's 8 sigma span: each branch's tail beyond it, 2 erfc(4
# sqrt 2) = 2.49e-15 of eps^2, wraps round the periodic grid onto the
# meter's wrong side (every case's absolute error levels out at
# 2.2-3.1e-15), and over the smallest default eps^2, 0.0581, that is
# 4.28e-14.
EPS_REL_AT_512 = 1e-8
EPS_REL_FLOOR = 1e-12
ETA_REL_FLOOR = 1e-13


def _relative(grid: float, model: float) -> float:
    """|grid - model| / |model|; against a zero model, 0.0 if the grid agrees
    exactly, else inf."""
    diff = abs(grid - model)
    return diff / abs(model) if model else (math.inf if diff else 0.0)


class ValidationResult(NamedTuple):
    params: SGParams
    probe: GaussianProbe
    n: int
    eps_sq_model: float
    eps_sq_grid: float
    eta_sq_model: float
    eta_sq_grid: float

    @property
    def eps_rel(self) -> float:
        return _relative(self.eps_sq_grid, self.eps_sq_model)

    @property
    def eta_rel(self) -> float:
        return _relative(self.eta_sq_grid, self.eta_sq_model)

    @property
    def passed(self) -> bool:
        eps_bound = EPS_REL_AT_512 * (512 / self.n) ** 6 + EPS_REL_FLOOR
        return self.eps_rel <= eps_bound and self.eta_rel <= ETA_REL_FLOOR


def _case(lam: complex, mu_b1: float, b0: float, tau: float) -> tuple[SGParams, GaussianProbe]:
    """One dimensionless case: probe width lambda, mu*B1, B0 and free flight tau."""
    p = SGParams(mu=1.0, B0=b0, B1=mu_b1, mass=1.0, hbar=1.0, dt=1.0, tau=tau)
    return p, GaussianProbe(lam.real, lam.imag)


def default_cases() -> list[tuple[SGParams, GaussianProbe]]:
    return [
        _case(1.0 + 0.0j, 1.0, 0.0, 0.0),
        _case(1.0 + 0.0j, 1.0, 0.0, 1.0),
        _case(1.0 + 0.5j, 1.0, 0.0, 0.0),
        _case(1.0 + 0.5j, 1.0, 0.0, 1.0),
        _case(1.0 + 0.0j, 3.0, 0.0, 0.0),
        _case(1.0 + 0.0j, 1.0, 0.5, 0.0),
        _case(1.0 + 0.5j, 3.0, 0.5, 1.0),
        _case(1.0 + 0.0j, 3.0, 0.5, 1.0),
    ]


def run_case(p: SGParams, probe: GaussianProbe, n: int = 1024) -> ValidationResult:
    field = propagate(p, probe, n)
    return ValidationResult(
        params=p,
        probe=probe,
        n=n,
        eps_sq_model=error_sq(p, probe),
        eps_sq_grid=measure_error(field),
        eta_sq_model=disturbance_sq(p, probe),
        eta_sq_grid=measure_disturbance(field),
    )


def run_validation(n: int = 1024) -> list[ValidationResult]:
    return [run_case(p, probe, n=n) for p, probe in default_cases()]
