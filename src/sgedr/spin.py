"""Qubit states, Pauli observables, and error-disturbance relation evaluators.

All matrices are dense complex 2x2 arrays.  Nothing is eigendecomposed and
no matrix square root is formed: the positivity floor and the commutator
strength are closed-form 2x2 expressions, exact up to floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._arrays import check_in, unwrap

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
ZERO_MEAN_TOL = 1e-9

# standard Pauli matrices
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def _is_hermitian(m: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL)


def _det_2x2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@dataclass(frozen=True)
class QubitState:
    """Density matrix of a single qubit.

    Rejects matrices that are not Hermitian, unit-trace, and positive
    semidefinite (eigenvalue floor -1e-12) at construction.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix must be finite")
        if not _is_hermitian(rho):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > HERMITICITY_TOL:
            raise ValueError("density matrix trace differs from 1 by more than 1e-12")
        a, d, b = rho[0, 0].real, rho[1, 1].real, abs(rho[0, 1])
        lowest = 0.5 * (a + d) - np.hypot(0.5 * (a - d), b)
        if lowest < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "QubitState":
        """State (I + x sx + y sy + z sz)/2; requires |r| <= 1."""
        rho = 0.5 * (IDENTITY_2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)
        return cls(rho)


# the sigma_y = +1 eigenstate, (I + sigma_y)/2: every entry is exact
STATE_SY_PLUS = QubitState.from_bloch(0.0, 1.0, 0.0)


@dataclass(frozen=True)
class PauliObservable:
    """A 2x2 Hermitian observable."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("observable must be 2x2")
        if not _is_hermitian(m):
            raise ValueError("observable is not Hermitian within 1e-12")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def x(cls) -> "PauliObservable":
        return cls(SIGMA_X)

    @classmethod
    def z(cls) -> "PauliObservable":
        return cls(SIGMA_Z)


class EDRReport(NamedTuple):
    """Evaluation of the four error-disturbance relations at one point, or
    elementwise over an array of points.

    ``tight_applicable`` is False when the zero-mean condition on the state
    fails; the tight-disk test is then reported but not flagged either way.
    """

    heisenberg_lhs: float
    heisenberg_rhs: float
    heisenberg_satisfied: bool
    ozawa_lhs: float
    ozawa_rhs: float
    ozawa_satisfied: bool
    branciard_lhs: float
    branciard_rhs: float
    branciard_satisfied: bool
    tight_lhs: float
    tight_applicable: bool
    tight_satisfied: bool | None


def expectation(state: QubitState, obs: PauliObservable) -> float:
    """Tr(rho . obs); imaginary residue above 1e-12 is an error."""
    val = complex(np.trace(state.rho @ obs.matrix))
    if abs(val.imag) > HERMITICITY_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def std_dev(state: QubitState, obs: PauliObservable) -> float:
    """sqrt(<obs^2> - <obs>^2), clamped at zero within tolerance."""
    m = obs.matrix
    mean_sq = expectation(state, PauliObservable(m @ m))
    mean = expectation(state, obs)
    var = mean_sq - mean * mean
    if var < -HERMITICITY_TOL:
        raise ValueError(f"negative variance {var:.3e} signals corrupted input")
    return float(np.sqrt(max(var, 0.0)))


def d_quantity(
    state: QubitState, a: PauliObservable, b: PauliObservable
) -> float:
    """Commutator strength (1/2) Tr|sqrt(rho) C sqrt(rho)|, C = [A,B].

    The singular values of a 2x2 matrix M give (Tr|M|)^2 = ||M||_F^2 +
    2 |det M|.  For M = sqrt(rho) C sqrt(rho) that is Tr(C^dag rho C rho) +
    2 det(rho) |det C|, so no square root of rho is formed.  det rho is
    floored at 0 against rounding.
    """
    rho = state.rho
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    frob_sq = np.trace(comm.conj().T @ rho @ comm @ rho).real
    det_rho = max(_det_2x2(rho).real, 0.0)
    return 0.5 * float(np.sqrt(max(frob_sq + 2.0 * det_rho * abs(_det_2x2(comm)), 0.0)))


def hat_transform(v):
    """v * sqrt(1 - v^2/4) on [0, 2]; peaks at 1 when v = sqrt(2).  Broadcasts."""
    check_in("argument", v, 0, 2, closed=True)
    return unwrap(v * np.sqrt(1.0 - v * v / 4.0))


def evaluate_edrs(
    eps_sq,
    eta_sq,
    state: QubitState,
    a: PauliObservable,
    b: PauliObservable,
) -> EDRReport:
    """Evaluate Heisenberg, Ozawa, Branciard-Ozawa, and tight-disk relations at
    the squared error and disturbance eps_sq, eta_sq in [0, 4] of +-1-valued
    observables.

    The two may be arrays of one shape; every lhs and flag of the report then
    has that shape.  Scalar input gives Python floats and bools.  An a or b
    whose square is not the identity within 1e-12 raises ValueError.
    """
    for name, obs in (("a", a), ("b", b)):
        m = obs.matrix
        if not np.max(np.abs(m @ m - IDENTITY_2)) <= HERMITICITY_TOL:
            raise ValueError(f"{name} is not +-1-valued: its square is not the identity within 1e-12")
    check_in("eps_sq", eps_sq, 0, 4, closed=True)
    check_in("eta_sq", eta_sq, 0, 4, closed=True)
    shapes = np.shape(eps_sq), np.shape(eta_sq)
    if shapes[0] != shapes[1]:
        raise ValueError(f"eps_sq and eta_sq shapes differ: {shapes[0]} and {shapes[1]}")
    eps = np.sqrt(eps_sq)
    eta = np.sqrt(eta_sq)

    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    half_comm = 0.5 * abs(complex(np.trace(state.rho @ comm)))

    heis_lhs = eps * eta
    ozawa_lhs = eps * eta + eps * std_dev(state, b) + eta * std_dev(state, a)

    d = d_quantity(state, a, b)
    eps_hat = hat_transform(eps)
    eta_hat = hat_transform(eta)
    discr = max(1.0 - d * d, 0.0)
    bran_lhs = eps_hat**2 + eta_hat**2 + 2.0 * eps_hat * eta_hat * np.sqrt(discr)
    bran_rhs = d * d

    tight_lhs = (eps_sq - 2.0) ** 2 + (eta_sq - 2.0) ** 2
    zero_mean = (
        abs(expectation(state, a)) <= ZERO_MEAN_TOL
        and abs(expectation(state, b)) <= ZERO_MEAN_TOL
    )

    return EDRReport(
        heisenberg_lhs=unwrap(heis_lhs),
        heisenberg_rhs=half_comm,
        heisenberg_satisfied=unwrap(heis_lhs >= half_comm - HERMITICITY_TOL),
        ozawa_lhs=unwrap(ozawa_lhs),
        ozawa_rhs=half_comm,
        ozawa_satisfied=unwrap(ozawa_lhs >= half_comm - HERMITICITY_TOL),
        branciard_lhs=unwrap(bran_lhs),
        branciard_rhs=float(bran_rhs),
        branciard_satisfied=unwrap(bran_lhs >= bran_rhs - HERMITICITY_TOL),
        tight_lhs=unwrap(tight_lhs),
        tight_applicable=zero_mean,
        tight_satisfied=unwrap(tight_lhs <= 4.0 + HERMITICITY_TOL) if zero_mean else None,
    )
