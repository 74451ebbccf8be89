"""Qubit states, Pauli observables, and error-disturbance relation evaluators.

All matrices are dense complex 2x2 arrays.  Nothing is eigendecomposed and
no matrix square root is formed: the positivity floor and the commutator
strength are closed-form 2x2 expressions, exact up to floating-point rounding.

Every matrix product is written out elementwise by _mul, never sent to BLAS
through ``@``.  The first zgemm call loads OpenBLAS's kernels and buffers,
which raised a fresh process's max RSS by 0.375 MB (3 of 3 processes), so a
command that only evaluates EDRs (region, experiment) never loads them.  With
@, a cold region --steps 8 peaked at 30.37 MB and experiment at 29.42 MB;
written out, at 30.06 and 29.19 MB (medians of 11 runs, 2-vCPU x86-64 VM).
"""
from __future__ import annotations

import math
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


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 product a b, c_ij = a_i0 b_0j + a_i1 b_1j, summed in that order."""
    return a[:, :1] * b[:1] + a[:, 1:] * b[1:]


def _det_2x2(m: np.ndarray) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _unit_scaled(m: np.ndarray) -> tuple[np.ndarray, int]:
    """m / 2^e and e, 2^e the power of two just above m's largest real or
    imaginary part.  The division is exact unless an entry is below 2^-1021
    times the largest, so the products of the scaled entries stay in the
    float range wherever the result does, and a result scaled back by the
    power of two it carries keeps its bits."""
    e = max(math.frexp(float(np.max(np.abs([m.real, m.imag]))))[1], -1021)
    return m * math.ldexp(1.0, -e), e


def _scaled_back(name: str, x: float, e: int) -> float:
    """x * 2^e, or ValueError naming the quantity when that leaves the float range."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        raise ValueError(f"{name} is not finite: the inputs leave the float range") from None


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
        if not np.all(np.isfinite(m)):
            raise ValueError("observable must be finite")
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
    """Tr(rho . obs); an imaginary residue above 1e-12 times the trace's
    terms sum_ij |rho_ij obs_ji| is an error, so the verdict does not
    depend on the units of obs."""
    return _expectation(state.rho, obs.matrix)


def _expectation(rho: np.ndarray, m: np.ndarray) -> float:
    val = complex(np.trace(_mul(rho, m)))
    if abs(val.imag) > HERMITICITY_TOL * np.sum(np.abs(rho * m.T)):
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def std_dev(state: QubitState, obs: PauliObservable) -> float:
    """sqrt(<obs^2> - <obs>^2), clamped at zero: the constructors reject bad
    input, so a negative difference is rounding, which grows as |obs|^2.
    It is formed for obs / 2^e (_unit_scaled) and scaled back.  obs^2 is
    contracted as a bare matrix: its fused rounding can leave Im (obs^2)_00
    at 1e-11 for an obs that is exactly Hermitian.  A result past the float
    range raises ValueError naming std_dev."""
    m, e = _unit_scaled(obs.matrix)
    mean_sq = _expectation(state.rho, _mul(m, m))
    mean = _expectation(state.rho, m)
    return _scaled_back("std_dev", float(np.sqrt(max(mean_sq - mean * mean, 0.0))), e)


def d_quantity(
    state: QubitState, a: PauliObservable, b: PauliObservable
) -> float:
    """Commutator strength (1/2) Tr|sqrt(rho) C sqrt(rho)|, C = [A,B].

    The singular values of a 2x2 matrix M give (Tr|M|)^2 = ||M||_F^2 +
    2 |det M|.  For M = sqrt(rho) C sqrt(rho) that is Tr(C^dag rho C rho) +
    2 det(rho) |det C|, so no square root of rho is formed.  det rho is
    floored at 0 against rounding.  It is formed for A / 2^i and B / 2^j
    (_unit_scaled) and scaled back by 2^(i + j); a D past the float range
    raises ValueError naming d_quantity.
    """
    rho = state.rho
    (a, i), (b, j) = _unit_scaled(a.matrix), _unit_scaled(b.matrix)
    comm = _mul(a, b) - _mul(b, a)
    frob_sq = np.trace(_mul(_mul(_mul(comm.conj().T, rho), comm), rho)).real
    det_rho = max(_det_2x2(rho).real, 0.0)
    root = float(np.sqrt(max(frob_sq + 2.0 * det_rho * abs(_det_2x2(comm)), 0.0)))
    return _scaled_back("d_quantity", 0.5 * root, i + j)


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
    # a large a or b overflows its square: only the ValueError escapes
    with np.errstate(all="ignore"):
        for name, m in (("a", a.matrix), ("b", b.matrix)):
            if not np.max(np.abs(_mul(m, m) - IDENTITY_2)) <= HERMITICITY_TOL:
                raise ValueError(
                    f"{name} is not +-1-valued: its square is not the identity within 1e-12"
                )
    check_in("eps_sq", eps_sq, 0, 4, closed=True)
    check_in("eta_sq", eta_sq, 0, 4, closed=True)
    shapes = np.shape(eps_sq), np.shape(eta_sq)
    if shapes[0] != shapes[1]:
        raise ValueError(f"eps_sq and eta_sq shapes differ: {shapes[0]} and {shapes[1]}")
    eps = np.sqrt(eps_sq)
    eta = np.sqrt(eta_sq)

    comm = _mul(a.matrix, b.matrix) - _mul(b.matrix, a.matrix)
    half_comm = 0.5 * abs(complex(np.trace(_mul(state.rho, comm))))

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
