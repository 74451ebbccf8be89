"""Finite-dimensional measuring processes and q-rms error/disturbance.

A measuring process couples the qubit system to a probe of arbitrary finite
dimension through a joint unitary, then reads a Hermitian meter on the probe.
Error and disturbance come from their root-mean-square definitions through
the difference operator Delta = O(tau) - O(0), formed once as a matrix and
applied to vectors, never squared.  The squares Tr[(rho x xi) Delta^dag Delta]
are linear in the system state rho, so no state is eigendecomposed: the
vectors v_i = Delta |i> x xi of the two basis states give the 2x2 Gram matrix
G_ij = <v_i|v_j>, and the square is the contraction Tr(rho G).

The probe state may be one vector of shape (d,) or a stack of n probe
vectors of shape (n, d) sharing the unitary and the meter; the q-rms
functions then return a float or an (n,) array, one value per probe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import check_count, check_in, clamp_sq, unwrap
from .spin import (
    IDENTITY_2, SIGMA_X, SIGMA_Z, STATE_SY_PLUS, PauliObservable, QubitState, _is_hermitian,
)

UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class MeasuringProcess:
    """Joint unitary + probe vector(s) + meter observable.

    ``probe_state`` is one vector (d,) or a stack (n, d) of normalized probe
    vectors sharing the unitary and the meter.  Composite ordering is system
    (x) probe: index i*d + j.
    """

    probe_state: np.ndarray
    unitary: np.ndarray
    meter: np.ndarray

    def __post_init__(self) -> None:
        xi = np.asarray(self.probe_state, dtype=complex)
        u = np.asarray(self.unitary, dtype=complex)
        m = np.asarray(self.meter, dtype=complex)
        if xi.ndim not in (1, 2) or xi.shape[-1] < 1:
            raise ValueError("probe_state must have shape (d,) or (n, d) with d >= 1")
        d = xi.shape[-1]
        for name, arr in (("probe_state", xi), ("unitary", u), ("meter", m)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.abs(np.linalg.norm(xi, axis=-1) - 1.0) <= NORM_TOL):
            raise ValueError("probe_state is not normalized within 1e-12")
        if u.shape != (2 * d, 2 * d):
            raise ValueError("unitary must be (2d, 2d) for probe dimension d")
        if not np.max(np.abs(u.conj().T @ u - np.eye(2 * d))) <= UNITARITY_TOL:
            raise ValueError("unitary fails U^dag U = I within 1e-10")
        if m.shape != (d, d):
            raise ValueError("meter must be (d, d) for probe dimension d")
        if not _is_hermitian(m):
            raise ValueError("meter is not Hermitian within 1e-12")
        for arr in (xi, u, m):
            arr.setflags(write=False)
        object.__setattr__(self, "probe_state", xi)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "meter", m)


def _rms_deviation(
    mp: MeasuringProcess,
    state: QubitState,
    system_obs: np.ndarray,
    heisenberg_probe_meter: bool,
) -> float | np.ndarray:
    """sqrt Tr[(rho x xi) Delta^dag Delta] with Delta = O(tau) - O(0), one value
    per probe vector xi of mp (a float, or an (n,) array for a stack).

    O(0) is the system observable A x 1.  With ``heisenberg_probe_meter``
    O(tau) = U^dag (1 x M) U is the evolved probe meter; otherwise it is
    U^dag (A x 1) U (disturbance case).  Delta is formed once as a 2d x 2d
    matrix, never squared; v_i = Delta |i> x xi is its i-th block of d columns
    applied to xi, and Tr(rho G) sums over i a term conjugating v_i alone.
    """
    # Delta stays on BLAS, unlike spin's written-out 2x2 products: d is any
    # probe dimension, and the elementwise form took a test of 1024 x 1024
    # unitaries from 3.5 s to 106.5 s.  OpenBLAS adds about 0.4 MB to a cold
    # lw's 29.9 MB peak, below region 8's 30.1 (medians of 11, 2-vCPU x86-64 VM)
    xi = mp.probe_state
    d = xi.shape[-1]
    initial = np.kron(system_obs, np.eye(d))
    evolved = np.kron(IDENTITY_2, mp.meter) if heisenberg_probe_meter else initial
    delta = mp.unitary.conj().T @ evolved @ mp.unitary - initial
    v = np.einsum("...j,kij->...ik", xi, delta.reshape(2 * d, 2, d))
    sq = sum(np.einsum("...k,...jk,j->...", v[..., i, :].conj(), v, state.rho[:, i])
             for i in range(2))
    return unwrap(np.sqrt(np.maximum(sq.real, 0.0)))


def qrms_error(
    mp: MeasuringProcess, state: QubitState, measured: PauliObservable
) -> float | np.ndarray:
    """Quantum rms error of the meter against the measured observable.

    A float for one probe vector, an (n,) array for a stack of n.
    """
    return _rms_deviation(mp, state, measured.matrix, True)


def qrms_disturbance(
    mp: MeasuringProcess, state: QubitState, disturbed: PauliObservable
) -> float | np.ndarray:
    """Quantum rms change of the disturbed observable across the interaction.

    A float for one probe vector, an (n,) array for a stack of n.
    """
    return _rms_deviation(mp, state, disturbed.matrix, False)


def lund_wiseman(theta: float | np.ndarray) -> MeasuringProcess:
    """CNOT measurement of sigma_z with a rotated qubit probe.

    Probe state cos(theta)|0> + sin(theta)|1>, meter sigma_z on the probe;
    an array of angles gives one process with a stack of probe vectors.
    Every angle must be finite.
    """
    check_in("theta", theta)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    u = np.kron(p0, np.eye(2)) + np.kron(p1, SIGMA_X)
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)
    return MeasuringProcess(probe_state=xi, unitary=u, meter=SIGMA_Z.copy())


def lw_sweep(n: int) -> np.ndarray:
    """(eps^2, eta^2) of the CNOT family at n equally spaced angles, shape (n, 2).

    Angles span [0, pi/2] as np.linspace(0, pi/2, n); the points go through
    one stacked qrms_error and one qrms_disturbance, not the closed forms.
    Both are read in sigma_y+, but neither depends on the system state:
    eps = 2|sin theta| and eta = sqrt(2)|cos theta - sin theta|.
    n must be an integer in [2, MAX_ROWS], checked before anything is
    allocated.
    """
    mp = lund_wiseman(np.linspace(0.0, np.pi / 2.0, check_count("n", n, 2)))
    eps = qrms_error(mp, STATE_SY_PLUS, PauliObservable.z())
    eta = qrms_disturbance(mp, STATE_SY_PLUS, PauliObservable.x())
    return clamp_sq(np.square(np.stack([eps, eta], axis=-1)))
