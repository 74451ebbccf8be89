"""Finite-dimensional measuring processes and q-rms error/disturbance.

A measuring process couples the qubit system to a probe of arbitrary finite
dimension through a joint unitary, then reads a Hermitian meter on the probe.
Error and disturbance are computed directly from their root-mean-square
definitions by evolving vectors, never by forming the squared operators.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import clamp_sq
from .spin import SIGMA_X, SIGMA_Z, PauliObservable, QubitState, eigen_mix

UNITARITY_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class MeasuringProcess:
    """Joint unitary + probe vector + meter observable.

    Composite ordering is system (x) probe: index i*probe_dim + j.
    """

    probe_dim: int
    probe_state: np.ndarray
    unitary: np.ndarray
    meter: np.ndarray

    def __post_init__(self) -> None:
        d = self.probe_dim
        if d < 1:
            raise ValueError("probe_dim must be positive")
        xi = np.asarray(self.probe_state, dtype=complex)
        u = np.asarray(self.unitary, dtype=complex)
        m = np.asarray(self.meter, dtype=complex)
        if xi.shape != (d,):
            raise ValueError("probe_state length must equal probe_dim")
        if abs(np.linalg.norm(xi) - 1.0) > NORM_TOL:
            raise ValueError("probe_state is not normalized within 1e-12")
        if u.shape != (2 * d, 2 * d):
            raise ValueError("unitary must be (2*probe_dim) square")
        if np.max(np.abs(u.conj().T @ u - np.eye(2 * d))) > UNITARITY_TOL:
            raise ValueError("unitary fails U^dag U = I within 1e-10")
        if m.shape != (d, d):
            raise ValueError("meter must be probe_dim square")
        if np.max(np.abs(m - m.conj().T)) > NORM_TOL:
            raise ValueError("meter is not Hermitian within 1e-12")
        for arr in (xi, u, m):
            arr.setflags(write=False)
        object.__setattr__(self, "probe_state", xi)
        object.__setattr__(self, "unitary", u)
        object.__setattr__(self, "meter", m)


@dataclass(frozen=True)
class LWParams:
    """Probe rotation angle of the CNOT measurement family."""

    theta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")


def _apply_probe_operator(op: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    return (vec.reshape(2, d) @ op.T).reshape(2 * d)


def _apply_system_operator(op: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    return (op @ vec.reshape(2, d)).reshape(2 * d)


def _pure_deviation_sq(
    mp: MeasuringProcess,
    psi: np.ndarray,
    system_obs: np.ndarray,
    heisenberg_probe_meter: bool,
) -> float:
    """||(O(tau) - O(0)) |psi x xi>||^2 for one pure system vector.

    With ``heisenberg_probe_meter`` the evolved operator is the probe meter
    M(tau); otherwise it is the system observable itself (disturbance case).
    """
    d = mp.probe_dim
    joint = np.kron(psi, mp.probe_state)
    evolved = mp.unitary @ joint
    if heisenberg_probe_meter:
        hit = _apply_probe_operator(mp.meter, evolved, d)
    else:
        hit = _apply_system_operator(system_obs, evolved, d)
    back = mp.unitary.conj().T @ hit
    initial = _apply_system_operator(system_obs, joint, d)
    diff = back - initial
    return float(np.vdot(diff, diff).real)


def qrms_error(
    mp: MeasuringProcess, state: QubitState, measured: PauliObservable
) -> float:
    """Quantum rms error of the meter against the measured observable."""
    return eigen_mix(state, lambda psi: _pure_deviation_sq(mp, psi, measured.matrix, True))


def qrms_disturbance(
    mp: MeasuringProcess, state: QubitState, disturbed: PauliObservable
) -> float:
    """Quantum rms change of the disturbed observable across the interaction."""
    return eigen_mix(state, lambda psi: _pure_deviation_sq(mp, psi, disturbed.matrix, False))


def lund_wiseman(params: LWParams) -> MeasuringProcess:
    """CNOT measurement of sigma_z with a rotated qubit probe.

    Probe state cos(theta)|0> + sin(theta)|1>, meter sigma_z on the probe.
    """
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    u = np.kron(p0, np.eye(2)) + np.kron(p1, SIGMA_X)
    xi = np.array([np.cos(params.theta), np.sin(params.theta)], dtype=complex)
    return MeasuringProcess(probe_dim=2, probe_state=xi, unitary=u, meter=SIGMA_Z.copy())


def lw_sweep(n: int, state: QubitState | None = None) -> np.ndarray:
    """(eps^2, eta^2) of the CNOT family at n equally spaced angles, shape (n, 2).

    Angles span [0, pi/2] as np.linspace(0, pi/2, n); each point goes through
    qrms_error and qrms_disturbance, not the closed forms.
    """
    if n < 2:
        raise ValueError("need at least 2 sweep points")
    if state is None:
        state = QubitState.from_bloch(0.0, 1.0, 0.0)
    sz = PauliObservable.z()
    sx = PauliObservable.x()
    rms = []
    for theta in np.linspace(0.0, np.pi / 2.0, n):
        mp = lund_wiseman(LWParams(theta))
        rms.append((qrms_error(mp, state, sz), qrms_disturbance(mp, state, sx)))
    return clamp_sq(np.square(rms))
