"""Finite-dimensional measuring processes and q-rms error/disturbance.

A measuring process couples the qubit system to a probe of arbitrary finite
dimension through a joint unitary, then reads a Hermitian meter on the probe.
Error and disturbance are computed directly from their root-mean-square
definitions by evolving vectors, never by forming the squared operators.

The probe state may be one vector of shape (d,) or a stack of n probe
vectors of shape (n, d) sharing the unitary and the meter; the q-rms
functions then return a float or an (n,) array, one value per probe.
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
    """Joint unitary + probe vector(s) + meter observable.

    Composite ordering is system (x) probe: index i*probe_dim + j.
    ``probe_state`` is one vector (d,) or a stack (n, d) of probe vectors,
    each normalized, that share the unitary and the meter.
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
        if xi.ndim not in (1, 2) or xi.shape[-1] != d:
            raise ValueError("probe_state must have shape (probe_dim,) or (n, probe_dim)")
        if np.any(np.abs(np.linalg.norm(xi, axis=-1) - 1.0) > NORM_TOL):
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
    """Probe rotation angle(s) of the CNOT measurement family."""

    theta: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("theta must be finite")


def _apply_probe_operator(op: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    return (vec.reshape(-1, 2, d) @ op.T).reshape(vec.shape)


def _apply_system_operator(op: np.ndarray, vec: np.ndarray, d: int) -> np.ndarray:
    return (op @ vec.reshape(-1, 2, d)).reshape(vec.shape)


def _pure_deviation_sq(
    mp: MeasuringProcess,
    psi: np.ndarray,
    system_obs: np.ndarray,
    heisenberg_probe_meter: bool,
) -> np.ndarray:
    """||(O(tau) - O(0)) |psi x xi>||^2 for one pure system vector psi,
    one value per probe vector xi of mp (shape () or (n,)).

    With ``heisenberg_probe_meter`` the evolved operator is the probe meter
    M(tau); otherwise it is the system observable itself (disturbance case).
    Joint vectors are rows, so U v is written v @ U.T and U^dag v as v @ U*.
    """
    d = mp.probe_dim
    xi = mp.probe_state
    joint = (psi[:, None] * xi[..., None, :]).reshape(*xi.shape[:-1], 2 * d)
    evolved = joint @ mp.unitary.T
    if heisenberg_probe_meter:
        hit = _apply_probe_operator(mp.meter, evolved, d)
    else:
        hit = _apply_system_operator(system_obs, evolved, d)
    back = hit @ mp.unitary.conj()
    initial = _apply_system_operator(system_obs, joint, d)
    diff = back - initial
    return (diff.real**2 + diff.imag**2).sum(-1)


def qrms_error(
    mp: MeasuringProcess, state: QubitState, measured: PauliObservable
) -> float | np.ndarray:
    """Quantum rms error of the meter against the measured observable.

    A float for one probe vector, an (n,) array for a stack of n.
    """
    return eigen_mix(state, lambda psi: _pure_deviation_sq(mp, psi, measured.matrix, True))


def qrms_disturbance(
    mp: MeasuringProcess, state: QubitState, disturbed: PauliObservable
) -> float | np.ndarray:
    """Quantum rms change of the disturbed observable across the interaction.

    A float for one probe vector, an (n,) array for a stack of n.
    """
    return eigen_mix(state, lambda psi: _pure_deviation_sq(mp, psi, disturbed.matrix, False))


def lund_wiseman(params: LWParams) -> MeasuringProcess:
    """CNOT measurement of sigma_z with a rotated qubit probe.

    Probe state cos(theta)|0> + sin(theta)|1>, meter sigma_z on the probe;
    an array of angles gives one process with a stack of probe vectors.
    """
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    u = np.kron(p0, np.eye(2)) + np.kron(p1, SIGMA_X)
    theta = params.theta
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1).astype(complex)
    return MeasuringProcess(probe_dim=2, probe_state=xi, unitary=u, meter=SIGMA_Z.copy())


def lw_sweep(n: int, state: QubitState | None = None) -> np.ndarray:
    """(eps^2, eta^2) of the CNOT family at n equally spaced angles, shape (n, 2).

    Angles span [0, pi/2] as np.linspace(0, pi/2, n); the points go through
    one stacked qrms_error and one qrms_disturbance, not the closed forms.
    """
    if n < 2:
        raise ValueError("need at least 2 sweep points")
    if state is None:
        state = QubitState.from_bloch(0.0, 1.0, 0.0)
    sz = PauliObservable.z()
    sx = PauliObservable.x()
    mp = lund_wiseman(LWParams(np.linspace(0.0, np.pi / 2.0, n)))
    rms = np.stack([qrms_error(mp, state, sz), qrms_disturbance(mp, state, sx)], axis=-1)
    return clamp_sq(np.square(rms))
