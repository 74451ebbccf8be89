"""Split-operator spinor wave-packet simulator.

Independent numerical check of the closed-form Stern-Gerlach error and
disturbance: `propagate` evolves the probe in the two spin branches, held
as one (2, n) array on a 1D position grid, under the magnet Hamiltonian,
then free flight, in one exact split step, each FFT covering both branches;
`measure_error` and `measure_disturbance` read the root-mean-square
definitions directly from that one field.  Intended for
order-unity (hbar = m = 1) parameters; feed SI-scale inputs through a
rescaling, not directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._arrays import require_in, unit_vector
from .probe import GaussianProbe, sigma_t
from .sgmodel import SGParams, g0
from .spin import QubitState

NORM_TOL = 1e-10
LEAK_TOL = 1e-10
_EDGE_CELLS = 4


@dataclass(frozen=True)
class Grid1D:
    """Uniform position grid; n must be an integer power of two, at least 256."""

    n: int
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
        require_in(self, ("z_min", "z_max"))
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 256 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 256")
        if self.z_max <= self.z_min:
            raise ValueError("z_max must exceed z_min")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / self.n

    @property
    def z(self) -> np.ndarray:
        return self.z_min + self.dz * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dz)


@dataclass
class SpinorField:
    """Amplitudes of both sigma_z branches as one (2, n) array: row 0 is
    sigma_z = +1 (up), row 1 is sigma_z = -1 (down)."""

    grid: Grid1D
    psi: np.ndarray

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dz)

    def edge_probability(self) -> float:
        """Probability in the outermost cells on each side."""
        c = _EDGE_CELLS
        dens = np.sum(np.abs(self.psi) ** 2, axis=0)
        return float((np.sum(dens[:c]) + np.sum(dens[-c:])) * self.grid.dz)


def suggest_grid(p: SGParams, probe: GaussianProbe, n: int = 1024) -> Grid1D:
    """Grid wide enough for the deflected, spread packets at screen time."""
    # the branches keep their Gaussian shape (linear potential), so the
    # exact spread sigma_t plus the deflection bounds the support; 8 sigma
    # of margin keeps the 1e-10 edge check comfortable
    half = _half_width(p, probe, margin=8.0)
    return Grid1D(n=n, z_min=-half, z_max=half)


def _half_width(p: SGParams, probe: GaussianProbe, margin: float) -> float:
    deflection = abs(g0(p))
    spread = max(sigma_t(probe, t, p.hbar, p.mass) for t in (0.0, p.dt + p.tau))
    return deflection + margin * spread


def _check_domain(grid: Grid1D, p: SGParams, probe: GaussianProbe) -> None:
    need = 2.0 * _half_width(p, probe, margin=6.0)
    span = grid.z_max - grid.z_min
    if span < need:
        raise ValueError(f"grid span {span:.3g} below required {need:.3g}")


def init_state(
    grid: Grid1D, spin: np.ndarray, probe: GaussianProbe
) -> SpinorField:
    """Product state of a pure spinor with the sampled Gaussian probe."""
    if np.shape(spin) != (2,):
        raise ValueError("spin must be a 2-component vector")
    spin = unit_vector("spin", spin)
    width = np.sqrt(probe.var_z)
    span = grid.z_max - grid.z_min
    if not (4.0 * grid.dz <= width <= span / 16.0):
        raise ValueError(
            f"probe width {width:.3g} unresolvable: need "
            f"{4.0 * grid.dz:.3g} <= width <= {span / 16.0:.3g}"
        )
    xi = np.exp(-probe.lam * grid.z**2)
    xi = xi / np.sqrt(np.sum(np.abs(xi) ** 2) * grid.dz)
    return SpinorField(grid, spin[:, None] * xi)


def evolve(field: SpinorField, p: SGParams, steps: int = 1) -> SpinorField:
    """Forward evolution: the magnet interval as symmetric splits, then the
    free flight.

    One split is exact.  In each sigma_z branch the magnet potential
    V = +-mu (B0 + B1 z) is linear in z, so [V, T] is linear in P,
    [V, [V, T]] is the c-number -(mu B1)^2 hbar^2 / m and [T, [T, V]] = 0.
    The BCH series of e^{-iV dt/2} e^{-iT dt} e^{-iV dt/2} (hbar = 1)
    therefore ends at a global phase proportional to (mu B1)^2 dt^3 / m,
    the same in both branches, which cancels in every q-rms norm (Feit,
    Fleck & Steiger, J. Comput. Phys. 47, 412, 1982).  `steps` > 1 repeats
    the split and serves as a self-consistency check.

    The argument holds for z on the line.  On the periodic grid z wraps
    around at the edges, so the packets must stay clear of them: the norm
    and edge checks run on every propagation, which is always forward and
    always of a smooth packet.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    grid = field.grid
    dt_step = p.dt / steps

    half_phase = p.mu * (p.B0 + p.B1 * grid.z) * dt_step / (2.0 * p.hbar)
    # row 0 sees the potential +mu (B0 + B1 z), row 1 sees its negative
    phase = np.exp(np.array([[-1j], [1j]]) * half_phase)
    kin_step = np.exp(-1j * p.hbar * grid.k**2 * dt_step / (2.0 * p.mass))

    psi = field.psi
    for _ in range(steps):
        psi = np.fft.fft(psi * phase)
        psi *= kin_step
        psi = np.fft.ifft(psi)
        psi *= phase
    if p.tau > 0.0:
        psi = np.fft.fft(psi)
        psi *= np.exp(-1j * p.hbar * grid.k**2 * p.tau / (2.0 * p.mass))
        psi = np.fft.ifft(psi)

    out = SpinorField(grid, psi)
    if abs(out.norm_sq() - field.norm_sq()) > NORM_TOL:
        raise RuntimeError(f"norm drift {out.norm_sq() - field.norm_sq():.3e}")
    leak = out.edge_probability()
    if leak > LEAK_TOL:
        raise RuntimeError(f"boundary leakage {leak:.3e} exceeds {LEAK_TOL}")
    return out


def propagate(grid: Grid1D, p: SGParams, probe: GaussianProbe) -> SpinorField:
    """(U_up xi, U_down xi) / sqrt(2): the probe xi propagated through the
    magnet and the free flight in both branches, one exact split.

    The propagator is diagonal in sigma_z, so these two amplitudes are all
    the q-rms squares need, whatever the spin state, and both the error and
    the disturbance are read from the one field.
    """
    _check_domain(grid, p, probe)
    return evolve(init_state(grid, np.array([1.0, 1.0]), probe), p)


def measure_error(field: SpinorField, spin: QubitState) -> float:
    """q-rms error of the sign-of-position meter against sigma_z, read from
    the propagated field.

    The meter reads -1 at z >= 0 (the z = 0 grid point included) and +1
    below, so eps^2 = 4 (rho_upup P_up(z >= 0) + rho_downdown P_down(z < 0)):
    four times the probability of landing on the wrong side of the screen.
    """
    above = field.grid.z >= 0.0
    up, down = field.psi
    wrong_up = np.sum(np.abs(up[above]) ** 2)
    wrong_down = np.sum(np.abs(down[~above]) ** 2)
    rho = spin.rho.real
    # the branch amplitudes carry 1/sqrt(2): P = 2 * sum |amplitude|^2 dz
    return float(np.sqrt(8.0 * (rho[0, 0] * wrong_up + rho[1, 1] * wrong_down) * field.grid.dz))


def measure_disturbance(field: SpinorField) -> float:
    """q-rms disturbance of sigma_x across the magnet transit, read from the
    propagated field.

    eta^2 = ||U_up xi - U_down xi||^2 over the magnet alone.  The free flight
    multiplies both branches by the same unitary, so it leaves the norm of
    their difference unchanged; no spin state enters.
    """
    return float(np.sqrt(2.0 * np.sum(np.abs(field.psi[0] - field.psi[1]) ** 2) * field.grid.dz))
