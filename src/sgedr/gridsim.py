"""Split-operator spinor wave-packet simulator.

Independent numerical check of the closed-form Stern-Gerlach error and
disturbance: evolve the two spin branches on a 1D position grid under the
magnet Hamiltonian, then free flight, and evaluate the root-mean-square
definitions directly.  Intended for order-unity (hbar = m = 1) parameters;
feed SI-scale inputs through a rescaling, not directly.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .probe import GaussianProbe, moments, sigma_t
from .sgmodel import SGParams, TauLimit, g0
from .spin import QubitState

NORM_TOL = 1e-10
LEAK_TOL = 1e-10
_EDGE_CELLS = 4


@dataclass(frozen=True)
class Grid1D:
    """Uniform position grid; n must be a power of two, at least 256."""

    n: int
    z_min: float
    z_max: float

    def __post_init__(self) -> None:
        if self.n < 256 or (self.n & (self.n - 1)) != 0:
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
    """Amplitudes of the sigma_z = +1 (up) and -1 (down) branches."""

    grid: Grid1D
    up: np.ndarray
    down: np.ndarray

    def norm_sq(self) -> float:
        return float(
            (np.sum(np.abs(self.up) ** 2) + np.sum(np.abs(self.down) ** 2))
            * self.grid.dz
        )

    def edge_probability(self) -> float:
        """Probability in the outermost cells on each side."""
        c = _EDGE_CELLS
        dens = np.abs(self.up) ** 2 + np.abs(self.down) ** 2
        return float((np.sum(dens[:c]) + np.sum(dens[-c:])) * self.grid.dz)

    def mean_z_sq(self) -> float:
        dens = np.abs(self.up) ** 2 + np.abs(self.down) ** 2
        return float(np.sum(self.grid.z**2 * dens) * self.grid.dz / self.norm_sq())

    def mean_p_sq(self, hbar: float) -> float:
        """<P^2> via the spectral derivative."""
        n = self.grid.n
        k = self.grid.k
        total = 0.0
        for branch in (self.up, self.down):
            amp = np.fft.fft(branch) / n
            total += float(np.sum((hbar * k) ** 2 * np.abs(amp) ** 2)) * n * self.grid.dz
        return total / self.norm_sq()

    def mean_sigma_x(self) -> float:
        return float(
            2.0 * np.sum((self.up.conj() * self.down).real) * self.grid.dz
        )


def suggest_grid(p: SGParams, probe: GaussianProbe, n: int = 1024) -> Grid1D:
    """Grid wide enough for the deflected, spread packets at screen time."""
    # the branches keep their Gaussian shape (linear potential), so the
    # exact spread sigma_t plus the deflection bounds the support; 8 sigma
    # of margin keeps the 1e-10 edge check comfortable
    half = _half_width(p, probe, margin=8.0)
    return Grid1D(n=n, z_min=-half, z_max=half)


def _half_width(p: SGParams, probe: GaussianProbe, margin: float) -> float:
    deflection = abs(g0(p))  # raises at INFINITE tau
    spread = max(sigma_t(probe, 0.0), sigma_t(probe, p.dt + p.tau))
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
    spin = np.asarray(spin, dtype=complex)
    if spin.shape != (2,):
        raise ValueError("spin must be a 2-component vector")
    if not np.all(np.isfinite(spin)):
        raise ValueError("spin must be finite")
    norm = np.linalg.norm(spin)
    if norm == 0.0:
        raise ValueError("spin must have nonzero norm")
    spin = spin / norm
    var_z, _, _ = moments(probe)
    width = np.sqrt(var_z)
    span = grid.z_max - grid.z_min
    if not (4.0 * grid.dz <= width <= span / 16.0):
        raise ValueError(
            f"probe width {width:.3g} unresolvable: need "
            f"{4.0 * grid.dz:.3g} <= width <= {span / 16.0:.3g}"
        )
    xi = np.exp(-probe.lam * grid.z**2)
    xi = xi / np.sqrt(np.sum(np.abs(xi) ** 2) * grid.dz)
    return SpinorField(grid, spin[0] * xi, spin[1] * xi)


def evolve(field: SpinorField, p: SGParams, steps: int = 1) -> SpinorField:
    """Forward evolution: the magnet interval as symmetric splits, then the
    free flight, which must be finite.

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
    if isinstance(p.tau, TauLimit):
        raise ValueError("the grid cannot evolve to INFINITE tau; use error_sq_limit")
    grid = field.grid
    dt_step = p.dt / steps

    half_phase = p.mu * (p.B0 + p.B1 * grid.z) * dt_step / (2.0 * p.hbar)
    phase_up = np.exp(-1j * half_phase)
    phase_down = np.exp(1j * half_phase)
    kin_step = np.exp(-1j * p.hbar * grid.k**2 * dt_step / (2.0 * p.mass))

    up = field.up
    down = field.down
    for _ in range(steps):
        up = np.fft.ifft(kin_step * np.fft.fft(up * phase_up)) * phase_up
        down = np.fft.ifft(kin_step * np.fft.fft(down * phase_down)) * phase_down
    if p.tau > 0.0:
        kin_free = np.exp(-1j * p.hbar * grid.k**2 * p.tau / (2.0 * p.mass))
        up = np.fft.ifft(kin_free * np.fft.fft(up))
        down = np.fft.ifft(kin_free * np.fft.fft(down))

    out = SpinorField(grid, up, down)
    if abs(out.norm_sq() - field.norm_sq()) > NORM_TOL:
        raise RuntimeError(f"norm drift {out.norm_sq() - field.norm_sq():.3e}")
    leak = out.edge_probability()
    if leak > LEAK_TOL:
        raise RuntimeError(f"boundary leakage {leak:.3e} exceeds {LEAK_TOL}")
    return out


def _branches(
    grid: Grid1D, p: SGParams, probe: GaussianProbe, steps: int
) -> SpinorField:
    """(U_up xi, U_down xi) / sqrt(2): the probe xi propagated in both branches.

    The propagator is diagonal in sigma_z, so these two amplitudes are all
    the q-rms squares need, whatever the spin state.
    """
    _check_domain(grid, p, probe)
    return evolve(init_state(grid, np.array([1.0, 1.0]), probe), p, steps)


def measure_error(
    grid: Grid1D,
    p: SGParams,
    spin: QubitState,
    probe: GaussianProbe,
    steps: int = 1,
) -> float:
    """q-rms error of the sign-of-position meter against sigma_z.

    The meter reads -1 at z >= 0 (the z = 0 grid point included) and +1
    below, so eps^2 = 4 (rho_upup P_up(z >= 0) + rho_downdown P_down(z < 0)):
    four times the probability of landing on the wrong side of the screen.
    """
    out = _branches(grid, p, probe, steps)
    above = grid.z >= 0.0
    wrong_up = np.sum(np.abs(out.up[above]) ** 2)
    wrong_down = np.sum(np.abs(out.down[~above]) ** 2)
    rho = spin.rho.real
    # the branch amplitudes carry 1/sqrt(2): P = 2 * sum |amplitude|^2 dz
    return float(np.sqrt(8.0 * (rho[0, 0] * wrong_up + rho[1, 1] * wrong_down) * grid.dz))


def measure_disturbance(
    grid: Grid1D,
    p: SGParams,
    spin: QubitState,
    probe: GaussianProbe,
    steps: int = 1,
) -> float:
    """q-rms disturbance of sigma_x across the magnet transit.

    eta^2 = ||U_up xi - U_down xi||^2 over the magnet alone: the free flight
    is common to both branches and cancels, and no spin state enters.
    """
    out = _branches(grid, replace(p, tau=0.0), probe, steps)
    return float(np.sqrt(2.0 * np.sum(np.abs(out.up - out.down) ** 2) * grid.dz))
