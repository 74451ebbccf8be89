"""Split-operator spinor wave-packet simulator.

Independent numerical check of the closed-form Stern-Gerlach error and
disturbance: `propagate` evolves the probe in the two spin branches, held
as one (2, n) array on a symmetric 1D position grid with z = 0 at index
n // 2, under the magnet Hamiltonian, then free flight, in one exact
split step, each FFT covering both branches;
`measure_error` and `measure_disturbance` read the root-mean-square
definitions directly from that one field, and neither depends on the spin
state, so neither takes one; `continuum_error_sq` adds the screen-edge term
that takes the error to the line's.  Intended for
order-unity (hbar = m = 1) parameters; feed SI-scale inputs through a
rescaling, not directly.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._arrays import check_count, check_in, require_scalar
from .probe import GaussianProbe, sigma_t
from .sgmodel import SGParams, g0

NORM_TOL = 1e-10
LEAK_TOL = 1e-10
_EDGE_CELLS = 4
# the widest half span whose 2 half is still a finite float
HALF_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform position grid of n points on [-half, half); n must be an
    integer power of two, at least 256 and at most MAX_ROWS, so z = 0 is the
    point at n // 2."""

    n: int
    half: float

    def __post_init__(self) -> None:
        require_scalar(self)
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 256 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 256")
        check_count("n", n, 256)
        # 2 half stays finite and dz = 2 half / n a normal float, so that
        # dz * n / 2 is half exactly, z[n // 2] is 0 and k stays finite
        check_in("half", self.half, n * sys.float_info.min / 2.0, HALF_MAX, closed=True)

    @property
    def dz(self) -> float:
        return 2.0 * self.half / self.n

    @property
    def z(self) -> np.ndarray:
        return -self.half + self.dz * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dz)


class SpinorField(NamedTuple):
    """The branch pair (U_up xi, U_down xi) / sqrt(2) as one (2, n) array:
    row 0 is sigma_z = +1 (up), row 1 is sigma_z = -1 (down).

    No spin state is held: neither q-rms readout depends on one.
    """

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
    # it sizes one packet, so every field is one value
    require_scalar(p)
    require_scalar(probe)
    # the branches keep their Gaussian shape (linear potential), so the
    # exact spread sigma_t plus the deflection bounds the support; 8 sigma
    # of margin keeps the 1e-10 edge check comfortable
    spread = max(sigma_t(probe, t, p.hbar, p.mass) for t in (0.0, p.dt + p.tau))
    return Grid1D(n, abs(g0(p)) + 8.0 * spread)


def init_state(grid: Grid1D, probe: GaussianProbe) -> SpinorField:
    """The branch pair (xi, xi) / sqrt(2) of the sampled Gaussian probe xi,
    before the magnet: what measure_error and measure_disturbance read once
    evolved.  The 1/sqrt(2) is the equal branch weight of sigma_y+."""
    width = np.sqrt(probe.var_z)
    span = 2.0 * grid.half
    if not (4.0 * grid.dz <= width <= span / 16.0):
        raise ValueError(
            f"probe width {width:.3g} unresolvable: need "
            f"{4.0 * grid.dz:.3g} <= width <= {span / 16.0:.3g}"
        )
    xi = np.exp(-probe.lam * grid.z**2)
    xi = xi / np.sqrt(np.sum(np.abs(xi) ** 2) * grid.dz)
    branch = xi * (1.0 / np.sqrt(2.0))
    return SpinorField(grid, np.stack([branch, branch]))


def evolve(field: SpinorField, p: SGParams) -> SpinorField:
    """Forward evolution: the magnet interval as one symmetric split, then
    the free flight.

    One split is exact.  In each sigma_z branch the magnet potential
    V = +-mu (B0 + B1 z) is linear in z, so [V, T] is linear in P,
    [V, [V, T]] is the c-number -(mu B1)^2 hbar^2 / m and [T, [T, V]] = 0.
    The BCH series of e^{-iV dt/2} e^{-iT dt} e^{-iV dt/2} (hbar = 1)
    therefore ends at a global phase proportional to (mu B1)^2 dt^3 / m,
    the same in both branches, which cancels in every q-rms norm (Feit,
    Fleck & Steiger, J. Comput. Phys. 47, 412, 1982).

    The argument holds for z on the line.  On the periodic grid z wraps
    around at the edges, so the packets must stay clear of them: the norm
    and edge checks run on every propagation, which is always forward and
    always of a smooth packet.
    """
    grid = field.grid
    k_sq = grid.k**2

    half_phase = p.mu * (p.B0 + p.B1 * grid.z) * p.dt / (2.0 * p.hbar)
    # row 0 sees the potential +mu (B0 + B1 z); row 1 sees its negative,
    # whose kick is the conjugate
    kick = np.exp(-1j * half_phase)
    kick = np.stack([kick, kick.conj()])

    psi = np.fft.fft(field.psi * kick)
    psi *= np.exp(-1j * p.hbar * k_sq * p.dt / (2.0 * p.mass))
    psi = np.fft.ifft(psi)
    psi *= kick
    if p.tau > 0.0:
        psi = np.fft.fft(psi)
        psi *= np.exp(-1j * p.hbar * k_sq * p.tau / (2.0 * p.mass))
        psi = np.fft.ifft(psi)

    out = SpinorField(grid, psi)
    if abs(out.norm_sq() - field.norm_sq()) > NORM_TOL:
        raise RuntimeError(f"norm drift {out.norm_sq() - field.norm_sq():.3e}")
    leak = out.edge_probability()
    if leak > LEAK_TOL:
        raise RuntimeError(f"boundary leakage {leak:.3e} exceeds {LEAK_TOL}")
    return out


def propagate(p: SGParams, probe: GaussianProbe, n: int = 1024) -> SpinorField:
    """(U_up xi, U_down xi) / sqrt(2): the probe xi propagated through the
    magnet and the free flight in both branches, one exact split, on
    suggest_grid's n-point grid.

    The propagator is diagonal in sigma_z, so these two amplitudes are all
    the q-rms squares need, whatever the spin state, and both the error and
    the disturbance are read from the one field.
    """
    return evolve(init_state(suggest_grid(p, probe, n), probe), p)


def measure_error(field: SpinorField) -> float:
    """q-rms error of the sign-of-position meter against sigma_z, read from
    the propagated branch pair (U_up xi, U_down xi) / sqrt(2).

    The meter reads -1 at z >= 0, the grid's upper half from the z = 0
    point at n // 2, and +1 below, so
    eps^2 = 4 (rho_upup P_up(z >= 0) + rho_downdown P_down(z < 0)):
    four times the probability of landing on the wrong side of the screen.
    The two are equal on the line, so no spin state is taken.  This is the
    q-rms of the grid process itself.  It differs from the line's by the
    screen-edge term that continuum_error_sq adds: second order in dz, as
    the equal branch weights cancel the first-order part.
    """
    h = field.grid.n // 2
    up, down = field.psi
    wrong_up = np.sum(np.abs(up[h:]) ** 2)
    wrong_down = np.sum(np.abs(down[:h]) ** 2)
    # the branch amplitudes carry 1/sqrt(2): P = 2 * sum |amplitude|^2 dz
    return float(np.sqrt(4.0 * (wrong_up + wrong_down) * field.grid.dz))


def continuum_error_sq(field: SpinorField) -> float:
    """eps^2 of the sign meter on the line, read from the grid field to
    O(dz^4): measure_error's sum with its Euler-Maclaurin edge terms at the
    meter's jump (Abramowitz & Stegun 23.1.30).

    With f = |up|^2 and g = |down|^2, the integrals of f over z >= 0 and of
    g over z < 0 exceed dz times the grid's sums by (dz/2)(g(0) - f(0)) +
    (dz^2/12)(f'(0) - g'(0)) + O(dz^4), which this adds, times 4 as
    measure_error weighs them.  The derivatives are central differences at
    the z = 0 grid point, exact to O(dz^2).  The dz term is zero to rounding
    for the even Gaussian probe, whose branches mirror each other in z; it
    is kept, so no symmetry is assumed.
    """
    grid = field.grid
    h = grid.n // 2
    f, g = np.abs(field.psi[:, h - 1 : h + 2]) ** 2
    dz = grid.dz
    edge = -2.0 * dz * (f[1] - g[1]) + (dz / 6.0) * ((f[2] - f[0]) - (g[2] - g[0]))
    return measure_error(field) ** 2 + float(edge)


def measure_disturbance(field: SpinorField) -> float:
    """q-rms disturbance of sigma_x across the magnet transit, read from the
    propagated branch pair (U_up xi, U_down xi) / sqrt(2).

    eta^2 = ||U_up xi - U_down xi||^2 over the magnet alone.  The free flight
    multiplies both branches by the same unitary, so it leaves the norm of
    their difference unchanged; no spin state enters.
    """
    return float(np.sqrt(2.0 * np.sum(np.abs(field.psi[0] - field.psi[1]) ** 2) * field.grid.dz))
