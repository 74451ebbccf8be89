"""Split-operator spinor wave-packet simulator.

Independent numerical check of the closed-form Stern-Gerlach error and
disturbance: `propagate` evolves the probe in the two spin branches, held
as one (2, n) array on a symmetric 1D position grid with z = 0 at index
n // 2, under the magnet Hamiltonian, then free flight, in one exact
split step, each branch transformed in place in its own row (one call per
row needs about half the working memory of one call on both, or less).
`_grid` owns both resolution rules and `propagate` both health checks;
`_half_kick` forms, applies and frees each half kick and `_flight` its
half-row kinetic factor, so the field is alone at every transform.
`measure_error` and `measure_disturbance` read eps^2 and eta^2, the squared
root-mean-square error and disturbance, from that one field, eps^2 with the
screen-edge term that takes it to the line's; neither depends on the spin
state, so neither takes one.  Intended for order-unity (hbar = m = 1)
parameters; feed SI-scale inputs through a rescaling, not directly.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._arrays import check_count, check_finite, check_in, require_scalar
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
        if not isinstance(n, (int, np.integer)) or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two >= 256")
        check_count("n", n, 256)
        # 2 half stays finite and dz = 2 half / n a normal float, so that
        # dz * n / 2 is half exactly, z[n // 2] is 0 and pi / dz is finite
        check_in("half", self.half, n * sys.float_info.min / 2.0, HALF_MAX, closed=True)

    @property
    def dz(self) -> float:
        return 2.0 * self.half / self.n

    @property
    def z(self) -> np.ndarray:
        # -half + dz i, bit for bit, formed in place
        z = np.arange(self.n, dtype=float)
        z *= self.dz
        z -= self.half
        return z


class SpinorField(NamedTuple):
    """The branch pair (U_up xi, U_down xi) / sqrt(2) as one (2, n) array:
    row 0 is sigma_z = +1 (up), row 1 is sigma_z = -1 (down).

    No spin state is held: neither q-rms readout depends on one.
    """

    grid: Grid1D
    psi: np.ndarray


def _grid(p: SGParams, probe: GaussianProbe, n: int) -> Grid1D:
    """propagate's grid, wide enough for the deflected, spread packets and
    fine enough to resolve the probe in k and in z, checked before any row."""
    # it sizes one packet, so every field is one value
    require_scalar(p)
    require_scalar(probe)
    # the branches keep their Gaussian shape (linear potential), so the
    # exact spread sigma_t plus the deflection bounds the support; 8 sigma
    # of margin keeps the 1e-10 edge check comfortable
    spread = max(sigma_t(probe, t, p.hbar, p.mass) for t in (0.0, p.dt + p.tau))
    grid = Grid1D(n, abs(g0(p)) + 8.0 * spread)
    # the kick plus 8 sigma_k must lie below pi / dz, or the branches alias
    k = abs(p.mu * p.B1) * p.dt / p.hbar + 8.0 * abs(probe.lam) / np.sqrt(probe.lambda_re)
    if not (k <= np.pi / grid.dz):
        raise ValueError(f"probe wavenumber {k:.3g} unresolvable: need <= {np.pi / grid.dz:.3g}")
    # only dz can fail the width: half is at least 8 sigma_t(0), 8 widths
    width = np.sqrt(probe.var_z)
    if not (width >= 4.0 * grid.dz):
        raise ValueError(f"probe width {width:.3g} unresolvable: need >= {4.0 * grid.dz:.3g}")
    return grid


def _start_field(grid: Grid1D, probe: GaussianProbe) -> SpinorField:
    """The branch pair (xi, xi) / sqrt(2) of the sampled Gaussian probe xi,
    before the magnet: what measure_error and measure_disturbance read once
    evolved.  The 1/sqrt(2) is the equal branch weight of sigma_y+."""
    psi = np.empty((2, grid.n), dtype=complex)
    # exp(-lam z^2), its exponent formed part by part in place
    xi = psi[0]
    z_sq = grid.z
    z_sq *= z_sq
    np.multiply(z_sq, -probe.lam.real, out=xi.real)
    np.multiply(z_sq, -probe.lam.imag, out=xi.imag)
    np.exp(xi, out=xi)
    xi /= np.sqrt(np.sum(np.abs(xi) ** 2) * grid.dz)
    xi *= 1.0 / np.sqrt(2.0)
    psi[1] = xi
    return SpinorField(grid, psi)


def propagate(p: SGParams, probe: GaussianProbe, n: int = 1024) -> SpinorField:
    """(U_up xi, U_down xi) / sqrt(2): the probe xi propagated through the
    magnet, in one symmetric split, and the free flight in both branches,
    in the one (2, n) buffer of its start field on _grid's grid.

    The propagator is diagonal in sigma_z, so these two amplitudes are all
    the q-rms squares need, whatever the spin state, and both the error and
    the disturbance are read from the one field.

    One split is exact.  In each sigma_z branch the magnet potential
    V = +-mu (B0 + B1 z) is linear in z, so [V, T] is linear in P,
    [V, [V, T]] is the c-number -(mu B1)^2 hbar^2 / m and [T, [T, V]] = 0.
    The BCH series of e^{-iV dt/2} e^{-iT dt} e^{-iV dt/2} (hbar = 1)
    therefore ends at a global phase proportional to (mu B1)^2 dt^3 / m,
    the same in both branches, which cancels in every q-rms norm (Feit,
    Fleck & Steiger, J. Comput. Phys. 47, 412, 1982).  It holds for z on
    the line; on the periodic grid z wraps around at the edges, so the
    norm and edge checks run on every propagation.

    _grid checks both resolution rules, _half_kick forms and checks each half
    kick, and propagate checks the norm drift and the leak at the edge cells.
    """
    field = _start_field(_grid(p, probe, n), probe)
    grid, psi = field
    _half_kick(psi, grid, p)
    _flight(psi, grid, p.dt, p)
    _half_kick(psi, grid, p)
    if p.tau > 0.0:
        _flight(psi, grid, p.tau, p)
    # _start_field gives every start field norm 1; a nan fails both checks.
    # |psi|^2 is squared in place for the norm, and for the leak at 2c columns
    dens = np.abs(psi)
    dens *= dens
    drift = float(np.sum(dens) * grid.dz) - 1.0
    if not (abs(drift) <= NORM_TOL):
        raise RuntimeError(f"norm drift {drift:.3e}")
    c = _EDGE_CELLS
    dens = np.sum(np.abs(psi[:, np.r_[:c, -c:0]]) ** 2, axis=0)
    leak = float((np.sum(dens[:c]) + np.sum(dens[c:])) * grid.dz)
    if not (leak <= LEAK_TOL):
        raise RuntimeError(f"boundary leakage {leak:.3e} exceeds {LEAK_TOL}")
    return field


def _half_kick(psi: np.ndarray, grid: Grid1D, p: SGParams) -> None:
    """The magnet's half kick in place: row 0, which sees +mu (B0 + B1 z),
    times exp(-1j mu (b0 + B1 z) dt / (2 hbar)), and row 1, which sees its
    negative, times the conjugate, formed in the same new row and dropped.

    Its exponent is formed left to right in place in the row's imaginary
    part.  B0's phase counts mod 2 pi: reduced, a large B0 cannot round the
    B1 z ramp into noise, and a B0 whose phase is under 2 pi is left as it
    is.  Forming it twice costs one more exp of n points per case; keeping
    it across the magnet flight kept 16 bytes a point beside the field at
    its transforms (a cold validate --grid-n 16384 peaked at 30.38 MB freed
    and 30.62 MB kept, medians of 15 runs).
    """
    kick = np.zeros(grid.n, dtype=complex)
    with np.errstate(all="ignore"):
        b0 = np.fmod(p.B0, 4.0 * np.pi * p.hbar / np.abs(p.mu * p.dt))
        exponent = np.multiply(grid.z, -p.B1, out=kick.imag)
        exponent -= b0
        exponent *= p.mu
        exponent *= p.dt
        exponent /= 2.0 * p.hbar
    check_finite("kick", exponent)
    np.exp(kick, out=kick)
    psi[0] *= kick
    psi[1] *= np.conjugate(kick, out=kick)


def _flight(psi: np.ndarray, grid: Grid1D, t: float, p: SGParams) -> None:
    """Free evolution of psi over t, in place, each branch transformed in
    its own row: pocketfft's working memory grows with what one call
    transforms (one call on both rows took validate --grid-n 1048576 from
    134 MB to 183 MB).

    The kinetic factor exp(-1j hbar k^2 t / (2 m)) depends on k^2 alone, and
    k[n - i] = -k[i] in FFT order, so it is formed in half a row, for
    k = 2 pi i / (n dz) with i = 0..n/2, and read backwards for the rest:
    half the exp.  Each step rounds as in 2 pi fftfreq(n, dz) and in the
    complex expression, so the factor keeps their bits (fftfreq holds
    -pi / dz at n/2, whose square is the same).  It is freed before the
    inverse transforms, which then run beside the field alone (kept, it
    added 8 bytes a point there and 0.14 MB to a cold validate
    --grid-n 16384)."""
    for row in psi:
        np.fft.fft(row, out=row)
    h = grid.n // 2
    phase = np.arange(h + 1, dtype=complex)
    phase *= 1.0 / (grid.n * grid.dz)
    phase *= 2.0 * np.pi
    phase *= phase
    phase *= -1j * p.hbar
    phase *= t
    phase /= 2.0 * p.mass
    np.exp(phase, out=phase)
    psi[:, : h + 1] *= phase
    psi[:, h + 1 :] *= phase[h - 1 : 0 : -1]
    del phase
    for row in psi:
        np.fft.ifft(row, out=row)


def measure_error(field: SpinorField) -> float:
    """eps^2 of the sign-of-position meter against sigma_z on the line, read
    to O(dz^4) from the propagated branch pair (U_up xi, U_down xi) / sqrt(2).

    The meter follows the deflection: it reads +1 on the side the up branch
    is pushed to, z < 0 for mu B1 > 0 (z = 0, at index n // 2, counts as
    z >= 0), and -1 on the other; it takes the orientation with the smaller
    wrong-side probability, so eps^2 = 4 (rho_upup P_up(wrong side) +
    rho_downdown P_down(wrong side)).  The two are equal on the line, so no
    spin state is taken.  The grid's sums alone are the q-rms of the grid
    process itself, second order in dz from the line's, as the equal branch
    weights cancel the first-order part.

    The Euler-Maclaurin edge terms at the meter's jump take it to the
    line's (Abramowitz & Stegun 23.1.30).  With f = |up|^2 and g =
    |down|^2, the integrals of f over z >= 0 and of g over z < 0 exceed dz
    times the grid's sums by (dz/2)(g(0) - f(0)) + (dz^2/12)(f'(0) - g'(0))
    + O(dz^4), which this adds, times 4; the mirror meter swaps f and g,
    and so the sign.  The derivatives are central differences at the z = 0
    grid point, exact to O(dz^2).  The dz term is zero to rounding for the
    even Gaussian probe, whose branches mirror each other in z; it is kept,
    so no symmetry is assumed.
    """
    h, dz = field.grid.n // 2, field.grid.dz
    (up_below, up_above), (down_below, down_above) = (
        (np.sum(np.abs(row[:h]) ** 2), np.sum(np.abs(row[h:]) ** 2)) for row in field.psi
    )
    wrong, mirror = up_above + down_below, up_below + down_above
    f, g = np.abs(field.psi[:, h - 1 : h + 2]) ** 2
    edge = -2.0 * dz * (f[1] - g[1]) + (dz / 6.0) * ((f[2] - f[0]) - (g[2] - g[0]))
    # the branch amplitudes carry 1/sqrt(2): P = 2 * sum |amplitude|^2 dz
    return float(4.0 * min(wrong, mirror) * dz + (edge if wrong <= mirror else -edge))


def measure_disturbance(field: SpinorField) -> float:
    """eta^2 of sigma_x across the magnet transit, the q-rms disturbance
    squared, read from the propagated branch pair (U_up xi, U_down xi) / sqrt(2).

    eta^2 = ||U_up xi - U_down xi||^2 over the magnet alone.  The free flight
    multiplies both branches by the same unitary, so it leaves the norm of
    their difference unchanged; no spin state enters.
    """
    return float(2.0 * np.sum(np.abs(field.psi[0] - field.psi[1]) ** 2) * field.grid.dz)
