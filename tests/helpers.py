"""Quantities only the tests compute: the grid references' wavenumbers and
kinetic factor, spinor-field norms and moments on the grid, the grid
process's own eps^2, the beam-flux speed density and the Robertson
uncertainty product.  The physics checks compare them with the closed
forms; no command runs them."""
import numpy as np

from sgedr._arrays import check_in
from sgedr.experiment import K_B
from sgedr.gridsim import Grid1D, SpinorField
from sgedr.sgmodel import SGParams
from sgedr.spin import HERMITICITY_TOL, PauliObservable, QubitState, std_dev


def wavenumbers(grid: Grid1D) -> np.ndarray:
    """The grid's wavenumbers in FFT order, 2 pi fftfreq(n, dz)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dz)


def kinetic(grid: Grid1D, p: SGParams, t: float) -> np.ndarray:
    """The free propagator over t in k space, exp(-i hbar k^2 t / (2 m)), as
    one whole-row expression."""
    return np.exp(-1j * p.hbar * wavenumbers(grid) ** 2 * t / (2.0 * p.mass))


def norm_sq(field: SpinorField) -> float:
    return float(np.sum(np.abs(field.psi) ** 2) * field.grid.dz)


def mean_z_sq(field: SpinorField) -> float:
    density = np.sum(np.abs(field.psi) ** 2, axis=0)
    return float(np.sum(field.grid.z**2 * density) * field.grid.dz / norm_sq(field))


def mean_p_sq(field: SpinorField, hbar: float) -> float:
    """<P^2> via the spectral derivative."""
    n = field.grid.n
    amp = np.fft.fft(field.psi) / n
    k = wavenumbers(field.grid)
    total = float(np.sum((hbar * k) ** 2 * np.abs(amp) ** 2)) * n * field.grid.dz
    return total / norm_sq(field)


def mean_sigma_x(field: SpinorField) -> float:
    up, down = field.psi
    return float(2.0 * np.sum((up.conj() * down).real) * field.grid.dz)


def grid_error_sq(field: SpinorField) -> float:
    """eps^2 of the oriented sign meter as the grid process itself reads it:
    gridsim.measure_error's wrong-side sums without its screen-edge term,
    so second order in dz from the line's."""
    h = field.grid.n // 2
    up, down = np.abs(field.psi) ** 2
    wrong, mirror = np.sum(up[h:]) + np.sum(down[:h]), np.sum(up[:h]) + np.sum(down[h:])
    # the branch amplitudes carry 1/sqrt(2): P = 2 * sum |amplitude|^2 dz
    return float(4.0 * min(wrong, mirror) * field.grid.dz)


def flux_pdf(v: float, T: float, m: float) -> float:
    """Normalized beam-flux speed density, proportional to v^3 exp(-mv^2/2kT)."""
    check_in("v", v, 0.0, closed=True)
    check_in("T", T, 0.0)
    check_in("m", m, 0.0)
    scale = m / (2.0 * K_B * T)
    # integral of v^3 exp(-scale v^2) over [0, inf) is 1/(2 scale^2)
    return float(2.0 * scale**2 * v**3 * np.exp(-scale * v * v))


def robertson_check(
    state: QubitState, a: PauliObservable, b: PauliObservable
) -> tuple[float, float, bool]:
    """Standard-deviation uncertainty product versus half the mean commutator."""
    lhs = std_dev(state, a) * std_dev(state, b)
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    rhs = 0.5 * abs(complex(np.trace(state.rho @ comm)))
    return lhs, rhs, lhs >= rhs - HERMITICITY_TOL
