from dataclasses import replace

import numpy as np
import pytest

from sgedr.gridsim import (
    Grid1D,
    SpinorField,
    evolve,
    init_state,
    measure_disturbance,
    measure_error,
    propagate,
    suggest_grid,
)
from sgedr.measurement import MeasuringProcess, qrms_disturbance, qrms_error
from sgedr.probe import GaussianProbe, moments, sigma_t
from sgedr.sgmodel import SGParams, disturbance_sq, error_sq
from sgedr.spin import IDENTITY_2, STATE_SY_PLUS, PauliObservable, QubitState
from sgedr.validation import VALIDATION_RTOL, default_cases, run_case, run_validation

from helpers import mean_p_sq, mean_sigma_x, mean_z_sq

SY_SPIN = np.array([1.0, 1.0j]) / np.sqrt(2.0)


def unit_params(mu_b1=1.0, b0=0.0, tau=0.0, dt=1.0):
    return SGParams(mu=1.0, B0=b0, B1=mu_b1, mass=1.0, hbar=1.0, dt=dt, tau=tau)


def branch_mean_z(field, branch):
    dens = np.abs(branch) ** 2
    weight = np.sum(dens) * field.grid.dz
    return float(np.sum(field.grid.z * dens) * field.grid.dz / weight)


class TestGrid1D:
    def test_rejects_small_or_odd_n(self):
        with pytest.raises(ValueError):
            Grid1D(128, -1.0, 1.0)
        with pytest.raises(ValueError):
            Grid1D(300, -1.0, 1.0)

    @pytest.mark.parametrize("n", [1024.0, np.nan, 1e300])
    def test_rejects_float_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be a power of two"):
            Grid1D(n, -1.0, 1.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Grid1D(256, 1.0, 1.0)

    @pytest.mark.parametrize("z_min, z_max, field", [
        (np.nan, np.nan, "z_min"),
        (-np.inf, np.inf, "z_min"),
        (-1.0, np.inf, "z_max"),
        (-1.0, np.nan, "z_max"),
    ])
    def test_rejects_non_finite_bounds(self, z_min, z_max, field):
        # either would make dz nan or inf
        with pytest.raises(ValueError, match=rf"^{field} must lie in"):
            Grid1D(1024, z_min, z_max)

    def test_spacing_and_axes(self):
        g = Grid1D(256, -2.0, 2.0)
        assert g.dz == pytest.approx(4.0 / 256)
        assert g.z[0] == pytest.approx(-2.0)
        assert g.z[1] - g.z[0] == pytest.approx(g.dz)
        assert g.k.shape == (256,)
        assert g.k[0] == 0.0


class TestInitState:
    def test_normalized_equal_branches(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        field = init_state(grid, SY_SPIN, probe)
        assert field.norm_sq() == pytest.approx(1.0, abs=1e-12)
        up_norm = np.sum(np.abs(field.psi[0]) ** 2) * grid.dz
        assert up_norm == pytest.approx(0.5, abs=1e-12)

    def test_sampled_moments_match_closed_forms(self):
        for lam_im in (0.0, 0.5, -2.0):
            probe = GaussianProbe(1.0, lam_im)
            grid = suggest_grid(unit_params(), probe, n=2048)
            field = init_state(grid, np.array([1.0, 0.0]), probe)
            var_z, var_p, _ = moments(probe, 1.0)
            assert mean_z_sq(field) == pytest.approx(var_z, rel=1e-6)
            assert mean_p_sq(field, 1.0) == pytest.approx(var_p, rel=1e-6)

    def test_mean_sigma_x(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        plus_x = init_state(grid, np.array([1.0, 1.0]), probe)
        assert mean_sigma_x(plus_x) == pytest.approx(1.0, abs=1e-12)
        assert mean_sigma_x(init_state(grid, SY_SPIN, probe)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_rejects_unresolvable_width(self):
        grid = Grid1D(256, -0.5, 0.5)
        with pytest.raises(ValueError, match="unresolvable"):
            init_state(grid, SY_SPIN, GaussianProbe(10000.0))

    def test_rejects_bad_spin_shape(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        with pytest.raises(ValueError, match="2-component"):
            init_state(grid, np.array([1.0, 0.0, 0.0]), probe)

    def test_rejects_zero_spin(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        with pytest.raises(ValueError, match="spin must have nonzero norm"):
            init_state(grid, np.array([0.0, 0.0]), probe)

    def test_rejects_non_finite_spin(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        with pytest.raises(ValueError, match="spin must be finite"):
            init_state(grid, np.array([np.nan, 1.0]), probe)


class TestEvolve:
    def test_free_spreading_matches_sigma_t(self):
        # no fields: the packet spread follows the ballistic closed form
        probe = GaussianProbe(1.0, 0.8)
        for tau in (0.0, 1.5):
            p = unit_params(mu_b1=0.0, tau=tau)
            grid = suggest_grid(p, probe, n=2048)
            field = evolve(init_state(grid, SY_SPIN, probe), p, steps=32)
            expected = sigma_t(probe, p.dt + tau, p.hbar, p.mass) ** 2
            assert mean_z_sq(field) == pytest.approx(expected, rel=1e-8)

    def test_larmor_precession(self):
        # uniform field only: splitting is exact, <sigma_x> = cos(2 B0 dt)
        probe = GaussianProbe(1.0)
        p = unit_params(mu_b1=0.0, b0=0.4)
        grid = suggest_grid(unit_params(), probe)
        field = evolve(init_state(grid, np.array([1.0, 1.0]), probe), p, steps=32)
        assert mean_sigma_x(field) == pytest.approx(np.cos(0.8), abs=1e-8)

    def test_branch_deflection(self):
        # mu B1 > 0 pushes the up branch toward negative z by g0
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(p, probe, n=2048)
        field = evolve(init_state(grid, SY_SPIN, probe), p, steps=256)
        assert branch_mean_z(field, field.psi[0]) == pytest.approx(-0.5, abs=1e-6)
        assert branch_mean_z(field, field.psi[1]) == pytest.approx(0.5, abs=1e-6)

    def test_norm_preserved(self):
        p = unit_params(mu_b1=3.0, b0=0.5, tau=1.0)
        probe = GaussianProbe(1.0, 0.5)
        grid = suggest_grid(p, probe)
        field = evolve(init_state(grid, SY_SPIN, probe), p, steps=1)
        assert abs(field.norm_sq() - 1.0) <= 1e-10

    def test_rejects_nonpositive_steps(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        with pytest.raises(ValueError, match="steps"):
            evolve(init_state(grid, SY_SPIN, probe), unit_params(), 0)

    def test_boundary_leak_detected(self):
        grid = Grid1D(256, -4.0, 4.0)
        flat = np.full(grid.n, 1.0 / np.sqrt(8.0), dtype=complex)
        field = SpinorField(grid, np.stack([flat, flat]) / np.sqrt(2))
        with pytest.raises(RuntimeError, match="leakage"):
            evolve(field, unit_params(mu_b1=0.0), 16)


class TestMeasure:
    def test_no_gradient_is_coin_flip(self):
        p = unit_params(mu_b1=0.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        eps = measure_error(propagate(grid, p, probe), STATE_SY_PLUS)
        assert eps**2 == pytest.approx(2.0, abs=1e-3)

    def test_strong_gradient_resolves_spin(self):
        p = unit_params(mu_b1=12.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(p, probe, n=2048)
        eps = measure_error(propagate(grid, p, probe), STATE_SY_PLUS)
        assert eps**2 < 1e-3

    def test_no_fields_no_disturbance(self):
        p = unit_params(mu_b1=0.0, b0=0.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        eta = measure_disturbance(propagate(grid, p, probe))
        assert eta**2 == pytest.approx(0.0, abs=1e-10)

    def test_disturbance_tau_invariant(self):
        # the free flight is common to both branches, so eta is read after it
        probe = GaussianProbe(1.0, 0.5)
        p_far = unit_params(mu_b1=1.0, b0=0.5, tau=0.7)
        p_near = unit_params(mu_b1=1.0, b0=0.5, tau=0.0)
        grid = suggest_grid(p_far, probe)
        eta_far = measure_disturbance(propagate(grid, p_far, probe))
        eta_near = measure_disturbance(propagate(grid, p_near, probe))
        assert abs(eta_far - eta_near) <= 1e-9

    def test_mixed_state_averages_pure_squares(self):
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        field = propagate(suggest_grid(p, probe), p, probe)
        up = QubitState.from_vector([1, 0])
        down = QubitState.from_vector([0, 1])
        e_up = measure_error(field, up)
        e_dn = measure_error(field, down)
        # the error weighs the branches by the diagonal of rho alone
        for mixed in (QubitState(IDENTITY_2 / 2), QubitState.from_bloch(0.3, -0.2, 0.5)):
            w_up = mixed.rho[0, 0].real
            e_mix = measure_error(field, mixed)
            assert e_mix**2 == pytest.approx(
                w_up * e_up**2 + (1 - w_up) * e_dn**2, abs=1e-12
            )

    def test_rejects_undersized_domain(self):
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        grid = Grid1D(256, -1.0, 1.0)
        with pytest.raises(ValueError, match="span"):
            propagate(grid, p, probe)


def grid_process(p, probe, grid):
    """The Stern-Gerlach process on the grid as a MeasuringProcess: the
    block-diagonal unitary of the exact split step and the free flight, the
    sampled probe normalised in l2, and the sign meter, -1 at z >= 0 and +1
    below.  Each block's columns are the propagated basis vectors, built by
    FFTs of the identity."""
    n = grid.n
    half_phase = p.mu * (p.B0 + p.B1 * grid.z) * p.dt / (2.0 * p.hbar)
    kinetic = np.exp(-1j * p.hbar * grid.k**2 * p.dt / (2.0 * p.mass))[:, None]
    flight = np.exp(-1j * p.hbar * grid.k**2 * p.tau / (2.0 * p.mass))[:, None]
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    # the up block (sigma_z = +1) sees the potential +mu (B0 + B1 z)
    for block, sign in ((slice(0, n), -1j), (slice(n, 2 * n), 1j)):
        kick = np.exp(sign * half_phase)[:, None]
        cols = kick * np.fft.ifft(kinetic * np.fft.fft(np.diag(kick[:, 0]), axis=0), axis=0)
        u[block, block] = np.fft.ifft(flight * np.fft.fft(cols, axis=0), axis=0)
    xi = np.exp(-probe.lam * grid.z**2)
    meter = np.diag(np.where(grid.z >= 0.0, -1.0, 1.0))
    return MeasuringProcess(xi / np.linalg.norm(xi), u, meter)


class TestQrmsDefinitions:
    """The oracle's readouts against Ozawa's q-rms definitions, which
    measurement implements directly (PRA 67, 042105, 2003)."""

    # (real lambda, tau = 0) and (lambda = 1 + 0.5j, B0 = 0.5, tau = 1)
    @pytest.mark.parametrize("index", [0, 6])
    def test_readouts_match_measuring_process(self, index):
        p, probe = default_cases()[index]
        grid = suggest_grid(p, probe, n=512)
        field = propagate(grid, p, probe)
        mp = grid_process(p, probe, grid)
        eps = qrms_error(mp, STATE_SY_PLUS, PauliObservable.z())
        eta = qrms_disturbance(mp, STATE_SY_PLUS, PauliObservable.x())
        assert abs(eps**2 - measure_error(field, STATE_SY_PLUS) ** 2) <= 1e-13
        assert abs(eta**2 - measure_disturbance(field) ** 2) <= 1e-13


class TestValidation:
    def test_default_cases_span_required_axes(self):
        cases = default_cases()
        assert len(cases) >= 8
        assert any(probe.lambda_im == 0 for _, probe in cases)
        assert any(probe.lambda_im != 0 for _, probe in cases)
        assert any(p.B0 != 0 for p, _ in cases)
        assert any(p.tau == 0 for p, _ in cases) and any(p.tau > 0 for p, _ in cases)

    def test_single_case_agrees_with_closed_forms(self):
        p, probe = unit_params(mu_b1=3.0, b0=0.5, tau=1.0), GaussianProbe(1.0, 0.5)
        res = run_case(p, probe, n=1024)
        assert res.eps_sq_model == pytest.approx(error_sq(p, probe), rel=1e-14)
        assert res.eta_sq_model == pytest.approx(disturbance_sq(p, probe), rel=1e-14)
        assert res.passed
        assert res.eps_rel <= 1e-2 and res.eta_rel <= 1e-2

    def test_full_set_passes(self):
        assert all(r.passed for r in run_validation(n=1024))

    # the default cases all have hbar = m = 1; these check that the grid and
    # the closed forms take both constants from SGParams alike
    @pytest.mark.parametrize("hbar, mass", [(2.0, 3.0), (0.5, 0.25), (3.0, 1.0)])
    @pytest.mark.parametrize("index", [3, 5, 6])
    def test_closed_forms_at_non_unit_constants(self, hbar, mass, index):
        p, probe = default_cases()[index]
        p = replace(p, hbar=hbar, mass=mass)
        field = propagate(suggest_grid(p, probe), p, probe)
        eps_sq, eta_sq = measure_error(field, STATE_SY_PLUS) ** 2, measure_disturbance(field) ** 2
        assert eps_sq == pytest.approx(error_sq(p, probe), rel=VALIDATION_RTOL)
        assert eta_sq == pytest.approx(disturbance_sq(p, probe), rel=VALIDATION_RTOL)

    def test_one_step_matches_many(self):
        # one split is exact for the linear magnet field (see evolve), so
        # 64 splits read the same error and disturbance
        for p, probe in default_cases():
            start = init_state(suggest_grid(p, probe), np.array([1.0, 1.0]), probe)
            one = evolve(start, p, steps=1)
            many = evolve(start, p, steps=64)
            assert abs(
                measure_error(one, STATE_SY_PLUS) ** 2 - measure_error(many, STATE_SY_PLUS) ** 2
            ) <= 1e-10
            assert abs(measure_disturbance(one) ** 2 - measure_disturbance(many) ** 2) <= 1e-10

    def test_fft_call_budget(self, monkeypatch):
        # one propagation per case, read for both the error and the
        # disturbance: one FFT pair over the (2, n) spinor for the magnet,
        # which covers both branches, and, when tau > 0, one more for the
        # free flight; 24 calls over the validation set, whose cases split
        # evenly between tau = 0 and > 0
        calls = []

        def counted(fn):
            def wrapper(a):
                calls.append(fn.__name__)
                return fn(a)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        run_validation(n=1024)
        assert 0 < len(calls) <= 24

    def test_self_convergence_under_refinement(self):
        p, probe = unit_params(mu_b1=3.0, b0=0.5, tau=1.0), GaussianProbe(1.0, 0.5)
        coarse = run_case(p, probe, n=512)
        fine = run_case(p, probe, n=1024)
        assert abs(fine.eps_sq_grid - coarse.eps_sq_grid) <= 2e-3
        assert abs(fine.eta_sq_grid - coarse.eta_sq_grid) <= 2e-3
        assert fine.eps_rel <= coarse.eps_rel + 1e-6
