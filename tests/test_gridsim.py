import math
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgedr.gridsim import (
    HALF_MAX,
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
from sgedr.spin import STATE_SY_PLUS, PauliObservable
from sgedr.validation import VALIDATION_RTOL, default_cases, run_case, run_validation

from helpers import mean_p_sq, mean_sigma_x, mean_z_sq


def unit_params(mu_b1=1.0, b0=0.0, tau=0.0, dt=1.0):
    return SGParams(mu=1.0, B0=b0, B1=mu_b1, mass=1.0, hbar=1.0, dt=dt, tau=tau)


def repeated_split(field, p, steps):
    """Reference for evolve: the magnet interval as `steps` symmetric splits,
    each branch propagated on its own, then the free flight.  evolve takes
    one split; for the linear magnet field this repeats it exactly."""
    grid = field.grid
    h = p.dt / steps
    kinetic = np.exp(-1j * p.hbar * grid.k**2 * h / (2.0 * p.mass))
    flight = np.exp(-1j * p.hbar * grid.k**2 * p.tau / (2.0 * p.mass))
    rows = []
    # the up branch (sigma_z = +1) sees the potential +mu (B0 + B1 z)
    for sign, branch in zip((1.0, -1.0), field.psi):
        half_kick = np.exp(-1j * sign * p.mu * (p.B0 + p.B1 * grid.z) * h / (2.0 * p.hbar))
        for _ in range(steps):
            branch = half_kick * np.fft.ifft(kinetic * np.fft.fft(half_kick * branch))
        rows.append(np.fft.ifft(flight * np.fft.fft(branch)))
    return SpinorField(grid, np.stack(rows))


def grid_sum_error_sq(p, probe, n):
    """measure_error's squared sum on suggest_grid's n-point grid, without
    the screen-edge term."""
    return measure_error(propagate(p, probe, n)) ** 2


def branch_mean_z(field, branch):
    dens = np.abs(branch) ** 2
    weight = np.sum(dens) * field.grid.dz
    return float(np.sum(field.grid.z * dens) * field.grid.dz / weight)


class TestGrid1D:
    def test_rejects_small_or_odd_n(self):
        with pytest.raises(ValueError):
            Grid1D(128, 1.0)
        with pytest.raises(ValueError):
            Grid1D(300, 1.0)

    @pytest.mark.parametrize("n", [1024.0, np.nan, 1e300])
    def test_rejects_float_n(self, n):
        with pytest.raises(ValueError, match=r"^n must be a power of two"):
            Grid1D(n, 1.0)

    # powers of two over the row cap: 2**24 points would take hundreds of
    # megabytes per field, and 2**1100 overflows float()
    @pytest.mark.parametrize("n", [2**24, 2**1100], ids=["2**24", "2**1100"])
    def test_rejects_n_over_row_cap(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[256, 10000000\], got "):
            Grid1D(n, 1.0)

    # nan of either sign, inf and 1e308 would make dz nan or inf, 0 and below
    # leave no interval, and 1.1e-305 (just below 512 times the least normal
    # float) a subnormal dz that rounds, so that z = 0 misses index n / 2
    @pytest.mark.parametrize(
        "half",
        [
            pytest.param(np.nan, id="nan"),
            pytest.param(-np.nan, id="-nan"),
            np.inf, -np.inf, 0.0, -1.0, 1e308, 1.139237815555687e-305, 1e-310,
        ],
    )
    def test_rejects_bad_half(self, half):
        with pytest.raises(ValueError, match=r"^half must lie in"):
            Grid1D(1024, half)

    def test_spacing_and_axes(self):
        g = Grid1D(256, 2.0)
        assert g.dz == pytest.approx(4.0 / 256)
        assert g.z[0] == pytest.approx(-2.0)
        assert g.z[1] - g.z[0] == pytest.approx(g.dz)
        assert g.k.shape == (256,)
        assert g.k[0] == 0.0

    # measure_error and continuum_error_sq read z = 0 at index n // 2
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2**k for k in range(8, 15)]),
        st.floats(-300.0, math.log10(HALF_MAX)).map(lambda e: min(10.0**e, HALF_MAX)),
    )
    @example(256, HALF_MAX)
    @example(16384, 1e-300)
    def test_zero_at_index_n_half(self, n, half):
        grid = Grid1D(n, half)
        z, h = grid.z, n // 2
        assert z[h] == 0.0
        assert z[h - 1] < 0.0 < z[h + 1]
        assert np.count_nonzero(z >= 0.0) == h
        assert np.all(np.isfinite(grid.k))


class TestInitState:
    def test_normalized_equal_branches(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        field = init_state(grid, probe)
        assert field.norm_sq() == pytest.approx(1.0, abs=1e-12)
        up_norm = np.sum(np.abs(field.psi[0]) ** 2) * grid.dz
        assert up_norm == pytest.approx(0.5, abs=1e-12)

    def test_sampled_moments_match_closed_forms(self):
        for lam_im in (0.0, 0.5, -2.0):
            probe = GaussianProbe(1.0, lam_im)
            grid = suggest_grid(unit_params(), probe, n=2048)
            field = init_state(grid, probe)
            var_z, var_p, _ = moments(probe, 1.0)
            assert mean_z_sq(field) == pytest.approx(var_z, rel=1e-6)
            assert mean_p_sq(field, 1.0) == pytest.approx(var_p, rel=1e-6)

    def test_mean_sigma_x(self):
        # the branch pair (xi, xi) / sqrt(2) is the sigma_x = +1 product state
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        assert mean_sigma_x(init_state(grid, probe)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unresolvable_width(self):
        grid = Grid1D(256, 0.5)
        with pytest.raises(ValueError, match="unresolvable"):
            init_state(grid, GaussianProbe(10000.0))


class TestEvolve:
    # each closed form is checked on evolve's one split and on the
    # reference's many

    def test_free_spreading_matches_sigma_t(self):
        # no fields: the packet spread follows the ballistic closed form
        probe = GaussianProbe(1.0, 0.8)
        for tau in (0.0, 1.5):
            p = unit_params(mu_b1=0.0, tau=tau)
            start = init_state(suggest_grid(p, probe, n=2048), probe)
            expected = sigma_t(probe, p.dt + tau, p.hbar, p.mass) ** 2
            for field in (evolve(start, p), repeated_split(start, p, 32)):
                assert mean_z_sq(field) == pytest.approx(expected, rel=1e-8)

    def test_larmor_precession(self):
        # uniform field only: splitting is exact, <sigma_x> = cos(2 B0 dt)
        probe = GaussianProbe(1.0)
        p = unit_params(mu_b1=0.0, b0=0.4)
        start = init_state(suggest_grid(unit_params(), probe), probe)
        for field in (evolve(start, p), repeated_split(start, p, 32)):
            assert mean_sigma_x(field) == pytest.approx(np.cos(0.8), abs=1e-8)

    def test_branch_deflection(self):
        # mu B1 > 0 pushes the up branch toward negative z by g0
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        start = init_state(suggest_grid(p, probe, n=2048), probe)
        for field in (evolve(start, p), repeated_split(start, p, 256)):
            assert branch_mean_z(field, field.psi[0]) == pytest.approx(-0.5, abs=1e-6)
            assert branch_mean_z(field, field.psi[1]) == pytest.approx(0.5, abs=1e-6)

    def test_norm_preserved(self):
        p = unit_params(mu_b1=3.0, b0=0.5, tau=1.0)
        probe = GaussianProbe(1.0, 0.5)
        grid = suggest_grid(p, probe)
        field = evolve(init_state(grid, probe), p)
        assert abs(field.norm_sq() - 1.0) <= 1e-10

    def test_boundary_leak_detected(self):
        grid = Grid1D(256, 4.0)
        flat = np.full(grid.n, 1.0 / np.sqrt(8.0), dtype=complex)
        field = SpinorField(grid, np.stack([flat, flat]) / np.sqrt(2))
        with pytest.raises(RuntimeError, match="leakage"):
            evolve(field, unit_params(mu_b1=0.0))


class TestMeasure:
    def test_no_gradient_is_coin_flip(self):
        eps = measure_error(propagate(unit_params(mu_b1=0.0), GaussianProbe(1.0)))
        assert eps**2 == pytest.approx(2.0, abs=1e-3)

    def test_strong_gradient_resolves_spin(self):
        eps = measure_error(propagate(unit_params(mu_b1=12.0), GaussianProbe(1.0), 2048))
        assert eps**2 < 1e-3

    def test_no_fields_no_disturbance(self):
        eta = measure_disturbance(propagate(unit_params(mu_b1=0.0, b0=0.0), GaussianProbe(1.0)))
        assert eta**2 == pytest.approx(0.0, abs=1e-10)

    def test_disturbance_tau_invariant(self):
        # the free flight is common to both branches, so eta is read after it
        probe = GaussianProbe(1.0, 0.5)
        p_far = unit_params(mu_b1=1.0, b0=0.5, tau=0.7)
        p_near = unit_params(mu_b1=1.0, b0=0.5, tau=0.0)
        start = init_state(suggest_grid(p_far, probe), probe)
        eta_far = measure_disturbance(evolve(start, p_far))
        eta_near = measure_disturbance(evolve(start, p_near))
        assert abs(eta_far - eta_near) <= 1e-9


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
        field = propagate(p, probe, 512)
        mp = grid_process(p, probe, field.grid)
        eps = qrms_error(mp, STATE_SY_PLUS, PauliObservable.z())
        eta = qrms_disturbance(mp, STATE_SY_PLUS, PauliObservable.x())
        assert abs(eps**2 - measure_error(field) ** 2) <= 1e-13
        assert abs(eta**2 - measure_disturbance(field) ** 2) <= 1e-13

    # inside the oracle's domain at n = 512: over this box the probe width
    # stays at least 1.16 times the 4 dz that init_state requires.  Each
    # example builds a 1024 x 1024 unitary, about 0.8 s.
    @settings(max_examples=5, deadline=timedelta(seconds=20))
    @given(
        st.floats(0.6, 1.2),
        st.floats(-0.5, 0.5),
        st.floats(-3.0, 3.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_readouts_match_over_the_domain(self, lam_re, lam_im, mu_b1, b0, tau):
        p, probe = unit_params(mu_b1, b0, tau), GaussianProbe(lam_re, lam_im)
        grid = suggest_grid(p, probe, n=512)
        field = evolve(init_state(grid, probe), p)
        mp = grid_process(p, probe, grid)
        eps = qrms_error(mp, STATE_SY_PLUS, PauliObservable.z())
        eta = qrms_disturbance(mp, STATE_SY_PLUS, PauliObservable.x())
        assert abs(eps**2 - measure_error(field) ** 2) <= 1e-13
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
        field = propagate(p, probe)
        eps_sq, eta_sq = measure_error(field) ** 2, measure_disturbance(field) ** 2
        assert eps_sq == pytest.approx(error_sq(p, probe), rel=VALIDATION_RTOL)
        assert eta_sq == pytest.approx(disturbance_sq(p, probe), rel=VALIDATION_RTOL)

    def test_one_step_matches_many(self):
        # one split is exact for the linear magnet field (see evolve), so
        # 64 splits read the same error and disturbance
        for p, probe in default_cases():
            start = init_state(suggest_grid(p, probe), probe)
            one = evolve(start, p)
            many = repeated_split(start, p, 64)
            assert abs(
                measure_error(one) ** 2 - measure_error(many) ** 2
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

    @pytest.mark.parametrize("index", range(8))
    def test_error_converges_at_second_order(self, index):
        # the equal sigma_y+ branch weights cancel the first-order term of
        # the z = 0 grid point (see measure_error): halving dz quarters the
        # grid sum's deviation from the closed form
        p, probe = default_cases()[index]
        model = error_sq(p, probe)
        coarse, fine = (grid_sum_error_sq(p, probe, n) - model for n in (512, 1024))
        assert 3.9 <= coarse / fine <= 4.1

    @pytest.mark.parametrize("index", range(8))
    def test_continuum_error_converges_at_fourth_order(self, index):
        # the screen-edge term removes the dz^2 part: halving dz divides the
        # deviation by 16
        p, probe = default_cases()[index]
        coarse, fine = (run_case(p, probe, n=n) for n in (512, 1024))
        ratio = (coarse.eps_sq_grid - coarse.eps_sq_model) / (fine.eps_sq_grid - fine.eps_sq_model)
        assert 15.0 <= ratio <= 17.0

    @pytest.mark.parametrize("index", range(8))
    def test_continuum_error_matches_richardson(self, index):
        # a second propagation cancels the same dz^2 term by extrapolation
        p, probe = default_cases()[index]
        coarse, fine = (grid_sum_error_sq(p, probe, n) for n in (512, 1024))
        extrapolated = (4.0 * fine - coarse) / 3.0
        corrected = run_case(p, probe, n=1024).eps_sq_grid
        assert abs(corrected - extrapolated) <= 1e-7 * extrapolated

