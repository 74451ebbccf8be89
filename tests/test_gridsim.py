import numpy as np
import pytest

from sgedr.gridsim import (
    Grid1D,
    SpinorField,
    evolve,
    init_state,
    measure_disturbance,
    measure_error,
    suggest_grid,
)
from sgedr.probe import GaussianProbe, moments, sigma_t
from sgedr.sgmodel import INFINITE, SGParams, disturbance_sq, error_sq
from sgedr.spin import IDENTITY_2, STATE_SY_PLUS, QubitState
from sgedr.validation import ValidationCase, default_cases, run_case, run_validation

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

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Grid1D(256, 1.0, 1.0)

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
        up_norm = np.sum(np.abs(field.up) ** 2) * grid.dz
        assert up_norm == pytest.approx(0.5, abs=1e-12)

    def test_sampled_moments_match_closed_forms(self):
        for lam_im in (0.0, 0.5, -2.0):
            probe = GaussianProbe(1.0, lam_im)
            grid = suggest_grid(unit_params(), probe, n=2048)
            field = init_state(grid, np.array([1.0, 0.0]), probe)
            var_z, var_p, _ = moments(probe)
            assert field.mean_z_sq() == pytest.approx(var_z, rel=1e-6)
            assert field.mean_p_sq(1.0) == pytest.approx(var_p, rel=1e-6)

    def test_mean_sigma_x(self):
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        plus_x = init_state(grid, np.array([1.0, 1.0]), probe)
        assert plus_x.mean_sigma_x() == pytest.approx(1.0, abs=1e-12)
        assert init_state(grid, SY_SPIN, probe).mean_sigma_x() == pytest.approx(
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
            expected = sigma_t(probe, p.dt + tau) ** 2
            assert field.mean_z_sq() == pytest.approx(expected, rel=1e-8)

    def test_larmor_precession(self):
        # uniform field only: splitting is exact, <sigma_x> = cos(2 B0 dt)
        probe = GaussianProbe(1.0)
        p = unit_params(mu_b1=0.0, b0=0.4)
        grid = suggest_grid(unit_params(), probe)
        field = evolve(init_state(grid, np.array([1.0, 1.0]), probe), p, steps=32)
        assert field.mean_sigma_x() == pytest.approx(np.cos(0.8), abs=1e-8)

    def test_branch_deflection(self):
        # mu B1 > 0 pushes the up branch toward negative z by g0
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(p, probe, n=2048)
        field = evolve(init_state(grid, SY_SPIN, probe), p, steps=256)
        assert branch_mean_z(field, field.up) == pytest.approx(-0.5, abs=1e-6)
        assert branch_mean_z(field, field.down) == pytest.approx(0.5, abs=1e-6)

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
        field = SpinorField(grid, flat / np.sqrt(2), flat / np.sqrt(2))
        with pytest.raises(RuntimeError, match="leakage"):
            evolve(field, unit_params(mu_b1=0.0), 16)


class TestInfiniteTau:
    # the grid holds a finite flight only; INFINITE was once read as tau = 0
    LAM = 1.0 + 0.5j

    def test_measure_error_rejects(self):
        probe = GaussianProbe(self.LAM.real, self.LAM.imag)
        grid = suggest_grid(unit_params(), probe)
        with pytest.raises(ValueError, match="INFINITE"):
            measure_error(grid, unit_params(tau=INFINITE), STATE_SY_PLUS, probe)

    def test_suggest_grid_rejects(self):
        with pytest.raises(ValueError, match="INFINITE"):
            suggest_grid(unit_params(tau=INFINITE), GaussianProbe(1.0))

    def test_evolve_rejects(self):
        probe = GaussianProbe(1.0)
        field = init_state(suggest_grid(unit_params(), probe), SY_SPIN, probe)
        with pytest.raises(ValueError, match="INFINITE"):
            evolve(field, unit_params(tau=INFINITE))

    def test_disturbance_ignores_tau(self):
        # eta^2 is taken over the magnet alone, so any tau gives the tau = 0 value
        probe = GaussianProbe(self.LAM.real, self.LAM.imag)
        grid = suggest_grid(unit_params(), probe)
        at_inf = measure_disturbance(grid, unit_params(tau=INFINITE), STATE_SY_PLUS, probe)
        assert at_inf == measure_disturbance(grid, unit_params(), STATE_SY_PLUS, probe)


class TestMeasure:
    def test_no_gradient_is_coin_flip(self):
        p = unit_params(mu_b1=0.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        eps = measure_error(grid, p, STATE_SY_PLUS, probe, steps=32)
        assert eps**2 == pytest.approx(2.0, abs=1e-3)

    def test_strong_gradient_resolves_spin(self):
        p = unit_params(mu_b1=12.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(p, probe, n=2048)
        eps = measure_error(grid, p, STATE_SY_PLUS, probe)
        assert eps**2 < 1e-3

    def test_no_fields_no_disturbance(self):
        p = unit_params(mu_b1=0.0, b0=0.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(unit_params(), probe)
        eta = measure_disturbance(grid, p, STATE_SY_PLUS, probe, steps=32)
        assert eta**2 == pytest.approx(0.0, abs=1e-10)

    def test_disturbance_tau_invariant(self):
        probe = GaussianProbe(1.0, 0.5)
        p_far = unit_params(mu_b1=1.0, b0=0.5, tau=0.7)
        p_near = unit_params(mu_b1=1.0, b0=0.5, tau=0.0)
        grid = suggest_grid(p_far, probe)
        eta_far = measure_disturbance(grid, p_far, STATE_SY_PLUS, probe, steps=64)
        eta_near = measure_disturbance(grid, p_near, STATE_SY_PLUS, probe, steps=64)
        assert abs(eta_far - eta_near) <= 1e-9

    def test_mixed_state_averages_pure_squares(self):
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        grid = suggest_grid(p, probe)
        up = QubitState.from_vector([1, 0])
        down = QubitState.from_vector([0, 1])
        e_up = measure_error(grid, p, up, probe, steps=64)
        e_dn = measure_error(grid, p, down, probe, steps=64)
        # the error weighs the branches by the diagonal of rho alone
        for mixed in (QubitState(IDENTITY_2 / 2), QubitState.from_bloch(0.3, -0.2, 0.5)):
            w_up = mixed.rho[0, 0].real
            e_mix = measure_error(grid, p, mixed, probe, steps=64)
            assert e_mix**2 == pytest.approx(
                w_up * e_up**2 + (1 - w_up) * e_dn**2, abs=1e-12
            )
        # the disturbance does not depend on the state at all
        etas = [
            measure_disturbance(grid, p, s, probe, steps=64)
            for s in (up, down, QubitState(IDENTITY_2 / 2), STATE_SY_PLUS)
        ]
        assert max(etas) - min(etas) <= 1e-12

    def test_rejects_undersized_domain(self):
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        grid = Grid1D(256, -1.0, 1.0)
        with pytest.raises(ValueError, match="span"):
            measure_error(grid, p, STATE_SY_PLUS, probe)


class TestValidation:
    def test_default_cases_span_required_axes(self):
        cases = default_cases()
        assert len(cases) >= 8
        assert any(c.lam.imag == 0 for c in cases)
        assert any(c.lam.imag != 0 for c in cases)
        assert any(c.b0 != 0 for c in cases)
        assert any(c.tau == 0 for c in cases) and any(c.tau > 0 for c in cases)

    def test_single_case_agrees_with_closed_forms(self):
        case = ValidationCase(lam=1.0 + 0.5j, mu_b1=3.0, b0=0.5, tau=1.0)
        res = run_case(case, n=1024)
        assert res.eps_sq_model == pytest.approx(
            error_sq(case.params(), case.probe()), rel=1e-14
        )
        assert res.eta_sq_model == pytest.approx(
            disturbance_sq(case.params(), case.probe()), rel=1e-14
        )
        assert res.passed
        assert res.eps_rel <= 1e-2 and res.eta_rel <= 1e-2

    def test_full_set_passes(self):
        assert all(r.passed for r in run_validation(n=1024))

    def test_one_step_matches_many(self):
        # one split is exact for the linear magnet field (see evolve)
        for case in default_cases():
            one = run_case(case, steps=1)
            many = run_case(case, steps=64)
            assert abs(one.eps_sq_grid - many.eps_sq_grid) <= 1e-10
            assert abs(one.eta_sq_grid - many.eta_sq_grid) <= 1e-10

    def test_default_is_one_step(self):
        for case in default_cases():
            assert run_case(case) == run_case(case, steps=1)

    def test_fft_call_budget(self, monkeypatch):
        # one forward propagation for the error and one over the magnet alone
        # for the disturbance; each takes an FFT pair per branch for the
        # magnet and, when tau > 0, one for the free flight: 80 calls over
        # the validation set, whose cases split evenly between tau = 0 and > 0
        calls = []

        def counted(fn):
            def wrapper(a):
                calls.append(fn.__name__)
                return fn(a)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        run_validation(n=1024)
        assert 0 < len(calls) <= 80

    def test_self_convergence_under_refinement(self):
        case = ValidationCase(lam=1.0 + 0.5j, mu_b1=3.0, b0=0.5, tau=1.0)
        coarse = run_case(case, n=512)
        fine = run_case(case, n=1024)
        assert abs(fine.eps_sq_grid - coarse.eps_sq_grid) <= 2e-3
        assert abs(fine.eta_sq_grid - coarse.eta_sq_grid) <= 2e-3
        assert fine.eps_rel <= coarse.eps_rel + 1e-6
