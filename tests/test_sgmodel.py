import dataclasses
import itertools

import numpy as np
import pytest
from scipy.special import erfc as scipy_erfc
from scipy.special import erfinv as scipy_erfinv

from sgedr.probe import GaussianProbe, collimator_posterior, moments, sigma_t
from sgedr.sgmodel import (
    SGParams,
    disturbance_sq,
    erfc,
    error_sq,
    error_sq_limit,
    g0,
    in_region,
    optimal_tau,
    region_bound,
    sweep_region,
)

HBAR = 1.054571817e-34
MU_E = -9.2847647043e-24
M_AG = 1.7911939e-25


def silver_params(tau=0.0):
    v_y = np.sqrt(4.0 * 1.380649e-23 * 1500.0 / M_AG)
    dt = 3.5e-2 / v_y
    return SGParams(mu=MU_E, B0=0.0, B1=-1.35e3, mass=M_AG, hbar=HBAR, dt=dt, tau=tau), v_y


def silver_probe(K=1.0):
    # d1 = 62 um, d2 = 40 um, L1 = 3.3 cm; D = 1.25 K times each half width
    _, v_y = silver_params()
    delta_p = (6.2e-5 + 4.0e-5) / (2.0 * 3.3e-2) * M_AG * v_y
    return collimator_posterior(1.25 * K * delta_p, 1.25 * K * (4.0e-5 / 2.0), HBAR)


def unit_params(mu_b1=1.0, b0=0.0, dt=1.0, tau=0.0):
    return SGParams(mu=1.0, B0=b0, B1=mu_b1, mass=1.0, hbar=1.0, dt=dt, tau=tau)


class TestG0:
    def test_silver_deflection(self):
        p, _ = silver_params()
        assert g0(p) == pytest.approx(9.26e-5, rel=5e-3)
        assert g0(p) > 0  # both mu and B1 negative

    def test_no_gradient_no_deflection(self):
        assert g0(unit_params(mu_b1=0.0)) == 0.0

    def test_linear_in_lever_arm(self):
        p0 = unit_params(tau=0.0)
        p1 = unit_params(tau=p0.dt / 2.0)
        assert g0(p1) == pytest.approx(2.0 * g0(p0), rel=1e-12)

    def test_rejects_infinite_tau(self):
        # the tau -> infinity limit is error_sq_limit; SGParams holds a finite flight
        with pytest.raises(ValueError, match="tau"):
            g0(unit_params(tau=np.inf))


class TestErrorSq:
    def test_silver_k1(self):
        p, _ = silver_params()
        probe = silver_probe(K=1.0)
        arg = abs(g0(p)) / (np.sqrt(2.0) * sigma_t(probe, p.dt, p.hbar, p.mass))
        assert arg == pytest.approx(0.972, rel=5e-3)
        # the published estimate rounds to 3 significant figures at each
        # step, drifting about 1% here
        assert error_sq(p, probe) == pytest.approx(3.38e-1, rel=1.5e-2)

    def test_silver_k06(self):
        p, _ = silver_params()
        probe = silver_probe(K=0.6)
        arg = abs(g0(p)) / (np.sqrt(2.0) * sigma_t(probe, p.dt, p.hbar, p.mass))
        assert arg == pytest.approx(1.620, rel=5e-3)
        # rounding drift is amplified by the steep erfc tail (about 2%)
        assert error_sq(p, probe) == pytest.approx(4.38e-2, rel=2.5e-2)

    def test_no_gradient_is_coin_flip(self):
        probe = GaussianProbe(1.0)
        assert error_sq(unit_params(mu_b1=0.0), probe) == pytest.approx(2.0)

    def test_sign_insensitive_in_gradient(self):
        probe = GaussianProbe(1.0)
        assert error_sq(unit_params(mu_b1=2.0), probe) == pytest.approx(
            error_sq(unit_params(mu_b1=-2.0), probe), rel=1e-14
        )

    def test_monotone_in_screen_spread_for_real_lambda(self):
        # at tau = 0 the error depends only on the screen spread, increasingly
        p = unit_params(mu_b1=1.0)
        pairs = []
        for lam in (0.1, 0.5, 1.0, 5.0, 20.0):
            probe = GaussianProbe(lam)
            pairs.append((sigma_t(probe, p.dt, p.hbar, p.mass), error_sq(p, probe)))
        pairs.sort()
        spreads, errors = zip(*pairs)
        assert all(e1 < e2 for e1, e2 in zip(errors, errors[1:]))


class TestErrorSqLimit:
    def test_no_gradient(self):
        assert error_sq_limit(unit_params(mu_b1=0.0), GaussianProbe(1.0)) == pytest.approx(2.0)

    def test_strong_gradient_vanishes(self):
        assert error_sq_limit(unit_params(mu_b1=100.0), GaussianProbe(1.0)) < 1e-12

    def test_matches_huge_tau(self):
        probe = GaussianProbe(1.0, 0.7)
        p_inf = unit_params()
        p_far = unit_params(tau=1e9 * p_inf.dt)
        assert error_sq_limit(p_inf, probe) == pytest.approx(
            error_sq(p_far, probe), abs=1e-6
        )

    def test_broadcasts_over_probe_widths(self):
        lambdas = np.array([0.5, 1.0, 4.0])
        p = unit_params(mu_b1=2.0)
        got = error_sq_limit(p, GaussianProbe(lambdas, 0.3))
        assert got.shape == (3,)
        for lam, value in zip(lambdas, got):
            assert value == error_sq_limit(p, GaussianProbe(float(lam), 0.3))


class TestDisturbanceSq:
    def test_silver_is_fully_damped(self):
        p, _ = silver_params()
        probe = silver_probe()
        assert disturbance_sq(p, probe) == 2.0

    def test_no_fields_no_disturbance(self):
        probe = GaussianProbe(1.0)
        assert disturbance_sq(unit_params(mu_b1=0.0, b0=0.0), probe) == pytest.approx(0.0)

    def test_pi_precession_flips_sigma_x(self):
        # 2 mu dt B0 / hbar = pi
        probe = GaussianProbe(1.0)
        p = unit_params(mu_b1=0.0, b0=np.pi / 2.0)
        assert disturbance_sq(p, probe) == pytest.approx(4.0, rel=1e-12)

    def test_tau_independent(self):
        probe = GaussianProbe(1.0, -0.3)
        vals = {disturbance_sq(unit_params(tau=t), probe) for t in (0.0, 0.5, 10.0)}
        assert len(vals) == 1

    def test_saturates_at_two_under_underflow(self):
        probe = GaussianProbe(1e-6)  # huge position spread in the magnet
        p = unit_params(mu_b1=100.0, b0=1.0)
        assert disturbance_sq(p, probe) == 2.0

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            probe = GaussianProbe(10 ** rng.uniform(-2, 2), rng.normal() * 5)
            p = unit_params(mu_b1=rng.normal() * 3, b0=rng.normal() * 3)
            val = disturbance_sq(p, probe)
            assert 0.0 <= val <= 4.0


class TestTauOptimization:
    def test_real_lambda_never_finite(self):
        p = unit_params()
        probe = GaussianProbe(1.0)
        assert optimal_tau(p, probe) is None

    def test_focusing_probe_condition(self):
        # converging packet: positive Im(lambda), anticommutator negative
        probe = GaussianProbe(1.0, 5.0)
        assert optimal_tau(unit_params(dt=0.1), probe) is not None
        assert optimal_tau(unit_params(dt=10.0), probe) is None

    def test_condition_sign_from_moments(self):
        probe = GaussianProbe(1.0, 1e6)
        _, var_p, anticom = moments(probe, 1.0)
        dt = 1e-9
        assert anticom < 0
        finite = optimal_tau(unit_params(dt=dt), probe) is not None
        assert finite == (anticom + var_p * dt < 0)

    def test_scan_confirms_minimum(self):
        # the second input's stationary point lies at tau = -0.0228, below 0,
        # so the error rises from tau = 0 and tau0 is 0
        for probe, p, at_zero in [
            (GaussianProbe(1.0, 5.0), unit_params(mu_b1=1.0, dt=0.1), False),
            (GaussianProbe(1.0, 10.0), unit_params(mu_b1=100.0, dt=0.0743), True),
        ]:
            tau0 = optimal_tau(p, probe)
            assert isinstance(tau0, float) and tau0 >= 0 and (tau0 == 0) is at_zero
            at_tau0 = error_sq(dataclasses.replace(p, tau=tau0), probe)
            taus = np.linspace(0.0, 100.0 * (tau0 or p.dt), 4001)
            scan = [error_sq(dataclasses.replace(p, tau=float(t)), probe) for t in taus]
            assert at_tau0 <= min(scan) + 1e-12

    def test_gradient_sign_does_not_move_tau0(self):
        probe = GaussianProbe(1.0, 5.0)
        t_pos = optimal_tau(unit_params(mu_b1=2.0, dt=0.1), probe)
        t_neg = optimal_tau(unit_params(mu_b1=-2.0, dt=0.1), probe)
        assert t_pos == t_neg


class TestRegion:
    def test_bound_at_center(self):
        assert region_bound(2.0) == pytest.approx(1.0)

    def test_bound_pins_eta_at_zero_error(self):
        assert region_bound(0.0) == 0.0
        assert region_bound(4.0) == 0.0

    def test_bound_symmetric(self):
        for e in np.linspace(0.0, 4.0, 101):
            assert region_bound(e) == pytest.approx(region_bound(4.0 - e), abs=1e-12)

    def test_bound_matches_scipy_erfinv(self):
        specials = [0.0, 5e-324, 1e-300, 1e-17, 4.0 - 4e-16, 4.0]
        eps_sq = np.concatenate([np.linspace(0.0, 4.0, 4097 - len(specials)), specials])
        got = region_bound(eps_sq)
        assert got.shape == (4097,)
        assert np.all(np.isfinite(got)) and np.all((0.0 <= got) & (got <= 1.0))
        want = np.exp(-scipy_erfinv((2.0 - eps_sq) / 2.0) ** 2)
        assert np.max(np.abs(got - want)) <= 1e-15
        for e in specials:
            assert 0.0 <= region_bound(e) <= 1.0

    def test_bound_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            region_bound(-0.1)
        with pytest.raises(ValueError):
            region_bound(4.1)

    def test_in_region_examples(self):
        assert in_region(2.0, 0.0)
        assert in_region(0.0, 2.0)
        assert not in_region(0.0, 0.0)

    def test_1922_point_inside(self):
        assert in_region(0.338, 2.0)


class TestErfc:
    def test_matches_scipy(self):
        x = np.linspace(0.0, 10.0, 10001)
        np.testing.assert_allclose(erfc(x), scipy_erfc(x), rtol=1e-14, atol=0.0)


class TestSweepRegion:
    BASE = SGParams(mu=1.0, B0=0.0, B1=3.0, mass=1.0, hbar=1.0, dt=1.0)

    def test_no_gradient_line(self):
        base = SGParams(mu=1.0, B0=0.0, B1=0.0, mass=1.0, hbar=1.0, dt=1.0)
        pts = sweep_region(base, [1.0 + 0.0j], [0.3, 0.9], [0.0])
        for eps_sq, _ in pts:
            assert eps_sq == pytest.approx(2.0)

    def test_containment(self):
        lambdas = [
            complex(re, im)
            for re in np.linspace(0.25, 4.0, 6)
            for im in np.linspace(-2.0, 2.0, 6)
        ]
        pts = sweep_region(self.BASE, lambdas, np.linspace(0, 2, 5), np.linspace(0, 2, 5))
        for eps_sq, eta_sq in pts:
            assert abs(2.0 - eta_sq) / 2.0 <= region_bound(eps_sq) + 1e-9
            assert (eps_sq - 2.0) ** 2 + (eta_sq - 2.0) ** 2 <= 4.0 + 1e-9

    def test_contains_heisenberg_violations(self):
        pts = sweep_region(
            self.BASE,
            [complex(re, 0.0) for re in np.linspace(0.25, 2.0, 10)],
            [0.0],
            [0.0],
        )
        assert any(np.sqrt(eps_sq * eta_sq) < 1.0 for eps_sq, eta_sq in pts)

    def test_matches_scalar_path_bit_for_bit(self):
        rng = np.random.default_rng(11)
        lambdas = [complex(re, im) for re, im in zip(rng.uniform(0.25, 4.0, 5), rng.uniform(-2, 2, 5))]
        b0_values = rng.uniform(0.1, 2.0, 4)
        taus = rng.uniform(0.1, 2.0, 4)
        pts = sweep_region(self.BASE, lambdas, b0_values, taus)
        expected = []
        for lam, b0, tau in itertools.product(lambdas, b0_values, taus):
            probe = GaussianProbe(lam.real, lam.imag)
            params = SGParams(mu=1.0, B0=float(b0), B1=3.0, mass=1.0, hbar=1.0, dt=1.0, tau=float(tau))
            eps_sq, eta_sq = error_sq(params, probe), disturbance_sq(params, probe)
            assert isinstance(eps_sq, float) and isinstance(eta_sq, float)
            expected.append((min(eps_sq, 4.0), min(max(eta_sq, 0.0), 4.0)))
        assert pts.shape == (80, 2)
        assert np.array_equal(pts, np.array(expected))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            sweep_region(self.BASE, [-1.0 + 0j], [0.0], [0.0])
        with pytest.raises(ValueError):
            sweep_region(self.BASE, [1.0 + 0j], [0.0], [-1.0])


class TestSGParams:
    def test_rejects_zero_transit(self):
        with pytest.raises(ValueError):
            SGParams(mu=1.0, B0=0.0, B1=1.0, mass=1.0, hbar=1.0, dt=0.0)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            unit_params(tau=-1.0)

    @pytest.mark.parametrize("field", ["mu", "B0", "B1", "mass", "hbar", "dt"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        fields = {"mu": 1.0, "B0": 0.0, "B1": 1.0, "mass": 1.0, "hbar": 1.0, "dt": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            SGParams(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, bad):
        with pytest.raises(ValueError, match="tau"):
            unit_params(tau=bad)


class TestFloatRange:
    """Finite inputs whose products leave the float range."""

    HUGE = SGParams(mu=1e40, B0=0.0, B1=1e40, mass=1.0, hbar=1e-40, dt=1e40)

    def test_infinite_damping_exponent_gives_two(self):
        # (mu B1 dt / hbar)^2 = 1e320 overflows; Python's float ** raised here
        assert disturbance_sq(self.HUGE, GaussianProbe(1.0)) == 2.0

    def test_infinite_damping_ignores_an_infinite_phase(self):
        p = dataclasses.replace(self.HUGE, B0=1e300)
        assert disturbance_sq(p, GaussianProbe(1.0)) == 2.0

    def test_infinite_phase_without_damping_is_named(self):
        p = SGParams(mu=1e300, B0=1e300, B1=0.0, mass=1.0, hbar=1.0, dt=1.0)
        with pytest.raises(ValueError, match="^phase is not finite"):
            disturbance_sq(p, GaussianProbe(1.0))

    def test_nan_damping_exponent_is_named(self):
        # the chirped probe's spread rounds to 0 at dt/2 while mu B1 dt / hbar = inf
        p = SGParams(mu=1e200, B0=0.0, B1=1e200, mass=2e10, hbar=1.0, dt=2.0)
        probe = GaussianProbe(1.0, 1e10)
        with pytest.raises(ValueError, match="^damping_exponent is nan"):
            disturbance_sq(p, probe)

    def test_overflowing_g0_is_named(self):
        p = SGParams(mu=1e300, B0=0.0, B1=1e300, mass=1.0, hbar=1.0, dt=1.0)
        with pytest.raises(ValueError, match="^g0 is not finite"):
            error_sq(p, GaussianProbe(1.0))

    def test_overflowing_moment_is_named(self):
        # every field at 1e300 returned nan from both closed forms
        p = SGParams(*[1e300] * 6)
        probe = GaussianProbe(1e300, 1e300)
        for f in (error_sq, disturbance_sq, error_sq_limit):
            with pytest.raises(ValueError, match="^var_p is not finite"):
                f(p, probe)

    def test_sweep_region_stays_silent(self):
        # warned "overflow encountered in multiply" before; warnings are errors here
        base = SGParams(mu=1.0, B0=0.0, B1=1e35, mass=1.0, hbar=1.0, dt=1e40)
        pts = sweep_region(base, [1.0 + 1e40j, 1.0 + 1j], [0.0, 1e300], [0.0, 1.0])
        assert np.all(np.isfinite(pts)) and np.all(pts[:, 1] == 2.0)

    def test_overflowing_optimal_tau_is_named(self):
        # 2 Var P dt^2 overflows; Python's float ** raised OverflowError here
        p = SGParams(mu=1.0, B0=0.0, B1=1.0, mass=1e300, hbar=1.0, dt=1e160)
        probe = GaussianProbe(1.0, 1.0)
        with pytest.raises(ValueError, match="^tau_num is not finite"):
            optimal_tau(p, probe)

    def test_nan_optimal_tau_denominator_is_named(self):
        # m <{Z,P}> = -inf against Var P dt = inf: the sign that picks the
        # branch is undefined, so it must not reach the finite one
        p = SGParams(mu=1.0, B0=0.0, B1=1.0, mass=1e300, hbar=1.0, dt=1e300)
        probe = GaussianProbe(1e-5, 1e10)
        with pytest.raises(ValueError, match="^tau_denom is not finite"):
            optimal_tau(p, probe)
