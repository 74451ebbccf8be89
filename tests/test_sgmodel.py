import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgedr.probe import GaussianProbe, collimator_posterior, moments, sigma_t
from sgedr.sgmodel import (
    REGION_TOL,
    SGParams,
    damping_exponent,
    disturbance_sq,
    erfc,
    erfc_arg,
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

    def test_bound_matches_mpmath_erfinv(self):
        specials = [0.0, 5e-324, 1e-300, 1e-17, 4.0 - 4e-16, 4.0]
        eps_sq = np.concatenate([np.linspace(0.0, 4.0, 4097 - len(specials)), specials])
        got = region_bound(eps_sq)
        assert got.shape == (4097,)
        assert np.all(np.isfinite(got)) and np.all((0.0 <= got) & (got <= 1.0))
        want = np.array([float(mpmath.exp(-mpmath.erfinv(y) ** 2)) for y in (2.0 - eps_sq) / 2.0])
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


def bound_flags(eps_sq, eta_sq):
    """in_region by its definition, through region_bound's Newton inverse."""
    return np.abs(2.0 - eta_sq) / 2.0 <= region_bound(eps_sq) + REGION_TOL


class TestInRegion:
    """in_region's one erfc per pair against the definition through region_bound."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-13.0, -1.0))
    @example(0, -12.0)
    def test_matches_the_bound_off_the_edge(self, seed, log_offset):
        # 1,024 pairs: half anywhere, half scattered about the edge
        # region_bound + REGION_TOL with relative offsets up to 10**log_offset
        rng = np.random.default_rng(seed)
        eps_sq = rng.uniform(0.0, 4.0, 1024)
        eps_sq[:9] = [0.0, 4.0, 5e-324, 1e-300, 1e-17, 2e-12, 2.0, 4.0 - 4e-16, 3.9999]
        edge = region_bound(eps_sq) + REGION_TOL
        offset = rng.choice([-1.0, 1.0], 1024) * 10.0 ** rng.uniform(-13.0, log_offset, 1024)
        half = np.minimum(edge * (1.0 + offset), 1.0)
        near = 2.0 + rng.choice([-2.0, 2.0], 1024) * half
        eta_sq = np.where(rng.random(1024) < 0.5, near, rng.uniform(0.0, 4.0, 1024))
        lhs = np.abs(2.0 - eta_sq) / 2.0
        far = np.abs(lhs - edge) > 1e-12 * edge
        assert far.sum() > 256
        assert np.array_equal(in_region(eps_sq, eta_sq)[far], bound_flags(eps_sq, eta_sq)[far])

    @pytest.mark.parametrize("eps_sq", [0.0, 4.0])
    def test_ends_hold_only_eta_sq_two(self, eps_sq):
        # the bound is 0 at eps_sq in {0, 4}: only |2 - eta_sq|/2 <= REGION_TOL is inside
        assert in_region(eps_sq, 2.0)
        assert in_region(eps_sq, math.nextafter(2.0, 0.0))
        assert in_region(eps_sq, math.nextafter(2.0, 4.0))
        assert not in_region(eps_sq, 2.0 - 2.5 * REGION_TOL)
        assert not in_region(eps_sq, 2.0 + 2.5 * REGION_TOL)

    def test_smallest_positive_b(self):
        # b = |2 - eta_sq|/2 - REGION_TOL cannot be subnormal: |2 - eta_sq|/2
        # is a multiple of 2**-53, so the least b > 0 is 8.9e-17 (at
        # eta_sq = 2.000000000002), where erfc(sqrt(-ln b)) is 8.1e-18, not 0
        eta_sq = 2.0 + 2.0 * REGION_TOL
        while abs(2.0 - eta_sq) / 2.0 - REGION_TOL <= 0.0:
            eta_sq = math.nextafter(eta_sq, 4.0)
        b = abs(2.0 - eta_sq) / 2.0 - REGION_TOL
        assert 0.0 < b < 1e-15
        assert erfc(math.sqrt(-math.log(b))) > 0.0
        eps_sq = np.array([0.0, 5e-324, 1e-300, 4.0, 2.0, 1.0])
        got = in_region(eps_sq, np.full(6, eta_sq))
        assert got.tolist() == bound_flags(eps_sq, eta_sq).tolist()
        assert got.tolist() == [False, False, False, False, True, True]

    def test_eta_sq_two_is_inside_everywhere(self):
        # b = -REGION_TOL <= 0 needs no erfc
        eps_sq = np.concatenate([np.linspace(0.0, 4.0, 101), [5e-324, 4.0 - 4e-16]])
        assert np.all(in_region(eps_sq, np.full(eps_sq.shape, 2.0)))

    def test_scalar_in_bool_out(self):
        assert in_region(2.0, 0.0) is True
        assert in_region(0.0, 0.0) is False

    @pytest.mark.parametrize("eps_sq, eta_sq, name", [
        (-0.1, 2.0, "eps_sq"), (4.1, 2.0, "eps_sq"), (math.nan, 2.0, "eps_sq"),
        (2.0, -0.1, "eta_sq"), (2.0, math.inf, "eta_sq"),
        (-1.0, 5.0, "eta_sq"),  # both bad: eta_sq is checked first
    ])
    def test_names_the_bad_input(self, eps_sq, eta_sq, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 4\], got "):
            in_region(eps_sq, eta_sq)


# hbar, m, dt and Re lambda log-uniform in [e^-2, e^2]: a domain in which no
# intermediate leaves the normal float range (moments squares hbar on its own)
log_e2 = st.floats(-2.0, 2.0).map(math.exp)
# |2 - eta_sq|/2 against region_bound at the saturating probe, in units of
# 2**-52, the scale on which eta_sq = 2 - 2 exp(-damping) is rounded: 11.6
# measured over 100,000 random draws of the domain below
TIGHT_ULPS = 32


class TestRobertsonBound:
    """region_bound is Robertson's inequality (Phys. Rev. 34, 163, 1929).

    With A = Z + (dt/2) P/m and B = Z + (dt + tau) P/m, sigma_A sigma_B >=
    |<[A, B]>|/2 = (dt/2 + tau) hbar / (2m) gives damping_exponent >=
    erfc_arg**2, so |2 - eta_sq|/2 <= region_bound(eps_sq) at B0 = 0, with
    equality when Cov(A, B) = 0.
    """

    @settings(max_examples=300, deadline=None)
    @given(log_e2, log_e2, log_e2, log_e2, st.floats(-5.0, 5.0), st.floats(0.0, 3.0),
           st.floats(0.1, 5.0))
    def test_damping_exceeds_erfc_arg_squared(self, hbar, mass, dt, re, im, tau, mu_b1):
        p = SGParams(mu=1.0, B0=0.0, B1=mu_b1, mass=mass, hbar=hbar, dt=dt, tau=tau)
        probe = GaussianProbe(re, im)
        assert damping_exponent(p, probe) >= erfc_arg(p, probe) ** 2 * (1.0 - 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(log_e2, log_e2, log_e2, st.floats(0.0, 3.0), st.floats(-3.0, 2.0).map(lambda e: 10.0**e))
    @example(1.0, 1.0, 1.0, 0.0, 1.0)
    def test_saturating_probe_meets_the_bound(self, hbar, mass, dt, tau, mu_b1):
        # Cov(A, B) = 0 for lambda = (m/hbar) ((c - a) + i(c + a)) / (4ac),
        # a = dt/2, c = dt + tau; mu_b1 over five decades spans eps_sq over (0, 2)
        a, c = dt / 2.0, dt + tau
        lam = (mass / hbar) * complex(c - a, c + a) / (4.0 * a * c)
        p = SGParams(mu=1.0, B0=0.0, B1=mu_b1, mass=mass, hbar=hbar, dt=dt, tau=tau)
        probe = GaussianProbe(lam.real, lam.imag)
        eps_sq, eta_sq = error_sq(p, probe), disturbance_sq(p, probe)
        assert abs(abs(2.0 - eta_sq) / 2.0 - region_bound(eps_sq)) <= TIGHT_ULPS * 2.0**-52
        assert in_region(eps_sq, eta_sq)


class TestErfc:
    def test_matches_mpmath(self):
        x = np.linspace(0.0, 10.0, 10001)
        want = np.array([float(mpmath.erfc(v)) for v in x])
        np.testing.assert_allclose(erfc(x), want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("x", [0.7, np.float64(0.7), np.array(0.7), 0.0, 27.3, -1.5, math.nan])
    def test_single_value_is_a_float_with_the_array_bits(self, x):
        # a 0-d input takes the elementwise route and comes back a Python float
        got = erfc(x)
        assert type(got) is float
        assert np.array_equal(np.float64(got).view(np.int64), erfc(np.array([x]))[0].view(np.int64))


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
