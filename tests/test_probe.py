import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgedr.experiment import HBAR, ExperimentConfig1922, run_chain
from sgedr.probe import GaussianProbe, collimator_posterior, moments, sigma_t


def quadrature_moments(lam: complex, hbar: float):
    """Numerical-quadrature second moments of exp(-lam z^2)."""
    re = lam.real
    width = 8.0 / np.sqrt(2.0 * re)

    def dens(z):
        return mpmath.exp(-2.0 * re * z * z)

    norm = mpmath.quad(dens, [-width, width])
    var_z = float(mpmath.quad(lambda z: z * z * dens(z), [-width, width]) / norm)
    # psi' = -2 lam z psi, so <P^2> = hbar^2 * 4|lam|^2 <Z^2>
    var_p = hbar**2 * 4.0 * abs(lam) ** 2 * var_z
    # {Z,P}/2 correlation: <{Z,P}> = 2 Re <Z P> with <ZP> = 2i hbar lam <Z^2>
    anticom = 2.0 * np.real(2.0j * hbar * lam * var_z)
    return var_z, var_p, anticom


class TestMoments:
    def test_unit_real_lambda(self):
        var_z, var_p, anticom = moments(GaussianProbe(1.0), 1.0)
        qz, qp, qa = quadrature_moments(1.0 + 0j, 1.0)
        assert var_z == pytest.approx(0.25, abs=1e-12)
        assert var_p == pytest.approx(1.0, abs=1e-12)
        assert anticom == 0.0
        assert var_z == pytest.approx(qz, rel=1e-8)
        assert var_p == pytest.approx(qp, rel=1e-8)
        assert qa == pytest.approx(0.0, abs=1e-12)

    def test_real_lambda_has_no_correlation(self):
        for lam in (0.2, 1.7, 42.0):
            assert moments(GaussianProbe(lam), 1.0)[2] == 0.0

    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            re = 10.0 ** rng.uniform(-1, 1)
            im = re * rng.uniform(-100, 100)
            hbar = 10.0 ** rng.uniform(-1, 1)
            var_z, var_p, anticom = moments(GaussianProbe(re, im), hbar)
            qz, qp, qa = quadrature_moments(complex(re, im), hbar)
            assert var_z == pytest.approx(qz, rel=1e-8)
            assert var_p == pytest.approx(qp, rel=1e-8)
            assert anticom == pytest.approx(qa, rel=1e-8, abs=1e-12)

    @given(
        st.floats(1e-3, 1e3),
        st.floats(-100.0, 100.0),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_minimum_uncertainty_product(self, re, ratio, hbar):
        # |Im/Re| bounded: the identity cancels (Re^2 + Im^2) - Im^2, so
        # float rounding grows as the square of the aspect ratio
        var_z, var_p, anticom = moments(GaussianProbe(re, re * ratio), hbar)
        product = var_z * var_p - 0.25 * anticom * anticom
        assert product == pytest.approx(hbar * hbar / 4.0, rel=1e-10)

    def test_rejects_nonpositive_re(self):
        with pytest.raises(ValueError):
            GaussianProbe(0.0)
        with pytest.raises(ValueError):
            GaussianProbe(-1.0)

    @pytest.mark.parametrize("field", ["lambda_re", "lambda_im"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        fields = {"lambda_re": 1.0, "lambda_im": 0.5, field: bad}
        with pytest.raises(ValueError, match=field):
            GaussianProbe(**fields)

    def test_rejects_non_finite_array_element(self):
        with pytest.raises(ValueError, match="lambda_im"):
            GaussianProbe(np.array([1.0, 2.0]), np.array([0.0, np.nan]))

    def test_var_z_is_the_hbar_free_moment(self):
        probe = GaussianProbe(np.array([0.5, 2.0]), np.array([0.0, 3.0]))
        for hbar in (1e-34, 1.0, 7.0):
            assert np.array_equal(probe.var_z, moments(probe, hbar)[0])
        with pytest.raises(ValueError, match="^var_z is not finite"):
            GaussianProbe(1e-310).var_z


class TestSigmaT:
    def test_zero_time_gives_position_spread(self):
        probe = GaussianProbe(2.0, 1.5)
        var_z, _, _ = moments(probe, 1.0)
        assert sigma_t(probe, 0.0, 1.0, 1.0) == pytest.approx(np.sqrt(var_z), abs=1e-15)

    def test_real_lambda_quadratic_growth(self):
        probe = GaussianProbe(1.0)
        var_z, var_p, _ = moments(probe, 1.0)
        for t in (0.5, 1.0, 3.0):
            assert sigma_t(probe, t, 1.0, 2.0) == pytest.approx(
                np.sqrt(var_z + (t / 2.0) ** 2 * var_p), rel=1e-12
            )

    def test_spread_sq_convex_in_time(self):
        probe = GaussianProbe(1.0, 5.0)
        ts = np.linspace(-3, 3, 61)
        vals = np.array([sigma_t(probe, t, 1.0, 1.0) ** 2 for t in ts])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second > 0)

    @given(
        st.floats(0.01, 100.0),
        st.floats(-100.0, 100.0),
        st.floats(1e-3, 10.0),
        st.floats(1e-3, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_uncertainty_tradeoff(self, re, im, dt, tau):
        # spread in the magnet times spread at the screen bounds the lever arm
        probe = GaussianProbe(re, im)
        lhs = sigma_t(probe, dt / 2.0, 1.0, 1.0) * sigma_t(probe, dt + tau, 1.0, 1.0)
        rhs = 0.5 * (dt / 2.0 + tau)
        assert lhs >= rhs * (1.0 - 1e-9)


class TestCollimator:
    # the 1922 silver-beam resolutions at K = 1: D_p = 1.25 delta_p, D_z = 1.25 delta_z
    D_P, D_Z = 2.35e-25, 2.50e-5

    def test_half_widths(self):
        report = run_chain(ExperimentConfig1922())
        assert 1.25 * report.delta_z == pytest.approx(2.50e-5, rel=1e-3)
        assert 1.25 * report.delta_p == pytest.approx(2.35e-25, rel=5e-3)

    def test_posterior_variance(self):
        report = run_chain(ExperimentConfig1922(K_steps=3))
        for K, var_z in zip(report.rows.K, report.rows.var_z):
            assert var_z * K * K == pytest.approx(5.03e-20, rel=5e-3)

    def test_momentum_term_dominates_for_wide_slit(self):
        probe = collimator_posterior(self.D_P, 0.625, HBAR)  # a 1 m slit
        # position-resolution term 1/(4 D_z^2) is negligible
        assert probe.lambda_re == pytest.approx(self.D_P**2 / HBAR**2, rel=1e-6)

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError, match="^K_min must lie in"):
            ExperimentConfig1922(K_min=0.5)
        with pytest.raises(ValueError, match="^K_max must lie in"):
            ExperimentConfig1922(K_max=1.1)
        with pytest.raises(ValueError, match="^K_max must lie in"):
            ExperimentConfig1922(K_min=0.7, K_max=0.5)

    # D_z^2 and hbar^2 underflow to 0, so lambda overflows
    @pytest.mark.parametrize("D_p, D_z, hbar", [(1.0, 1e-200, 1.0), (1.0, 1.0, 1e-200)])
    def test_lambda_past_the_float_range_is_named(self, D_p, D_z, hbar):
        with pytest.raises(ValueError, match="^lambda is not finite"):
            collimator_posterior(D_p, D_z, hbar)

    def test_momentum_term_underflows_for_huge_hbar(self):
        # hbar^2 overflows and D_p^2 / hbar^2 underflows: the exact lambda is 1/4
        assert collimator_posterior(1.0, 1.0, 1e200).lambda_re == 0.25

    def test_posterior_is_real_lambda(self):
        probe = collimator_posterior(self.D_P, self.D_Z, HBAR)
        assert probe.lambda_im == 0.0
        assert moments(probe, HBAR)[2] == 0.0
