import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgedr.measurement import lw_sweep
from sgedr.sgmodel import SGParams, sweep_region
from sgedr.spin import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STATE_SY_PLUS,
    EDPoint,
    PauliObservable,
    QubitState,
    d_quantity,
    evaluate_edrs,
    expectation,
    hat_transform,
    robertson_check,
    std_dev,
)

SX = PauliObservable.x()
SY = PauliObservable.y()
SZ = PauliObservable.z()


def bloch(x, y, z):
    return QubitState.from_bloch(x, y, z)


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    # uniform over the Bloch ball
    vecs = rng.normal(size=(n, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.random(n) ** (1 / 3)
    return [bloch(*(r * v)) for r, v in zip(radii, vecs)]


# strictly inside the ball: on the unit sphere the Robertson slack can sink
# below float rounding, e.g. (0, 1e-8, 1) has norm 1 + 1e-16 after rounding
bloch_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0 - 1e-9)


# Bloch vectors at least 1e-6 inside the sphere.  Nearer to it, a rounding
# error e in the smallest eigenvalue moves the square root by sqrt(e) (up to
# 1e-8), so no two constructions of the root need agree to 1e-12 there;
# exactly pure states (det rho = 0) are added as explicit examples.
directions = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda d: np.linalg.norm(d) >= 1e-3
)


def scaled(d, r):
    return tuple(r * c / np.linalg.norm(d) for c in d)


inner_ball_vectors = st.builds(scaled, directions, st.floats(0, 1 - 1e-6))
unit_vectors = st.builds(scaled, directions, st.just(1.0))


class TestQubitState:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QubitState(np.array([[1, 1], [0, 0]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QubitState(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            bloch(1.01, 0, 0)

    def test_negative_eigenvalue_is_reported_exactly(self):
        r = 1.0 + 1e-6
        rho = 0.5 * (IDENTITY_2 + r * (0.6 * SIGMA_X - 0.8 * SIGMA_Z))
        with pytest.raises(ValueError, match="negative eigenvalue") as exc:
            QubitState(rho)
        assert f"{np.linalg.eigvalsh(rho)[0]:.3e}" in str(exc.value)

    def test_rejects_non_finite(self):
        rho = np.array([[np.nan, 0], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="density matrix must be finite"):
            QubitState(rho)

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ValueError, match="psi must have nonzero norm"):
            QubitState.from_vector([0, 0])

    def test_from_vector_rejects_non_finite(self):
        with pytest.raises(ValueError, match="psi must be finite"):
            QubitState.from_vector([np.nan, 1])

    @settings(max_examples=200, deadline=None)
    @given(unit_vectors)
    @example((0.3, -0.2, 0.5))
    def test_sqrt_squares_back(self, v):
        st_ = bloch(*v)
        root = st_.sqrt()
        assert np.allclose(root @ root, st_.rho, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(inner_ball_vectors)
    @example((0.1, 0.7, -0.3))
    @example((0.0, 0.0, 0.0))
    @example((0.0, 0.0, 1.0))
    @example((-1.0, 0.0, 0.0))
    @example((0.0, 1.0, 0.0))
    def test_sqrt_matches_numpy(self, v):
        st_ = bloch(*v)
        evals, vecs = np.linalg.eigh(st_.rho)
        expected = (vecs * np.sqrt(np.clip(evals, 0, None))) @ vecs.conj().T
        root = st_.sqrt()
        assert np.allclose(root, expected, rtol=0, atol=1e-12)
        assert np.allclose(root @ root, st_.rho, rtol=0, atol=1e-12)


class TestPauliObservable:
    def test_label_must_match_standard_matrix(self):
        with pytest.raises(ValueError, match="standard Pauli"):
            PauliObservable(SIGMA_X, "Z")

    def test_custom_hermitian_ok(self):
        obs = PauliObservable((SIGMA_X + SIGMA_Z) / np.sqrt(2))
        assert obs.label == "custom"


class TestExpectation:
    def test_sy_eigenstate_has_zero_sz_mean(self):
        assert expectation(STATE_SY_PLUS, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_computational_basis(self):
        assert expectation(QubitState.from_vector([1, 0]), SZ) == pytest.approx(1.0)

    def test_mixed_x_polarized(self):
        state = QubitState((IDENTITY_2 + 0.3 * SIGMA_X) / 2)
        assert expectation(state, SX) == pytest.approx(0.3, abs=1e-12)


class TestStdDev:
    def test_sy_eigenstate(self):
        assert std_dev(STATE_SY_PLUS, SZ) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_has_zero_spread(self):
        assert std_dev(QubitState.from_vector([1, 0]), SZ) == pytest.approx(0.0, abs=1e-9)

    def test_partially_polarized(self):
        state = QubitState((IDENTITY_2 + 0.6 * SIGMA_Z) / 2)
        assert std_dev(state, SZ) == pytest.approx(0.8, abs=1e-12)


def trace_norm_oracle(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


class TestDQuantity:
    def test_sy_eigenstate(self):
        assert d_quantity(STATE_SY_PLUS, SZ, SX) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert d_quantity(QubitState(IDENTITY_2 / 2), SZ, SX) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_pair_vanishes(self):
        assert d_quantity(bloch(0.2, 0.1, 0.4), SZ, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_matches_svd_oracle(self):
        for state in random_states(50, seed=3):
            root = state.sqrt()
            comm = SIGMA_Z @ SIGMA_X - SIGMA_X @ SIGMA_Z
            expected = 0.5 * trace_norm_oracle(root @ comm @ root)
            assert d_quantity(state, SZ, SX) == pytest.approx(expected, abs=1e-12)

    def test_dominates_half_mean_commutator(self):
        for state in random_states(200, seed=7):
            _, rhs, _ = robertson_check(state, SZ, SX)
            assert d_quantity(state, SZ, SX) >= rhs - 1e-12


class TestRobertson:
    def test_sy_eigenstate_equality(self):
        lhs, rhs, holds = robertson_check(STATE_SY_PLUS, SZ, SX)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)
        assert holds

    def test_sz_eigenstate(self):
        lhs, rhs, holds = robertson_check(QubitState.from_vector([1, 0]), SZ, SX)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert holds

    def test_y_polarized_mixture(self):
        state = QubitState((IDENTITY_2 + 0.5 * SIGMA_Y) / 2)
        lhs, rhs, holds = robertson_check(state, SZ, SX)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert holds

    def test_holds_for_many_random_states(self):
        # bulk sample; the theorem must never fail
        for state in random_states(10_000, seed=11):
            _, _, holds = robertson_check(state, SZ, SX)
            assert holds

    @given(bloch_vectors)
    @settings(max_examples=200, deadline=None)
    def test_holds_property(self, v):
        _, _, holds = robertson_check(bloch(*v), SZ, SX)
        assert holds


class TestHatTransform:
    def test_endpoints(self):
        assert hat_transform(0.0) == 0.0
        assert hat_transform(2.0) == pytest.approx(0.0, abs=1e-12)

    def test_maximum_at_sqrt2(self):
        assert hat_transform(np.sqrt(2)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hat_transform(2.1)
        with pytest.raises(ValueError):
            hat_transform(-0.1)

    def test_symmetry_about_sqrt2(self):
        for v in np.linspace(0, 2, 201):
            assert hat_transform(v) == pytest.approx(
                hat_transform(np.sqrt(4 - v * v)), abs=1e-12
            )

    def test_broadcasts(self):
        v = np.linspace(0, 2, 201)
        np.testing.assert_array_equal(hat_transform(v), [hat_transform(float(x)) for x in v])

    def test_names_first_bad_entry_of_array(self):
        with pytest.raises(ValueError, match=r"\[0, 2\], got 2.5"):
            hat_transform(np.array([0.5, 2.5, -1.0]))


class TestEDPoint:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EDPoint(-0.1, 1.0)
        with pytest.raises(ValueError):
            EDPoint(1.0, 4.1)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"shapes differ: \(3,\) and \(4,\)"):
            EDPoint(np.zeros(3), np.zeros(4))


class TestEvaluateEDRs:
    def test_center_of_tight_disk(self):
        rep = evaluate_edrs(EDPoint(2.0, 2.0), STATE_SY_PLUS, SZ, SX)
        assert rep.heisenberg_lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.heisenberg_rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.heisenberg_satisfied
        assert rep.tight_lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.tight_applicable and rep.tight_satisfied

    def test_1922_point_violates_heisenberg(self):
        rep = evaluate_edrs(EDPoint(0.338, 2.0), STATE_SY_PLUS, SZ, SX)
        assert rep.heisenberg_lhs == pytest.approx(np.sqrt(0.338 * 2.0), abs=1e-12)
        assert rep.heisenberg_lhs < rep.heisenberg_rhs
        assert not rep.heisenberg_satisfied

    def test_cnot_family_point_saturates_tight_disk(self):
        theta = np.pi / 8
        eps = 2 * abs(np.sin(theta))
        eta = np.sqrt(2) * abs(np.cos(theta) - np.sin(theta))
        rep = evaluate_edrs(EDPoint(eps**2, eta**2), STATE_SY_PLUS, SZ, SX)
        assert rep.tight_lhs == pytest.approx(4.0, abs=1e-12)
        assert rep.tight_satisfied

    def test_ozawa_lhs_dominates_heisenberg_lhs(self):
        rng = np.random.default_rng(5)
        for state in random_states(100, seed=13):
            point = EDPoint(4 * rng.random(), 4 * rng.random())
            rep = evaluate_edrs(point, state, SZ, SX)
            assert rep.ozawa_lhs >= rep.heisenberg_lhs - 1e-12

    def test_tight_not_applicable_without_zero_means(self):
        rep = evaluate_edrs(EDPoint(1.0, 1.0), QubitState.from_vector([1, 0]), SZ, SX)
        assert not rep.tight_applicable
        assert rep.tight_satisfied is None

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=50),
        bloch_vectors,
    )
    def test_array_call_matches_scalar_calls(self, points, v):
        # Python's float ** and numpy's square may round apart by an ulp
        state = bloch(*v)
        eps_sq, eta_sq = np.array(points).T
        rep = evaluate_edrs(EDPoint(eps_sq, eta_sq), state, SZ, SX)
        singles = [evaluate_edrs(EDPoint(*pt), state, SZ, SX) for pt in points]
        for name in ("heisenberg_lhs", "ozawa_lhs", "branciard_lhs", "tight_lhs"):
            want = [getattr(r, name) for r in singles]
            np.testing.assert_array_max_ulp(getattr(rep, name), np.array(want), maxulp=2)
        for name in ("heisenberg_satisfied", "ozawa_satisfied", "branciard_satisfied"):
            assert getattr(rep, name).tolist() == [getattr(r, name) for r in singles]


class TestEDRsHoldOnSweeps:
    """Ozawa's and Branciard's relations hold at every valid swept point."""

    @settings(max_examples=50, deadline=None)
    @given(bloch_vectors)
    def test_cnot_family(self, v):
        state = bloch(*v)
        eps_sq, eta_sq = lw_sweep(101, state).T
        rep = evaluate_edrs(EDPoint(eps_sq, eta_sq), state, SZ, SX)
        assert rep.ozawa_satisfied.all() and rep.branciard_satisfied.all()

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(0.1, 10.0),
        st.tuples(st.floats(0.05, 8.0), st.floats(0.05, 8.0)),
        st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
        bloch_vectors,
    )
    def test_stern_gerlach_region(self, b1, lam_re, lam_im, b0, tau, v):
        base = SGParams(mu=1.0, B0=0.0, B1=b1, mass=1.0, hbar=1.0, dt=1.0)
        lambdas = np.add.outer(np.linspace(*lam_re, 6), 1j * np.linspace(*lam_im, 6)).ravel()
        eps_sq, eta_sq = sweep_region(
            base, lambdas, np.linspace(*b0, 6), np.linspace(*tau, 6)
        ).T
        state = bloch(*v)
        rep = evaluate_edrs(EDPoint(eps_sq, eta_sq), state, SZ, SX)
        assert rep.ozawa_satisfied.all() and rep.branciard_satisfied.all()
