import ast
import inspect
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sgedr.measurement import lw_sweep
from sgedr import spin
from sgedr.sgmodel import SGParams, sweep_region
from sgedr.spin import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    STATE_SY_PLUS,
    PauliObservable,
    QubitState,
    _mul,
    d_quantity,
    evaluate_edrs,
    expectation,
    hat_transform,
    std_dev,
)

from helpers import robertson_check

SX = PauliObservable.x()
SY = PauliObservable(SIGMA_Y)
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


directions = st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
    lambda d: np.linalg.norm(d) >= 1e-3
)


def scaled(d, r):
    return tuple(r * c / np.linalg.norm(d) for c in d)


# the whole ball, with extra weight within 1e-15 of the sphere, where det rho
# is below 1e-15 and rounding can leave it a few ulp negative
ball_vectors = st.builds(
    scaled, directions, st.one_of(st.floats(0, 1), st.floats(1 - 1e-15, 1))
)
# the +-1-valued observables are exactly the unit-Bloch n . sigma
pm1_observables = st.builds(
    lambda n: PauliObservable(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z),
    st.builds(scaled, directions, st.just(1.0)),
)


# |entries| up to 1e150, so that no product leaves the float range
finite_2x2 = arrays(
    complex, (2, 2),
    elements=st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
)


class TestProduct:
    @given(finite_2x2, finite_2x2)
    @settings(max_examples=500, deadline=None)
    def test_matches_matmul(self, a, b):
        # each entry is two complex products and three real sums, each
        # rounded once: within 8 eps of the sum of the products' magnitudes,
        # plus a few subnormals for products that underflow
        bound = 8 * np.finfo(float).eps * (np.abs(a) @ np.abs(b)) + 1e-320
        assert np.all(np.abs(_mul(a, b) - np.matmul(a, b)) <= bound)

    def test_exact_on_the_cli_inputs(self):
        # the Paulis, sigma_y+ and the products that evaluate_edrs forms from
        # them have entries 0, +-1/2, +-1, +-2 and +-4 (times 1 or i): every
        # product is exact, so it equals BLAS's bit for bit.  Only the sign
        # of a zero can differ, and + 0 clears it
        comm = _mul(SIGMA_Z, SIGMA_X) - _mul(SIGMA_X, SIGMA_Z)
        rho = STATE_SY_PLUS.rho
        inputs = [IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, rho, comm, comm.conj().T]
        inputs += [_mul(comm.conj().T, rho), _mul(_mul(comm.conj().T, rho), comm)]
        for a, b in itertools.product(inputs, repeat=2):
            assert (_mul(a, b) + 0).tobytes() == (a @ b + 0).tobytes()

    def test_spin_sends_no_product_to_blas(self):
        tree = ast.parse(inspect.getsource(spin))
        matmuls = [n for n in ast.walk(tree) if isinstance(n, ast.MatMult)]
        calls = [
            n for n in ast.walk(tree) if isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None))
            in {"dot", "vdot", "inner", "matmul"}
        ]
        assert matmuls == [] and calls == []


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

    def test_sy_plus_is_exact(self):
        assert np.array_equal(STATE_SY_PLUS.rho, [[0.5, -0.5j], [0.5j, 0.5]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^density matrix must be 2x2, got \(3, 3\)$"):
            QubitState(np.eye(3) / 3)

    def test_real_list_is_stored_read_only_complex(self):
        rho = QubitState([[0.5, 0.0], [0.0, 0.5]]).rho
        assert rho.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            rho[0, 0] = 1.0


class TestPauliObservable:
    def test_custom_hermitian_ok(self):
        PauliObservable((SIGMA_X + SIGMA_Z) / np.sqrt(2))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^observable must be 2x2$"):
            PauliObservable(np.eye(3))

    def test_real_list_is_stored_read_only_complex(self):
        m = PauliObservable([[1.0, 0.0], [0.0, -1.0]]).matrix
        assert m.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match=r"^observable is not Hermitian within 1e-12$"):
            PauliObservable([[0, 1], [2, 0]])

    # inf - inf in the Hermiticity residue warned, and a nan read as "not
    # Hermitian"
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.inf)])
    @pytest.mark.parametrize("index", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, index, bad):
        m = np.array(SIGMA_Z)
        m[index] = bad
        with pytest.raises(ValueError, match=r"^observable must be finite$"):
            PauliObservable(m)


class TestExpectation:
    def test_sy_eigenstate_has_zero_sz_mean(self):
        assert expectation(STATE_SY_PLUS, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_computational_basis(self):
        assert expectation(bloch(0, 0, 1), SZ) == pytest.approx(1.0)

    def test_mixed_x_polarized(self):
        state = QubitState((IDENTITY_2 + 0.3 * SIGMA_X) / 2)
        assert expectation(state, SX) == pytest.approx(0.3, abs=1e-12)

    def test_rejects_imaginary_residue(self):
        # each input is Hermitian within 1e-12, but the residue 8e-13 exceeds
        # 1e-12 times the trace's terms, |rho_01| + |rho_10| = 0.5
        state = QubitState([[0.5, 0.25 + 8e-13j], [0.25, 0.5]])
        with pytest.raises(ValueError, match=r"^expectation has imaginary residue 8\.000e-13$"):
            expectation(state, SX)

    def test_residue_is_judged_in_the_observable_units(self):
        # the state's 1e-13 residue meets entries of 1e20: a residue of 1e7
        # against terms of 5e19, which an absolute 1e-12 rejected
        state = QubitState([[0.5, 0.25 + 1e-13j], [0.25, 0.5]])
        assert expectation(state, PauliObservable([[0, 1e20], [1e20, 0]])) == 5e19

    # a power of two scales every term and the residue exactly, so the
    # verdict cannot flip on rounding at the tolerance's edge; entries of A
    # are 0 or at least 1e-3 in size, so no scaled term falls to a
    # subnormal, where the scaling is not exact
    @settings(max_examples=200, deadline=None)
    @given(
        # |z| <= 0.8 keeps rho positive beside rho_01 = 0.25
        st.floats(-0.8, 0.8),
        st.floats(0.0, 1e-12),
        arrays(
            np.float64,
            4,
            elements=st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
        ),
        st.integers(-60, 60),
    )
    @example(0.0, 8e-13, np.array([0.0, 1.0, 0.0, 0.0]), 60)
    @example(0.0, 1e-13, np.array([0.0, 1.0, 0.0, 0.0]), 60)
    def test_verdict_does_not_depend_on_units(self, z, residue, entries, k):
        state = QubitState([[0.5 * (1 + z), 0.25 + residue * 1j], [0.25, 0.5 * (1 - z)]])
        a, d, re, im = entries
        matrix = np.array([[a, re + 1j * im], [re - 1j * im, d]])

        def verdict(obs):
            try:
                expectation(state, obs)
            except ValueError:
                return False
            return True

        assert verdict(PauliObservable(matrix)) == verdict(PauliObservable(matrix * 2.0**k))


class TestStdDev:
    def test_sy_eigenstate(self):
        assert std_dev(STATE_SY_PLUS, SZ) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_has_zero_spread(self):
        assert std_dev(bloch(0, 0, 1), SZ) == pytest.approx(0.0, abs=1e-9)

    def test_partially_polarized(self):
        state = QubitState((IDENTITY_2 + 0.6 * SIGMA_Z) / 2)
        assert std_dev(state, SZ) == pytest.approx(0.8, abs=1e-12)

    def test_hermitian_observable_with_large_coherence(self):
        # Im(m01 m10) of |m01|^2 can round to 1e-11 where the product is
        # fused: taken as an observable, obs^2 failed the Hermiticity check
        m01 = complex(-291.86150664288874, -671.1573936724052)
        m = np.array([[-0.22774079398692693, m01], [m01.conjugate(), -0.33799644696948244]])
        rho = STATE_SY_PLUS.rho
        want = np.sqrt(np.trace(rho @ m @ m).real - np.trace(rho @ m).real ** 2)
        assert std_dev(STATE_SY_PLUS, PauliObservable(m)) == pytest.approx(want, rel=1e-12)

    # c I has no spread, but <A^2> - <A>^2 rounds by about c^2 ulp, either
    # way: read as corrupted input, it raised from c of about 60 upward
    @settings(max_examples=200, deadline=None)
    @given(ball_vectors, st.floats(0.0, 12.0).map(lambda e: 10.0**e))
    @example((0.0, 0.0, 0.4), 1e12)
    def test_multiple_of_identity_has_no_spread(self, v, c):
        spread = std_dev(bloch(*v), PauliObservable(c * IDENTITY_2))
        assert 0.0 <= spread <= 1e-6 * c


# 0 or a size in [2^-10, 8]: times 2^k, |k| <= 1000, every entry stays a
# normal float
parts = st.one_of(st.just(0.0), st.floats(2.0**-10, 8.0), st.floats(-8.0, -(2.0**-10)))
hermitian_observables = st.builds(
    lambda a, d, re, im: np.array([[a, complex(re, im)], [complex(re, -im), d]]),
    parts, parts, parts, parts,
)


class TestPowerOfTwoScaling:
    # std_dev and d_quantity are homogeneous in each observable, and a power
    # of two scales every float operation exactly: both must keep that,
    # where unscaled products of 2^600 entries overflow and of 2^-600 ones
    # underflow to 0
    @settings(max_examples=200, deadline=None)
    @given(ball_vectors, hermitian_observables, st.integers(-1000, 1000))
    @example((0.0, 1.0, 0.0), SIGMA_Z, 600)
    @example((0.0, 1.0, 0.0), SIGMA_Z, -600)
    def test_std_dev(self, v, m, k):
        state = bloch(*v)
        got = std_dev(state, PauliObservable(2.0**k * m))
        assert got == 2.0**k * std_dev(state, PauliObservable(m))

    @settings(max_examples=200, deadline=None)
    @given(
        ball_vectors, hermitian_observables, hermitian_observables,
        st.integers(-500, 500), st.integers(-500, 500),
    )
    @example((0.0, 1.0, 0.0), SIGMA_Z, SIGMA_X, 400, 400)
    @example((0.0, 1.0, 0.0), SIGMA_Z, SIGMA_X, -400, -400)
    def test_d_quantity(self, v, a, b, j, k):
        state = bloch(*v)
        got = d_quantity(state, PauliObservable(2.0**j * a), PauliObservable(2.0**k * b))
        assert got == 2.0**j * (2.0**k * d_quantity(state, PauliObservable(a), PauliObservable(b)))

    @pytest.mark.parametrize("c", [1e155, 1e-170])
    def test_std_dev_near_the_float_range_ends(self, c):
        got = std_dev(STATE_SY_PLUS, PauliObservable(c * SIGMA_Z))
        assert got == pytest.approx(c, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c", [1e100, 1e-100])
    def test_d_quantity_near_the_float_range_ends(self, c):
        d = d_quantity(STATE_SY_PLUS, PauliObservable(c * SIGMA_Z), PauliObservable(c * SIGMA_X))
        assert d == pytest.approx(c * c, rel=1e-15, abs=0.0)

    # the true value lies past the float range, where scaling back by the
    # power of two raised math.ldexp's OverflowError, which names no input
    def test_std_dev_past_the_float_range_is_named(self):
        obs = PauliObservable([[1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        with pytest.raises(ValueError, match=r"^std_dev is not finite: the inputs leave"):
            std_dev(QubitState(IDENTITY_2 / 2), obs)

    def test_d_quantity_past_the_float_range_is_named(self):
        a, b = PauliObservable(1e200 * SIGMA_Z), PauliObservable(1e200 * SIGMA_X)
        with pytest.raises(ValueError, match=r"^d_quantity is not finite: the inputs leave"):
            d_quantity(STATE_SY_PLUS, a, b)


def d_quantity_oracle(rho, comm):
    """(1/2) Tr|sqrt(rho) C sqrt(rho)| at 200 bits: sqrt(rho) from the
    eigendecomposition, negative eigenvalues clipped to 0, and the trace norm
    as the sum of the singular values, the roots of the eigenvalues of
    M^dag M.  mpmath's svd_c fails to converge on some M of the maximally
    mixed state, whose eigenvectors leave off-diagonal residues of 1e-60."""
    with mpmath.workprec(200):
        evals, vecs = mpmath.eighe(mpmath.matrix(rho.tolist()))
        root = vecs * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in evals]) * vecs.H
        m = root * mpmath.matrix(comm.tolist()) * root
        singular = [mpmath.sqrt(max(e, 0)) for e in mpmath.eighe(m.H * m)[0]]
        return float(mpmath.fsum(singular) / 2)


class TestDQuantity:
    def test_sy_eigenstate(self):
        assert d_quantity(STATE_SY_PLUS, SZ, SX) == 1.0

    def test_maximally_mixed(self):
        assert d_quantity(QubitState(IDENTITY_2 / 2), SZ, SX) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_pair_vanishes(self):
        assert d_quantity(bloch(0.2, 0.1, 0.4), SZ, SZ) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ball_vectors, pm1_observables, pm1_observables)
    @example((0.0, 0.0, 1.0), SZ, SX)
    @example((0.0, 1.0, 0.0), SZ, SX)
    @example((0.6, 0.0, -0.8), SX, SY)
    @example((0.0, 0.0, 0.0), SZ, SX)
    @example(scaled((1.0, 0.0, 1.0), 1.0), SZ, SX)
    def test_matches_svd_oracle(self, v, a, b):
        state = bloch(*v)
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        got, want = d_quantity(state, a, b), d_quantity_oracle(state.rho, comm)
        # D is the root of a sum that rounding moves by a few 1e-16.  Where
        # the sum is near 0 (a pure state with Bloch vector orthogonal to
        # n_a x n_b, the last example) the root makes that about 1e-8 for any
        # float64 route, so D itself is held to 1e-12 only away from 0
        assert abs(got**2 - want**2) <= 1e-14
        assert abs(got - want) <= 1e-12 or want < 1e-2

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
        lhs, rhs, holds = robertson_check(bloch(0, 0, 1), SZ, SX)
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


class TestEvaluateEDRs:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"^eps_sq must lie in \[0, 4\], got -0.1$"):
            evaluate_edrs(-0.1, 1.0, STATE_SY_PLUS, SZ, SX)
        with pytest.raises(ValueError, match=r"^eta_sq must lie in \[0, 4\], got 4.1$"):
            evaluate_edrs(1.0, 4.1, STATE_SY_PLUS, SZ, SX)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match=r"shapes differ: \(3,\) and \(4,\)"):
            evaluate_edrs(np.zeros(3), np.zeros(4), STATE_SY_PLUS, SZ, SX)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(*[st.integers(1, 4)] * 3).flatmap(lambda s: st.tuples(
        arrays(np.float64, (s[0], 1, s[2]), elements=st.floats(0, 4)),
        arrays(np.float64, (s[0], s[1], 1), elements=st.floats(0, 4)),
    )))
    def test_broadcast_inputs_match_their_broadcast_arrays(self, pair):
        # region passes eps^2 over (lambda, 1, tau) and eta^2 over (lambda, B0, 1)
        eps_sq, eta_sq = pair
        rep = evaluate_edrs(eps_sq, eta_sq, STATE_SY_PLUS, SZ, SX)
        full = evaluate_edrs(*np.broadcast_arrays(eps_sq, eta_sq), STATE_SY_PLUS, SZ, SX)
        for name, got, want in zip(rep._fields, rep, full):
            got, want = ((a.dtype, a.shape, a.tobytes()) for a in map(np.asarray, (got, want)))
            assert got == want, name

    @pytest.mark.parametrize("a, b, name", [
        (PauliObservable(2 * SIGMA_Z), SX, "a"),
        (PauliObservable((IDENTITY_2 + SIGMA_Z) / 2), SX, "a"),
        (SZ, PauliObservable((IDENTITY_2 + SIGMA_Z) / 2), "b"),
        (PauliObservable(1e200 * SIGMA_Z), SX, "a"),
        (SZ, PauliObservable(-1e200 * SIGMA_X), "b"),
    ])
    def test_rejects_observable_not_pm1_valued(self, a, b, name):
        # the [0, 4] ranges, hat_transform and the tight disk all assume
        # +-1-valued observables; 2 sigma_z used to report a Branciard
        # violation, and the square of 1e200 sigma_z warned of its overflow
        # before the ValueError
        with pytest.raises(ValueError, match=rf"^{name} is not \+-1-valued"):
            evaluate_edrs(0.5, 0.5, STATE_SY_PLUS, a, b)

    def test_center_of_tight_disk(self):
        rep = evaluate_edrs(2.0, 2.0, STATE_SY_PLUS, SZ, SX)
        assert rep.heisenberg_lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.heisenberg_rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.heisenberg_satisfied
        assert rep.tight_lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.tight_applicable and rep.tight_satisfied

    def test_1922_point_violates_heisenberg(self):
        rep = evaluate_edrs(0.338, 2.0, STATE_SY_PLUS, SZ, SX)
        assert rep.heisenberg_lhs == pytest.approx(np.sqrt(0.338 * 2.0), abs=1e-12)
        assert rep.heisenberg_lhs < rep.heisenberg_rhs
        assert not rep.heisenberg_satisfied

    def test_cnot_family_point_saturates_tight_disk(self):
        theta = np.pi / 8
        eps = 2 * abs(np.sin(theta))
        eta = np.sqrt(2) * abs(np.cos(theta) - np.sin(theta))
        rep = evaluate_edrs(eps**2, eta**2, STATE_SY_PLUS, SZ, SX)
        assert rep.tight_lhs == pytest.approx(4.0, abs=1e-12)
        assert rep.tight_satisfied

    def test_ozawa_lhs_dominates_heisenberg_lhs(self):
        rng = np.random.default_rng(5)
        for state in random_states(100, seed=13):
            rep = evaluate_edrs(4 * rng.random(), 4 * rng.random(), state, SZ, SX)
            assert rep.ozawa_lhs >= rep.heisenberg_lhs - 1e-12

    def test_tight_not_applicable_without_zero_means(self):
        rep = evaluate_edrs(1.0, 1.0, bloch(0, 0, 1), SZ, SX)
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
        rep = evaluate_edrs(eps_sq, eta_sq, state, SZ, SX)
        singles = [evaluate_edrs(*pt, state, SZ, SX) for pt in points]
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
        eps_sq, eta_sq = lw_sweep(101).T
        rep = evaluate_edrs(eps_sq, eta_sq, state, SZ, SX)
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
        rep = evaluate_edrs(eps_sq, eta_sq, state, SZ, SX)
        assert rep.ozawa_satisfied.all() and rep.branciard_satisfied.all()
