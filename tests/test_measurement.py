import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgedr.measurement
from sgedr._arrays import MAX_ROWS
from sgedr.measurement import (
    MeasuringProcess,
    lund_wiseman,
    lw_sweep,
    qrms_disturbance,
    qrms_error,
)
from sgedr.spin import SIGMA_Y, STATE_SY_PLUS, PauliObservable, QubitState

from helpers import dense_qrms_oracle, random_process

SX = PauliObservable.x()
SZ = PauliObservable.z()

bloch_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)
theta_arrays = st.lists(
    st.floats(-10, 10, allow_nan=False), min_size=1, max_size=40
).map(np.array)


def lw_error_closed(theta):
    return 2.0 * abs(np.sin(theta))


def lw_disturbance_closed(theta):
    return np.sqrt(2.0) * abs(np.cos(theta) - np.sin(theta))


class TestMeasuringProcess:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            MeasuringProcess(np.array([1, 0]), np.eye(4) * 2, np.eye(2))

    def test_rejects_unnormalized_probe(self):
        with pytest.raises(ValueError, match="normalized"):
            MeasuringProcess(np.array([1, 1]), np.eye(4), np.eye(2))

    def test_rejects_non_hermitian_meter(self):
        with pytest.raises(ValueError, match="meter"):
            MeasuringProcess(np.array([1, 0]), np.eye(4), np.array([[0, 1], [0, 0]]))

    def test_rejects_stack_with_one_unnormalized_row(self):
        probes = np.array([[1, 0], [0.6, 0.8], [1, 1e-5], [0, 1]])
        with pytest.raises(ValueError, match="normalized"):
            MeasuringProcess(probes, np.eye(4), np.eye(2))

    def test_rejects_empty_probe(self):
        # the probe dimension comes from the probe state, so it must be at least 1
        for xi in (np.zeros(0), np.zeros((3, 0))):
            with pytest.raises(ValueError, match="d >= 1"):
                MeasuringProcess(xi, np.eye(0), np.eye(0))

    def test_rejects_mismatched_shapes(self):
        xi = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unitary must be"):
            MeasuringProcess(xi, np.eye(4), np.eye(3))
        with pytest.raises(ValueError, match="meter must be"):
            MeasuringProcess(xi, np.eye(6), np.eye(2))

    def test_lw_params_reject_one_nan(self):
        with pytest.raises(ValueError, match="theta"):
            lund_wiseman(np.array([0.0, 0.5, np.nan, 1.0]))

    def test_rejects_nan_probe(self):
        with pytest.raises(ValueError, match=r"^probe_state must be finite$"):
            MeasuringProcess(np.array([np.nan, 0.0]), np.eye(4), SZ.matrix)

    def test_rejects_nan_unitary(self):
        u = np.eye(4)
        u[3, 2] = np.nan
        with pytest.raises(ValueError, match=r"^unitary must be finite$"):
            MeasuringProcess(np.array([1.0, 0.0]), u, SZ.matrix)

    # inf - inf in the norm, U^dag U or the Hermiticity residue warned, and
    # a nan meter read as "not Hermitian"
    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, np.inf)])
    @pytest.mark.parametrize("field", ["probe_state", "unitary", "meter"])
    def test_names_a_non_finite_field(self, field, bad):
        fields = {"probe_state": np.array([1.0, 0.0]), "unitary": np.eye(4), "meter": SZ.matrix}
        fields[field] = np.array(fields[field], dtype=complex)
        fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=rf"^{field} must be finite$"):
            MeasuringProcess(**fields)

    def test_real_lists_are_stored_read_only_complex(self):
        mp = MeasuringProcess([1.0, 0.0], np.eye(4).tolist(), [[1.0, 0.0], [0.0, -1.0]])
        for field in ("probe_state", "unitary", "meter"):
            arr = getattr(mp, field)
            assert isinstance(arr, np.ndarray) and arr.dtype == np.complex128, field
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0.0


class TestStackedProbes:
    @given(bloch_vectors, theta_arrays)
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_per_angle_calls(self, v, thetas):
        state = QubitState.from_bloch(*v)
        mp = lund_wiseman(thetas)
        per_angle = [lund_wiseman(t) for t in thetas]
        assert np.array_equal(
            qrms_error(mp, state, SZ), [qrms_error(m, state, SZ) for m in per_angle]
        )
        assert np.array_equal(
            qrms_disturbance(mp, state, SX),
            [qrms_disturbance(m, state, SX) for m in per_angle],
        )

    def test_single_probe_returns_float(self):
        mp = lund_wiseman(0.3)
        assert mp.probe_state.shape == (2,)
        assert type(qrms_error(mp, STATE_SY_PLUS, SZ)) is float
        assert type(qrms_disturbance(mp, STATE_SY_PLUS, SX)) is float


class TestQrmsError:
    def test_perfect_meter_at_theta_zero(self):
        mp = lund_wiseman(0.0)
        for state in (STATE_SY_PLUS, QubitState.from_bloch(0.3, -0.1, 0.2)):
            assert qrms_error(mp, state, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_worst_meter_at_theta_half_pi(self):
        mp = lund_wiseman(np.pi / 2)
        assert qrms_error(mp, STATE_SY_PLUS, SZ) == pytest.approx(2.0, abs=1e-12)

    def test_theta_pi_over_6(self):
        mp = lund_wiseman(np.pi / 6)
        got = qrms_error(mp, STATE_SY_PLUS, SZ)
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(
            dense_qrms_oracle(mp, STATE_SY_PLUS.rho, SZ.matrix, True), abs=1e-10
        )


class TestQrmsDisturbance:
    def test_no_disturbance_at_theta_quarter_pi(self):
        mp = lund_wiseman(np.pi / 4)
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(0.0, abs=1e-12)

    def test_theta_zero(self):
        mp = lund_wiseman(0.0)
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_identity_unitary_no_disturbance(self):
        mp = MeasuringProcess(np.array([1.0, 0]), np.eye(4), np.diag([1.0, -1.0]))
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(0.0, abs=1e-12)


class TestClosedFormAgreement:
    def test_state_independence(self):
        rng = np.random.default_rng(2)
        thetas = np.linspace(0, np.pi, 25)
        for theta in thetas:
            mp = lund_wiseman(theta)
            for _ in range(4):
                v = rng.normal(size=3)
                v *= rng.random() / np.linalg.norm(v)
                state = QubitState.from_bloch(*v)
                assert qrms_error(mp, state, SZ) == pytest.approx(
                    lw_error_closed(theta), abs=1e-12
                )
                assert qrms_disturbance(mp, state, SX) == pytest.approx(
                    lw_disturbance_closed(theta), abs=1e-12
                )

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(9)
        for theta in rng.uniform(0, np.pi / 2, 10):
            mp = lund_wiseman(theta)
            state = QubitState.from_bloch(0.2, 0.5, -0.1)
            assert qrms_error(mp, state, SZ) == pytest.approx(
                dense_qrms_oracle(mp, state.rho, SZ.matrix, True), abs=1e-10
            )
            assert qrms_disturbance(mp, state, SX) == pytest.approx(
                dense_qrms_oracle(mp, state.rho, SX.matrix, False), abs=1e-10
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 2**32 - 1), bloch_vectors)
    def test_random_processes_match_the_dense_oracle(self, d, n_probes, seed, v):
        # off d = 2 too, so a slip in which axis of Delta meets xi shows; the
        # squares of 4,000 such processes stayed within 2.7e-15 of the oracle's
        mp = random_process(np.random.default_rng(seed), d, n_probes)
        state = QubitState.from_bloch(*v)
        for obs in (SX, PauliObservable(SIGMA_Y), SZ):
            for got, error_side in (
                (qrms_error(mp, state, obs), True),
                (qrms_disturbance(mp, state, obs), False),
            ):
                want = dense_qrms_oracle(mp, state.rho, obs.matrix, error_side)
                assert np.shape(got) == (n_probes,)
                assert np.max(np.abs(got**2 - want**2)) <= 1e-13

    def test_error_vanishes_only_at_multiples_of_pi(self):
        for theta in np.linspace(0, np.pi, 41):
            eps = qrms_error(lund_wiseman(theta), STATE_SY_PLUS, SZ)
            if min(abs(theta), abs(theta - np.pi)) < 1e-9:
                assert eps < 1e-9
            else:
                assert eps > 1e-9

    def test_squared_error_linear_in_state_mixture(self):
        rng = np.random.default_rng(21)
        mp = lund_wiseman(0.7)
        for _ in range(20):
            p = rng.random()
            v1 = rng.normal(size=3)
            v1 *= rng.random() / np.linalg.norm(v1)
            v2 = rng.normal(size=3)
            v2 *= rng.random() / np.linalg.norm(v2)
            rho1 = QubitState.from_bloch(*v1)
            rho2 = QubitState.from_bloch(*v2)
            mix = QubitState(p * rho1.rho + (1 - p) * rho2.rho)
            e_mix_sq = qrms_error(mp, mix, SZ) ** 2
            e_avg_sq = (
                p * qrms_error(mp, rho1, SZ) ** 2
                + (1 - p) * qrms_error(mp, rho2, SZ) ** 2
            )
            assert e_mix_sq == pytest.approx(e_avg_sq, abs=1e-12)


class TestLwSweep:
    def test_endpoints(self):
        (eps0_sq, eta0_sq), (eps1_sq, eta1_sq) = lw_sweep(2)
        assert eps0_sq == pytest.approx(0.0, abs=1e-12)
        assert eta0_sq == pytest.approx(2.0, abs=1e-12)
        assert eps1_sq == pytest.approx(4.0, abs=1e-12)
        assert eta1_sq == pytest.approx(2.0, abs=1e-12)

    def test_midpoint(self):
        eps_sq, eta_sq = lw_sweep(3)[1]
        assert eps_sq == pytest.approx(2.0, abs=1e-12)
        assert eta_sq == pytest.approx(0.0, abs=1e-12)

    def test_all_points_on_tight_boundary(self):
        for eps_sq, eta_sq in lw_sweep(37):
            lhs = (eps_sq - 2.0) ** 2 + (eta_sq - 2.0) ** 2
            assert lhs == pytest.approx(4.0, abs=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match=r"^n must be an integer in \[2, "):
            lw_sweep(1)

    @pytest.mark.parametrize("n", [2.5, np.nan, MAX_ROWS + 1])
    def test_rejects_bad_n(self, n, monkeypatch):
        # the check runs before the angles are allocated: MAX_ROWS + 1
        # angles would take hundreds of megabytes through the stacked q-rms
        def no_alloc(*args, **kwargs):
            raise AssertionError("lw_sweep allocated before checking n")

        monkeypatch.setattr(np, "linspace", no_alloc)
        with pytest.raises(ValueError, match=r"^n must be an integer in \[2, "):
            lw_sweep(n)

    def test_one_qrms_call_each(self, monkeypatch):
        calls = {"error": 0, "disturbance": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(sgedr.measurement, "qrms_error", counted("error", qrms_error))
        monkeypatch.setattr(
            sgedr.measurement, "qrms_disturbance", counted("disturbance", qrms_disturbance)
        )
        assert lw_sweep(2001).shape == (2001, 2)
        assert calls == {"error": 1, "disturbance": 1}

    def test_memory_per_row(self):
        # v, 128 B a row, and one conjugated row of it, 64 B, are most of the
        # 25.4 MiB that 100,000 angles peak at; conjugating the whole of v
        # took it to 30.1 MiB
        lw_sweep(2)
        tracemalloc.start()
        try:
            lw_sweep(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20, f"{peak / 2**20:.2f} MiB"
