import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgedr.measurement
from sgedr.measurement import (
    LWParams,
    MeasuringProcess,
    lund_wiseman,
    lw_sweep,
    qrms_disturbance,
    qrms_error,
)
from sgedr.spin import STATE_SY_PLUS, PauliObservable, QubitState

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


def dense_qrms_oracle(mp, rho, obs, error_side):
    """Direct operator-squaring evaluation of the rms definitions."""
    d = mp.probe_dim
    xi = np.outer(mp.probe_state, mp.probe_state.conj())
    joint = np.kron(rho, xi)
    if error_side:
        evolved = mp.unitary.conj().T @ np.kron(np.eye(2), mp.meter) @ mp.unitary
        initial = np.kron(obs, np.eye(d))
    else:
        evolved = mp.unitary.conj().T @ np.kron(obs, np.eye(d)) @ mp.unitary
        initial = np.kron(obs, np.eye(d))
    diff = evolved - initial
    return float(np.sqrt(np.trace(diff @ diff @ joint).real))


class TestMeasuringProcess:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            MeasuringProcess(2, np.array([1, 0]), np.eye(4) * 2, np.eye(2))

    def test_rejects_unnormalized_probe(self):
        with pytest.raises(ValueError, match="normalized"):
            MeasuringProcess(2, np.array([1, 1]), np.eye(4), np.eye(2))

    def test_rejects_non_hermitian_meter(self):
        with pytest.raises(ValueError, match="meter"):
            MeasuringProcess(2, np.array([1, 0]), np.eye(4), np.array([[0, 1], [0, 0]]))

    def test_rejects_stack_with_one_unnormalized_row(self):
        probes = np.array([[1, 0], [0.6, 0.8], [1, 1e-5], [0, 1]])
        with pytest.raises(ValueError, match="normalized"):
            MeasuringProcess(2, probes, np.eye(4), np.eye(2))

    def test_lw_params_reject_one_nan(self):
        with pytest.raises(ValueError, match="theta"):
            LWParams(np.array([0.0, 0.5, np.nan, 1.0]))


class TestStackedProbes:
    @given(bloch_vectors, theta_arrays)
    @settings(max_examples=100, deadline=None)
    def test_stack_matches_per_angle_calls(self, v, thetas):
        state = QubitState.from_bloch(*v)
        mp = lund_wiseman(LWParams(thetas))
        per_angle = [lund_wiseman(LWParams(t)) for t in thetas]
        assert np.array_equal(
            qrms_error(mp, state, SZ), [qrms_error(m, state, SZ) for m in per_angle]
        )
        assert np.array_equal(
            qrms_disturbance(mp, state, SX),
            [qrms_disturbance(m, state, SX) for m in per_angle],
        )

    def test_single_probe_returns_float(self):
        mp = lund_wiseman(LWParams(0.3))
        assert mp.probe_state.shape == (2,)
        assert type(qrms_error(mp, STATE_SY_PLUS, SZ)) is float
        assert type(qrms_disturbance(mp, STATE_SY_PLUS, SX)) is float


class TestQrmsError:
    def test_perfect_meter_at_theta_zero(self):
        mp = lund_wiseman(LWParams(0.0))
        for state in (STATE_SY_PLUS, QubitState.from_bloch(0.3, -0.1, 0.2)):
            assert qrms_error(mp, state, SZ) == pytest.approx(0.0, abs=1e-12)

    def test_worst_meter_at_theta_half_pi(self):
        mp = lund_wiseman(LWParams(np.pi / 2))
        assert qrms_error(mp, STATE_SY_PLUS, SZ) == pytest.approx(2.0, abs=1e-12)

    def test_theta_pi_over_6(self):
        mp = lund_wiseman(LWParams(np.pi / 6))
        got = qrms_error(mp, STATE_SY_PLUS, SZ)
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(
            dense_qrms_oracle(mp, STATE_SY_PLUS.rho, SZ.matrix, True), abs=1e-10
        )


class TestQrmsDisturbance:
    def test_no_disturbance_at_theta_quarter_pi(self):
        mp = lund_wiseman(LWParams(np.pi / 4))
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(0.0, abs=1e-12)

    def test_theta_zero(self):
        mp = lund_wiseman(LWParams(0.0))
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(
            np.sqrt(2.0), abs=1e-12
        )

    def test_identity_unitary_no_disturbance(self):
        mp = MeasuringProcess(2, np.array([1.0, 0]), np.eye(4), np.diag([1.0, -1.0]))
        assert qrms_disturbance(mp, STATE_SY_PLUS, SX) == pytest.approx(0.0, abs=1e-12)


class TestClosedFormAgreement:
    def test_state_independence(self):
        rng = np.random.default_rng(2)
        thetas = np.linspace(0, np.pi, 25)
        for theta in thetas:
            mp = lund_wiseman(LWParams(theta))
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
            mp = lund_wiseman(LWParams(theta))
            state = QubitState.from_bloch(0.2, 0.5, -0.1)
            assert qrms_error(mp, state, SZ) == pytest.approx(
                dense_qrms_oracle(mp, state.rho, SZ.matrix, True), abs=1e-10
            )
            assert qrms_disturbance(mp, state, SX) == pytest.approx(
                dense_qrms_oracle(mp, state.rho, SX.matrix, False), abs=1e-10
            )

    def test_error_vanishes_only_at_multiples_of_pi(self):
        for theta in np.linspace(0, np.pi, 41):
            eps = qrms_error(lund_wiseman(LWParams(theta)), STATE_SY_PLUS, SZ)
            if min(abs(theta), abs(theta - np.pi)) < 1e-9:
                assert eps < 1e-9
            else:
                assert eps > 1e-9

    def test_squared_error_linear_in_state_mixture(self):
        rng = np.random.default_rng(21)
        mp = lund_wiseman(LWParams(0.7))
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
        with pytest.raises(ValueError):
            lw_sweep(1)

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
