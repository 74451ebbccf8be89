import math
import tracemalloc
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgedr import gridsim
from sgedr.gridsim import (
    HALF_MAX,
    Grid1D,
    SpinorField,
    measure_disturbance,
    measure_error,
    propagate,
)
from sgedr.measurement import MeasuringProcess, qrms_disturbance, qrms_error
from sgedr.probe import GaussianProbe, moments, sigma_t
from sgedr.sgmodel import SGParams, disturbance_sq, error_sq
from sgedr.spin import STATE_SY_PLUS, PauliObservable
from sgedr.validation import ETA_REL_FLOOR, default_cases, run_case, run_validation

from helpers import grid_error_sq, kinetic, mean_p_sq, mean_sigma_x, mean_z_sq, norm_sq


def unit_params(mu_b1=1.0, b0=0.0, tau=0.0, dt=1.0):
    return SGParams(mu=1.0, B0=b0, B1=mu_b1, mass=1.0, hbar=1.0, dt=dt, tau=tau)


def repeated_split(field, p, steps):
    """Reference for propagate: the magnet interval as `steps` symmetric
    splits, each branch propagated on its own, then the free flight.
    propagate takes one split; for the linear magnet field this repeats it
    exactly."""
    grid = field.grid
    h = p.dt / steps
    step, flight = kinetic(grid, p, h), kinetic(grid, p, p.tau)
    rows = []
    # the up branch (sigma_z = +1) sees the potential +mu (B0 + B1 z)
    for sign, branch in zip((1.0, -1.0), field.psi):
        half_kick = np.exp(-1j * sign * p.mu * (p.B0 + p.B1 * grid.z) * h / (2.0 * p.hbar))
        for _ in range(steps):
            branch = half_kick * np.fft.ifft(step * np.fft.fft(half_kick * branch))
        rows.append(np.fft.ifft(flight * np.fft.fft(branch)))
    return SpinorField(grid, np.stack(rows))


def plain_split(p, probe, n):
    """propagate's field from whole-row expressions: z, the start field, the
    kick, its conjugate and each full kinetic factor as temporaries of
    their own.  propagate forms them in place, in fewer rows, and must keep
    these bits."""
    grid = gridsim._grid(p, probe, n)
    z = -grid.half + grid.dz * np.arange(n)
    xi = np.exp(-probe.lam * z**2)
    xi /= np.sqrt(np.sum(np.abs(xi) ** 2) * grid.dz)
    xi *= 1.0 / np.sqrt(2.0)
    b0 = np.fmod(p.B0, 4.0 * np.pi * p.hbar / np.abs(p.mu * p.dt))
    kick = np.exp(-1j * (p.mu * (b0 + p.B1 * z) * p.dt / (2.0 * p.hbar)))

    def flight(row, t):
        return np.fft.ifft(np.fft.fft(row) * kinetic(grid, p, t))

    rows = []
    for row_kick in (kick, kick.conj()):
        row = flight(xi * row_kick, p.dt) * row_kick
        rows.append(flight(row, p.tau) if p.tau > 0.0 else row)
    return np.stack(rows)


def grid_sum_error_sq(p, probe, n):
    """The grid process's eps^2 on propagate's n-point grid, without the
    screen-edge term."""
    return grid_error_sq(propagate(p, probe, n))


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

    # measure_error and grid_error_sq read z = 0 at index n // 2, and
    # propagate's kinetic factor reaches the wavenumber pi / dz
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
        assert math.isfinite(np.pi / grid.dz)


class TestInitState:
    def test_normalized_equal_branches(self):
        probe = GaussianProbe(1.0)
        field = start_field(unit_params(), probe)
        assert norm_sq(field) == pytest.approx(1.0, abs=1e-12)
        up_norm = np.sum(np.abs(field.psi[0]) ** 2) * field.grid.dz
        assert up_norm == pytest.approx(0.5, abs=1e-12)

    def test_sampled_moments_match_closed_forms(self):
        for lam_im in (0.0, 0.5, -2.0):
            probe = GaussianProbe(1.0, lam_im)
            field = start_field(unit_params(), probe, 2048)
            var_z, var_p, _ = moments(probe, 1.0)
            assert mean_z_sq(field) == pytest.approx(var_z, rel=1e-6)
            assert mean_p_sq(field, 1.0) == pytest.approx(var_p, rel=1e-6)

    def test_mean_sigma_x(self):
        # the branch pair (xi, xi) / sqrt(2) is the sigma_x = +1 product state
        probe = GaussianProbe(1.0)
        assert mean_sigma_x(start_field(unit_params(), probe)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unresolvable_width(self):
        # at m = 2500 the packet spreads to 8 widths, so the n = 256 grid's
        # dz is 0.0025, fine enough for the wavenumber 800 but not the width
        p = replace(unit_params(mu_b1=0.0), mass=2500.0)
        with pytest.raises(ValueError, match=r"^probe width 0\.005 unresolvable: need >= 0\.0101$"):
            gridsim._grid(p, GaussianProbe(10000.0), 256)

    def test_width_is_checked_before_the_field_is_built(self, monkeypatch):
        def unreachable(grid, probe):
            raise AssertionError("_start_field called on an unresolvable grid")

        monkeypatch.setattr(gridsim, "_start_field", unreachable)
        p = replace(unit_params(mu_b1=0.0), mass=2500.0)
        with pytest.raises(ValueError, match=r"^probe width 0\.005 unresolvable"):
            propagate(p, GaussianProbe(10000.0), 256)


def start_field(p, probe, n=1024):
    """The start field propagate builds and evolves, for the reference."""
    return gridsim._start_field(gridsim._grid(p, probe, n), probe)


class TestEvolve:
    # each closed form is checked on propagate's one split and on the
    # reference's many

    def test_free_spreading_matches_sigma_t(self):
        # no fields: the packet spread follows the ballistic closed form
        probe = GaussianProbe(1.0, 0.8)
        for tau in (0.0, 1.5):
            p = unit_params(mu_b1=0.0, tau=tau)
            expected = sigma_t(probe, p.dt + tau, p.hbar, p.mass) ** 2
            reference = repeated_split(start_field(p, probe, 2048), p, 32)
            for field in (propagate(p, probe, 2048), reference):
                assert mean_z_sq(field) == pytest.approx(expected, rel=1e-8)

    def test_larmor_precession(self):
        # uniform field only: splitting is exact, <sigma_x> = cos(2 B0 dt)
        probe = GaussianProbe(1.0)
        p = unit_params(mu_b1=0.0, b0=0.4)
        for field in (propagate(p, probe), repeated_split(start_field(p, probe), p, 32)):
            assert mean_sigma_x(field) == pytest.approx(np.cos(0.8), abs=1e-8)

    def test_branch_deflection(self):
        # mu B1 > 0 pushes the up branch toward negative z by g0
        p = unit_params(mu_b1=1.0)
        probe = GaussianProbe(1.0)
        reference = repeated_split(start_field(p, probe, 2048), p, 256)
        for field in (propagate(p, probe, 2048), reference):
            assert branch_mean_z(field, field.psi[0]) == pytest.approx(-0.5, abs=1e-6)
            assert branch_mean_z(field, field.psi[1]) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_an_unresolvable_kick(self):
        # at hbar = 1e-3 the kick mu B1 dt / hbar = 1000 lies past the
        # n = 1024 grid's pi / dz = 357, where the field aliased to
        # eps^2 = 2.665 against the closed form's 0.6346
        probe = GaussianProbe(1.0)
        with pytest.raises(ValueError, match=r"^probe wavenumber 1\.01e\+03 unresolvable"):
            propagate(replace(unit_params(), hbar=1e-3), probe, 1024)
        p = replace(unit_params(), hbar=1e-2)
        eps_sq = measure_error(propagate(p, probe, 1024))
        assert eps_sq == pytest.approx(error_sq(p, probe), rel=1e-8)

    def test_norm_preserved(self):
        field = propagate(unit_params(mu_b1=3.0, b0=0.5, tau=1.0), GaussianProbe(1.0, 0.5))
        assert abs(norm_sq(field) - 1.0) <= 1e-10

    @pytest.mark.parametrize("index", range(8))
    def test_keeps_the_bits_of_whole_row_expressions(self, index):
        # the default cases, and each with hbar, m != 1 and mu B1 flipped
        p, probe = default_cases()[index]
        for q in (p, replace(p, hbar=0.7, mass=3.0, B1=-p.B1)):
            assert propagate(q, probe, 1024).psi.tobytes() == plain_split(q, probe, 1024).tobytes()

    def test_one_case_peak_bytes_per_grid_point(self):
        # the split runs in the start field's own (2, n) buffer: propagating
        # one case at n = 16384 and reading eps^2 and eta^2 from it peaks at
        # 56.1 bytes of traced numpy memory per grid point, the field (32)
        # and 24 more, never at a transform: a half kick (16) formed beside
        # z (8), or eta^2's difference row and its modulus.  Whole-row kicks
        # and factors took it to 80.1, a second field to 144.  pocketfft's
        # own buffers are allocated outside numpy's allocator, so
        # tracemalloc does not count them.  numpy imports np.fft on first
        # use, about 8 bytes a point more, so it is imported before tracing
        n = 16384
        p, probe = default_cases()[7]
        np.fft.fft(np.zeros(256, dtype=complex))
        tracemalloc.start()
        try:
            field = propagate(p, probe, n)
            measure_error(field), measure_disturbance(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n

    def test_each_transform_runs_beside_the_field_alone(self, monkeypatch):
        # at every FFT call of the 8 default cases at n = 16384, the traced
        # numpy memory is the (2, n) field (32 bytes a point) and no row
        # beside it: 32.6 at most.  A kick row kept across the magnet
        # flight and the half-row kinetic factor kept through the inverse
        # transforms read 56.6, the factor alone 40.6.  pocketfft's scratch
        # comes on top of what is alive here
        n, at_call = 16384, []

        def traced(fn):
            def wrapper(a, **kwargs):
                at_call.append(tracemalloc.get_traced_memory()[0])
                return fn(a, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", traced(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", traced(np.fft.ifft))
        tracemalloc.start()
        try:
            for p, probe in default_cases():
                propagate(p, probe, n)
        finally:
            tracemalloc.stop()
        assert len(at_call) == 48 and max(at_call) <= 34 * n

    def test_boundary_leak_detected(self, monkeypatch):
        # a flat start field of norm 1, which no free flight moves off the edges
        def flat(grid, probe):
            return SpinorField(grid, np.full((2, grid.n), 1.0 / np.sqrt(4.0 * grid.half), complex))

        monkeypatch.setattr(gridsim, "_start_field", flat)
        with pytest.raises(RuntimeError, match="leakage"):
            propagate(unit_params(mu_b1=0.0), GaussianProbe(1.0), 256)

    def test_norm_drift_detected(self, monkeypatch):
        # a start field of norm 1.001^2, which no unitary step brings back to 1
        start = gridsim._start_field

        def scaled(grid, probe):
            field = start(grid, probe)
            field.psi[:] *= 1.001
            return field

        monkeypatch.setattr(gridsim, "_start_field", scaled)
        with pytest.raises(RuntimeError, match=r"^norm drift 2\.001e-03$"):
            propagate(unit_params(), GaussianProbe(1.0))


class TestMeasure:
    def test_no_gradient_is_coin_flip(self):
        eps_sq = measure_error(propagate(unit_params(mu_b1=0.0), GaussianProbe(1.0)))
        assert eps_sq == pytest.approx(2.0, abs=1e-3)

    def test_strong_gradient_resolves_spin(self):
        eps_sq = measure_error(propagate(unit_params(mu_b1=12.0), GaussianProbe(1.0), 2048))
        assert eps_sq < 1e-3

    def test_no_fields_no_disturbance(self):
        eta_sq = measure_disturbance(propagate(unit_params(mu_b1=0.0, b0=0.0), GaussianProbe(1.0)))
        assert eta_sq == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("mu_b1", [1.0, 3.0])
    def test_error_even_in_mu_b1(self, mu_b1):
        # the meter follows the deflection: flipping mu B1 swaps the branches
        # and the meter's sides, and reads the same eps^2 bit for bit (the
        # anti-aligned meter read 4 - eps^2 for mu B1 < 0)
        probe = GaussianProbe(1.0)
        plus, minus = (propagate(unit_params(mu_b1=sign * mu_b1), probe) for sign in (1.0, -1.0))
        assert grid_error_sq(minus) == grid_error_sq(plus)
        assert measure_error(minus) == measure_error(plus)

    def test_disturbance_tau_invariant(self):
        # the free flight is common to both branches, so eta is read after it
        probe = GaussianProbe(1.0, 0.5)
        p_far = unit_params(mu_b1=1.0, b0=0.5, tau=0.7)
        p_near = unit_params(mu_b1=1.0, b0=0.5, tau=0.0)
        eta_sq_far = measure_disturbance(propagate(p_far, probe))
        eta_sq_near = measure_disturbance(propagate(p_near, probe))
        assert abs(eta_sq_far - eta_sq_near) <= 1e-9


def grid_process(p, probe, grid):
    """The Stern-Gerlach process on the grid as a MeasuringProcess: the
    block-diagonal unitary of the exact split step and the free flight, the
    sampled probe normalised in l2, and the sign meter oriented with the
    deflection: -1 at z >= 0 and +1 below for mu B1 >= 0, the mirror for
    mu B1 < 0.  Each block's columns are the propagated basis vectors, built
    by FFTs of the identity."""
    n = grid.n
    half_phase = p.mu * (p.B0 + p.B1 * grid.z) * p.dt / (2.0 * p.hbar)
    step, flight = kinetic(grid, p, p.dt)[:, None], kinetic(grid, p, p.tau)[:, None]
    u = np.zeros((2 * n, 2 * n), dtype=complex)
    # the up block (sigma_z = +1) sees the potential +mu (B0 + B1 z)
    for block, sign in ((slice(0, n), -1j), (slice(n, 2 * n), 1j)):
        kick = np.exp(sign * half_phase)[:, None]
        cols = kick * np.fft.ifft(step * np.fft.fft(np.diag(kick[:, 0]), axis=0), axis=0)
        u[block, block] = np.fft.ifft(flight * np.fft.fft(cols, axis=0), axis=0)
    xi = np.exp(-probe.lam * grid.z**2)
    meter = np.diag(np.where(grid.z >= 0.0, -1.0, 1.0) * (-1.0 if p.mu * p.B1 < 0.0 else 1.0))
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
        assert abs(eps**2 - grid_error_sq(field)) <= 1e-13
        assert abs(eta**2 - measure_disturbance(field)) <= 1e-13

    # inside the oracle's domain at n = 512: over this box the probe width
    # stays at least 1.16 times the 4 dz that _grid requires.  Each
    # example builds a 1024 x 1024 unitary, about 0.8 s.
    @settings(max_examples=5, deadline=timedelta(seconds=20))
    @given(
        st.floats(0.6, 1.2),
        st.floats(-0.5, 0.5),
        st.floats(-3.0, 3.0),
        st.floats(-1.0, 1.0),
        st.floats(0.0, 1.0),
    )
    # mu B1 < 0: the oracle's meter and the reference's take the mirror
    @example(1.0, 0.0, -3.0, 0.0, 0.0)
    def test_readouts_match_over_the_domain(self, lam_re, lam_im, mu_b1, b0, tau):
        p, probe = unit_params(mu_b1, b0, tau), GaussianProbe(lam_re, lam_im)
        field = propagate(p, probe, 512)
        mp = grid_process(p, probe, field.grid)
        eps = qrms_error(mp, STATE_SY_PLUS, PauliObservable.z())
        eta = qrms_disturbance(mp, STATE_SY_PLUS, PauliObservable.x())
        assert abs(eps**2 - grid_error_sq(field)) <= 1e-13
        assert abs(eta**2 - measure_disturbance(field)) <= 1e-13


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

    def test_zero_model_reads_exact_agreement_or_inf(self):
        # no field at all: eta^2 is 0.0 from the closed form and the grid
        # alike, which raised ZeroDivisionError instead of reading agreement
        res = run_case(unit_params(mu_b1=0.0, b0=0.0), GaussianProbe(1.0))
        assert (res.eta_sq_model, res.eta_sq_grid) == (0.0, 0.0)
        assert res.eta_rel == 0.0 and res.passed
        off = res._replace(eta_sq_grid=1e-300)
        assert off.eta_rel == math.inf and not off.passed
        off = res._replace(eps_sq_model=0.0)
        assert off.eps_rel == math.inf and not off.passed

    # the default cases all have hbar = m = dt = 1; these check that the grid
    # and the closed forms take the three constants from SGParams alike.
    # validate's eps^2 gate is measured on the default cases alone: the worst
    # case here (index 6, hbar = 0.5, m = 0.25) reads 1.71e-9 at n = 1024,
    # past its 1.57e-10; the others read 1.1e-13 to 5.7e-10 (index 6, dt = 2).
    # The unit-dt cases keep their ids
    @pytest.mark.parametrize("hbar, mass, dt", [
        pytest.param(2.0, 3.0, 1.0, id="2.0-3.0"), pytest.param(0.5, 0.25, 1.0, id="0.5-0.25"),
        pytest.param(3.0, 1.0, 1.0, id="3.0-1.0"),
        pytest.param(1.0, 1.0, 0.5, id="dt=0.5"), pytest.param(1.0, 1.0, 2.0, id="dt=2.0"),
    ])
    @pytest.mark.parametrize("index", [3, 5, 6])
    def test_closed_forms_at_non_unit_constants(self, hbar, mass, dt, index):
        p, probe = default_cases()[index]
        p = replace(p, hbar=hbar, mass=mass, dt=dt)
        field = propagate(p, probe)
        eps_sq, eta_sq = measure_error(field), measure_disturbance(field)
        assert eps_sq == pytest.approx(error_sq(p, probe), rel=2e-8)
        assert eta_sq == pytest.approx(disturbance_sq(p, probe), rel=ETA_REL_FLOOR)

    def test_one_step_matches_many(self):
        # one split is exact for the linear magnet field (see propagate), so
        # 64 splits read the same error and disturbance
        for p, probe in default_cases():
            one = propagate(p, probe)
            many = repeated_split(start_field(p, probe), p, 64)
            assert abs(measure_error(one) - measure_error(many)) <= 1e-10
            assert abs(measure_disturbance(one) - measure_disturbance(many)) <= 1e-10

    def test_fft_call_budget(self, monkeypatch):
        # one propagation per case, read for both the error and the
        # disturbance: one FFT pair per branch for the magnet and, when
        # tau > 0, one more for the free flight; 48 row transforms over the
        # validation set, whose cases split evenly between tau = 0 and > 0.
        # Each transform takes one branch row in place in the field's own
        # buffer: pocketfft's working memory, which tracemalloc cannot see,
        # grows with what one call transforms
        fields, rows, start = [], [], gridsim._start_field

        def recorded(grid, probe):
            fields.append(start(grid, probe))
            return fields[-1]

        def counted(fn):
            def wrapper(a, **kwargs):
                assert a.ndim == 1 and np.shares_memory(a, fields[-1].psi)
                assert kwargs.get("out") is a
                rows.append(fn.__name__)
                return fn(a, **kwargs)
            return wrapper

        monkeypatch.setattr(gridsim, "_start_field", recorded)
        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        run_validation(n=1024)
        assert 0 < len(rows) <= 48

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
    def test_continuum_error_converges_at_sixth_order(self, index):
        # the screen-edge terms remove the dz^2 and dz^4 parts: halving dz
        # divides the deviation by 59.1-64.2 (2^6 = 64).  Only 512 -> 1024:
        # at 2048 several cases reach the span's 2.5e-15 absolute floor
        p, probe = default_cases()[index]
        coarse, fine = (run_case(p, probe, n=n) for n in (512, 1024))
        ratio = (coarse.eps_sq_grid - coarse.eps_sq_model) / (fine.eps_sq_grid - fine.eps_sq_model)
        assert 55.0 <= ratio <= 70.0

    @pytest.mark.parametrize("index", range(8))
    def test_continuum_error_matches_richardson(self, index):
        # a second propagation cancels the same dz^2 term by extrapolation;
        # the corrected eps^2 is sixth order, so what this bounds is the
        # extrapolation's own O(dz^4) error (at most 8.5e-9 relative)
        p, probe = default_cases()[index]
        coarse, fine = (grid_sum_error_sq(p, probe, n) for n in (512, 1024))
        extrapolated = (4.0 * fine - coarse) / 3.0
        corrected = run_case(p, probe, n=1024).eps_sq_grid
        assert abs(corrected - extrapolated) <= 1e-7 * extrapolated

    @pytest.mark.parametrize("index", range(8))
    def test_continuum_error_matches_two_level_richardson(self, index):
        # three propagations cancel the grid sum's dz^2 and dz^4 terms by
        # extrapolation alone, with no closed form: the sixth-order readout
        # at n = 1024 agrees with it to 1.07e-11 relative at worst (and the
        # extrapolation with error_sq to 6.8e-14)
        p, probe = default_cases()[index]
        fields = {n: propagate(p, probe, n) for n in (512, 1024, 2048)}
        plain = {n: grid_error_sq(field) for n, field in fields.items()}
        once = {n: (4.0 * plain[2 * n] - plain[n]) / 3.0 for n in (512, 1024)}
        twice = (16.0 * once[1024] - once[512]) / 15.0
        corrected = measure_error(fields[1024])
        assert abs(corrected - twice) <= 1.5e-10 * twice

