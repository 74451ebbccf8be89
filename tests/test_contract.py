"""Input contract: valid finite input gives finite, in-range output.

The squared errors of a sign meter lie in [0, 2], the squared
disturbances of sigma_x in [0, 4], region_bound in [0, 1], the q-rms
error and disturbance of +-1-valued observables in [0, 2], and
optimal_tau is a finite float >= 0 or None.  Where the
closed forms' intermediates leave the float range they raise ValueError
instead; no other exception and no warning may escape.
"""
import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgedr
from sgedr._arrays import MAX_ROWS
from sgedr.experiment import ChainReport, ExperimentConfig1922, KTable, run_chain
from sgedr.gridsim import HALF_MAX, Grid1D, measure_disturbance, measure_error, propagate
from sgedr.measurement import MeasuringProcess, qrms_disturbance, qrms_error
from sgedr.probe import GaussianProbe
from sgedr.sgmodel import (
    SGParams, disturbance_sq, error_sq, optimal_tau, region_bound, sweep_region,
)
from sgedr.spin import SIGMA_Y, PauliObservable, QubitState

from helpers import grid_error_sq

# rounding slack on the upper end of a q-rms range
ULP_SLACK = 1e-12


def log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


# Magnitudes over the whole normal float range, so products of the fields
# overflow and underflow.  The SI-scale 1922 inputs are covered through
# run_chain below.  hbar and the mass are drawn once, on the process; the
# probe is the packet alone.
positive = log_uniform(-300.0, 300.0)
signed = st.one_of(st.just(0.0), positive, positive.map(lambda x: -x))
params = st.builds(
    SGParams,
    mu=signed, B0=signed, B1=signed, mass=positive, hbar=positive, dt=positive,
    tau=st.one_of(st.just(0.0), positive),
)
probes = st.builds(GaussianProbe, lambda_re=positive, lambda_im=signed)
bloch_vectors = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
).filter(lambda v: v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0)


def in_range(x, high: float) -> bool:
    x = np.asarray(x)
    return bool(np.all(np.isfinite(x)) and np.all((0.0 <= x) & (x <= high)))


# the ValueError a closed form raises when an intermediate leaves the float range
OUT_OF_FLOAT_RANGE = r"^\w+ is (not finite|nan)"


def in_range_or_rejected(f, high: float, *args) -> bool:
    try:
        return in_range(f(*args), high)
    except ValueError as exc:
        assert re.match(OUT_OF_FLOAT_RANGE, str(exc)), exc
        return True


class TestClosedForms:
    @settings(max_examples=200, deadline=None)
    @given(params, probes)
    def test_error_sq(self, p, probe):
        assert in_range_or_rejected(error_sq, 2.0, p, probe)

    @settings(max_examples=200, deadline=None)
    @given(params, probes)
    def test_disturbance_sq(self, p, probe):
        assert in_range_or_rejected(disturbance_sq, 4.0, p, probe)

    @settings(max_examples=200, deadline=None)
    @given(params, probes)
    def test_optimal_tau(self, p, probe):
        try:
            tau = optimal_tau(p, probe)
        except ValueError as exc:
            assert re.match(OUT_OF_FLOAT_RANGE, str(exc)), exc
            return
        assert tau is None or (type(tau) is float and 0.0 <= tau < math.inf)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=20))
    def test_region_bound(self, eps_sq):
        assert in_range(region_bound(np.array(eps_sq)), 1.0)
        assert in_range(region_bound(eps_sq[0]), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        params,
        st.lists(st.tuples(positive, signed), min_size=1, max_size=4),
        st.lists(signed, min_size=1, max_size=4),
        st.lists(st.one_of(st.just(0.0), positive), min_size=1, max_size=4),
    )
    def test_sweep_region(self, base, lambdas, b0_values, taus):
        lambdas = [complex(re, im) for re, im in lambdas]
        try:
            pts = sweep_region(base, lambdas, b0_values, taus)
        except ValueError as exc:
            assert re.match(OUT_OF_FLOAT_RANGE, str(exc)), exc
            return
        assert pts.shape == (len(lambdas) * len(b0_values) * len(taus), 2)
        assert in_range(pts[:, 0], 2.0) and in_range(pts[:, 1], 4.0)


# the grid oracle's inputs: order-unity fields, rescaled, over 10^+-30; past
# that, sigma_t's cancellation can still let a packet reach the grid's edges
oracle_positive = log_uniform(-30.0, 30.0)
oracle_signed = st.one_of(st.just(0.0), oracle_positive, oracle_positive.map(lambda x: -x))
oracle_params = st.builds(
    SGParams,
    mu=oracle_signed, B0=oracle_signed, B1=oracle_signed, mass=oracle_positive,
    hbar=oracle_positive, dt=oracle_positive, tau=st.one_of(st.just(0.0), oracle_positive),
)
oracle_probes = st.builds(GaussianProbe, lambda_re=oracle_positive, lambda_im=oracle_signed)
UNIT = SGParams(mu=1.0, B0=0.0, B1=1.0, mass=1.0, hbar=1.0, dt=1.0)


class TestPropagate:
    # each example failed before the oracle oriented its meter, checked its
    # grid's wavenumbers, reduced B0's phase and named an overflowing kick
    @settings(max_examples=200, deadline=None)
    @given(oracle_params, oracle_probes)
    # mu B1 < 0: the anti-aligned meter read eps^2 = 3.64
    @example(dataclasses.replace(UNIT, B1=-3.0), GaussianProbe(1.0))
    # a kick of 1000 past the n = 256 grid's pi / dz = 89 aliased
    @example(dataclasses.replace(UNIT, hbar=1e-3), GaussianProbe(1.0))
    # B0 + B1 z rounded to a staircase in z, whose noise leaked to the edges
    @example(dataclasses.replace(UNIT, B0=1e13), GaussianProbe(1.0))
    # the kick's phase overflowed to a nan field, which passed both checks
    @example(dataclasses.replace(UNIT, mu=2.0, B0=1e308, B1=0.0), GaussianProbe(1.0))
    # B1 z overflows on a wide grid: the kick is named
    @example(dataclasses.replace(UNIT, mu=1e-300, B1=1e300, hbar=1e10), GaussianProbe(1e-18))
    def test_in_range_or_rejected(self, p, probe):
        try:
            field = propagate(p, probe, 256)
        except ValueError:
            return
        for eps_sq in (grid_error_sq(field), measure_error(field)):
            assert in_range(eps_sq, 2.0 + ULP_SLACK), eps_sq
        assert in_range(measure_disturbance(field), 4.0 + ULP_SLACK)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestQrms:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        bloch_vectors,
    )
    def test_random_processes(self, d, n_probes, seed, v):
        # any joint unitary, a stack of probes and a meter of spectrum +-1
        rng = np.random.default_rng(seed)
        xi = rng.normal(size=(n_probes, d)) + 1j * rng.normal(size=(n_probes, d))
        xi /= np.linalg.norm(xi, axis=-1, keepdims=True)
        basis = random_unitary(rng, d)
        signs = rng.choice([-1.0, 1.0], size=d)
        meter = (basis * signs) @ basis.conj().T
        mp = MeasuringProcess(xi, random_unitary(rng, 2 * d), meter)
        state = QubitState.from_bloch(*v)
        for obs in (PauliObservable.x(), PauliObservable(SIGMA_Y), PauliObservable.z()):
            eps = qrms_error(mp, state, obs)
            eta = qrms_disturbance(mp, state, obs)
            assert np.shape(eps) == np.shape(eta) == (n_probes,)
            assert in_range(eps, 2.0 + ULP_SLACK) and in_range(eta, 2.0 + ULP_SLACK)


configs = st.builds(
    ExperimentConfig1922,
    T=log_uniform(1.0, 4.0),
    B1=st.floats(-1e5, 1e5),
    L1=log_uniform(-3.0, 0.0),
    L2=log_uniform(-3.0, 0.0),
    L3=st.one_of(st.just(0.0), log_uniform(-3.0, 0.0)),
    d1=log_uniform(-6.0, -3.0),
    d2=log_uniform(-6.0, -3.0),
    atomic_weight=st.floats(1.0, 300.0),
    B0=st.floats(-1.0, 1.0),
    K_min=st.floats(0.6, 1.0),
    K_max=st.floats(0.6, 1.0),
    K_steps=st.integers(1, 4),
)
# every positive field over the whole normal float range
wide_configs = st.builds(
    ExperimentConfig1922,
    T=positive, B1=signed, L1=positive, L2=positive, L3=st.one_of(st.just(0.0), positive),
    d1=positive, d2=positive, atomic_weight=positive, B0=signed,
    K_min=st.floats(0.6, 1.0), K_max=st.floats(0.6, 1.0), K_steps=st.integers(1, 4),
)
# the names a chain's ValueError may start with: its inputs, the fields of the
# records it builds and the closed forms' intermediates
CHAIN_NAMES = {
    f.name for cls in (ExperimentConfig1922, SGParams, GaussianProbe) for f in dataclasses.fields(cls)
} | {*ChainReport._fields, *KTable._fields, "lambda", "sigma_t", "var_p", "anticom", "phase"}


def assert_report_in_range(report):
    for name in ("m", "v_y", "dt", "delta_p", "delta_z"):
        value = getattr(report, name)
        assert math.isfinite(value) and value > 0.0, name
    assert math.isfinite(report.tau) and report.tau >= 0.0
    assert math.isfinite(report.g0)
    rows = report.rows
    # total damping, eta^2 = 2, reads as a damping exponent of +inf
    assert all(np.isfinite(c).all() for c in rows._replace(damping_exponent=0.0)), rows
    assert (rows.damping_exponent >= 0.0).all()
    assert in_range(rows.eps_sq, 2.0) and in_range(rows.eta_sq, 4.0)
    assert report.eps_sq_min <= report.eps_sq_max
    assert in_range(report.error_prob_bound, 0.5)


class TestRunChain:
    @settings(max_examples=100, deadline=None)
    @given(configs)
    def test_finite_in_range(self, cfg):
        report = run_chain(cfg)
        assert_report_in_range(report)
        assert np.isfinite(report.rows.damping_exponent).all()

    # each example takes an intermediate past the float range: lambda or v_y
    @settings(max_examples=300, deadline=None)
    @given(wide_configs)
    @example(ExperimentConfig1922(d2=1e-300))
    @example(ExperimentConfig1922(T=1e300))
    @example(ExperimentConfig1922(L1=1e-300))
    @example(ExperimentConfig1922(atomic_weight=1e300))
    @example(ExperimentConfig1922(T=1.37e-135, atomic_weight=2.48e209))
    def test_finite_in_range_or_named(self, cfg):
        try:
            report = run_chain(cfg)
        except ValueError as exc:
            assert str(exc).split()[0] in CHAIN_NAMES, exc
            return
        assert_report_in_range(report)


# Invalid input raises ValueError naming the input: each constructor, a valid
# set of fields, and for each field the strategy of values outside its
# documented range (nan and +-inf for every float field).
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def below(x: float):
    return st.floats(max_value=x, exclude_max=True, allow_infinity=False)


def above(x: float):
    return st.floats(min_value=x, exclude_min=True, allow_infinity=False)


not_positive = non_finite | st.sampled_from([0.0, -0.0]) | below(0.0)
negative = non_finite | below(0.0)
outside_k = non_finite | below(0.6) | above(1.0)
bad_grid_n = (
    st.integers(max_value=255)
    | st.integers(257, 2**40).filter(lambda n: n & (n - 1))
    | st.floats()
    # powers of two over the row cap, and one that float() cannot hold
    | st.sampled_from([2**24, 2**40, 2**1100])
)

not_whole = st.floats(1.0, 1e6).filter(lambda x: not x.is_integer())
# a K grid over the row cap, as a config file's float or a flag's int, which
# float() cannot hold past 1e308
too_many_rows = above(float(MAX_ROWS)) | st.integers(min_value=MAX_ROWS + 1)

CONSTRUCTORS = {
    SGParams: (
        dict(mu=1.0, B0=0.0, B1=1.0, mass=1.0, hbar=1.0, dt=1.0, tau=0.0),
        dict(mu=non_finite, B0=non_finite, B1=non_finite, mass=not_positive,
             hbar=not_positive, dt=not_positive, tau=negative),
    ),
    GaussianProbe: (
        dict(lambda_re=1.0, lambda_im=0.0),
        dict(lambda_re=not_positive, lambda_im=non_finite),
    ),
    Grid1D: (
        dict(n=1024, half=1.0),
        # past HALF_MAX, 2 half overflows; below 512 times the least normal
        # float, dz = 2 half / 1024 is subnormal
        dict(n=bad_grid_n, half=not_positive | above(HALF_MAX)
             | st.floats(0.0, 512 * sys.float_info.min, exclude_min=True, exclude_max=True)),
    ),
    ExperimentConfig1922: (
        dataclasses.asdict(ExperimentConfig1922()),
        dict(T=not_positive, B1=non_finite, L1=not_positive, L2=not_positive, L3=negative,
             d1=not_positive, d2=not_positive, atomic_weight=not_positive, B0=non_finite,
             K_min=outside_k, K_max=outside_k,
             K_steps=non_finite | below(1.0) | not_whole | too_many_rows | st.just(True)),
    ),
}


class TestInvalidInputNamed:
    def test_every_field_has_a_bad_value(self):
        for cls, (valid, bad) in CONSTRUCTORS.items():
            cls(**valid)
            assert set(bad) == {f.name for f in dataclasses.fields(cls)}, cls.__name__

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_value_error_starts_with_field(self, data):
        cls = data.draw(st.sampled_from(list(CONSTRUCTORS)), label="constructor")
        valid, bad = CONSTRUCTORS[cls]
        name = data.draw(st.sampled_from(sorted(bad)), label="field")
        value = data.draw(bad[name], label="value")
        with pytest.raises(ValueError) as info:
            cls(**{**valid, name: value})
        assert str(info.value).split()[0] == name

    @pytest.mark.parametrize("cls", list(CONSTRUCTORS))
    def test_int_past_float_range_is_named(self, cls):
        # Python finds 10**400 < inf, but float() cannot hold it: each float
        # field names it rather than raise OverflowError later
        valid, _ = CONSTRUCTORS[cls]
        for name in (name for name, value in valid.items() if isinstance(value, float)):
            for x in (10**400, -10**400):
                with pytest.raises(ValueError) as info:
                    cls(**{**valid, name: x})
                assert str(info.value).split()[0] == name


def test_every_exported_dataclass_validates():
    # a record that checks nothing is a NamedTuple: a dataclass means that
    # its constructor rejects bad fields
    classes = [
        obj for obj in vars(sgedr).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    ]
    assert classes
    for cls in classes:
        assert "__post_init__" in vars(cls), cls.__name__


# the functions that size or optimise one packet, each called as f(p, probe)
ONE_PROCESS = {
    "propagate": propagate,
    "optimal_tau": optimal_tau,
}


class TestArrayFieldNamed:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_value_error_starts_with_field(self, data):
        # values in [0.5, 2] are valid for every field of both constructors
        f = ONE_PROCESS[data.draw(st.sampled_from(sorted(ONE_PROCESS)), label="function")]
        cls = data.draw(st.sampled_from([SGParams, GaussianProbe]), label="constructor")
        name = data.draw(st.sampled_from(sorted(CONSTRUCTORS[cls][0])), label="field")
        values = data.draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4), label="values")
        args = {c: c(**CONSTRUCTORS[c][0]) for c in (SGParams, GaussianProbe)}
        args[cls] = cls(**{**CONSTRUCTORS[cls][0], name: np.array(values)})
        with pytest.raises(ValueError) as info:
            f(args[SGParams], args[GaussianProbe])
        assert str(info.value).split()[0] == name

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_grid_rejects_an_array_field(self, data):
        # each field's values are valid as scalars; two-element arrays raised
        # numpy's ambiguous truth value, one-element arrays built a grid
        valid = {"n": st.sampled_from([256, 1024]), "half": st.floats(0.5, 2.0)}
        name = data.draw(st.sampled_from(sorted(valid)), label="field")
        values = data.draw(st.lists(valid[name], min_size=1, max_size=4), label="values")
        with pytest.raises(ValueError) as info:
            Grid1D(**{**CONSTRUCTORS[Grid1D][0], name: np.array(values)})
        assert str(info.value).split()[0] == name
