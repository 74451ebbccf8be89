import contextlib
import json
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from sgedr.cli import main
from sgedr.experiment import (
    HBAR,
    MU_ELECTRON,
    ChainReport,
    ExperimentConfig1922,
    KTable,
    format_table,
    heisenberg_verdict,
    parse_config,
    reference_checks,
    rms_velocity,
    run_chain,
    silver_mass,
)
from sgedr.probe import collimator_posterior, moments, sigma_t
from sgedr.sgmodel import SGParams, damping_exponent, disturbance_sq, erfc_arg, error_sq
from sgedr.spin import EDRReport

from helpers import flux_pdf

CFG = ExperimentConfig1922()


@pytest.fixture(scope="module")
def report():
    return run_chain(CFG)


class TestSilverMass:
    def test_silver(self):
        assert silver_mass(107.86822) == pytest.approx(1.7911939e-25, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            silver_mass(0.0)

    @pytest.mark.parametrize("weight", [np.nan, np.inf])
    def test_rejects_non_finite(self, weight):
        with pytest.raises(ValueError, match="^atomic_weight must lie in"):
            silver_mass(weight)


class TestFluxPdf:
    M = silver_mass(107.86822)

    def test_zero_speed(self):
        assert flux_pdf(0.0, 1500.0, self.M) == 0.0

    def test_normalized(self):
        # flux_pdf takes floats, so mpmath's nodes are rounded to them
        total = float(mpmath.quad(lambda v: flux_pdf(float(v), 1500.0, self.M), [0.0, 5000.0]))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_second_moment_matches_rms_velocity(self):
        mean_v_sq = float(mpmath.quad(
            lambda v: float(v) ** 2 * flux_pdf(float(v), 1500.0, self.M), [0.0, 5000.0]
        ))
        assert np.sqrt(mean_v_sq) == pytest.approx(
            rms_velocity(1500.0, self.M), rel=1e-10
        )

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            flux_pdf(-1.0, 1500.0, self.M)

    @pytest.mark.parametrize("v, T, m, field", [
        (100.0, -1500.0, M, "T"),
        (100.0, 0.0, M, "T"),
        (100.0, np.nan, M, "T"),
        (np.inf, 1500.0, M, "v"),
        (100.0, 1500.0, 0.0, "m"),
        (100.0, 1500.0, np.inf, "m"),
    ])
    def test_rejects_bad_inputs_by_name(self, v, T, m, field):
        with pytest.raises(ValueError, match=rf"^{field} must lie in"):
            flux_pdf(v, T, m)


class TestRmsVelocity:
    def test_silver_beam(self):
        m = silver_mass(107.86822)
        assert rms_velocity(1500.0, m) == pytest.approx(6.80e2, rel=5e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rms_velocity(-1.0, 1.0)
        with pytest.raises(ValueError):
            rms_velocity(300.0, 0.0)

    @pytest.mark.parametrize("T, m, field", [
        (np.inf, 1.79e-25, "T"),
        (np.nan, 1.79e-25, "T"),
        (1500.0, np.inf, "m"),
        (1500.0, np.nan, "m"),
    ])
    def test_rejects_non_finite_by_name(self, T, m, field):
        with pytest.raises(ValueError, match=rf"^{field} must lie in"):
            rms_velocity(T, m)

    def test_overflow_is_named(self):
        # 4 k_B T / m overflows to inf
        with pytest.raises(ValueError, match="^v_y is not finite"):
            rms_velocity(1e300, 1e-300)


class TestRunChain:
    def test_timing_chain(self, report):
        assert report.dt == pytest.approx(5.14e-5, rel=5e-3)
        assert report.tau == 0.0
        assert report.g0 == pytest.approx(9.26e-5, rel=5e-3)

    def test_k_bracketing(self, report):
        assert report.rows.K.tolist() == [0.6, 1.0]
        assert report.eps_sq_min < report.eps_sq_max
        assert report.eps_sq_min == report.rows.eps_sq[0]

    def test_headline_interval(self, report):
        assert report.eps_sq_max == pytest.approx(3.38e-1, rel=1e-2)
        # lower endpoint drifts about 2% from the 3-digit reference chain
        assert report.eps_sq_min == pytest.approx(4.38e-2, rel=2.5e-2)
        assert report.eta_sq == 2.0

    def test_error_probability_bound(self, report):
        assert report.error_prob_bound == report.eps_sq_max / 4.0
        assert report.error_prob_bound < 0.09

    def test_rejects_k_outside_bracket(self):
        with pytest.raises(ValueError, match=r"^K_min must lie in \[0\.6, 1\.0\], got 0\.5$"):
            ExperimentConfig1922(K_min=0.5)
        for bad in (0, True):
            with pytest.raises(ValueError) as info:
                ExperimentConfig1922(K_steps=bad)
            assert str(info.value) == f"K_steps must be an integer in [1, 10000000], got {bad}"

    @pytest.mark.parametrize("field", ["K_min", "T"])
    def test_rejects_array_field(self, field):
        # the bracket check passes every value of an array; run_chain would
        # then fail with a TypeError that names no input
        with pytest.raises(ValueError, match=rf"^{field} must be a single value, got an array"):
            ExperimentConfig1922(**{field: np.array([0.6, 0.7])})

    # the second setup has free flight, partial damping and a nonzero phase
    @pytest.mark.parametrize("cfg", [CFG, ExperimentConfig1922(L3=3.5e-2, B1=-1e-3, B0=1e-9)])
    def test_rows_equal_scalar_closed_forms(self, cfg):
        # the one array pass over K gives bit for bit the per-K scalar chain
        report = run_chain(replace(cfg, K_steps=7))
        k_values = np.linspace(0.6, 1.0, 7).tolist()
        params = SGParams(
            mu=MU_ELECTRON, B0=cfg.B0, B1=cfg.B1, mass=report.m, hbar=HBAR,
            dt=report.dt, tau=report.tau,
        )
        delta_p = (cfg.d1 + cfg.d2) / (2.0 * cfg.L1) * report.m * report.v_y
        assert all(c.shape == (7,) for c in report.rows)
        for i, k in enumerate(k_values):
            D_p, D_z = 1.25 * k * delta_p, 1.25 * k * (cfg.d2 / 2.0)
            probe = collimator_posterior(D_p, D_z, HBAR)
            spread = sigma_t(probe, report.dt + report.tau, HBAR, report.m)
            assert KTable(*(c[i] for c in report.rows)) == KTable(
                K=k, D_p=D_p, D_z=D_z, var_z=moments(probe, HBAR)[0],
                sigma_dt_sq=spread * spread, erfc_arg=erfc_arg(params, probe),
                damping_exponent=damping_exponent(params, probe),
                eps_sq=error_sq(params, probe), eta_sq=disturbance_sq(params, probe),
            )

    def test_each_end_takes_its_own_eta_sq(self):
        # partial damping: eta^2 runs from 0.034 at K = 0.6 to 0.092 at K = 1,
        # so pairing the eps^2 maximum with the K_min row's eta^2 gave
        # sqrt(eps^2(K=1) eta^2(K=0.6)) = 0.259, a product no K produces
        report = run_chain(ExperimentConfig1922(B1=-1e-3, K_steps=3))
        eps_sq, eta_sq = report.rows.eps_sq, report.rows.eta_sq
        assert eps_sq[0] < eps_sq[1] < eps_sq[-1]
        assert eta_sq[0] < 0.5 * eta_sq[-1]
        for edr, i in ((report.edr_at_min, 0), (report.edr_at_max, -1)):
            assert edr.heisenberg_lhs == pytest.approx(np.sqrt(eps_sq[i] * eta_sq[i]), rel=1e-12)
        assert report.eta_sq == eta_sq[-1]
        assert heisenberg_verdict(report)[0] == pytest.approx(0.4282, abs=1e-4)

    def test_longer_flight_reduces_error_here(self):
        # tau becomes the L3/v_y free flight; the beams separate further
        far = run_chain(ExperimentConfig1922(L3=3.5e-2))
        near = run_chain(CFG)
        assert far.tau > 0.0
        assert far.eps_sq_max < near.eps_sq_max


class TestVerdict:
    def test_violated(self, report):
        product_max, bound, violated = heisenberg_verdict(report)
        # sigma_y+ is exact, so half |<[sigma_z, sigma_x]>| is exactly 1
        assert bound == 1.0
        assert product_max == pytest.approx(0.822, rel=1e-2)
        assert violated

    def test_satisfied_for_weak_gradient(self):
        weak = run_chain(ExperimentConfig1922(B1=-1.35e-2))
        _, _, violated = heisenberg_verdict(weak)
        assert not violated


class TestReferenceChecks:
    def test_names_and_verdicts(self, report):
        results = reference_checks(report)
        by_name = {name: ok for name, _, _, ok in results}
        for name in ("m", "v_y", "dt", "1.25*delta_p", "var_z*K^2", "g0",
                     "erfc_arg*K", "mu*B1*dt/hbar", "eps_sq(K=1)", "eta_sq"):
            assert by_name[name], name
        # known discrepancies against the published 3-digit chain:
        # delta_z is printed a factor 10 too small, and the rounding of
        # dt and the collimator widths drifts the downstream quantities
        # past their stated slack
        failing = {name for name, _, _, ok in results if not ok}
        assert failing == {
            "1.25*delta_z",
            "sigma_dt_sq/K^2",
            "damping_exponent/K^2",
            "eps_sq(K=0.6)",
        }

    def test_computed_values_are_faithful(self, report):
        results = reference_checks(report)
        computed = {name: value for name, value, _, _ in results}
        assert computed["1.25*delta_z"] == pytest.approx(2.50e-5, rel=1e-3)
        assert computed["sigma_dt_sq/K^2"] == pytest.approx(4.57e-9, rel=5e-3)


# experiment's JSON before the CLI's table writer took its K table: the report
# as a dict, each K a row object, through json.dumps.  experiment must print
# exactly these bytes.
def reference_json(report):
    d = report._asdict()
    d["rows"] = [dict(zip(KTable._fields, row)) for row in zip(*(c.tolist() for c in report.rows))]
    d["edr_at_min"] = report.edr_at_min._asdict()
    d["edr_at_max"] = report.edr_at_max._asdict()
    product_max, bound, violated = heisenberg_verdict(report)
    d["heisenberg"] = {"product_max": product_max, "bound": bound, "violated": violated}
    return json.dumps(d, indent=2)


def experiment_json(capsys):
    """The JSON report `sgedr experiment` prints after its table."""
    main(["experiment"])
    return json.loads("{" + capsys.readouterr().out.split("{", 1)[1])


class TestReportSerialization:
    def test_json_round_trip(self, report, capsys):
        data = experiment_json(capsys)
        assert data["m"] == report.m
        assert len(data["rows"]) == 2
        assert data["heisenberg"]["violated"] is True

    def test_json_nests_each_record_as_an_object(self, report, capsys):
        # a record serialised as a list instead would lose its field names
        data = experiment_json(capsys)
        assert list(data) == [*ChainReport._fields, "heisenberg"]
        for row in data["rows"]:
            assert list(row) == list(KTable._fields)
        for name, column in zip(KTable._fields, report.rows):
            assert [row[name] for row in data["rows"]] == column.tolist()
        for name in ("edr_at_min", "edr_at_max"):
            assert list(data[name]) == list(EDRReport._fields)

    def test_dict_contains_verdict(self, capsys):
        d = experiment_json(capsys)
        assert d["heisenberg"]["product_max"] < d["heisenberg"]["bound"]

    def test_table_mentions_verdict(self, report):
        table = format_table(report)
        assert "VIOLATED" in table
        assert "eps^2 interval" in table

    # B1 = -1e150 damps totally: its damping_exponent column reads Infinity
    @pytest.mark.parametrize("argv, cfg, code", [
        ([], CFG, 2),
        (["--k-steps", "7"], replace(CFG, K_steps=7), 2),
        (["--k-min", "0.8", "--k-max", "0.8", "--k-steps", "1"],
         replace(CFG, K_min=0.8, K_max=0.8, K_steps=1), 2),
        (["--k-min", "0.9", "--k-max", "0.7", "--k-steps", "3"],
         replace(CFG, K_min=0.9, K_max=0.7, K_steps=3), 2),
        (["--config", "B1 = -1e150"], replace(CFG, B1=-1e150), 0),
    ])
    def test_stdout_is_the_table_and_the_reference_json(self, argv, cfg, code, tmp_path, capsys):
        if argv[:1] == ["--config"]:
            (tmp_path / "run.cfg").write_text(argv[1] + "\n")
            argv = ["--config", str(tmp_path / "run.cfg")]
        assert main(["experiment", *argv]) == code
        report = run_chain(cfg)
        want = format_table(report) + "\n\n" + reference_json(report) + "\n"
        assert capsys.readouterr().out == want
        assert ('"damping_exponent": Infinity' in want) == (cfg.B1 == -1e150)

    def test_memory_per_k_row(self, tmp_path, capsys):
        # the K table is written from its columns a slab at a time: at 20,000 K
        # the traced peak measured 4.3 MiB, 18.6 MiB when every cell was
        # spelled before the first row was written, and 49.6 MiB when each K
        # was a tuple of floats and a dict through json.dumps
        with open(tmp_path / "out.txt", "w") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert main(["experiment", "--k-steps", "20000"]) == 2
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_default_k_rows_are_printed(self, capsys):
        # as text: test_stdout_is_the_table_and_the_reference_json reads the
        # table through format_table itself
        main(["experiment"])
        lines = capsys.readouterr().out.splitlines()
        at = lines.index("  K      erfc arg     eps^2        eta^2")
        assert lines[at + 1:at + 4] == [
            "  0.600  1.6154       4.4685e-02   2.0000",
            "  1.000  0.9692       3.4094e-01   2.0000",
            "",
        ]


class TestExperimentConfig:
    @pytest.mark.parametrize("field, value", [
        ("T", np.nan), ("T", 0.0), ("atomic_weight", np.nan), ("atomic_weight", -1.0),
        ("L3", -1.0), ("L3", np.inf), ("d1", 0.0), ("B1", np.nan), ("B0", np.inf),
    ])
    def test_rejects_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must lie in"):
            ExperimentConfig1922(**{field: value})


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_defaults_when_empty(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "# nothing here\n\n"))
        assert cfg == ExperimentConfig1922()
        assert run_chain(cfg).rows.K.tolist() == [0.6, 1.0]

    def test_overrides_and_comments(self, tmp_path):
        text = "T = 1200  # cooler oven\nB1 = -2e3\nK_min = 0.7\nK_max=0.9\nK_steps = 3\n"
        cfg = parse_config(self.write(tmp_path, text))
        assert cfg.T == 1200.0
        assert cfg.B1 == -2e3
        assert cfg.L2 == 3.5e-2
        assert (cfg.K_min, cfg.K_max, cfg.K_steps) == (0.7, 0.9, 3.0)
        assert run_chain(cfg).rows.K.tolist() == pytest.approx([0.7, 0.8, 0.9])

    def test_single_k(self, tmp_path):
        cfg = parse_config(self.write(tmp_path, "K_min = 0.8\nK_steps = 1\n"))
        assert run_chain(cfg).rows.K.tolist() == [0.8]

    def test_rejects_unknown_key(self, tmp_path):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(self.write(tmp_path, "voltage = 3\n"))

    def test_rejects_bad_number(self, tmp_path):
        with pytest.raises(ValueError, match="bad number"):
            parse_config(self.write(tmp_path, "T = warm\n"))

    def test_rejects_duplicate_key(self, tmp_path):
        # the second T silently won: the chain ran at T = 900
        path = self.write(tmp_path, "T = 1500\nT = 900\n")
        with pytest.raises(ValueError) as info:
            parse_config(path)
        assert str(info.value) == f"{path}:2: duplicate key 'T'"

    def test_rejects_missing_equals(self, tmp_path):
        with pytest.raises(ValueError, match="key = value"):
            parse_config(self.write(tmp_path, "just words\n"))

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(str(tmp_path / "absent.cfg"))
