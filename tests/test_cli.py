import contextlib
import gc
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgedr
from sgedr import validation
from sgedr._arrays import MAX_ROWS
from sgedr.cli import (
    EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, TIGHT_FLAG_MARGIN, _write_json, _write_table,
    main,
)
from sgedr.sgmodel import SGParams, in_region, sweep_region
from sgedr.spin import STATE_SY_PLUS, PauliObservable, evaluate_edrs


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# sgedr ") and lines[0].endswith("schema v1")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestLw:
    def test_csv_sweep(self, tmp_path):
        out = tmp_path / "lw.csv"
        assert main(["lw", "--steps", "5", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "theta", "eps", "eta", "eps_sq", "eta_sq", "tight_lhs", "heisenberg_lhs",
        ]
        assert len(rows) == 5
        first = [float(v) for v in rows[0]]
        assert first[1] == pytest.approx(0.0, abs=1e-12)
        mid = [float(v) for v in rows[2]]
        assert mid[0] == pytest.approx(np.pi / 4)
        assert mid[4] == pytest.approx(0.0, abs=1e-12)
        for row in rows:
            assert float(row[5]) == pytest.approx(4.0, abs=1e-10)

    def test_last_row_is_exact(self, tmp_path):
        # lw_sweep clips eps^2 into [0, 4], so theta = pi/2 gives eps = 2 exactly
        out = tmp_path / "lw.csv"
        assert main(["lw", "--steps", "5", "--out", str(out)]) == EXIT_OK
        theta, eps, _, eps_sq, _, tight_lhs, _ = (float(v) for v in read_csv(out)[1][-1])
        assert (theta, eps, eps_sq, tight_lhs) == (np.pi / 2, 2.0, 4.0, 4.0)

    def test_json_to_stdout(self, capsys):
        assert main(["lw", "--steps", "3", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1 and data["command"] == "lw"
        assert len(data["rows"]) == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["lw", "--out", str(a)])
        main(["lw", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_tiny_sweep(self, capsys):
        assert main(["lw", "--steps", "1"]) == EXIT_USAGE
        assert "steps" in capsys.readouterr().err


class TestRegion:
    def test_csv_with_boundary_sidecar(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["region", "--steps", "3", "--out", str(out)])
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == [
            "eps_sq", "eta_sq", "in_region", "tight_ok", "heisenberg_violated",
        ]
        assert len(rows) == 3 * 3 * 3 * 3
        assert all(row[2] == "1" and row[3] == "1" for row in rows)
        bheader, brows = read_csv(tmp_path / "region.csv.boundary.csv")
        assert bheader == ["eps_sq", "max_abs_half_two_minus_eta_sq"]
        assert len(brows) == 1024

    def test_unopenable_sidecar_writes_nothing(self, tmp_path, capsys):
        # a directory where the boundary sidecar goes: every output is opened
        # before a row is written, and the rows file already opened is removed
        out = tmp_path / "region.csv"
        (tmp_path / "region.csv.boundary.csv").mkdir()
        assert main(["region", "--steps", "2", "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "I/O error" in captured.err
        assert not out.exists()

    def test_json_contains_boundary(self, capsys):
        code = main([
            "region", "--steps", "2", "--format", "json",
            "--lambda-im", "0:0", "--tau", "0:1",
        ])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert len(data["boundary"]) == 1024
        assert all(row["in_region"] for row in data["rows"])

    def test_sweep_finds_heisenberg_violation(self, capsys):
        main([
            "region", "--steps", "4", "--format", "json",
            "--lambda-re", "0.25:2.0", "--lambda-im", "0:0",
            "--b0", "0:0", "--tau", "0:0",
        ])
        data = json.loads(capsys.readouterr().out)
        assert any(row["heisenberg_violated"] for row in data["rows"])

    def test_rejects_bad_ranges(self, capsys):
        # each range's least value is checked as the field it sweeps; the
        # "=" keeps argparse from reading "-1:2" as an option
        assert main(["region", "--lambda-re=-1:2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: lambda_re must lie in (0.0, inf), got -1.0\n"
        assert main(["region", "--tau=-1:0"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: tau must lie in [0.0, inf), got -1.0\n"

    def test_rejects_bad_b1(self, capsys):
        assert main(["region", "--b1", "nan"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "B1 must lie in" in captured.err and captured.out == ""

    # all but nan:2 were reported as "invalid _finite_range value", naming a
    # private function instead of the lo:hi form
    @pytest.mark.parametrize("spec", ["foo", "1", "1:", "nan:2", "1:2:3", "a:b"])
    def test_rejects_malformed_range(self, spec, capsys):
        assert main(["region", "--lambda-re", spec]) == EXIT_USAGE
        err = capsys.readouterr().err
        form = "range must be lo:hi, two finite numbers"
        assert err == f"error: argument --lambda-re: {form}; got {spec!r}\n"
        assert "_finite_range" not in err


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_rows_are_sweep_regions_row_for_row(self, steps, fmt, tmp_path):
        # the writer takes eps^2 and eta^2 over their own axes of the product
        # grid; written out, each row must still be sweep_region's, and each
        # flag the one evaluated on the full columns (%.17g and repr read
        # back exactly)
        out = tmp_path / f"region.{fmt}"
        argv = ["region", "--steps", str(steps), "--format", fmt, "--out", str(out)]
        assert main(argv) == EXIT_OK
        if fmt == "csv":
            _, rows = read_csv(out)
            eps_sq, eta_sq = (np.array([float(r[i]) for r in rows]) for i in (0, 1))
            flags = [np.array([r[i] == "1" for r in rows]) for i in (2, 3, 4)]
        else:
            rows = json.loads(out.read_text())["rows"]
            eps_sq, eta_sq = (np.array([r[k] for r in rows]) for k in ("eps_sq", "eta_sq"))
            flags = [
                np.array([r[k] for r in rows])
                for k in ("in_region", "tight_ok", "heisenberg_violated")
            ]
        lambdas = np.add.outer(
            np.linspace(0.25, 4.0, steps), 1j * np.linspace(-2.0, 2.0, steps)
        ).ravel()
        axis = np.linspace(0.0, 2.0, steps)
        base = SGParams(mu=1.0, B0=0.0, B1=3.0, mass=1.0, hbar=1.0, dt=1.0)
        want = sweep_region(base, lambdas, axis, axis)
        assert np.array_equal(eps_sq.view(np.int64), want[:, 0].view(np.int64))
        assert np.array_equal(eta_sq.view(np.int64), want[:, 1].view(np.int64))
        edr = evaluate_edrs(want[:, 0], want[:, 1], STATE_SY_PLUS, PauliObservable.z(),
                            PauliObservable.x())
        assert np.array_equal(flags[0], in_region(want[:, 0], want[:, 1]))
        assert np.array_equal(flags[1], edr.tight_lhs <= 4.0 + TIGHT_FLAG_MARGIN)
        assert np.array_equal(flags[2], ~edr.heisenberg_satisfied)


class TestExperiment:
    def test_defaults_report_known_reference_mismatches(self, capsys):
        # faithful recomputation disagrees with a few published 3-digit
        # intermediates, so the cross-check path exits nonzero by design
        code = main(["experiment"])
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert "VIOLATED" in captured.out
        assert "reference cross-checks FAILED" in captured.err
        assert "1.25*delta_z" in captured.err

    def test_defaults_exit_0_when_every_reference_check_passes(self, capsys, monkeypatch):
        checks = sgedr.cli.reference_checks
        monkeypatch.setattr(
            "sgedr.cli.reference_checks",
            lambda report: [(*check[:3], True) for check in checks(report)],
        )
        assert main(["experiment"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.endswith("\n\nall reference cross-checks passed\n")
        assert captured.err == ""

    def test_custom_config_skips_reference_checks(self, tmp_path, capsys):
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("T = 1600\n")
        assert main(["experiment", "--config", str(cfg)]) == EXIT_OK
        assert "VIOLATED" in capsys.readouterr().out

    def test_k_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("T = 1600\nK_min = 0.6\nK_max = 1.0\nK_steps = 2\n")
        code = main([
            "experiment", "--config", str(cfg),
            "--k-min", "0.8", "--k-max", "0.8", "--k-steps", "1",
        ])
        assert code == EXIT_OK
        tail = capsys.readouterr().out.split("{", 1)[1]
        data = json.loads("{" + tail)
        assert [row["K"] for row in data["rows"]] == [0.8]

    def test_k_flags_override_config_one_key_at_a_time(self, tmp_path, capsys):
        # the file's K_max and K_steps stay; only K_min comes from the flag
        cfg = tmp_path / "k.cfg"
        cfg.write_text("T = 1600\nK_min = 0.6\nK_max = 0.9\nK_steps = 4\n")
        assert main(["experiment", "--config", str(cfg), "--k-min", "0.7"]) == EXIT_OK
        data = json.loads("{" + capsys.readouterr().out.split("{", 1)[1])
        assert [row["K"] for row in data["rows"]] == [
            0.7, 0.7666666666666666, 0.8333333333333334, 0.9,
        ]

    def test_config_k_checked_when_flags_override_it(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("T = 1600\nK_min = 0.5\n")
        assert main(["experiment", "--config", str(cfg), "--k-min", "0.7"]) == EXIT_VALIDATION
        assert "error: K_min must lie in [0.6, 1.0], got 0.5" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, capsys):
        assert main(["experiment", "--config", "/nonexistent.cfg"]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("T := 1500\n")
        assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
        capsys.readouterr()

    @pytest.mark.parametrize(
        "line, field", [("T = nan", "T"), ("atomic_weight = nan", "atomic_weight")]
    )
    def test_config_field_named(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
        assert f"error: {field} must lie in" in capsys.readouterr().err

    def test_fractional_k_steps_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("K_steps = 2.7\n")
        assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
        assert "K_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--k-min", "0.5"], ["--k-max", "1.5"], ["--k-steps", "0"]])
    def test_rejects_bad_k_flags(self, flags, capsys):
        assert main(["experiment", *flags]) == EXIT_USAGE
        field = flags[0][2:].replace("k-", "K_")
        assert f"error: {field} must" in capsys.readouterr().err

    def test_bad_k_flag_over_valid_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("K_min = 0.7\nK_steps = 3\n")
        assert main(["experiment", "--config", str(cfg), "--k-max", "1.5"]) == EXIT_USAGE
        assert "error: K_max must lie in [0.6, 1.0], got 1.5" in capsys.readouterr().err


class TestValidate:
    def test_default_grid_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS") == 8 and "FAIL" not in out

    def test_too_coarse_grid_fails(self, capsys):
        # n=256 cannot resolve the packet width on the suggested span
        assert main(["validate", "--grid-n", "256"]) == EXIT_VALIDATION
        assert "unresolvable" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--grid-n", "1000"], ["--grid-n", "128"],
        # one split is exact, so the option that set the count is gone
        ["--dt-steps", "1"],
    ])
    def test_rejects_bad_arguments(self, flags, capsys):
        assert main(["validate", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert flags[0] in captured.err and captured.out == ""

    @pytest.mark.parametrize("n", [512, 1024, 2048, 4096, 8192, 16384])
    @pytest.mark.parametrize("closed_form, rel", [("error_sq", 1e-4), ("disturbance_sq", 1e-12)])
    def test_gate_is_the_oracles_measured_error(self, n, closed_form, rel, capsys, monkeypatch):
        # every default case passes at every n, but a closed form off by
        # 1e-4 (eps^2) or 1e-12 (eta^2) fails every case: the gate follows
        # the oracle's n^-6 error down to the floor its 8 sigma span sets
        assert main(["validate", "--grid-n", str(n)]) == EXIT_OK
        assert capsys.readouterr().out.count(" PASS\n") == 8
        exact = getattr(validation, closed_form)
        monkeypatch.setattr(validation, closed_form, lambda p, probe: exact(p, probe) * (1 + rel))
        assert main(["validate", "--grid-n", str(n)]) == EXIT_VALIDATION
        assert capsys.readouterr().out.count(" FAIL\n") == 8

    def test_rejects_grid_over_row_cap(self, capsys, monkeypatch):
        # 2**40 points would need terabytes: the cap is checked before the
        # oracle allocates anything
        def no_run(*args, **kwargs):
            raise AssertionError("validate ran the oracle before checking --grid-n")

        monkeypatch.setattr("sgedr.cli.run_validation", no_run)
        assert main(["validate", "--grid-n", "1099511627776"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --grid-n: n must be an integer in [256, 10000000], got 1099511627776\n"
        )


class TestTauOpt:
    def test_finite_minimizer(self, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        assert main(["tau-opt", "--out", str(out)]) == EXIT_OK
        msg = capsys.readouterr().out
        assert "tau0 =" in msg
        header, rows = read_csv(out)
        assert header == ["tau", "eps_sq"]
        assert len(rows) == 200

    def test_json_to_stdout_is_the_payload_alone(self, capsys):
        # with the table on stdout, the summary goes to stderr
        assert main(["tau-opt", "--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["command"] == "tau-opt" and len(data["rows"]) == 200
        tau_line, eps_line = captured.err.splitlines()
        assert tau_line == "condition holds: True; tau0 = %.17g" % data["tau0"]
        assert eps_line.startswith("eps^2(tau0) = ")

    def test_csv_to_stdout_starts_with_the_schema_header(self, capsys):
        assert main(["tau-opt", "--lambda-im", "0"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:2] == ["# sgedr tau-opt schema v1", "tau,eps_sq"] and len(lines) == 202
        assert captured.err.startswith("no finite minimizer; error decreases toward")

    def test_json_payload(self, tmp_path, capsys):
        out = tmp_path / "tau.json"
        assert main(["tau-opt", "--format", "json", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["tau0"] is not None and data["tau0"] > 0
        eps_at_tau0 = float(text.split("eps^2(tau0) = ")[1].split()[0])
        assert all(row["eps_sq"] >= eps_at_tau0 - 1e-12 for row in data["rows"])

    def test_minimizer_at_zero(self, tmp_path, capsys):
        # the stationary point lies below 0: the error is least at tau = 0,
        # and the table spans ten magnet intervals
        out = tmp_path / "tau.json"
        argv = ["tau-opt", "--lambda-im", "10", "--dt", "0.0743", "--format", "json"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert "tau0 = 0\n" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["tau0"] == 0.0
        taus = [row["tau"] for row in data["rows"]]
        assert taus[0] == 0.0 and taus[-1] == pytest.approx(0.743)
        eps = [row["eps_sq"] for row in data["rows"]]
        assert min(eps) == eps[0]

    def test_rejects_empty_grid(self, capsys):
        assert main(["tau-opt", "--steps", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "steps" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda-re", "nan", "lambda_re"),
        ("--lambda-re", "-1", "lambda_re"),
        ("--b1", "nan", "B1"),
        ("--dt", "inf", "dt"),
        ("--dt", "0", "dt"),
    ])
    def test_rejects_bad_field(self, flag, value, field, capsys):
        assert main(["tau-opt", flag, value]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{field} must lie in" in captured.err and captured.out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unopenable_out_prints_nothing(self, tmp_path, capsys, fmt):
        # the output is opened before the summary lines are printed
        out = tmp_path / "no" / "tau.csv"
        assert main(["tau-opt", "--format", fmt, "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and "I/O error" in captured.err

    def test_failure_prints_nothing(self, tmp_path, capsys):
        # the free-flight limit is finite, but the tau grid's errors leave
        # the float range: the run fails before any line reaches stdout
        out = tmp_path / "tau.csv"
        argv = ["tau-opt", "--b1", "1e308", "--dt", "1e10", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "erfc_arg is not finite" in captured.err
        assert not out.exists()

    def test_monotone_tail_without_minimizer(self, tmp_path, capsys):
        out = tmp_path / "tau.json"
        code = main([
            "tau-opt", "--lambda-im", "0", "--format", "json", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "free-flight limit" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["tau0"] is None
        eps = [row["eps_sq"] for row in data["rows"]]
        assert all(a >= b - 1e-15 for a, b in zip(eps, eps[1:]))


class TestTopLevel:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_command(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unwritable_output(self, capsys):
        assert main(["lw", "--out", "/no/such/dir/out.csv"]) == EXIT_IO
        assert "I/O error" in capsys.readouterr().err

    def test_import_loads_no_scipy(self):
        code = "import sys, sgedr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = run_python(code, [], os.getcwd())
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_import_loads_the_traced_modules_and_no_json(self):
        # json is imported where JSON is written, so a CSV command never pays
        # for it; the import alone still loads every module that
        # bench/tracing.py wraps
        code = "import sys, sgedr.cli; print(*sys.modules)"
        done = run_python(code, [], os.getcwd())
        assert done.returncode == 0, done.stderr
        loaded = set(done.stdout.split())
        traced = ("experiment", "gridsim", "measurement", "probe", "sgmodel", "spin", "validation")
        assert {f"sgedr.{m}" for m in traced} <= loaded
        assert "json" not in loaded

    # sizes whose arrays could never be allocated (10^12 points or more)
    @pytest.mark.parametrize("argv", [
        ["lw", "--steps", "1000000000000"],
        ["tau-opt", "--steps", "1000000000000"],
        ["region", "--steps", "1000000000000"],
        ["experiment", "--k-steps", "1000000000000"],
    ])
    def test_row_cap_flag_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        # region writes steps**4 rows, so its cap is isqrt(isqrt(MAX_ROWS)) = 56
        field, low, high = {
            "lw": ("--steps", 2, MAX_ROWS), "tau-opt": ("--steps", 1, MAX_ROWS),
            "region": ("--steps", 1, 56), "experiment": ("K_steps", 1, MAX_ROWS),
        }[argv[0]]
        assert captured.out == ""
        want = f"error: {field} must be an integer in [{low}, {high}], got {argv[2]}\n"
        assert captured.err == want

    # the first np.unique in a process raised its max RSS by 0.46 MB, and
    # np.argsort alone by 0.35 MB, so no command may sort
    @pytest.mark.parametrize("argv, code", [
        (["lw"], EXIT_OK),
        (["region"], EXIT_OK),
        (["region", "--format", "json"], EXIT_OK),
        (["tau-opt"], EXIT_OK),
        (["experiment"], EXIT_VALIDATION),
    ], ids=["lw", "region", "region-json", "tau-opt", "experiment"])
    def test_no_command_sorts(self, argv, code, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a command sorted")

        for name in ("unique", "sort", "argsort"):
            monkeypatch.setattr(np, name, refuse)
        out = ["--out", str(tmp_path / "out")] if argv[0] != "experiment" else []
        assert main(argv + out) == code
        capsys.readouterr()

    def test_row_cap_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("K_steps = 1e20\n")
        assert main(["experiment", "--config", str(cfg)]) == EXIT_VALIDATION
        want = f"error: K_steps must be an integer in [1, {MAX_ROWS}], got 1e+20"
        assert want in capsys.readouterr().err


def run_python(code, args, cwd):
    """python -c code args in a fresh interpreter that imports this sgedr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgedr.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


# main() as the console script and python -m call it; the freeze count goes
# to stderr after the command's own output
WHOLE_PROCESS = (
    "import gc, sys; from sgedr.cli import main; rc = main(); "
    "print('frozen', gc.get_freeze_count(), file=sys.stderr); sys.exit(rc)"
)


class TestWholeProcess:
    """main() with no argv is the whole process and freezes the heap before
    it returns, so that shutdown skips collecting it; main(argv) is a call
    inside some other program and leaves the collector alone."""

    def test_call_with_argv_freezes_nothing(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        assert main(["lw", "--steps", "3", "--out", str(tmp_path / "f.csv")]) == EXIT_OK
        assert main(["lw", "--steps", "1"]) == EXIT_USAGE
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", [
        (["lw", "--steps", "3", "--out", "f.csv"], EXIT_OK),
        (["experiment"], EXIT_VALIDATION),
        (["lw", "--steps", "1"], EXIT_USAGE),
    ])
    def test_whole_process_matches_a_call(self, tmp_path, capsys, monkeypatch, argv, code):
        child, here = tmp_path / "child", tmp_path / "here"
        child.mkdir()
        here.mkdir()
        done = run_python(WHOLE_PROCESS, argv, child)
        *err, frozen = done.stderr.splitlines(keepends=True)
        assert done.returncode == code, done.stderr
        assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0
        monkeypatch.chdir(here)
        assert main(argv) == code
        captured = capsys.readouterr()
        # stdout is flushed at exit and every --out file is whole
        assert (done.stdout, "".join(err)) == (captured.out, captured.err)
        files = {p.name: p.read_bytes() for p in child.iterdir()}
        assert files == {p.name: p.read_bytes() for p in here.iterdir()}


# The writer's route before the row templates: json.dumps of the whole
# payload, and each CSV cell formatted on its own.  _write_table must write
# exactly these bytes.
def reference_json(command, tables, fields):
    return json.dumps({"schema": 1, "command": command, **fields, **json_tables(tables)},
                      indent=2) + "\n"


def json_tables(tables):
    """Each table as json.dumps takes it: a list of row objects."""
    return {
        name: [dict(zip(header, r)) for r in zip(*(c.tolist() for c in columns))]
        for name, (header, columns) in tables.items()
    }


def reference_csv(label, header, columns):
    cells = [
        np.where(c, "1", "0") if c.dtype == bool else map("{:.17g}".format, c.tolist())
        for c in columns
    ]
    lines = map("{}\n".format, map(",".join, zip(*cells)))
    return f"# sgedr {label} schema v1\n{','.join(header)}\n" + "".join(lines)


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-310, 1e308, -1e308, sys.float_info.max, 0.1, 1.0 / 3.0, 1e16, 123456789012345680.0,
]
cell_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()


# nans with other bit patterns than float("nan"): sign, quiet payloads and a
# signalling one; each must still read nan (CSV) or NaN (JSON)
OTHER_NANS = np.array(
    [0xFFF8000000000000, 0x7FF8000000000001, 0xFFF800000000ABCD, 0x7FF0000000000001],
    dtype=np.uint64,
).view(float)


@st.composite
def column(draw, n):
    """A float or bool column of n cells: wide-range random values, with a
    drawn pool of floats (nan, infinities, signed zeros, subnormals, extremes)
    scattered through it.  Float columns may also come shaped like the
    sweeps': a few values tiled or repeated over the column, as a product
    grid repeats them, with -0.0 beside 0.0 and nans of several bit patterns,
    and either kind may be a strided view, as one column of an (N, 2)
    array's .T is."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="bool column"):
        return rng.random(n) < 0.5
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 308, n).astype(float)
    pool = np.array(draw(st.lists(cell_floats, min_size=1, max_size=6), label="pool"))
    where = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]), label="share")
    values[where] = rng.choice(pool, size=int(where.sum()))
    shape = draw(st.sampled_from(["random", "tiled", "repeated"]), label="shape")
    if shape != "random":
        few = np.concatenate([values[:draw(st.integers(1, 64), label="distinct")],
                              [-0.0, 0.0], OTHER_NANS])
        rng.shuffle(few)
        reps = -(-n // len(few))
        values = (np.tile(few, reps) if shape == "tiled" else np.repeat(few, reps))[:n]
    if draw(st.booleans(), label="strided"):
        values = np.stack([values, rng.standard_normal(n)], axis=1).T[0]
    return values


@st.composite
def writer_inputs(draw, broadcast=False):
    """Tables of 1-D columns of one length, or, when broadcast, of columns
    that broadcast to one (a, b, c) shape, as region's do: each is shaped
    (c,), (a, 1, c), (a, b, 1) or (a, b, c)."""
    names = ["rows", *draw(st.lists(st.sampled_from(["boundary", "extra", "t_2"]),
                                    max_size=2, unique=True), label="tables")]
    tables = {}
    for name in names:
        if broadcast:
            a, b, c = draw(st.tuples(*[st.sampled_from([0, 1, 2, 3, 7, 16])] * 3),
                           label=f"{name} shape")
        else:
            n = draw(st.sampled_from([0, 1, 2, 7, 1023, 1024, 1025, 4095, 4096, 4097]),
                     label=f"{name} rows")
        header = draw(st.lists(st.sampled_from(["eps_sq", "eta", "a%d", "q\"x", "é", "t_1"]),
                               min_size=1, max_size=6, unique=True), label=f"{name} header")
        shapes = [
            draw(st.sampled_from([(c,), (a, 1, c), (a, b, 1), (a, b, c)]), label=f"{h} shape")
            for h in header
        ] if broadcast else [(n,)] * len(header)
        tables[name] = (header, tuple(
            draw(column(math.prod(shape))).reshape(shape) for shape in shapes
        ))
    fields = draw(st.dictionaries(st.sampled_from(["tau0", "x", "note"]), field_values,
                                  max_size=3), label="fields")
    return tables, fields


# a field's value: a float, None, a bool, a string (its newlines escaped), or
# a list or dict of them, nested
field_values = st.recursive(
    st.none() | st.booleans() | cell_floats | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


class TestWriteTable:
    """_write_table against the reference route above, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(writer_inputs(), st.booleans())
    # the column's one nan lies past the first block, yet the whole column
    # takes json.dumps's spelling
    @example(({"rows": (["x"], (np.append(np.arange(1024.0), np.nan),))}, {}), False)
    # fields after a table, as experiment's report has them
    @example((
        {"rows": (["x", "b"], (np.array([0.5, np.inf]), np.array([True, False])))},
        {"note": {"a": None, "b": [True, {"c": 1e-300}], "d": {}}, "x": None, "tau0": False},
    ), True)
    def test_json_matches_json_dumps(self, inputs, to_stdout):
        tables, fields = inputs
        want = reference_json("cmd", tables, fields)
        assert write_table_text("json", tables, fields, to_stdout) == {"out": want}
        # _write_json alone, with the fields after the tables
        buf = io.StringIO()
        _write_json(buf, {**tables, **fields})
        assert buf.getvalue() == json.dumps({**json_tables(tables), **fields}, indent=2) + "\n"

    @settings(max_examples=40, deadline=None)
    @given(writer_inputs(), st.booleans())
    def test_csv_matches_per_cell_format(self, inputs, to_stdout):
        tables, _ = inputs
        want = {
            name: reference_csv("cmd" if name == "rows" else f"cmd-{name}", header, columns)
            for name, (header, columns) in tables.items()
        }
        got = write_table_text("csv", tables, {}, to_stdout)
        if to_stdout:
            assert got == {"out": "".join(want.values())}
        else:
            assert got == {
                ("out" if name == "rows" else f"out.{name}.csv"): text
                for name, text in want.items()
            }


    @settings(max_examples=40, deadline=None)
    @given(writer_inputs(broadcast=True), st.booleans())
    def test_broadcast_columns_write_their_full_rows(self, inputs, to_stdout):
        tables, fields = inputs
        full = {
            name: (header, tuple(c.ravel() for c in np.broadcast_arrays(*columns)))
            for name, (header, columns) in tables.items()
        }
        want = reference_json("cmd", full, fields)
        assert write_table_text("json", tables, fields, to_stdout) == {"out": want}
        want = {
            name: reference_csv("cmd" if name == "rows" else f"cmd-{name}", header, columns)
            for name, (header, columns) in full.items()
        }
        got = write_table_text("csv", tables, {}, to_stdout)
        if to_stdout:
            assert got == {"out": "".join(want.values())}
        else:
            assert got == {
                ("out" if name == "rows" else f"out.{name}.csv"): text
                for name, text in want.items()
            }


def write_table_text(fmt, tables, fields, to_stdout):
    """What _write_table writes, as file name -> text ("out" for stdout)."""
    if to_stdout:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            _write_table("-", fmt, "cmd", tables, **fields)
        return {"out": buf.getvalue()}
    with tempfile.TemporaryDirectory() as tmp:
        _write_table(os.path.join(tmp, "out"), fmt, "cmd", tables, **fields)
        return {
            path.name: path.read_bytes().decode() for path in sorted(pathlib.Path(tmp).iterdir())
        }


# Every numeric flag of lw, region, tau-opt, experiment and validate, drawn with nan,
# the infinities, zeros, negative values and the float extremes, and often
# near the defaults, so that runs also get past argument checking.  Size
# flags stay small so each example runs in milliseconds; a size flag given a
# float spelling is a usage error.
flag_float = (
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 5e-324])
    | st.floats(-5.0, 5.0)
    | st.floats()
).map(repr)
flag_size = (
    st.integers(-1, 4).map(str) | st.integers(1, 4).map(str) | flag_float
    # over the row cap, and sizes that could never be allocated
    | st.integers(10**12, 10**30).map(str)
)
flag_range = st.builds("{}:{}".format, flag_float, flag_float) | st.sampled_from(["1", "1:2:3", ""])
flag_k = flag_float | st.floats(0.55, 1.05).map(repr)

COMMAND_FLAGS = {
    "lw": {"--steps": flag_size},
    "region": {
        "--steps": flag_size, "--b1": flag_float, "--lambda-re": flag_range,
        "--lambda-im": flag_range, "--b0": flag_range, "--tau": flag_range,
    },
    "tau-opt": {
        "--lambda-re": flag_float, "--lambda-im": flag_float, "--b1": flag_float,
        "--dt": flag_float, "--steps": flag_size,
    },
    "experiment": {"--k-min": flag_k, "--k-max": flag_k, "--k-steps": flag_size},
    # flag_size draws no power of two >= 256, so the oracle never runs
    "validate": {"--grid-n": flag_size},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)), label="command")
    flags = COMMAND_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True), label="flags")
    # --flag=value, because a value may start with '-'
    argv = [command] + [f"{flag}={draw(flags[flag], label=flag)}" for flag in chosen]
    if command not in ("experiment", "validate"):
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']), label='format')}")
    return argv


class TestArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(argvs())
    # each warned inside numpy's linspace, geomspace or a product past the float range
    @example(["experiment", "--k-max=inf"])
    @example(["region", "--lambda-im=-1e308:1e308", "--steps=2"])
    @example(["region", "--tau=1e308:1.7976931348623157e308"])
    @example(["tau-opt", "--dt=1e308", "--lambda-im=0"])
    # numpy's MemoryError escaped main: sizes past any allocation
    @example(["experiment", "--k-steps=1000000000000"])
    @example(["lw", "--steps=1000000000000"])
    @example(["tau-opt", "--steps=1000000000000"])
    @example(["validate", "--grid-n=1099511627776"])
    # optimal_tau raised OverflowError from Python's float ** at dt^2
    @example(["tau-opt", "--lambda-re=1e-300", "--lambda-im=1e-300", "--dt=1e299"])
    def test_exit_code_without_traceback(self, argv):
        # an exception escaping main is the traceback a user would see;
        # warnings are errors under pytest, so a numpy warning fails too
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
