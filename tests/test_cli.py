import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sgedr
from sgedr.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


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
        assert main(["region", "--lambda-re", "-1:2"]) == EXIT_USAGE
        assert main(["region", "--tau", "-1:0"]) == EXIT_USAGE
        capsys.readouterr()

    def test_rejects_bad_b1(self, capsys):
        assert main(["region", "--b1", "nan"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "B1 must lie in" in captured.err and captured.out == ""

    @pytest.mark.parametrize("spec", ["foo", "1", "1:", "nan:2", "1:2:3"])
    def test_rejects_malformed_range(self, spec, capsys):
        assert main(["region", "--lambda-re", spec]) == EXIT_USAGE
        assert "lambda-re" in capsys.readouterr().err


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

    def test_config_k_checked_when_flags_override_it(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("T = 1600\nK_min = 0.5\n")
        assert main(["experiment", "--config", str(cfg), "--k-min", "0.7"]) == EXIT_VALIDATION
        assert "[0.6, 1.0]" in capsys.readouterr().err

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
        assert "error:" in capsys.readouterr().err


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
        ["--dt-steps", "0"], ["--dt-steps", "-3"],
    ])
    def test_rejects_bad_arguments(self, flags, capsys):
        assert main(["validate", *flags]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert flags[0] in captured.err and captured.out == ""


class TestTauOpt:
    def test_finite_minimizer(self, tmp_path, capsys):
        out = tmp_path / "tau.csv"
        assert main(["tau-opt", "--out", str(out)]) == EXIT_OK
        msg = capsys.readouterr().out
        assert "tau0 =" in msg
        header, rows = read_csv(out)
        assert header == ["tau", "eps_sq"]
        assert len(rows) == 200

    def test_json_payload(self, tmp_path, capsys):
        out = tmp_path / "tau.json"
        assert main(["tau-opt", "--format", "json", "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["tau0"] is not None and data["tau0"] > 0
        eps_at_tau0 = float(text.split("eps^2(tau0) = ")[1].split()[0])
        assert all(row["eps_sq"] >= eps_at_tau0 - 1e-12 for row in data["rows"])

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
        src = os.path.dirname(os.path.dirname(os.path.abspath(sgedr.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        code = "import sys, sgedr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"
