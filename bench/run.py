"""Cold-CLI benchmark of sgedr, end to end and by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

`--trace 0` measures end to end: a closed loop with one client runs the
workload's `sgedr` commands one after another, each as a fresh child process
that writes its outputs to real files.  One pass is discarded as warm-up (it
also compiles the .pyc files), then passes repeat for `--seconds`, with cold
imports and a calibration job timed between commands (see CALIBRATION).
`--trace 1` is a separate run for the per-layer numbers: it replays the same
argv in this process through `sgedr.cli.main(argv)`, with the package's
public functions wrapped from outside (see tracing.py).

Every output is checked against independent references (see checks.py).
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it carries the provenance.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from statistics import fmean, median
from time import perf_counter

from checks import CheckError, Checked, Outcome
from tracing import METRICS, Tracer, tail
from workloads import WORKLOADS, Command, Workload

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

ENTRY = "import sys; from sgedr.cli import main; sys.exit(main())"
# A fixed job that runs no sgedr code: a cold interpreter, the numpy import,
# FFTs and a pure-Python loop.  The 2-vCPU VM this benchmark was built on
# changes speed by up to 40 % over minutes, far beyond any useful bound.
# Timing this job between commands, for CALIBRATION_SHARE of the run,
# measures the host's speed at the time; `setup_s` and `wall_s` are rescaled
# to a host on which the job takes CALIBRATION_REF_S.  Its times are
# bimodal, so their mean without the two extremes estimates that speed more
# steadily than their median.  The unscaled medians are in the provenance line.
CALIBRATION = (
    "import numpy as np\n"
    "a = np.arange(1 << 14) * 1.0\n"
    "for _ in range(150): a = np.fft.ifft(np.fft.fft(a)).real\n"
    "s = 0\n"
    "for i in range(200000): s += i * i % 7\n"
)
CALIBRATION_REF_S = 0.35
CALIBRATION_SHARE = 0.2
SETUP_SHARE = 0.10
IMPORTTIME_SAMPLES = 3
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120.0

# End-to-end metric: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("max_rel_err", "ratio"),
    ("ok_ratio", "ratio"),
)


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class Run:
    """Results gathered over one benchmark run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    max_dev: float = 0.0
    # output digest -> check result or failure message, per command
    cache: dict[tuple[int, str], Checked | str] = field(default_factory=dict)

    def record(self, i: int, cmd: Command, outcome: Outcome, cmd_dir: str) -> Checked | None:
        """Check one command's outputs; identical outputs are checked once."""
        self.attempted += 1
        key = (i, _digest(cmd_dir, outcome.returncode))
        if key not in self.cache:
            try:
                self.cache[key] = cmd.check(outcome)
            except CheckError as exc:
                self.cache[key] = f"sgedr {' '.join(cmd.args)}: {exc}"
        result = self.cache[key]
        if isinstance(result, str):
            self.failures.append(result)
            return None
        self.max_dev = max(self.max_dev, result.max_dev)
        return result


def _digest(cmd_dir: str, returncode: int) -> str:
    h = hashlib.sha256(str(returncode).encode())
    for name in sorted(os.listdir(cmd_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(cmd_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _child_env() -> dict[str, str]:
    # A user's `sgedr` runs with cached bytecode and buffered stdout; the
    # harness's own interpreter settings must not leak into what is timed.
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = SRC
    return env


def _spawn(argv: list[str], cwd: str, stdout: str, stderr: str) -> tuple[int, float, int]:
    """(exit code, wall seconds, max RSS in KiB) of one child process."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=_child_env())
    signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _outcome(cmd: Command, cmd_dir: str, returncode: int) -> Outcome:
    return Outcome(
        returncode,
        os.path.join(cmd_dir, "stdout.txt"),
        os.path.join(cmd_dir, "stderr.txt"),
        os.path.join(cmd_dir, cmd.out) if cmd.out else None,
    )


# -- end to end ------------------------------------------------------------

def cold_pass(workload: Workload, run: Run, workdir: str, between=lambda: None) -> tuple[float, float]:
    """(pass wall seconds, largest child max-RSS in MB) of one cold pass.

    `between` runs before each command, outside the timed commands.
    """
    wall, rss_kib = 0.0, 0
    for i, cmd in enumerate(workload.commands):
        between()
        cmd_dir = _fresh_dir(os.path.join(workdir, f"cmd{i}"))
        rc, seconds, maxrss = _spawn(
            [sys.executable, "-c", ENTRY] + cmd.argv(cmd.out),
            cmd_dir, os.path.join(cmd_dir, "stdout.txt"), os.path.join(cmd_dir, "stderr.txt"),
        )
        wall += seconds
        rss_kib = max(rss_kib, maxrss)
        run.record(i, cmd, _outcome(cmd, cmd_dir, rc), cmd_dir)
    return wall, rss_kib / 1024.0


def cold_python(code: str, workdir: str) -> float:
    """Wall seconds of `python -c code` in a fresh interpreter."""
    rc, seconds, _ = _spawn(
        [sys.executable, "-c", code], workdir,
        os.path.join(workdir, "python.out"), os.path.join(workdir, "python.err"),
    )
    if rc != 0:
        raise SystemExit(f"`python -c {code!r}` failed with exit code {rc}")
    return seconds


def end_to_end(workload: Workload, seconds: float, run: Run, workdir: str) -> tuple[dict, dict]:
    cold_pass(workload, run, workdir)  # warm-up: compiles .pyc, not timed
    # The host's speed drifts, so set-up samples and calibrations are spread
    # evenly over the run, between commands, each taking a fixed share of it.
    setup, walls, rss, calibration = [], [], [], []
    start = perf_counter()

    def between() -> None:
        now = perf_counter() - start
        if sum(calibration) <= CALIBRATION_SHARE * now:
            calibration.append(cold_python(CALIBRATION, workdir))
        if sum(setup) <= SETUP_SHARE * now:
            setup.append(cold_python("import sgedr.cli", workdir))

    elapsed: list[float] = []
    while True:
        t0 = perf_counter()
        wall, peak = cold_pass(workload, run, workdir, between)
        walls.append(wall)
        rss.append(peak)
        elapsed.append(perf_counter() - t0)
        spent = perf_counter() - start
        if len(walls) >= MIN_PASSES and spent + median(elapsed) > seconds:
            break
    host_scale = CALIBRATION_REF_S / fmean(sorted(calibration)[1:-1] or calibration)
    ok = run.attempted - len(run.failures)
    metrics = {
        "setup_s": median(setup) * host_scale,
        "wall_s": median(walls) * host_scale,
        "peak_rss_mb": median(rss),
        "max_rel_err": run.max_dev,
        "ok_ratio": ok / run.attempted,
    }
    samples = {
        "setup_imports": len(setup),
        "passes": len(walls),
        "warmup_passes": 1,
        "calibrations": len(calibration),
        "host_scale": host_scale,
        "unscaled_setup_s": median(setup),
        "unscaled_wall_s": median(walls),
        "pass_walls_s": walls,
        "pass_peak_rss_mb": rss,
        "setup_s_samples": setup,
        "calibration_s_samples": calibration,
    }
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, samples


# -- per layer -------------------------------------------------------------

def _importtime(workdir: str) -> tuple[float, float]:
    """(sgedr, scipy) cumulative import seconds from `python -X importtime`."""
    err = os.path.join(workdir, "importtime.err")
    rc, _, _ = _spawn(
        [sys.executable, "-X", "importtime", "-c", "import sgedr.cli"], workdir,
        os.path.join(workdir, "importtime.out"), err,
    )
    if rc != 0:
        raise SystemExit(f"`python -X importtime -c 'import sgedr.cli'` failed with exit code {rc}")
    line = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")
    pending: dict[int, list] = {}
    with open(err) as fh:
        for text in fh:
            m = line.match(text.rstrip("\n"))
            if not m:
                continue
            level = (len(m.group(3)) - 1) // 2
            node = (m.group(4), int(m.group(2)) * 1e-6, pending.pop(level + 1, []))
            pending.setdefault(level, []).append(node)

    def scipy_time(nodes) -> float:
        return sum(
            cum if name.partition(".")[0] == "scipy" else scipy_time(children)
            for name, cum, children in nodes
        )

    roots = pending.get(0, [])
    sgedr = sum(cum for name, cum, _ in roots if name.partition(".")[0] == "sgedr")
    return sgedr, scipy_time(roots)


def replay_pass(workload: Workload, run: Run, workdir: str, tracer: Tracer | None) -> tuple[float, list[Checked]]:
    """Run the workload's argv through sgedr.cli.main in this process."""
    import sgedr.cli

    checked = []
    wall = 0.0
    for i, cmd in enumerate(workload.commands):
        cmd_dir = _fresh_dir(os.path.join(workdir, f"cmd{i}"))
        os.chdir(cmd_dir)
        try:
            with open("stdout.txt", "w") as out, open("stderr.txt", "w") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                span = None
                if tracer is not None:
                    tracer.request += 1
                    span = tracer.open("cli.main")
                t0 = perf_counter()
                try:
                    rc = sgedr.cli.main(cmd.argv(cmd.out))
                except Exception:  # an uncaught error is a failed command, as in a process
                    traceback.print_exc()
                    rc = 1
                wall += perf_counter() - t0
                if span is not None:
                    tracer.close(span)
        finally:
            os.chdir(ROOT)
        result = run.record(i, cmd, _outcome(cmd, cmd_dir, rc), cmd_dir)
        if result is not None:
            checked.append(result)
    return wall, checked


def per_layer(workload: Workload, seconds: float, run: Run, workdir: str, seed: int) -> tuple[dict, dict]:
    imports = [_importtime(workdir) for _ in range(IMPORTTIME_SAMPLES)]
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    import sgedr.cli

    if not os.path.abspath(sgedr.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sgedr imported from {sgedr.cli.__file__}, not from {SRC}")

    tracer = Tracer()
    replay_pass(workload, run, workdir, None)  # warm-up
    traced, untraced, layer, checks_per_pass = [], [], [], []
    start = perf_counter()
    elapsed: list[float] = []
    while True:
        t0 = perf_counter()
        tracer.begin_pass()
        tracer.install()
        try:
            wall, checked = replay_pass(workload, run, workdir, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layer.append(tracer.pass_metrics(len(tracer.leaves) - 1))
        checks_per_pass.append(checked)
        untraced.append(replay_pass(workload, run, workdir, None)[0])
        elapsed.append(perf_counter() - t0)
        if perf_counter() - start + median(elapsed) > seconds:
            break

    values = {name: median([m[name] for m in layer]) for name in layer[0]}
    values["import.sgedr_s"] = median([s for s, _ in imports])
    values["import.scipy_s"] = median([s for _, s in imports])
    values["cli.rows_out"] = median([sum(c.rows for c in cs) for cs in checks_per_pass])
    values["cli.bytes_out"] = median([sum(c.nbytes for c in cs) for cs in checks_per_pass])
    values["experiment.reference_failures"] = median(
        [sum(c.reference_failures for c in cs) for cs in checks_per_pass]
    )
    walls = tracer.command_walls()
    values["cli.wall_tail_s"], values["cli.wall_tail_pct"] = tail(walls)
    values["cli.wall_samples"] = len(walls)
    values["trace.overhead_s"] = median(traced) - median(untraced)
    samples = {
        "importtime_runs": len(imports),
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "warmup_passes": 1,
        "traced_pass_walls_s": traced,
        "untraced_pass_walls_s": untraced,
        "spans": len(tracer.spans),
    }
    os.makedirs(WORK, exist_ok=True)
    trace_file = os.path.join(WORK, f"trace-{workload.name}-seed{seed}.jsonl")
    tracer.dump(trace_file, {"workload": workload.name, "seed": seed})
    samples["trace_file"] = os.path.relpath(trace_file, ROOT)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}, samples


# -- provenance ------------------------------------------------------------

def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "sgedr")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(workload: Workload, seed: int, trace: int, seconds: float) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "platform": platform.platform(),
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "mode": "in-process replay, traced" if trace else "cold child processes, closed loop, one client",
        "commands": [["sgedr"] + cmd.argv(cmd.out) for cmd in workload.commands],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sgedr", "cli.py")):
        print(f"error: no sgedr sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)

    workload = WORKLOADS[args.workload](args.seed)
    workdir = _fresh_dir(os.path.join(WORK, f"{workload.name}-{os.getpid()}"))
    run = Run()
    try:
        if args.trace:
            metrics, samples = per_layer(workload, args.seconds, run, workdir, args.seed)
        else:
            metrics, samples = end_to_end(workload, args.seconds, run, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(workload, args.seed, args.trace, args.seconds)
    info["samples"] = dict(samples, commands_attempted=run.attempted)
    info["fail_ratio"] = len(run.failures) / run.attempted
    info["failures"] = sorted(set(run.failures))
    print(json.dumps(info))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
