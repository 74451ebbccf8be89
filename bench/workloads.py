"""Workloads: the `sgedr` commands one pass runs, drawn from a seed.

The seed draws the physical inputs inside the domain of the README defaults;
point counts and grid sizes are fixed, so the work per pass does not depend
on the seed.  The program only ever sees the generated argv.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from checks import (
    Checked,
    ExperimentCheck,
    LwCheck,
    Outcome,
    RegionCheck,
    TauOptCheck,
    ValidateCheck,
)


@dataclass(frozen=True)
class Command:
    """One `sgedr` invocation: arguments after `sgedr`, and how to check it.

    `out` names the file passed through `--out`; None for commands that only
    print to stdout.
    """

    args: tuple[str, ...]
    out: str | None
    check: Callable[[Outcome], Checked]

    def argv(self, out_path: str | None) -> list[str]:
        return list(self.args) + (["--out", out_path] if self.out else [])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]


def _num(x: float) -> str:
    return f"{x:.4f}"


def _region_inputs(rng: random.Random) -> tuple[float, dict[str, tuple[float, float]]]:
    """--b1 and the four ranges, each inside the README default's range."""
    b1 = float(_num(rng.uniform(2.0, 4.0)))
    ranges = {
        "lambda-re": (rng.uniform(0.25, 0.5), rng.uniform(3.0, 4.0)),
        "lambda-im": (rng.uniform(-2.0, -1.0), rng.uniform(1.0, 2.0)),
        "b0": (rng.uniform(0.0, 0.25), rng.uniform(1.5, 2.0)),
        "tau": (rng.uniform(0.0, 0.25), rng.uniform(1.5, 2.0)),
    }
    return b1, {k: (float(_num(lo)), float(_num(hi))) for k, (lo, hi) in ranges.items()}


def _region(steps: int, fmt: str, b1: float, ranges: dict[str, tuple[float, float]]) -> Command:
    # `--opt=value` because a range may start with '-'
    args = ["region", "--steps", str(steps), "--format", fmt, f"--b1={_num(b1)}"]
    args += [f"--{k}={_num(lo)}:{_num(hi)}" for k, (lo, hi) in ranges.items()]
    check = RegionCheck(
        steps, b1, ranges["lambda-re"], ranges["lambda-im"], ranges["b0"], ranges["tau"], fmt
    )
    return Command(tuple(args), f"region{steps}.{fmt}", check.check)


def _lw(steps: int) -> Command:
    return Command(("lw", "--steps", str(steps)), f"lw{steps}.csv", LwCheck(steps).check)


def cli_small(seed: int) -> Workload:
    rng = random.Random(seed)
    b1, ranges = _region_inputs(rng)
    lam_re = float(_num(rng.uniform(0.5, 2.0)))
    lam_im = float(_num(rng.uniform(10.0, 30.0)))
    return Workload(
        "cli-small",
        "every subcommand but validate at default sizes: interpreter start and "
        "import dominate, and tau-opt times the scalar error_sq path",
        (
            Command(("experiment",), None, ExperimentCheck().check),
            _lw(101),
            _region(8, "csv", b1, ranges),
            Command(
                ("tau-opt", f"--lambda-re={_num(lam_re)}", f"--lambda-im={_num(lam_im)}"),
                "tau.csv",
                TauOptCheck(lam_re, lam_im, b1=100.0, dt=0.01, steps=200).check,
            ),
        ),
    )


def sweep_large(seed: int) -> Workload:
    b1, ranges = _region_inputs(random.Random(seed))
    return Workload(
        "sweep-large",
        "65,536-point CSV and 20,736-point JSON sweeps and a 2,001-angle q-rms "
        "sweep: batched closed forms, q-rms traces and row serialisation",
        (_region(16, "csv", b1, ranges), _region(12, "json", b1, ranges), _lw(2001)),
    )


def oracle(seed: int) -> Workload:
    # validate has no physical inputs to draw: its eight cases are fixed
    del seed
    return Workload(
        "oracle",
        "grid oracle at n=1024 and n=16384 (working set in L1 and in L2): FFT "
        "stepping, with the oracle's accuracy checked",
        tuple(
            Command(("validate", "--grid-n", str(n)), None, ValidateCheck().check)
            for n in (1024, 16384)
        ),
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "cli-small": cli_small,
    "sweep-large": sweep_large,
    "oracle": oracle,
}
