"""Command-line front end.

Subcommands: lw, region, experiment, validate, tau-opt.  Exit codes:
0 success, 2 validation failure, 3 I/O error, 4 bad arguments.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from ._arrays import MAX_ROWS, check_count, check_finite
from .experiment import (
    ExperimentConfig1922,
    format_table,
    parse_config,
    reference_checks,
    report_to_json,
    run_chain,
)
from .gridsim import Grid1D
from .measurement import lw_sweep
from .probe import GaussianProbe
from .sgmodel import (
    SGParams,
    error_sq,
    error_sq_limit,
    in_region,
    optimal_tau,
    region_bound,
    sweep_region,
)
from .spin import STATE_SY_PLUS, PauliObservable, evaluate_edrs
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_USAGE = 4

SCHEMA_VERSION = 1
# region's tight_ok slack; bench/checks.py recomputes the flag with the same margin
TIGHT_FLAG_MARGIN = 1e-9
# the sweeps' EDRs compare an error in sigma_z with a disturbance of sigma_x
_SZ, _SX = PauliObservable.z(), PauliObservable.x()


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise _UsageError(message)


@contextlib.contextmanager
def _flags(prefix: str = ""):
    """Report a ValueError raised inside as bad usage: the flags are checked
    by the code that owns each rule, which names the bad input."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(prefix + str(exc)) from exc


def _write_table(path: str, fmt: str, command: str, tables: dict, **fields) -> None:
    """Write a command's tables, each a name mapped to (header, columns).

    JSON is one payload: schema, command, the extra fields, then each table
    as a list of row objects under its name, byte for byte what
    json.dumps(payload, indent=2) writes.  CSV writes the "rows" table to
    path and every other table to path.<name>.csv, labelled <command>-<name>;
    on stdout ('-') they follow each other.  CSV floats carry 17 significant
    digits and bools read 1 or 0.

    Each cell carries the separators around it (_spelled), so a block of
    _BLOCK_ROWS rows is one join of its cells, and Python's pure-Python
    indenting encoder never runs.
    """
    if fmt == "json":
        head = json.dumps({"schema": SCHEMA_VERSION, "command": command, **fields}, indent=2)
        with _open_out(path) as fh:
            fh.write(head[:-2])  # reopen the object: drop its closing "\n}"
            for name, (header, columns) in tables.items():
                fh.write(f",\n  {json.dumps(name)}: [")
                if len(columns[0]):  # an empty list is "[]"
                    # each cell opens with the "," that ends the line before
                    # it, column 0's also with its row's "{"; the last column's
                    # cell closes the row's "}"
                    opens = [",\n    {\n"] + [",\n"] * (len(header) - 1)
                    closes = [""] * (len(header) - 1) + ["\n    }"]
                    cells = [
                        _spelled(c, fmt, f"{o}      {json.dumps(h)}: ", e)
                        for c, h, o, e in zip(columns, header, opens, closes)
                    ]
                    cells[0][0] = cells[0][0][1:]  # the first row follows "[" with no ","
                    _write_rows(fh, cells)
                    fh.write("\n  ")
                fh.write("]")
            fh.write("\n}\n")
        return
    for name, (header, columns) in tables.items():
        label, out = command, path
        if name != "rows":
            label = f"{command}-{name}"
            out = path if path == "-" else f"{path}.{name}.csv"
        with _open_out(out) as fh:
            fh.write(f"# sgedr {label} schema v{SCHEMA_VERSION}\n{','.join(header)}\n")
            seps = [","] * (len(columns) - 1) + ["\n"]
            _write_rows(fh, [_spelled(c, fmt, "", sep) for c, sep in zip(columns, seps)])


# as fast as 4,096 rows per block, but a 4,096-row block of lw's seven float
# columns lifted a command's peak RSS by 0.7 MB over per-row writing
_BLOCK_ROWS = 1024
# a bool column's cells, looked up by the column's Python bools
_BOOL_CELLS = {"csv": {True: "1", False: "0"}, "json": {True: "true", False: "false"}}


def _spelled(c: np.ndarray, fmt: str, before: str, after: str) -> np.ndarray:
    """A column's cells, each framed by before and after, as an object array
    of str.  CSV floats take %.17g, JSON floats float.__repr__, and a JSON
    column holding nan or inf takes json.dumps's spelling of each value (NaN,
    Infinity, -Infinity); bools read 1 or 0, true or false.

    Each distinct value is spelled once and its cells gathered from that
    spelling.  Floats are told apart by their bit patterns, so -0.0, 0.0 and
    every nan keep their own spelling.  A product-grid sweep repeats its
    values: in region's rows eps^2 does not depend on B0, nor eta^2 on tau,
    so --steps 16 puts about 4,096 distinct values in each 65,536-row column.
    """
    if c.dtype == bool:
        spell, keys = _BOOL_CELLS[fmt].__getitem__, c
    else:
        keys = c.view(np.int64)
        if fmt == "csv":
            spell = "%.17g".__mod__
        else:
            spell = repr if np.isfinite(c).all() else json.dumps
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(c.dtype).tolist()
    return np.array([before + spell(v) + after for v in values], dtype=object)[inverse]


def _write_rows(fh, cells) -> None:
    """Write the rows of a table of framed cells, one join per _BLOCK_ROWS rows."""
    for start in range(0, len(cells[0]), _BLOCK_ROWS):
        block = (c[start:start + _BLOCK_ROWS].tolist() for c in cells)
        fh.write("".join(chain.from_iterable(zip(*block))))


def _open_out(path: str):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _finite_range(spec: str) -> tuple[float, float]:
    """argparse type of a range 'lo:hi'; a ValueError here is reported as bad usage."""
    lo, _, hi = spec.partition(":")
    bounds = float(lo), float(hi)
    if not all(map(math.isfinite, bounds)):
        raise argparse.ArgumentTypeError(f"range bounds must be finite, got {spec!r}")
    return bounds


@np.errstate(all="ignore")
def _axis(flag: str, bounds: tuple[float, float], steps: int) -> np.ndarray:
    """steps points from lo to hi; linspace overflows, and warns, on a range
    wider than the float range, which raises ValueError naming the flag."""
    axis = np.linspace(*bounds, steps)
    if not np.isfinite(axis).all():
        raise ValueError(f"{flag} range {bounds[0]:g}:{bounds[1]:g} is wider than the float range")
    return axis


def cmd_lw(args) -> int:
    with _flags():
        n = check_count("--steps", args.steps, 2)
    eps_sq, eta_sq = lw_sweep(n).T
    edr = evaluate_edrs(eps_sq, eta_sq, STATE_SY_PLUS, _SZ, _SX)
    header = ["theta", "eps", "eta", "eps_sq", "eta_sq", "tight_lhs", "heisenberg_lhs"]
    columns = (
        np.linspace(0.0, np.pi / 2.0, n), np.sqrt(eps_sq), np.sqrt(eta_sq),
        eps_sq, eta_sq, edr.tight_lhs, edr.heisenberg_lhs,
    )
    _write_table(args.out, args.format, "lw", {"rows": (header, columns)})
    return EXIT_OK


def cmd_region(args) -> int:
    with _flags():
        # the rows are the product grid of four axes of --steps points each
        steps = check_count("--steps", args.steps, 1, math.isqrt(math.isqrt(MAX_ROWS)))
        # each range's least value is checked as the field it sweeps
        GaussianProbe(min(args.lambda_re))
        base = SGParams(mu=1.0, B0=0.0, B1=args.b1, mass=1.0, hbar=1.0, dt=1.0, tau=min(args.tau))
        lambdas = np.add.outer(
            _axis("--lambda-re", args.lambda_re, steps),
            1j * _axis("--lambda-im", args.lambda_im, steps),
        ).ravel()
        b0, tau = _axis("--b0", args.b0, steps), _axis("--tau", args.tau, steps)
    eps_sq, eta_sq = sweep_region(base, lambdas, b0, tau).T
    edr = evaluate_edrs(eps_sq, eta_sq, STATE_SY_PLUS, _SZ, _SX)
    tight_ok = edr.tight_lhs <= 4.0 + TIGHT_FLAG_MARGIN
    columns = (eps_sq, eta_sq, in_region(eps_sq, eta_sq), tight_ok, ~edr.heisenberg_satisfied)
    b_eps_sq = np.linspace(0.0, 4.0, 1024)
    boundary = (b_eps_sq, region_bound(b_eps_sq))
    _write_table(args.out, args.format, "region", {
        "rows": (["eps_sq", "eta_sq", "in_region", "tight_ok", "heisenberg_violated"], columns),
        "boundary": (["eps_sq", "max_abs_half_two_minus_eta_sq"], boundary),
    })
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = ExperimentConfig1922()
    if args.config is not None:
        cfg = parse_config(args.config)
    k_flags = {"K_min": args.k_min, "K_max": args.k_max, "K_steps": args.k_steps}
    with _flags():
        # a flag overrides its key alone, checked as the file's keys are
        cfg = replace(cfg, **{k: v for k, v in k_flags.items() if v is not None})

    report = run_chain(cfg)
    print(format_table(report))
    print()
    print(report_to_json(report))

    if cfg != ExperimentConfig1922(K_min=cfg.K_min, K_max=cfg.K_max, K_steps=cfg.K_steps):
        return EXIT_OK  # reference values only apply to the default apparatus
    checks = reference_checks(report)
    bad = [(name, got, want) for name, got, want, ok in checks if not ok]
    if bad:
        print("\nreference cross-checks FAILED for:", file=sys.stderr)
        for name, got, want in bad:
            print(f"  {name}: computed {got:.6g}, reference {want:.6g}", file=sys.stderr)
        return EXIT_VALIDATION
    print("\nall reference cross-checks passed")
    return EXIT_OK


def cmd_validate(args) -> int:
    with _flags("--grid-n: "):
        Grid1D(args.grid_n, 1.0)  # the grid's own size rule
    results = run_validation(n=args.grid_n)
    all_ok = True
    for r in results:
        p = r.params
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(
            f"lam={r.probe.lam} muB1={p.mu * p.B1} B0={p.B0} tau={p.tau}: "
            f"|d eps^2|={r.eps_rel:.3e} |d eta^2|={r.eta_rel:.3e} {status}"
        )
    return EXIT_OK if all_ok else EXIT_VALIDATION


# the closed forms set their own errstate, so this one covers only the tau
# grid, whose overflow past the float range check_finite names below
@np.errstate(all="ignore")
def cmd_tau_opt(args) -> int:
    with _flags():
        steps = check_count("--steps", args.steps, 1)
        probe = GaussianProbe(args.lambda_re, args.lambda_im)
        p = SGParams(mu=1.0, B0=0.0, B1=args.b1, mass=1.0, hbar=1.0, dt=args.dt)
    tau0 = optimal_tau(p, probe)
    if tau0 is None:
        print("no finite minimizer; error decreases toward the free-flight limit")
        print(f"limit eps^2 = {error_sq_limit(p, probe):.17g}")
        tau_grid = np.geomspace(1e-3, 1e3, steps) * p.dt
    else:
        # optimal_tau is finite exactly when its denominator is negative
        print(f"condition holds: True; tau0 = {tau0:.17g}")
        print(f"eps^2(tau0) = {error_sq(replace(p, tau=tau0), probe):.17g}")
        # a tau0 of 0 spans the grid over ten magnet intervals instead
        tau_grid = np.linspace(0.0, 10.0 * (tau0 or p.dt), steps)
    eps_sq = error_sq(replace(p, tau=check_finite("tau_grid", tau_grid)), probe)
    _write_table(
        args.out, args.format, "tau-opt", {"rows": (["tau", "eps_sq"], (tau_grid, eps_sq))},
        tau0=tau0,
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sgedr", description=__doc__)
    parser.add_argument("--version", action="version", version=f"sgedr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_lw = sub.add_parser("lw", help="CNOT-model error/disturbance sweep over theta")
    p_lw.add_argument("--steps", type=int, default=101)
    add_io(p_lw)
    p_lw.set_defaults(func=cmd_lw)

    p_region = sub.add_parser("region", help="achievable error-disturbance region sweep")
    p_region.add_argument("--steps", type=int, default=8, help="steps per parameter axis")
    p_region.add_argument("--b1", type=float, default=3.0)
    p_region.add_argument("--lambda-re", type=_finite_range, default="0.25:4.0", help="range lo:hi")
    p_region.add_argument("--lambda-im", type=_finite_range, default="-2.0:2.0", help="range lo:hi")
    p_region.add_argument("--b0", type=_finite_range, default="0.0:2.0", help="range lo:hi")
    p_region.add_argument("--tau", type=_finite_range, default="0.0:2.0", help="range lo:hi")
    add_io(p_region)
    p_region.set_defaults(func=cmd_region)

    p_exp = sub.add_parser("experiment", help="1922 experiment calculation chain")
    p_exp.add_argument("--config", default=None, help="key = value config file")
    p_exp.add_argument("--k-min", type=float, default=None)
    p_exp.add_argument("--k-max", type=float, default=None)
    p_exp.add_argument("--k-steps", type=int, default=None)
    p_exp.set_defaults(func=cmd_experiment)

    p_val = sub.add_parser("validate", help="grid oracle vs closed forms")
    p_val.add_argument("--grid-n", type=int, default=1024)
    p_val.set_defaults(func=cmd_validate)

    p_tau = sub.add_parser("tau-opt", help="free-flight time optimization demo")
    p_tau.add_argument("--lambda-re", type=float, default=1.0)
    p_tau.add_argument("--lambda-im", type=float, default=20.0)
    p_tau.add_argument("--b1", type=float, default=100.0)
    p_tau.add_argument("--dt", type=float, default=0.01)
    p_tau.add_argument("--steps", type=int, default=200)
    add_io(p_tau)
    p_tau.set_defaults(func=cmd_tau_opt)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if argv is None:
            # the command is the whole process: frozen, the ~22k objects the
            # imported modules hold skip the interpreter's shutdown collection
            # (atexit handlers and the flush of stdout still run)
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
