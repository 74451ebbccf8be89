"""Command-line front end.

Subcommands: lw, region, experiment, validate, tau-opt.  Exit codes:
0 success, 2 validation failure, 3 I/O error, 4 bad arguments.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys
from dataclasses import replace
from itertools import chain

import numpy as np

from . import __version__
from ._arrays import MAX_ROWS, check_count, check_finite
from .experiment import (
    ExperimentConfig1922,
    format_table,
    heisenberg_verdict,
    parse_config,
    reference_checks,
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


def _write_table(
    path: str, fmt: str, command: str, tables: dict, summary: str | None = None, **fields
) -> None:
    """Write a command's tables, each a name mapped to (header, columns).

    A table's columns are arrays that broadcast to one shape, and its rows
    follow that shape in C order, so a column that does not vary along an
    axis is passed, and spelled, without it.
    Every output is opened before anything is written (see _open_outputs),
    then the summary, if any, is printed, then the tables follow.  The
    summary goes to stdout, or to stderr when the tables do ('-'), so that
    stdout holds the tables alone.
    JSON is one payload written by _write_json: schema, command, the extra
    fields, then each table under its name.  CSV writes the "rows" table to
    path and every other table to path.<name>.csv, labelled <command>-<name>;
    on stdout ('-') they follow each other.  CSV floats carry 17 significant
    digits and bools read 1 or 0.
    """
    names = ["rows"] if fmt == "json" else list(tables)
    paths = [path if name == "rows" or path == "-" else f"{path}.{name}.csv" for name in names]
    with contextlib.ExitStack() as stack:
        handles = _open_outputs(stack, paths)
        if summary is not None:
            print(summary, file=sys.stderr if path == "-" else sys.stdout)
        if fmt == "json":
            payload = {"schema": SCHEMA_VERSION, "command": command, **fields, **tables}
            _write_json(handles[0], payload)
            return
        for fh, (name, (header, columns)) in zip(handles, tables.items()):
            label = command if name == "rows" else f"{command}-{name}"
            fh.write(f"# sgedr {label} schema v{SCHEMA_VERSION}\n{','.join(header)}\n")
            seps = [","] * (len(columns) - 1) + ["\n"]
            _write_rows(fh, _table_cells(columns, fmt, [""] * len(columns), seps))


def _write_json(fh, payload: dict) -> None:
    """Write payload and a newline, byte for byte json.dumps(payload, indent=2).

    A (header, columns) tuple value is a table (see _write_table): a list of
    row objects whose cells carry their separators (_spelled), so a block of
    _BLOCK_ROWS rows is one join and json's pure-Python indenting encoder
    never runs over it.  Any other value is json.dumps's, one level in; JSON
    has no tuples, so a record such as a NamedTuple goes in as its _asdict().
    """
    import json  # imported where JSON is written: a CSV command never loads it

    fh.write("{")
    for i, (key, value) in enumerate(payload.items()):
        fh.write(f"{',' if i else ''}\n  {json.dumps(key)}: ")
        if not isinstance(value, tuple):
            # a string spells a newline as \n, so each raw one opens a line
            fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        header, columns = value
        # each cell opens with the "," that ends the line before it, column 0's
        # also with its row's "{"; the last column's cell closes the row's "}"
        opens = [",\n    {\n"] + [",\n"] * (len(header) - 1)
        closes = [""] * (len(header) - 1) + ["\n    }"]
        befores = [f"{o}      {json.dumps(h)}: " for o, h in zip(opens, header)]
        cells = _table_cells(columns, "json", befores, closes)
        if len(cells[0]):  # the first row follows "[" with no ","
            cells[0][0] = "[" + cells[0][0][1:]
            _write_rows(fh, cells)
        fh.write("\n  ]" if len(cells[0]) else "[]")
    fh.write("\n}\n")


# as fast as 4,096 rows per block, but a 4,096-row block of lw's seven float
# columns lifted a command's peak RSS by 0.7 MB over per-row writing
_BLOCK_ROWS = 1024
# a bool column's two cells, True's then False's
_BOOL_CELLS = {"csv": ("1", "0"), "json": ("true", "false")}


def _table_cells(columns, fmt: str, befores: list[str], afters: list[str]) -> list[np.ndarray]:
    """Each column's framed cells, broadcast to the table's shape and
    flattened in C order: one writable 1-D object array per column."""
    shape = np.broadcast_shapes(*map(np.shape, columns))
    return [
        np.broadcast_to(_spelled(c, fmt, b, a), shape).flatten()
        for c, b, a in zip(columns, befores, afters)
    ]


def _spelled(c: np.ndarray, fmt: str, before: str, after: str) -> np.ndarray:
    """Every cell of a column, each framed by before and after, as an object
    array of str in c's shape.  CSV floats take %.17g, JSON floats
    float.__repr__, and a JSON column holding nan or inf takes json.dumps's
    spelling of each value (NaN, Infinity, -Infinity); bools read 1 or 0,
    true or false.

    Every value is spelled, repeated or not: no column is deduplicated by a
    sort.  In a fresh process the first np.unique(x, return_inverse=True)
    of 4,096 floats raised max RSS by 0.46 MB over a bare numpy import, and
    np.argsort alone by 0.35 MB (medians of 7 cold runs, 2-vCPU x86-64 VM);
    every command that writes a table paid it.  The one table whose values
    repeat, region's rows, passes eps^2 and eta^2 over their own axes of the
    product grid (cmd_region), so each distinct value is spelled once.
    """
    if c.dtype == bool:
        framed = np.array([before + cell + after for cell in _BOOL_CELLS[fmt]], dtype=object)
        return np.where(c, framed[:1], framed[1:])
    if fmt == "csv":
        spell = "%.17g".__mod__
    elif np.isfinite(c).all():
        spell = repr
    else:
        import json

        spell = json.dumps
    cells = np.array([before + spell(v) + after for v in c.ravel().tolist()], dtype=object)
    return cells.reshape(c.shape)


def _write_rows(fh, cells) -> None:
    """Write the rows of a table of framed cells, one join per _BLOCK_ROWS rows."""
    for start in range(0, len(cells[0]), _BLOCK_ROWS):
        block = (c[start:start + _BLOCK_ROWS].tolist() for c in cells)
        fh.write("".join(chain.from_iterable(zip(*block))))


def _open_outputs(stack: contextlib.ExitStack, paths: list[str]) -> list:
    """Open every output path on stack, '-' as stdout.  When one cannot be
    opened, the files already opened are closed and removed before the
    OSError propagates: a command that cannot write all its outputs leaves
    none behind and prints nothing."""
    handles = []
    try:
        for path in paths:
            handles.append(sys.stdout if path == "-" else stack.enter_context(open(path, "w")))
    except OSError:
        stack.close()
        for path in paths[:len(handles)]:
            if path != "-":
                os.remove(path)
        raise
    return handles


def _finite_range(spec: str) -> tuple[float, float]:
    """argparse type of a range 'lo:hi' of two finite floats."""
    try:
        bounds = tuple(map(float, spec.split(":")))
    except ValueError:
        bounds = ()
    if len(bounds) != 2 or not all(map(math.isfinite, bounds)):
        raise argparse.ArgumentTypeError(f"range must be lo:hi, two finite numbers; got {spec!r}")
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
    rows = sweep_region(base, lambdas, b0, tau)
    edr = evaluate_edrs(*rows.T, STATE_SY_PLUS, _SZ, _SX)
    tight_ok = edr.tight_lhs <= 4.0 + TIGHT_FLAG_MARGIN
    # the rows are the product grid (lambda, B0, tau): eps^2 does not depend
    # on B0, nor eta^2 on tau, so each is written, and in_region's erfc
    # taken, over its own axes
    shape = (len(lambdas), len(b0), len(tau))
    grid = rows.reshape(*shape, 2)
    eps_sq, eta_sq = grid[:, :1, :, 0], grid[:, :, :1, 1]
    columns = (
        eps_sq, eta_sq, in_region(eps_sq, eta_sq),
        tight_ok.reshape(shape), ~edr.heisenberg_satisfied.reshape(shape),
    )
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
    print(format_table(report) + "\n")
    _write_json(sys.stdout, {
        **report._asdict(), "rows": (report.rows._fields, report.rows),
        "edr_at_min": report.edr_at_min._asdict(), "edr_at_max": report.edr_at_max._asdict(),
        "heisenberg": dict(zip(("product_max", "bound", "violated"), heisenberg_verdict(report))),
    })

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
    # every value is computed, and the output opened, before the first line
    # is printed: inputs that take a value past the float range, or an --out
    # that cannot be opened, print nothing to stdout
    if tau0 is None:
        summary = (
            "no finite minimizer; error decreases toward the free-flight limit\n"
            f"limit eps^2 = {error_sq_limit(p, probe):.17g}"
        )
        tau_grid = np.geomspace(1e-3, 1e3, steps) * p.dt
    else:
        # optimal_tau is finite exactly when its denominator is negative
        summary = (
            f"condition holds: True; tau0 = {tau0:.17g}\n"
            f"eps^2(tau0) = {error_sq(replace(p, tau=tau0), probe):.17g}"
        )
        # a tau0 of 0 spans the grid over ten magnet intervals instead
        tau_grid = np.linspace(0.0, 10.0 * (tau0 or p.dt), steps)
    eps_sq = error_sq(replace(p, tau=check_finite("tau_grid", tau_grid)), probe)
    _write_table(
        args.out, args.format, "tau-opt", {"rows": (["tau", "eps_sq"], (tau_grid, eps_sq))},
        summary=summary, tau0=tau0,
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
