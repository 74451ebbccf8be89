"""Independent output checks for the benchmark's `sgedr` commands.

Every reference is recomputed here with the standard library (`math`), never
with sgedr, numpy or scipy, so a change to the program's numerics cannot move
its own yardstick.  A checker returns the largest relative deviation it saw,
the data rows and bytes the command wrote, and raises `CheckError` on a wrong
exit code, unparsable output or a value outside tolerance.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass

# Outputs are O(1) quantities (eps, eta in [0, 2]; eps^2, eta^2 in [0, 4]).
# Near a zero of the reference (eta at theta = pi/4, the boundary at
# eps^2 in {0, 4}) a relative deviation is meaningless, so deviations are
# taken relative to max(|reference|, DEV_FLOOR).
DEV_FLOOR = 1e-6
# Any formula error moves outputs by far more than this; reordered floating
# point arithmetic moves them by ~1e-14.
RTOL = 1e-9
# `experiment` reports its headline against this 7-digit reference.
PRODUCT_MAX = 0.8257577
PRODUCT_MAX_RTOL = 1e-6
# The four cross-check misses `sgedr experiment` reports by design: the
# published chain rounds to three digits and misprints 1.25*delta_z.
EXPERIMENT_MISSES = frozenset(
    {"1.25*delta_z", "sigma_dt_sq/K^2", "damping_exponent/K^2", "eps_sq(K=0.6)"}
)
# Criterion 4's agreement bound between the grid oracle and the closed forms.
ORACLE_RTOL = 1e-2

SQRT2 = math.sqrt(2.0)


class CheckError(Exception):
    """An output that is missing, malformed or outside tolerance."""


@dataclass
class Outcome:
    """What one `sgedr` command left behind."""

    returncode: int
    stdout_path: str
    stderr_path: str
    out_path: str | None


@dataclass
class Checked:
    max_dev: float
    rows: int
    nbytes: int
    reference_failures: int = 0


def deviation(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), DEV_FLOOR)


class _Max:
    """Running maximum of deviations, raising on the first out of tolerance."""

    def __init__(self) -> None:
        self.value = 0.0

    def close(self, got: float, ref: float, what: str, rtol: float = RTOL) -> None:
        d = deviation(got, ref)
        if not d <= rtol:  # also catches nan
            raise CheckError(f"{what}: got {got!r}, reference {ref!r}")
        self.value = max(self.value, d)


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The points `numpy.linspace(lo, hi, n)` hands the program, in plain floats."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [i * step + lo for i in range(n - 1)] + [hi]


def _erfc_inverse(y: float) -> float:
    """u >= 0 with erfc(u) = y for y in (0, 1], by Newton steps on math.erfc."""
    x = 1.0 - y
    # Winitzki's approximation of erfinv(x) as the starting point
    a = 0.147
    ln = math.log(y * (2.0 - y))
    t = 2.0 / (math.pi * a) + ln / 2.0
    u = math.sqrt(max(math.sqrt(t * t - ln / a) - t, 0.0)) if x > 0.0 else 0.0
    for _ in range(50):
        step = (math.erfc(u) - y) / (-2.0 / math.sqrt(math.pi) * math.exp(-u * u))
        u -= step
        if abs(step) <= 1e-17 * max(u, 1.0):
            break
    return u


def region_bound(eps_sq: float) -> float:
    """exp(-erfinv((2 - eps_sq)/2)^2), solved through erfc to keep the tails exact."""
    y = min(eps_sq, 4.0 - eps_sq) / 2.0
    if y <= 0.0:
        return 0.0
    u = _erfc_inverse(y)
    return math.exp(-u * u)


def _spread_sq(lam_re: float, lam_im: float, t: float) -> float:
    """<(Z + tP)^2> of exp(-lambda z^2) with hbar = m = 1."""
    var_z = 1.0 / (4.0 * lam_re)
    var_p = (lam_re * lam_re + lam_im * lam_im) / lam_re
    anticom = -lam_im / lam_re
    return max(var_z + t * anticom + t * t * var_p, 0.0)


def sg_error_sq(b1: float, lam_re: float, lam_im: float, dt: float, tau: float) -> float:
    """2 erfc(|g0| / (sqrt(2) sigma(dt + tau))), mu = hbar = m = 1."""
    g0 = b1 * dt * (dt / 2.0 + tau)
    return 2.0 * math.erfc(abs(g0) / (SQRT2 * math.sqrt(_spread_sq(lam_re, lam_im, dt + tau))))


def sg_disturbance_sq(b1: float, lam_re: float, lam_im: float, dt: float, b0: float) -> float:
    """2 - 2 exp(-2 (B1 dt)^2 sigma(dt/2)^2) cos(2 dt B0), mu = hbar = m = 1."""
    exponent = 2.0 * (b1 * dt) ** 2 * _spread_sq(lam_re, lam_im, dt / 2.0)
    return 2.0 - 2.0 * math.exp(-exponent) * math.cos(2.0 * dt * b0)


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from exc


def _size(*paths: str | None) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def _read_csv(path: str, columns: tuple[str, ...]) -> list[tuple[float, ...]]:
    """Data rows of an sgedr CSV, selected by column name; comment lines skipped."""
    lines = [line for line in _read_text(path).splitlines() if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
        idx = [header.index(c) for c in columns]
        return [tuple(float(row[i]) for i in idx) for row in reader]
    except (StopIteration, ValueError, IndexError) as exc:
        raise CheckError(f"{path}: malformed CSV ({exc})") from exc


def _read_json(path: str) -> dict:
    try:
        payload = json.loads(_read_text(path))
    except ValueError as exc:
        raise CheckError(f"{path}: unparsable JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise CheckError(f"{path}: JSON payload is not an object")
    return payload


def _json_rows(rows: object, columns: tuple[str, ...], where: str) -> list[tuple[float, ...]]:
    try:
        return [tuple(float(r[c]) for c in columns) for r in rows]  # type: ignore[union-attr]
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckError(f"{where}: malformed JSON rows ({exc})") from exc


def _expect_rc(outcome: Outcome, want: int) -> None:
    if outcome.returncode != want:
        tail = _read_text(outcome.stderr_path)[-300:]
        raise CheckError(f"exit code {outcome.returncode}, expected {want}: {tail!r}")


class LwCheck:
    """`lw`: eps = 2|sin theta|, eta = sqrt(2)|cos theta - sin theta|."""

    COLUMNS = ("theta", "eps", "eta", "eps_sq", "eta_sq", "tight_lhs", "heisenberg_lhs")

    def __init__(self, steps: int) -> None:
        self.thetas = linspace(0.0, math.pi / 2.0, steps)

    def check(self, outcome: Outcome) -> Checked:
        _expect_rc(outcome, 0)
        rows = _read_csv(outcome.out_path, self.COLUMNS)
        if len(rows) != len(self.thetas):
            raise CheckError(f"lw: {len(rows)} rows, expected {len(self.thetas)}")
        m = _Max()
        for want_theta, (theta, eps, eta, eps_sq, eta_sq, tight, heis) in zip(self.thetas, rows):
            m.close(theta, want_theta, "lw theta")
            ref_eps = 2.0 * abs(math.sin(theta))
            ref_eta = SQRT2 * abs(math.cos(theta) - math.sin(theta))
            m.close(eps, ref_eps, f"lw eps at theta={theta}")
            m.close(eta, ref_eta, f"lw eta at theta={theta}")
            m.close(eps_sq, ref_eps**2, f"lw eps_sq at theta={theta}")
            m.close(eta_sq, ref_eta**2, f"lw eta_sq at theta={theta}")
            m.close(tight, (ref_eps**2 - 2.0) ** 2 + (ref_eta**2 - 2.0) ** 2, f"lw tight_lhs at theta={theta}")
            m.close(heis, ref_eps * ref_eta, f"lw heisenberg_lhs at theta={theta}")
        return Checked(m.value, len(rows), _size(outcome.out_path, outcome.stdout_path))


class RegionCheck:
    """`region`: eps^2 and eta^2 per row in itertools.product order, plus the boundary.

    The flags are checked wherever the reference is not within 1e-9 of the
    flag's threshold, where rounding may legitimately decide either way.
    """

    COLUMNS = ("eps_sq", "eta_sq", "in_region", "tight_ok", "heisenberg_violated")
    BCOLUMNS = ("eps_sq", "max_abs_half_two_minus_eta_sq")
    BOUNDARY_POINTS = 1024
    FLAG_MARGIN = 1e-9

    def __init__(self, steps: int, b1: float, lambda_re, lambda_im, b0, tau, fmt: str) -> None:
        self.fmt = fmt
        # (eps^2, eta^2, in_region margin, tight_ok margin, heisenberg margin)
        self.refs: list[tuple[float, float, float, float, float]] = []
        for re_ in linspace(*lambda_re, steps):
            for im in linspace(*lambda_im, steps):
                for b in linspace(*b0, steps):
                    for t in linspace(*tau, steps):
                        e = min(sg_error_sq(b1, re_, im, 1.0, t), 4.0)
                        h = min(max(sg_disturbance_sq(b1, re_, im, 1.0, b), 0.0), 4.0)
                        self.refs.append((
                            e, h,
                            region_bound(e) + 1e-12 - abs(2.0 - h) / 2.0,
                            4.0 + 1e-9 - ((e - 2.0) ** 2 + (h - 2.0) ** 2),
                            1.0 - math.sqrt(e * h),
                        ))
        self.bounds = [(e, region_bound(e)) for e in linspace(0.0, 4.0, self.BOUNDARY_POINTS)]

    def check(self, outcome: Outcome) -> Checked:
        _expect_rc(outcome, 0)
        boundary_path = None
        if self.fmt == "csv":
            rows = _read_csv(outcome.out_path, self.COLUMNS)
            boundary_path = outcome.out_path + ".boundary.csv"
            boundary = _read_csv(boundary_path, self.BCOLUMNS)
        else:
            payload = _read_json(outcome.out_path)
            rows = _json_rows(payload.get("rows"), self.COLUMNS, "region")
            boundary = _json_rows(payload.get("boundary"), self.BCOLUMNS, "region boundary")
        if len(rows) != len(self.refs):
            raise CheckError(f"region: {len(rows)} rows, expected {len(self.refs)}")
        if len(boundary) != len(self.bounds):
            raise CheckError(f"region: {len(boundary)} boundary rows, expected {len(self.bounds)}")
        m = _Max()
        for i, (got, ref) in enumerate(zip(rows, self.refs)):
            m.close(got[0], ref[0], f"region row {i} eps_sq")
            m.close(got[1], ref[1], f"region row {i} eta_sq")
            for name, flag, margin in zip(self.COLUMNS[2:], got[2:], ref[2:]):
                if abs(margin) > self.FLAG_MARGIN and bool(flag) != (margin > 0.0):
                    raise CheckError(f"region row {i}: {name}={flag}, reference margin {margin:.3g}")
        for (e, b), (ref_e, ref_b) in zip(boundary, self.bounds):
            m.close(e, ref_e, "region boundary eps_sq")
            m.close(b, ref_b, f"region boundary at eps_sq={e}")
        return Checked(m.value, len(rows) + len(boundary), _size(outcome.out_path, boundary_path, outcome.stdout_path))


class TauOptCheck:
    """`tau-opt`: the optimal tau, eps^2 there, and the eps^2 rows over [0, 10 tau0]."""

    def __init__(self, lam_re: float, lam_im: float, b1: float, dt: float, steps: int) -> None:
        self.lam_re, self.lam_im, self.b1, self.dt = lam_re, lam_im, b1, dt
        var_z = 1.0 / (4.0 * lam_re)
        var_p = (lam_re * lam_re + lam_im * lam_im) / lam_re
        anticom = -lam_im / lam_re
        denom = anticom + var_p * dt
        if denom >= 0.0:
            raise ValueError("tau-opt inputs must have a finite optimal tau")
        num = 4.0 * var_z + 3.0 * anticom * dt + 2.0 * var_p * dt * dt
        self.tau0 = -num / (2.0 * denom)
        self.taus = linspace(0.0, 10.0 * self.tau0, steps)

    def _eps_sq(self, tau: float) -> float:
        return sg_error_sq(self.b1, self.lam_re, self.lam_im, self.dt, tau)

    def check(self, outcome: Outcome) -> Checked:
        _expect_rc(outcome, 0)
        text = _read_text(outcome.stdout_path)
        tau0 = re.search(r"tau0 = (\S+)", text)
        at_tau0 = re.search(r"eps\^2\(tau0\) = (\S+)", text)
        if not (tau0 and at_tau0):
            raise CheckError(f"tau-opt: no finite tau0 reported: {text[:200]!r}")
        m = _Max()
        m.close(float(tau0.group(1)), self.tau0, "tau-opt tau0")
        m.close(float(at_tau0.group(1)), self._eps_sq(self.tau0), "tau-opt eps^2(tau0)")
        rows = _read_csv(outcome.out_path, ("tau", "eps_sq"))
        if len(rows) != len(self.taus):
            raise CheckError(f"tau-opt: {len(rows)} rows, expected {len(self.taus)}")
        for want_tau, (tau, eps_sq) in zip(self.taus, rows):
            m.close(tau, want_tau, "tau-opt tau")
            m.close(eps_sq, self._eps_sq(tau), f"tau-opt eps_sq at tau={tau}")
        return Checked(m.value, len(rows), _size(outcome.out_path, outcome.stdout_path))


class ExperimentCheck:
    """`experiment`: exit 2 naming exactly the four known misses, the headline, VIOLATED."""

    MISS = re.compile(r"^\s+(\S+): computed .*, reference .*$", re.M)

    def check(self, outcome: Outcome) -> Checked:
        _expect_rc(outcome, 2)
        misses = set(self.MISS.findall(_read_text(outcome.stderr_path)))
        if misses != EXPERIMENT_MISSES:
            raise CheckError(f"experiment: cross-check misses {sorted(misses)}")
        text = _read_text(outcome.stdout_path)
        if "Heisenberg EDR:               VIOLATED" not in text:
            raise CheckError("experiment: Heisenberg verdict is not VIOLATED")
        try:
            report, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
            heisenberg = report["heisenberg"]
            product_max = float(heisenberg["product_max"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckError(f"experiment: unparsable JSON report ({exc})") from exc
        if heisenberg.get("violated") is not True:
            raise CheckError("experiment: JSON report does not say violated")
        m = _Max()
        m.close(product_max, PRODUCT_MAX, "experiment product_max", PRODUCT_MAX_RTOL)
        return Checked(m.value, 0, _size(outcome.stdout_path), reference_failures=len(misses))


class ValidateCheck:
    """`validate`: every case PASS, with each |d eps^2| and |d eta^2| within 1 %."""

    LINE = re.compile(r"\|d eps\^2\|=(\S+) \|d eta\^2\|=(\S+) (PASS|FAIL)$", re.M)
    CASES = 8

    def check(self, outcome: Outcome) -> Checked:
        _expect_rc(outcome, 0)
        found = self.LINE.findall(_read_text(outcome.stdout_path))
        if len(found) != self.CASES:
            raise CheckError(f"validate: {len(found)} case lines, expected {self.CASES}")
        worst = 0.0
        for d_eps, d_eta, status in found:
            d_eps, d_eta = float(d_eps), float(d_eta)
            if status != "PASS" or not (d_eps <= ORACLE_RTOL and d_eta <= ORACLE_RTOL):
                raise CheckError(f"validate: case {status} with |d eps^2|={d_eps}, |d eta^2|={d_eta}")
            worst = max(worst, d_eps, d_eta)
        return Checked(worst, 0, _size(outcome.stdout_path))
