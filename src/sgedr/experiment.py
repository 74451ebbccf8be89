"""Error and disturbance estimate for the 1922 silver-beam experiment.

Ingests the published apparatus geometry and CODATA constants, runs the full
calculation chain (atom mass, beam velocity, collimator posterior, deflection,
error and disturbance), and brackets the result over the resolution scale
factor K in [0.6, 1].
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from ._arrays import check_count, check_finite, check_in, require_in, require_scalar
from .probe import collimator_posterior, sigma_t
from .sgmodel import SGParams, damping_exponent, disturbance_sq, erfc_arg, error_sq, g0
from .spin import STATE_SY_PLUS, EDRReport, PauliObservable, evaluate_edrs

REFERENCE_RTOL = 5e-3
# the range of the collimator's resolution scale factor K (see run_chain)
K_BRACKET = (0.6, 1.0)

# CODATA 2018 (SI units); the chain's constants, which no configuration changes
K_B = 1.380649e-23
N_A = 6.02214076e23
MU_ELECTRON = -9.2847647043e-24
HBAR = 1.054571817e-34


@dataclass(frozen=True)
class ExperimentConfig1922:
    """Apparatus parameters of the 1922 run (SI units) and the K_steps values
    of the collimator's scale factor K spanning [K_min, K_max] (K_min alone
    for one step), each in [0.6, 1.0]; K_steps is a whole number up to
    MAX_ROWS, which a config file gives as a float."""

    T: float = 1500.0
    B1: float = -1.35e3
    L1: float = 3.3e-2
    L2: float = 3.5e-2
    L3: float = 0.0
    d1: float = 6.2e-5
    d2: float = 4.0e-5
    atomic_weight: float = 107.86822
    B0: float = 0.0
    K_min: float = K_BRACKET[0]
    K_max: float = K_BRACKET[1]
    K_steps: float = 2

    def __post_init__(self) -> None:
        # run_chain makes the array of K itself; every field is one value
        require_scalar(self)
        # T > 0: the transit time L2 / v_y is infinite at T = 0
        require_in(self, ("B1", "B0"))
        require_in(self, ("T", "L1", "L2", "d1", "d2", "atomic_weight"), 0.0)
        require_in(self, ("L3",), 0.0, closed=True)
        # linspace keeps every K between the ends, and warns on a nan or inf end
        require_in(self, ("K_min", "K_max"), *K_BRACKET, closed=True)
        check_count("K_steps", self.K_steps, 1)


class KRow(NamedTuple):
    """Chain intermediates at one value of the scale factor K."""

    K: float
    D_p: float
    D_z: float
    var_z: float
    sigma_dt_sq: float
    erfc_arg: float
    damping_exponent: float
    eps_sq: float
    eta_sq: float


class ChainReport(NamedTuple):
    """Every intermediate of the calculation chain plus the per-K table."""

    m: float
    v_y: float
    dt: float
    tau: float
    delta_p: float
    delta_z: float
    g0: float
    rows: tuple[KRow, ...]
    eps_sq_min: float
    eps_sq_max: float
    eta_sq: float
    error_prob_bound: float
    edr_at_min: EDRReport
    edr_at_max: EDRReport


def silver_mass(atomic_weight: float) -> float:
    """Atom mass in kg from the molar mass in g/mol."""
    check_in("atomic_weight", atomic_weight, 0.0)
    return atomic_weight * 1e-3 / N_A


def rms_velocity(T: float, m: float) -> float:
    """Root-mean-square longitudinal velocity sqrt(4 k_B T / m)."""
    check_in("T", T, 0.0, closed=True)
    check_in("m", m, 0.0)
    return float(check_finite("v_y", np.sqrt(4.0 * K_B * T / m)))


# an intermediate past the float range raises a ValueError naming it: v_y
# here, dt and tau in SGParams, D_p, D_z and lambda in collimator_posterior,
# the rest in the closed forms
@np.errstate(all="ignore")
def run_chain(cfg: ExperimentConfig1922) -> ChainReport:
    """Execute the full estimate at the cfg.K_steps values of K spanning
    [cfg.K_min, cfg.K_max], every K in one array pass: each closed form runs
    once over the array of K.

    The collimator's momentum and position resolutions are D = 1.25*K*delta,
    delta the geometric half-width; K in [0.6, 1] brackets the half-widths
    by +-25%.
    """
    K = np.linspace(cfg.K_min, cfg.K_max, int(cfg.K_steps))
    m = silver_mass(cfg.atomic_weight)
    v_y = rms_velocity(cfg.T, m)
    check_in("v_y", v_y, 0.0)  # T > 0, so a zero v_y has underflowed
    dt = cfg.L2 / v_y
    tau = cfg.L3 / v_y
    params = SGParams(mu=MU_ELECTRON, B0=cfg.B0, B1=cfg.B1, mass=m, hbar=HBAR, dt=dt, tau=tau)
    # half widths of the momentum after the collimator and the position after the slit
    delta_p = (cfg.d1 + cfg.d2) / (2.0 * cfg.L1) * m * v_y
    delta_z = cfg.d2 / 2.0
    D_p, D_z = 1.25 * K * delta_p, 1.25 * K * delta_z
    probe = collimator_posterior(D_p, D_z, HBAR)
    eps_sq, eta_sq = error_sq(params, probe), disturbance_sq(params, probe)
    columns = (
        K, D_p, D_z, probe.var_z, np.square(sigma_t(probe, dt + tau, HBAR, m)),
        erfc_arg(params, probe), damping_exponent(params, probe), eps_sq, eta_sq,
    )
    rows = tuple(KRow(*row) for row in zip(*(col.tolist() for col in columns)))

    # each end of the eps^2 interval with the eta^2 of its own K
    low, high = rows[np.argmin(eps_sq)], rows[np.argmax(eps_sq)]
    sz, sx = PauliObservable.z(), PauliObservable.x()
    edr_min = evaluate_edrs(low.eps_sq, low.eta_sq, STATE_SY_PLUS, sz, sx)
    edr_max = evaluate_edrs(high.eps_sq, high.eta_sq, STATE_SY_PLUS, sz, sx)
    return ChainReport(
        m=m, v_y=v_y, dt=dt, tau=tau, delta_p=delta_p, delta_z=delta_z, g0=g0(params),
        rows=rows, eps_sq_min=low.eps_sq, eps_sq_max=high.eps_sq, eta_sq=high.eta_sq,
        error_prob_bound=high.eps_sq / 4.0, edr_at_min=edr_min, edr_at_max=edr_max,
    )


def heisenberg_verdict(report: ChainReport) -> tuple[float, float, bool]:
    """(max error*disturbance product, commutator bound, violated?)."""
    edr = report.edr_at_max
    return edr.heisenberg_lhs, edr.heisenberg_rhs, not edr.heisenberg_satisfied


# printed reference values for cross-checking a default-configuration run;
# K-dependent quantities are compared through their K-independent coefficient.
# intermediates carry 0.5% slack, the eps^2 endpoints 1% (their reference
# chain rounds to 3 significant figures at each step)
_REFERENCE_VALUES: dict[str, tuple[float, float]] = {
    "m": (1.7911939e-25, REFERENCE_RTOL),
    "v_y": (6.80e2, REFERENCE_RTOL),
    "dt": (5.14e-5, REFERENCE_RTOL),
    "1.25*delta_z": (2.50e-6, REFERENCE_RTOL),
    "1.25*delta_p": (2.35e-25, REFERENCE_RTOL),
    "var_z*K^2": (5.03e-20, REFERENCE_RTOL),
    "sigma_dt_sq/K^2": (4.54e-9, REFERENCE_RTOL),
    "g0": (9.26e-5, REFERENCE_RTOL),
    "erfc_arg*K": (0.972, REFERENCE_RTOL),
    "mu*B1*dt/hbar": (6.10e9, REFERENCE_RTOL),
    "damping_exponent/K^2": (8.44e10, REFERENCE_RTOL),
    "eps_sq(K=1)": (3.38e-1, 1e-2),
    "eps_sq(K=0.6)": (4.38e-2, 1e-2),
    "eta_sq": (2.0, 0.0),
}


def reference_checks(report: ChainReport) -> list[tuple[str, float, float, bool]]:
    """Compare a default-config report against the published intermediates.

    Returns (name, computed, expected, within tolerance) per quantity; each
    quantity has its own relative tolerance in _REFERENCE_VALUES.
    """
    cfg = ExperimentConfig1922()
    by_k = {round(r.K, 12): r for r in report.rows}
    any_row = report.rows[0]
    computed = {
        "m": report.m,
        "v_y": report.v_y,
        "dt": report.dt,
        "1.25*delta_z": 1.25 * report.delta_z,
        "1.25*delta_p": 1.25 * report.delta_p,
        "var_z*K^2": any_row.var_z * any_row.K**2,
        "sigma_dt_sq/K^2": any_row.sigma_dt_sq / any_row.K**2,
        "g0": report.g0,
        "erfc_arg*K": any_row.erfc_arg * any_row.K,
        "mu*B1*dt/hbar": abs(MU_ELECTRON * cfg.B1 * report.dt / HBAR),
        "damping_exponent/K^2": any_row.damping_exponent / any_row.K**2,
        "eta_sq": report.eta_sq,
    }
    if 1.0 in by_k:
        computed["eps_sq(K=1)"] = by_k[1.0].eps_sq
    if 0.6 in by_k:
        computed["eps_sq(K=0.6)"] = by_k[0.6].eps_sq
    results = []
    for name, value in computed.items():
        expected, rtol = _REFERENCE_VALUES[name]
        ok = abs(value - expected) <= rtol * abs(expected)
        results.append((name, float(value), expected, ok))
    return results


def report_to_json(report: ChainReport) -> str:
    """The full report and its Heisenberg verdict as indented JSON."""
    import json

    d = report._asdict()
    d["rows"] = [row._asdict() for row in report.rows]
    d["edr_at_min"] = report.edr_at_min._asdict()
    d["edr_at_max"] = report.edr_at_max._asdict()
    product_max, bound, violated = heisenberg_verdict(report)
    d["heisenberg"] = {"product_max": product_max, "bound": bound, "violated": violated}
    return json.dumps(d, indent=2)


def format_table(report: ChainReport) -> str:
    """Human-readable summary mirroring the apparatus table plus results."""
    product_max, bound, violated = heisenberg_verdict(report)
    lines = [
        "quantity                      value",
        "-" * 44,
        f"silver atom mass m            {report.m:.7e} kg",
        f"rms velocity v_y              {report.v_y:.3e} m/s",
        f"transit time dt               {report.dt:.3e} s",
        f"free flight tau               {report.tau:.3e} s",
        f"momentum half-width deltaP    {report.delta_p:.3e} kg*m/s",
        f"position half-width deltaZ    {report.delta_z:.3e} m",
        f"deflection g0                 {report.g0:.3e} m",
        "",
        "  K      erfc arg     eps^2        eta^2",
    ]
    for r in report.rows:
        lines.append(
            f"  {r.K:<6.3f} {r.erfc_arg:<12.4f} {r.eps_sq:<12.4e} {r.eta_sq:.4f}"
        )
    lines += [
        "",
        f"eps^2 interval                [{report.eps_sq_min:.3e}, {report.eps_sq_max:.3e}]",
        f"eta^2                         {report.eta_sq:g}",
        f"error probability             <= {100.0 * report.error_prob_bound:.1f}%",
        f"max eps*eta                   {product_max:.3f} (bound {bound:g})",
        f"Heisenberg EDR:               {'VIOLATED' if violated else 'SATISFIED'}",
    ]
    return "\n".join(lines)


def parse_config(path: str) -> ExperimentConfig1922:
    """Read a key = value config file; unknown keys are an error.

    The keys are ExperimentConfig1922's fields: T, B1, L1, L2, L3, d1, d2,
    atomic_weight, B0, K_min, K_max and K_steps, each given at most once.
    Missing keys fall back to the 1922 defaults.
    """
    cfg_keys = {f.name for f in fields(ExperimentConfig1922)}
    values: dict[str, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            try:
                num = float(val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number {val.strip()!r}") from exc
            if key not in cfg_keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = num
    return ExperimentConfig1922(**values)
