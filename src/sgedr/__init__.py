"""Quantum error-disturbance toolkit for spin-1/2 measurement models."""

from .spin import (
    EDRReport,
    PauliObservable,
    QubitState,
    STATE_SY_PLUS,
    d_quantity,
    evaluate_edrs,
    expectation,
    hat_transform,
    std_dev,
)
from .measurement import (
    MeasuringProcess,
    lund_wiseman,
    lw_sweep,
    qrms_disturbance,
    qrms_error,
)
from .probe import (
    GaussianProbe,
    collimator_posterior,
    moments,
    sigma_t,
)
from .sgmodel import (
    SGParams,
    disturbance_sq,
    error_sq,
    error_sq_limit,
    g0,
    in_region,
    optimal_tau,
    region_bound,
    sweep_region,
)
from .gridsim import (
    Grid1D,
    SpinorField,
    measure_disturbance,
    measure_error,
    propagate,
)
from .experiment import (
    ChainReport,
    ExperimentConfig1922,
    heisenberg_verdict,
    reference_checks,
    rms_velocity,
    run_chain,
    silver_mass,
)

__version__ = "0.1.0"
