"""Nonlinear landmark-SLAM observer and its deterministic simulation harness.

The package estimates a vehicle's pose, a fixed landmark map, and the constant
biases on its velocity measurements from body-frame data alone, and ships a
ground-truth simulator plus a scenario-driven runner for studying convergence.
"""

from .geometry import (
    Pose,
    Rotation3,
    Twist,
    hat3,
    project_orthonormal,
    rotation_distance,
    se3_exp,
    so3_exp,
    vee3,
)
from .harness import (
    MetricsRecord,
    StepSnapshot,
    SweepResult,
    compute_metrics,
    csv_header,
    fit_exponential_decay,
    run,
    settling_time,
    sweep,
    trajectory,
    write_csv,
)
from .observer import (
    BiasError,
    DivergenceError,
    GainConfig,
    LandmarkError,
    ObserverState,
    PoseError,
    adaptation_gain,
    bias_error,
    correction_terms,
    error_geometry,
    landmark_errors,
    lyapunov_value,
    observer_step,
    pose_error,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    ScenarioConfig,
    ScenarioError,
    TwistProfile,
    load_scenario,
    reference_scenario,
    scenario_from_dict,
)
from .world import NoiseSpec, SensorBias, SensorFrame, TrueState, sense, true_step

__all__ = [
    "BUILTIN_SCENARIOS",
    "BiasError",
    "DivergenceError",
    "GainConfig",
    "LandmarkError",
    "MetricsRecord",
    "NoiseSpec",
    "ObserverState",
    "Pose",
    "PoseError",
    "Rotation3",
    "ScenarioConfig",
    "ScenarioError",
    "SensorBias",
    "SensorFrame",
    "StepSnapshot",
    "SweepResult",
    "TrueState",
    "Twist",
    "TwistProfile",
    "adaptation_gain",
    "bias_error",
    "compute_metrics",
    "correction_terms",
    "csv_header",
    "error_geometry",
    "fit_exponential_decay",
    "hat3",
    "landmark_errors",
    "load_scenario",
    "lyapunov_value",
    "observer_step",
    "pose_error",
    "project_orthonormal",
    "reference_scenario",
    "rotation_distance",
    "run",
    "scenario_from_dict",
    "se3_exp",
    "sense",
    "settling_time",
    "so3_exp",
    "sweep",
    "trajectory",
    "true_step",
    "vee3",
    "write_csv",
]

__version__ = "0.1.0"
