"""Scenario configuration: file loading, validation, and the built-in scenario.

A scenario bundles everything a run needs: duration and step size, the true
twist profile, the initial true pose and landmark map, sensor bias and noise,
observer gains, and the initial estimates. Scenario files are JSON with the
same field layout; every optional section has a documented default (zero
noise, dt = 0.001, cold-start estimates, identity initial pose).

Validation failures raise ScenarioError naming the violated rule, so the CLI
can distinguish configuration problems (exit code 1) from runtime aborts.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import Pose, Rotation3, Twist, _as_positive
from .observer import GainConfig, ObserverState, _check_gain_count
from .world import NoiseSpec, SensorBias, _as_landmarks, _check_landmark_bias

DEFAULT_DT = 0.001

# Hard cap on duration / dt; anything above this is a configuration mistake.
MAX_STEPS = 10 ** 8

# The scatter matrix of the centered landmarks must have a second-largest
# eigenvalue above this fraction of its largest (a landmark cloud at least
# about 3e-5 as wide as it is long): the observer needs 3 landmarks that are
# not collinear. The rule is a ratio and so does not depend on the scale of
# the landmarks. The threshold sits far above the eigenvalues' rounding
# error, about 1e-16 of the largest.
COLLINEAR_RTOL = 1e-9

# Bounded repr for echoing file values in messages. No field is more than
# 2-D, so two levels of nesting show any valid shape; deeper lists, long
# lists, long strings and huge integers are elided.
_short = reprlib.Repr()
_short.maxlevel = 2


class ScenarioError(ValueError):
    """A scenario failed to parse or violated a configuration invariant."""


@dataclass(frozen=True)
class TwistProfile:
    """Piecewise-constant twist schedule: (start time, twist) knots.

    The twist at time t is the one of the last knot starting at or before t.
    A single knot at t = 0 expresses the constant-twist case.
    """

    knots: tuple[tuple[float, Twist], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ScenarioError("twist profile needs at least one knot")
        times = [k[0] for k in self.knots]
        if not all(math.isfinite(t) for t in times):
            raise ScenarioError(f"twist knot times must be finite, got {times}")
        if times[0] > 0.0:
            raise ScenarioError(f"first twist knot must start at t <= 0, got t = {times[0]}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScenarioError(f"twist knot times must be strictly increasing, got {times}")

    @staticmethod
    def constant(twist: Twist) -> "TwistProfile":
        return TwistProfile(((0.0, twist),))

    def at(self, t: float) -> Twist:
        current = self.knots[0][1]
        for start, twist in self.knots:
            if start > t:
                break
            current = twist
        return current


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully-validated description of one co-simulation run."""

    duration: float
    twist_profile: TwistProfile
    initial_pose: Pose
    landmarks: np.ndarray
    bias: SensorBias
    gains: GainConfig
    initial_estimates: ObserverState
    noise: NoiseSpec = NoiseSpec()
    dt: float = DEFAULT_DT
    name: str = "scenario"

    def __post_init__(self) -> None:
        # Every rule raises ValueError; one handler re-raises it as a ScenarioError.
        try:
            # The name becomes the CSV file name, so it must be a plain one.
            if not (
                isinstance(self.name, str)
                and self.name not in ("", ".", "..")
                and not any(c in self.name for c in "/\\\0")
            ):
                raise ValueError(
                    f"name must be a string usable as a file name, got {_short.repr(self.name)}"
                )
            for key in ("duration", "dt"):
                object.__setattr__(self, key, _as_positive(getattr(self, key), key))
            if self.duration / self.dt > MAX_STEPS:
                raise ValueError(
                    f"duration / dt = {self.duration / self.dt:.3g} exceeds the "
                    f"step cap of {MAX_STEPS:g}"
                )
            lm = _as_landmarks(self.landmarks)
            n = lm.shape[0]
            # Scaled to a largest coordinate of 1 first, so that neither the
            # centroid nor the scatter overflows or underflows; all-zero
            # landmarks stay zero and are rejected as coincident.
            top = np.abs(lm).max()
            unit = lm / top if top > 0.0 else lm
            centered = unit - unit.mean(axis=0)
            spread = np.linalg.eigvalsh(centered.T @ centered)
            if not spread[1] > COLLINEAR_RTOL * spread[2]:
                raise ValueError(
                    "landmarks must include 3 that are not collinear (coincident or "
                    "collinear landmarks leave the pose unobservable)"
                )
            object.__setattr__(self, "landmarks", lm)
            _check_gain_count(self.gains, n)
            est = self.initial_estimates
            if est.count != n:
                raise ValueError(
                    f"initial estimates carry {est.count} landmarks, scenario has {n}"
                )
            _check_landmark_bias(self.bias, n)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    @property
    def count(self) -> int:
        return self.landmarks.shape[0]

    @property
    def step_count(self) -> int:
        # The 1e-9 slack absorbs float fuzz in duration / dt so that, say,
        # 1.0 / 0.1 counts 10 steps rather than 11.
        return int(math.ceil(self.duration / self.dt - 1e-9))

    def with_overrides(
        self,
        dt: float | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> "ScenarioConfig":
        """Copy with CLI-style overrides applied; validation reruns."""
        config = self
        if dt is not None:
            config = replace(config, dt=dt)
        if duration is not None:
            config = replace(config, duration=duration)
        if seed is not None:
            config = replace(config, noise=replace(config.noise, seed=seed))
        return config


def reference_scenario() -> ScenarioConfig:
    """Built-in reference scenario ("paper-sec5").

    A vehicle circles above four square-corner ground landmarks at constant
    twist, with constant offsets on both velocity measurements, a cold-start
    observer, and no measurement noise.
    """
    n = 4
    return ScenarioConfig(
        name="paper-sec5",
        duration=30.0,
        dt=DEFAULT_DT,
        twist_profile=TwistProfile.constant(
            Twist(np.array([0.0, 0.0, 0.3]), np.array([2.5, 0.0, 0.0]))
        ),
        initial_pose=Pose(Rotation3.identity(), np.array([0.0, 0.0, 6.0])),
        landmarks=np.array(
            [
                [7.0, 7.0, 0.0],
                [-7.0, 7.0, 0.0],
                [7.0, -7.0, 0.0],
                [-7.0, -7.0, 0.0],
            ]
        ),
        bias=SensorBias(
            omega=np.array([0.09, -0.15, -0.1]),
            vel=np.array([0.09, 0.06, -0.07]),
        ),
        noise=NoiseSpec(),
        gains=GainConfig(k_p=1.0, k_w=2.0, gamma=30.0, alpha=np.full(n, 0.1)),
        initial_estimates=ObserverState.cold_start(n),
    )


BUILTIN_SCENARIOS = {"paper-sec5": reference_scenario}


def _section(value, allowed: set[str], where: str) -> dict:
    """value as a mapping that carries only the allowed keys."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(value).__name__}")
    unknown = set(value) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) in {where}: {sorted(unknown)}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_numeric(value, depth: int = 2) -> bool:
    """value is a number or a list of numbers nested at most depth deep; no
    scenario field is more than 2-D."""
    if isinstance(value, list):
        return depth > 0 and all(_is_numeric(v, depth - 1) for v in value)
    return _is_number(value)


def _number(value, where: str) -> float:
    if not _is_number(value):
        raise ScenarioError(f"{where} must be a number, got {_short.repr(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ScenarioError(f"{where} is out of range: {_short.repr(value)}") from exc


def _array(value, where: str) -> np.ndarray:
    """A number or a regularly nested list of numbers, as a float array.

    The only type check of array fields; the value type the array goes into
    checks its shape and finiteness.
    """
    if not _is_numeric(value):
        raise ScenarioError(
            f"{where} must be a number or a list of numbers, got {_short.repr(value)}"
        )
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where} must be a regular array of numbers: {exc}") from exc


def _arrays(section: dict, where: str, **defaults) -> dict:
    """defaults, with each key that section sets replaced by its array."""
    return {
        key: _array(section[key], f"{where}.{key}") if key in section else default
        for key, default in defaults.items()
    }


def _build(where: str, cls, **fields):
    """cls(**fields), with a ValueError re-raised as a ScenarioError naming where."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _twist(entry: dict, where: str) -> Twist:
    _section(entry, {"omega", "vel", "t"}, where)
    if "omega" not in entry or "vel" not in entry:
        raise ScenarioError(f"{where} needs both 'omega' and 'vel'")
    return _build(where, Twist, **_arrays(entry, where, omega=None, vel=None))


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioConfig:
    """Build a validated config from parsed scenario-file contents.

    Any input that does not describe a valid scenario raises ScenarioError.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"scenario must be a mapping, got {type(data).__name__}")
    _section(
        data,
        {
            "name",
            "duration",
            "dt",
            "twist",
            "twist_schedule",
            "initial_pose",
            "landmarks",
            "bias",
            "noise",
            "gains",
            "initial_estimates",
        },
        "scenario",
    )
    for key in ("duration", "landmarks", "gains"):
        if key not in data:
            raise ScenarioError(f"scenario is missing required field '{key}'")

    if ("twist" in data) == ("twist_schedule" in data):
        raise ScenarioError("scenario needs exactly one of 'twist' or 'twist_schedule'")
    if "twist" in data:
        profile = TwistProfile.constant(_twist(data["twist"], "twist"))
    else:
        schedule = data["twist_schedule"]
        if not isinstance(schedule, list) or not schedule:
            raise ScenarioError("twist_schedule must be a non-empty list of knots")
        knots = []
        for i, entry in enumerate(schedule):
            where = f"twist_schedule[{i}]"
            twist = _twist(entry, where)
            if "t" not in entry:
                raise ScenarioError(f"{where} needs a start time 't'")
            knots.append((_number(entry["t"], f"{where}.t"), twist))
        profile = TwistProfile(tuple(knots))

    landmarks = _array(data["landmarks"], "landmarks")
    n = landmarks.shape[0] if landmarks.ndim == 2 else 0

    bias = SensorBias.zero()
    if "bias" in data:
        section = _section(data["bias"], {"omega", "vel", "landmark"}, "bias")
        fields = _arrays(section, "bias", omega=np.zeros(3), vel=np.zeros(3), landmark=None)
        bias = _build("bias", SensorBias, **fields)

    noise = NoiseSpec()
    if "noise" in data:
        section = _section(data["noise"], {"sigma_omega", "sigma_v", "sigma_y", "seed"}, "noise")
        sigmas = {
            key: _number(section[key], f"noise.{key}")
            for key in ("sigma_omega", "sigma_v", "sigma_y")
            if key in section
        }
        noise = _build("noise", NoiseSpec, **sigmas, seed=section.get("seed", 0))

    section = _section(data["gains"], {"k_p", "k_w", "gamma", "alpha"}, "gains")
    for key in ("k_p", "k_w", "gamma", "alpha"):
        if key not in section:
            raise ScenarioError(f"gains is missing required field '{key}'")
    alpha = _array(section["alpha"], "gains.alpha")
    if alpha.shape == ():
        alpha = np.full(n, float(alpha))
    gains = _build(
        "gains",
        GainConfig,
        k_p=_number(section["k_p"], "gains.k_p"),
        k_w=_number(section["k_w"], "gains.k_w"),
        gamma=_array(section["gamma"], "gains.gamma"),
        alpha=alpha,
    )

    estimates = ObserverState.cold_start(max(n, 3))
    if "initial_estimates" in data:
        where = "initial_estimates"
        section = _section(
            data[where], {"rotation", "position", "landmarks", "b_omega", "b_v"}, where
        )
        fields = _arrays(
            section,
            where,
            rotation=np.eye(3),
            position=np.zeros(3),
            landmarks=np.zeros((max(n, 3), 3)),
            b_omega=np.zeros(3),
            b_v=np.zeros(3),
        )
        estimates = _build(
            where,
            ObserverState,
            r_hat=_build(f"{where}.rotation", Rotation3, m=fields["rotation"]),
            p_hat=fields["position"],
            landmarks_hat=fields["landmarks"],
            b_omega_hat=fields["b_omega"],
            b_v_hat=fields["b_v"],
        )

    initial_pose = Pose.identity()
    if "initial_pose" in data:
        where = "initial_pose"
        section = _section(data[where], {"rotation", "position"}, where)
        fields = _arrays(section, where, rotation=np.eye(3), position=np.zeros(3))
        initial_pose = _build(
            where,
            Pose,
            rotation=_build(f"{where}.rotation", Rotation3, m=fields["rotation"]),
            position=fields["position"],
        )

    return ScenarioConfig(
        name=data.get("name", name),
        duration=_number(data["duration"], "duration"),
        dt=_number(data["dt"], "dt") if "dt" in data else DEFAULT_DT,
        twist_profile=profile,
        initial_pose=initial_pose,
        landmarks=landmarks,
        bias=bias,
        noise=noise,
        gains=gains,
        initial_estimates=estimates,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Load a scenario by built-in name or from a JSON file."""
    key = str(path)
    if key in BUILTIN_SCENARIOS:
        return BUILTIN_SCENARIOS[key]()
    file_path = Path(path)
    if not file_path.exists():
        raise ScenarioError(
            f"scenario '{key}' is neither a built-in name "
            f"({', '.join(sorted(BUILTIN_SCENARIOS))}) nor an existing file"
        )
    # OSError: not a readable file (a directory, say); ValueError: bad UTF-8
    # or JSON; RecursionError: JSON nested too deeply for the parser.
    try:
        data = json.loads(file_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ScenarioError(f"could not parse {file_path}: {exc}") from exc
    return scenario_from_dict(data, name=file_path.stem)
