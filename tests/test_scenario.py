"""Scenario files: parsing, defaults, validation messages, the built-in."""

import copy
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slamobs import (
    ScenarioError,
    Twist,
    TwistProfile,
    load_scenario,
    reference_scenario,
    scenario_from_dict,
)

MINIMAL = {
    "duration": 2.0,
    "twist": {"omega": [0.0, 0.0, 0.3], "vel": [1.0, 0.0, 0.0]},
    "landmarks": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "gains": {"k_p": 1.0, "k_w": 2.0, "gamma": 30.0, "alpha": 0.1},
}


def write_scenario(tmp_path, data, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestBuiltin:
    def test_loads_by_name(self):
        config = load_scenario("paper-sec5")
        assert config.name == "paper-sec5"

    def test_reference_values(self):
        config = reference_scenario()
        twist = config.twist_profile.at(0.0)
        assert (twist.omega == np.array([0.0, 0.0, 0.3])).all()
        assert (twist.vel == np.array([2.5, 0.0, 0.0])).all()
        assert (config.initial_pose.position == np.array([0.0, 0.0, 6.0])).all()
        assert (config.initial_pose.rotation.m == np.eye(3)).all()
        expected_landmarks = np.array(
            [[7.0, 7.0, 0.0], [-7.0, 7.0, 0.0], [7.0, -7.0, 0.0], [-7.0, -7.0, 0.0]]
        )
        assert (config.landmarks == expected_landmarks).all()
        assert (config.bias.omega == np.array([0.09, -0.15, -0.1])).all()
        assert (config.bias.vel == np.array([0.09, 0.06, -0.07])).all()
        assert config.bias.landmark is None
        assert (config.gains.alpha == 0.1).all()
        assert (config.gains.gamma == 30.0 * np.eye(3)).all()
        assert config.gains.k_p == 1.0
        assert config.gains.k_w == 2.0
        assert config.dt == 0.001
        assert config.duration == 30.0
        assert config.noise.sigma_omega == config.noise.sigma_v == config.noise.sigma_y == 0.0

    def test_cold_start_estimates(self):
        config = reference_scenario()
        est = config.initial_estimates
        assert (est.r_hat.m == np.eye(3)).all()
        assert (est.p_hat == 0.0).all()
        assert (est.landmarks_hat == 0.0).all()
        assert (est.b_omega_hat == 0.0).all()
        assert (est.b_v_hat == 0.0).all()

    def test_initial_reference_error_norm(self):
        # Cold start against the hover measurement: ||e_1(0)|| = ||[-7,-7,6]||.
        config = reference_scenario()
        from slamobs import TrueState, landmark_errors, sense

        truth = TrueState(config.initial_pose, config.landmarks)
        frame = sense(truth, config.bias, config.noise, config.twist_profile.at(0.0),
                      config.noise.make_rng())
        e = landmark_errors(config.initial_estimates, frame)
        assert np.linalg.norm(e[0]) == pytest.approx(np.sqrt(134.0), rel=1e-12)


class TestLoading:
    def test_minimal_file_with_defaults(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert config.dt == 0.001
        assert config.noise.sigma_omega == 0.0
        assert config.noise.seed == 0
        assert config.name == "case"
        assert (config.initial_pose.rotation.m == np.eye(3)).all()
        assert (config.initial_estimates.landmarks_hat == 0.0).all()
        assert config.count == 3

    def test_full_file_round_trip(self, tmp_path):
        data = dict(MINIMAL)
        data.update(
            {
                "name": "full",
                "dt": 0.01,
                "initial_pose": {"position": [0.5, 0.0, 2.0]},
                "bias": {"omega": [0.01, 0.0, 0.0], "vel": [0.0, 0.02, 0.0]},
                "noise": {"sigma_y": 0.05, "seed": 99},
                "initial_estimates": {
                    "position": [0.1, 0.0, 0.0],
                    "landmarks": [[0.0, 0.0, 0.0]] * 3,
                    "b_omega": [0.0, 0.0, 0.0],
                    "b_v": [0.0, 0.0, 0.0],
                },
            }
        )
        config = load_scenario(write_scenario(tmp_path, data))
        assert config.name == "full"
        assert config.dt == 0.01
        assert config.noise.seed == 99
        assert config.noise.sigma_y == 0.05
        assert (config.bias.omega == np.array([0.01, 0.0, 0.0])).all()
        assert (config.initial_estimates.p_hat == np.array([0.1, 0.0, 0.0])).all()

    def test_alpha_scalar_broadcasts(self, tmp_path):
        config = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert config.gains.alpha.shape == (3,)
        assert (config.gains.alpha == 0.1).all()

    def test_alpha_list_kept(self, tmp_path):
        data = dict(MINIMAL)
        data["gains"] = dict(MINIMAL["gains"], alpha=[0.1, 0.2, 0.3])
        config = load_scenario(write_scenario(tmp_path, data))
        assert (config.gains.alpha == np.array([0.1, 0.2, 0.3])).all()

    def test_gamma_matrix_accepted(self, tmp_path):
        data = dict(MINIMAL)
        data["gains"] = dict(MINIMAL["gains"], gamma=[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
        config = load_scenario(write_scenario(tmp_path, data))
        assert (config.gains.gamma == 2.0 * np.eye(3)).all()

    def test_twist_schedule(self, tmp_path):
        data = dict(MINIMAL)
        del data["twist"]
        data["twist_schedule"] = [
            {"t": 0.0, "omega": [0.0, 0.0, 0.1], "vel": [1.0, 0.0, 0.0]},
            {"t": 1.0, "omega": [0.0, 0.0, -0.1], "vel": [0.0, 1.0, 0.0]},
        ]
        config = load_scenario(write_scenario(tmp_path, data))
        assert config.twist_profile.at(0.5).omega[2] == 0.1
        assert config.twist_profile.at(1.0).omega[2] == -0.1
        assert config.twist_profile.at(5.0).vel[1] == 1.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="neither a built-in"):
            load_scenario(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="could not parse"):
            load_scenario(path)


class TestValidation:
    def test_two_landmarks_rejected(self, tmp_path):
        data = dict(MINIMAL)
        data["landmarks"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        with pytest.raises(ScenarioError, match="at least 3 landmarks"):
            load_scenario(write_scenario(tmp_path, data))

    def test_alpha_count_mismatch(self):
        data = dict(MINIMAL)
        data["gains"] = dict(MINIMAL["gains"], alpha=[0.1, 0.2])
        with pytest.raises(ScenarioError, match="alpha values"):
            scenario_from_dict(data)

    def test_estimate_count_mismatch(self):
        data = dict(MINIMAL, landmarks=MINIMAL["landmarks"] + [[1.0, 1.0, 1.0]])
        data["initial_estimates"] = {"landmarks": [[0.0, 0.0, 0.0]] * 3}
        with pytest.raises(ScenarioError, match="estimates carry 3 landmarks, scenario has 4"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("data", [[], 3, None])
    def test_non_mapping_scenario(self, data):
        with pytest.raises(ScenarioError, match="scenario must be a mapping"):
            scenario_from_dict(data)

    def test_negative_duration(self):
        data = dict(MINIMAL, duration=-1.0)
        with pytest.raises(ScenarioError, match="duration"):
            scenario_from_dict(data)

    def test_nonpositive_dt(self):
        data = dict(MINIMAL, dt=0.0)
        with pytest.raises(ScenarioError, match="dt"):
            scenario_from_dict(data)

    def test_too_large_integer_duration(self):
        # float() overflows, and repr refuses an integer of more than 4,300
        # digits, so the message must not echo it.
        for duration in (10**400, 10**5000):
            with pytest.raises(ScenarioError, match="duration is out of range"):
                scenario_from_dict(dict(MINIMAL, duration=duration))

    def test_too_large_integer_in_a_message(self):
        # The bounded repr of a rejected value must not format an integer of
        # more than 4,300 digits, which repr refuses.
        for data in (
            dict(MINIMAL, landmarks=[[10**5000, "a", 0]] * 3),
            dict(MINIMAL, name=10**5000),
        ):
            with pytest.raises(ScenarioError, match="int of 16610 bits") as info:
                scenario_from_dict(data)
            assert "Exceeds the limit" not in str(info.value)

    def test_step_cap(self):
        data = dict(MINIMAL, duration=1e7, dt=1e-3)
        with pytest.raises(ScenarioError, match="step cap"):
            scenario_from_dict(data)

    def test_unknown_top_level_key(self):
        data = dict(MINIMAL, wind=[1.0, 0.0, 0.0])
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(data)

    def test_unknown_gains_key(self):
        data = dict(MINIMAL)
        data["gains"] = dict(MINIMAL["gains"], kp=1.0)
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(data)

    def test_missing_required_field(self):
        data = dict(MINIMAL)
        del data["gains"]
        with pytest.raises(ScenarioError, match="missing required field 'gains'"):
            scenario_from_dict(data)

    def test_both_twist_forms_rejected(self):
        data = dict(MINIMAL)
        data["twist_schedule"] = [{"t": 0.0, "omega": [0, 0, 0], "vel": [0, 0, 0]}]
        with pytest.raises(ScenarioError, match="exactly one"):
            scenario_from_dict(data)

    def test_nonpositive_gain_reported_with_section(self):
        data = dict(MINIMAL)
        data["gains"] = dict(MINIMAL["gains"], k_p=-1.0)
        with pytest.raises(ScenarioError, match="gains: k_p"):
            scenario_from_dict(data)

    def test_negative_sigma_reported_with_section(self):
        data = dict(MINIMAL, noise={"sigma_y": -0.5})
        with pytest.raises(ScenarioError, match="noise: sigma_y"):
            scenario_from_dict(data)

    def test_landmark_bias_count_mismatch(self):
        data = dict(MINIMAL, bias={"landmark": [[0.0, 0.0, 0.0]] * 4})
        with pytest.raises(ScenarioError, match="landmark bias"):
            scenario_from_dict(data)

    def test_bad_rotation_in_estimates(self):
        data = dict(MINIMAL, initial_estimates={"rotation": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]})
        with pytest.raises(ScenarioError, match="rotation"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("key", ["dt", "duration"])
    def test_non_finite_step_or_duration(self, key, value):
        with pytest.raises(ScenarioError, match=f"{key} must be positive and finite"):
            scenario_from_dict(dict(MINIMAL, **{key: value}))

    def test_infinite_dt_from_file(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(dict(MINIMAL, dt=math.inf)), encoding="utf-8")
        assert "Infinity" in path.read_text(encoding="utf-8")
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(path)

    def test_non_finite_knot_time(self):
        data = dict(MINIMAL)
        del data["twist"]
        data["twist_schedule"] = [
            {"t": 0.0, "omega": [0, 0, 0], "vel": [0, 0, 0]},
            {"t": math.nan, "omega": [0, 0, 1], "vel": [0, 0, 0]},
        ]
        with pytest.raises(ScenarioError, match="finite"):
            scenario_from_dict(data)

    def test_non_mapping_knot(self):
        data = dict(MINIMAL)
        del data["twist"]
        data["twist_schedule"] = [[3]]
        with pytest.raises(ScenarioError, match=r"twist_schedule\[0\] must be a mapping"):
            scenario_from_dict(data)

    def test_knot_without_time(self):
        data = dict(MINIMAL)
        del data["twist"]
        data["twist_schedule"] = [{"omega": [0, 0, 0], "vel": [0, 0, 0]}]
        with pytest.raises(ScenarioError, match=r"twist_schedule\[0\] needs a start time 't'"):
            scenario_from_dict(data)

    @pytest.mark.parametrize(
        "section", ["twist", "bias", "noise", "gains", "initial_pose", "initial_estimates"]
    )
    @pytest.mark.parametrize("value", [[3], 3, "x", None])
    def test_non_mapping_section(self, section, value):
        with pytest.raises(ScenarioError, match=f"{section} must be a mapping"):
            scenario_from_dict(dict(MINIMAL, **{section: value}))

    @pytest.mark.parametrize("seed", [1.7, 2.0, "3", True, None])
    def test_non_integral_seed(self, seed):
        with pytest.raises(ScenarioError, match="noise: seed must be a nonnegative integer"):
            scenario_from_dict(dict(MINIMAL, noise={"seed": seed}))

    @pytest.mark.parametrize("name", [{"a": 1}, 7, None, ["a"]])
    def test_non_string_name(self, name):
        with pytest.raises(ScenarioError, match="name must be a string"):
            scenario_from_dict(dict(MINIMAL, name=name))

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "a\0b"])
    def test_name_that_is_no_file_name(self, name):
        with pytest.raises(ScenarioError, match="usable as a file name"):
            scenario_from_dict(dict(MINIMAL, name=name))

    @pytest.mark.parametrize(
        "landmarks",
        [
            [[1.0, 2.0, 3.0]] * 3,
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [-5.0, -5.0, -5.0]],
            [[0.0, 0.0, 0.0], [1e6, 0.0, 0.0], [2e6, 1e-6, 0.0]],
        ],
        ids=["coincident", "collinear", "nearly-collinear"],
    )
    def test_degenerate_landmarks(self, landmarks):
        with pytest.raises(ScenarioError, match="not collinear"):
            scenario_from_dict(dict(MINIMAL, landmarks=landmarks))

    def test_overflowing_rotation_entry(self):
        data = dict(MINIMAL, initial_pose={"rotation": [[1e308, 0, 0], [0, 1, 0], [0, 0, 1]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="not orthonormal"):
                scenario_from_dict(data)

    @pytest.mark.parametrize(
        "landmarks, loads",
        [
            ([[1e200, 1e200, 0.0], [-1e200, 1e200, 0.0], [1e200, -1e200, 0.0],
              [-1e200, -1e200, 0.0]], True),
            ([[1e-200, 1e-200, 0.0], [-1e-200, 1e-200, 0.0], [1e-200, -1e-200, 0.0],
              [-1e-200, -1e-200, 0.0]], True),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e200]], False),
            ([[1.7e308, 1.7e308, 0.0], [1.7e308, 0.0, 1.7e308], [-1.7e308, 0.0, 0.0]], True),
        ],
        ids=["square-1e200", "square-1e-200", "outlier-1e200", "centroid-overflow"],
    )
    def test_collinearity_rule_is_scale_free(self, landmarks, loads):
        # A square is a square at any scale; beside a coordinate of 1e200 the
        # other two landmarks coincide with the origin in floating point.
        data = dict(MINIMAL, landmarks=landmarks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if loads:
                assert scenario_from_dict(data).count == len(landmarks)
            else:
                with pytest.raises(ScenarioError, match="not collinear"):
                    scenario_from_dict(data)

    def test_non_numeric_landmarks(self):
        with pytest.raises(ScenarioError, match="landmarks must be a number"):
            scenario_from_dict(dict(MINIMAL, landmarks=[[1, "a", 0]] * 3))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "landmarks", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, math.inf]]),
            ("twist", "omega", [0.0, math.nan, 0.0]),
            ("initial_pose", "position", [0.0, 0.0, math.inf]),
            ("bias", "vel", [math.inf, 0.0, 0.0]),
            ("bias", "landmark", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, math.nan, 0.0]]),
            ("noise", "sigma_y", math.inf),
            ("gains", "k_w", math.inf),
            ("gains", "gamma", [[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("gains", "alpha", [0.1, math.inf, 0.1]),
            ("initial_estimates", "landmarks", [[0.0, 0.0, math.inf]] * 3),
            ("initial_estimates", "b_omega", [0.0, -math.inf, 0.0]),
            ("gains", "gamma", math.inf),
        ],
    )
    def test_non_finite_value(self, section, key, value):
        # Checked once at load, so the run loop never meets a non-finite input.
        if section is None:
            data = dict(MINIMAL, **{key: value})
        else:
            data = dict(MINIMAL, **{section: dict(MINIMAL.get(section, {}), **{key: value})})
        with pytest.raises(ScenarioError, match="finite"):
            scenario_from_dict(data)


# A valid file that sets every field; the property test below edits it.
FULL = {
    "name": "full",
    "duration": 1.0,
    "dt": 0.01,
    "twist_schedule": [
        {"t": 0.0, "omega": [0.0, 0.0, 0.3], "vel": [1.0, 0.0, 0.0]},
        {"t": 0.5, "omega": [0.1, 0.0, 0.2], "vel": [0.5, 0.5, 0.0]},
    ],
    "initial_pose": {
        "rotation": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "position": [0.0, 0.0, 1.0],
    },
    "landmarks": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "bias": {"omega": [0.01, 0.0, 0.0], "vel": [0.0, 0.02, 0.0], "landmark": [[0.0] * 3] * 3},
    "noise": {"sigma_omega": 0.0, "sigma_v": 0.0, "sigma_y": 0.05, "seed": 3},
    "gains": {"k_p": 1.0, "k_w": 2.0, "gamma": 30.0, "alpha": 0.1},
    "initial_estimates": {
        "position": [0.1, 0.0, 0.0],
        "landmarks": [[0.0] * 3] * 3,
        "b_omega": [0.0, 0.0, 0.0],
        "b_v": [0.0, 0.0, 0.0],
    },
}


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


# Every location in FULL, plus keys that FULL does not set.
EDIT_PATHS = list(_paths(FULL)) + [("twist",), ("wind",)]

_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_number = (
    st.floats() | st.integers(-3, 3) | st.sampled_from([math.inf, -math.inf, 1e200, -1e308])
)
# Small integer grids make coincident and collinear landmark sets common.
_points = st.lists(
    st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=3, max_size=3), min_size=2, max_size=5
)
_values = _json | _number | st.lists(_number, min_size=3, max_size=3) | _points


@st.composite
def edited_scenarios(draw):
    """FULL with one to three locations replaced by JSON-like values or deleted."""
    data = copy.deepcopy(FULL)
    for path in draw(st.lists(st.sampled_from(EDIT_PATHS), min_size=1, max_size=3)):
        parent = data
        for key in path[:-1]:
            inside = isinstance(parent, dict) and key in parent
            inside = inside or (isinstance(parent, list) and key < len(parent))
            if not inside:
                break
            parent = parent[key]
        else:
            key = path[-1]
            if isinstance(parent, dict) and key in parent and draw(st.integers(0, 4)) == 0:
                del parent[key]
            elif isinstance(parent, dict) or (isinstance(parent, list) and key < len(parent)):
                parent[key] = draw(_values)
    return data


class TestLoadingProperty:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(edited_scenarios())
    def test_loads_or_raises_scenario_error(self, data):
        try:
            config = scenario_from_dict(data)
        except ScenarioError:
            return
        assert isinstance(config.name, str)
        assert math.isfinite(config.dt) and math.isfinite(config.duration)
        assert type(config.noise.seed) is int
        for values in (
            config.landmarks,
            config.bias.omega,
            config.bias.vel,
            config.gains.gamma,
            config.gains.alpha,
            *config.initial_estimates.arrays(),
            [config.noise.sigma_omega, config.noise.sigma_v, config.noise.sigma_y],
            [config.gains.k_p, config.gains.k_w],
        ):
            assert np.isfinite(values).all()
        centered = config.landmarks - config.landmarks.mean(axis=0)
        assert np.linalg.matrix_rank(centered) >= 2

    def test_unedited_file_loads(self):
        assert scenario_from_dict(copy.deepcopy(FULL)).count == 3


class TestTwistProfile:
    def test_constant(self):
        profile = TwistProfile.constant(Twist(np.zeros(3), np.ones(3)))
        assert (profile.at(0.0).vel == 1.0).all()
        assert (profile.at(100.0).vel == 1.0).all()

    def test_knot_lookup_is_zero_order_hold(self):
        a = Twist(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        b = Twist(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        profile = TwistProfile(((0.0, a), (2.0, b)))
        assert profile.at(1.999).vel[0] == 1.0
        assert profile.at(2.0).vel[1] == 1.0

    def test_rejects_empty(self):
        with pytest.raises(ScenarioError, match="at least one knot"):
            TwistProfile(())

    def test_rejects_late_first_knot(self):
        with pytest.raises(ScenarioError, match="t <= 0"):
            TwistProfile(((1.0, Twist.zero()),))

    def test_rejects_unordered_knots(self):
        with pytest.raises(ScenarioError, match="strictly increasing"):
            TwistProfile(((0.0, Twist.zero()), (0.0, Twist.zero())))


class TestOverrides:
    def test_with_overrides_replaces_fields(self):
        config = reference_scenario().with_overrides(dt=1e-4, duration=5.0, seed=7)
        assert config.dt == 1e-4
        assert config.duration == 5.0
        assert config.noise.seed == 7

    def test_with_overrides_revalidates(self):
        with pytest.raises(ScenarioError, match="dt"):
            reference_scenario().with_overrides(dt=-1.0)

    def test_step_count_avoids_float_fuzz(self):
        config = reference_scenario().with_overrides(dt=0.1, duration=1.0)
        assert config.step_count == 10
        assert reference_scenario().step_count == 30000
