"""Command-line behavior: subcommands, outputs, exit codes."""

import json
import warnings

import pytest

from slamobs import csv_header
from slamobs.cli import main

COMPACT_FILE = {
    "name": "cli-case",
    "duration": 0.5,
    "dt": 0.001,
    "twist": {"omega": [0.05, -0.04, 0.3], "vel": [0.4, 0.1, 0.05]},
    "initial_pose": {"position": [0.2, -0.1, 0.8]},
    "landmarks": [
        [1.0, 0.5, 0.0],
        [-1.0, 0.8, 0.1],
        [0.6, -1.0, 0.3],
        [-0.4, -0.7, -0.2],
    ],
    "bias": {"omega": [0.02, -0.03, 0.01], "vel": [0.03, 0.01, -0.02]},
    "gains": {"k_p": 1.0, "k_w": 2.0, "gamma": 30.0, "alpha": 0.1},
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "cli-case.json"
    path.write_text(json.dumps(COMPACT_FILE), encoding="utf-8")
    return path


class TestValidate:
    def test_good_file(self, scenario_file, capsys):
        assert main(["validate", "--scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert "ok: cli-case" in out
        assert "landmarks = 4" in out

    def test_builtin(self, capsys):
        assert main(["validate", "--scenario", "paper-sec5"]) == 0
        assert "ok: paper-sec5" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "none.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invariant_violation(self, tmp_path, capsys):
        bad = dict(COMPACT_FILE, landmarks=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "at least 3 landmarks" in capsys.readouterr().err

    def test_non_mapping_section_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad-bias.json"
        path.write_text(json.dumps(dict(COMPACT_FILE, bias=[3])), encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "bias must be a mapping" in capsys.readouterr().err

    def test_directory_exits_one(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path)]) == 1
        assert "error: could not parse" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 100_000 + "]" * 100_000, "could not parse"),
            (
                json.dumps(dict(COMPACT_FILE, landmarks="@")).replace(
                    '"@"', "[" * 900 + "1.0" + "]" * 900
                ),
                "landmarks must be a number",
            ),
            (
                json.dumps(dict(COMPACT_FILE, initial_pose={"rotation": [[1e308] * 3] * 3})),
                "not orthonormal",
            ),
        ],
        ids=["nested-100000", "landmarks-nested-900", "rotation-1e308"],
    )
    def test_hostile_file_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "hostile.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()[0]) < 200

    @pytest.mark.parametrize(
        "gamma, message",
        [
            (1e-320, "gamma must have a finite inverse"),
            ([[1.0, 1e308, 0.0], [-1e308, 1.0, 0.0], [0.0, 0.0, 1.0]], "gamma must be symmetric"),
        ],
        ids=["subnormal", "opposite-1e308"],
    )
    def test_degenerate_gamma_exits_one(self, tmp_path, capsys, gamma, message):
        # A subnormal gamma has an infinite inverse, so the energy of a run
        # would be NaN; opposite entries near the float limit overflow g - g^T.
        data = dict(COMPACT_FILE, gains=dict(COMPACT_FILE["gains"], gamma=gamma))
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == f"error: gains: {message}\n"


class TestRun:
    def test_writes_csv(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out_dir)])
        assert code == 0
        csv_path = out_dir / "cli-case.csv"
        assert csv_path.exists()
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == csv_header(4)
        # 500 steps, stride 10, final always recorded: 51 rows.
        assert len(lines) == 52
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "final:" in stdout

    def test_overrides_apply(self, scenario_file, tmp_path):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run", "--scenario", str(scenario_file), "--out", str(out_dir),
                "--dt", "0.002", "--duration", "0.1", "--stride", "1",
            ]
        )
        assert code == 0
        lines = (out_dir / "cli-case.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 52  # 50 steps + initial record + header

    def test_seed_changes_noisy_run(self, tmp_path):
        data = dict(COMPACT_FILE, name="noisy", noise={"sigma_y": 0.1, "seed": 1})
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--scenario", str(path), "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(path), "--out", str(out_b),
                     "--seed", "2"]) == 0
        csv_a = (out_a / "noisy.csv").read_bytes()
        csv_b = (out_b / "noisy.csv").read_bytes()
        assert csv_a != csv_b

    def test_same_config_bit_identical(self, scenario_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_b)]) == 0
        assert (out_a / "cli-case.csv").read_bytes() == (out_b / "cli-case.csv").read_bytes()

    def test_divergent_run_exits_two(self, tmp_path, capsys):
        # Landmark estimates about 170 m off make dt * psi_i > 2 at dt = 1e-3:
        # the landmark update overshoots and the run aborts.
        path = tmp_path / "far-landmarks.json"
        far = dict(COMPACT_FILE, initial_estimates={"landmarks": [[100.0] * 3] * 4})
        path.write_text(json.dumps(far), encoding="utf-8")
        code = main(
            [
                "run", "--scenario", str(path), "--out", str(tmp_path),
                "--duration", "10.0",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "aborted" in err and "step" in err

    def test_non_finite_dt_in_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "inf-dt.json"
        path.write_text(json.dumps(dict(COMPACT_FILE, dt=float("inf"))), encoding="utf-8")
        out_dir = tmp_path / "results"
        code = main(["run", "--scenario", str(path), "--out", str(out_dir)])
        assert code == 1
        assert "dt must be positive and finite" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_overflowing_dt_exits_one(self, tmp_path, capsys):
        # A dt whose twist increment overflows is named, not a math domain error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--scenario", "paper-sec5", "--out", str(tmp_path), "--dt", "1e308"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: dt = 1e+308 overflows the twist increment dt * omega, dt * v"
        ]

    @pytest.mark.parametrize("flag", ["--dt", "--duration"])
    def test_non_finite_override_exits_one(self, scenario_file, tmp_path, capsys, flag):
        code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     flag, "nan"])
        assert code == 1
        assert "must be positive and finite" in capsys.readouterr().err

    def test_bad_stride_exits_one(self, scenario_file, tmp_path, capsys):
        code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path),
                     "--stride", "0"])
        assert code == 1
        assert "stride" in capsys.readouterr().err

    def test_out_is_existing_file_exits_one(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
        assert code == 1
        assert "error: could not write" in capsys.readouterr().err

    def test_csv_path_is_a_directory_exits_one(self, scenario_file, tmp_path, capsys):
        (tmp_path / "out" / "cli-case.csv").mkdir(parents=True)
        code = main(["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error: could not write" in capsys.readouterr().err

    def test_unusable_out_fails_before_the_run(self, scenario_file, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("run started although --out cannot be created")

        monkeypatch.setattr("slamobs.cli.run", no_run)
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 1


class TestSweep:
    def test_table_output(self, scenario_file, capsys):
        code = main(["sweep", "--scenario", str(scenario_file), "--axis", "k_p",
                     "--values", "0.5,1.0"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].split() == [
            "axis", "value", "settle_s", "final_max_e", "final_max_perr", "aborted_step"
        ]
        assert len(out) == 3
        assert out[1].split()[0] == "k_p"

    def test_empty_values(self, scenario_file, capsys):
        # A list with no values is a usage mistake, not an empty table.
        for values in ("", ",", " , "):
            code = main(["sweep", "--scenario", str(scenario_file), "--axis", "k_p",
                         "--values", values])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                f"error: --values lists no values (got {values!r})"
            ]

    @pytest.mark.parametrize("value", ["inf", "1e308"])
    def test_out_of_range_gamma_scale_exits_one(self, scenario_file, capsys, value):
        # One error line and no numpy warning from the scaled gamma.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--scenario", str(scenario_file), "--axis", "gamma_scale",
                         "--values", value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: gamma must be finite"]

    def test_overflowing_dt_value_exits_one(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--scenario", "paper-sec5", "--axis", "dt", "--values", "1e308"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: dt = 1e+308 overflows the twist increment dt * omega, dt * v"
        ]

    def test_unknown_axis_exits_one(self, scenario_file, capsys):
        code = main(["sweep", "--scenario", str(scenario_file), "--axis", "bogus",
                     "--values", "1.0"])
        assert code == 1
        assert "unknown sweep axis" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["run", "--out", "somewhere"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "run" in capsys.readouterr().out
