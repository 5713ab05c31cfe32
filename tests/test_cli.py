import json
import math

import numpy as np
import pytest

import sgmc.cli
from sgmc import NonConvergenceError
from sgmc.cli import main

TWO_COLUMN = {"A": [[1.0, 1.0]], "rho": 0.0, "y": [2.0], "lambda": 1.0}
DESCENT = {"A": [[1.0, 1.0]], "rho": 0.0, "y": [1.0], "lambda": 2.0}
ZERO_SIGNAL = {"A": [[1.0, 0.0], [0.0, 1.0]], "rho": 0.2, "y": [0.0, 0.0], "lambda": 1.0}


@pytest.fixture
def instance_file(tmp_path):
    def write(data, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def test_solve_zero_signal(instance_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--instance", instance_file(ZERO_SIGNAL), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["w"] == [0.0] * 4
    assert data["gamma_e"] == 0.0
    assert data["opt_report"]["satisfied"] is True


def test_solve_two_column_indicator(instance_file, tmp_path):
    out = tmp_path / "out.json"
    assert main(["solve", "--instance", instance_file(TWO_COLUMN), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["indicator"] == "++00"
    assert data["beta_e"][0] == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("best", [[0.5, 0.25, 0.0, 0.0], None])
def test_solve_reports_non_convergence(instance_file, tmp_path, monkeypatch, best):
    # the best iterate (zeros when there is none) is written, flagged as
    # not converged, and the exit code is 2
    def stalled(inst, *args, **kwargs):
        w = None if best is None else np.array(best)
        raise NonConvergenceError("saddle solver did not converge", w=w, achieved=0.1)

    monkeypatch.setattr(sgmc.cli, "solve_saddle", stalled)
    out = tmp_path / "out.json"
    assert main(["solve", "--instance", instance_file(TWO_COLUMN), "--out", str(out)]) == 2
    data = json.loads(out.read_text())
    assert data["converged"] is False
    assert data["w"] == (best or [0.0] * 4)
    assert data["opt_report"]["satisfied"] is False


def test_solve_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[1.0')
    assert main(["solve", "--instance", str(bad)]) == 1


def test_solve_rejects_nan_observation(tmp_path):
    # json reads the NaN literal; a NaN y used to give converged: true and
    # a satisfied optimality report for w = [nan, nan, nan, nan]
    path = tmp_path / "nan.json"
    path.write_text('{"A": [[1.0, 1.0]], "rho": 0.0, "y": [NaN], "lambda": 1.0}')
    assert main(["solve", "--instance", str(path)]) == 1


def test_solve_dimension_mismatch(instance_file):
    broken = dict(TWO_COLUMN, y=[1.0, 2.0])
    assert main(["solve", "--instance", instance_file(broken)]) == 1


def test_path_worked_example(instance_file, tmp_path):
    out = tmp_path / "path.json"
    csv_out = tmp_path / "path.csv"
    code = main(
        [
            "path",
            "--instance", instance_file(DESCENT),
            "--delta-lambda", "-1",
            "--t-start", "0",
            "--out", str(out),
            "--csv-out", str(csv_out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    names = [seg["s"] for seg in data["segments"]]
    assert names == ["0000", "++00"]
    assert data["segments"][0]["t_range"][1] == pytest.approx(1.0, abs=1e-9)
    assert data["segments"][1]["t_range"][1] == pytest.approx(2.0, abs=1e-9)
    assert data["truncated"] is False
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0] == "t,lambda,w_0,w_1,w_2,w_3"
    assert len(rows) > 100


def test_path_single_zone_window(instance_file, tmp_path):
    out = tmp_path / "path.json"
    code = main(
        [
            "path",
            "--instance", instance_file(DESCENT),
            "--delta-lambda", "-1",
            "--t-start", "0",
            "--t-end", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["segments"]) == 1


def test_path_monotone_breakpoints_random(instance_file, tmp_path):
    rng = np.random.default_rng(5)
    inst = {
        "A": rng.normal(size=(3, 6)).tolist(),
        "rho": 0.0,
        "y": rng.normal(size=3).tolist(),
        "lambda": 3.0,
    }
    out = tmp_path / "p.json"
    code = main(
        [
            "path",
            "--instance", instance_file(inst),
            "--delta-lambda", "-1",
            "--t-start", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    starts = [seg["t_range"][0] for seg in data["segments"]]
    assert starts == sorted(starts)


def test_path_truncation_exit_code(instance_file, tmp_path):
    out = tmp_path / "p.json"
    code = main(
        [
            "path",
            "--instance", instance_file(DESCENT),
            "--delta-lambda", "-1",
            "--t-start", "0",
            "--max-segments", "1",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert json.loads(out.read_text())["truncated"] is True


@pytest.mark.parametrize(
    "stop, code",
    [
        ("t_end_reached", 0),
        ("unbounded", 0),
        ("lambda_terminus", 0),
        ("max_segments", 3),
        ("unverified_step", 2),
        ("degenerate_interval", 2),
        ("cycle_detected", 2),
    ],
)
def test_path_exit_code_per_stop_reason(instance_file, tmp_path, monkeypatch, stop, code):
    import sgmc.cli
    from sgmc.elars import PathSweepResult

    def fake_sweep(inst, line, s_init, **kwargs):
        return PathSweepResult(segments=(), stop_reason=stop, line=line)

    monkeypatch.setattr(sgmc.cli, "path_sweep", fake_sweep)
    out = tmp_path / "p.json"
    args = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1"]
    assert main(args + ["--out", str(out)]) == code
    assert json.loads(out.read_text())["stop_reason"] == stop


@pytest.mark.parametrize("start", ["++00", "+-00"])
def test_path_invalid_start_exits_1(instance_file, tmp_path, monkeypatch, capsys, start):
    # an indicator whose zone misses the start point, or an incompatible
    # one, is an input error of the sweep
    import sgmc.cli
    from sgmc.model import indicator_from_string

    monkeypatch.setattr(sgmc.cli, "initialize_indicator",
                        lambda *args, **kwargs: indicator_from_string(start))
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--out", str(tmp_path / "p.json")]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "flag, value, named",
    [
        ("--t-end", "nan", "t_end"),
        ("--t-start", "nan", "t_start"),
        ("--delta-lambda", "nan", "line delta_lam"),
        ("--delta-b", "inf,0", "line delta_b"),
    ],
)
def test_path_rejects_non_finite_line_data(instance_file, tmp_path, capsys, flag, value, named):
    # --t-end nan used to sweep to the lambda terminus and exit 0, and a NaN
    # or infinite velocity failed as an invalid start indicator
    args = {"--delta-lambda": "-1", flag: value}
    argv = ["path", "--instance", instance_file(DESCENT), "--out", str(tmp_path / "p.json")]
    for name, text in args.items():
        argv += [f"{name}={text}"]
    assert main(argv) == 1
    assert named in capsys.readouterr().err


def test_path_rejects_window_ending_before_start(instance_file, tmp_path, capsys):
    # it used to exit 0 with no segments and stop t_end_reached
    inst = {"A": [[1.0, 1.0]], "rho": 0.5, "y": [1.0], "lambda": 2.0}
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(inst), "--delta-lambda", "-1",
            "--t-start", "0", "--t-end", "-1", "--out", str(out)]
    assert main(argv) == 1
    assert "t_end must not lie before t_start" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_two_column(instance_file, tmp_path):
    out = tmp_path / "graph.json"
    code = main(
        [
            "enumerate",
            "--instance", instance_file(TWO_COLUMN),
            "--r-y", "5",
            "--delta-lambda-min", "0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["nodes"] == ["++00", "--00", "0000"]
    assert data["coverage"]["covered"] == data["coverage"]["required"]
    assert data["incomplete"] is False


@pytest.mark.parametrize("flag", ["--r-y", "--delta-lambda-min"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_enumerate_rejects_invalid_radius(instance_file, flag, value):
    args = {"--r-y": "5", "--delta-lambda-min": "0.1", flag: value}
    argv = ["enumerate", "--instance", instance_file(TWO_COLUMN)]
    for name, text in args.items():
        argv += [name, text]
    assert main(argv) == 1


def test_enumerate_incomplete_graph(instance_file, tmp_path):
    # 4 of this instance's 12 sweeps stop at an unverified step short of
    # their samples, which no other zone holds: 60 of 64 samples covered
    A = np.random.default_rng(2).integers(-1, 2, (2, 3))
    inst = {"A": A.tolist(), "rho": 0.3, "y": [0.0, 0.0], "lambda": 1.0}
    out = tmp_path / "graph.json"
    argv = ["enumerate", "--instance", instance_file(inst), "--r-y", "3",
            "--delta-lambda-min", "0.3", "--out", str(out)]
    assert main(argv) == 3
    data = json.loads(out.read_text())
    assert data["incomplete"] is True
    assert data["coverage"] == {"required": 64, "covered": 60}


def test_enumerate_data_too_small_is_an_input_error(instance_file, tmp_path, capsys):
    # it used to exit 3 with every sweep dropped and no sample covered
    A = np.random.default_rng(1).normal(size=(2, 3)) * 1e-160
    inst = {"A": A.tolist(), "rho": 0.3, "y": [0.0, 0.0], "lambda": 1.0}
    out = tmp_path / "graph.json"
    argv = ["enumerate", "--instance", instance_file(inst), "--r-y", "1e200",
            "--delta-lambda-min", "0.3", "--out", str(out)]
    assert main(argv) == 1
    assert "rescale the data" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 19, 20])
def test_enumerate_covered_graph_is_complete(instance_file, tmp_path, seed):
    # sweeping from b = 0 to each uncovered sample covers all 64 samples of
    # these 3x3 instances with 38 to 97 of the 256 nodes allowed; a search
    # that walked axis rays out of each zone hit max_nodes first on seeds
    # 5, 6, 7, 9, 11, 12, 16, 17, 19 and 20
    A = np.random.default_rng(seed).normal(size=(3, 3))
    inst = {"A": A.tolist(), "rho": 0.3, "y": [0.0] * 3, "lambda": 1.0}
    out = tmp_path / "graph.json"
    argv = ["enumerate", "--instance", instance_file(inst), "--r-y", "3",
            "--delta-lambda-min", "0.3", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["coverage"]["covered"] == data["coverage"]["required"] == 64
    assert data["incomplete"] is False
    assert len(data["nodes"]) < 256


@pytest.mark.parametrize("command, flags, unread", [
    ("solve", [], ["--seed", "1"]),
    ("solve", [], ["--tol", "1e-9"]),
    ("path", ["--delta-lambda", "-1"], ["--tol", "1e-9"]),
    ("verify", [], ["--tol", "1e-9"]),
    ("enumerate", ["--r-y", "5", "--delta-lambda-min", "0.1"], ["--tol", "1e-9"]),
    ("enumerate", ["--r-y", "5", "--delta-lambda-min", "0.1"], ["--max-nodes", "1"]),
    ("path", ["--delta-lambda", "-1"], ["--init", "auto"]),
])
def test_flags_a_command_does_not_read_are_rejected(instance_file, capsys, command, flags,
                                                    unread):
    # solve draws nothing at random, every tolerance is fixed and
    # scale-free, enumerate is bounded by its samples, and path picks its
    # start from the data
    argv = [command, "--instance", instance_file(TWO_COLUMN), *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv + unread)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


def test_deterministic_output_same_seed(instance_file, tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            [
                "enumerate",
                "--instance", instance_file(TWO_COLUMN),
                "--r-y", "5",
                "--delta-lambda-min", "0.1",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1]


def test_verify_two_column(instance_file, capsys):
    assert main(["verify", "--instance", instance_file(TWO_COLUMN)]) == 0
    output = capsys.readouterr().out
    assert "FAIL" not in output
    assert "saddle_optimality" in output


def test_verify_random_deterministic(instance_file, tmp_path):
    rng = np.random.default_rng(4)
    inst = {
        "A": rng.normal(size=(4, 8)).tolist(),
        "rho": 0.3,
        "y": rng.normal(size=4).tolist(),
        "lambda": 1.0,
    }
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(
            ["verify", "--instance", instance_file(inst), "--seed", "3", "--out", str(out)]
        ) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 1.0, 1e8])
def test_verify_is_scale_free(instance_file, capsys, alpha):
    # y and lambda scaled together: at 1e-8 the saddle oracle's absolute stop
    # changed the encoded indicator, at 1e8 the absolute bounds on w jumps
    # and on beta_e and gamma_e failed, and at 1e-8 and 1e-4 an interior
    # margin absolute below lambda = 1 skipped the min-norm comparison
    rng = np.random.default_rng(0)
    A, y = rng.normal(size=(6, 12)), rng.normal(size=6)
    lam = 0.3 * float(np.abs(A.T @ y).max())
    inst = {"A": A.tolist(), "rho": 0.3, "y": (alpha * y).tolist(), "lambda": alpha * lam}
    assert main(["verify", "--instance", instance_file(inst)]) == 0
    output = capsys.readouterr().out
    assert "FAIL" not in output
    min_norm = next(line for line in output.splitlines() if "min_norm_agreement" in line)
    assert "relative gap" in min_norm


def test_verify_detects_corrupted_segments(instance_file, tmp_path, capsys):
    inst_path = instance_file(DESCENT)
    path_out = tmp_path / "path.json"
    main(
        [
            "path",
            "--instance", inst_path,
            "--delta-lambda", "-1",
            "--t-start", "0",
            "--out", str(path_out),
        ]
    )
    data = json.loads(path_out.read_text())
    data["segments"][1]["q"] = [v + 0.25 for v in data["segments"][1]["q"]]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(data))
    code = main(["verify", "--instance", inst_path, "--segments", str(corrupted)])
    assert code == 2
    output = capsys.readouterr().out
    assert "FAIL" in output
    assert "segments" in output


def test_verify_fails_nan_segments(instance_file, tmp_path, capsys):
    inst_path = instance_file(DESCENT)
    path_out = tmp_path / "path.json"
    main(["path", "--instance", inst_path, "--delta-lambda", "-1", "--out", str(path_out)])
    data = json.loads(path_out.read_text())
    assert len(data["segments"]) >= 2
    for seg in data["segments"]:
        seg["p"] = seg["q"] = [math.nan] * len(seg["q"])
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps(data))
    assert main(["verify", "--instance", inst_path, "--segments", str(nan_path)]) == 2
    failed = {
        line.split()[1] for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    }
    assert failed == {"segments_continuity", "segments_spot_checks"}


def test_csv_matrix_mode(tmp_path):
    csv = tmp_path / "A.csv"
    csv.write_text("1.0,1.0\n")
    out = tmp_path / "out.json"
    code = main(
        [
            "solve",
            "--matrix-csv", str(csv),
            "--y", "2.0",
            "--lambda", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["indicator"] == "++00"


def test_missing_instance_flags():
    assert main(["solve"]) == 1
