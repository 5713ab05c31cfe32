import json
import math

import numpy as np
import pytest

import sgmc.cli
from sgmc import InfeasibleSystemError, NonConvergenceError, ProblemInstance
from sgmc.cli import main
from sgmc.model import indicator_to_string

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


def test_path_along_an_unbounded_ray(instance_file, tmp_path, capsys):
    # y(t) = 2 + t from t = -4 at lambda = 1: --00, then 0000 on [-3, -1],
    # then ++00 for good, so the sweep stops `unbounded` without --t-end
    csv_out = tmp_path / "path.csv"
    argv = ["path", "--instance", instance_file(TWO_COLUMN), "--delta-b", "1.0",
            "--t-start", "-4", "--csv-out", str(csv_out), "--grid", "5"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)  # no --out: the JSON goes to stdout
    assert data["stop_reason"] == "unbounded"
    assert [seg["s"] for seg in data["segments"]] == ["--00", "0000", "++00"]
    last = data["segments"][-1]
    assert last["t_range"][1] == "inf"
    # the CSV cuts the ray one unit past the last segment's start
    rows = csv_out.read_text().splitlines()
    assert len(rows) == 1 + 5
    assert float(rows[-1].split(",")[0]) == pytest.approx(float(last["t_range"][0]) + 1.0)
    segments = tmp_path / "path.json"
    segments.write_text(json.dumps(data))
    code = main(["verify", "--instance", instance_file(TWO_COLUMN), "--segments", str(segments)])
    rows = _verify_rows(capsys.readouterr().out)
    assert code == 0
    assert rows["segments_continuity"] == ("ok", "3 segments")
    assert rows["segments_spot_checks"][0] == "ok"


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


@pytest.mark.parametrize("cap", ["0", "-2"])
def test_path_refuses_a_segment_cap_below_one(instance_file, tmp_path, capsys, cap):
    # such a cap used to stop the sweep before its first segment and exit 3
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--max-segments", cap, "--out", str(out)]
    assert main(argv) == 1
    assert "max_segments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_path_refuses_an_empty_grid(instance_file, tmp_path, capsys, grid):
    # such a grid used to write a CSV of its header alone and exit 0
    out, csv = tmp_path / "p.json", tmp_path / "p.csv"
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--csv-out", str(csv), "--grid", grid, "--out", str(out)]
    assert main(argv) == 1
    assert "--grid" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


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


@pytest.mark.parametrize("start, why", [("--00", "after t_start"), ("+-00", "incompatible")])
def test_path_invalid_start_exits_2(instance_file, tmp_path, monkeypatch, capsys, start, why):
    # below lambda_max the zero zone misses the start; an oracle indicator
    # that path_sweep then refuses, its zone missing the start point or
    # incompatible, is a refused start: exit 2, and the error names it
    import sgmc.cli
    from sgmc.model import indicator_from_string

    monkeypatch.setattr(sgmc.cli, "initialize_indicator",
                        lambda *args, **kwargs: indicator_from_string(start))
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--t-start", "1.5", "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and why in err and "oracle start" in err
    assert not (tmp_path / "p.json").exists()


def test_path_initialization_error_exits_2(instance_file, tmp_path, monkeypatch, capsys):
    # an oracle answer of zeros reads the zero indicator, which
    # initialize_indicator returns unjudged; path_sweep refuses it as the
    # oracle start, and says what failed
    import sgmc.elars

    monkeypatch.setattr(sgmc.elars, "solve_saddle", lambda inst: np.zeros(2 * inst.n))
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--t-start", "1.5", "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: s_init is not a valid zone indicator" in err
    assert "leaves its zone before t_start" in err and "oracle start" in err
    assert not (tmp_path / "p.json").exists()


def test_path_start_in_the_zero_zone_skips_the_oracle(instance_file, tmp_path, monkeypatch):
    # above lambda_max path_sweep accepts the zero zone, and no other start
    # is built or judged before it
    def refuse(*args, **kwargs):
        raise AssertionError("path built a start before path_sweep judged the zero zone")

    monkeypatch.setattr(sgmc.cli, "initialize_indicator", refuse)
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--out", str(out)]
    assert main(argv) == 0
    path = json.loads(out.read_text())
    assert path["stop_reason"] == "lambda_terminus"
    assert path["segments"][0]["s"] == "0000"


def test_path_starts_from_the_oracle_below_lambda_max(instance_file, tmp_path, monkeypatch):
    # at lambda = 0.3 lambda_max the zero zone does not hold the start, so
    # the start indicator is the oracle's, and the descent from there
    # reaches the lambda -> 0 terminus
    rng = np.random.default_rng(7)
    A, y = rng.normal(size=(4, 8)), rng.normal(size=4)
    inst = ProblemInstance(A=A, rho=0.3, y=y, lam=1.0)
    lam = 0.3 * float(np.abs(inst.matrices.ct(inst.b)).max())
    starts = []
    initialize = sgmc.cli.initialize_indicator

    def recording(*args, **kwargs):
        starts.append(initialize(*args, **kwargs))
        return starts[-1]

    monkeypatch.setattr(sgmc.cli, "initialize_indicator", recording)
    data = {"A": A.tolist(), "rho": 0.3, "y": y.tolist(), "lambda": lam}
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(data), "--delta-lambda", "-1",
            "--max-segments", "1000", "--out", str(out)]
    assert main(argv) == 0
    path = json.loads(out.read_text())
    assert path["stop_reason"] == "lambda_terminus"
    assert len(starts) == 1
    assert path["segments"][0]["s"] == indicator_to_string(starts[0]) != "0" * 16


def test_path_refused_oracle_start_exits_2(instance_file, tmp_path, capsys):
    # integer A and y (scripts/families.py's integer(7, 0.8)) at lambda = 2,
    # a breakpoint below lambda_max = 4: the oracle's indicator passes its
    # certificate, but its zone's interval on the line begins after
    # t_start, so path_sweep refuses it.  A refused start of a valid
    # instance is a numerical failure (2), not an input error (1)
    rng = np.random.default_rng(7)
    A = rng.integers(-1, 2, (6, 12))
    data = {"A": A.tolist(), "rho": 0.8, "y": rng.integers(-2, 3, 6).tolist(), "lambda": 2.0}
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(data), "--delta-lambda", "-1",
            "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: s_init is not a valid zone indicator") and "oracle start" in err
    assert not out.exists()


def test_path_y_only_velocity_keeps_r_fixed(instance_file, tmp_path):
    # a --delta-b of length m moves y alone: the line pads it with m zeros
    out = tmp_path / "p.json"
    argv = ["path", "--instance", instance_file(TWO_COLUMN), "--delta-b", "0.5",
            "--t-end", "1", "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    assert data["line"]["delta_b"] == [0.5, 0.0]
    assert data["stop_reason"] == "t_end_reached"


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


def test_path_refuses_an_empty_window(instance_file, tmp_path, capsys):
    # an empty window is no answer: "segments": [], and no CSV at all
    out, csv = tmp_path / "p.json", tmp_path / "p.csv"
    argv = ["path", "--instance", instance_file(DESCENT), "--delta-lambda", "-1",
            "--t-end", "0", "--out", str(out), "--csv-out", str(csv)]
    assert main(argv) == 1
    assert "--t-end must differ from --t-start" in capsys.readouterr().err
    assert not out.exists() and not csv.exists()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_enumerate_refuses_an_empty_coverage_sample(instance_file, tmp_path, capsys, count):
    # an empty sample used to give coverage 0 of 0, "incomplete": false, exit 0
    out = tmp_path / "graph.json"
    argv = ["enumerate", "--instance", instance_file(TWO_COLUMN), "--r-y", "3",
            "--delta-lambda-min", "0.3", "--coverage-samples", count, "--out", str(out)]
    assert main(argv) == 1
    assert "n_coverage" in capsys.readouterr().err
    assert not out.exists()


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


def test_enumerate_sweeps_to_every_sample(instance_file, tmp_path):
    # the longest sweep takes 91 segments, past the 64 that once capped
    # each sweep and left 10 of the 16 samples uncovered (exit 3)
    A = np.random.default_rng(0).normal(size=(30, 60))
    inst = {"A": A.tolist(), "rho": 0.3, "y": [0.0] * 30, "lambda": 1.0}
    out = tmp_path / "graph.json"
    argv = ["enumerate", "--instance", instance_file(inst), "--r-y", "3",
            "--delta-lambda-min", "0.3", "--coverage-samples", "16", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["coverage"] == {"required": 16, "covered": 16}


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
    ("verify", [], ["--seed", "1"]),
    ("enumerate", ["--r-y", "5", "--delta-lambda-min", "0.1"], ["--tol", "1e-9"]),
    ("enumerate", ["--r-y", "5", "--delta-lambda-min", "0.1"], ["--max-nodes", "1"]),
    ("path", ["--delta-lambda", "-1"], ["--init", "auto"]),
])
def test_flags_a_command_does_not_read_are_rejected(instance_file, capsys, command, flags,
                                                    unread):
    # solve draws nothing at random, verify's warm starts are fixed, every
    # tolerance is fixed and scale-free, enumerate is bounded by its
    # samples, and path picks its start from the data
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


def test_verify_zero_signal(instance_file, capsys):
    # y = r = 0: lambda_max is 0, so the path checks have one zone to check
    assert main(["verify", "--instance", instance_file(ZERO_SIGNAL)]) == 0
    output = capsys.readouterr().out
    assert "FAIL" not in output
    assert "zero signal, single zone" in output


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
        assert main(["verify", "--instance", instance_file(inst), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_warm_starts_where_the_answer_is_zero(instance_file, capsys, monkeypatch):
    # at lambda >= lambda_max the answer is w = 0, and starts on its scale
    # would be zeros that repeat the first solve; indicator_invariance must
    # hand solve_saddle two nonzero starts that scale with (y, lambda)
    solve = sgmc.cli.solve_saddle
    starts = {}
    for alpha in (1e-8, 1.0, 1e8):
        received = starts[alpha] = []

        def recording(inst, config=None, w0=None, received=received):
            if w0 is not None:
                received.append(w0)
            return solve(inst, config, w0)

        monkeypatch.setattr(sgmc.cli, "solve_saddle", recording)
        inst = {**DESCENT, "y": [alpha * DESCENT["y"][0]], "lambda": alpha * DESCENT["lambda"]}
        assert main(["verify", "--instance", instance_file(inst)]) == 0
        assert "FAIL" not in capsys.readouterr().out
    for alpha, received in starts.items():
        assert len(received) == 2
        assert all(np.abs(w0).max() > 0 for w0 in received)
        np.testing.assert_allclose(received, alpha * np.array(starts[1.0]), rtol=1e-12)


def test_verify_fails_an_indicator_a_warm_start_changes(instance_file, capsys, monkeypatch):
    # a solver whose warm-started answers are zeros, of indicator 0000 at
    # y = 2, lambda = 1, where the answer's is ++00
    solve = sgmc.cli.solve_saddle

    def fickle(inst, config=None, w0=None):
        w = solve(inst, config)
        return w if w0 is None else np.zeros_like(w)

    monkeypatch.setattr(sgmc.cli, "solve_saddle", fickle)
    assert main(["verify", "--instance", instance_file(TWO_COLUMN)]) == 2
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and "indicator_invariance" in failed[0] and "++00" in failed[0]


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 1.0, 1e8])
def test_verify_is_scale_free(instance_file, capsys, alpha, seed):
    # y and lambda scaled together: at 1e-8 the saddle oracle's absolute stop
    # changed the encoded indicator, at 1e8 the absolute bounds on w jumps
    # and on beta_e and gamma_e failed, and at 1e-8 and 1e-4 an interior
    # margin absolute below lambda = 1 skipped the min-norm comparison.  At
    # seed 3, warm starts of unit size, far from an answer of size alpha,
    # kept the indicator_invariance solves from converging at 1e-8 and 1e-4
    rng = np.random.default_rng(seed)
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
    seg = data["segments"][1]
    assert seg["s"] == "++00"
    seg["q"][:2] = [v + 0.25 for v in seg["q"][:2]]
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(data))
    code = main(["verify", "--instance", inst_path, "--segments", str(corrupted)])
    assert code == 2
    output = capsys.readouterr().out
    assert "FAIL" in output
    assert "segments" in output


@pytest.mark.parametrize("tamper, message", [
    (lambda seg: seg["p"].pop(), "segment 1: s, p and q must have equal length, got 4, 3 and 4"),
    (lambda seg: seg["p"].__setitem__(2, 0.5), "segment 1: p or q is nonzero at index 2"),
], ids=["short_p", "p_off_support"])
def test_verify_refuses_a_malformed_segment(instance_file, tmp_path, capsys, tamper, message):
    # a p short of an entry failed with "operands could not be broadcast
    # together", and a map off the support was judged as a path
    inst_path = instance_file(DESCENT)
    path_out = tmp_path / "path.json"
    assert main(["path", "--instance", inst_path, "--delta-lambda", "-1",
                 "--out", str(path_out)]) == 0
    data = json.loads(path_out.read_text())
    assert data["segments"][1]["s"] == "++00"
    tamper(data["segments"][1])
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", "--instance", inst_path, "--segments", str(tampered)]) == 1
    assert message in capsys.readouterr().err


def test_verify_fails_nan_segments(instance_file, tmp_path, capsys):
    inst_path = instance_file(DESCENT)
    path_out = tmp_path / "path.json"
    main(["path", "--instance", inst_path, "--delta-lambda", "-1", "--out", str(path_out)])
    data = json.loads(path_out.read_text())
    assert len(data["segments"]) >= 2
    for seg in data["segments"]:
        on = [i for i, c in enumerate(seg["s"]) if c != "0"]
        for key in ("p", "q"):
            seg[key] = [math.nan if i in on else v for i, v in enumerate(seg[key])]
    nan_path = tmp_path / "nan.json"
    nan_path.write_text(json.dumps(data))
    assert main(["verify", "--instance", inst_path, "--segments", str(nan_path)]) == 2
    failed = {
        line.split()[1] for line in capsys.readouterr().out.splitlines()
        if line.startswith("FAIL")
    }
    assert failed == {"segments_continuity", "segments_spot_checks"}


def _segments_file_rows(instance_file, tmp_path, capsys, edit):
    """Exit code and rows of `sgmc verify --segments` on the DESCENT path
    over [1.2, 1.7], one segment of the zone ++00, after `edit` of its JSON."""
    inst_path = instance_file(DESCENT)
    path_out = tmp_path / "path.json"
    argv = ["path", "--instance", inst_path, "--delta-lambda", "-1", "--t-start", "1.2",
            "--t-end", "1.7", "--out", str(path_out)]
    assert main(argv) == 0
    data = json.loads(path_out.read_text())
    assert [seg["s"] for seg in data["segments"]] == ["++00"]
    edit(data)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["verify", "--instance", inst_path, "--segments", str(edited)])
    return code, _verify_rows(capsys.readouterr().out)


def test_verify_accepts_the_one_segment_path(instance_file, tmp_path, capsys):
    code, rows = _segments_file_rows(instance_file, tmp_path, capsys, lambda data: None)
    assert code == 0
    assert rows["segments_spot_checks"] == ("ok", "worst 0.00e+00")


def _tilt(seg):
    """Add 0.3 (1.45 - t) to the map on the support {0, 1}: right at the
    segment's midpoint t = 1.45 alone."""
    seg["p"][:2] = [v + 0.3 for v in seg["p"][:2]]
    seg["q"][:2] = [v + 0.3 * 1.45 for v in seg["q"][:2]]


def test_verify_checks_a_one_segment_path_off_its_midpoint(instance_file, tmp_path, capsys):
    # no neighbour pins the tilted segment's ends, so a check at the
    # midpoint cannot see it
    def tilt(data):
        _tilt(data["segments"][0])

    code, rows = _segments_file_rows(instance_file, tmp_path, capsys, tilt)
    assert code == 2
    assert rows["segments_continuity"][0] == "ok"
    assert rows["segments_spot_checks"][0] == "FAIL"


def test_verify_fails_a_path_judged_at_no_point(instance_file, tmp_path, capsys):
    # the tilted segment on a line at lambda < 0 throughout: no spot check
    # point lies at lambda > 0, so the file is judged nowhere
    def tilt_below_zero(data):
        _tilt(data["segments"][0])
        data["line"].update(lambda0=-1.0, delta_lambda=-1.0)

    code, rows = _segments_file_rows(instance_file, tmp_path, capsys, tilt_below_zero)
    assert code == 2
    assert rows["segments_spot_checks"] == ("FAIL", "worst 0.00e+00")


def test_verify_fails_an_empty_path(instance_file, tmp_path, capsys):
    def empty(data):
        data["segments"] = []

    code, rows = _segments_file_rows(instance_file, tmp_path, capsys, empty)
    assert code == 2
    assert rows["segments_continuity"] == ("ok", "0 segments")
    assert rows["segments_spot_checks"][0] == "FAIL"


def test_verify_leaves_the_start_zone_to_path_sweep(instance_file, capsys, monkeypatch):
    # the zero zone holds at 1.05 lambda_max; path_sweep's start
    # certificate judges it, with no separate build and test before
    def refuse(*args, **kwargs):
        raise AssertionError("verify builds its start zone before path_sweep")

    monkeypatch.setattr(sgmc.cli, "initialize_indicator", refuse)
    assert main(["verify", "--instance", instance_file(TWO_COLUMN)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _gaussian(m, n, lam_frac):
    """Gaussian m x n instance at rho = 0.3, A then y drawn from
    default_rng(0), at lambda = lam_frac * lambda_max."""
    rng = np.random.default_rng(0)
    A, y = rng.normal(size=(m, n)), rng.normal(size=m)
    lam_max = float(np.abs(A.T @ y).max())  # r = 0: C^T b = [A^T y; 0]
    return {"A": A.tolist(), "rho": 0.3, "y": y.tolist(), "lambda": lam_frac * lam_max}


def _verify_rows(output):
    """name -> (flag, detail) of each row `sgmc verify` prints."""
    rows = {}
    for line in output.splitlines():
        flag, name, *detail = line.split()
        rows[name] = (flag, " ".join(detail))
    return rows


def test_verify_runs_the_min_norm_check_with_no_interior_test(instance_file, capsys,
                                                               monkeypatch):
    # the min-norm solver answers on zone boundaries too, so verify runs it
    # at the middle segment's midpoint with no interior test first; it
    # used to report the check ok, unrun, wherever strictly_inside refused
    import sgmc.candidate

    def refuse(*args, **kwargs):
        return False

    for module in (sgmc.candidate, sgmc.cli):
        monkeypatch.setattr(module, "strictly_inside", refuse, raising=False)
    assert main(["verify", "--instance", instance_file(_gaussian(6, 12, 0.3))]) == 0
    flag, detail = _verify_rows(capsys.readouterr().out)["min_norm_agreement"]
    assert flag == "ok" and detail.startswith("relative gap")


def test_verify_exits_2_where_the_min_norm_solver_refuses(instance_file, capsys,
                                                          monkeypatch):
    # with no interior test first, an infeasible min-norm system at the
    # middle segment's midpoint is a failed verification, not an input error
    def refuse(*args, **kwargs):
        raise InfeasibleSystemError("candidate system has no feasible point at these parameters")

    monkeypatch.setattr(sgmc.cli, "min_norm_over_eqnq", refuse)
    assert main(["verify", "--instance", instance_file(TWO_COLUMN)]) == 2
    assert "error: candidate system has no feasible point" in capsys.readouterr().err


def test_verify_checks_the_whole_descent(instance_file, capsys):
    # the descent from 1.05 lambda_max has 85 segments, more than the
    # 64 that path_sweep's default cap would check
    assert main(["verify", "--instance", instance_file(_gaussian(20, 40, 0.3))]) == 0
    rows = _verify_rows(capsys.readouterr().out)
    assert rows["path_continuity"] == ("ok", "85 segments, stop lambda_terminus")
    assert all(flag == "ok" for flag, _ in rows.values())


@pytest.mark.parametrize("stop", ["max_segments", "unverified_step"])
def test_verify_fails_a_descent_that_stops_short(instance_file, capsys, monkeypatch, stop):
    # a descent cut after 3 segments: the path checks fail, rather than
    # pass on the part it reached
    import dataclasses

    sweep = sgmc.cli.path_sweep

    def short(*args, **kwargs):
        result = sweep(*args, **kwargs)
        return dataclasses.replace(result, segments=result.segments[:3], stop_reason=stop)

    monkeypatch.setattr(sgmc.cli, "path_sweep", short)
    assert main(["verify", "--instance", instance_file(_gaussian(20, 40, 0.3))]) == 2
    rows = _verify_rows(capsys.readouterr().out)
    assert rows["path_continuity"] == ("FAIL", f"3 segments, stop {stop}")
    flag, detail = rows["cross_oracle_agreement"]
    assert flag == "FAIL" and detail.startswith("path stops before lambda")


def test_path_sweeps_the_whole_descent_by_default(instance_file, tmp_path, capsys):
    # the descent from lambda_max has 145 segments; no cap cuts it unless
    # one is asked for, and --help says so
    inst = instance_file(_gaussian(48, 96, 1.0))
    out = tmp_path / "p.json"
    assert main(["path", "--instance", inst, "--delta-lambda", "-1", "--out", str(out)]) == 0
    path = json.loads(out.read_text())
    assert path["stop_reason"] == "lambda_terminus" and len(path["segments"]) == 145
    argv = ["path", "--instance", inst, "--delta-lambda", "-1", "--max-segments", "64",
            "--out", str(out)]
    assert main(argv) == 3
    assert len(json.loads(out.read_text())["segments"]) == 64
    with pytest.raises(SystemExit):
        main(["path", "--help"])
    assert "default: no cap" in " ".join(capsys.readouterr().out.split())


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


@pytest.mark.parametrize("drop", ["--y", "--lambda"])
def test_csv_matrix_mode_needs_y_and_lambda(tmp_path, capsys, drop):
    csv = tmp_path / "A.csv"
    csv.write_text("1.0,1.0\n")
    flags = {"--y": "2.0", "--lambda": "1.0"}
    del flags[drop]
    argv = ["solve", "--matrix-csv", str(csv), *(x for kv in flags.items() for x in kv)]
    assert main(argv) == 1
    assert "--matrix-csv mode needs --y and --lambda" in capsys.readouterr().err


def test_missing_instance_flags():
    assert main(["solve"]) == 1
