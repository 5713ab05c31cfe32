"""The scripts under scripts/ run end to end against the package as it is,
so that removing or renaming an API they use fails here."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, env=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_run_worked_example():
    done = run_script("run_worked_example.py")
    assert done.returncode == 0, done.stderr
    assert "nodes: ['++00', '--00', '0000']" in done.stdout


def test_scripts_run_from_a_checkout_without_pythonpath():
    # each script puts the checkout's src/ on sys.path itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for args in (["run_worked_example.py"], ["iteration_scaling.py", "--help"]):
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr


def test_iteration_scaling_descent():
    done = run_script("iteration_scaling.py", "--descent", "--m", "20", "--n", "40", "--to", "0.01")
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()[1:]
    assert header.split() == ["to", "segments", "ms/segment", "max", "|E|", "setup", "RSS",
                              "peak", "RSS", "stop"]
    to, segments, ms, support, setup, _, peak, _, stop = row.split()
    assert to == "0.01" and int(segments) > 0 and float(ms) > 0
    assert 0 < int(support) <= 40 and 0 < float(setup) <= float(peak)
    assert stop == "t_end_reached"
    assert run_script("iteration_scaling.py", "--descent", "--to", "1").returncode == 2


def test_iteration_scaling_enumerate():
    done = run_script("iteration_scaling.py", "--enumerate", "--m", "20", "--n", "40",
                      "--samples", "4", "--delta-lambda-min", "0.3")
    assert done.returncode == 0, done.stderr
    header, row, digest = done.stdout.splitlines()[1:]
    assert header.split() == ["nodes", "edges", "rays", "covered", "seconds", "peak", "RSS",
                              "dense", "C/D"]
    nodes, edges, rays, covered, seconds, peak, _, dense = row.split()
    assert int(nodes) > 1 and int(edges) >= 1 and 1 <= int(rays) <= 4
    assert covered == "4/4" and float(seconds) > 0 and float(peak) > 0
    assert dense == "no"
    assert digest.startswith("graph sha256 ") and len(digest.split()[-1]) == 64


@pytest.mark.parametrize("extra", [[], ["--reuse-slope"]])
def test_iteration_scaling(extra):
    done = run_script("iteration_scaling.py", "--m", "8", "--n", "16", "--sizes", "2,4,8", *extra)
    assert done.returncode == 0, done.stderr
    assert "fitted log-log slope:" in done.stdout


def test_iteration_scaling_updates():
    # supports split between the blocks keep C_E of full column rank up
    # to 2m = 16, so every insertion and deletion is an update
    done = run_script("iteration_scaling.py", "--m", "8", "--n", "16", "--sizes", "2,4,8,15",
                      "--update")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()[1:-1]
    assert header.split() == ["|E|", "insertion", "updated", "deletion", "updated"]
    assert [row.split()[0] for row in rows] == ["2", "4", "8", "15"]
    for row in rows:
        cells = row.split()
        assert cells[2:3] == ["us"] and cells[3] == cells[6] == "True"
    assert "fitted log-log slope: insertion" in done.stdout


def test_bench_summary(tmp_path):
    # two seeds on each side: the change wins work_per_s in both pairs and
    # setup_s (lower is better) in one; the file name pattern pairs runs
    def write(side, seed, work, setup, failed):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        metrics = {"setup_s": {"value": setup}, "work_per_s": {"value": work},
                   "peak_rss_mb": {"value": 50.0}}
        result = {"environment": {"seconds": 30.0}, "metrics": metrics,
                  "failed": failed, "attempted": 6}
        (directory / f"descent-seed{seed}-trace0.json").write_text(json.dumps(result))

    write("parent", 1, 100.0, 0.30, 1)
    write("parent", 2, 120.0, 0.20, 0)
    write("change", 1, 150.0, 0.25, 0)
    write("change", 2, 130.0, 0.25, 0)
    (tmp_path / "parent" / "descent-seed3-trace1.json").write_text("{}")  # traced: skipped
    out = tmp_path / "bench.json"
    done = run_script("bench_summary.py", "--parent", str(tmp_path / "parent"),
                      "--change", str(tmp_path / "change"), "--out", str(out))
    assert done.returncode == 0, done.stderr
    entry = json.loads(out.read_text())["workloads"]["descent"]
    assert entry["seeds"] == [1, 2] and entry["pairs"] == 2
    work = entry["metrics"]["work_per_s"]
    assert (work["change_wins"], work["parent_wins"]) == (2, 0)
    assert work["parent"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    setup = entry["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["parent_wins"]) == (1, 1)
    assert entry["metrics"]["peak_rss_mb"]["change_wins"] == 0
    assert (entry["failed_parent"], entry["failed_change"]) == (1, 0)
    assert "--workload descent --seed <seed> --seconds 30 --trace 0" in entry["command"]


def test_zone_counts():
    # zones seed 1, rounds 0-1: instance 1.0 is covered by 7 sweeps from
    # b = 0, one per sample not covered before it, and brute force makes
    # one batched rank cut per support size k = 0..2n (7 at n = 3)
    done = run_script("zone_counts.py", "--seeds", "1", "--rounds", "2")
    assert done.returncode == 0, done.stderr
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["instance", "nodes", "edges", "rays", "steps", "rank_cuts"]
    assert [row[0] for row in rows] == ["1.0", "1.1"]
    counts = [dict(zip(header[1:], map(int, row[1:]))) for row in rows]
    assert (counts[0]["nodes"], counts[0]["rays"]) == (23, 7)
    for c in counts:
        assert c["rank_cuts"] == 7
    assert total == ["total"] + [str(sum(c[k] for c in counts)) for k in header[1:]]


def test_fingerprint():
    # runs of the same tree hash alike whatever the caller's BLAS thread
    # count (the script pins one thread; the descents' digest differs
    # between one and two), and the counts cover every sweep of the
    # descent rounds 0-1 (3 per rho and round), the transverse pool (3 per
    # rho) and zones rounds 0-7
    outputs = [run_script("fingerprint.py", "--seeds", "1", env={"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")]
    digests = []
    for done in outputs:
        assert done.returncode == 0, done.stderr
        source, counts, *stops, digest = done.stdout.splitlines()
        assert source == f"sgmc {ROOT / 'src' / 'sgmc'}"
        words = counts.split()
        assert words[::2] == ["sweeps", "segments", "graphs"]
        assert (int(words[1]), int(words[5])) == (15, 8) and int(words[3]) > 15
        assert sum(int(line.split()[2]) for line in stops) == 15
        assert all(line.split()[0] == "stop" for line in stops)
        assert re.fullmatch(r"sha256 [0-9a-f]{64}", digest)
        digests.append(digest)
    assert digests[0] == digests[1]


def test_opt_margins():
    # seed 1 at 20x40, one descent per rho: every checked point passes the
    # certificate with room to spare relative to S, and lambda falls far
    # enough below S that the same excess reads larger relative to lambda
    done = run_script("opt_margins.py", "--seeds", "1", "--shape", "20x40")
    assert done.returncode == 0, done.stderr
    header, *rows, worst = [line.split() for line in done.stdout.splitlines()]
    assert header == ["descent", "segments", "min_lambda", "rel_S", "rel_lambda", "absolute"]
    assert [row[0] for row in rows] == ["1.0.rho0.0", "1.0.rho0.3", "1.0.rho0.8"]
    values = [dict(zip(header[1:], map(float, row[1:]))) for row in rows]
    for v in values:
        assert v["segments"] > 1 and 0 < v["min_lambda"] < 1
        assert 0 <= v["rel_S"] < 1e-10
        assert v["rel_lambda"] > v["rel_S"]
    assert worst[0] == "worst"
    assert float(worst[1]) == sum(v["segments"] for v in values)
    assert float(worst[3]) == pytest.approx(max(v["rel_S"] for v in values), rel=1e-3)


def test_ab_pairs():
    # both sides at this checkout on the one small operation of a zones
    # round, two pairs: each ratio is the change's time over the parent's
    done = run_script("ab_pairs.py", "--parent", str(ROOT), "--workload", "zones",
                      "--seeds", "1,2", "--best-of", "2")
    assert done.returncode == 0, done.stderr
    *pairs, summary = [line.split() for line in done.stdout.splitlines()]
    ratios = []
    for k, p in enumerate(pairs):
        assert p[:4] == ["pair", str(k + 1), "seed", str(k + 1)]
        assert p[4::3] == ["parent", "change", "ratio"]
        ratios.append(float(p[11]))
        assert ratios[-1] == pytest.approx(float(p[8]) / float(p[5]), rel=0.02)
    assert len(ratios) == 2
    assert summary[:5] + summary[6:7] == ["zones", "pairs", "2", "median", "ratio", "interval"]
    assert float(summary[5]) == pytest.approx(sum(ratios) / 2, abs=1e-4)
    assert float(summary[7]) == min(ratios) and float(summary[8]) == max(ratios)


def test_families():
    # each descent from lambda_max runs to its own stop; the triu cells
    # are (stop, segments whose midpoint fails check_opt), and no int
    # midpoint fails
    done = run_script("families.py")
    assert done.returncode == 0, done.stderr
    header, *rows = [line.split() for line in done.stdout.splitlines()]
    assert header == ["family", "descents", "segments", "failed", "seconds", "stops"]
    report = {row[0]: (int(row[1]), int(row[3]), dict(s.split("=") for s in row[5:]))
              for row in rows}
    triu = {label: (stops, failed) for label, (_, failed, stops) in report.items()
            if label.startswith("triu")}
    assert triu == {
        "triu(6,0.3)": ({"lambda_terminus": "1"}, 0),
        "triu(6,0.15)": ({"lambda_terminus": "1"}, 3),
        "triu(6,0.1)": ({"unverified_step": "1"}, 3),
        "triu(8,0.3)": ({"lambda_terminus": "1"}, 0),
        "triu(8,0.15)": ({"unverified_step": "1"}, 5),
        "triu(8,0.1)": ({"unverified_step": "1"}, 3),
    }
    assert report["int(6x12)"] == (60, 0, {"lambda_terminus": "33", "unverified_step": "22",
                                           "degenerate_interval": "5"})
