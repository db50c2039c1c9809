"""Self-test of the benchmark: python3 -m pytest -q bench/test_bench.py

Runs every workload in smoke mode at the default seed (so the golden
digests are checked too), checks the result line against BENCHMARK.json,
shows that each output check catches a wrong output, and that the
benchmark refuses to run without the library.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
from workloads import DEFAULT_SEED, SMOKE, WORKLOADS, Workload  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0.5", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def _library_outputs(name, workdir):
    import rangewalk as rw

    wl = Workload(name, 7, SMOKE, str(workdir))
    wl.make_inputs()
    wl.setup(rw)
    return wl.outputs(wl.op(rw))


def _problems(name, outputs, workdir):
    import rangewalk as rw
    from rangewalk.cli import run_command

    if name == "stream-1d":
        return checks.check_stream_1d(outputs, 7, SMOKE)
    if name == "set-range":
        return checks.check_set_range(outputs, 7, SMOKE)
    if name == "mc-short":
        return checks.check_mc_short(outputs, 7, SMOKE, rw.exact_range_speed)
    return checks.check_csv_roundtrip(outputs, 7, SMOKE, str(workdir), run_command)


def _bump_last_range(text):
    """The report with r_N one larger at the last checkpoint."""
    lines = text.splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith('{"n"')]
    row = json.loads(lines[rows[-1]])
    row["r_over_n"] = float(round(row["r_over_n"] * row["n"]) + 1) / row["n"]
    lines[rows[-1]] = json.dumps(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_checks_accept_the_library_and_catch_a_wrong_output(workload, tmp_path):
    outputs = _library_outputs(workload, tmp_path)
    assert _problems(workload, outputs, tmp_path) == []
    bad = dict(outputs)
    if workload == "stream-1d":
        bad["ergodic"] = _bump_last_range(bad["ergodic"])
    elif workload == "set-range":
        bad["spiral2d"] = _bump_last_range(bad["spiral2d"])
    elif workload == "mc-short":
        doc = json.loads(bad["mc"])
        doc["per_metric"]["range_speed"]["mean"] += 1e-9
        bad["mc"] = json.dumps(doc, indent=2) + "\n"
    else:
        bad["report"] = _bump_last_range(bad["report"])
    assert _problems(workload, bad, tmp_path)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "stream-1d", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
