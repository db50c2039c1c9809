"""rangewalk benchmark: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload stream-1d --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The measurement happens in fresh child
processes (bench/child.py), so each child's ru_maxrss belongs to this
workload alone; this process generates nothing the children time, checks
their outputs afterwards and prints the metrics.

--trace 0 prints the end-to-end metrics, medians over every operation of
CHILDREN children that split the --seconds between them.  --trace 1 runs one
child that alternates untraced and traced operations for half the time (the
tracing overhead) and then times every layer's public calls (the per-layer
metrics).  --smoke shrinks every input so that all of it runs in seconds.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is the full record, also written to
.bench_out/result-<workload>-seed<seed>-trace<t>[-smoke].json.  Exit code 2
means the benchmark could not run (no library in ./src, a child failed).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")

#: Untraced runs split their time between this many fresh children; setup_s
#: and peak_rss_mb are medians over them.
CHILDREN = 5
#: Time of the child's calibration kernel at the reference host speed (the
#: median on a 2-core x86 box with Python 3.11 and numpy 2.4).  wall_s and
#: setup_s are reported at this speed; see README.md, "Host speed".
CALIBRATION_REF_S = 0.009
#: Every run must finish within this many seconds.
DEADLINE_S = 150
#: glibc sysconf names for the L2 and L3 sizes (not exposed by os.sysconf_names).
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _sysconf(name: int):
    try:
        return os.sysconf(name)
    except (ValueError, OSError):
        return None


def machine() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
        "limits": [
            "the file cache cannot be dropped, so the CSV reads may be served from memory",
            "nothing can be pinned to a core, so the children float over the shared cores",
        ],
    }


def run_child(args: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), json.dumps(args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("a child ran past the deadline and was killed")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"child exited with code {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(name: str, seed: int, sizes, smoke: bool, outputs: dict, workdir: str) -> list:
    """Problems with one operation's outputs; an empty list means correct."""
    import checks
    from workloads import DEFAULT_SEED

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rangewalk
    from rangewalk.cli import run_command

    if name == "stream-1d":
        problems = checks.check_stream_1d(outputs, seed, sizes)
    elif name == "set-range":
        problems = checks.check_set_range(outputs, seed, sizes)
    elif name == "mc-short":
        problems = checks.check_mc_short(outputs, seed, sizes, rangewalk.exact_range_speed)
    else:
        problems = checks.check_csv_roundtrip(outputs, seed, sizes, workdir, run_command)
    if seed == DEFAULT_SEED:
        problems += checks.check_golden(name, "smoke" if smoke else "full", outputs)
    return problems


def tail(values: list) -> dict:
    """The highest whole percentile with at least ten samples beyond it."""
    pct = int(100 * (1 - 10 / len(values)))
    if pct < 50:
        return {"percentile": None, "value": None, "samples": len(values)}
    return {"percentile": pct, "value": statistics.quantiles(values, n=100)[pct - 1], "samples": len(values)}


def main(argv=None) -> int:
    from workloads import WORKLOADS, digests, sizes_for, work_per_op

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick end-to-end check")
    a = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "rangewalk", "__init__.py")):
        raise BenchError(f"no rangewalk package under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r") as fh:
        declared = json.load(fh)
    sizes = sizes_for(a.smoke)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}" + ("-smoke" if a.smoke else "")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = os.getloadavg()
    try:
        base = {"workload": a.workload, "seed": a.seed, "smoke": a.smoke, "trace": a.trace, "workdir": workdir}
        if a.trace:
            trace_file = os.path.join(OUT, f"trace-{tag}.jsonl")
            runs = [
                run_child(
                    {**base, "seconds": a.seconds / 2, "trace_file": trace_file},
                    deadline,
                )
            ]
        else:
            n = 2 if a.smoke else CHILDREN
            runs = [run_child({**base, "seconds": a.seconds / n}, deadline) for _ in range(n)]
        load_after = os.getloadavg()

        reference = runs[0]["outputs"]
        problems = check_outputs(a.workload, a.seed, sizes, a.smoke, reference, workdir)
        want = digests(reference)
        op_digests = [d for r in runs for d in r["digests"]]
        attempted = len(op_digests)
        failed = attempted if problems else sum(d != want for d in op_digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for r in runs for t in r["times"]]
    scaled = [t * CALIBRATION_REF_S for r in runs for t in r["scaled"]]
    wall = statistics.median(scaled)
    setups = [r["setup_s"] * CALIBRATION_REF_S / r["calibration_s"] for r in runs]
    walks, steps = work_per_op(a.workload, sizes)
    if a.trace:
        layer = dict(runs[0]["per_layer"])
        layer["trace.overhead_ratio"] = statistics.median(runs[0]["traced_times"]) / statistics.median(times)
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in declared["per_layer"]}
    else:
        values = {
            "wall_s": wall,
            "steps_per_s": steps / wall,
            "trials_per_s": walks / wall,
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
            "setup_s": statistics.median(setups),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared["end_to_end"]}

    record = {
        "workload": a.workload,
        "seed": a.seed,
        "seconds": a.seconds,
        "trace": a.trace,
        "smoke": a.smoke,
        "children": len(runs),
        "ops": len(times),
        "wall_s_quartiles": statistics.quantiles(scaled, n=4),
        "wall_s_tail": tail(scaled),
        "raw_wall_s_quartiles": statistics.quantiles(times, n=4),
        "wall_s_each": [statistics.median(r["scaled"]) * CALIBRATION_REF_S for r in runs],
        "calibration_s_each": [r["calibration_s"] for r in runs],
        "raw_setup_s_each": [r["setup_s"] for r in runs],
        "setup_s_each": setups,
        "peak_rss_mb_each": [r["rss_kb"] / 1024 for r in runs],
        "fail_ratio": failed / attempted,
        "problems": problems,
        "output_digests": want,
        "machine": {**machine(), "loadavg_before": load_before, "loadavg_after": load_after},
        "elapsed_s": time.monotonic() - started,
        "metrics": metrics,
    }
    if a.trace:
        record["traced_ops"] = len(runs[0]["traced_times"])
        record["trace_file"] = os.path.relpath(trace_file, ROOT)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2)

    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# fail_ratio = {failed}/{attempted}" + ("" if not problems else f"  ({problems[0]})"))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
