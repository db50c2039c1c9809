"""Time, page faults and peak RSS of replaying a stored path.

    PYTHONPATH=src python scripts/path_replay_table.py [--log2 16 18 20] [--repeats 5] [--chunk ROWS]

Random unit-step walks on Z^d for d = 1, 2, 3 (the d = 2 walk has the shape
of the `set-range` benchmark's stored path), each at 2^k positions.  Each
cell runs in a fresh Python process: it draws the path once, then times
`walk_from_path` (the chunked step pass and the stored narrow copy) and
`analyze_stream` over the result, the best of `repeats` each, with the minor
page faults (`ru_minflt`) per call of each, and reads its peak RSS
(ru_maxrss) after the timings.  Only then does it check the stream against
a whole-path oracle: m from the int64 `np.diff` of the path, the replayed
positions, and the report of a stream over those int64 increments.
`--chunk` sets `core.STEP_CHUNK` (rows per chunk of the pass) in every cell,
to compare chunk sizes.  Prints a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time

import numpy as np

from rangewalk import analyze_stream, core, walk_from_path
from rangewalk.core import WalkMetadata, WalkStream


def unit_walk(d: int, rows: int) -> np.ndarray:
    """A random unit-step walk on Z^d from the origin: (rows,) for d = 1, else (rows, d)."""
    rng = np.random.Generator(np.random.PCG64(d))
    units = np.concatenate([np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)])
    path = np.zeros((rows, d), dtype=np.int64)
    np.cumsum(units[rng.integers(0, 2 * d, size=rows - 1)], axis=0, out=path[1:])
    return path[:, 0].copy() if d == 1 else path


class _Int64Steps:
    """The oracle's source: slices of the whole-path int64 increments."""

    def __init__(self, steps: np.ndarray):
        self._steps, self._at = steps, 0

    def take(self, k: int) -> np.ndarray:
        self._at += k
        return self._steps[self._at - k : self._at]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def cell(d: int, rows: int, repeats: int) -> dict:
    path = unit_walk(d, rows)
    horizon = rows - 1
    best_wfp = best_scan = float("inf")
    wfp_faults = scan_faults = 0
    for _ in range(repeats):
        before, t = minor_faults(), time.perf_counter()
        walk = walk_from_path(path)
        best_wfp = min(best_wfp, time.perf_counter() - t)
        wfp_faults += minor_faults() - before
        before, t = minor_faults(), time.perf_counter()
        report = analyze_stream(walk, horizon)
        best_scan = min(best_scan, time.perf_counter() - t)
        scan_faults += minor_faults() - before
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    steps = np.diff(path, axis=0)
    worst = int((steps.reshape(horizon, d) ** 2).sum(axis=1).max()) if horizon else 0
    m = math.isqrt(worst - 1) + 1 if worst > 1 else 1
    oracle = WalkStream(WalkMetadata("path", {"steps": horizon}, None, m=m, d=d), lambda: _Int64Steps(steps))
    if walk.m != m:
        raise SystemExit(f"d = {d}, {rows} rows: inferred m = {walk.m}, the oracle's is {m}")
    if not np.array_equal(walk.path_array(horizon), path):
        raise SystemExit(f"d = {d}, {rows} rows: the replay is not the path")
    if list(report.jsonl_lines()) != list(analyze_stream(oracle, horizon).jsonl_lines()):
        raise SystemExit(f"d = {d}, {rows} rows: the report differs from the oracle's")
    return {
        "wfp_ms": best_wfp * 1e3,
        "scan_ms": best_scan * 1e3,
        "wfp_faults": wfp_faults / repeats,
        "scan_faults": scan_faults / repeats,
        "stored_bytes_per_step": walk.source_factory()._steps.itemsize * d,
        "rss_mb": rss_mb,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log2", type=int, nargs="+", default=[16, 18, 20])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--chunk", type=int, help="rows per chunk of the step pass (core.STEP_CHUNK)")
    parser.add_argument("--cell", nargs=2, type=int, metavar=("D", "ROWS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.chunk is not None:
        core.STEP_CHUNK = args.chunk
    if args.cell:
        print(json.dumps(cell(args.cell[0], args.cell[1], args.repeats)))
        return
    print("| d | rows | walk_from_path ms | faults per call | analyze_stream ms | faults per call | stored B/step | peak RSS |")
    print("|---|---|---|---|---|---|---|---|")
    for d in (1, 2, 3):
        for k in args.log2:
            argv = [sys.executable, __file__, "--repeats", str(args.repeats), "--cell", str(d), str(1 << k)]
            if args.chunk is not None:
                argv += ["--chunk", str(args.chunk)]
            res = json.loads(subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout)
            print(f"| {d} | 2^{k} | {res['wfp_ms']:.2f} | {res['wfp_faults']:.0f} | {res['scan_ms']:.2f} | "
                  f"{res['scan_faults']:.0f} | {res['stored_bytes_per_step']} | {res['rss_mb']:.0f} MB |")


if __name__ == "__main__":
    main()
