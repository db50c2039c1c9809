"""Wall time and peak RSS of set-mode `analyze_stream` at a few horizons.

    PYTHONPATH=src python scripts/set_mode_table.py [--horizons 20 22 23] [--seed 1] [--repeats 3]

Three walks, each at horizons 2^k: random unit walks on Z^2 and Z^3
streamed from PCG64 (no path is held in memory; they revisit, so their box
is several times their range and they may fall back to sorted keys) and
`spiral2d` (every point new).  Each cell runs `repeats` times, each in a
fresh Python process, so its peak RSS (ru_maxrss) is that analysis alone on
top of the interpreter and numpy.  Prints a Markdown table: the best wall
time of each cell, its ns per step and that run's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

import numpy as np

from rangewalk import WalkMetadata, WalkStream, analyze_stream, make_walk

#: The unit directions of each random walk: +-e_i on every axis.
_DIRS = {name: np.concatenate([np.eye(d, dtype=np.int64), -np.eye(d, dtype=np.int64)])
         for name, d in (("rw2d", 2), ("rw3d", 3))}


class _UnitSteps:
    """Uniform unit steps on Z^d, one PCG64 draw a step."""

    def __init__(self, dirs: np.ndarray, seed: int):
        self._dirs = dirs
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def take(self, k: int) -> np.ndarray:
        return self._dirs[self._rng.integers(0, len(self._dirs), size=k)]


def walk(name: str, steps: int, seed: int) -> WalkStream:
    if name == "spiral2d":
        return make_walk({"gen": "spiral2d", "steps": steps})
    dirs = _DIRS[name]
    meta = WalkMetadata(name, {"steps": steps}, seed, m=1, d=dirs.shape[1])
    return WalkStream(meta, lambda: _UnitSteps(dirs, seed))


def cell(name: str, steps: int, seed: int) -> dict:
    stream = walk(name, steps, seed)
    t = time.perf_counter()
    report = analyze_stream(stream, steps)
    wall = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"wall_s": wall, "rss_mb": rss_mb, "r_over_n": report.rows[-1]["r_over_n"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizons", type=int, nargs="+", default=[20, 22, 23],
                        help="exponents k of the horizons 2^k")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3, help="fresh processes per cell")
    parser.add_argument("--cell", nargs=2, metavar=("WALK", "STEPS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.cell:
        print(json.dumps(cell(args.cell[0], int(args.cell[1]), args.seed)))
        return
    print("| horizon | random 2-D unit walk | random 3-D unit walk | `spiral2d` |")
    print("|---|---|---|---|")
    for k in args.horizons:
        steps = 1 << k
        texts = []
        for name in ("rw2d", "rw3d", "spiral2d"):
            argv = [sys.executable, __file__, "--seed", str(args.seed), "--cell", name, str(steps)]
            runs = [subprocess.run(argv, check=True, capture_output=True, text=True)
                    for _ in range(args.repeats)]
            res = min((json.loads(out.stdout) for out in runs), key=lambda run: run["wall_s"])
            ns = res["wall_s"] / steps * 1e9
            texts.append(f"{res['wall_s']:.2f} s ({ns:.0f} ns/step), {res['rss_mb']:.0f} MB")
        print(f"| 2^{k} | {' | '.join(texts)} |")


if __name__ == "__main__":
    main()
