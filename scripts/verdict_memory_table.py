"""Wall time and peak RSS of the excursion check and the spiral-distinct suite.

    PYTHONPATH=src python scripts/verdict_memory_table.py [--log2 20 22 24]

Two runs, each at horizons 2^k: `check_excursion_bound` on srw(0.5) with
seed 11, and `spiral_distinct_suite`.  Both read the stream block by block,
so neither should hold the whole path.  Each cell runs in a fresh Python
process, so its peak RSS (ru_maxrss) is that run alone on top of the
interpreter and numpy.  A cell whose verdict fails stops the script with an
error; of the suite, only the distinct-vertex and unit-step results count,
since its ||x_n||/n <= 0.02 threshold fails at small horizons (0.022 at
2^10).  Prints a Markdown table: wall time and peak RSS of each cell.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time

from rangewalk import check_excursion_bound, gen_simple_rw
from rangewalk.suites import spiral_distinct_suite

RUNS = ("excursion", "spiral")


def cell(run: str, steps: int) -> dict:
    if run == "excursion":
        stream = gen_simple_rw(0.5, steps, 11)
        t = time.perf_counter()
        ok = check_excursion_bound(stream, steps).holds
    else:
        t = time.perf_counter()
        distinct, unit, _ = spiral_distinct_suite(steps)
        ok = distinct.passed and unit.passed
    wall = time.perf_counter() - t
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {"wall_s": wall, "rss_mb": rss_mb, "ok": ok}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log2", type=int, nargs="+", default=[20, 22, 24],
                        help="exponents k of the horizons 2^k")
    parser.add_argument("--cell", nargs=2, metavar=("RUN", "STEPS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.cell:
        print(json.dumps(cell(args.cell[0], int(args.cell[1]))))
        return
    print("| steps | `check_excursion_bound`, srw(0.5) seed 11 | `spiral_distinct_suite` |")
    print("|---|---|---|")
    for k in args.log2:
        texts = []
        for run in RUNS:
            argv = [sys.executable, __file__, "--cell", run, str(1 << k)]
            res = json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)
            if not res["ok"]:
                raise SystemExit(f"{run} at 2^{k} steps: the verdict failed")
            texts.append(f"{res['wall_s']:.3f} s, {res['rss_mb']:.0f} MB")
        print(f"| 2^{k} | {' | '.join(texts)} |")


if __name__ == "__main__":
    main()
