"""Time per row of the two draw paths of a Monte Carlo chunk, by draws per row and rows.

    PYTHONPATH=src python scripts/draw_path_table.py [--widths 16 32 64] [--repeats 7]

For each width w (uniforms drawn per row) the batch has, in turn, the rows
of a full chunk of `run_trials` at horizon w (2^16 // (w + 1)), then
``LOCKSTEP_ROWS_PER_DRAW * w`` rows and a quarter of that, where these fit
in a chunk.  Each path draws the batch from the same seeded states: the
lockstep path steps every row's PCG64 at once in numpy and hands back a
step-major batch, the per-row path assigns each row's state to one PCG64
and draws it with ``Generator.random``, row-major.  Prints a Markdown table
of the best of `repeats` alternating timings of each, in µs per row, their
ratio, the path that `generators._draw_batch` picks for that shape, and
the chunk's reduction on that path: srw(1/2) increments of its uniforms
summed in their memory order (`_prefix_sum`) and reduced by
`_Extremes.advance`.  Exits 1 unless both paths give the same uniforms,
bit for bit, for every shape.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from rangewalk.experiments import CHUNK_CELLS, _Extremes
from rangewalk.generators import LOCKSTEP_ROWS_PER_DRAW, _IidLaw, _prefix_sum
from rangewalk.pcg64 import _lockstep_random, _per_row_random, mix_seeds, pcg64_states

_SRW = _IidLaw((0.5,), (1, -1))


def us_per_row(draw, states: np.ndarray, width: int) -> float:
    """One timing of `draw` on `states`, which it leaves as they were."""
    t = time.perf_counter()
    draw(states, width)
    return (time.perf_counter() - t) / len(states) * 1e6


def reduce_us_per_row(u: np.ndarray) -> float:
    """One timing of a chunk's reduction of srw steps mapped from a copy of `u`."""
    inc = _SRW.steps(u.copy(order="K"), None)[0]
    t = time.perf_counter()
    _Extremes(len(inc)).advance(_prefix_sum(inc))
    return (time.perf_counter() - t) / len(inc) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", type=int, nargs="+",
                        default=[4, 16, 32, 48, 63, 64, 96, 128, 256, 1024])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    gen = np.random.Generator(np.random.PCG64(0))
    paths = {
        "lockstep": _lockstep_random,
        "per-row": lambda states, width: _per_row_random(gen, states, width),
    }
    mismatched = []
    print("| draws per row | rows | lockstep µs/row | per-row µs/row | lockstep / per-row "
          "| taken | reduction µs/row |")
    print("|---|---|---|---|---|---|---|")
    for width in args.widths:
        full = CHUNK_CELLS // (width + 1)
        bound = LOCKSTEP_ROWS_PER_DRAW * width
        for rows in dict.fromkeys(r for r in (full, bound, bound // 4) if 0 < r <= full):
            states = pcg64_states(mix_seeds(0, 0, rows))
            drawn = {name: draw(states, width) for name, draw in paths.items()}
            if not np.array_equal(drawn["lockstep"], drawn["per-row"]):
                mismatched.append((width, rows))
            taken = "lockstep" if rows >= bound else "per-row"
            best = {name: float("inf") for name in (*paths, "reduction")}
            for _ in range(args.repeats):  # alternate the paths, one timing each
                for name, draw in paths.items():
                    best[name] = min(best[name], us_per_row(draw, states, width))
                best["reduction"] = min(best["reduction"], reduce_us_per_row(drawn[taken]))
            lock, row = best["lockstep"], best["per-row"]
            print(f"| {width} | {rows} | {lock:.2f} | {row:.2f} | {lock / row:.2f} | {taken} "
                  f"| {best['reduction']:.3f} |")
    if mismatched:
        print(f"lockstep and per-row uniforms differ at (width, rows) {mismatched}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
