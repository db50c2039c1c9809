"""Cost of building position blocks: contiguous against staged prefix sums.

    PYTHONPATH=src python scripts/prefix_sum_table.py [--steps 65536] [--blocks 32] [--repeats 7] [--path-log2 22]

For d = 1 and d = 2 and blocks of --steps unit steps, times per block:

- one int64 `np.cumsum` per axis between contiguous arrays (the steps
  already axis-major), and the same sum staged: the carry and the steps
  copied back to front into a buffer, and summed from that reversed view
  (the copy included);
- the block build that `WalkStream._checked_blocks` did before, a fresh
  `np.cumsum(steps, axis=0)` plus the carry, and the staged build it does
  now into buffers that every block reuses;
- the library's own read, `_checked_blocks` over a source that hands out
  the same stored steps, which adds the overflow guard and the loop.

Each best-of-repeats time is over --blocks blocks, with the minor page
faults (`ru_minflt`) per block of that pass.  The builds are checked to
give the same positions.  Last, a fresh process times `path_array` of a
2^--path-log2-step simple random walk and prints its peak resident set
(VmHWM) above its resident set before the read (VmRSS; Linux only).
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time

import numpy as np

from rangewalk import WalkMetadata, WalkStream

# ru_maxrss survives execve, so the child reads its own resident set (Linux).
_PATH_CHILD = """
import sys, time
from rangewalk import make_walk

def kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field))

h = 1 << int(sys.argv[1])
stream = make_walk({"gen": "srw", "p": 0.5, "steps": h, "seed": 1})
stream.path_array(1)
base = kib("VmRSS:")
t = time.perf_counter()
stream.path_array(h)
wall = time.perf_counter() - t
print(wall, (kib("VmHWM:") - base) / 1024)
"""


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Stored:
    """Hands out the same stored steps on every take; states unit facts."""

    peak = bound = 1

    def __init__(self, steps: np.ndarray):
        self._steps = steps

    def take(self, k: int) -> np.ndarray:
        return self._steps[:k]


def contiguous_sum(cols: np.ndarray, out: np.ndarray) -> None:
    for axis, col in enumerate(cols):
        np.cumsum(col, out=out[axis, 1:])


def staged_sum(steps: np.ndarray, carry, out: np.ndarray, stage: np.ndarray) -> None:
    n = steps.shape[0]
    staged = stage[n::-1]
    for axis, col in enumerate(steps.reshape(n, -1).T):
        staged[0], staged[1:] = carry[axis], col
        np.cumsum(staged, out=out[axis])


def old_build(steps: np.ndarray, carry) -> np.ndarray:
    pos = np.cumsum(steps, axis=0)
    pos += carry
    return pos


def new_build(steps: np.ndarray, carry, out: np.ndarray, stage: np.ndarray) -> np.ndarray:
    staged_sum(steps, carry, out, stage)
    return out[0, 1:] if steps.ndim == 1 else out[:, 1:].T


def drain(blocks) -> None:
    """Build every block of `blocks`, keeping none alive past the next."""
    for _ in blocks:
        pass


def best_of(run, blocks: int, repeats: int) -> tuple:
    """(us per block, minor faults per block) of the fastest of `repeats` passes."""
    best, faults = float("inf"), 0
    for _ in range(repeats):
        before, t = minor_faults(), time.perf_counter()
        run(blocks)
        wall = time.perf_counter() - t
        if wall < best:
            best, faults = wall, minor_faults() - before
    return best / blocks * 1e6, faults / blocks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=1 << 16)
    parser.add_argument("--blocks", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--path-log2", type=int, default=22)
    args = parser.parse_args()
    n = args.steps
    rng = np.random.default_rng(0)
    print(f"int64 blocks of {n} steps; us per block, minor faults per block in brackets\n")
    print("| d | cumsum contiguous | cumsum staged | build before | build now | `_checked_blocks` |")
    print("|---|---|---|---|---|---|")
    for d in (1, 2):
        steps = rng.integers(-1, 2, (n, d) if d > 1 else n)
        carry = np.arange(3, 3 + d, dtype=np.int64)
        out = np.empty((d, n + 1), dtype=np.int64)
        stage = np.empty(n + 1, dtype=np.int64)
        cols = np.ascontiguousarray(steps.reshape(n, d).T)  # one contiguous row an axis
        want = old_build(steps, carry if d > 1 else carry[0])
        if not np.array_equal(new_build(steps, carry, out, stage), want):
            raise SystemExit(f"d = {d}: the staged build disagrees with the contiguous one")
        stream = WalkStream(WalkMetadata("stored", {}, None, m=1, d=d), lambda: _Stored(steps))
        read = np.concatenate([block.copy() for block, _ in stream._checked_blocks(n + 2, n + 1)])
        if not np.array_equal(read[1 : n + 1], old_build(steps, 0)):
            raise SystemExit(f"d = {d}: `_checked_blocks` disagrees with the contiguous build")
        runs = [
            lambda k: drain(contiguous_sum(cols, out) for _ in range(k)),
            lambda k: drain(staged_sum(steps, carry, out, stage) for _ in range(k)),
            lambda k: drain(old_build(steps, carry if d > 1 else carry[0]) for _ in range(k)),
            lambda k: drain(new_build(steps, carry, out, stage) for _ in range(k)),
            lambda k: drain(stream._checked_blocks(k * n, n)),
        ]
        cells = [best_of(run, args.blocks, args.repeats) for run in runs]
        print(f"| {d} | " + " | ".join(f"{us:.1f} [{faults:.0f}]" for us, faults in cells) + " |")
    child = subprocess.run(
        [sys.executable, "-c", _PATH_CHILD, str(args.path_log2)],
        capture_output=True, text=True, check=True,
    )
    wall, rss = (float(v) for v in child.stdout.split())
    print(f"\n`path_array` of 2^{args.path_log2} srw steps: {wall * 1e3:.1f} ms, "
          f"peak RSS {rss:.1f} MB above the RSS before the read")


if __name__ == "__main__":
    main()
