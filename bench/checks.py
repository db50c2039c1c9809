"""Output checks for every workload, run by the parent outside the timed region.

Every verdict uses exact integers.  A report field such as r_over_n is the
float `float(r) / n`; for n < 2**52 that map is injective in the integer r,
so comparing the report's float with `float(r_ref) / n` is an exact integer
comparison (recovering r as `r_over_n * n` is not: the spiral gives
1000000.9999999999).  The references below draw from numpy's PCG64 directly
and never call the library, except `exact_range_speed`, the library's own
enumeration oracle, for the statistical band of mc-short.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import (
    ERGODIC_PRESET,
    MC_HORIZON,
    SRW_P,
    csv_flags,
    digests,
    ergodic_config,
    mc_master_seed,
    random_walk_2d,
    srw_config,
)

#: mc-short passes when |mean - exact| <= MC_Z standard errors.
MC_Z = 5.0

_MASK64 = (1 << 64) - 1
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def srw_path(seed: int, p: float, n: int) -> np.ndarray:
    """x_0..x_n of the simple walk: +1 iff the k-th PCG64 uniform is < p."""
    u = np.random.Generator(np.random.PCG64(seed)).random(n)
    path = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(u < p, 1, -1), out=path[1:])
    return path


def switch_chain_path(seed: int, a: float, b: float, n: int) -> np.ndarray:
    """x_0..x_n of the two-state (+1, -1) chain with P(+->-) = a, P(-->+) = b.

    One uniform picks the stationary start state, then one per step.  When
    u < min(1-a, b) both states move to +1, when u >= max(1-a, b) both move
    to -1, and in between (for 1-a > b) each keeps its state; so the state
    after step k is the last such coalescence, else the start state.
    """
    if not 1.0 - a > b:
        raise ValueError("reference covers 1 - a > b only")
    rng = np.random.Generator(np.random.PCG64(seed))
    start = 0 if rng.random() < b / (a + b) else 1
    u = rng.random(n)
    event = np.full(n, -1, dtype=np.int64)
    event[u < b] = 0
    event[u >= 1.0 - a] = 1
    last = np.where(event >= 0, np.arange(n), -1)
    np.maximum.accumulate(last, out=last)
    state = np.where(last >= 0, event[np.maximum(last, 0)], start)
    path = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(state == 0, 1, -1), out=path[1:])
    return path


def splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def trial_ranges(master: int, trials: int, p: float, n: int) -> list:
    """Exact R_N of each Monte Carlo trial, seeded as the README documents."""
    base = splitmix64(master & _MASK64)
    out = []
    for i in range(trials):
        path = srw_path(splitmix64((base + i) & _MASK64), p, n)
        out.append(int(max(path.max(), 0) - min(path.min(), 0) + 1))
    return out


def dyadic(n: int) -> list:
    cps, k = [], 1
    while k < n:
        cps.append(k)
        k *= 2
    return cps + [n]


def rows_1d(path: np.ndarray) -> list:
    """Expected report rows of a 1-D unit walk at the dyadic checkpoints."""
    hi = np.maximum.accumulate(path)
    lo = np.minimum.accumulate(path)
    peak = np.maximum.accumulate(np.abs(path))
    zeros = np.flatnonzero(path == 0)
    rows = []
    for n in dyadic(path.shape[0] - 1):
        hits = int(np.searchsorted(zeros, n, side="right"))
        rows.append(
            {
                "n": n,
                "x_over_n": float(int(path[n])) / n,
                "M_over_n": float(int(peak[n])) / n,
                "r_over_n": float(int(hi[n] - lo[n] + 1)) / n,
                "tau_count": hits,
                "last_tau": int(zeros[hits - 1]) if hits else None,
                "violations": [],
            }
        )
    return rows


def rows_2d(path: np.ndarray) -> list:
    """Expected report rows of a 2-D walk from the origin; r from np.unique."""
    sq = (path * path).sum(axis=1)
    peak = np.maximum.accumulate(sq)
    _, first = np.unique(path, axis=0, return_index=True)
    first.sort()
    zeros = np.flatnonzero(sq == 0)
    rows = []
    for n in dyadic(path.shape[0] - 1):
        hits = int(np.searchsorted(zeros, n, side="right"))
        rows.append(
            {
                "n": n,
                "x_over_n": math.sqrt(float(int(sq[n]))) / n,
                "M_over_n": math.sqrt(float(int(peak[n]))) / n,
                "r_over_n": float(int(np.searchsorted(first, n, side="right"))) / n,
                "tau_count": hits,
                "last_tau": int(zeros[hits - 1]) if hits else None,
                "violations": [],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Per-workload checks: each returns a list of problems (empty = correct)
# ---------------------------------------------------------------------------


def _report_rows(text: str) -> list:
    lines = [json.loads(line) for line in text.splitlines()]
    return [row for row in lines if "n" in row]


def _compare_rows(label: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{label}: {len(got)} rows, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        for key in w:
            if g.get(key) != w[key]:
                problems.append(f"{label}: n={w['n']} {key}={g.get(key)!r}, expected {w[key]!r}")
    return problems[:5]


def check_stream_1d(outputs: dict, seed: int, sizes) -> list:
    srw = srw_config(seed, sizes.srw_steps, 1)
    a, b = (float(v) for v in ERGODIC_PRESET.split(":")[1].split(","))
    erg = ergodic_config(seed, sizes.ergodic_steps)
    return _compare_rows("srw", _report_rows(outputs["srw"]), rows_1d(srw_path(srw["seed"], SRW_P, sizes.srw_steps))) + _compare_rows(
        "ergodic",
        _report_rows(outputs["ergodic"]),
        rows_1d(switch_chain_path(erg["seed"], a, b, sizes.ergodic_steps)),
    )


def check_set_range(outputs: dict, seed: int, sizes) -> list:
    n = sizes.set_steps
    problems = _compare_rows("walk2d", _report_rows(outputs["walk2d"]), rows_2d(random_walk_2d(seed, n)))
    # Every spiral point is new: r_n = n + 1.
    want = [{"n": k, "r_over_n": float(k + 1) / k, "violations": []} for k in dyadic(n)]
    return problems + _compare_rows("spiral2d", _report_rows(outputs["spiral2d"]), want)


def check_mc_short(outputs: dict, seed: int, sizes, exact_range_speed) -> list:
    doc = json.loads(outputs["mc"])
    got = doc["per_metric"]["range_speed"]["mean"]
    trials = sizes.mc_trials
    ranges = trial_ranges(mc_master_seed(seed), trials, SRW_P, MC_HORIZON)
    problems = []
    if got != sum(ranges) / (trials * MC_HORIZON):
        problems.append(f"mc: mean {got!r} differs from the exact per-trial ranges")
    exact = exact_range_speed(SRW_P, MC_HORIZON)
    band = MC_Z * exact.std / math.sqrt(trials)
    if abs(got - exact.mean) > band:
        problems.append(f"mc: |{got} - {exact.mean}| > {MC_Z} standard errors ({band})")
    return problems


def check_csv_roundtrip(outputs: dict, seed: int, sizes, workdir: str, run_command) -> list:
    n = sizes.csv_steps
    problems = []
    if outputs["exit_codes"] != "0,0":
        problems.append(f"csv: exit codes {outputs['exit_codes']}, expected 0,0")
    path = srw_path(srw_config(seed, n, 5)["seed"], SRW_P, n)
    csv = os.path.join(workdir, "t.csv")
    table = np.loadtxt(csv, delimiter=",", skiprows=1, dtype=np.int64)
    if not (np.array_equal(table[:, 0], np.arange(n + 1)) and np.array_equal(table[:, 1], path)):
        problems.append("csv: trajectory file does not hold x_0..x_N of the seeded walk")
    inline = os.path.join(workdir, "inline.jsonl")
    rc = run_command(["analyze", *csv_flags(seed, n), "--out", inline])
    with open(inline, "r") as fh:
        if rc != 0 or fh.read() != outputs["report"]:
            problems.append("csv: file-based report differs from the inline analyze report")
    return problems + _compare_rows("csv", _report_rows(outputs["report"]), rows_1d(path))


def check_golden(workload: str, mode: str, outputs: dict) -> list:
    """At the default seed, every output's digest must match golden.json."""
    with open(GOLDEN, "r") as fh:
        golden = json.load(fh)[mode][workload]
    problems = []
    for name, digest in digests(outputs).items():
        if golden.get(name) != digest:
            problems.append(f"golden: {workload}/{name} digest {digest[:12]} != {str(golden.get(name))[:12]}")
    return problems
