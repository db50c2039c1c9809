"""Monte Carlo harness: independent seeded trials, exact aggregation, theory targets.

Trial i draws the PCG64 stream of ``make_walk(config, seed=mix_seed(master_seed, i))``.
`run_trials` and `estimate_no_return` run trials on one engine, so a no-return
estimate for srw(p) reads the very trials of ``mc`` on srw(p) with the same
master seed.  Trials of N <= CHUNK_CELLS steps go in chunks of
``max(1, CHUNK_CELLS // (N + 1))``: a chunk is one (trials, steps) uniform
matrix, drawn once and mapped to increments by the generator's uniform law
(`_draw_batch`), and reduced in its memory order: a lockstep draw is
step-major, so its prefix sum adds each step's contiguous column into the
next and each per-row lowest, highest and last position and first-return
time is a reduction over columns, while a per-row draw is row-major and
runs one cumsum and reductions along its rows.  Its rows are seeded in bulk:
`mix_seeds` and `pcg64_states` give the PCG64 states of up to CHUNK_CELLS
trials at once, as numpy's own ``PCG64(seed)`` would.  A longer trial reads
its own stream, the source ``make_walk`` builds, one CHUNK_CELLS block at a
time, so memory stays flat in the horizon.  `workers` schedules chunks, or
runs of long trials, on a thread pool, and results are reduced in
trial-index order, so a report is byte-identical for any `workers`.
A deterministic config, which runs one trial, goes through the range and
extrema trackers instead.  The theory target is the |drift| of the trial-0 walk
`run_trials` builds anyway: |2p - 1| for srw(p), the |stationary mean| for an
ergodic chain, whose law is solved once a run.
Per-trial metrics are exact integers (R_N, X_N, M_N), int64 arrays for chunked
trials; division by N happens once at aggregation.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analysis import _scan
from .core import DEFAULT_BLOCK, INT64_MAX, CoordinateOverflowError, WalkStream, _check_seed
from .generators import (
    _draw_batch,
    _DrawnSource,
    _prefix_sum,
    _Scratch,
    gen_simple_rw,
    is_stochastic,
    make_walk,
    uniform_law,
)
from .pcg64 import mix_seed, mix_seeds, pcg64_states

METRICS = ("range_speed", "walk_speed", "no_return", "max_speed")

#: Exhaustive enumeration refuses beyond 2^20 paths.
MAX_EXACT_N = 20

#: Cells (trials x positions) of one chunk, and the widest column block.
CHUNK_CELLS = DEFAULT_BLOCK


@dataclass(frozen=True)
class TrialSpec:
    """What to run: a generator config, a horizon, metrics, trials, master seed."""

    config: dict
    horizon: int
    metrics: tuple = METRICS
    trials: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_seed(self.master_seed)
        metrics = tuple(self.metrics)
        if not metrics:
            raise ValueError("metric set must be non-empty")
        for name in metrics:
            if name not in METRICS:
                raise ValueError(f"unknown metric {name!r}")
        object.__setattr__(self, "metrics", metrics)
        if not is_stochastic(self.config) and self.trials > 1:
            raise ValueError("deterministic generators are only allowed with trials=1")

    def to_json_doc(self) -> dict:
        return {
            "config": dict(self.config),
            "horizon": self.horizon,
            "metrics": list(self.metrics),
            "trials": self.trials,
            "master_seed": self.master_seed,
        }


@dataclass
class MetricAggregate:
    mean: float
    stddev: float
    ci95: float
    theory: Optional[float] = None
    delta: Optional[float] = None

    def to_json_doc(self) -> dict:
        doc = {"mean": self.mean, "stddev": self.stddev, "ci95": self.ci95}
        if self.theory is not None:
            doc["theory"] = self.theory
            doc["delta"] = self.delta
        return doc


@dataclass
class AggregateReport:
    """Aggregated trial metrics; per-trial values retained when requested."""

    spec: TrialSpec
    per_metric: dict
    per_trial: Optional[dict] = None

    def to_json_doc(self) -> dict:
        doc = {
            "spec": self.spec.to_json_doc(),
            "per_metric": {k: v.to_json_doc() for k, v in self.per_metric.items()},
        }
        if self.per_trial is not None:
            doc["trials"] = self.per_trial
        return doc


@functools.lru_cache(maxsize=8)
def _countdown(k: int) -> np.ndarray:
    """k - 1, k - 2, ..., 0 in the smallest unsigned dtype that holds k - 1, read-only (shared)."""
    weights = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k - 1))
    weights.flags.writeable = False
    return weights


class _Extremes:
    """Carried per-row state of stochastic walks from x_0 = 0 (d = 1, m = 1).

    Holds each row's lowest, highest and last position and its first-return
    time (the first n >= 1 with x_n = 0, or 0 for none), which give R_N
    (hi - lo + 1, since every step is a unit step), X_N, M_N and the
    no-return indicator.  Every reduction of a block runs along its step
    axis, so a step-major block (lockstep draws) reduces a contiguous
    column at a time and a row-major one a row at a time.
    """

    def __init__(self, rows: int):
        self.lo = np.zeros(rows, dtype=np.int64)
        self.hi = np.zeros(rows, dtype=np.int64)
        self.last = np.zeros(rows, dtype=np.int64)
        self.first = np.zeros(rows, dtype=np.int64)
        self.done = 0

    def advance(self, pos: np.ndarray) -> None:
        """Take each row's next k positions, a row of a (rows, k) block."""
        # The same exact guard as WalkStream.blocks: a position that wrapped is never kept.
        extent = max(-int(self.last.min()), int(self.last.max()))
        if extent + pos.shape[1] > INT64_MAX:
            raise CoordinateOverflowError("walk left the signed 64-bit coordinate range")
        k = pos.shape[1]
        low, high = pos.min(axis=1), pos.max(axis=1)
        np.minimum(self.lo, low, out=self.lo)
        np.maximum(self.hi, high, out=self.hi)
        # Unit steps visit every integer between a block's extremes: a row that
        # has not returned yet returns in this block exactly when they span 0.
        new = (self.first == 0) & (low <= 0) & (high >= 0)
        if new.any():  # rows that have returned, or stay off 0, skip the search
            # Column j holds x_{done + j + 1}, so x_0 is never a return.  A new
            # row has a zero, so of its weights (k - 1 - j)·[x = 0] the first
            # zero's is the largest, even at weight 0: uint16 holds a 2^16 block.
            left = ((pos == 0) * _countdown(k)).max(axis=1)
            np.subtract(self.done + k, left, out=self.first, where=new, dtype=np.int64)
        self.done += k
        self.last = pos[:, -1].copy()

    def counts(self) -> dict:
        return {
            "range": self.hi - self.lo + 1,
            "final_abs": np.abs(self.last),
            "final_signed": self.last,
            "max_disp": np.maximum(self.hi, -self.lo),
            "no_return": (self.first == 0).astype(np.int64),
            "first_return": self.first,
        }


def _chunked_counts(law, horizon: int, trials: int, master_seed: int, workers: int = 1) -> dict:
    """`_Extremes` counts of trials 0..trials-1 of one law, in trial order.

    A task is a chunk or, past CHUNK_CELLS steps, a contiguous run of trials
    that share one `_Scratch`, at most `workers` runs a slice of seeds.
    `workers` schedules the tasks on a pool of at most one thread a task.
    A long trial's int8 steps are widened where they are summed: as in
    `WalkStream.blocks`, the carry and the steps go back to front into the
    scratch's ids, and one prefix sum runs from that reversed view into its
    keys, which a take leaves free.
    """
    rows = max(1, CHUNK_CELLS // (horizon + 1))
    # Seeding has a fixed cost, so whole runs of chunks are seeded at once.
    span = rows * max(1, CHUNK_CELLS // rows)
    long = horizon > CHUNK_CELLS

    def slices():
        for start in range(0, trials, span):
            seeds = mix_seeds(master_seed, start, min(start + span, trials))
            if long:
                yield np.array_split(seeds, min(workers, len(seeds)))
            else:
                states = pcg64_states(seeds)
                yield [states[i : i + rows] for i in range(0, len(states), rows)]

    def streams(seeds):  # one counts dict a trial
        scratch, parts = _Scratch(CHUNK_CELLS + 1), []
        _, stage, pos, _ = scratch.views((1, CHUNK_CELLS + 1))
        for seed in seeds.tolist():
            source, state = _DrawnSource(law, seed, scratch), _Extremes(1)
            for done in range(0, horizon, CHUNK_CELLS):
                k = min(CHUNK_CELLS, horizon - done)
                staged = stage[:, k::-1]
                staged[:, 0], staged[:, 1:] = state.last, source.take(k)
                np.cumsum(staged, axis=1, out=pos[:, : k + 1])
                state.advance(pos[:, 1 : k + 1])
            parts.append(state.counts())
        return parts

    def chunk(states):
        state, inc = _Extremes(len(states)), _draw_batch(law, states, horizon)
        state.advance(_prefix_sum(inc))  # every row starts at 0
        return [state.counts()]

    one = streams if long else chunk
    n_tasks = -(-trials // rows)
    if workers > 1 and n_tasks > 1:
        with ThreadPoolExecutor(max_workers=min(workers, n_tasks)) as pool:
            results = [result for tasks in slices() for result in pool.map(one, tasks)]
    else:
        results = [one(task) for tasks in slices() for task in tasks]
    parts = [part for result in results for part in result]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def _walk_counts(stream: WalkStream, horizon: int) -> dict:
    """Counts of one deterministic walk from the origin, read at the horizon."""
    samples, _, _ = _scan(stream, horizon, [horizon], True, True)
    (x,), (disp,) = samples["x"], samples["disp"]
    if stream.d == 1:
        final_signed, final_abs, max_disp = x, abs(x), disp
    else:
        final_signed = None
        final_abs = math.sqrt(sum(c * c for c in x))
        max_disp = math.sqrt(disp)
    return {
        "range": samples["r"],
        "final_abs": [final_abs],
        "final_signed": [final_signed],
        "max_disp": [max_disp],
        "no_return": [0 if samples["last_tau"][0] else 1],  # no zero after x_0
    }


def _int_sums(values) -> Optional[tuple]:
    """Exact (sum v, sum v^2) as Python ints, or None if some v is not an int.

    An int64 array is summed in numpy when t·max|v|^2 fits in int64, so no
    partial sum can wrap; otherwise it is summed as Python ints.
    """
    if isinstance(values, np.ndarray):
        peak = max(int(values.max()), -int(values.min()))
        if len(values) * peak * peak <= INT64_MAX:
            return int(values.sum()), int((values * values).sum())
        values = values.tolist()
    if all(isinstance(v, int) for v in values):
        return sum(values), sum(v * v for v in values)
    return None


def _aggregate(values: Sequence, denom: int) -> MetricAggregate:
    """Mean/stddev/ci95 of values / denom; exact integer sums when possible.

    `values` is an int64 array of chunked trials' counts, or the list of
    one deterministic walk (ints, or floats for d >= 2).
    """
    t = len(values)
    sums = _int_sums(values)
    if sums is not None:
        s1, s2 = sums
        mean = s1 / (t * denom)
        if t > 1:
            var_num = s2 * t - s1 * s1  # t*(t-1)*denom^2 * sample variance
            var = var_num / (t * (t - 1)) / (denom * denom)
        else:
            var = 0.0
    else:
        arr = np.asarray(values, dtype=np.float64) / denom
        mean = float(arr.mean())
        var = float(arr.var(ddof=1)) if t > 1 else 0.0
    var = max(var, 0.0)
    std = math.sqrt(var)
    ci95 = 1.96 * std / math.sqrt(t)
    return MetricAggregate(mean=mean, stddev=std, ci95=ci95)


def run_trials(spec: TrialSpec, workers: int = 1, keep_trials: bool = False) -> AggregateReport:
    """Run the spec's trials and aggregate in trial-index order.

    `workers` (>= 1) only changes how chunks of trials are scheduled on a
    thread pool, never the report: reduction is in trial index over exact
    counts.  The pool never has more threads than there are chunks.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cfg = dict(spec.config)
    cfg.pop("seed", None)
    n = spec.horizon
    # Trial 0's walk validates the config and carries the law every chunk draws through.
    walk = make_walk(cfg, seed=mix_seed(spec.master_seed, 0))
    if not is_stochastic(cfg):  # TrialSpec allows these one trial only
        counts = _walk_counts(walk, n)
    else:
        counts = _chunked_counts(uniform_law(walk), n, spec.trials, spec.master_seed, workers)

    series = {
        "range_speed": (counts["range"], n),
        "walk_speed": (counts["final_abs"], n),
        "no_return": (counts["no_return"], 1),
        "max_speed": (counts["max_disp"], n),
    }
    theory_metrics = {
        "srw": ("range_speed", "walk_speed", "no_return"),
        "ergodic": ("range_speed", "walk_speed"),
    }.get(cfg.get("gen"), ())

    per_metric = {}
    for name in spec.metrics:
        values, denom = series[name]
        agg = _aggregate(values, denom)
        if name in theory_metrics:
            agg.theory = abs(walk.metadata.theoretical_drift)
            agg.delta = abs(agg.mean - agg.theory)
        per_metric[name] = agg

    per_trial = None
    if keep_trials:
        # Python ints, so that v / denom is the correctly rounded quotient.
        def ratios(values, denom):
            values = values.tolist() if isinstance(values, np.ndarray) else values
            return [v / denom for v in values]

        per_trial = {name: ratios(*series[name]) for name in spec.metrics}
        if "walk_speed" in spec.metrics and counts["final_signed"][0] is not None:
            per_trial["walk_speed_signed"] = ratios(counts["final_signed"], n)
    return AggregateReport(spec=spec, per_metric=per_metric, per_trial=per_trial)


def compare(report: AggregateReport, tol: float) -> dict:
    """Per-metric pass/fail vs theory, plus the range-vs-walk cross check."""
    verdicts = {}
    has_theory = False
    for name, agg in report.per_metric.items():
        if agg.theory is None:
            continue
        has_theory = True
        delta = abs(agg.mean - agg.theory)
        verdicts[name] = {"pass": delta <= tol, "delta": delta, "theory": agg.theory}
    if not has_theory:
        raise ValueError("report has no theory target to compare against")
    pm = report.per_metric
    if "range_speed" in pm and "walk_speed" in pm:
        delta = abs(pm["range_speed"].mean - pm["walk_speed"].mean)
        verdicts["cross_range_walk"] = {"pass": delta <= tol, "delta": delta}
    return verdicts


# ---------------------------------------------------------------------------
# No-return frequency with explicit truncation-bias reporting
# ---------------------------------------------------------------------------

BIAS_NOTE = (
    "frequency over-estimates the never-return probability (a walk may return "
    "after the horizon); the bias is non-increasing in the horizon"
)


@dataclass(frozen=True)
class NoReturnEstimate:
    """No-return frequency at one horizon, optionally profiled over nested ones.

    With `horizons`, all frequencies come from the same per-trial paths
    (shared seeds), so each trial's indicator is literally non-increasing.
    """

    p: float
    horizon: int
    trials: int
    frequency: float
    bias_note: str
    horizons: Optional[tuple] = None
    frequencies: Optional[tuple] = None
    per_trial_monotone: Optional[bool] = None
    first_returns: Optional[tuple] = None

    def indicators(self, h: int) -> tuple:
        """Per-trial no-return indicators at horizon h (needs first_returns)."""
        if self.first_returns is None:
            raise ValueError("estimate was built without per-trial return times")
        return tuple(1 if t is None or t > h else 0 for t in self.first_returns)


def estimate_no_return(
    p: float,
    horizon: int,
    trials: int,
    master_seed: int,
    horizons: Optional[Sequence[int]] = None,
) -> NoReturnEstimate:
    """Fraction of trials with no zero visit in [1, horizon].

    When `horizons` is given (each in [1, horizon]) the same trials also
    yield the frequency at every nested horizon.  The trials run on
    `run_trials`' chunks and seeds: trial i is trial i of ``mc`` on srw(p)
    with this master seed, so `frequency` is its ``no_return`` mean.
    """
    law = uniform_law(gen_simple_rw(p, horizon, 0))  # checks p
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_seed(master_seed)
    nested = tuple(sorted(int(h) for h in horizons)) if horizons else None
    if nested and not (1 <= nested[0] and nested[-1] <= horizon):
        raise ValueError(f"nested horizons must lie in [1, {horizon}], got {list(nested)}")
    first = _chunked_counts(law, horizon, trials, master_seed)["first_return"]

    def freq_at(h: int) -> float:
        return int(np.count_nonzero((first == 0) | (first > h))) / trials

    freqs = tuple(freq_at(h) for h in nested) if nested else None
    monotone = all(a >= b for a, b in zip(freqs, freqs[1:])) if nested else None
    return NoReturnEstimate(
        p=p,
        horizon=horizon,
        trials=trials,
        frequency=freq_at(horizon),
        bias_note=BIAS_NOTE,
        horizons=nested,
        frequencies=freqs,
        per_trial_monotone=monotone,
        first_returns=tuple(t or None for t in first.tolist()),
    )


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle (small N)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactRangeStats:
    """Exact distribution summary of R_N/N for srw(p) over all 2^N paths."""

    p: float
    horizon: int
    mean: float
    var: float

    @property
    def std(self) -> float:
        return math.sqrt(self.var)


def exact_range_speed(p: float, horizon: int) -> ExactRangeStats:
    """E[R_N/N] and Var[R_N/N] by enumerating all 2^N increment sequences.

    Independent of the simulation pipeline: paths come from the binary
    expansion of 0..2^N-1, weighted p^(#up) (1-p)^(#down).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if not (1 <= horizon <= MAX_EXACT_N):
        raise ValueError(f"exact enumeration supports 1 <= N <= {MAX_EXACT_N}")
    n = horizon
    codes = np.arange(1 << n, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.int64)
    paths = np.cumsum(2 * bits - 1, axis=1)
    hi = np.maximum(paths.max(axis=1), 0)
    lo = np.minimum(paths.min(axis=1), 0)
    r = (hi - lo + 1).astype(np.float64)
    ups = bits.sum(axis=1)
    weights = np.power(p, ups) * np.power(1.0 - p, n - ups)
    ratio = r / n
    mean = float(np.dot(weights, ratio))
    var = float(np.dot(weights, ratio * ratio) - mean * mean)
    return ExactRangeStats(p=p, horizon=n, mean=mean, var=max(var, 0.0))
