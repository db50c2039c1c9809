"""Span tracing and the per-layer probes of the traced run.

The probes time calls into each module's public functions from outside the
library.  A cost that no public call isolates is the difference of two
timings over the same data, e.g. a generator's cost is `blocks()` of the
generated stream minus `blocks()` of a `walk_from_path` stream over the
same path.  Every timing is a span; the metrics are derived from the spans.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from workloads import MC_HORIZON, ergodic_config, mc_config, mc_master_seed, random_walk_2d, srw_config

#: Rounds of the probes in a full traced run; each metric is their median.
PROBE_REPS = 3


class Tracer:
    """In-memory spans: (id, name, start, end, parent id), written at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def last(self, name: str) -> float:
        """Duration of the most recent span called `name`."""
        for rec in reversed(self.spans):
            if rec[1] == name:
                return rec[3] - rec[2]
        raise KeyError(name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _drain(stream, horizon: int) -> int:
    """Consume a stream's blocks; returns how many there were."""
    count = 0
    for _ in stream.blocks(horizon):
        count += 1
    return count


def _probe_1d(rw, tr, tag: str, cfg: dict, n: int, full: bool) -> dict:
    """Generator, blocks and (if `full`) tracker costs on one 1-D stream."""
    path = rw.make_walk(cfg).path_array(n)
    with tr.span(f"probe.{tag}"):
        with tr.span("generators.blocks"):
            blocks = _drain(rw.make_walk(cfg), n)
        with tr.span("core.walk_from_path"):
            walk = rw.walk_from_path(path)
        with tr.span("core.blocks"):
            _drain(walk, n)
        out = {
            "blocks": blocks,
            "gen_ns": (tr.last("generators.blocks") - tr.last("core.blocks")) / n * 1e9,
            "blocks_ns": tr.last("core.blocks") / n * 1e9,
            "wfp_ns": tr.last("core.walk_from_path") / (n + 1) * 1e9,
        }
        if full:
            walks = [rw.walk_from_path(path) for _ in range(3)]
            with tr.span("analysis.track_range"):
                rw.track_range(walks[0], n)
            with tr.span("analysis.track_extrema"):
                rw.track_extrema(walks[1], n)
            with tr.span("analysis.analyze_stream"):
                rw.analyze_stream(walks[2], n)
            base = tr.last("core.blocks")
            rng = tr.last("analysis.track_range") - base
            ext = tr.last("analysis.track_extrema") - base
            out["range_ns"] = rng / n * 1e9
            out["extrema_ns"] = ext / n * 1e9
            out["report_self_ns"] = (tr.last("analysis.analyze_stream") - base - rng - ext) / n * 1e9
    return out


def _set_range(rw, tr, path: np.ndarray):
    """Set-mode range seconds over a 2-D path (track_range minus blocks),
    blocks seconds, and the exact range."""
    n = path.shape[0] - 1
    walks = [rw.walk_from_path(path) for _ in range(2)]
    with tr.span("core.blocks"):
        _drain(walks[0], n)
    with tr.span("analysis.track_range"):
        _, counts = rw.track_range(walks[1], n)
    blocks = tr.last("core.blocks")
    return tr.last("analysis.track_range") - blocks, blocks, int(counts[-1])


def _probe_2d(rw, tr, path2d: np.ndarray) -> dict:
    """Set-mode costs over both set-range inputs together, as the workload
    runs them: the random walk revisits points, the spiral never does."""
    n = path2d.shape[0] - 1
    spiral = {"gen": "spiral2d", "steps": n}
    spiral_path = rw.make_walk(spiral).path_array(n)
    with tr.span("probe.set-range"):
        full = [_set_range(rw, tr, p) for p in (path2d, spiral_path)]
        half = [_set_range(rw, tr, p[: n // 2 + 1]) for p in (path2d, spiral_path)]
        walk = rw.walk_from_path(spiral_path)
        with tr.span("generators.blocks"):
            _drain(rw.make_walk(spiral), n)
        with tr.span("core.blocks"):
            _drain(walk, n)
        spiral_ns = (tr.last("generators.blocks") - tr.last("core.blocks")) / n * 1e9
    full_ns = sum(f[0] for f in full) / (2 * n) * 1e9
    half_ns = sum(h[0] for h in half) / (2 * (n // 2)) * 1e9
    points = sum(f[2] for f in full)
    return {
        "range_set_ns": full_ns,
        "range_set_growth": full_ns / half_ns,
        "blocks_d2_ns": full[0][1] / n * 1e9,
        "points": points,
        # d = 2 set mode stores one packed uint64 key per visited point.
        "bytes": points * 8,
        "new_ratio": points / (2 * n),
        "spiral_ns": spiral_ns,
    }


def _probe_mc(rw, tr, seed: int, trials: int) -> dict:
    cfg = mc_config()
    master = mc_master_seed(seed)
    spec = rw.TrialSpec(config=cfg, horizon=MC_HORIZON, metrics=("range_speed",), trials=trials, master_seed=master)
    workers = os.cpu_count() or 1
    with tr.span("probe.mc"):
        with tr.span("experiments.run_trials.workers1"):
            rw.run_trials(spec, workers=1)
        with tr.span("generators.make_walk.per_trial"):
            for i in range(trials):
                rw.make_walk(cfg, seed=rw.mix_seed(master, i))
        with tr.span("experiments.run_trials.workersN"):
            rw.run_trials(spec, workers=workers)
    one = tr.last("experiments.run_trials.workers1")
    return {
        "trial_us": one / trials * 1e6,
        "stream_setup_us": tr.last("generators.make_walk.per_trial") / trials * 1e6,
        "pool_speedup": one / tr.last("experiments.run_trials.workersN"),
    }


def _probe_cli(rw, tr, seed: int, n: int, workdir: str) -> dict:
    from rangewalk.cli import read_trajectory_csv, write_trajectory_csv

    path = rw.make_walk(srw_config(seed, n, 5)).path_array(n)
    csv = os.path.join(workdir, "probe.csv")
    jsonl = os.path.join(workdir, "probe.jsonl")
    walks = [rw.walk_from_path(path) for _ in range(2)]
    report = rw.analyze_stream(rw.walk_from_path(path), n)
    with tr.span("probe.cli"):
        with tr.span("core.blocks"):
            _drain(walks[0], n)
        with open(csv, "w", newline="\n") as fh:
            with tr.span("cli.write_trajectory_csv"):
                write_trajectory_csv(walks[1], n, fh)
        with open(csv, "r") as fh:
            with tr.span("cli.read_trajectory_csv"):
                back = read_trajectory_csv(fh)
        with open(jsonl, "w", newline="\n") as fh:
            with tr.span("analysis.jsonl_lines"):
                for line in report.jsonl_lines():
                    fh.write(line + "\n")
    if not np.array_equal(back, path):
        raise AssertionError("CSV probe did not read back the path it wrote")
    rows = n + 1
    out = {
        "write_ns": (tr.last("cli.write_trajectory_csv") - tr.last("core.blocks")) / rows * 1e9,
        "read_ns": tr.last("cli.read_trajectory_csv") / rows * 1e9,
        "bytes_per_row": os.path.getsize(csv) / rows,
        "jsonl_ms": tr.last("analysis.jsonl_lines") * 1e3,
    }
    os.remove(csv)
    os.remove(jsonl)
    return out


def probe_all(rw, tr, wl, reps: int) -> dict:
    """Every per-layer metric: the median of `reps` interleaved probe rounds."""
    seed, sz = wl.seed, wl.sizes
    path2d = random_walk_2d(seed, sz.set_steps)
    rounds = []
    for _ in range(reps):
        srw = _probe_1d(rw, tr, "srw", srw_config(seed, sz.srw_steps, 1), sz.srw_steps, True)
        erg = _probe_1d(rw, tr, "ergodic", ergodic_config(seed, sz.ergodic_steps), sz.ergodic_steps, False)
        two = _probe_2d(rw, tr, path2d)
        mc = _probe_mc(rw, tr, seed, sz.probe_trials)
        cli = _probe_cli(rw, tr, seed, sz.csv_steps, wl.workdir)
        rounds.append(
            {
                "generators.srw_ns_per_step": srw["gen_ns"],
                "generators.markov_ns_per_step": erg["gen_ns"],
                "generators.spiral_ns_per_step": two["spiral_ns"],
                "core.blocks_ns_per_step_d1": srw["blocks_ns"],
                "core.blocks_ns_per_step_d2": two["blocks_d2_ns"],
                "core.block_count": srw["blocks"] + erg["blocks"],
                "core.walk_from_path_ns_per_row": srw["wfp_ns"],
                "analysis.range_interval_ns_per_step": srw["range_ns"],
                "analysis.extrema_ns_per_step": srw["extrema_ns"],
                "analysis.report_self_ns_per_step": srw["report_self_ns"],
                "analysis.range_set_ns_per_step": two["range_set_ns"],
                "analysis.range_set_growth": two["range_set_growth"],
                "analysis.range_set_points": two["points"],
                "analysis.range_set_bytes": two["bytes"],
                "analysis.range_set_new_ratio": two["new_ratio"],
                "experiments.trial_us": mc["trial_us"],
                "experiments.stream_setup_us": mc["stream_setup_us"],
                "experiments.pool_speedup": mc["pool_speedup"],
                "cli.csv_write_ns_per_row": cli["write_ns"],
                "cli.csv_read_ns_per_row": cli["read_ns"],
                "cli.csv_bytes_per_row": cli["bytes_per_row"],
                "cli.jsonl_write_ms": cli["jsonl_ms"],
            }
        )
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
