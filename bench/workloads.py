"""The four benchmark workloads: sizes, seeded inputs and the timed operations.

Imported by the child process (which times the operations) and by the
parent (which checks their outputs).  Everything here except the operations
themselves uses numpy only, so input generation never goes through the
library under test.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

#: Seed whose outputs are compared against the digests in golden.json.
DEFAULT_SEED = 0

WORKLOADS = ("stream-1d", "set-range", "mc-short", "csv-roundtrip")

SRW_P = 0.7
ERGODIC_PRESET = "switch:0.1,0.3"
MC_HORIZON = 10


@dataclass(frozen=True)
class Sizes:
    """Horizons and trial counts for one benchmark mode."""

    srw_steps: int          # stream-1d srw horizon
    ergodic_steps: int      # stream-1d ergodic horizon
    set_steps: int          # set-range horizon (both inputs)
    mc_trials: int          # mc-short trials per run_trials call
    csv_steps: int          # csv-roundtrip horizon
    probe_trials: int       # experiments probes in the traced run


# The two stream-1d horizons are chosen so that each stream takes a similar
# share of an operation at the parent commit (about 0.13 s each on a 2-core
# x86 box): the srw stream is vectorised, the ergodic one pays the
# pure-Python Markov gather.
FULL = Sizes(
    srw_steps=4_000_000,
    ergodic_steps=1_000_000,
    set_steps=1 << 18,
    mc_trials=5_000,
    csv_steps=250_000,
    probe_trials=2_000,
)
SMOKE = Sizes(
    srw_steps=200_000,
    ergodic_steps=50_000,
    set_steps=1 << 13,
    mc_trials=200,
    csv_steps=20_000,
    probe_trials=100,
)


def sizes_for(smoke: bool) -> Sizes:
    return SMOKE if smoke else FULL


def derive_seed(seed: int, stream: int) -> int:
    """A 64-bit input seed for one input of a run, from the run's --seed."""
    ss = np.random.SeedSequence([int(seed), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def srw_config(seed: int, steps: int, stream: int) -> dict:
    return {"gen": "srw", "p": SRW_P, "steps": steps, "seed": derive_seed(seed, stream)}


def ergodic_config(seed: int, steps: int) -> dict:
    return {"gen": "ergodic", "preset": ERGODIC_PRESET, "steps": steps, "seed": derive_seed(seed, 2)}


def random_walk_2d(seed: int, steps: int) -> np.ndarray:
    """A random unit-step walk on Z^2 from the origin, shape (steps + 1, 2)."""
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 3)))
    dirs = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.int64)
    path = np.zeros((steps + 1, 2), dtype=np.int64)
    np.cumsum(dirs[rng.integers(0, 4, size=steps)], axis=0, out=path[1:])
    return path


def mc_config() -> dict:
    return {"gen": "srw", "p": SRW_P, "steps": MC_HORIZON}


def mc_master_seed(seed: int) -> int:
    return derive_seed(seed, 4)


def csv_flags(seed: int, steps: int) -> list:
    cfg = srw_config(seed, steps, 5)
    return ["--gen", "srw", "--p", str(SRW_P), "--steps", str(steps), "--seed", str(cfg["seed"])]


def work_per_op(name: str, sizes: Sizes) -> tuple:
    """(walks, steps) one operation analyses, for trials_per_s and steps_per_s.

    For csv-roundtrip the steps are trajectory rows, x_0 .. x_N.
    """
    return {
        "stream-1d": (2, sizes.srw_steps + sizes.ergodic_steps),
        "set-range": (2, 2 * sizes.set_steps),
        "mc-short": (sizes.mc_trials, sizes.mc_trials * MC_HORIZON),
        "csv-roundtrip": (1, sizes.csv_steps + 1),
    }[name]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class Workload:
    """One workload bound to a seed and sizes, ready to run operations.

    `setup` builds what the operations reuse (specs, configs) and `op` runs
    the timed public calls.
    """

    name: str
    seed: int
    sizes: Sizes
    workdir: str
    state: dict = field(default_factory=dict)

    def make_inputs(self) -> None:
        """The benchmark's own input generation (excluded from setup_s)."""
        if self.name == "set-range":
            self.state["path2d"] = random_walk_2d(self.seed, self.sizes.set_steps)

    def setup(self, rw) -> None:
        """Construct the configs and specs the operations reuse."""
        s, n = self.seed, self.sizes
        if self.name == "stream-1d":
            self.state["configs"] = [
                (srw_config(s, n.srw_steps, 1), n.srw_steps),
                (ergodic_config(s, n.ergodic_steps), n.ergodic_steps),
            ]
        elif self.name == "set-range":
            self.state["spiral"] = {"gen": "spiral2d", "steps": n.set_steps}
        elif self.name == "mc-short":
            self.state["spec"] = rw.TrialSpec(
                config=mc_config(),
                horizon=MC_HORIZON,
                metrics=("range_speed",),
                trials=n.mc_trials,
                master_seed=mc_master_seed(s),
            )
        elif self.name == "csv-roundtrip":
            from rangewalk.cli import run_command

            self.state["run_command"] = run_command
            flags = csv_flags(s, n.csv_steps)
            csv = os.path.join(self.workdir, "t.csv")
            report = os.path.join(self.workdir, "report.jsonl")
            self.state["argv"] = (
                ["generate", *flags, "--out", csv],
                ["analyze", "--in", csv, *flags, "--out", report],
            )
            self.state["files"] = (csv, report)
        else:
            raise ValueError(f"unknown workload {self.name!r}")

    def op(self, rw, tr=NullTracer()):
        """The timed public calls; returns raw results for `outputs`."""
        st = self.state
        if self.name == "stream-1d":
            out = []
            for cfg, horizon in st["configs"]:
                with tr.span("generators.make_walk"):
                    stream = rw.make_walk(cfg)
                with tr.span("analysis.analyze_stream"):
                    out.append(rw.analyze_stream(stream, horizon))
            return out
        if self.name == "set-range":
            n = self.sizes.set_steps
            with tr.span("core.walk_from_path"):
                walk = rw.walk_from_path(st["path2d"])
            with tr.span("analysis.analyze_stream"):
                first = rw.analyze_stream(walk, n)
            with tr.span("generators.make_walk"):
                spiral = rw.make_walk(st["spiral"])
            with tr.span("analysis.analyze_stream"):
                second = rw.analyze_stream(spiral, n)
            return [first, second]
        if self.name == "mc-short":
            with tr.span("experiments.run_trials"):
                return rw.run_trials(st["spec"], workers=1)
        gen_argv, analyze_argv = st["argv"]
        with tr.span("cli.run_command.generate"):
            rc_gen = st["run_command"](gen_argv)
        with tr.span("cli.run_command.analyze"):
            rc_an = st["run_command"](analyze_argv)
        return rc_gen, rc_an

    def outputs(self, result) -> dict:
        """Serialise one operation's results into named output texts."""
        if self.name == "stream-1d":
            return {"srw": _jsonl(result[0]), "ergodic": _jsonl(result[1])}
        if self.name == "set-range":
            return {"walk2d": _jsonl(result[0]), "spiral2d": _jsonl(result[1])}
        if self.name == "mc-short":
            return {"mc": json.dumps(result.to_json_doc(), indent=2) + "\n"}
        rc_gen, rc_an = result
        csv, report = self.state["files"]
        with open(report, "r") as fh:
            text = fh.read()
        return {"exit_codes": f"{rc_gen},{rc_an}", "report": text, "csv_sha256": sha256_file(csv)}


def _jsonl(report) -> str:
    return "".join(line + "\n" for line in report.jsonl_lines())


def digests(texts: dict) -> dict:
    """sha256 of each named output text."""
    return {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
