"""Per-chain cost of a Markov chain law's block map against the plain loop.

    PYTHONPATH=src python scripts/markov_gather_table.py [--steps 65536] [--repeats 15]

For each chain, draws one block of uniforms into a `generators._Scratch`, as
a streamed walk's source does, and times the whole `_ChainLaw.steps` on it:
the interval ids, `_gather_states` and the labels.  It also times the plain
Python loop s_k = table[ids[k], s_{k-1}] over the same interval ids (the
sampler before it was vectorized: `tolist`, the loop, `np.asarray`), in
alternation with `steps`.  Prints a Markdown table of the best ns/step of
each and the minor page faults (`ru_minflt`) per `steps` call, after
checking that both give the same states.
"""

from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from rangewalk.generators import MarkovIncrementChain, _ChainLaw, _Scratch

THREE_STATES = (1, 0, -1)

CHAINS = {
    "`switch:0.1,0.3`": MarkovIncrementChain.two_state(0.1, 0.3),
    "`iid:0.7`": MarkovIncrementChain.iid(0.7),
    "`switch:0.01,0.01`": MarkovIncrementChain.two_state(0.01, 0.01),
    "`switch:0.001,0.002`": MarkovIncrementChain.two_state(0.001, 0.002),
    "`switch:0.9,0.8`": MarkovIncrementChain.two_state(0.9, 0.8),
    "`switch:0.99,0.99`": MarkovIncrementChain.two_state(0.99, 0.99),
    "3-state mixing": MarkovIncrementChain(
        THREE_STATES, np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    ),
    "3-state cycle": MarkovIncrementChain(
        THREE_STATES, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    ),
}


def loop_states(ids: np.ndarray, table: np.ndarray, s0: int) -> np.ndarray:
    maps = table.tolist()
    out = [0] * ids.size
    s = int(s0)
    for k, i in enumerate(ids.tolist()):
        s = maps[i][s]
        out[k] = s
    return np.asarray(out, dtype=np.int64)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=1 << 16)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    shape = (1, args.steps)
    uniforms = np.random.default_rng(args.seed).random(shape)
    print("| chain | loop ns/step | `steps` ns/step | `steps` / loop | faults per `steps` call |")
    print("|---|---|---|---|---|")
    for name, chain in CHAINS.items():
        law = _ChainLaw(chain)
        scratch = _Scratch(args.steps)
        u = scratch.views(shape)[0]
        start = np.zeros(1, dtype=np.int64)
        ids = np.searchsorted(law._breaks, uniforms[0], side="right")
        np.copyto(u, uniforms)  # `steps` writes its keys over the uniforms
        inc, _ = law.steps(u, start, scratch)
        if not np.array_equal(inc[0], np.asarray(chain.states)[loop_states(ids, law._table, 0)]):
            raise SystemExit(f"{name}: steps and loop disagree")
        loop_best = steps_best = float("inf")
        faults = 0
        for _ in range(args.repeats):
            t = time.perf_counter()
            loop_states(ids, law._table, 0)
            loop_best = min(loop_best, time.perf_counter() - t)
            np.copyto(u, uniforms)
            before, t = minor_faults(), time.perf_counter()
            law.steps(u, start, scratch)
            steps_best = min(steps_best, time.perf_counter() - t)
            faults += minor_faults() - before
        loop_ns, steps_ns = (best / args.steps * 1e9 for best in (loop_best, steps_best))
        print(
            f"| {name} | {loop_ns:.1f} | {steps_ns:.1f} | {steps_ns / loop_ns:.2f} "
            f"| {faults / args.repeats:.0f} |"
        )


if __name__ == "__main__":
    main()
