"""Per-law cost of a drawn walk's block map against the plain loop.

    PYTHONPATH=src python scripts/markov_gather_table.py [--steps 65536] [--repeats 15]

For each law, draws one block of uniforms into a `generators._Scratch`, as
a streamed walk's source does, and times the whole law's `steps` on it:
for a chain, the interval ids, `_gather_states` and the labels.  It also
times the plain Python loop over the same uniforms, in alternation with
`steps`: for an i.i.d. law, the label of the number of cuts each uniform
reaches; for the reflected law, |S_k| - |S_{k-1}| of the symmetric walk
S_k; for a chain, s_k = table[ids[k], s_{k-1}] over the interval ids that
numpy counts first (the sampler before it was vectorized: `tolist`, the
loop, `np.asarray`).  Prints a Markdown table of the best ns/step of each
and the minor page faults (`ru_minflt`) per `steps` call, after checking
that `steps` gives int8 steps equal to the loop's.
"""

from __future__ import annotations

import argparse
import bisect
import resource
import time

import numpy as np

from rangewalk.generators import MarkovIncrementChain, _ChainLaw, _Scratch, make_walk, uniform_law

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


def chain_loop(chain: MarkovIncrementChain):
    law = _ChainLaw(chain)

    def loop(u: np.ndarray) -> np.ndarray:
        ids = np.searchsorted(law._breaks, u, side="right")
        return np.asarray(chain.states)[loop_states(ids, law._table, 0)]

    return law, loop


def walk_law(config: dict):
    return uniform_law(make_walk(dict(config, steps=1), seed=0))


def iid_loop(config: dict, cuts: tuple, labels: tuple):
    def loop(u: np.ndarray) -> np.ndarray:
        out = [0] * u.size
        for k, x in enumerate(u.tolist()):
            out[k] = labels[bisect.bisect_right(cuts, x)]
        return np.asarray(out, dtype=np.int64)

    return walk_law(config), loop


def reflected_loop():
    def loop(u: np.ndarray) -> np.ndarray:
        out = [0] * u.size
        s = 0
        for k, x in enumerate(u.tolist()):
            t = s + 1 if x < 0.5 else s - 1
            out[k] = abs(t) - abs(s)
            s = t
        return np.asarray(out, dtype=np.int64)

    return walk_law({"gen": "birth-death", "preset": "reflected"}), loop


#: Each row's law and its plain loop from a row of uniforms (and carry 0) to the steps.
LAWS = {
    "srw(0.7)": iid_loop({"gen": "srw", "p": 0.7}, (0.7,), (1, -1)),
    "lazy(0.4)": iid_loop({"gen": "birth-death", "preset": "lazy:0.4"}, (0.4, 0.7), (0, 1, -1)),
    "reflected": reflected_loop(),
    **{name: chain_loop(chain) for name, chain in CHAINS.items()},
}


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
    print("| law | loop ns/step | `steps` ns/step | `steps` / loop | faults per `steps` call |")
    print("|---|---|---|---|---|")
    for name, (law, loop) in LAWS.items():
        scratch = _Scratch(args.steps)
        u = scratch.views(shape)[0]
        start = np.zeros(1, dtype=np.int64)
        np.copyto(u, uniforms)  # `steps` may write over the uniforms
        inc, _ = law.steps(u, start, scratch)
        if inc.dtype != np.int8 or not np.array_equal(inc[0], loop(uniforms[0])):
            raise SystemExit(f"{name}: steps ({inc.dtype}) and loop disagree")
        loop_best = steps_best = float("inf")
        faults = 0
        for _ in range(args.repeats):
            t = time.perf_counter()
            loop(uniforms[0])
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
