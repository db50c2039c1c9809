"""Per-chain cost of the Markov state sampler against the plain loop it replaced.

    PYTHONPATH=src python scripts/markov_gather_table.py [--steps 65536] [--repeats 15]

For each chain, draws one block of uniforms, maps them to per-position state
maps as the ergodic generator does, and times `generators._gather_states`
and the plain Python loop s_k = nxt[s_{k-1}, k] (the sampler before it was
vectorized: `tolist`, the loop, `np.asarray`) in alternation.  Prints a
Markdown table of the best ns/step of each, after checking that both give
the same states.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from rangewalk.generators import MarkovIncrementChain, _gather_states


def _two_state(a: float, b: float) -> np.ndarray:
    return MarkovIncrementChain.two_state(a, b).transition


CHAINS = {
    "`switch:0.1,0.3`": _two_state(0.1, 0.3),
    "`iid:0.7`": MarkovIncrementChain.iid(0.7).transition,
    "`switch:0.01,0.01`": _two_state(0.01, 0.01),
    "`switch:0.001,0.002`": _two_state(0.001, 0.002),
    "`switch:0.9,0.8`": _two_state(0.9, 0.8),
    "`switch:0.99,0.99`": _two_state(0.99, 0.99),
    "3-state mixing": np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
    "3-state cycle": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
}


def loop_states(nxt: np.ndarray, s0: int) -> np.ndarray:
    rows = nxt.tolist()
    out = [0] * nxt.shape[1]
    s = int(s0)
    for k in range(nxt.shape[1]):
        s = rows[s][k]
        out[k] = s
    return np.asarray(out, dtype=np.int64)


def state_maps(transition: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(transition, axis=1)
    n_states = cum.shape[0]
    nxt = np.stack([np.searchsorted(cum[s], u, side="right") for s in range(n_states)])
    return np.minimum(nxt, n_states - 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=1 << 16)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    u = np.random.default_rng(args.seed).random(args.steps)
    print("| chain | loop ns/step | sampler ns/step | sampler / loop |")
    print("|---|---|---|---|")
    for name, transition in CHAINS.items():
        nxt = state_maps(transition, u)
        if not np.array_equal(_gather_states(nxt, 0), loop_states(nxt, 0)):
            raise SystemExit(f"{name}: sampler and loop disagree")
        best = {loop_states: float("inf"), _gather_states: float("inf")}
        for _ in range(args.repeats):
            for fn in best:
                t = time.perf_counter()
                fn(nxt, 0)
                best[fn] = min(best[fn], time.perf_counter() - t)
        loop_ns, sampler_ns = (best[fn] / args.steps * 1e9 for fn in best)
        print(f"| {name} | {loop_ns:.1f} | {sampler_ns:.1f} | {sampler_ns / loop_ns:.2f} |")


if __name__ == "__main__":
    main()
