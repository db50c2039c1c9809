"""Named verification suites behind `rangewalk verify`.

Each suite returns a list of :class:`SuiteResult`; a failure of any property
here means an implementation bug (the inequalities are theorems) or, for the
Monte Carlo oracle, a statistically flagged mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analysis, experiments, generators, pcg64
from .core import _check_seed, walk_from_path


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str = "") -> SuiteResult:
    return SuiteResult(name=name, passed=bool(passed), detail=detail)


def _random_bounded_path(rng: np.random.Generator, length: int, m: int) -> np.ndarray:
    steps = rng.integers(-m, m + 1, size=length)
    path = np.empty(length + 1, dtype=np.int64)
    path[0] = 0
    np.cumsum(steps, out=path[1:])
    return path


def _random_unit_path_2d(rng: np.random.Generator, length: int) -> np.ndarray:
    dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
    steps = dirs[rng.integers(0, 4, size=length)]
    path = np.zeros((length + 1, 2), dtype=np.int64)
    np.cumsum(steps, axis=0, out=path[1:])
    return path


def _shipped_generators(seed: int, horizon: int):
    chain = generators.MarkovIncrementChain.two_state(0.1, 0.3)
    zz, _ = generators.gen_zigzag(0.5, horizon)
    zz3, _ = generators.gen_zigzag(0.3, horizon)
    return [
        generators.gen_simple_rw(0.7, horizon, seed),
        generators.gen_simple_rw(0.5, horizon, seed + 1),
        generators.gen_ergodic_walk(chain, horizon, seed + 2),
        generators.gen_birth_death("symmetric", horizon, seed + 3),
        generators.gen_birth_death("lazy:0.3", horizon, seed + 4),
        generators.gen_birth_death("reflected", horizon, seed + 5),
        zz,
        zz3,
        generators.gen_tau_tent("squares", horizon),
        generators.gen_tau_tent("geometric:3", horizon),
        generators.gen_linear_drift(2, [2, -1, 1], horizon),
        generators.gen_spiral2d(horizon),
    ]


def maximal_range_suite(
    paths: int = 1000, length: int = 1000, m_values=(1, 2, 3, 5), seed: int = 7
) -> list:
    """Maximal range inequality on random bounded paths, generators, and Z^2."""
    if paths < 1:
        raise ValueError("maximal-range needs paths >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    results = []
    if isinstance(m_values, int):
        m_values = (m_values,)
    per_m = max(1, paths // len(m_values))
    for m in m_values:
        violations = 0
        for _ in range(per_m):
            stream = walk_from_path(_random_bounded_path(rng, length, m), m=m)
            if analysis.check_maximal_range(stream, m, length) is not None:
                violations += 1
        results.append(
            _result(
                f"maximal-range random 1-D paths (m={m})",
                violations == 0,
                f"{per_m} paths of length {length}, {violations} violations",
            )
        )
    gen_horizon = min(length * 2, 4000)
    bad = []
    for stream in _shipped_generators(seed, gen_horizon):
        if analysis.check_maximal_range(stream, stream.m, gen_horizon) is not None:
            bad.append(stream.metadata.generator_name)
    results.append(
        _result(
            "maximal-range shipped generators",
            not bad,
            f"horizon {gen_horizon}" + (f", violations in {bad}" if bad else ""),
        )
    )
    violations_2d = 0
    n_2d = max(1, paths // 10)
    for _ in range(n_2d):
        stream = walk_from_path(_random_unit_path_2d(rng, length), m=1)
        if analysis.check_maximal_range(stream, 1, length) is not None:
            violations_2d += 1
    spiral_bad = analysis.check_maximal_range(generators.gen_spiral2d(length), 1, length)
    results.append(
        _result(
            "maximal-range Z^2 (spiral + random unit paths)",
            violations_2d == 0 and spiral_bad is None,
            f"{n_2d} random 2-D paths, {violations_2d} violations; spiral ok={spiral_bad is None}",
        )
    )
    return results


def sandwich_suite(paths: int = 1000, length: int = 1000, seed: int = 7) -> list:
    """1-D sandwich M+1 <= r <= 2M+1 at every n, on set counts and numpy's running
    max of |x_n| (not the extent path), plus extent-vs-set range oracle equivalence."""
    if paths < 1:
        raise ValueError("sandwich needs paths >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    sandwich_bad = 0
    oracle_bad = 0
    for _ in range(paths):
        p_flat = rng.uniform(0.0, 0.5)
        p_up = rng.uniform(0.0, 1.0 - p_flat)
        u = rng.random(length)
        steps = np.where(u < p_flat, 0, np.where(u < p_flat + p_up, 1, -1)).astype(np.int64)
        path = np.empty(length + 1, dtype=np.int64)
        path[0] = 0
        np.cumsum(steps, out=path[1:])
        r = analysis.RangeTracker().update(path)
        big = np.maximum.accumulate(np.abs(path))
        if not np.all((big + 1 <= r) & (r <= 2 * big + 1)):
            sandwich_bad += 1
        cps, by_extent = analysis.track_range(walk_from_path(path, m=1), length)
        if not np.array_equal(by_extent, r[cps]):
            oracle_bad += 1
    return [
        _result(
            "sandwich M+1 <= r <= 2M+1 on random m=1 paths",
            sandwich_bad == 0,
            f"{paths} paths of length {length}, {sandwich_bad} violations",
        ),
        _result(
            "extent range == set range at dyadic checkpoints",
            oracle_bad == 0,
            f"{paths} paths, {oracle_bad} mismatches",
        ),
    ]


def excursion_suite(paths: int = 100, steps: int = 10_000, seed: int = 7) -> list:
    """Excursion bound |x_n| <= gap/2 on tents and symmetric random walks."""
    if paths < 1:
        raise ValueError("excursion needs paths >= 1")
    _check_seed(seed)  # mix_seed would mask it to another seed's paths
    results = []
    zz, _ = generators.gen_zigzag(0.5, steps)
    chk = analysis.check_excursion_bound(zz, steps)
    results.append(
        _result(
            "excursion bound on zigzag(0.5)",
            chk.holds and chk.tight == chk.n_excursions,
            f"{chk.n_excursions} excursions, {chk.tight} tight peaks",
        )
    )
    chk = analysis.check_excursion_bound(generators.gen_tau_tent("squares", steps), steps)
    results.append(
        _result(
            "excursion bound on tau-tent(squares)",
            chk.holds,
            f"{chk.n_excursions} excursions",
        )
    )
    bad = 0
    skipped = 0
    for i in range(paths):
        stream = generators.gen_simple_rw(0.5, steps, pcg64.mix_seed(seed, i))
        try:
            chk = analysis.check_excursion_bound(stream, steps)
        except analysis.ClassRAssumptionError:
            skipped += 1
            continue
        if not chk.holds:
            bad += 1
    results.append(
        _result(
            "excursion bound on srw(0.5) seeds",
            bad == 0,
            f"{paths} seeds at horizon {steps}, {bad} violations, {skipped} without two zeros",
        )
    )
    return results


def zigzag_exact_suite(steps: int = 1_000_000) -> list:
    """Exact zero-return and peak-ratio identities of the tent plans."""
    results = []
    stream, plan = generators.gen_zigzag(0.5, steps)
    taus = [t for t in plan.tau if t <= steps]
    peaks = [t for t in plan.t[1:] if t <= steps]
    cps = sorted(set(taus + peaks))  # x is read at these n only
    x = dict(zip(cps, analysis._scan(stream, steps, cps, False, False)[0]["x"]))
    zeros_ok = all(x[t] == 0 for t in taus)
    halves_ok = all(2 * x[t] == t for t in peaks)
    results.append(
        _result(
            "zigzag(0.5) iterated: x_tau = 0 and x_t/t = 1/2 (n >= 1)",
            zeros_ok and halves_ok,
            f"{len(taus)} taus within {steps}",
        )
    )
    formula_ok = all(
        plan.position_at(plan.tau_at(n)) == 0 and plan.peak_ratio(n) == Fraction(1, 2)
        for n in range(1, 31)
    )
    results.append(
        _result("zigzag(0.5) formula: identities for n <= 30", formula_ok, "direct evaluation")
    )
    q = (1 + Fraction(1, 2)) / (1 - Fraction(1, 2))
    general_tau = [
        2 * ((q**n).numerator // (q**n).denominator) for n in range(12)
    ]
    agree = general_tau == [plan.tau_at(n) for n in range(12)]
    results.append(
        _result("zigzag(0.5) general formula (n0=0) == closed form 2*3^n", agree, "n < 12")
    )
    general_ok = True
    details = []
    for ell in (0.1, 0.3, 0.9):
        _, gplan = generators.gen_zigzag(ell, 1000)
        ratios = [float(gplan.peak_ratio(n)) for n in range(1, 21)]
        got = max(ratios)
        general_ok &= got >= ell
        details.append(f"ell={ell}: max ratio {got:.4f}")
    _, p3 = generators.gen_zigzag(0.3, 12)
    general_ok &= p3.tau[:3] == (2, 6, 12)
    results.append(
        _result(
            "general-ell plans validate and reach their ell",
            general_ok,
            "; ".join(details) + f"; ell=0.3 tau {p3.tau[:3]}",
        )
    )
    return results


def spiral_distinct_suite(steps: int = 100_000) -> list:
    """Spiral fills Z^2: all vertices distinct, r_n = n + 1, unit steps."""
    stream = generators.gen_spiral2d(steps)
    unit, last = True, np.empty((0, 2), dtype=np.int64)  # the row before the block
    for block, _ in stream._checked_blocks(steps):
        diffs = np.diff(np.concatenate((last, block)), axis=0)
        unit &= bool((np.sum(diffs * diffs, axis=1) == 1).all())
        last = block[-1:].copy()
    if steps < 1:  # only 0 gets here: the blocks refuse a negative horizon
        raise ValueError("spiral-distinct needs steps >= 1 for its ||x_n||/n ratio")
    # r grows by at most 1 a step from r_0 = 1, so r_N = N + 1 forces r_n = n + 1.
    count = int(analysis.track_range(stream, steps, [steps])[1][0])
    norm_ratio = float(np.sqrt(np.dot(last[0], last[0]))) / steps
    return [
        _result(
            "spiral2d distinct vertices with r_n = n + 1",
            count == steps + 1,
            f"{steps + 1} points, {count} distinct",
        ),
        _result("spiral2d unit axis steps", unit, f"checked {steps} steps"),
        _result(
            "spiral2d slow escape ||x_n||/n <= 0.02",
            norm_ratio <= 0.02,
            f"ratio {norm_ratio:.6f} at n = {steps}",
        ),
    ]


def oracle_range_suite(
    trials: int = 100_000, steps: int = 10, seed: int = 11, ps=(0.3, 0.5, 0.7)
) -> list:
    """Monte Carlo mean of R_N/N vs exhaustive enumeration, within 3 SE."""
    results = []
    for p in ps:
        exact = experiments.exact_range_speed(p, steps)
        spec = experiments.TrialSpec(
            config={"gen": "srw", "p": p, "steps": steps},
            horizon=steps,
            metrics=("range_speed",),
            trials=trials,
            master_seed=seed,
        )
        mc = experiments.run_trials(spec).per_metric["range_speed"].mean
        se = exact.std / np.sqrt(trials)
        results.append(
            _result(
                f"exhaustive oracle vs MC, p={p}",
                abs(mc - exact.mean) <= 3 * se,
                f"exact {exact.mean:.6f}, mc {mc:.6f}, 3se {3 * se:.6f}",
            )
        )
    return results


#: Each suite and the `verify` options it takes.
SUITES: dict = {
    "maximal-range": (maximal_range_suite, ("paths", "length", "m_values", "seed")),
    "sandwich": (sandwich_suite, ("paths", "length", "seed")),
    "excursion": (excursion_suite, ("paths", "steps", "seed")),
    "zigzag-exact": (zigzag_exact_suite, ("steps",)),
    "spiral-distinct": (spiral_distinct_suite, ("steps",)),
    "oracle-range": (oracle_range_suite, ("trials", "steps", "seed")),
}


def run_suite(name: str, **options) -> list:
    """Run a named suite with the options it takes that are not None."""
    try:
        fn, takes = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return fn(**{k: options[k] for k in takes if options.get(k) is not None})
