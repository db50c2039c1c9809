"""Monte Carlo harness: determinism, exact aggregation, oracle agreement."""

import hashlib
import json
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rangewalk.experiments as E
import rangewalk.generators as G
from rangewalk.core import INT64_MAX, CoordinateOverflowError
from rangewalk.experiments import (
    AggregateReport,
    MetricAggregate,
    TrialSpec,
    _aggregate,
    compare,
    estimate_no_return,
    exact_range_speed,
    run_trials,
)
from rangewalk.generators import make_walk, uniform_law
from rangewalk.pcg64 import mix_seed, mix_seeds, pcg64_states

# Frozen by independent enumeration over all 2^10 sign sequences with exact
# rational weights (p = 3/10, 1/2, 7/10): E[R_10/10].
EXACT_R10 = {
    0.5: 1323 / 2560,              # = 0.516796875
    0.3: 15869000543 / 25000000000,  # = 0.63476002172
    0.7: 15869000543 / 25000000000,
}


class TestTrialSpec:
    def test_validation(self):
        base = {"gen": "srw", "p": 0.5, "steps": 10}
        with pytest.raises(ValueError):
            TrialSpec(config=base, horizon=0)
        with pytest.raises(ValueError):
            TrialSpec(config=base, horizon=10, trials=0)
        with pytest.raises(ValueError):
            TrialSpec(config=base, horizon=10, metrics=())
        with pytest.raises(ValueError):
            TrialSpec(config=base, horizon=10, metrics=("speediness",))

    @pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**64 + 5])
    def test_master_seed_outside_uint64_is_refused(self, seed):
        # mix_seed masks the master seed: 2^64 would rerun seed 0's trials.
        base = {"gen": "srw", "p": 0.5, "steps": 10}
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            TrialSpec(config=base, horizon=10, trials=50, master_seed=seed)
        for edge in (0, 2**64 - 1):
            TrialSpec(config=base, horizon=10, master_seed=edge)  # allowed

    def test_deterministic_generator_needs_single_trial(self):
        cfg = {"gen": "zigzag", "ell": 0.5, "steps": 10}
        with pytest.raises(ValueError):
            TrialSpec(config=cfg, horizon=10, trials=2)
        TrialSpec(config=cfg, horizon=10, trials=1)  # allowed


class TestRunTrials:
    def test_drifting_walk_exact_values(self):
        spec = TrialSpec(
            config={"gen": "srw", "p": 1.0, "steps": 100},
            horizon=100,
            trials=5,
            master_seed=1,
        )
        report = run_trials(spec)
        assert report.per_metric["range_speed"].mean == pytest.approx(101 / 100)
        assert report.per_metric["no_return"].mean == 1.0
        assert report.per_metric["range_speed"].stddev == 0.0

    def test_missing_key_is_a_value_error(self):
        spec = TrialSpec(config={"gen": "srw", "steps": 5}, horizon=5, trials=3)
        with pytest.raises(ValueError, match="'p'"):
            run_trials(spec)

    def test_parallel_report_is_byte_identical(self):
        spec = TrialSpec(
            config={"gen": "srw", "p": 0.6, "steps": 2000},
            horizon=2000,
            trials=40,
            master_seed=99,
        )
        serial = json.dumps(run_trials(spec, workers=1).to_json_doc())
        pooled = json.dumps(run_trials(spec, workers=4).to_json_doc())
        assert serial == pooled

    def test_mean_matches_dumped_trials(self):
        spec = TrialSpec(
            config={"gen": "srw", "p": 0.55, "steps": 500},
            horizon=500,
            trials=200,
            master_seed=3,
        )
        report = run_trials(spec, keep_trials=True)
        for name in spec.metrics:
            recomputed = float(np.mean(report.per_trial[name]))
            mean = report.per_metric[name].mean
            assert abs(recomputed - mean) <= 1e-12 * max(1.0, abs(mean))

    def test_signed_walk_values_recorded(self):
        spec = TrialSpec(
            config={"gen": "srw", "p": 0.5, "steps": 100},
            horizon=100,
            trials=10,
            master_seed=5,
        )
        report = run_trials(spec, keep_trials=True)
        signed = np.asarray(report.per_trial["walk_speed_signed"])
        absd = np.asarray(report.per_trial["walk_speed"])
        assert np.allclose(np.abs(signed), absd)

    @pytest.mark.parametrize("t", [1, 2, 3, 7])
    def test_aggregate_sums_exactly_on_both_sides_of_the_int64_bound(self, t):
        # t·max|v|^2 = INT64_MAX at most (int64 sums), then just past it (Python ints).
        edge = math.isqrt(INT64_MAX // t)
        for peak in (edge, edge + 1):
            values = np.resize(np.array([-peak, peak, peak // 3], dtype=np.int64), t)
            ints = values.tolist()
            s1, s2 = sum(ints), sum(v * v for v in ints)
            var = (s2 * t - s1 * s1) / (t * (t - 1)) / 49 if t > 1 else 0.0
            got = _aggregate(values, 7)
            assert got.mean == s1 / (t * 7)
            assert got.stddev == math.sqrt(max(var, 0.0))

    def test_ergodic_chain_theory_attached(self):
        spec = TrialSpec(
            config={"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 5000},
            horizon=5000,
            trials=20,
            master_seed=8,
        )
        report = run_trials(spec)
        assert report.per_metric["range_speed"].theory == pytest.approx(0.5)
        assert report.per_metric["range_speed"].mean == pytest.approx(0.5, abs=0.05)


class TestTheoryValue:
    """run_trials' theory target is the |drift| of the walk it builds."""

    @staticmethod
    def _theory(config):
        spec = TrialSpec(config={**config, "steps": 10}, horizon=10)
        return {name: agg.theory for name, agg in run_trials(spec).per_metric.items()}

    def test_srw(self):
        assert self._theory({"gen": "srw", "p": 0.5})["range_speed"] == 0.0
        got = self._theory({"gen": "srw", "p": 0.75})
        assert got == {"range_speed": 0.5, "walk_speed": 0.5, "no_return": 0.5, "max_speed": None}

    def test_chain(self):
        got = self._theory({"gen": "ergodic", "preset": "switch:0.1,0.3"})
        assert got["range_speed"] == got["walk_speed"] == pytest.approx(0.5)
        assert got["no_return"] is got["max_speed"] is None

    def test_chain_law_is_solved_once(self, monkeypatch):
        import rangewalk.generators as G

        calls = []
        solve = G.stationary_distribution
        monkeypatch.setattr(G, "stationary_distribution", lambda p: calls.append(1) or solve(p))
        self._theory({"gen": "ergodic", "preset": "switch:0.1,0.3"})
        assert len(calls) == 1

    def test_absent(self):
        # Only srw and ergodic runs have a theory target, whatever drift the walk declares.
        for config in (
            {"gen": "zigzag", "ell": 0.5},
            {"gen": "birth-death", "preset": "symmetric"},
            {"gen": "spiral2d"},
            {"gen": "linear-drift", "pattern": [2, -1, 1]},
        ):
            assert set(self._theory(config).values()) == {None}, config


class TestCompare:
    def test_exact_pass(self):
        spec = TrialSpec(
            config={"gen": "srw", "p": 1.0, "steps": 50},
            horizon=50,
            metrics=("walk_speed",),
            trials=3,
            master_seed=0,
        )
        verdicts = compare(run_trials(spec), tol=1e-9)
        assert verdicts["walk_speed"]["pass"]

    def test_mismatch_fails_with_delta(self):
        report = AggregateReport(
            spec=TrialSpec(
                config={"gen": "srw", "p": 0.7, "steps": 10}, horizon=10, master_seed=0
            ),
            per_metric={
                "range_speed": MetricAggregate(mean=0.3, stddev=0.0, ci95=0.0, theory=0.4)
            },
        )
        verdicts = compare(report, tol=0.02)
        assert not verdicts["range_speed"]["pass"]
        assert verdicts["range_speed"]["delta"] == pytest.approx(0.1)

    def test_cross_metric_check(self):
        report = AggregateReport(
            spec=TrialSpec(
                config={"gen": "srw", "p": 0.7, "steps": 10}, horizon=10, master_seed=0
            ),
            per_metric={
                "range_speed": MetricAggregate(mean=0.40, stddev=0.0, ci95=0.0, theory=0.4),
                "walk_speed": MetricAggregate(mean=0.41, stddev=0.0, ci95=0.0, theory=0.4),
            },
        )
        verdicts = compare(report, tol=0.02)
        assert verdicts["cross_range_walk"]["pass"]
        assert verdicts["cross_range_walk"]["delta"] == pytest.approx(0.01)

    def test_no_theory_is_an_error(self):
        report = AggregateReport(
            spec=TrialSpec(
                config={"gen": "srw", "p": 0.7, "steps": 10}, horizon=10, master_seed=0
            ),
            per_metric={"max_speed": MetricAggregate(mean=0.4, stddev=0.0, ci95=0.0)},
        )
        with pytest.raises(ValueError):
            compare(report, tol=0.1)


class TestNoReturn:
    def test_p_one_never_returns(self):
        est = estimate_no_return(1.0, 100, 20, master_seed=0)
        assert est.frequency == 1.0

    def test_bias_note_present(self):
        est = estimate_no_return(0.5, 100, 10, master_seed=0)
        assert "over-estimates" in est.bias_note
        assert "non-increasing" in est.bias_note

    def test_nested_horizons_share_seeds(self):
        est = estimate_no_return(0.5, 1000, 200, master_seed=17, horizons=(10, 100, 1000))
        assert est.per_trial_monotone
        assert est.frequencies[0] >= est.frequencies[1] >= est.frequencies[2]
        # literal per-trial monotonicity via the recorded first-return times
        for h_lo, h_hi in ((10, 100), (100, 1000)):
            lo = est.indicators(h_lo)
            hi = est.indicators(h_hi)
            assert all(a >= b for a, b in zip(lo, hi))

    def test_symmetric_walk_frequency_decays(self):
        est = estimate_no_return(0.5, 10**4, 300, master_seed=4, horizons=(100, 1000, 10**4))
        assert est.frequencies[0] > est.frequencies[2]
        assert est.frequency < 0.2

    def test_bad_p(self):
        with pytest.raises(ValueError):
            estimate_no_return(1.5, 10, 10, 0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_bad_trials(self, trials):
        with pytest.raises(ValueError, match="trials"):
            estimate_no_return(0.5, 10, trials, 0)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            estimate_no_return(0.5, horizon, 10, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_outside_uint64_is_refused(self, seed):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            estimate_no_return(0.5, 10, 10, seed)

    @pytest.mark.parametrize("horizons", [(0, 5), (-2,), (5, 11)])
    def test_nested_horizons_outside_the_horizon(self, horizons):
        with pytest.raises(ValueError, match=r"nested horizons must lie in \[1, 10\]"):
            estimate_no_return(0.5, 10, 10, 0, horizons=horizons)

    def test_nested_horizons_at_the_ends(self):
        est = estimate_no_return(0.5, 10, 10, 0, horizons=(10, 1))
        assert est.horizons == (1, 10) and est.frequencies[1] == est.frequency

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.integers(1, 300),
        st.integers(1, 50),
        st.integers(2, 1024),
        st.integers(0, 2**64 - 1),
        st.data(),
    )
    def test_matches_per_trial_oracle(self, p, horizon, trials, cells, master, data):
        # A small cell budget puts returns on chunk edges and column-block edges.
        nested = data.draw(st.lists(st.integers(1, horizon), max_size=4))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(E, "CHUNK_CELLS", cells)
            est = estimate_no_return(p, horizon, trials, master, horizons=nested)
        config = {"gen": "srw", "p": p, "steps": horizon}
        _, first = _oracle_per_trial(config, horizon, trials, master)
        assert est.first_returns == tuple(first)

        def freq(h):
            return sum(t is None or t > h for t in first) / trials

        assert est.frequency == freq(horizon)
        expected = tuple(freq(h) for h in sorted(nested)) if nested else None
        assert est.frequencies == expected

    @pytest.mark.parametrize(
        "p,horizon,trials,seed",
        [(0.7, 100, 500, 3), (0.5, 1000, 64, 11), (0.5, 10, 7, 2**64 - 1), (0.0, 5, 3, 0)],
    )
    def test_frequency_is_run_trials_no_return(self, p, horizon, trials, seed):
        est = estimate_no_return(p, horizon, trials, seed)
        spec = TrialSpec(
            config={"gen": "srw", "p": p, "steps": horizon},
            horizon=horizon,
            metrics=("no_return",),
            trials=trials,
            master_seed=seed,
        )
        assert est.frequency == run_trials(spec).per_metric["no_return"].mean


class TestExactRangeSpeed:
    def test_frozen_values(self):
        for p, expect in EXACT_R10.items():
            assert exact_range_speed(p, 10).mean == pytest.approx(expect, abs=1e-12)

    def test_symmetry_in_p(self):
        a = exact_range_speed(0.2, 9)
        b = exact_range_speed(0.8, 9)
        assert a.mean == pytest.approx(b.mean, abs=1e-12)
        assert a.var == pytest.approx(b.var, abs=1e-12)

    def test_degenerate_p(self):
        stats = exact_range_speed(1.0, 8)
        assert stats.mean == pytest.approx(9 / 8)
        assert stats.var == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", ["0", "0.1", "0.3", "0.5", "0.7", "1"])
    def test_mean_is_the_last_visit_sum(self, p):
        # Count each point at its last visit: E r_N = sum_{i=0..N} P(T_0 > i),
        # with first-return law f_2k = C(2k, k) (pq)^k / (2k - 1).
        pq = Fraction(p) * (1 - Fraction(p))
        for n in range(1, 17):
            no_return = [Fraction(1)]
            for i in range(1, n + 1):
                f = math.comb(i, i // 2) * pq ** (i // 2) / (i - 1) if i % 2 == 0 else 0
                no_return.append(no_return[-1] - f)
            mean = sum(no_return) / n
            if (p, n) == ("0.5", 10):
                assert mean == Fraction(1323, 2560)
            # float64 weights over 2^n paths; the worst gap seen is 5e-15
            assert exact_range_speed(float(p), n).mean == pytest.approx(float(mean), rel=0, abs=1e-12)

    def test_bounds(self):
        with pytest.raises(ValueError):
            exact_range_speed(0.5, 0)
        with pytest.raises(ValueError):
            exact_range_speed(0.5, 21)

    def test_mc_agrees_at_n12(self):
        exact = exact_range_speed(0.5, 12)
        spec = TrialSpec(
            config={"gen": "srw", "p": 0.5, "steps": 12},
            horizon=12,
            metrics=("range_speed",),
            trials=20_000,
            master_seed=13,
        )
        mc = run_trials(spec).per_metric["range_speed"].mean
        assert abs(mc - exact.mean) <= 3 * exact.std / np.sqrt(20_000)


# sha256 of json.dumps(run_trials(spec, keep_trials=True).to_json_doc()) with
# master seed 7, captured when every trial still ran as its own stream.
GOLDEN_RUNS = [
    ({"gen": "srw", "p": 0.7, "steps": 10}, 10, 5000,
     "0e41010ad00695e6ea1d95bd84e56b632d86393cf90642b65aabdfd2ac336608"),
    ({"gen": "srw", "p": 0.5, "steps": 70000}, 70000, 3,
     "3cd0cfc1dc84d2c5361bee3982718aeaa86c837751252c9309bff2e6e3633de2"),
    ({"gen": "birth-death", "preset": "symmetric", "steps": 300}, 300, 50,
     "750a73a68f123addb85b0a13d3175de743773d9522a5dfa962bc56c2b84cfbc4"),
    ({"gen": "birth-death", "preset": "lazy:0.3", "steps": 300}, 300, 50,
     "5ca09c5a37044638481285be991d3a7119382e0ab1fae26809b8da8b83de68e6"),
    ({"gen": "birth-death", "preset": "reflected", "steps": 300}, 300, 50,
     "a4a34928737064d4b42fe39c7b5b7ce1911fd09b063b182cfdd2f96562a6e794"),
    ({"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 300}, 300, 50,
     "cfee6a1d28f029f4e6b0ea1a8bf68342aa62c1f13a1bff4492494b7f41e55a1c"),
    ({"gen": "ergodic", "preset": "iid:0.6", "steps": 300}, 300, 50,
     "1c669e0456e264de1b6df255aad7cd0cd6c016a4f6e356c2f2c580c4aa68c476"),
    ({"gen": "zigzag", "ell": 0.5, "steps": 1000}, 1000, 1,
     "8ede9cdccd98307b42167fc10da1dd1b02d58a675bc12bbc398121d2d2072294"),
    ({"gen": "spiral2d", "steps": 1000}, 1000, 1,
     "7db3d721209dad15de5e7c77b0364430820275d82dbac3dc5fd222e764c1dfa4"),
    ({"gen": "linear-drift", "m": 2, "pattern": [2, -1], "steps": 1000}, 1000, 1,
     "c4ef46205ad3ab55f0273334c7a28930d106b77c37a724b659a63cee28cdf09c"),
]


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_json_doc()).encode()).hexdigest()


@pytest.mark.parametrize(
    "config,horizon,trials,digest",
    GOLDEN_RUNS,
    ids=[f"{c['gen']}-{c.get('preset', horizon)}" for c, horizon, _, _ in GOLDEN_RUNS],
)
def test_report_matches_golden_digest(config, horizon, trials, digest):
    spec = TrialSpec(config=config, horizon=horizon, trials=trials, master_seed=7)
    assert _digest(run_trials(spec, keep_trials=True)) == digest


def _oracle_per_trial(config, horizon, trials, master):
    """Per-trial values and first-return times from each trial's own stream.

    Returns run_trials' ``per_trial`` dict, in Python ints and a set, and
    each trial's first n >= 1 with x_n = 0 (None if there is none).
    """
    out = {name: [] for name in ("range_speed", "walk_speed", "no_return", "max_speed")}
    out["walk_speed_signed"] = []
    first_returns = []
    for i in range(trials):
        path = make_walk(config, seed=mix_seed(master, i)).path_array(horizon).tolist()
        first = path.index(0, 1) if 0 in path[1:] else None
        first_returns.append(first)
        out["range_speed"].append(len(set(path)) / horizon)
        out["walk_speed"].append(abs(path[-1]) / horizon)
        out["walk_speed_signed"].append(path[-1] / horizon)
        out["max_speed"].append(max(abs(x) for x in path) / horizon)
        out["no_return"].append((1 if first is None else 0) / 1)
    return out, first_returns


_unit = st.floats(0.01, 0.99)
_STOCHASTIC = st.one_of(
    st.floats(0.0, 1.0).map(lambda p: {"gen": "srw", "p": p}),
    st.sampled_from(["symmetric", "reflected"]).map(
        lambda name: {"gen": "birth-death", "preset": name}
    ),
    st.floats(0.0, 0.99).map(lambda a: {"gen": "birth-death", "preset": f"lazy:{a}"}),
    st.tuples(_unit, _unit).map(
        lambda ab: {"gen": "ergodic", "preset": f"switch:{ab[0]},{ab[1]}"}
    ),
    _unit.map(lambda p: {"gen": "ergodic", "preset": f"iid:{p}"}),
)


# How a row of the _Extremes oracle moves in each block: drawn by the law, or
# planted so that its first zero falls on a block's first or last column, in
# a later block only, or never.
_PLANTED = ("drawn", "zero-first", "zero-last", "later", "never")


def _planted_steps(kind: str, block: int, k: int):
    """A planted row's k steps in `block`, or None where the law's draw stands."""
    if kind == "never":
        return [1] * k
    if block == 0 and kind == "zero-first":  # a lazy step: x_1 = 0
        return [0] * k
    if block == 0 and kind == "zero-last":  # x_k = 0, the first zero
        return [1] + [0] * (k - 2) + [-1] if k > 1 else [0]
    if kind == "later" and block < 2:  # out to 1, back to 0 on block 1's first column
        return [1 - 2 * block] + [0] * (k - 1)
    return None


class TestExtremes:
    """`_Extremes` against a plain loop, on blocks in both memory orders."""

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        st.lists(st.sampled_from(_PLANTED), min_size=1, max_size=300),
        st.integers(1, 300),
        st.integers(1, 3),
        st.booleans(),
        st.one_of(
            st.floats(0.0, 1.0).map(lambda p: {"gen": "srw", "p": p}),
            st.floats(0.0, 0.99).map(lambda a: {"gen": "birth-death", "preset": f"lazy:{a}"}),
        ),
        st.integers(0, 2**64 - 1),
    )
    # The first-return weights are uint8 up to k = 256 and uint16 from 257.
    @example(list(_PLANTED) * 60, 256, 3, True, {"gen": "srw", "p": 0.5}, 1)
    @example(list(_PLANTED) * 60, 257, 3, True, {"gen": "birth-death", "preset": "lazy:0.3"}, 2)
    @example(list(_PLANTED) * 60, 300, 3, False, {"gen": "srw", "p": 0.5}, 3)
    @example(["zero-first", "zero-last", "later", "never"], 1, 3, True, {"gen": "srw", "p": 0.5}, 4)
    def test_matches_a_python_loop_on_both_draw_paths(self, kinds, k, blocks, lockstep, config, master):
        # Each block is a fresh draw of every row, planted rows overwritten,
        # summed in its memory order and carried on from the row's last position.
        rows = len(kinds)
        law = uniform_law(make_walk(dict(config, steps=k), seed=0))
        state, paths = E._Extremes(rows), [[0] for _ in range(rows)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(G, "LOCKSTEP_ROWS_PER_DRAW", 0 if lockstep else 2**62)
            for block in range(blocks):
                states = pcg64_states(mix_seeds(master, block * rows, (block + 1) * rows))
                inc = G._draw_batch(law, states, k)
                if rows > 1 and k > 1:  # lockstep draws are step-major
                    assert inc.flags.c_contiguous != lockstep
                for row, kind in zip(inc, kinds):
                    steps = _planted_steps(kind, block, k)
                    if steps is not None:
                        row[:] = steps
                pos = G._prefix_sum(inc)
                pos += state.last[:, None]
                for path, row in zip(paths, pos.tolist()):
                    path.extend(row)
                state.advance(pos)
        counts = state.counts()
        for i, path in enumerate(paths):
            first = path.index(0, 1) if 0 in path[1:] else 0
            assert counts["range"][i] == max(path) - min(path) + 1
            assert counts["final_signed"][i] == path[-1]
            assert counts["max_disp"][i] == max(map(abs, path))
            assert counts["first_return"][i] == first
            assert counts["no_return"][i] == (first == 0)
            if kinds[i] != "drawn":
                planted = {"zero-first": 1, "zero-last": k, "later": k + 1 if blocks > 1 else 0}
                assert first == planted.get(kinds[i], 0)


class TestChunkedTrials:
    @settings(max_examples=150, deadline=None)
    @given(
        _STOCHASTIC,
        st.integers(1, 300),
        st.integers(1, 50),
        st.integers(1, 3),
        st.integers(2, 1024),
        st.integers(0, 2**64 - 1),
    )
    def test_matches_per_trial_oracle(self, config, horizon, trials, workers, cells, master):
        # A small cell budget puts chunk edges and column blocks in every run.
        config = dict(config, steps=horizon)
        spec = TrialSpec(config=config, horizon=horizon, trials=trials, master_seed=master)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(E, "CHUNK_CELLS", cells)
            report = run_trials(spec, workers=workers, keep_trials=True)
        assert report.per_trial == _oracle_per_trial(config, horizon, trials, master)[0]

    def test_runs_of_chunks_share_one_seeding(self, monkeypatch):
        # 4 trials of N = 10 a chunk, 11 chunks (44 trials) seeded at once.
        seeded = []

        def spy(seeds):
            seeded.append(len(seeds))
            return pcg64_states(seeds)

        monkeypatch.setattr(E, "pcg64_states", spy)
        monkeypatch.setattr(E, "CHUNK_CELLS", 44)
        config = {"gen": "srw", "p": 0.4, "steps": 10}
        spec = TrialSpec(config=config, horizon=10, trials=100, master_seed=5)
        report = run_trials(spec, keep_trials=True)
        assert seeded == [44, 44, 12]
        assert report.per_trial == _oracle_per_trial(config, 10, 100, 5)[0]

    def test_concurrent_tasks_share_no_bit_generator_or_scratch(self, monkeypatch):
        # Threads run tasks at once; a shared generator or scratch would mix rows.
        drawn, streams = [], []
        per_row = G._per_row_random

        def spy(gen, states, width):
            drawn.append(gen.bit_generator)
            return per_row(gen, states, width)

        class Recorded(G._DrawnSource):
            def __init__(self, law, seed, scratch=None):
                super().__init__(law, seed, scratch)
                streams.append((seed, threading.get_ident(), scratch, self))

        monkeypatch.setattr(G, "_per_row_random", spy)
        monkeypatch.setattr(E, "_DrawnSource", Recorded)
        monkeypatch.setattr(E, "CHUNK_CELLS", 44)
        config = {"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 10}
        spec = TrialSpec(config=config, horizon=10, trials=200, master_seed=9)
        report = run_trials(spec, workers=2, keep_trials=True)
        assert report.per_trial == _oracle_per_trial(config, 10, 200, 9)[0]
        # 50 chunks of 4 rows, each drawn row by row through its own generator.
        assert len(drawn) == 50 and len({id(bitgen) for bitgen in drawn}) == 50
        assert streams == []

        # 12 trials past a chunk on 3 threads: 3 runs of 4 trials, one scratch a run.
        config = dict(config, steps=100)
        spec = TrialSpec(config=config, horizon=100, trials=12, master_seed=9)
        report = run_trials(spec, workers=3, keep_trials=True)
        assert report.per_trial == _oracle_per_trial(config, 100, 12, 9)[0]
        streams.sort(key=lambda rec: [mix_seed(9, i) for i in range(12)].index(rec[0]))
        assert len({id(source._rng.bit_generator) for *_, source in streams}) == 12
        runs = [streams[i : i + 4] for i in range(0, 12, 4)]
        assert len({id(run[0][2]) for run in runs}) == 3
        for run in runs:
            (scratch,) = {id(rec[2]) for rec in run}
            assert len({rec[1] for rec in run}) == 1  # one thread a run
            assert all(id(source._scratch) == scratch for *_, source in run)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("extra", [0, 1], ids=["one-draw", "streamed"])
    @pytest.mark.parametrize(
        "config",
        [
            {"gen": "srw", "p": 0.5},
            {"gen": "birth-death", "preset": "reflected"},  # a carry across blocks
            {"gen": "ergodic", "preset": "switch:0.1,0.3"},  # a head uniform
        ],
        ids=lambda c: c.get("preset", "srw"),
    )
    def test_chunk_edge_matches_per_trial_oracle(self, config, extra, workers, monkeypatch):
        # N = CHUNK_CELLS is the longest trial drawn in one chunk; one more
        # step reads each trial's own stream in blocks of CHUNK_CELLS.
        monkeypatch.setattr(E, "CHUNK_CELLS", 64)
        horizon = 64 + extra
        config = dict(config, steps=horizon)
        spec = TrialSpec(config=config, horizon=horizon, trials=7, master_seed=3)
        report = run_trials(spec, workers=workers, keep_trials=True)
        assert report.per_trial == _oracle_per_trial(config, horizon, 7, 3)[0]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "config",
        [
            {"gen": "srw", "p": 0.5},
            {"gen": "srw", "p": 0.8},  # positions far from 0 carried into later chunks
            {"gen": "ergodic", "preset": "switch:0.1,0.3"},
        ],
        ids=lambda c: c.get("preset", f"srw:{c.get('p')}"),
    )
    def test_long_trials_sum_int8_steps_across_chunk_edges(self, config, workers, monkeypatch):
        # Chunks of 8 steps: every prefix sum starts from the carry staged
        # before the chunk's steps, and a last chunk is shorter.
        monkeypatch.setattr(E, "CHUNK_CELLS", 8)
        for horizon in (9, 16, 45):
            config = dict(config, steps=horizon)
            spec = TrialSpec(config=config, horizon=horizon, trials=5, master_seed=21)
            report = run_trials(spec, workers=workers, keep_trials=True)
            assert report.per_trial == _oracle_per_trial(config, horizon, 5, 21)[0]

    def test_ergodic_run_in_criterion_11_shape_matches_its_streams(self):
        # Criterion 11 runs switch:0.1,0.3 trials longer than a chunk on a
        # pool of threads that share one law; here 6 trials of two chunks.
        horizon = E.CHUNK_CELLS + 1000
        config = {"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": horizon}
        spec = TrialSpec(config=config, horizon=horizon, trials=6, master_seed=42)
        report = run_trials(spec, workers=4, keep_trials=True)
        assert report.per_trial == _oracle_per_trial(config, horizon, 6, 42)[0]

    @pytest.mark.parametrize("m", [1, 2])  # the extent path, then set mode
    def test_deterministic_start_is_not_a_return(self, m):
        config = {"gen": "linear-drift", "m": m, "pattern": [m], "steps": 5}
        report = run_trials(TrialSpec(config=config, horizon=5))
        assert report.per_metric["no_return"].mean == 1.0
        assert report.per_metric["range_speed"].mean == 6 / 5
        assert report.per_metric["max_speed"].mean == m

    def test_linear_drift_overflow_still_raises(self):
        spec = TrialSpec(
            config={"gen": "linear-drift", "m": 2**62, "pattern": [2**62], "steps": 2},
            horizon=2,
        )
        with pytest.raises(CoordinateOverflowError):
            run_trials(spec)

    def test_chunk_guard_is_exact(self):
        # Each first block ends exactly at |x| = INT64_MAX; one more step is refused.
        for start, step, k in ((INT64_MAX - 1, 1, 1), (1 - INT64_MAX, -1, 1), (INT64_MAX - 3, 1, 3)):
            state = E._Extremes(2)
            state.last[1] = start
            ahead = [step * j for j in range(1, k + 1)]
            state.advance(np.array([ahead, [start + x for x in ahead]], dtype=np.int64))
            assert abs(int(state.last[1])) == INT64_MAX
            # The next position is INT64_MIN, or INT64_MAX + 1 wrapped to it: refused.
            with pytest.raises(CoordinateOverflowError):
                state.advance(np.array([[step * (k + 1)], [-INT64_MAX - 1]], dtype=np.int64))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        spec = TrialSpec(config={"gen": "srw", "p": 0.5, "steps": 10}, horizon=10)
        with pytest.raises(ValueError, match="workers"):
            run_trials(spec, workers=workers)

    def test_pool_never_outnumbers_chunks(self, monkeypatch):
        widths = []

        class InlinePool:  # records the pool width, starts no thread
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(E, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(E, "CHUNK_CELLS", 44)  # 4 trials of N = 10 a chunk
        config = {"gen": "srw", "p": 0.6, "steps": 10}
        spec = TrialSpec(config=config, horizon=10, trials=10, master_seed=2)
        pooled = run_trials(spec, workers=10**6, keep_trials=True)
        assert widths == [3]
        assert _digest(pooled) == _digest(run_trials(spec, keep_trials=True))
        one_chunk = TrialSpec(config=config, horizon=10, trials=4, master_seed=2)
        run_trials(one_chunk, workers=10**6)
        assert widths == [3]  # a single chunk runs without a pool
