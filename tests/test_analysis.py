"""Trackers, checkers, tail estimates, and the JSONL analysis report."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangewalk.analysis import (
    DEFAULT_SET_CAP,
    ClassRAssumptionError,
    MemoryGuardError,
    RangeTracker,
    ReturnTimes,
    analyze_stream,
    arith_checkpoints,
    check_excursion_bound,
    check_maximal_range,
    check_range_sandwich_1d,
    dyadic_checkpoints,
    ratio_series,
    return_times,
    speed_report,
    tail_limit_estimate,
    track_extrema,
    track_range,
)
from rangewalk.core import WalkMetadata, WalkStream, walk_from_path
from rangewalk.generators import (
    gen_linear_drift,
    gen_simple_rw,
    gen_spiral2d,
    gen_tau_tent,
    gen_zigzag,
)


def _brute_force_range(path):
    """Independent oracle: per-position distinct counts via a Python set."""
    seen = set()
    out = []
    for p in path.tolist() if path.ndim == 1 else map(tuple, path.tolist()):
        seen.add(p)
        out.append(len(seen))
    return np.asarray(out, dtype=np.int64)


# Each step has norm 1.7e9 (the inferred m); ||x_n||^2 outgrows int64 from n = 2.
_FAR_3D = [(0, 0, 0), (1_700_000_000, 0, 0), (3_400_000_000, 0, 0), (5_100_000_000, 0, 0)]


@st.composite
def _blocked_paths(draw):
    """A path of points from a small pool, cut into blocks, for set mode.

    The pool forces revisits; d = 2 coordinates reach the packing limit
    +-(2^31 - 1), d = 1 and d = 3 the int64 limits.  The last block only
    revisits earlier points.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    lo, hi = (-(2**31) + 1, 2**31 - 1) if d == 2 else (-(2**63), 2**63 - 1)
    coord = st.sampled_from([lo, -1, 0, 1, hi]) | st.integers(lo, hi)
    point = coord if d == 1 else st.tuples(*[coord] * d)
    pool = draw(st.lists(point, min_size=1, max_size=12, unique=True))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=120))
    path = np.array([pool[i] for i in picks], dtype=np.int64)
    cuts = sorted(draw(st.sets(st.integers(1, len(picks)), max_size=30)))
    blocks = np.split(path, cuts)
    repeat = draw(st.lists(st.integers(0, len(picks) - 1), min_size=1, max_size=10))
    blocks.append(path[repeat])
    return d, [b for b in blocks if b.shape[0]]


class TestCheckpoints:
    def test_dyadic(self):
        assert dyadic_checkpoints(20).tolist() == [1, 2, 4, 8, 16, 20]
        assert dyadic_checkpoints(16).tolist() == [1, 2, 4, 8, 16]
        assert dyadic_checkpoints(1).tolist() == [1]

    def test_arith(self):
        assert arith_checkpoints(10, 3).tolist() == [3, 6, 9, 10]
        assert arith_checkpoints(9, 3).tolist() == [3, 6, 9]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            dyadic_checkpoints(0)
        with pytest.raises(ValueError):
            arith_checkpoints(10, 0)


class TestTrackRange:
    def test_small_example(self):
        s = walk_from_path([0, 1, 0, -1], m=1)
        _, r = track_range(s, 3, checkpoints=[3])
        assert r[-1] == 3

    def test_second_example(self):
        s = walk_from_path([0, 1, 2, 1, 0, -1], m=1)
        _, r = track_range(s, 5, checkpoints=[5])
        assert r[-1] == 4

    def test_spiral_counts_every_point(self):
        _, r = track_range(gen_spiral2d(10**4), 10**4, checkpoints=[10**4])
        assert r[-1] == 10**4 + 1

    def test_r_monotone_with_unit_jumps(self):
        x = gen_simple_rw(0.4, 0, 5).path_array(2000)
        tracker = RangeTracker("interval")
        r = tracker.update(x)
        assert r[0] == 1
        steps = np.diff(r)
        assert set(np.unique(steps)) <= {0, 1}


class TestRangeTrackerModes:
    def test_interval_equals_set_on_many_random_walks(self):
        # oracle equivalence: 1000 seeds x length 1000
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(1000):
            p_zero = rng.uniform(0, 0.4)
            u = rng.random(1000)
            steps = np.where(u < p_zero, 0, np.where(u < (1 + p_zero) / 2, 1, -1))
            path = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
            a = RangeTracker("interval").update(path)
            b = RangeTracker("set").update(path)
            assert np.array_equal(a, b)

    def test_set_mode_matches_brute_force_for_m2(self):
        rng = np.random.Generator(np.random.PCG64(5))
        steps = rng.integers(-2, 3, size=500)
        path = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
        assert np.array_equal(RangeTracker("set").update(path), _brute_force_range(path))

    def test_set_mode_matches_brute_force_2d(self):
        rng = np.random.Generator(np.random.PCG64(6))
        dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        path = np.vstack([[0, 0], np.cumsum(dirs[rng.integers(0, 4, 400)], axis=0)])
        assert np.array_equal(
            RangeTracker("set", d=2).update(path.astype(np.int64)),
            _brute_force_range(path),
        )

    def test_set_mode_matches_brute_force_3d(self):
        rng = np.random.Generator(np.random.PCG64(3))
        dirs = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
        path = np.vstack(
            [[0, 0, 0], np.cumsum(dirs[rng.integers(0, 6, 300)], axis=0)]
        ).astype(np.int64)
        assert np.array_equal(
            RangeTracker("set", d=3).update(path), _brute_force_range(path)
        )

    def test_set_mode_split_updates_agree(self):
        rng = np.random.Generator(np.random.PCG64(7))
        path = np.cumsum(rng.integers(-3, 4, 300)).astype(np.int64)
        whole = RangeTracker("set").update(path)
        split = RangeTracker("set")
        parts = [split.update(path[:100]), split.update(path[100:250]), split.update(path[250:])]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_interval_mode_rejected_off_contract(self):
        with pytest.raises(ValueError):
            RangeTracker("interval", d=2)
        with pytest.raises(ValueError):
            RangeTracker("interval", d=1, m=2)

    def test_memory_guard(self):
        tracker = RangeTracker("set", cap=10)
        with pytest.raises(MemoryGuardError):
            tracker.update(np.arange(100, dtype=np.int64))

    @settings(max_examples=300, deadline=None)
    @given(_blocked_paths(), st.sampled_from([DEFAULT_SET_CAP, 1, 2, 3, 5, 8]))
    def test_set_mode_matches_python_set(self, case, cap):
        d, blocks = case
        tracker = RangeTracker("set", d=d, cap=cap)
        seen = set()
        for block in blocks:
            expected = []
            for p in block.tolist():
                seen.add(p if d == 1 else tuple(p))
                expected.append(len(seen))
            if len(seen) > cap:
                # The guard fires on the first update past the cap, not before.
                with pytest.raises(MemoryGuardError):
                    tracker.update(block)
                return
            assert tracker.update(block).tolist() == expected
            assert tracker.count == len(seen)


class TestTrackExtrema:
    def test_small_example(self):
        s = walk_from_path([0, 1, 0, -1], m=1)
        _, M = track_extrema(s, 3, checkpoints=[3])
        assert M[-1] == 1

    def test_zigzag_peak(self):
        stream, _ = gen_zigzag(0.5, 20)
        _, M = track_extrema(stream, 4, checkpoints=[4])
        assert M[-1] == 2

    def test_constant_path(self):
        s = walk_from_path([0, 0, 0], m=1)
        _, M = track_extrema(s, 2, checkpoints=[2])
        assert M[-1] == 0

    def test_nonzero_origin_displacement(self):
        s = walk_from_path([5, 6, 7, 6], m=1)
        _, M = track_extrema(s, 3, checkpoints=[3])
        assert M[-1] == 2

    def test_squared_norm_beyond_int64(self):
        _, M = track_extrema(walk_from_path(_FAR_3D), 3, checkpoints=[1, 2, 3])
        assert M.tolist() == [1.7e9, 3.4e9, 5.1e9]

    def test_exact_above_2_to_the_53(self):
        _, M = track_extrema(walk_from_path([0, 2**53 + 1]), 1, [1])
        assert M.tolist() == [2**53 + 1]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_displacement_beyond_int64_1d(self, sign):
        # Every x_n fits in int64, but |x_n - x_0| = 2^44 n passes 2^63 at n = 2^19.
        n = 2**19 + 10
        path = sign * (-(2**63 - 2**60) + 2**44 * np.arange(n + 1, dtype=np.int64))
        _, M = track_extrema(walk_from_path(path), n, checkpoints=[2**19 - 1, n])
        assert M.tolist() == [2**44 * (2**19 - 1), 2**44 * n]
        last = analyze_stream(walk_from_path(path), n).rows[-1]
        assert last["M_over_n"] == 2.0**44
        assert last["violations"] == []


class TestReturnTimes:
    def test_zigzag_returns(self):
        stream, _ = gen_zigzag(0.5, 20)
        assert return_times(stream, 20).times == (0, 2, 6, 18)

    def test_monotone_walk_only_start(self):
        assert return_times(gen_simple_rw(1.0, 20, 0), 20).times == (0,)

    def test_squares(self):
        assert return_times(gen_tau_tent("squares", 16), 16).times == (0, 1, 4, 9, 16)

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            return_times(gen_spiral2d(10), 10)

    def test_type_validates_monotonicity(self):
        with pytest.raises(ValueError):
            ReturnTimes((0, 2, 2))


class TestRatioSeries:
    def test_zigzag_constant_three(self):
        stream, _ = gen_zigzag(0.5, 200)
        assert np.allclose(ratio_series(return_times(stream, 200)), 3.0)

    def test_squares_ratios_decrease_to_one(self):
        ratios = ratio_series(ReturnTimes(tuple(k * k for k in range(8))))
        assert ratios[0] == 4.0
        assert ratios[1] == pytest.approx(9 / 4)
        assert ratios[2] == pytest.approx(16 / 9)
        assert (np.diff(ratios) < 0).all()

    def test_insufficient_data(self):
        with pytest.raises(ValueError):
            ratio_series(ReturnTimes((0, 5)))


class TestMaximalRange:
    def test_tight_example(self):
        s = walk_from_path([0, 2, 4], m=2)
        assert check_maximal_range(s, 2, 2) is None  # 4/2 + 1 = 3 = r, tight

    def test_single_point(self):
        s = walk_from_path([7], m=3)
        assert check_maximal_range(s, 3, 0) is None

    def test_squared_bound_beyond_int64(self):
        s = walk_from_path(_FAR_3D)
        assert check_maximal_range(s, s.m, 3) is None  # tight: M_3 / m + 1 = 4 = r_3

    def test_mismatched_m_rejected(self):
        s = walk_from_path([0, 1], m=1)
        with pytest.raises(ValueError):
            check_maximal_range(s, 2, 1)

    def test_random_paths_vs_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(99))
        for m in (1, 2, 3, 5):
            for _ in range(50):
                steps = rng.integers(-m, m + 1, size=400)
                path = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
                stream = walk_from_path(path, m=m)
                assert check_maximal_range(stream, m, 400) is None
                r = _brute_force_range(path)
                disp = np.maximum.accumulate(np.abs(path))
                assert (disp / m + 1 <= r + 1e-12).all()

    def test_detects_a_lying_bound(self):
        # stream whose declared m is smaller than its true increments
        class Jump:
            def __init__(self):
                self._given = False

            def take(self, k):
                out = np.zeros(k, dtype=np.int64)
                if not self._given:
                    out[0] = 5
                    self._given = True
                return out

        meta = WalkMetadata("liar", {}, None, m=2, d=1)
        s = WalkStream(meta, Jump)
        assert check_maximal_range(s, 2, 3) == 1


class TestSandwich:
    def test_small_example(self):
        s = walk_from_path([0, 1, 0, -1], m=1)
        assert check_range_sandwich_1d(s, 3) is None

    def test_monotone_lower_bound_tight(self):
        s = gen_simple_rw(1.0, 100, 0)
        assert check_range_sandwich_1d(s, 100) is None

    def test_symmetric_tent_upper_bound_tight(self):
        path = [0, 1, 0, -1, 0, 1]  # visits [-1, 1]: r = 3 = 2*1 + 1
        s = walk_from_path(path, m=1)
        assert check_range_sandwich_1d(s, 5) is None
        tracker = RangeTracker("interval")
        r = tracker.update(np.asarray(path, dtype=np.int64))
        assert r[-1] == 3

    def test_preconditions(self):
        with pytest.raises(ValueError):
            check_range_sandwich_1d(gen_spiral2d(5), 5)
        with pytest.raises(ValueError):
            check_range_sandwich_1d(gen_linear_drift(2, [2], 5), 5)
        with pytest.raises(ValueError):
            check_range_sandwich_1d(walk_from_path([3, 4], m=1), 1)


class TestExcursionBound:
    def test_zigzag_tight_peaks(self):
        stream, _ = gen_zigzag(0.5, 100)
        chk = check_excursion_bound(stream, 100)
        assert chk.holds
        assert chk.gaps == (2, 4, 12, 36)
        assert chk.peaks == (1, 2, 6, 18)
        assert chk.tight == chk.n_excursions  # equality at every tent peak

    def test_squares_flat_peaks_stay_below_half_gap(self):
        chk = check_excursion_bound(gen_tau_tent("squares", 400), 400)
        assert chk.holds
        # odd gap 2k-1 gives peak k-1 < (2k-1)/2: never tight
        assert chk.tight == 0
        for peak, gap in zip(chk.peaks[1:], chk.gaps[1:]):
            assert 2 * peak == gap - 1

    def test_symmetric_walk_seeds(self):
        for seed in range(20):
            stream = gen_simple_rw(0.5, 10**4, seed)
            assert check_excursion_bound(stream, 10**4).holds

    def test_violation_detected(self):
        chk = check_excursion_bound(walk_from_path([0, 3, 0], m=3), 2)
        assert chk.first_violation == 1

    def test_assumption_unmet_is_reported(self):
        with pytest.raises(ClassRAssumptionError):
            check_excursion_bound(gen_simple_rw(1.0, 50, 0), 50)

    def test_coverage_reported(self):
        stream, _ = gen_zigzag(0.5, 100)
        chk = check_excursion_bound(stream, 100)
        assert chk.last_zero == 54
        assert chk.horizon == 100


class TestTailEstimate:
    def test_constant_series(self):
        est = tail_limit_estimate([1, 2, 4, 8], [2.5, 2.5, 2.5, 2.5])
        assert est.liminf_hat == est.limsup_hat == 2.5

    def test_decaying_series(self):
        ns = [2**k for k in range(1, 21)]
        est = tail_limit_estimate(ns, [1.0 / n for n in ns])
        assert est.limsup_hat <= 2 / 2**20 * 2

    def test_zigzag_sampled_at_peaks(self):
        stream, plan = gen_zigzag(0.5, 10_000)
        x = stream.path_array(10_000)
        ts = [t for t in plan.t if 0 < t <= 10_000][1:]  # n >= 1 peaks
        est = tail_limit_estimate(ts, [x[t] / t for t in ts])
        assert est.limsup_hat == 0.5

    def test_window_is_reported(self):
        est = tail_limit_estimate([1, 2, 4, 8], [1, 2, 3, 4])
        assert est.window == (4.0, 8)
        assert est.liminf_hat == 3  # only n >= 4 in the window

    def test_too_few_checkpoints(self):
        with pytest.raises(ValueError):
            tail_limit_estimate([1, 2], [0.0, 0.0])


class TestSpeedReport:
    def test_unit_drift(self):
        sr = speed_report(gen_linear_drift(1, [1], 1000), 1, 1000)
        assert sr.x_over_n[-1] == 1.0
        assert sr.M_over_n[-1] == 1.0
        assert sr.r_over_n[-1] == pytest.approx(1001 / 1000)
        assert sr.delta_r == pytest.approx(1 / 1000)

    def test_bound_m2_reaches_min_one(self):
        # drift 2, m = 2: r_n/n -> 1 = min(1, |drift|) and |drift|/m = 1 <= 1
        sr = speed_report(gen_linear_drift(2, [2], 2000), 2, 2000)
        assert sr.r_over_n[-1] == pytest.approx(1.0, abs=1e-3)
        drift = 2.0
        assert drift / 2 <= sr.r_over_n[-1] + 1e-9
        assert sr.delta_r is None  # no point target when m > 1

    def test_spiral_fills_while_crawling(self):
        sr = speed_report(gen_spiral2d(20_000), 1, 20_000)
        assert sr.r_over_n[-1] == pytest.approx(20_001 / 20_000)
        assert sr.x_over_n[-1] < 0.01

    def test_mismatched_m(self):
        with pytest.raises(ValueError):
            speed_report(gen_linear_drift(2, [2], 100), 1, 100)

    def test_linear_drift_range_lower_bound(self):
        # finite form: r_n >= floor(n |drift|) / m at every checkpoint
        for m, pattern in ((2, [2]), (3, [3, 0, 0]), (1, [1, -1, 1])):
            w = gen_linear_drift(m, pattern, 3000)
            drift = abs(w.metadata.theoretical_drift)
            cps, r = track_range(w, 3000)
            for n, rn in zip(cps.tolist(), r.tolist()):
                assert rn >= math.floor(n * drift) / m


class TestAnalyzeStream:
    def test_jsonl_field_contract(self):
        stream, _ = gen_zigzag(0.5, 20)
        report = analyze_stream(stream, 20)
        lines = list(report.jsonl_lines())
        first = json.loads(lines[0])
        assert list(first) == [
            "n",
            "x_over_n",
            "M_over_n",
            "r_over_n",
            "tau_count",
            "last_tau",
            "violations",
        ]
        summary = json.loads(lines[-2])
        assert set(summary["summary"]) == {"horizon", "tail", "theory"}
        assert json.loads(lines[-1])["provenance"]["m"] == 1

    def test_zigzag_tau_fields(self):
        stream, _ = gen_zigzag(0.5, 20)
        report = analyze_stream(stream, 20)
        last = report.rows[-1]
        assert last["n"] == 20
        assert last["tau_count"] == 4  # 0, 2, 6, 18
        assert last["last_tau"] == 18
        assert last["violations"] == []

    def test_squared_norms_beyond_int64(self):
        rows = analyze_stream(walk_from_path(_FAR_3D), 3, checkpoints=[1, 2, 3]).rows
        assert [row["M_over_n"] for row in rows] == [1.7e9, 3.4e9 / 2, 5.1e9 / 3]
        assert [row["x_over_n"] for row in rows] == [1.7e9, 3.4e9 / 2, 5.1e9 / 3]
        assert all(row["violations"] == [] for row in rows)

    def test_theory_deltas_for_srw(self):
        report = analyze_stream(gen_simple_rw(1.0, 100, 0), 100)
        assert report.theory["drift"] == 1.0
        assert report.theory["delta_x_over_n"] == 0.0

    def test_speed_series_view(self):
        report = analyze_stream(gen_simple_rw(0.5, 200, 3), 200)
        series = report.speed_series()
        assert series.checkpoints[-1] == 200
        assert series.tail_r.limsup_hat <= 1.0 + 1e-9

    def test_series_bounds_and_monotone_extrema(self):
        for seed in (1, 2, 3):
            series = analyze_stream(gen_simple_rw(0.45, 5000, seed), 5000).speed_series()
            ns = series.checkpoints.astype(float)
            assert (series.r_over_n >= 0).all()
            assert (series.r_over_n <= (ns + 1) / ns).all()
            assert (np.diff(series.M_over_n * ns) >= 0).all()
