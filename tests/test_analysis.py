"""Trackers, checkers, tail estimates, and the JSONL analysis report."""

import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rangewalk import analysis, suites
from rangewalk.analysis import (
    DEFAULT_SET_CAP,
    ClassRAssumptionError,
    MemoryGuardError,
    RangeTracker,
    ReturnTimes,
    TailEstimate,
    analyze_stream,
    arith_checkpoints,
    check_excursion_bound,
    check_maximal_range,
    check_range_sandwich_1d,
    dyadic_checkpoints,
    ratio_series,
    return_times,
    tail_limit_estimate,
    track_extrema,
    track_range,
)
from rangewalk.core import (
    INT64_MAX,
    INT64_MIN,
    CoordinateOverflowError,
    WalkMetadata,
    WalkStream,
    walk_from_path,
)
from rangewalk.generators import (
    gen_birth_death,
    gen_linear_drift,
    gen_simple_rw,
    gen_spiral2d,
    gen_tau_tent,
    gen_zigzag,
    make_walk,
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


def _jump_walk(m, at, size):
    """A walk declaring m that stays at 0 but for one jump of `size` at step `at`."""

    class Jump:
        def __init__(self):
            self._done = 0

        def take(self, k):
            out = np.zeros(k, dtype=np.int64)
            if self._done < at <= self._done + k:
                out[at - self._done - 1] = size
            self._done += k
            return out

    return WalkStream(WalkMetadata("liar", {}, None, m=m, d=1), Jump)


def _steady(size):
    """A 1-D walk declaring m = 1 whose every step is `size`."""

    class Steady:
        def take(self, k):
            return np.full(k, size, dtype=np.int64)

    return WalkStream(WalkMetadata("liar", {}, None, m=1, d=1), Steady)


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


@st.composite
def _compact_walks(draw):
    """A walk with steps of at most 3 a coordinate around a drawn centre, in blocks.

    Compact walks keep the dense box in play; centres at the int64 limits
    make its padding clip, and the d = 2 centres leave the key origin 0 or
    put it at x_0.  Blocks are 1-40 positions.
    """
    d = draw(st.sampled_from([1, 2, 3]))
    far = [0, 2**40, -(2**40)] if d == 2 else [0, 2**40, INT64_MIN, INT64_MAX]
    centre = [draw(st.sampled_from(far) | st.integers(-(2**20), 2**20)) for _ in range(d)]
    n = draw(st.integers(1, 300))
    step = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    steps = np.array(draw(st.lists(step, min_size=n, max_size=n)), dtype=np.int64)
    offsets = np.cumsum(steps, axis=0)
    lo, hi = offsets.min(0).tolist(), offsets.max(0).tolist()
    start = [min(max(c, INT64_MIN - a), INT64_MAX - b) for c, a, b in zip(centre, lo, hi)]
    path = offsets + np.array(start, dtype=np.int64)
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=n // 3)) if n > 1 else set()
    blocks = np.split(path if d > 1 else path[:, 0], sorted(cuts | set(range(40, n, 40))))
    return d, blocks


def _oracle_counts(blocks):
    """r at each position of each block, from the Python-set oracle."""
    r = _brute_force_range(np.concatenate(blocks)).tolist()
    ends = np.cumsum([b.shape[0] for b in blocks]).tolist()
    return [r[a:b] for a, b in zip([0] + ends, ends)]


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
        _, r = track_range(gen_simple_rw(0.4, 0, 5), 2000, checkpoints=range(2001))
        assert r[0] == 1
        steps = np.diff(r)
        assert set(np.unique(steps)) <= {0, 1}


class TestRangeTrackerModes:
    def test_interval_equals_set_on_many_random_walks(self):
        # the extent path against the set tracker: 1000 seeds x length 1000
        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(1000):
            p_zero = rng.uniform(0, 0.4)
            u = rng.random(1000)
            steps = np.where(u < p_zero, 0, np.where(u < (1 + p_zero) / 2, 1, -1))
            path = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
            _, a = track_range(walk_from_path(path, m=1), 1000, checkpoints=range(1001))
            b = RangeTracker().update(path)
            assert np.array_equal(a, b)

    def test_set_mode_matches_brute_force_for_m2(self):
        rng = np.random.Generator(np.random.PCG64(5))
        steps = rng.integers(-2, 3, size=500)
        path = np.concatenate([[0], np.cumsum(steps)]).astype(np.int64)
        assert np.array_equal(RangeTracker().update(path), _brute_force_range(path))

    def test_set_mode_matches_brute_force_2d(self):
        rng = np.random.Generator(np.random.PCG64(6))
        dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
        path = np.vstack([[0, 0], np.cumsum(dirs[rng.integers(0, 4, 400)], axis=0)])
        assert np.array_equal(
            RangeTracker(d=2).update(path.astype(np.int64)),
            _brute_force_range(path),
        )

    def test_set_mode_matches_brute_force_3d(self):
        rng = np.random.Generator(np.random.PCG64(3))
        dirs = np.vstack([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
        path = np.vstack(
            [[0, 0, 0], np.cumsum(dirs[rng.integers(0, 6, 300)], axis=0)]
        ).astype(np.int64)
        assert np.array_equal(
            RangeTracker(d=3).update(path), _brute_force_range(path)
        )

    def test_set_mode_split_updates_agree(self):
        rng = np.random.Generator(np.random.PCG64(7))
        path = np.cumsum(rng.integers(-3, 4, 300)).astype(np.int64)
        whole = RangeTracker().update(path)
        split = RangeTracker()
        parts = [split.update(path[:100]), split.update(path[100:250]), split.update(path[250:])]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_memory_guard(self):
        tracker = RangeTracker(cap=10)
        with pytest.raises(MemoryGuardError):
            tracker.update(np.arange(100, dtype=np.int64))

    @pytest.mark.parametrize("row", [[-(2**63), 0], [0, -(2**63)], [-(2**31), 5], [0, 2**31]])
    def test_2d_packing_limit(self, row):
        # np.abs(-2^63) wraps to -2^63, which once let this row past the guard.
        block = np.array([[0, 0], row], dtype=np.int64)
        with pytest.raises(ValueError, match="2\\^31"):
            RangeTracker(d=2).update(block)
        ok = np.array([[0, 0], [-(2**31) + 1, 2**31 - 1]], dtype=np.int64)
        assert RangeTracker(d=2).update(ok).tolist() == [1, 2]

    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    @given(_blocked_paths(), st.sampled_from([DEFAULT_SET_CAP, 1, 2, 3, 5, 8]))
    def test_set_mode_matches_python_set(self, case, cap):
        d, blocks = case
        tracker = RangeTracker(d=d, cap=cap)
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


class TestDenseBox:
    """Set mode's dense first-visit box, its growth and its one switch to sorted keys."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grows_both_ways_on_every_axis(self, d):
        # Drift down on every axis, then up past the start, in blocks of 7.
        rng = np.random.Generator(np.random.PCG64(d))
        steps = np.concatenate([rng.integers(-2, 1, (150, d)), rng.integers(0, 3, (300, d))])
        path = np.cumsum(steps, axis=0)
        path = path if d > 1 else path[:, 0]
        blocks = np.split(path, range(7, path.shape[0], 7))
        tracker = RangeTracker(d=d)
        corners, tops = [], []
        with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", 10**9):
            for block, want in zip(blocks, _oracle_counts(blocks)):
                assert tracker.update(block).tolist() == want
                assert tracker._box.shape == tuple(b - a + 1 for a, b in tracker._spans)
                corners.append([a for a, _ in tracker._spans])
                tops.append([b for _, b in tracker._spans])
        lows, highs = np.array(corners), np.array(tops)
        assert (np.diff(lows, axis=0) <= 0).all() and (lows[-1] < lows[0]).all()
        assert (np.diff(highs, axis=0) >= 0).all() and (highs[-1] > highs[0]).all()
        grows = int((np.diff(lows, axis=0) < 0).any(1).sum() + (np.diff(highs, axis=0) > 0).any(1).sum())
        assert grows < len(blocks) // 2  # geometric growth: most blocks fit the box

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_padding_stops_at_the_int64_limits(self, d, side):
        # 19 cells along axis 0, then one more: half an axis of padding
        # would pass the limit.
        edge = INT64_MIN if side < 0 else INT64_MAX
        offsets = [np.arange(20, 1, -1), np.array([1])]
        tracker = RangeTracker(d=d)
        for off in offsets:
            block = edge - side * off
            rows = np.column_stack([block] + [np.full_like(block, edge)] * (d - 1))
            assert tracker.update(rows if d > 1 else block)[-1] <= 20
        assert tracker.count == 20
        assert all(edge in span for span in tracker._spans)

    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    @given(_compact_walks(), st.sampled_from([0, 0.25, 0.5, 1, 2, 4, 10**9]))
    def test_matches_python_set_across_the_switch(self, case, cells_per_point):
        # A small bound moves the switch to sorted keys to a drawn block.
        d, blocks = case
        tracker = RangeTracker(d=d)
        with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", cells_per_point):
            for block, want in zip(blocks, _oracle_counts(blocks)):
                assert tracker.update(block).tolist() == want
                assert tracker.count == want[-1]
        if cells_per_point == 10**9:
            assert tracker._known is None  # never left the box

    @settings(deadline=None)
    @given(
        _compact_walks(), st.integers(2, 9), st.sampled_from([1, 2, 9, 20]), st.sampled_from([1, 4, 10**9])
    )
    def test_matches_python_set_across_restamps(self, case, block_size, limit, cells_per_point):
        # A small stamp limit resets the visited cells to -1 every block or few.
        d, blocks = case
        path = np.concatenate(blocks)
        blocks = np.split(path, range(block_size, path.shape[0], block_size))
        tracker = RangeTracker(d=d)
        with mock.patch.object(analysis, "_STAMP_LIMIT", limit), \
                mock.patch.object(analysis, "BOX_CELLS_PER_POINT", cells_per_point):
            for block, want in zip(blocks, _oracle_counts(blocks)):
                assert tracker.update(block).tolist() == want
                assert tracker._clock <= max(limit, block_size)

    @settings(deadline=None)
    @given(st.integers(1, 2), st.data())
    def test_1d_walks_with_m_up_to_2_never_leave_the_box(self, m, data):
        # span <= 2 M_n <= 2m (r_n - 1): at most 4 cells a point for m <= 2.
        steps = data.draw(st.lists(st.integers(-m, m), min_size=1, max_size=300))
        path = np.cumsum(np.array(steps, dtype=np.int64))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(steps)), max_size=30)))
        blocks = [b for b in np.split(path, cuts) if b.shape[0]]
        tracker = RangeTracker()
        for block, want in zip(blocks, _oracle_counts(blocks)):
            assert tracker.update(block).tolist() == want
        assert tracker._known is None

    @settings(deadline=None)
    @given(_compact_walks(), st.integers(1, 60))
    def test_memory_guard_fires_at_the_same_update_in_both_containers(self, case, cap):
        d, blocks = case
        total = _oracle_counts(blocks)
        want = next((i for i, r in enumerate(total) if r[-1] > cap), None)
        for cells_per_point in (10**9, 0):  # always the box, always sorted keys
            tracker = RangeTracker(d=d, cap=cap)
            fired = None
            with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", cells_per_point):
                for i, block in enumerate(blocks):
                    try:
                        tracker.update(block)
                    except MemoryGuardError:
                        fired = i
                        break
            assert fired == want
            assert (tracker._known is None) == (cells_per_point > 0)

    @pytest.mark.parametrize("switch_at", [None, 1, 3])
    def test_compact_2d_walk_far_from_the_origin(self, switch_at):
        # Around (2^40, -2^40): the box is keyed to its corner and the sorted
        # keys to x_0, so neither meets the +-2^31 packing limit.
        rng = np.random.Generator(np.random.PCG64(40))
        dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
        path = np.cumsum(dirs[rng.integers(0, 4, 5000)], axis=0) + [2**40, -(2**40)]
        blocks = np.split(path, range(1000, 5000, 1000))
        tracker = RangeTracker(d=2)
        for i, (block, want) in enumerate(zip(blocks, _oracle_counts(blocks))):
            bound = 0 if switch_at is not None and i >= switch_at else analysis.BOX_CELLS_PER_POINT
            with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", bound):
                assert tracker.update(block).tolist() == want
            assert (tracker._box is not None) == (switch_at is None or i < switch_at)

    def test_keys_past_2_to_the_31_from_a_far_x0_are_refused(self):
        block = np.array([[2**40, 0], [2**40 + 2**31, 0]], dtype=np.int64)
        with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", 0):
            with pytest.raises(ValueError, match="2\\^31"):
                RangeTracker(d=2).update(block)


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

    def test_2d_beyond_the_set_mode_packing_limit(self):
        path = [(0, 0), (3 * 2**32, 0), (3 * 2**32, 4 * 2**32)]
        _, M = track_extrema(walk_from_path(path), 2, checkpoints=[1, 2])
        assert M.tolist() == [3.0 * 2**32, 5.0 * 2**32]
        with pytest.raises(ValueError, match="2\\^31"):
            track_range(walk_from_path(path), 2)

    def test_exact_above_2_to_the_53(self):
        _, M = track_extrema(walk_from_path([0, 2**53 + 1]), 1, [1])
        assert M.tolist() == [2**53 + 1]

    def test_displacement_to_int64_min_from_the_origin(self):
        # np.abs(-2^63) wraps to -2^63, which read as M_1 = 0.
        _, M = track_extrema(walk_from_path([0, -(2**63)]), 1, checkpoints=[1])
        assert M.tolist() == [2**63]
        row = analyze_stream(walk_from_path([0, -(2**63)]), 1, checkpoints=[1]).rows[0]
        assert row["M_over_n"] == 2.0**63

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

    @pytest.mark.parametrize("m", [1, 2])
    def test_detects_a_jump_to_int64_min(self, m):
        # M_1 = 2^63 > m (r_1 - 1); a wrapped |x_1| read as 0 hid it.
        assert check_maximal_range(_jump_walk(m, 1, -(2**63)), m, 1) == 1

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
        # the stream declares m = 2 but jumps by 5 at step 1
        assert check_maximal_range(_jump_walk(2, 1, 5), 2, 3) == 1


class TestViolationPlacement:
    # A jump of 5 under m = 2 breaks the step bound and, with it, the
    # maximal-range inequality at the same n.
    JUMP_50 = [{"check": "increment_bound", "n": 50}, {"check": "maximal_range", "n": 50}]

    def test_first_row_at_or_after_the_violation(self):
        rows = analyze_stream(_jump_walk(2, 50, 5), 100).rows
        placed = [(row["n"], row["violations"]) for row in rows if row["violations"]]
        assert placed == [(64, self.JUMP_50)]

    def test_past_the_last_checkpoint_goes_on_the_last_row(self):
        rows = analyze_stream(_jump_walk(2, 50, 5), 100, checkpoints=[10, 20]).rows
        assert [row["violations"] for row in rows] == [[], self.JUMP_50]

    def test_across_blocks(self):
        cps = [65_536, 70_000, 100_000]  # the second block starts at n = 65536
        rows = analyze_stream(_jump_walk(2, 70_000, 5), 100_000, checkpoints=cps).rows
        assert [row["violations"] for row in rows] == [
            [],
            [{"check": "increment_bound", "n": 70_000}, {"check": "maximal_range", "n": 70_000}],
            [],
        ]


class _SmallBlocks(WalkStream):
    """A stream cut into blocks of `block_size` positions, to reach block edges.

    `_scan` reads `_checked_blocks`, and `blocks` goes through it too.
    """

    block_size = 65_536

    def _checked_blocks(self, horizon, block_size=None):
        return super()._checked_blocks(horizon, self.block_size)


def _liar(steps, m, block_size, origin=None):
    """A stream declaring m over the given (possibly oversized) steps."""
    steps = np.asarray(steps, dtype=np.int64)

    class Steps:
        def __init__(self):
            self._at = 0

        def take(self, k):
            self._at += k
            return steps[self._at - k : self._at]

    d = 1 if steps.ndim == 1 else steps.shape[1]
    stream = _SmallBlocks(WalkMetadata("liar", {}, None, m=m, d=d), Steps, origin)
    stream.block_size = block_size
    return stream


def _contract_oracle(steps, m, origin=None):
    """First n of each failed check, from Python ints and a Python set."""
    d = 1 if steps.ndim == 1 else steps.shape[1]
    x = x0 = tuple(origin or (0,) * d)
    seen, far, first = {x}, 0, {}
    for n, step in enumerate(steps.tolist(), start=1):
        step = (step,) if d == 1 else tuple(step)
        x = tuple(a + b for a, b in zip(x, step))
        seen.add(x)
        far = max(far, sum((c - c0) ** 2 for c, c0 in zip(x, x0)))
        r = len(seen)
        bad = {
            "increment_bound": sum(c * c for c in step) > m * m,
            "maximal_range": far > m * m * (r - 1) ** 2,
        }
        if d == 1 and m == 1:
            big = math.isqrt(far)
            bad["range_sandwich_1d"] = not big + 1 <= r <= 2 * big + 1
        for name, failed in bad.items():
            if failed:
                first.setdefault(name, n)
    return first


def _assert_contract(steps, m, block_size, origin=None):
    """Every inline check, r_n and the zero hits at every n match `_contract_oracle`
    and Python sets and lists."""
    n = len(steps)
    want = _contract_oracle(steps, m, origin)
    report = analyze_stream(_liar(steps, m, block_size, origin), n, checkpoints=list(range(n + 1)))
    got = {v["check"]: v["n"] for row in report.rows for v in row["violations"]}
    assert got == want
    assert check_maximal_range(_liar(steps, m, block_size, origin), m, n) == want.get("maximal_range")
    _, r = track_range(_liar(steps, m, block_size, origin), n, checkpoints=list(range(n + 1)))
    start = np.array(origin or (0,) * (1 if steps.ndim == 1 else steps.shape[1]), dtype=np.int64)
    path = np.concatenate([start.reshape((1,) + steps.shape[1:]), start + np.cumsum(steps, axis=0)])
    assert r.tolist() == _brute_force_range(path).tolist()
    zeros = [k for k, x in enumerate(path.reshape(n + 1, -1).tolist()) if not any(x)]
    assert [(row["tau_count"], row["last_tau"]) for row in report.rows] == [
        (len(upto), upto[-1] if upto else None) for upto in ([t for t in zeros if t <= k] for k in range(n + 1))
    ]
    return want


def _late_jump(d, m, lead, pairs, tail, unit=1):
    """Steps that break the maximal-range inequality by the least amount, late.

    `lead` steps of `unit` along the first axis, `pairs` steps back and
    forth over visited points, then a jump to a new point x_n with
    ||x_n - x_0||^2 = (m (r_n - 1))^2 + 1, and `tail` steps of -`unit` along
    the first axis through new points, which leave M where the jump put it.
    """
    e = np.zeros(d, dtype=np.int64)
    e[0] = unit
    jump = -lead * e
    jump[0] += m * (lead + 1)  # r_n = lead + 2 at the jump
    jump[-1] += 1
    steps = np.array([e] * lead + [-e, e] * pairs + [jump] + [-e] * tail)
    return steps[:, 0] if d == 1 else steps


class TestStepContract:
    """The inline checks test the step bound that a stream declares."""

    def test_jump_over_integers_is_reported(self):
        # True r_50 = 2 ({0, 3}) < M_50 + 1 = 4; max - min + 1 would say 4.
        want = ["increment_bound", "maximal_range", "range_sandwich_1d"]
        rows = analyze_stream(_jump_walk(1, 50, 3), 100).rows
        assert [(row["n"], row["violations"]) for row in rows if row["violations"]] == [
            (64, [{"check": name, "n": 50} for name in want])
        ]
        assert check_maximal_range(_jump_walk(1, 50, 3), 1, 100) == 50
        assert check_range_sandwich_1d(_jump_walk(1, 50, 3), 100) == 50

    def test_interval_tracker_continues_in_set_mode(self):
        cps, r = track_range(_jump_walk(1, 50, 3), 100, checkpoints=[49, 50, 100])
        assert r.tolist() == [1, 2, 2]

    def test_the_step_into_a_block_is_tested(self):
        # x_65536 is the first position of the second block.
        assert check_maximal_range(_jump_walk(1, 65_536, 3), 1, 70_000) == 65_536
        _, r = track_range(_jump_walk(1, 65_536, 3), 70_000, checkpoints=[65_535, 65_536])
        assert r.tolist() == [1, 2]

    def test_steps_past_the_declared_m_cannot_wrap(self):
        # m = 1 but steps of 2^62: M_3 would read 2^62 and x_2 = -2^63.
        with pytest.raises(CoordinateOverflowError):
            track_extrema(_steady(2**62), 3, [3])
        with pytest.raises(CoordinateOverflowError):
            return_times(_steady(2**62), 3)

    def test_scan_reads_the_small_blocks(self):
        seen = []
        extent_at, mark = analysis._extent_at, RangeTracker.mark

        def on_extent(block, *rest):
            seen.append(block.shape[0])
            return extent_at(block, *rest)

        def on_mark(tracker, block, *rest):
            seen.append(block.shape[0])
            return mark(tracker, block, *rest)

        with mock.patch.object(analysis, "_extent_at", on_extent), \
                mock.patch.object(RangeTracker, "mark", on_mark):
            for m in (1, 2):  # the extent path, then set mode
                analysis._scan(_liar(np.ones(20, np.int64), m, 3), 20, [20], True, True)
        assert seen == [3] * 14  # 21 positions, 7 blocks of 3 on each path

    def test_honest_streams_report_nothing(self):
        rows = analyze_stream(walk_from_path([0, 1, 2, 1, 0, -1], m=1), 5).rows
        assert all(row["violations"] == [] for row in rows)

    @settings(max_examples=settings.default.max_examples, deadline=None)
    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]),
        st.integers(2, 9),
        st.data(),
    )
    def test_matches_a_python_set_oracle(self, dm, block_size, data):
        d, m = dm
        n = data.draw(st.integers(1, 40))
        ks = range(-3 * m, 3 * m + 1)
        if d == 1:
            honest, big = st.integers(-m, m), st.sampled_from(ks)
        else:
            steps = list(itertools.product(ks, repeat=d))
            honest = st.sampled_from([s for s in steps if sum(c * c for c in s) <= m * m])
            big = st.sampled_from(steps)
        pick = st.one_of(honest, honest, honest, big)  # mostly honest, a few oversized
        steps = np.array(data.draw(st.lists(pick, min_size=n, max_size=n)), dtype=np.int64)
        _assert_contract(steps, m, block_size)

    # (d, m, lead, pairs, tail, unit, origin).  Each jump lands where a
    # settle bound one looser than m r (for example m (r + 1), or the count
    # after the block in place of r) would skip the block that breaks the
    # inequality; the lead settles the blocks before it.
    LATE_JUMPS = [
        (1, 2, 11, 0, 0, 1, None),  # the jump opens a block after the first
        (1, 2, 13, 1, 3, 1, None),  # an honest run, then a jump inside a late block
        (1, 3, 20, 2, 6, 1, (-5,)),
        (2, 1, 11, 0, 0, 1, None),
        (2, 2, 13, 1, 3, 1, None),
        (3, 1, 13, 1, 3, 1, None),
        (3, 2, 11, 2, 5, 1, None),
        # Near 2^62, with displacements past 2^31: their squares take the object-dtype path.
        (2, 2**28, 13, 1, 3, 3 * 2**26, (-(2**31) + 10, 2**62)),
    ]

    @pytest.mark.parametrize("block_size", range(2, 10))
    @pytest.mark.parametrize("case", LATE_JUMPS)
    def test_settle_rule_matches_the_oracle(self, case, block_size):
        d, m, lead, pairs, tail, unit, origin = case
        steps = _late_jump(d, m, lead, pairs, tail, unit)
        want = _assert_contract(steps, m, block_size, origin)
        assert want["maximal_range"] == lead + 2 * pairs + 1  # at the jump

    @pytest.mark.parametrize("block_size", range(2, 10))
    @pytest.mark.parametrize("dm", [(1, 2), (2, 1), (3, 2)])
    def test_settle_rule_in_a_one_position_final_block(self, dm, block_size):
        # n = 3 B: blocks x_0..x_{B-1}, two of B positions, then x_n alone.
        d, m = dm
        steps = _late_jump(d, m, 3 * block_size - 1, 0, 0)
        want = _assert_contract(steps, m, block_size)
        assert want["maximal_range"] == len(steps)

    @pytest.mark.parametrize("block_size", [16, 33, 64])
    @pytest.mark.parametrize("dm", [(1, 2), (2, 1), (3, 2)])
    def test_settle_rule_at_segment_edges(self, dm, block_size):
        # An unsettled block is checked in segments from offsets 0, 1, 2, 4, ...:
        # jumps on either side of each edge, in the first block and in the third.
        d, m = dm
        offsets = {o for j in range(1, 7) for o in (2**j - 1, 2**j, 2**j + 1) if o < block_size}
        for n in sorted(offsets | {2 * block_size + o for o in offsets}):
            want = _assert_contract(_late_jump(d, m, n - 1, 0, 3), m, block_size)
            assert want["maximal_range"] == n

    @pytest.mark.parametrize("block_size", [16, 33, 64, 80])
    def test_sandwich_carries_m_across_segments(self, block_size):
        # One long step that keeps the sandwich, a run down to -12 at n = 16
        # and back, then steps between 0 and 1 up to n = 78: M_n stays 12,
        # set one or two segments before.
        steps = np.array([-1, -1, 3] + [-1] * 13 + [1] * 12 + [1, -1] * 25)
        assert _assert_contract(steps, 1, block_size) == {"increment_bound": 3}

    @settings(deadline=None)
    @given(st.data(), st.sampled_from([0, 0.5, 1, 4]))
    def test_a_lying_1d_stream_continues_in_set_mode(self, data, cells_per_point):
        # Unit steps on the extent path, then steps of up to 5 in set mode.
        unit = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=60))
        lying = data.draw(st.lists(st.integers(-5, 5), min_size=1, max_size=120))
        start = data.draw(st.sampled_from([0, INT64_MAX - 200, INT64_MIN + 200]))
        steps = np.array(unit + lying, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(steps)])
        start = min(max(start, INT64_MIN - int(offsets.min())), INT64_MAX - int(offsets.max()))
        n, block_size = len(steps), data.draw(st.integers(2, 9))
        with mock.patch.object(analysis, "BOX_CELLS_PER_POINT", cells_per_point):
            samples, _, first = analysis._scan(
                _liar(steps, 1, block_size, (start,)), n, np.arange(n + 1), True, True
            )
        path = [start + int(v) for v in offsets]
        assert samples["r"] == _brute_force_range(np.array(path)).tolist()
        assert samples["disp"] == [max(abs(x - start) for x in path[: k + 1]) for k in range(n + 1)]
        long = [k + 1 for k, step in enumerate(steps.tolist()) if abs(step) > 1]
        assert first.get("increment_bound") == (long[0] if long else None)


class TestExtentPath:
    """A 1-D unit-step walk's r_n and M_n, read off its extent at the checkpoints."""

    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    @given(
        st.integers(2, 9),
        st.sampled_from([0, 2**63 - 300, -(2**63 - 300)]),
        st.data(),
    )
    def test_matches_python_ints(self, block_size, x0, data):
        steps = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=200))
        n = len(steps)
        path = [x0]
        for step in steps:
            path.append(path[-1] + step)
        r = [len(set(path[: k + 1])) for k in range(n + 1)]
        disp = [max(abs(x - x0) for x in path[: k + 1]) for k in range(n + 1)]
        # Sparse picks leave most blocks without a checkpoint.
        cps = data.draw(st.sets(st.integers(0, n), max_size=max(1, n // (2 * block_size))))
        if data.draw(st.booleans()):
            cps |= {0}
        if data.draw(st.booleans()):  # block ends: x_0..x_{B-1}, then B positions a block
            cps |= set(range(block_size - 1, n + 1, block_size))
        cps = sorted(cps or {n})

        def walk(m):
            return _liar(steps, m, block_size, (x0,))

        assert track_range(walk(1), n, cps)[1].tolist() == [r[k] for k in cps]
        for m in (1, 2, 3):
            assert track_extrema(walk(m), n, cps)[1].tolist() == [disp[k] for k in cps]
        rows = analyze_stream(walk(1), n, cps).rows
        assert [row["r_over_n"] for row in rows] == [float(r[k]) / k if k else float(r[k]) for k in cps]
        assert [row["M_over_n"] for row in rows] == [float(disp[k]) / k if k else 0.0 for k in cps]
        assert all(row["violations"] == [] for row in rows)


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
        _, r = track_range(walk_from_path(path, m=1), 5, checkpoints=[5])
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

    def test_huge_step_is_a_violation(self):
        # 2|x_1| = 2^63 does not fit in int64.
        chk = check_excursion_bound(walk_from_path([0, 2**62, 0]), 2)
        assert chk.first_violation == 1
        assert chk.peaks == (2**62,)

    def test_int64_min_peak_is_exact(self):
        # np.abs(-2^63) is -2^63 in int64.
        chk = check_excursion_bound(walk_from_path([0, -(2**62), -(2**63), -(2**62), 0]), 4)
        assert chk.first_violation == 1
        assert chk.peaks == (2**63,)
        assert chk.tight == 0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.one_of(st.integers(1, 6), st.integers(1, 2**63)), min_size=0, max_size=6),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_matches_python_int_oracle(self, excursions):
        # Each excursion keeps one sign and only its inner points may be
        # -2^63, so every step fits in int64.  The oracle checks the chained
        # form too, which the checker derives.
        path = [0]
        for negative, sizes in excursions:
            inner = range(1, len(sizes) - 1) if negative else ()
            sizes = [v if j in inner else min(v, INT64_MAX) for j, v in enumerate(sizes)]
            path += [-v if negative else v for v in sizes] + [0]
        chk = check_excursion_bound(walk_from_path(path), len(path) - 1)
        zeros = [n for n, x in enumerate(path) if x == 0]
        first, peaks, gaps, tight = None, [], [], 0
        for a, b in zip(zeros, zeros[1:]):
            gap, peak = b - a, max(abs(x) for x in path[a:b])
            bad = [n for n in range(a, b) if 2 * abs(path[n]) > gap
                   or (a >= 1 and 2 * abs(path[n]) * a > n * gap)]
            if bad and first is None:
                first = bad[0]
            peaks.append(peak)
            gaps.append(gap)
            tight += 2 * peak == gap
        assert chk.first_violation == first
        assert chk.peaks == tuple(peaks) and chk.gaps == tuple(gaps)
        assert chk.tight == tight

    def test_no_verdict_reads_the_whole_path(self, monkeypatch):
        stream = gen_simple_rw(0.5, 2000, 11)
        x = stream.path_array(2000)

        def whole_path(*_):
            raise AssertionError("a verdict read the whole path")

        monkeypatch.setattr(WalkStream, "path_array", whole_path)
        chk = check_excursion_bound(stream, 2000)
        got = (chk.first_violation, chk.n_excursions, chk.peaks, chk.gaps, chk.tight, chk.last_zero)
        assert got == self._per_step_oracle(x)
        assert check_excursion_bound(walk_from_path([0, 1, 0, 3, 0]), 4).first_violation == 3
        assert return_times(stream, 2000).times == tuple(np.flatnonzero(x == 0).tolist())
        results = suites.excursion_suite(paths=3, steps=2000) + suites.spiral_distinct_suite(2000)
        assert all(r.passed for r in results)
        assert [r.detail for r in results] == [
            "7 excursions, 7 tight peaks",
            "44 excursions",
            "3 seeds at horizon 2000, 0 violations, 0 without two zeros",
            "2001 points, 2001 distinct",
            "checked 2000 steps",
            "ratio 0.011045 at n = 2000",
        ]

    @staticmethod
    def _per_step_oracle(x: np.ndarray) -> tuple:
        """The checker's earlier whole-path form: one excursion id a step."""
        zeros = np.flatnonzero(x == 0)
        last = int(zeros[-1])
        gaps = np.diff(zeros)
        ids = np.repeat(np.arange(gaps.size), gaps)
        absx = np.abs(x[:last]).view(np.uint64)
        half = (gaps // 2).astype(np.uint64)
        bad = absx > half[ids]
        first = int(np.argmax(bad)) if bad.any() else None
        peaks = np.maximum.reduceat(absx, zeros[:-1])
        tight = int(np.count_nonzero((peaks == half) & (gaps % 2 == 0)))
        return first, gaps.size, tuple(map(int, peaks)), tuple(map(int, gaps)), tight, last

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.integers(-3, 3), min_size=2, max_size=80),
        st.lists(st.integers(0, 79), max_size=6),
        st.lists(st.tuples(st.integers(0, 79), st.integers(1, 3)), max_size=3),
        st.integers(2, 9),
    )
    def test_matches_per_step_oracle(self, m, steps, zeros, spikes, block_size):
        # An m-bounded path with zeros planted by setting a step to whatever
        # brings x back to 0 (kept only while it stays within m), and spikes
        # of m that push an excursion over its half gap.  Blocks of 2-9
        # positions put zeros, peaks and the first violation across block
        # edges, for the checker's one read and its second one.
        steps = [max(-m, min(m, s)) for s in steps]
        for at, size in spikes:
            if at < len(steps):
                steps[at] = min(size, m)
        path = [0]
        for n, step in enumerate(steps):
            if n in zeros and abs(path[-1]) <= m:
                step = -path[-1]
            path.append(path[-1] + step)
        x = np.array(path, dtype=np.int64)
        walk = walk_from_path(path, m=m)
        stream = _SmallBlocks(walk.metadata, walk.source_factory)
        stream.block_size = block_size
        assert return_times(stream, len(path) - 1).times == tuple(np.flatnonzero(x == 0).tolist())
        if np.count_nonzero(x == 0) < 2:
            with pytest.raises(ClassRAssumptionError):
                check_excursion_bound(stream, len(path) - 1)
            return
        chk = check_excursion_bound(stream, len(path) - 1)
        got = (chk.first_violation, chk.n_excursions, chk.peaks, chk.gaps, chk.tight, chk.last_zero)
        assert got == self._per_step_oracle(x)


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
        # Fewer than 4 checkpoints make one window of them all, as analyze_stream reports it.
        est = tail_limit_estimate([1, 2, 3], [0.5, 2.0, 1.0])
        assert est == TailEstimate(liminf_hat=0.5, limsup_hat=2.0, window=(1, 3))
        assert tail_limit_estimate([5], [0.25]).window == (5, 5)
        with pytest.raises(ValueError):
            tail_limit_estimate([1, 2], [0.0])


class TestSpeedReport:
    def test_unit_drift(self):
        report = analyze_stream(gen_linear_drift(1, [1], 1000), 1000)
        last = report.rows[-1]
        assert last["x_over_n"] == 1.0
        assert last["M_over_n"] == 1.0
        assert last["r_over_n"] == pytest.approx(1001 / 1000)
        assert report.theory["delta_r_over_n"] == pytest.approx(1 / 1000)

    def test_bound_m2_reaches_min_one(self):
        # drift 2, m = 2: r_n/n -> 1 = min(1, |drift|) and |drift|/m = 1 <= 1
        report = analyze_stream(gen_linear_drift(2, [2], 2000), 2000)
        r_over_n = report.rows[-1]["r_over_n"]
        assert r_over_n == pytest.approx(1.0, abs=1e-3)
        drift = 2.0
        assert drift / 2 <= r_over_n + 1e-9
        assert report.theory["delta_r_over_n"] is None  # no point target when m > 1

    def test_spiral_fills_while_crawling(self):
        last = analyze_stream(gen_spiral2d(20_000), 20_000).rows[-1]
        assert last["r_over_n"] == pytest.approx(20_001 / 20_000)
        assert last["x_over_n"] < 0.01

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

    def test_rows_and_tails_view(self):
        report = analyze_stream(gen_simple_rw(0.5, 200, 3), 200)
        assert report.rows[-1]["n"] == 200
        assert report.tails["r_over_n"].limsup_hat <= 1.0 + 1e-9

    def test_series_bounds_and_monotone_extrema(self):
        for seed in (1, 2, 3):
            rows = analyze_stream(gen_simple_rw(0.45, 5000, seed), 5000).rows
            ns = np.asarray([row["n"] for row in rows], dtype=float)
            r_over_n = np.asarray([row["r_over_n"] for row in rows])
            M_over_n = np.asarray([row["M_over_n"] for row in rows])
            assert (r_over_n >= 0).all()
            assert (r_over_n <= (ns + 1) / ns).all()
            assert (np.diff(M_over_n * ns) >= 0).all()


# ---------------------------------------------------------------------------
# Golden outputs: the report and the checkers, byte for byte
# ---------------------------------------------------------------------------


def _golden_paths():
    rng = np.random.Generator(np.random.PCG64(11))
    dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=np.int64)
    rw2d = np.vstack([[0, 0], np.cumsum(dirs[rng.integers(0, 4, 100_000)], axis=0)])
    # Steps up to 2^30 a coordinate: ||x_n||^2 outgrows int64 early.
    far3d = np.vstack(
        [[0, 0, 0], np.cumsum(rng.integers(-(2**30), 2**30, (3000, 3)), axis=0)]
    )
    return rw2d, far3d


_RW2D, _FAR3D_WALK = _golden_paths()

# name -> (fresh walk, horizon); block edges fall inside every horizon >= 2^16.
GOLDEN_WALKS = {
    "srw": (lambda: gen_simple_rw(0.5, 150_000, 7), 150_000),
    "ergodic": (
        lambda: make_walk({"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 150_000}, 7),
        150_000,
    ),
    "bd-symmetric": (lambda: gen_birth_death("symmetric", 150_000, 7), 150_000),
    "bd-lazy": (lambda: gen_birth_death("lazy:0.3", 150_000, 7), 150_000),
    "bd-reflected": (lambda: gen_birth_death("reflected", 150_000, 7), 150_000),
    "zigzag": (lambda: gen_zigzag(0.5, 150_000)[0], 150_000),
    "tau-tent": (lambda: gen_tau_tent("squares", 150_000), 150_000),
    "linear-drift-m2": (lambda: gen_linear_drift(2, [2, -1], 150_000), 150_000),
    "spiral2d": (lambda: gen_spiral2d(100_000), 100_000),
    "rw2d": (lambda: walk_from_path(_RW2D), 100_000),
    "far3d": (lambda: walk_from_path(_FAR3D_WALK), 3000),
}


def _golden_schedules(horizon):
    return {
        "dyadic": None,
        "arith": arith_checkpoints(horizon, max(1, horizon // 29)),
        "edges": [c for c in (0, 1, 65535, 65536, 65537, horizon) if c <= horizon],
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_digest(name, schedule):
    factory, horizon = GOLDEN_WALKS[name]
    cps = _golden_schedules(horizon)[schedule]
    return _sha("\n".join(analyze_stream(factory(), horizon, cps).jsonl_lines()))


def _checker_digest(name):
    factory, horizon = GOLDEN_WALKS[name]
    doc = {}
    for schedule, cps in _golden_schedules(horizon).items():
        for label, fn in (("range", track_range), ("extrema", track_extrema)):
            ns, values = fn(factory(), horizon, cps)
            doc[f"{label}/{schedule}"] = [ns.tolist(), values.tolist(), str(values.dtype)]
    stream = factory()
    doc["maximal"] = check_maximal_range(stream, stream.m, horizon)
    try:
        doc["sandwich"] = check_range_sandwich_1d(factory(), horizon)
    except ValueError as exc:
        doc["sandwich"] = f"ValueError: {exc}"
    return _sha(json.dumps(doc))


# sha256 of the analyze_stream JSONL per walk and schedule, and of the
# track_range / track_extrema / check_* outputs per walk, captured before the
# five block loops became one.  srw p = 0.5 and birth-death symmetric draw
# the same walk from one seed, so only their reports differ.
GOLDEN_REPORTS = {
    ("srw", "dyadic"): "3c5ce3002c9f4470ec425ede0c5f41fd90e81f83b43f6619f491669201ec091f",
    ("srw", "arith"): "a427247bab20f5157d59a53c663a9bc6da126fbbb36b05117d7c73c62b8a20f1",
    ("srw", "edges"): "3f3edc9fa638c12d681493a6299ef8e09a1db268fde96911c46b40c023e469ec",
    ("ergodic", "dyadic"): "eda27da75036ac3c0f10cdad2d0834c3af508778c3afbba94032ac80cb024528",
    ("ergodic", "arith"): "921739c355ae4152582e93f7ad961496ea1326b0d75bac121ff94acb20c2fa63",
    ("ergodic", "edges"): "55c7a30ce75f33a7e11cc7eca5988cd52109b30a9977fdac7179524bfc324e20",
    ("bd-symmetric", "dyadic"): "ee38761f2902f2a44e0561d34b27690648ee3eab2c9ce15cd09994383259f5cb",
    ("bd-symmetric", "arith"): "c7da6e39c93a18a7845537e36137f92247ae8d66a15259e90e1d20759ba69177",
    ("bd-symmetric", "edges"): "dd2a048c708dc6adfff018f1e331e4b163c6569207149ea3ab82981a605bdbf1",
    ("bd-lazy", "dyadic"): "ef2d806889b3bed7dbf5a9bd7ff918923f7806b5b831366a4db6acc0d233c18a",
    ("bd-lazy", "arith"): "0a045c93d84f7f3825bf8e27beeb65a74cbdf515fbbba689348cc3535b8cdbd2",
    ("bd-lazy", "edges"): "0aac02c093e266381d11808e7025d26333ebc9ae4cab6075a4bd6b5db001dba3",
    ("bd-reflected", "dyadic"): "d75d08e6c847ce8b5c6b7627cf57ba88297f04a92cba17c8f7a4169b915ebb33",
    ("bd-reflected", "arith"): "1ec58ea928c6763418991efd7b04e6ae06960bdd61803dc1e887ce14d8a970c6",
    ("bd-reflected", "edges"): "8a28a280d4a99efea9f347948307e7e7cb07d965ce171aa3b76b06acaddb3c19",
    ("zigzag", "dyadic"): "e0dceaaa01baf00b432c0f3396b5ccd6b360f5a953a26b93b311e2b65d1a35b2",
    ("zigzag", "arith"): "d09352bf9cb912e17f5542611bdfc2d5c7a301beacacdc10a6ebe0362579c103",
    ("zigzag", "edges"): "f0ea3e780ca66afb2cf77f452a1c4c527d2cb9f9189cdd64e3a31b4e4d93cd98",
    ("tau-tent", "dyadic"): "93d488accf7a936b41b754b142931b3f4c82d3fca5d96c775adaa52c0b944b54",
    ("tau-tent", "arith"): "7aa29f0a8cb20b4139ba62005d7d91836a0febcafa9a08ce019dc4ff6d91fbd7",
    ("tau-tent", "edges"): "bb6728788bc16ee83d687e644a6a5aa7ac48479aabeb056154af0e66222d2404",
    ("linear-drift-m2", "dyadic"): "d5858e680f9f8350f2e74347fbcee7ba60f14f4da516f66f0c84522747de60f1",
    ("linear-drift-m2", "arith"): "d3c9c09bbdaf2455b376bf0586b54dcfcb4dd0d35dca4b0a43f67b5e67a0b911",
    ("linear-drift-m2", "edges"): "75891783b889f409f08f0ddf7e47d8159e6ad2b6df834b83fbcbc81519602bb8",
    ("spiral2d", "dyadic"): "9ad5aaac697be24fcbe849e8c20784817839e5554898284ae3b9359cd4035fa5",
    ("spiral2d", "arith"): "218d254e51a1bdefebe456f33b323066e17f8c8dff97be9991651e22b9ae8264",
    ("spiral2d", "edges"): "7eeeaba84ea4e33fc7bcf93e0895167c78624bc2d83f0517739728b9ed82a096",
    ("rw2d", "dyadic"): "5be1f7b13a80c2bab8b24424585dcfc5d3eba609da0332cc1307b6bb4a31489c",
    ("rw2d", "arith"): "0df3be694f9176bbd1bec34fde16bfcdf2a66af73a504b996bff121e2bee19b9",
    ("rw2d", "edges"): "df3b46879074c58320fb5619590fac4b64269261773a9ac38af5e4b8a421655f",
    ("far3d", "dyadic"): "2d61cb4dfe4c9d14e9f132cc1419873f4dfb6c147be3177d2fff5ec8646dcd4e",
    ("far3d", "arith"): "b2ffa3b426919b74b91269f8a762d48e16f3278017be74842a217b88eeb4ce3f",
    ("far3d", "edges"): "faa3c0c963cbe1a3ffb1132f7d3bff139bcdb2c5b1d9429993c78e474770f404",
}
GOLDEN_CHECKERS = {
    "srw": "b7e892ff0b21188cd3ef49301622c5ec9f5d1e253a41acd2e25857978e7d697a",
    "ergodic": "a9bc547993ab88e88dc54ef0a474193a8e0231fbe7906bb34cad53dcbd0a6c4d",
    "bd-symmetric": "b7e892ff0b21188cd3ef49301622c5ec9f5d1e253a41acd2e25857978e7d697a",
    "bd-lazy": "a7643cb84d71584c46e5b64c22615a8a428add23d3a57eefdc5b6164d24673c2",
    "bd-reflected": "98166a902b44d44be12e6b35c6a775a8a3cb505927c8acb732fae127e9981d9e",
    "zigzag": "78d74cd53c7b233593392fb4555203ce86c4425abc2daa5232af398f8b4f5bf0",
    "tau-tent": "cb8b9fd818e75dda549fc5c5ac0d8c423482e408bd4b974553cfc9f1e0497834",
    "linear-drift-m2": "1d34292c75f9485ee356fb268e1afccca155da7e8dbdc0c0a3a54760f6518722",
    "spiral2d": "c08b5a223fadb06dfd5cd8a9958521927cdc96068c0869574955e6f21093414e",
    "rw2d": "fb9aea363570c190f883fb46bb53dc29f4a583b5f0a36fc40dd8ca304da8dfca",
    "far3d": "92a094766812d2e3819231ee0116e192c7b71f43bb7ede36dd0f15010f2f313f",
}


@pytest.mark.parametrize("name,schedule", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_digest(name, schedule):
    assert _report_digest(name, schedule) == GOLDEN_REPORTS[name, schedule]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECKERS))
def test_checkers_match_golden_digest(name):
    assert _checker_digest(name) == GOLDEN_CHECKERS[name]
