"""Core types: path points, step norms, increment bounds, stream replay contracts."""

import itertools
import math
import re
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangewalk import core, suites
from rangewalk.analysis import analyze_stream
from rangewalk.core import (
    DEFAULT_BLOCK,
    INT64_MAX,
    INT64_MIN,
    CoordinateOverflowError,
    DimensionMismatchError,
    WalkMetadata,
    WalkStream,
    at_origin,
    path_to_array,
    squared_distances,
    validate_increment_bound,
    walk_from_path,
)
from rangewalk.generators import gen_simple_rw, gen_spiral2d, make_walk


class TestPathPoints:
    """Points of a listed path and a stream's origin: ints or int sequences, int64-checked."""

    @staticmethod
    def _x0(d, **origin):
        return WalkStream(WalkMetadata("g", {}, None, m=1, d=d), lambda: None, **origin).path_array(0).tolist()

    def test_origin_default_and_given(self):
        assert self._x0(2) == [[0, 0]]
        assert self._x0(3) == [[0, 0, 0]]
        assert self._x0(2, origin=(3, np.int64(-4))) == [[3, -4]]
        assert self._x0(1, origin=np.int32(7)) == [7]
        assert self._x0(1, origin=[INT64_MIN]) == [INT64_MIN]

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            path_to_array([(), ()])

    def test_origin_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            WalkStream(WalkMetadata("g", {}, None, m=1, d=2), None, origin=5)
        with pytest.raises(DimensionMismatchError):
            WalkStream(WalkMetadata("g", {}, None, m=1, d=1), None, origin=(1, 2))

    def test_overflow_is_an_error_not_a_wrap(self):
        for bad in (INT64_MAX + 1, INT64_MIN - 1):
            with pytest.raises(CoordinateOverflowError):
                path_to_array([0, bad])
            with pytest.raises(CoordinateOverflowError):
                path_to_array([(0, 0), (1, bad)])
            with pytest.raises(CoordinateOverflowError):
                WalkStream(WalkMetadata("g", {}, None, m=1, d=1), None, origin=bad)
        assert path_to_array([INT64_MIN, np.int64(INT64_MAX)]).tolist() == [INT64_MIN, INT64_MAX]

    @pytest.mark.parametrize(
        "path",
        [["12", "34"], ["10", "99"], [b"\x01\x02"], [("1", "2")], [(0, b"1")], [(0, 0), (1.9, 0)], [0, 1.5]],
    )
    def test_text_and_float_points_are_refused(self, path):
        # A str or bytes iterates as a sequence of digits or byte values; int() truncates a float.
        with pytest.raises(ValueError, match="^a point is an int or a non-empty sequence of ints"):
            path_to_array(path)
        with pytest.raises(ValueError):
            validate_increment_bound(path, 1)

    @given(
        st.lists(st.integers(2**63 - 3, 2**63 + 2) | st.integers(0, 2**64 - 1), min_size=1, max_size=6),
        st.booleans(),
    )
    @example([2**64 - 1, 0], False)
    @example([2**63 - 1, 2**63], True)
    def test_uint64_values_past_int64_are_refused(self, values, as_rows):
        # astype(np.int64) would wrap 2^64 - 1 to -1, a unit step from 0.
        arr = np.array(values, dtype=np.uint64)
        if as_rows:
            arr = np.stack([arr, np.zeros_like(arr)], axis=1)
        if max(values) > INT64_MAX:
            with pytest.raises(CoordinateOverflowError):
                path_to_array(arr)
            with pytest.raises(CoordinateOverflowError):
                validate_increment_bound(arr, 1)
        else:
            assert path_to_array(arr).tolist() == arr.astype(object).tolist()
            assert validate_increment_bound(arr, 1) == validate_increment_bound(arr.tolist(), 1)


def _step_sq(a, b):
    """Squared Euclidean norm of the step from a to b, by `squared_distances`."""
    rows = path_to_array([a, b]).reshape(2, -1)
    return squared_distances(rows[1:], rows[0].tolist())[0]


class TestStepNorm:
    def test_d1_exact_integer(self):
        assert _step_sq(0, -3) == 9
        assert isinstance(_step_sq(0, -3), np.int64)

    def test_345_triangle(self):
        assert _step_sq((0, 0), (3, 4)) == 25

    def test_d3(self):
        assert _step_sq((1, 2, 3), (4, 6, 15)) == 169
        assert _step_sq((-1, 0, 1), (1, 0, -1)) == 8

    def test_identity(self):
        assert _step_sq((1, 1), (1, 1)) == 0

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _step_sq(0, (1, 2))

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (0, 2**32, 2**64),
            (INT64_MIN, INT64_MAX, (2**64 - 1) ** 2),
            ((INT64_MIN, 0), (INT64_MAX, 3), (2**64 - 1) ** 2 + 9),
            ((0, 0, 0), (2**31, 2**31, 2**31), 3 * 2**62),
        ],
        ids=["d1-square", "d1-difference", "d2", "d3"],
    )
    def test_squares_past_int64_are_exact_python_ints(self, a, b, expected):
        got = _step_sq(a, b)
        assert type(got) is int and got == expected

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_symmetric_1d(self, a, b):
        assert _step_sq(a, b) == _step_sq(b, a)

    @given(
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
        st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    )
    def test_triangle_inequality_2d(self, a, b, c):
        norms = [math.sqrt(_step_sq(*pair)) for pair in ((a, c), (a, b), (b, c))]
        assert norms[0] <= norms[1] + norms[2] + 1e-9

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_norm_sq_consistent(self, a, b):
        assert _step_sq(a, b) == (b - a) ** 2


class TestAtOrigin:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_all_zero_rows(self, d):
        block = np.random.default_rng(d).integers(-1, 2, size=(2000, d))
        expected = (block == 0).all(axis=1)
        assert expected.sum() > 10
        assert np.array_equal(at_origin(block[:, 0] if d == 1 else block), expected)


class TestValidateIncrementBound:
    def test_unit_steps_confirmed(self):
        assert validate_increment_bound([0, 1, 0, -1], 1) is None

    def test_violation_index(self):
        assert validate_increment_bound([0, 2, 5], 2) == 1

    def test_2d_unit_steps(self):
        assert validate_increment_bound([(0, 0), (1, 0), (1, 1)], 1) is None

    def test_empty_path(self):
        with pytest.raises(ValueError):
            validate_increment_bound([], 1)

    def test_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            validate_increment_bound([0, (0, 0)], 1)
        with pytest.raises(DimensionMismatchError):
            validate_increment_bound([(0, 0), (1,)], 1)

    def test_single_point_holds(self):
        assert validate_increment_bound([5], 1) is None

    def test_numpy_2d_violation(self):
        path = np.array([[0, 0], [1, 1], [4, 4]])
        assert validate_increment_bound(path, 2) == 1


class TestWalkStream:
    def test_replay_identical_prefixes_100k(self):
        a = gen_simple_rw(0.5, 10**5, 20240101).path_array(10**5)
        b = gen_simple_rw(0.5, 10**5, 20240101).path_array(10**5)
        assert np.array_equal(a, b)

    def test_block_size_never_changes_the_sequence(self):
        ref = gen_simple_rw(0.5, 0, 99).path_array(5000)
        for bs in (2, 7, 64, 4096):
            got = np.concatenate(list(gen_simple_rw(0.5, 0, 99).blocks(5000, block_size=bs)))
            assert np.array_equal(ref, got)

    def test_second_read_replays_the_first(self):
        s = gen_simple_rw(0.5, 10, 1)
        first = s.path_array(10)
        assert np.array_equal(s.path_array(10), first)
        assert np.array_equal(np.concatenate(list(s.blocks(10, block_size=3))), first)

    def test_interleaved_reads_are_independent(self):
        # Each read builds its own source: neither an abandoned read nor one
        # advanced in step with it moves another.
        s = gen_simple_rw(0.5, 100, 2)
        abandoned = s.blocks(100, block_size=5)
        next(abandoned)
        a, b = s.blocks(100, block_size=5), s.blocks(100, block_size=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert np.array_equal(np.concatenate(list(abandoned)), s.path_array(100)[5:])

    def test_blocks_cover_horizon(self):
        s = gen_spiral2d(100)
        blocks = list(s.blocks(100, block_size=17))
        total = sum(b.shape[0] for b in blocks)
        assert total == 101
        assert blocks[0][0].tolist() == [0, 0]

    def test_horizon_zero(self):
        s = gen_simple_rw(0.5, 0, 1)
        assert s.path_array(0).tolist() == [0]

    def test_overflow_guard_trips(self):
        class Up:
            def take(self, k):
                return np.ones(k, dtype=np.int64)

        meta = WalkMetadata("up", {}, None, m=1, d=1)
        s = WalkStream(meta, Up, origin=INT64_MAX - 3)
        with pytest.raises(CoordinateOverflowError):
            s.path_array(10)

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflow_guard_reads_steps_past_the_declared_m(self, d):
        # Steps of 2^62 under m = 1: x_2 = 2^63 once wrapped to -2^63.
        class Liar:
            def take(self, k):
                return np.full((k,) if d == 1 else (k, d), 2**62, dtype=np.int64)

        s = WalkStream(WalkMetadata("liar", {}, None, m=1, d=d), Liar)
        with pytest.raises(CoordinateOverflowError):
            s.path_array(3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflow_guard_passes_a_long_step_that_stays_in_range(self, d):
        # One step of 2^50 under m = 1, then 69 999 zero steps: n * step
        # passes 2^63 in the first block, but no position does.
        class OneJump:
            def __init__(self):
                self._done = 0

            def take(self, k):
                out = np.zeros((k,) if d == 1 else (k, d), dtype=np.int64)
                out[: 1 if self._done == 0 else 0] = 2**50
                self._done += k
                return out

        path = WalkStream(WalkMetadata("liar", {}, None, m=1, d=d), OneJump).path_array(70_000)
        assert path[1:].tolist() == [2**50 if d == 1 else [2**50] * d] * 70_000


_REPLAY_HORIZON = 500
_REPLAY_PATH_1D = np.cumsum(np.random.Generator(np.random.PCG64(5)).integers(-2, 3, _REPLAY_HORIZON + 1))
_REPLAY_PATH_2D = suites._random_unit_path_2d(np.random.Generator(np.random.PCG64(6)), _REPLAY_HORIZON)


def _replay_streams():
    """Every shipped generator plus stored d = 1 and d = 2 paths, each built afresh."""
    return suites._shipped_generators(13, _REPLAY_HORIZON) + [
        walk_from_path(_REPLAY_PATH_1D),
        walk_from_path(_REPLAY_PATH_2D),
    ]


_REPLAY_IDS = [f"{i}-{s.metadata.generator_name}" for i, s in enumerate(_replay_streams())]


def _reads(stream):
    """One read of each kind: the whole prefix, blocks of 2 and 4096 positions, the report."""
    h = _REPLAY_HORIZON
    return [
        stream.path_array(h),
        np.concatenate(list(stream.blocks(h, block_size=2))),
        np.concatenate(list(stream.blocks(h, block_size=4096))),
        list(analyze_stream(stream, h).jsonl_lines()),
    ]


class TestReplayContract:
    """Reading a stream again replays x_0..x_n bit for bit: every read builds a fresh source."""

    @pytest.mark.parametrize("index", range(len(_REPLAY_IDS)), ids=_REPLAY_IDS)
    def test_every_read_replays_a_fresh_stream(self, index):
        stream = _replay_streams()[index]
        first, second = _reads(stream), _reads(stream)
        fresh = _reads(_replay_streams()[index])
        for reads in (first, second, fresh):
            assert reads[0].shape[0] == _REPLAY_HORIZON + 1
            assert np.array_equal(reads[1], reads[0]) and np.array_equal(reads[2], reads[0])
        for a, b, c in zip(first, second, fresh):
            if isinstance(a, list):
                assert a == b == c
            else:
                assert a.dtype == b.dtype == c.dtype == np.int64
                assert np.array_equal(a, b) and np.array_equal(a, c)

    # A drawn source reuses its block-sized work arrays: reads must not share them.
    @pytest.mark.parametrize(
        "config",
        [{"gen": "srw", "p": 0.7}, {"gen": "ergodic", "preset": "switch:0.1,0.3"}, {"gen": "ergodic", "preset": "switch:0.9,0.8"}],
        ids=lambda c: c.get("preset", "srw"),
    )
    def test_lockstep_reads_of_a_drawn_stream(self, config):
        h = 3 * DEFAULT_BLOCK + 10
        stream = make_walk(dict(config, steps=h, seed=17))
        whole = stream.path_array(h)
        pairs = list(zip(stream.blocks(h), stream.blocks(h)))
        assert len(pairs) == 4
        for a, b in pairs:
            assert np.array_equal(a, b)
        assert np.array_equal(np.concatenate([a for a, _ in pairs]), whole)
        blocks = [block for pair in pairs for block in pair] + list(stream.blocks(h))
        for a, b in itertools.combinations(blocks, 2):
            assert not np.shares_memory(a, b)


@lru_cache(maxsize=None)
def _steps_by_norm(d, m):
    """The integer steps of norm <= m, and some of norm > m (up to 3m a coordinate)."""
    honest, long = [], []
    for step in itertools.product(range(-3 * m, 3 * m + 1), repeat=d):
        (honest if sum(c * c for c in step) <= m * m else long).append(step[0] if d == 1 else step)
    return honest, long


class TestCheckedBlocks:
    """`WalkStream._checked_blocks`: each block with the offset of its first long step."""

    @settings(deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 2), st.integers(2, 9), st.data())
    def test_offsets_match_a_python_int_oracle(self, d, m, block_size, data):
        n = data.draw(st.integers(1, 40))
        honest, long = _steps_by_norm(d, m)
        steps = data.draw(st.lists(st.sampled_from(honest), min_size=n, max_size=n))
        # Step 1, the steps into each later block's first position, the last step.
        spots = [0, n - 1] + list(range(block_size - 1, n, block_size))
        for k in data.draw(st.sets(st.sampled_from(spots), max_size=3)):
            steps[k] = data.draw(st.sampled_from(long))
        reached = [k + 1 for k, step in enumerate(steps) if np.dot(step, step) > m * m]
        steps = np.array(steps, dtype=np.int64)
        path = np.concatenate([np.zeros((1,) + steps.shape[1:], np.int64), np.cumsum(steps, axis=0)])
        stream = WalkStream(WalkMetadata("steps", {}, None, m=m, d=d), walk_from_path(path).source_factory)
        firsts, parts, done = [], [], 0
        for block, jump in stream._checked_blocks(n, block_size):
            assert block.shape[0] <= block_size
            inside = [k - done for k in reached if done <= k < done + block.shape[0]]
            assert jump == (inside[0] if inside else None)
            if jump is not None:
                firsts.append(done + jump)
            parts.append(block.copy())
            done += block.shape[0]
        assert np.array_equal(np.concatenate(parts), path)
        k = validate_increment_bound(path, m)
        assert firsts[:1] == ([] if k is None else [k + 1])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_horizon_zero_reports_no_long_step(self, d):
        class Huge:
            def take(self, k):
                return np.full((k,) if d == 1 else (k, d), 5, dtype=np.int64)

        stream = WalkStream(WalkMetadata("huge", {}, None, m=1, d=d), Huge)
        [(block, jump)] = stream._checked_blocks(0)
        assert block.tolist() == ([0] if d == 1 else [[0] * d]) and jump is None


def _stream_over(steps: np.ndarray, origin, m: int) -> WalkStream:
    """A stream whose increments are the rows of `steps`, from a fresh source each read."""

    class Steps:
        def __init__(self):
            self._at = 0

        def take(self, k):
            self._at += k
            return steps[self._at - k : self._at]

    d = 1 if steps.ndim == 1 else steps.shape[1]
    return WalkStream(WalkMetadata("steps", {}, None, m=m, d=d), Steps, origin=origin)


class TestBlockBuild:
    """The staged prefix sum of `_checked_blocks`, and the reads built on it."""

    @settings(deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(2, 9), st.integers(0, 30), st.data())
    def test_reads_match_a_python_int_running_sum(self, d, block_size, horizon, data):
        # Origins within a few steps of either end of int64: the walk may
        # leave the range, stay at its edge or step back into it.
        near = st.one_of(
            st.integers(INT64_MAX - 12, INT64_MAX), st.integers(INT64_MIN, INT64_MIN + 12), st.integers(-3, 3)
        )
        origin = [data.draw(near) for _ in range(d)]
        row = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        rows = data.draw(st.lists(row, min_size=horizon, max_size=horizon))
        m = data.draw(st.sampled_from([1, 2, 6]))
        path = [origin]
        for row in rows:
            path.append([a + b for a, b in zip(path[-1], row)])
        out = next((n for n, x in enumerate(path) if not all(INT64_MIN <= c <= INT64_MAX for c in x)), None)
        reached = [n + 1 for n, row in enumerate(rows) if sum(c * c for c in row) > m * m]
        if d == 1:
            path, origin = [x for [x] in path], origin[0]
        steps = np.array(rows, dtype=np.int64).reshape((horizon,) if d == 1 else (horizon, d))
        stream = _stream_over(steps, origin, m)

        def read(blocks, checked):
            got, jumps, done = [], [], 0
            try:
                for item in blocks:
                    block, jump = item if checked else (item, None)
                    if checked and jump is not None:
                        jumps.append(done + jump)
                    got += block.tolist()
                    done += block.shape[0]
            except CoordinateOverflowError:
                assert out is not None and done % block_size == 0 and done <= out < done + block_size
            else:
                assert out is None
            assert got == path[:done]
            return jumps, done

        jumps, done = read(stream._checked_blocks(horizon, block_size), True)
        assert jumps[:1] == [n for n in reached if n < done][:1]
        read(stream.blocks(horizon, block_size), False)
        if out is None:
            assert stream.path_array(horizon).tolist() == path
        else:
            with pytest.raises(CoordinateOverflowError):
                stream.path_array(horizon)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_are_independent_fresh_arrays(self, d):
        rng = np.random.Generator(np.random.PCG64(d))
        path = np.cumsum(rng.integers(-1, 2, (50, d)), axis=0)
        stream = walk_from_path(path if d > 1 else path[:, 0])
        blocks = list(stream.blocks(49, block_size=7))
        assert len(blocks) == 8
        for a, b in itertools.combinations(blocks, 2):
            assert not np.shares_memory(a, b)
        for block in blocks:
            assert block.flags.c_contiguous and block.flags.owndata
        assert np.array_equal(np.concatenate(blocks), stream.path_array(49))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("block_size", [2, 7, DEFAULT_BLOCK])
    def test_checked_blocks_have_contiguous_columns(self, d, block_size):
        rng = np.random.Generator(np.random.PCG64(d))
        stream = walk_from_path(np.cumsum(rng.integers(-1, 2, (100, d)), axis=0))
        for block, _ in stream._checked_blocks(99, block_size):
            assert block.shape[1] == d
            assert all(block[:, j].flags.c_contiguous for j in range(d))


class TestWalkFromPath:
    def test_infers_bound(self):
        s = walk_from_path([0, 2, 4, 1])
        assert s.m == 3
        assert s.d == 1

    @pytest.mark.parametrize(
        "path, m, peak",
        [([0, 2, 4, 1], None, 3), ([0, 2, 4, 1], 5, 3), ([(0, 0), (2, 1), (0, 0)], None, 2)],
    )
    def test_source_states_the_checked_facts(self, path, m, peak):
        s = walk_from_path(path, m=m)
        source = s.source_factory()
        assert (source.peak, source.bound) == (peak, s.m)

    def test_declared_bound_validated(self):
        with pytest.raises(ValueError, match="step 1"):
            walk_from_path([0, 1, 5], m=1)

    def test_replays_the_data(self):
        s = walk_from_path([(0, 0), (1, 0), (1, 1)], m=1)
        assert s.path_array(2).tolist() == [[0, 0], [1, 0], [1, 1]]

    def test_nonzero_origin(self):
        s = walk_from_path([5, 6, 5], m=1)
        assert s.path_array(2).tolist() == [5, 6, 5]

    def test_metadata_conflict(self):
        meta = WalkMetadata("x", {}, None, m=2, d=1)
        with pytest.raises(ValueError):
            walk_from_path([0, 1], m=1, metadata=meta)

    @pytest.mark.parametrize(
        "path",
        [
            [INT64_MAX, INT64_MIN],
            [INT64_MIN, INT64_MAX],
            [(0, INT64_MAX), (0, INT64_MIN)],
            [(INT64_MIN, 0, 0), (1, 0, 0)],
        ],
    )
    def test_wrapped_step_refused(self, path):
        # np.diff in int64 turns these steps into small ones (2^64 - 1 -> -1).
        with pytest.raises(CoordinateOverflowError):
            walk_from_path(path)
        with pytest.raises(CoordinateOverflowError):
            validate_increment_bound(path, 1)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("at", [0, 5, 9])  # the first, a middle and the last step
    def test_a_long_step_is_named_with_its_index(self, d, at):
        path = np.zeros((11, d), dtype=np.int64)
        path[1:, 0] = np.arange(1, 11)  # unit steps along the first axis
        path[at + 1 :, 1] += 2  # one step of norm sqrt(5)
        message = f"stored path violates declared increment bound m=2 at step {at}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            walk_from_path(path, m=2)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            walk_from_path(path, metadata=WalkMetadata("g", {}, None, m=2, d=d))
        assert validate_increment_bound(path, 2) == at
        assert walk_from_path(path).m == 3

    def test_non_axis_steps_infer_the_ceiling_of_the_norm(self):
        assert walk_from_path([(0, 0), (3, 4)]).m == 5
        assert walk_from_path([(0, 0), (1, 1)]).m == 2
        assert walk_from_path([(0, 0, 0), (1, 1, 0), (1, 1, 1)]).m == 2

    def test_m_below_one_is_refused(self):
        for path in ([0, 1], [0], [(0, 0), (1, 0)]):
            with pytest.raises(ValueError, match="^increment bound m must be >= 1$"):
                walk_from_path(path, m=0)

    def test_extreme_steps_infer_the_exact_bound(self):
        assert walk_from_path([0, INT64_MIN]).m == 2**63
        # 2 * (2^62)^2 = 2^125 does not fit in int64; m = ceil(sqrt(2^125)).
        s = walk_from_path([(0, 0), (2**62, 2**62)])
        assert s.m == 6521908912666391107
        assert validate_increment_bound([(0, 0), (2**62, 2**62)], s.m - 1) == 0


# Steps at the edges of the narrow stored dtypes, and of int64 itself.
_EDGE_STEPS = sorted(
    {s * v for v in (0, 1, 127, 128, 32767, 32768, 2**31 - 1, 2**31, INT64_MAX) for s in (1, -1)} | {INT64_MIN}
)


def _whole_path_oracle(arr: np.ndarray, m):
    """The step check on the whole path at once: its int64 differences, their
    wrap test, and exact Python-int norms.

    Returns ("overflow", None) for a step that wraps int64, ("m", inferred m)
    for m None, else ("violation", first long step or None).
    """
    a, b = arr[:-1], arr[1:]
    diffs = b - a
    if int(arr.max()) - int(arr.min()) > INT64_MAX and ((b < a) != (diffs < 0)).any():
        return "overflow", None
    norms = [sum(int(c) ** 2 for c in np.atleast_1d(row)) for row in diffs]
    if m is None:
        worst = max(norms, default=0)
        return "m", math.isqrt(worst - 1) + 1 if worst > 1 else 1
    return "violation", next((k for k, sq in enumerate(norms) if sq > m * m), None)


def _jumps(stream: WalkStream, horizon: int, block_size: int) -> list:
    """The position of every long step `_checked_blocks` reports."""
    found, done = [], 0
    for block, jump in stream._checked_blocks(horizon, block_size):
        if jump is not None:
            found.append(done + jump)
        done += block.shape[0]
    return found


class TestStepPass:
    """`walk_from_path`'s chunked step pass and its narrow stored increments."""

    def test_a_narrow_source_reused_under_a_smaller_m_widens_before_squaring(self):
        # 12^2 = 144 wraps to -112 in int8, which would hide the long step.
        walk = walk_from_path([[0, 0], [1, 0], [13, 0], [13, 1]])
        assert walk.m == 12 and walk.source_factory()._steps.dtype == np.int8
        rewrapped = WalkStream(WalkMetadata("path", {}, None, m=11, d=2), walk.source_factory)
        assert [jump for _, jump in rewrapped._checked_blocks(3)] == [2]

    @pytest.mark.parametrize(
        "peak, dtype",
        [(1, np.int8), (127, np.int8), (128, np.int16), (32768, np.int32), (2**31, np.int64), (2**63, np.int64)],
    )
    def test_stores_the_narrowest_dtype_that_holds_the_steps(self, peak, dtype):
        walk = walk_from_path([0, 1, 1 - peak, 1 - peak])
        assert walk.source_factory()._steps.dtype == dtype
        assert walk.path_array(2).dtype == np.int64

    @pytest.mark.parametrize("d", [1, 2])
    def test_changing_the_callers_array_changes_no_replay(self, d):
        rng = np.random.Generator(np.random.PCG64(d))
        path = np.cumsum(rng.integers(-200, 201, (300, d)), axis=0)
        path = path[:, 0].copy() if d == 1 else path
        want = path.copy()
        walk = walk_from_path(path)
        path += 7
        path[5] = INT64_MAX
        assert np.array_equal(walk.path_array(299), want)
        assert np.array_equal(np.concatenate(list(walk.blocks(299, block_size=16))), want)

    @settings(deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(2, 9), st.data())
    def test_matches_the_whole_path_oracle(self, d, chunk, data):
        n = data.draw(st.integers(1, 24))
        # A row is a step of -1, 0 or 1 a coordinate or, one time in four, of
        # edge steps; a coordinate that would leave int64 jumps to an edge of
        # it instead (a wrapping step, often).
        path = [[data.draw(st.sampled_from([0, 5, INT64_MIN, INT64_MAX])) for _ in range(d)]]
        for _ in range(n - 1):
            row, steps = [], _EDGE_STEPS if data.draw(st.integers(0, 3)) == 3 else [-1, 0, 1]
            for c in path[-1]:
                x = c + data.draw(st.sampled_from(steps))
                row.append(x if INT64_MIN <= x <= INT64_MAX else data.draw(st.sampled_from([INT64_MIN, INT64_MAX])))
            path.append(row)
        arr = np.array(path, dtype=np.int64).reshape((n,) if d == 1 else (n, d))
        m = data.draw(st.sampled_from([None, 1, 127, 128, 32768, 2**31, 2**62]))
        kind, value = _whole_path_oracle(arr, m)
        with mock.patch.object(core, "STEP_CHUNK", chunk):
            if kind == "overflow":
                with pytest.raises(CoordinateOverflowError):
                    walk_from_path(arr, m=m)
                with pytest.raises(CoordinateOverflowError):
                    validate_increment_bound(arr, m or 1)
                return
            if m is not None:
                assert validate_increment_bound(arr, m) == value
            if kind == "violation" and value is not None:
                message = f"stored path violates declared increment bound m={m} at step {value}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    walk_from_path(arr, m=m)
                return
            walk = walk_from_path(arr, m=m)
        assert walk.m == (value if m is None else m)
        assert np.array_equal(np.concatenate(list(walk.blocks(n - 1, block_size=chunk))), arr)
        # The narrow source reused under other m's, against the int64 steps.
        steps, origin = np.diff(arr, axis=0), arr[0].tolist()
        for m2 in {1, 127, 128, max(1, walk.m - 1), walk.m}:
            rewrapped = WalkStream(WalkMetadata("path", {}, None, m=m2, d=d), walk.source_factory, origin=origin)
            assert _jumps(rewrapped, n - 1, chunk) == _jumps(_stream_over(steps, origin, m2), n - 1, chunk)


class TestWalkMetadata:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkMetadata("g", {}, None, m=0, d=1)
        with pytest.raises(ValueError):
            WalkMetadata("g", {}, None, m=1, d=0)
        with pytest.raises(ValueError):
            WalkMetadata("g", {}, seed=2**64, m=1, d=1)
