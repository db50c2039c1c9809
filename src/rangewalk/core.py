"""Core lattice-walk types: stream metadata, the stream, and the increment-bound contract.

Positions live on the integer lattice Z^d, held as int64 arrays, or as tuples
of ints for one point (a stream's origin).  A walk is a sequence x_0, x_1, ...
whose consecutive steps are bounded in Euclidean norm by a declared integer m.
Streams are produced in numpy blocks so that million-step horizons stay cheap,
but the block size never changes the emitted sequence, and every read builds
a fresh increment source: reading a stream again replays it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol

import numpy as np

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

#: Default number of positions per block yielded by :meth:`WalkStream.blocks`.
DEFAULT_BLOCK = 1 << 16


class DimensionMismatchError(ValueError):
    """Operands live on lattices of different dimension."""


class CoordinateOverflowError(OverflowError):
    """A coordinate left the signed 64-bit range; refusing to wrap."""


def _checked_i64(value: int) -> int:
    if not (INT64_MIN <= value <= INT64_MAX):
        raise CoordinateOverflowError(f"coordinate {value} outside signed 64-bit range")
    return value


# ---------------------------------------------------------------------------
# Paths and increment-bound validation
# ---------------------------------------------------------------------------


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2^64), which `mix_seed` would mask to another's."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")


def _point(value) -> tuple:
    """One lattice point as int64-checked coordinates; an int is a d = 1 point."""
    coords = (value,) if np.ndim(value) == 0 else tuple(value)  # a str or bytes is one value
    if not coords or not all(isinstance(c, (int, np.integer)) for c in coords):
        raise ValueError(f"a point is an int or a non-empty sequence of ints, not {value!r}")
    return tuple(_checked_i64(int(c)) for c in coords)


def path_to_array(path) -> np.ndarray:
    """Normalize a path (an integer array, or a sequence of ints or int
    sequences) to an int64 array.

    Returns shape (N,) for d = 1 walks and (N, d) otherwise.
    """
    if isinstance(path, np.ndarray):
        arr = path
        if arr.dtype != np.int64:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError("path array must be integer-valued")
            if arr.dtype.kind == "u" and arr.size and int(arr.max()) > INT64_MAX:
                raise CoordinateOverflowError("path array has a value outside signed 64-bit range")
            arr = arr.astype(np.int64)
        if arr.ndim not in (1, 2):
            raise ValueError("path array must be 1-D or (N, d)")
        return arr
    points = [_point(p) for p in path]
    if not points:
        raise ValueError("empty path")
    d = len(points[0])
    if any(len(p) != d for p in points):
        raise DimensionMismatchError("points in path have mixed dimensions")
    return np.array([p[0] for p in points] if d == 1 else points, dtype=np.int64)


def squared_distances(rows: np.ndarray, origin, peak: Optional[int] = None) -> np.ndarray:
    """Exact ||row - origin||^2 for each row of an (N, d) int64 array.

    int64 while d * peak^2 fits, Python ints (object dtype) beyond, so
    neither the difference nor the sum can wrap; `peak`, at least the
    largest |coordinate of row - origin|, is computed unless the caller has
    it.  Works column by column: numpy reduces along a short axis far more
    slowly.
    """
    cols = [(rows[:, j], int(c)) for j, c in enumerate(origin)]
    if peak is None:
        peak = max(max(h - c, c - l) for (l, h), (_, c) in zip(_spans(rows), cols))
    exact = len(cols) * peak * peak > INT64_MAX
    total = None
    for col, c in cols:
        delta = col.astype(object) if exact else col
        if c:
            delta = delta - c
        total = delta * delta if total is None else np.add(total, delta * delta, out=total)
    return total


def at_origin(block: np.ndarray) -> np.ndarray:
    """Boolean mask of the positions of an (N,) or (N, d) block equal to 0.

    Compares column by column, for the reason given in `squared_distances`.
    """
    if block.ndim == 1:
        return block == 0
    hit = block[:, 0] == 0
    for j in range(1, block.shape[1]):
        hit &= block[:, j] == 0
    return hit


def _spans(arr: np.ndarray) -> list:
    """Each column's (min, max) of an (N,) or (N, d) int64 array with N >= 1, as exact ints."""
    return [(int(c.min()), int(c.max())) for c in ([arr] if arr.ndim == 1 else arr.T)]


def _distinct(arr: np.ndarray) -> np.ndarray:
    """`np.unique(arr)` without the numpy.ma import np.unique pays on its first call."""
    arr = np.sort(arr, axis=None)
    return arr[np.concatenate(([True], arr[1:] != arr[:-1]))] if arr.size else arr


def _peak(diffs: np.ndarray) -> int:
    """The largest |coordinate| of an (N,) or (N, d) int64 array, 0 if N = 0 (exact int)."""
    return max(max(h, -l) for l, h in _spans(diffs)) if diffs.size else 0


def _squared_norms(cols: np.ndarray, peak: int) -> np.ndarray:
    """Exact squared norms of the steps whose coordinates are the rows of a
    (d, N) int64 array, with `peak` at least its largest |entry|.

    In place while d * peak^2 fits in int64, so the array is spent and no
    temporary is built; Python ints (object dtype) beyond.
    """
    if len(cols) * peak * peak > INT64_MAX:
        return squared_distances(cols.T, (0,) * len(cols), peak)
    np.multiply(cols, cols, out=cols)
    for col in cols[1:]:
        np.add(cols[0], col, out=cols[0])
    return cols[0]


def _first_long_step(cols: np.ndarray, m: int, peak: int, spend: bool = False) -> Optional[int]:
    """Index of the first step of Euclidean norm > m, or None; exact ints.

    Every step test runs here.  `cols` holds the steps' coordinates, one row
    per axis, (d, N) of any integer dtype; `peak`, at least its largest
    |entry|, settles most arrays without a pass: no step is longer than m
    while d * peak^2 <= m^2, which for d = 1 is exact.  The squares are
    taken on an int64 copy (narrow stored steps would wrap: 12^2 in int8),
    or, with `spend`, in the int64 array itself.
    """
    d = len(cols)
    if d * peak * peak <= m * m:
        return None
    if d == 1:  # a compare, no arithmetic: m < peak fits the dtype
        bad = (cols[0] > m) | (cols[0] < -m)
    else:
        bad = _squared_norms(cols if spend else cols.astype(np.int64), peak) > m * m
    k = int(np.argmax(bad))
    return k if bad[k] else None


def _narrowest(peak: int):
    """The narrowest signed integer dtype holding every value in [-peak, peak]."""
    return next((t for t in (np.int8, np.int16, np.int32) if peak <= np.iinfo(t).max), np.int64)


#: Positions per chunk that `_scan_path` feeds `_StepPass`; the pass's buffer
#: is d rows of this many int64s (a measured optimum, see
#: scripts/path_replay_table.py).
STEP_CHUNK = 1 << 14


class _StepPass:
    """One pass over the steps x_{k+1} - x_k of a stored path, fed its
    positions in consecutive (k,) or (k, d) int64 chunks.

    It counts the `rows` fed and keeps x_0 (`origin`), the largest
    |coordinate| of a step (`peak`) and `found`: the largest squared step
    norm when m is None, else the index of the first step of norm > m, or
    None.  With `keep`, `steps()` is a (d, rows - 1) copy of the steps in the
    narrowest integer dtype that holds them, in room for `cap` steps that
    grows as chunks arrive.  A step beyond int64 is kept as `error` and ends
    the step work, so that a caller can raise the errors it finds first.

    Each chunk is differenced axis by axis, from the last position before
    it, into one (d, k) int64 buffer that later chunks reuse.
    """

    def __init__(self, d: int, m: Optional[int], keep: bool = False, cap: int = 0):
        self.d, self.m, self.rows, self.origin, self.error = d, m, 0, None, None
        self.peak, self.found = 0, 0 if m is None else None
        self._n, self._last, self._buf = 0, None, np.empty((d, 0), dtype=np.int64)
        # Axis a's steps are _kept[a * cap : a * cap + n]; one owned array, so it resizes in place.
        self._cap, self._kept = cap, np.empty(d * cap, dtype=np.int8) if keep else None

    def feed(self, pos: np.ndarray) -> None:
        self.rows += len(pos)
        pos = pos.reshape(len(pos), self.d)
        if self._last is None and len(pos):
            self.origin, self._last, pos = pos[0].tolist(), pos[0].tolist(), pos[1:]
        k = len(pos)
        if self.error is not None or not k:
            return
        if self._buf.shape[1] < k:
            self._buf = np.empty((self.d, k), dtype=np.int64)
        cols, last = self._buf[:, :k], self._last
        for x, c, col in zip(pos.T, last, cols):
            np.subtract(x[:1], c, out=col[:1])
            np.subtract(x[1:], x[:-1], out=col[1:])
        top = max(int(cols.max()), -int(cols.min()))
        # The positions are `last` plus the prefix sums of `cols`, mod 2^64;
        # sums that cannot leave int64 are exact, so no step wrapped.  Else
        # |b - a| < 2^64, so b - a wrapped iff the sign of the result is wrong.
        if max(map(abs, last)) + k * top > INT64_MAX:
            for x, c, col in zip(pos.T, last, cols):
                if ((np.concatenate(([c], x[:-1])) > x) != (col < 0)).any():
                    self.error = CoordinateOverflowError("a step of the path leaves the signed 64-bit range")
                    return
        self._last = pos[-1].tolist()
        self.peak = max(self.peak, top)
        if self._kept is not None:
            self._keep(cols, top)
        if self.m is None:  # only a chunk with d * top^2 above the worst so far can raise it
            if self.d * top * top > self.found:
                self.found = max(self.found, top * top if self.d == 1 else int(_squared_norms(cols, top).max()))
        elif self.found is None and (j := _first_long_step(cols, self.m, top, spend=True)) is not None:
            self.found = self._n + j
        self._n += k

    def _keep(self, cols: np.ndarray, top: int) -> None:
        d, n, k, cap = self.d, self._n, cols.shape[1], self._cap
        if top >> 8 * self._kept.itemsize - 1:  # top > the kept dtype's largest value
            self._kept = self._kept.astype(_narrowest(top))
        if n + k > cap:  # grow by a quarter at least; each axis's steps move to its new start
            self._cap = max(n + k, cap + cap // 4)
            self._kept.resize(d * self._cap, refcheck=False)  # no view of it is alive
            for a in range(d - 1, 0, -1):
                self._kept[a * self._cap : a * self._cap + n] = self._kept[a * cap : a * cap + n]
        self._kept.reshape(d, self._cap)[:, n : n + k] = cols

    def steps(self) -> np.ndarray:
        """The kept steps as a (d, rows - 1) array; the room beyond them is given back."""
        d, n, cap = self.d, self._n, self._cap
        if n < cap:
            for a in range(1, d):
                self._kept[a * n : (a + 1) * n] = self._kept[a * cap : a * cap + n]
            self._kept.resize(d * n, refcheck=False)
            self._cap = n
        return self._kept.reshape(d, n)


def _scan_path(arr: np.ndarray, m: Optional[int], keep: bool = False) -> _StepPass:
    """`_StepPass` over a non-empty int64 path, fed STEP_CHUNK positions at a time."""
    scan = _StepPass(1 if arr.ndim == 1 else arr.shape[1], m, keep, cap=arr.shape[0] - 1)
    for lo in range(0, arr.shape[0], STEP_CHUNK):
        scan.feed(arr[lo : lo + STEP_CHUNK])
    return scan


def validate_increment_bound(path, m: int) -> Optional[int]:
    """Check that every step of `path` has Euclidean norm <= m.

    Returns None when the bound holds everywhere (confirmation), otherwise
    the smallest index k with ||x_{k+1} - x_k|| > m.

    Raises on an empty path, mixed dimensions, or m < 1, and
    :class:`CoordinateOverflowError` on a step that does not fit in int64.
    """
    if m < 1:
        raise ValueError("increment bound m must be >= 1")
    arr = path_to_array(path)
    if arr.shape[0] == 0:
        raise ValueError("empty path")
    scan = _scan_path(arr, m)
    if scan.error is not None:
        raise scan.error
    return scan.found


# ---------------------------------------------------------------------------
# Stream metadata and the stream itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WalkMetadata:
    """Provenance and contract data for a walk stream.

    theoretical_drift is only set for generators whose speed
    lim x_n / n is known in closed form (signed for d = 1).
    """

    generator_name: str
    params: dict
    seed: Optional[int]
    m: int
    d: int
    theoretical_drift: Optional[float] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("increment bound m must be >= 1")
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if self.seed is not None:
            _check_seed(self.seed)


class IncrementSource(Protocol):
    """A walk's increments.  A source whose steps come from a fixed table may
    state two exact facts: `peak`, at least the largest |coordinate| of a
    step, and `bound`, an integer no step's norm exceeds.  `WalkStream` then
    computes no block's peak, and tests no step against an m >= `bound`."""

    def take(self, k: int) -> np.ndarray:
        """Return the next k increments, shape (k,) for d=1 else (k, d).

        The array may be a view that the next call overwrites.
        """
        ...


class WalkStream:
    """The positions x_0, x_1, x_2, ... of a walk, as a replayable value.

    The stream is defined by its metadata plus a factory for the increment
    source, which must return a new source over the same increments on
    every call.  Reads go through `blocks` (numpy arrays whose concatenation
    is x_0..x_horizon) or `path_array` (one array for the whole prefix); each
    read builds a fresh source, so reading the stream again replays the
    identical sequence bit for bit.  `origin`, x_0, is an int for d = 1 or a
    sequence of d ints, the origin of Z^d by default.
    """

    def __init__(
        self,
        metadata: WalkMetadata,
        source_factory: Callable[[], IncrementSource],
        origin=None,
    ):
        self.metadata = metadata
        self._source_factory = source_factory
        self._origin = (0,) * metadata.d if origin is None else _point(origin)
        if len(self._origin) != metadata.d:
            raise DimensionMismatchError("origin dimension differs from metadata.d")

    @property
    def d(self) -> int:
        return self.metadata.d

    @property
    def m(self) -> int:
        return self.metadata.m

    @property
    def source_factory(self) -> Callable[[], IncrementSource]:
        return self._source_factory

    # -- reads ------------------------------------------------------------

    def blocks(self, horizon: int, block_size: int = DEFAULT_BLOCK) -> Iterator[np.ndarray]:
        """Yield consecutive position blocks covering x_0 .. x_horizon.

        The first block starts with x_0; concatenating all yielded arrays
        gives the full prefix of horizon + 1 positions.  Block size does not
        affect the values produced.  Each block is a fresh array, (N,) for
        d = 1 and row-major (N, d) otherwise.  Its steps are tested against
        m as it is built; `_checked_blocks` yields the verdict, this drops it.
        """
        return (pos.copy() for pos, _ in self._checked_blocks(horizon, block_size))

    def _checked_blocks(self, horizon: int, block_size: int = DEFAULT_BLOCK):
        """Yield each block of `blocks` as a view that the next block
        overwrites, with the offset in it of the first position reached by a
        step longer than m, or None.

        The read allocates a staging row and a positions buffer of d rows
        once.  On each axis, a block writes the carry, then its steps, back
        to front into the staging row, and one prefix sum runs from that
        reversed view into the axis's positions: numpy's cumsum is several
        times faster from a reversed view than between contiguous arrays.  A
        d >= 2 block is the positions transposed, (N, d) with contiguous
        columns.

        Every step is tested here, once, with the largest coordinate step
        that the overflow guard computes, so a d = 1 block pays nothing more;
        a source that states its `peak` and a `bound` <= m pays neither.
        """
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        source = self._source_factory()
        d, m = self.d, self.metadata.m
        stated = getattr(source, "peak", None)
        honest = getattr(source, "bound", m + 1) <= m
        stage = np.empty(min(horizon, block_size) + 1, dtype=np.int64)
        pos = np.empty((d, stage.size), dtype=np.int64)
        carry = np.array(self._origin, dtype=np.int64)
        lead, n_inc = 0, min(horizon, block_size - 1)  # the first block keeps x_0
        remaining = horizon
        while True:
            jump, cols = None, np.empty((d, 0), dtype=np.int64)  # horizon 0 takes no step
            if n_inc > 0:
                inc = source.take(n_inc)
                # Overflow guard: no coordinate of the block can move farther
                # than n_inc * step from the carry, where step is m or, for a
                # source that breaks its bound, the block's largest coordinate
                # step.  Exact Python ints: numpy abs would wrap on INT64_MIN
                # itself.  Only when this cheap bound trips are the positions
                # summed exactly, so no walk that stays in range is refused
                # (the int64 sums below wrap mod 2^64, so they are exact then).
                peak = _peak(inc) if stated is None else stated
                extent = max(abs(c) for c in carry.tolist())
                if extent + n_inc * max(m, peak) > INT64_MAX:
                    exact = np.cumsum(inc.astype(object), axis=0) + carry.astype(object)
                    if exact.min() < INT64_MIN or exact.max() > INT64_MAX:
                        raise CoordinateOverflowError(
                            "walk left the signed 64-bit coordinate range"
                        )
                cols = inc.reshape(n_inc, d).T
                jump = None if honest else _first_long_step(cols, m, peak)
            staged = stage[n_inc::-1]
            for axis, col in enumerate(cols):
                staged[0], staged[1:] = carry[axis], col
                np.cumsum(staged, out=pos[axis, : n_inc + 1])
            carry = pos[:, n_inc].copy()
            block = pos[:, lead : n_inc + 1]
            yield block[0] if d == 1 else block.T, None if jump is None else jump + 1 - lead
            remaining -= n_inc
            if remaining == 0:
                return
            lead, n_inc = 1, min(remaining, block_size)

    def path_array(self, horizon: int) -> np.ndarray:
        """Materialize x_0..x_horizon as one int64 array, (N,) for d = 1 else (N, d)."""
        # max(): `_checked_blocks` refuses a negative horizon with its own message.
        path = np.empty((max(horizon, -1) + 1,) + ((self.d,) if self.d > 1 else ()), dtype=np.int64)
        done = 0
        for block, _ in self._checked_blocks(horizon):
            path[done : done + block.shape[0]] = block
            done += block.shape[0]
        return path


# ---------------------------------------------------------------------------
# Array-backed streams (CSV replay, explicit test paths)
# ---------------------------------------------------------------------------


class _ArraySource:
    def __init__(self, steps: np.ndarray, peak: int, bound: int):
        self._steps = steps[0] if len(steps) == 1 else steps.T  # (N,) or (N, d) views
        self._at = 0
        self.peak, self.bound = peak, bound  # facts `_stored_walk` checked on the steps

    def take(self, k: int) -> np.ndarray:
        if self._at + k > self._steps.shape[0]:
            raise ValueError("array-backed stream exhausted beyond its stored path")
        out = self._steps[self._at : self._at + k]
        self._at += k
        return out


def walk_from_path(
    path,
    m: Optional[int] = None,
    name: str = "path",
    metadata: Optional[WalkMetadata] = None,
) -> WalkStream:
    """Wrap an explicit finite path as a replayable WalkStream.

    If m is omitted it is inferred as the smallest integer bound the data
    satisfies.  The stored path's actual increments are validated against m.
    An explicit `metadata` (e.g. the generator config that produced a CSV)
    replaces the synthesized one; its m must hold for the data.

    The stream keeps its own copy of the increments, in the narrowest
    integer dtype that holds them, so changing `path` later changes no read.
    """
    arr = path_to_array(path)
    if arr.shape[0] == 0:
        raise ValueError("empty path")
    return _stored_walk(_scan_path(arr, m if metadata is None else metadata.m, keep=True), m, name, metadata)


def _stored_walk(
    scan: _StepPass, m: Optional[int], name: str, metadata: Optional[WalkMetadata]
) -> WalkStream:
    """The stream over the steps a finished `_StepPass` kept, with the checks
    and the m inference of `walk_from_path`.  Raises, in this order: the
    pass's `error`, an `m` other than the metadata's, a metadata d other than
    the path's, a bound below 1, and the first step longer than the bound."""
    if scan.error is not None:
        raise scan.error
    if metadata is not None:
        if m is not None and m != metadata.m:
            raise ValueError("m argument conflicts with the supplied metadata")
        if metadata.d != scan.d:
            raise DimensionMismatchError(
                f"metadata declares d={metadata.d} but the path has d={scan.d}"
            )
    bound, found, steps, peak = m if metadata is None else metadata.m, scan.found, scan.steps(), scan.peak
    if bound is None:  # ceil(sqrt(found)), found the largest squared step: at least 1
        bound = math.isqrt(found - 1) + 1 if found > 1 else 1
    elif bound < 1:
        raise ValueError("increment bound m must be >= 1")
    else:
        if scan.m is None:  # the pass ran without the bound: `found` is the largest squared step
            beyond, found = found > bound * bound, None
            for lo in range(0, steps.shape[1] if beyond else 0, STEP_CHUNK):
                if (j := _first_long_step(steps[:, lo : lo + STEP_CHUNK], bound, peak)) is not None:
                    found = lo + j
                    break
        if found is not None:
            raise ValueError(
                f"stored path violates declared increment bound m={bound} at step {found}"
            )
    meta = metadata or WalkMetadata(name, {"steps": scan.rows - 1}, None, m=bound, d=scan.d)
    return WalkStream(meta, lambda: _ArraySource(steps, peak, bound), origin=scan.origin)
