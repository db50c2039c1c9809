"""Online trackers (range, extrema, return times) and inequality checkers.

Everything here consumes a :class:`~rangewalk.core.WalkStream` in numpy
blocks of B positions.  A unit-step 1-D walk's range and extrema are read
off its running extent in O(B) per block, with nothing block-sized written;
every other walk's range is counted in a set, in O(B) per block while its
dense first-visit box lasts, then in O(B log R) plus one copy of its R
stored keys, and a block's maximal-range check is settled by one bound
where it can be.  Each step is tested against m at most once, where the
stream builds its block.  Every check runs in exact integer arithmetic
(squared norms for d >= 2); no float rounding can flip a verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import INT64_MAX, INT64_MIN, WalkStream, _distinct, _spans, at_origin, squared_distances

#: Set-mode range tracking refuses to store more points than this by default.
DEFAULT_SET_CAP = 1 << 30


class MemoryGuardError(RuntimeError):
    """Set-mode range tracking exceeded its configured point cap."""


class ClassRAssumptionError(ValueError):
    """The stream did not revisit zero often enough for an excursion check."""


# ---------------------------------------------------------------------------
# Checkpoint schedules
# ---------------------------------------------------------------------------


def dyadic_checkpoints(horizon: int) -> np.ndarray:
    """{1, 2, 4, ...} up to and always including the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    cps = []
    n = 1
    while n < horizon:
        cps.append(n)
        n *= 2
    cps.append(horizon)
    return np.asarray(cps, dtype=np.int64)


def arith_checkpoints(horizon: int, step: int) -> np.ndarray:
    """{step, 2*step, ...} up to and always including the horizon."""
    if horizon < 1 or step < 1:
        raise ValueError("horizon and step must be >= 1")
    cps = list(range(step, horizon + 1, step))
    if not cps or cps[-1] != horizon:
        cps.append(horizon)
    return np.asarray(cps, dtype=np.int64)


# ---------------------------------------------------------------------------
# Range tracking
# ---------------------------------------------------------------------------


#: Set mode's dense box may hold this many cells per point (stored points
#: plus the block's positions); past that it falls back to sorted keys.
BOX_CELLS_PER_POINT = 4

#: The box's stamps stay below this and below INT32_MAX, an unseen cell;
#: past it visited cells are reset to -1 and the stamps restart at 0.
_STAMP_LIMIT = 2**31 - 1


def _pack_keys(cols: list, origin: list, spans: Optional[list] = None) -> np.ndarray:
    """Pack coordinate columns into sortable scalar keys.

    d = 2 packs x - `origin` into one uint64 (fast path), which needs
    |x - origin| < 2^31 on each axis, read off `spans`, each column's (min,
    max), computed unless the caller has it; higher d falls back to a
    structured row view, which numpy sorts and searches lexicographically.
    """
    if len(cols) == 1:
        return cols[0]
    if len(cols) == 2:
        spans = spans or [(int(col.min()), int(col.max())) for col in cols]
        if any(l - c <= -(2**31) or h - c >= 2**31 for (l, h), c in zip(spans, origin)):  # exact ints
            raise ValueError("set mode packs d = 2 points within +-2^31 of their key origin")
        packed = [(col - c + 2**31).astype(np.uint64) for col, c in zip(cols, origin)]
        return (packed[0] << np.uint64(32)) | packed[1]
    rows = np.stack(cols, axis=1)
    return rows.view([("", rows.dtype)] * rows.shape[1]).ravel()


class RangeTracker:
    """Online count of distinct visited points r_n = card{x_0, ..., x_n}.

    Marks first visits in an int32 box over the walk's bounding box while it
    is dense (BOX_CELLS_PER_POINT): each cell keeps the stamp, a running
    position count, of its first visit, so a position is new where its cell
    holds its own stamp; then switches once to sorted keys.  A memory guard
    aborts beyond `cap` stored points.
    """

    def __init__(self, d: int = 1, cap: int = DEFAULT_SET_CAP):
        self.d = d
        self._cap = cap
        self._count = 0
        self._box: Optional[np.ndarray] = None  # while dense
        self._clock = 0  # the next position's stamp in the box
        self._spans: list = []  # the box's lowest and highest coordinate on each axis
        self._known: Optional[np.ndarray] = None  # sorted keys, after the fallback
        self._origin: Optional[list] = None  # the d = 2 keys' origin

    @property
    def count(self) -> int:
        """Current r_n."""
        return self._count

    def update(self, block: np.ndarray) -> np.ndarray:
        """Consume the next positions; return r at each of them (int64)."""
        return self._count + np.cumsum(self.mark(block), dtype=np.int64)  # the count before

    def mark(self, block: np.ndarray, spans: Optional[list] = None) -> np.ndarray:
        """Consume the next positions; return the mask of the first visits among them.

        `spans`, each column's (min, max) over the block, is computed unless
        the caller has it.
        """
        if block.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        cols = [block] if block.ndim == 1 else [block[:, j] for j in range(block.shape[1])]
        spans = _spans(block) if spans is None else spans
        if self._origin is None:  # 0, or x_0 on an axis where |x_0| >= 2^31
            self._origin = [c if abs(c) >= 2**31 else 0 for c in (int(col[0]) for col in cols)]
        if self._known is None and self._cover(cols, spans):
            return self._mark_box(cols)
        keys = _pack_keys(cols, self._origin, spans)
        if self._known is None:  # the one switch; row-major cells are in key order
            self._known = keys[:0] if self._box is None else self._box_keys()
            self._box = None
        return self._mark_keys(keys)

    def _cover(self, cols: list, need: list) -> bool:
        """Grow the box over the block, whose spans are `need`; False if it cannot stay dense.

        A side that grows gains at least half its axis (copies cost amortised
        O(1) a cell), unless that padding alone would break the bound.
        """
        old = self._spans or need
        if self._spans and all(a <= l and h <= b for (a, b), (l, h) in zip(old, need)):
            return True
        tight = [(min(a, l), max(b, h)) for (a, b), (l, h) in zip(old, need)]
        padded = [
            (max(min(l, a - (b - a + 1) // 2), INT64_MIN) if l < a else a,
             min(max(h, b + (b - a + 1) // 2), INT64_MAX) if h > b else b)
            for (a, b), (l, h) in zip(old, need)
        ]
        limit = BOX_CELLS_PER_POINT * (self._count + cols[0].shape[0])
        fits = [s for s in (padded, tight) if math.prod(b - a + 1 for a, b in s) <= limit]
        if not fits:
            return False
        # Unseen cells hold INT32_MAX, visited ones a stamp below it.
        box = np.full(tuple(b - a + 1 for a, b in fits[0]), 2**31 - 1, dtype=np.int32)
        if self._box is not None:
            box[tuple(slice(a - c, b - c + 1) for (a, b), (c, _) in zip(old, fits[0]))] = self._box
        self._box, self._spans = box, fits[0]
        return True

    def _box_keys(self) -> np.ndarray:
        """The sorted keys of the box's visited cells."""
        at = np.unravel_index(np.flatnonzero(self._box.ravel() < 2**31 - 1), self._box.shape)
        return _pack_keys([a + c for a, (c, _) in zip(at, self._spans)], self._origin)

    def _mark_box(self, cols: list) -> np.ndarray:
        flat = self._box.ravel()  # a view: the box is C-contiguous
        idx = cols[0] - self._spans[0][0]
        for col, (c, _), n in zip(cols[1:], self._spans[1:], self._box.shape[1:]):
            idx *= n  # int64 wraps, so the exact cell index comes out at the end
            idx += col
            idx -= c
        if self._clock + idx.shape[0] > _STAMP_LIMIT:  # visited cells drop below every stamp
            flat[flat < 2**31 - 1] = -1
            self._clock = 0
        stamp = np.arange(self._clock, self._clock + idx.shape[0], dtype=np.int32)
        self._clock += idx.shape[0]
        np.minimum.at(flat, idx, stamp)  # each cell keeps the stamp of its first visit
        return self._admit(np.take(flat, idx) == stamp)

    def _mark_keys(self, keys: np.ndarray) -> np.ndarray:
        order = np.argsort(keys, kind="stable")  # each key's first visit leads its run
        sk = keys[order]
        uniq = np.empty(len(keys), dtype=bool)
        uniq[0] = True
        uniq[1:] = sk[1:] != sk[:-1]
        fresh = sk[uniq]
        known = self._known
        at = np.searchsorted(known, fresh)  # O(B log R); np.insert is the one O(R) copy
        seen = at < known.size
        seen[seen] = known[at[seen]] == fresh[seen]
        new = np.zeros(len(keys), dtype=bool)
        new[order[uniq][~seen]] = True
        self._admit(new)
        self._known = np.insert(known, at[~seen], fresh[~seen])
        return new

    def _admit(self, new: np.ndarray) -> np.ndarray:
        """Count the block's first visits, from their mask; enforces the cap."""
        self._count += int(np.count_nonzero(new))
        if self._count > self._cap:
            raise MemoryGuardError(
                f"range tracker exceeded its cap of {self._cap} stored points"
            )
        return new


def _distances(block: np.ndarray, x0, spans: list, best: int) -> np.ndarray:
    """|x_n - x_0| at each position of a block, squared for d >= 2, from the
    block's per-column (min, max) `spans`; exact: Python ints (object dtype)
    once they, or `best`, the M before the block, outgrow int64."""
    if block.ndim == 1:
        # Exact ints decide whether |x - x0| fits int64; for x0 = 0 it
        # does not at x = -2^63.
        [(low, high)] = spans
        far = max(x0 - low, high - x0)
        disp = np.abs(block - x0 if far <= INT64_MAX else block.astype(object) - x0)
    else:
        disp = squared_distances(block, x0, max(max(h - c, c - l) for (l, h), c in zip(spans, x0)))
    return disp.astype(object) if best > INT64_MAX else disp


# ---------------------------------------------------------------------------
# Return times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnTimes:
    """Strictly increasing indices n with x_n = 0 (n = 0 included when x_0 = 0)."""

    times: tuple

    def __post_init__(self):
        times = tuple(int(t) for t in self.times)
        for a, b in zip(times, times[1:]):
            if b <= a:
                raise ValueError("return times must be strictly increasing")
        object.__setattr__(self, "times", times)


def _zeros_and_peaks(stream: WalkStream, horizon: int):
    """The n <= horizon with x_n = 0 of a 1-D stream (int64), and for each the
    largest |x| since the zero before it, or since x_0 (uint64, exact at -2^63):
    one segment maximum a block between its zero hits, the open one carried."""
    zeros, peaks = [], []
    done, carry = 0, np.uint64(0)
    for block, _ in stream._checked_blocks(horizon):
        hits = np.flatnonzero(block == 0)
        seg = np.maximum.reduceat(np.abs(block).view(np.uint64), np.concatenate(([0], hits)))
        seg[0] = max(seg[0], carry)  # a zero at offset 0 leaves seg[0] its own 0
        zeros.append(hits + done)
        peaks.append(seg[:-1])
        carry, done = seg[-1], done + block.shape[0]
    return np.concatenate(zeros), np.concatenate(peaks)


def return_times(stream: WalkStream, horizon: int) -> ReturnTimes:
    """All n <= horizon with x_n = 0, ascending.  d = 1 only."""
    if stream.d != 1:
        raise ValueError("return times are defined for d = 1 walks")
    return ReturnTimes(tuple(_zeros_and_peaks(stream, horizon)[0].tolist()))


def ratio_series(rt: ReturnTimes) -> np.ndarray:
    """Consecutive ratios tau_k / tau_{k-1} over the positive return times.

    Relative error is one ulp (plain float division of exact integers).
    """
    positive = [t for t in rt.times if t > 0]
    if len(positive) < 2:
        raise ValueError("need at least two positive return times for ratios")
    arr = np.asarray(positive, dtype=np.float64)
    return arr[1:] / arr[:-1]


# ---------------------------------------------------------------------------
# Scalar trackers over checkpoints
# ---------------------------------------------------------------------------


def _as_checkpoints(horizon: int, checkpoints) -> np.ndarray:
    if checkpoints is None:
        return dyadic_checkpoints(horizon)
    cps = _distinct(np.asarray([int(c) for c in checkpoints], dtype=np.int64))
    if cps.size == 0:
        raise ValueError("empty checkpoint schedule")
    if cps[0] < 0 or cps[-1] > horizon:
        raise ValueError("checkpoints must lie in [0, horizon]")
    return cps


def _running_at(values: np.ndarray, at: np.ndarray, ufunc, dtype=None):
    """`ufunc`'s running reduction of a block's `values` at its offsets `at`, and over it all.

    One reduction runs over each segment that ends at an offset or at the
    block's last position, and a running one over those few values; nothing
    block-sized is written.
    """
    starts = np.concatenate(([0], at[at < values.shape[0] - 1] + 1))
    run = ufunc.accumulate(ufunc.reduceat(values, starts, dtype=dtype))
    return run[: at.size], run[-1]


def _extent_at(block: np.ndarray, at: np.ndarray, lo: int, hi: int):
    """The running min and max of a 1-D stream at the offsets `at` of a block,
    from `lo` and `hi` before it, as Python ints; and the block's min and max."""
    lows, low = _running_at(block, at, np.minimum)
    highs, high = _running_at(block, at, np.maximum)
    return np.minimum(lows, lo).tolist(), np.maximum(highs, hi).tolist(), int(low), int(high)


def _scan(stream: WalkStream, horizon: int, cps, count_range: bool, extrema: bool):
    """The one pass over x_0..x_horizon that every report and checker reads.

    Samples x_n at the sorted checkpoints `cps`, and r_n and the raw
    |x_n - x_0| (squared for d >= 2) when `count_range` and `extrema` ask
    for them.  With `count_range` the first step longer than the declared m,
    which the stream finds as it builds each block, is the violation
    "increment_bound" at the n it reaches.  With both it also
    counts zero hits and finds the first n violating the maximal-range
    inequality and, when d = 1, m = 1 and x_0 = 0, the 1-D sandwich; it
    stops once every checkpoint is sampled and every check it runs has
    failed.

    A 1-D walk with unit steps visits exactly [min_n, max_n], so when d = 1
    and either m = 1 or r_n is not asked for, r_n = max_n - min_n + 1 and
    M_n = max(max_n - x_0, x_0 - min_n) are read off the running extent at
    the checkpoints only; both inline checks are identities there.  From the
    block of the first step longer than m on, a set tracker seeded with
    [min, max] counts r_n, so it stays the true count.  Every other walk is
    counted by a set tracker throughout; r_n and M_n at the checkpoints are
    segment reductions of its first-visit mask and of |x_n - x_0|.  While
    the maximal-range inequality holds, it holds through a block whose last
    M_n is at most m r, r the count before it (squared for d >= 2): M_n
    grows only at a first visit, after which r_n - 1 >= r.  That holds for
    any run of positions, so a block the bound does not settle is cut at
    offsets 0, 1, 2, 4, ..., and the same bound, with r before each segment
    and M at its end, settles segments.  Only the other segments, and every
    segment under the sandwich, get r_n and M_n at every position, in order
    up to each check's first violation.  A block that excludes 0 on some
    axis has no zero hit.

    Returns (samples, x_0, first): exact ints per checkpoint under "x",
    "r", "disp", "tau_count" and "last_tau", x_0 as an int (d = 1) or a
    list, and the first violating n of each failed check by name.
    """
    d, m = stream.d, stream.m
    power = 1 if d == 1 else 2  # the maximal-range bound is squared for d >= 2
    cps = np.asarray(cps, dtype=np.int64)
    extent = d == 1 and (m == 1 or not count_range)
    tracker = RangeTracker(d) if count_range and not extent else None
    both = count_range and extrema
    samples = {key: [] for key in ("x", "r", "disp", "tau_count", "last_tau")}
    first: dict = {}
    checks: tuple = ()
    zeros, last_zero = 0, None
    ptr = done = best = 0  # best: M_n before the block, off the extent path
    for block, jump in stream._checked_blocks(horizon):  # views: none is kept past its iteration
        if done == 0:
            x0 = lo = hi = block[0].tolist()
            if both:
                sandwich = d == 1 and m == 1 and x0 == 0
                checks = ("increment_bound", "maximal_range")
                checks += ("range_sandwich_1d",) if sandwich else ()
        end = int(np.searchsorted(cps, done + block.shape[0]))
        at = cps[ptr:end] - done
        samples["x"] += block[at].tolist()
        if count_range and jump is not None and "increment_bound" not in first:
            first["increment_bound"] = done + jump
            if extent:  # so far the visited set is [lo, hi]
                extent = False
                tracker = RangeTracker()
                tracker.mark(np.arange(lo, hi + 1, dtype=np.int64))
                best = max(hi - x0, x0 - lo)
        if extent:
            lows, highs, low, high = _extent_at(block, at, lo, hi)
            lo, hi, spans = min(lo, low), max(hi, high), [(low, high)]
            if count_range:
                samples["r"] += [h - l + 1 for l, h in zip(lows, highs)]
            if extrema:
                samples["disp"] += [max(h - x0, x0 - l) for l, h in zip(lows, highs)]
        else:
            spans = _spans(block)
            if count_range:
                before = tracker.count
                new = tracker.mark(block, spans)
                samples["r"] += (before + _running_at(new, at, np.add, np.int64)[0]).tolist()
            if extrema:
                disp = _distances(block, x0, spans, best)
                run, top = _running_at(disp, at, np.maximum)
                samples["disp"] += np.maximum(run, best).tolist()
                was, best = best, max(best, int(top))
            pending = [name for name in checks[1:] if name not in first]  # checks[0] ran above
            if "maximal_range" in pending and best <= (m * before) ** power:
                pending.remove("maximal_range")  # settled for the whole block, see above
            if pending:  # segments from offsets 0, 1, 2, 4, ...: r before each, M at its end
                ends = np.minimum(1 << np.arange((block.shape[0] - 1).bit_length() + 1), block.shape[0])
                counts = [before] + (before + _running_at(new, ends - 1, np.add, np.int64)[0]).tolist()
                tops = [was] + np.maximum(_running_at(disp, ends - 1, np.maximum)[0], was).tolist()
                for k, (s, e) in enumerate(zip([0] + ends[:-1].tolist(), ends.tolist())):
                    if pending == ["maximal_range"] and tops[k + 1] <= (m * counts[k]) ** power:
                        continue  # the same bound settles the segment
                    r = counts[k] + np.cumsum(new[s:e], dtype=np.int64)
                    far = np.maximum(np.maximum.accumulate(disp[s:e]), tops[k])
                    for name in tuple(pending):
                        if name == "maximal_range":
                            bad = _maximal_range_violated(far, r, m, d)
                        else:
                            bad = (r < far + 1) | (r > 2 * far + 1)
                        if bad.any():
                            first[name] = done + s + int(np.argmax(bad))
                            pending.remove(name)
                    if not pending:
                        break
        if both and ptr < cps.size:  # zero hits matter only up to a checkpoint
            hits = np.flatnonzero(at_origin(block)) if all(l <= 0 <= h for l, h in spans) else at[:0]
            upto = np.searchsorted(hits, at, side="right")
            samples["tau_count"] += (zeros + upto).tolist()
            samples["last_tau"] += [
                done + int(hits[u - 1]) if u else last_zero for u in upto.tolist()
            ]
            zeros += hits.size
            if hits.size:
                last_zero = done + int(hits[-1])
        ptr, done = end, done + block.shape[0]
        if ptr == cps.size and all(name in first for name in checks):
            break
    return samples, x0, first


def _exact_array(values: list) -> np.ndarray:
    """int64 when every value fits, else Python ints (object dtype)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def track_range(stream: WalkStream, horizon: int, checkpoints=None):
    """Exact r_n at each checkpoint; returns (checkpoints, counts).

    A 1-D walk with m = 1 is read off its running extent (see `_scan`).
    """
    cps = _as_checkpoints(horizon, checkpoints)
    samples, _, _ = _scan(stream, horizon, cps, True, False)
    return cps, _exact_array(samples["r"])


def track_extrema(stream: WalkStream, horizon: int, checkpoints=None):
    """Running max displacement M_n at each checkpoint; returns (checkpoints, M).

    M is exact for d = 1 (int64, or Python ints when one does not fit) and
    a float norm for d >= 2.
    """
    cps = _as_checkpoints(horizon, checkpoints)
    samples, _, _ = _scan(stream, horizon, cps, False, True)
    raw = _exact_array(samples["disp"])
    return cps, raw if stream.d == 1 else np.sqrt(raw.astype(np.float64))


# ---------------------------------------------------------------------------
# Inequality checkers (exact integer comparisons)
# ---------------------------------------------------------------------------


def _maximal_range_violated(disp: np.ndarray, r: np.ndarray, m: int, d: int) -> np.ndarray:
    """Where M_n / m + 1 <= r_n fails; `disp` is |x_n - x_0|, squared for d >= 2.

    The bound m (r_n - 1), squared likewise, is exact: int64 while it fits.
    """
    bound = r - 1
    if (m * int(r[-1])) ** (1 if d == 1 else 2) > INT64_MAX:
        bound = bound.astype(object)
    bound = m * bound
    return disp > (bound if d == 1 else bound * bound)


def check_maximal_range(stream: WalkStream, m: int, horizon: int) -> Optional[int]:
    """Verify M_n / m + 1 <= r_n for every n <= horizon (any d).

    Returns the first violating n, or None (the expected result: the bound
    is a theorem for every m-bounded path).
    """
    if m != stream.m:
        raise ValueError(f"declared m={m} does not match the stream's m={stream.m}")
    _, _, first = _scan(stream, horizon, (), True, True)
    return first.get("maximal_range")


def check_range_sandwich_1d(stream: WalkStream, horizon: int) -> Optional[int]:
    """Verify M_n + 1 <= r_n <= 2 M_n + 1 for every n <= horizon.

    Requires d = 1, m = 1, x_0 = 0; returns the first violating n or None.
    """
    if stream.d != 1 or stream.m != 1:
        raise ValueError("sandwich check requires d = 1 and m = 1")
    _, x0, first = _scan(stream, horizon, (), True, True)
    if x0 != 0:
        raise ValueError("sandwich check requires x_0 = 0")
    return first.get("range_sandwich_1d")


@dataclass(frozen=True)
class ExcursionCheck:
    """Outcome of the per-excursion bound check.

    Covers every complete excursion [tau_{k-1}, tau_k) inside the horizon;
    the tail from `last_zero` to `horizon` is not checked.
    """

    first_violation: Optional[int]
    n_excursions: int
    peaks: tuple        # max |x| per excursion
    gaps: tuple         # tau_k - tau_{k-1} per excursion
    tight: int          # excursions attaining |x| = gap / 2 exactly
    last_zero: int
    horizon: int

    @property
    def holds(self) -> bool:
        return self.first_violation is None


def check_excursion_bound(stream: WalkStream, horizon: int) -> ExcursionCheck:
    """Check |x_n| <= (tau_k - tau_{k-1}) / 2 within each complete excursion.

    Exact in integers for any int64 path.  The chained form
    2 |x_n| tau_{k-1} <= n (tau_k - tau_{k-1}) follows, since n >= tau_{k-1}.
    Requires d = 1, x_0 = 0, and at least two zero visits within the horizon
    (else :class:`ClassRAssumptionError`).
    """
    if stream.d != 1:
        raise ValueError("excursion check requires d = 1")
    zeros, peaks = _zeros_and_peaks(stream, horizon)
    if not zeros.size or zeros[0]:
        raise ValueError("excursion check requires x_0 = 0")
    if zeros.size < 2:
        raise ClassRAssumptionError(
            f"only {zeros.size} zero visit(s) within horizon {horizon}: "
            "class-R assumption not covered"
        )
    gaps, peaks = np.diff(zeros), peaks[1:]
    half = (gaps // 2).astype(np.uint64)
    first = None
    bad = np.flatnonzero(peaks > half)  # 2|x| > gap somewhere, in integers
    if bad.size:  # read again up to the end of the first failing excursion
        k, done = bad[0], 0
        for block, _ in stream._checked_blocks(int(zeros[k + 1])):
            lo = max(int(zeros[k]) - done, 0)
            over = np.flatnonzero(np.abs(block[lo:]).view(np.uint64) > half[k])
            if over.size:
                first = done + lo + int(over[0])
                break
            done += block.shape[0]
    return ExcursionCheck(
        first_violation=first,
        n_excursions=int(gaps.size),
        peaks=tuple(peaks.tolist()),
        gaps=tuple(gaps.tolist()),
        tight=int(np.count_nonzero((peaks == half) & (gaps % 2 == 0))),
        last_zero=int(zeros[-1]),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# Tail estimates and the speed report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    """Window min/max of a checkpointed series over [N/2, N].

    An estimate of liminf/limsup, never asserted to equal a true limit;
    the window is reported alongside.  Fewer than 4 checkpoints make one
    window of them all, (first n, N).
    """

    liminf_hat: float
    limsup_hat: float
    window: tuple


def tail_limit_estimate(ns: Sequence[int], values: Sequence[float]) -> TailEstimate:
    """Estimate liminf/limsup of a series sampled at checkpoints `ns`."""
    ns = np.asarray(ns, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if ns.size != values.size:
        raise ValueError("ns and values must have equal length")
    big_n = int(ns[-1])
    if ns.size < 4:
        window_vals, window = values, (int(ns[0]), big_n)
    else:
        window_vals, window = values[2 * ns >= big_n], (big_n / 2, big_n)
    return TailEstimate(
        liminf_hat=float(window_vals.min()),
        limsup_hat=float(window_vals.max()),
        window=window,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Full single-pass analysis: per-checkpoint rows plus summary.

    Rows are dicts in the JSONL field order
    (n, x_over_n, M_over_n, r_over_n, tau_count, last_tau, violations).
    """

    rows: list
    horizon: int
    tails: dict
    theory: Optional[dict]
    provenance: dict

    def jsonl_lines(self) -> Iterator[str]:
        for row in self.rows:
            yield json.dumps(row)
        tails = {
            name: {
                "liminf_hat": est.liminf_hat,
                "limsup_hat": est.limsup_hat,
                "window": list(est.window),
            }
            for name, est in self.tails.items()
        }
        yield json.dumps(
            {"summary": {"horizon": self.horizon, "tail": tails, "theory": self.theory}}
        )
        yield json.dumps({"provenance": self.provenance})


def analyze_stream(stream: WalkStream, horizon: int, checkpoints=None) -> AnalysisReport:
    """One pass producing the checkpoint report, inline checks, and tails.

    Every step is tested against the stream's declared m, and the
    maximal-range inequality is checked at every position; the 1-D
    sandwich additionally when d = 1, m = 1, and x_0 = 0.  Each violation
    is attached to the first checkpoint row with n at or after the offending
    index, or to the last row when it lies past the last checkpoint.
    """
    cps = _as_checkpoints(horizon, checkpoints)
    d, m = stream.d, stream.m
    samples, _, first = _scan(stream, horizon, cps, True, True)
    violations: list = [[] for _ in range(cps.size)]
    for at, name in sorted((n, name) for name, n in first.items()):
        row = min(int(np.searchsorted(cps, at)), cps.size - 1)
        violations[row].append({"check": name, "n": at})
    rows = []
    for i, n in enumerate(cps.tolist()):
        x, disp, r = samples["x"][i], samples["disp"][i], samples["r"][i]
        if d == 1:
            x_over = float(x) / n if n else float(x)
            m_over = float(disp) / n if n else 0.0
        else:
            x_over = math.sqrt(sum(c * c for c in x)) / n if n else 0.0
            m_over = math.sqrt(float(disp)) / n if n else 0.0
        rows.append(
            {
                "n": n,
                "x_over_n": x_over,
                "M_over_n": m_over,
                "r_over_n": float(r) / n if n else float(r),
                "tau_count": samples["tau_count"][i],
                "last_tau": samples["last_tau"][i],
                "violations": violations[i],
            }
        )
    tails = {
        name: tail_limit_estimate(cps, [row[name] for row in rows])
        for name in ("x_over_n", "M_over_n", "r_over_n")
    }
    theory = None
    drift = stream.metadata.theoretical_drift
    if drift is not None and rows:
        final = rows[-1]
        target_x = drift if d == 1 else abs(drift)
        theory = {
            "drift": drift,
            "delta_x_over_n": abs(final["x_over_n"] - target_x),
            "delta_M_over_n": abs(final["M_over_n"] - abs(drift)),
            "delta_r_over_n": abs(final["r_over_n"] - abs(drift)) if m == 1 else None,
        }
    provenance = {
        "generator": stream.metadata.generator_name,
        "params": stream.metadata.params,
        "seed": stream.metadata.seed,
        "m": m,
        "d": d,
    }
    return AnalysisReport(
        rows=rows,
        horizon=horizon,
        tails=tails,
        theory=theory,
        provenance=provenance,
    )
