"""Walk generators: seeded stochastic walks and deterministic counterexample builds.

Stochastic generators draw from numpy's PCG64 and consume exactly one uniform
per step (plus one for a chain's initial state), so replaying a stream with the
same seed is bit-exact no matter how it is blocked.  Deterministic generators
(zigzag tents, scheduled tents, the square spiral, cyclic drift patterns) use
exact integer/rational arithmetic throughout.

Per-trial seeds and the bulk PCG64 seeding and draws of a batch of trials
live in `pcg64`.

Every stochastic law maps a uniform u to the number of its cuts that u
reaches (u >= cut), and that count picks the label.  The cuts are the
cumulative weights without the last, ``cumsum(w)[:-1]``, so the count is the
clipped ``searchsorted(cumsum(w), u, side="right")``.  A Markov increment
chain has one row of cuts per state; merged, they cut [0, 1) into intervals
on each of which every state moves the same way, so each uniform picks one
of a few maps of the states, and `_gather_states` follows the maps in
numpy, for every row of a batch in one call: identity maps keep the state,
constant maps fix it, and a two-level scan composes whatever is left, with
a Python loop over one map per block of positions only.  The states equal
the plain loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import DEFAULT_BLOCK, WalkMetadata, WalkStream, _distinct
from .pcg64 import _lockstep_random, _per_row_random

#: Largest warm-up exponent for which Eq.-style rational checks stay exact.
_EXACT_EXP_CAP = 1 << 16


class DegeneratePlanError(ValueError):
    """A return-time schedule failed to be strictly increasing / well formed."""


class ReducibleChainError(ValueError):
    """The transition matrix has no unique stationary distribution."""


# ---------------------------------------------------------------------------
# Markov increment chains
# ---------------------------------------------------------------------------


def _is_irreducible(transition: np.ndarray) -> bool:
    """Strong connectivity of the positive-probability transition graph."""
    n = transition.shape[0]
    reach = np.eye(n, dtype=bool) | (transition > 0)
    for _ in range(n):
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    return bool(reach.all())


def stationary_distribution(transition) -> np.ndarray:
    """Unique pi with pi P = pi and sum(pi) = 1, residual <= 1e-10.

    Validates `transition` as a stochastic matrix of at most 16 states first.
    Solved directly, with one balance equation replaced by the
    normalization.  Raises :class:`ReducibleChainError` when the chain is
    reducible, and ValueError when the solve fails or misses the gate.
    """
    p = np.asarray(transition, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
        raise ValueError("transition matrix must be square and non-empty")
    if p.shape[0] > 16:
        raise ValueError("transition matrix limited to 16 states")
    if not ((p >= 0) & (p <= 1)).all():  # also refuses NaN, which no compare admits
        raise ValueError("transition entries must lie in [0, 1]")
    if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("transition rows must sum to 1 within 1e-12")
    if not _is_irreducible(p):
        raise ReducibleChainError("chain is reducible")
    n = p.shape[0]
    a = p.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.clip(np.linalg.solve(a, rhs), 0.0, None)
    except np.linalg.LinAlgError:
        pi = np.zeros(n)
    if pi.sum() > 0:
        pi = pi / pi.sum()
        if np.max(np.abs(pi @ p - pi)) <= 1e-10 and abs(pi.sum() - 1.0) <= 1e-12:
            return pi
    raise ValueError(
        "stationary distribution: the direct solve misses the gate "
        "max|pi P - pi| <= 1e-10, |sum(pi) - 1| <= 1e-12 (ill-conditioned chain)"
    )


@dataclass(frozen=True, eq=False)
class MarkovIncrementChain:
    """Finite-state chain whose states are walk increments in {-1, 0, +1}.

    Construction validates the transition matrix, checks that the chain is
    irreducible and solves for its stationary law `stationary`, all in one
    `stationary_distribution` call.  Started from that law the sampled
    increments form a stationary ergodic sequence with mean `drift`,
    ``sum(pi[s] * state[s])``.
    """

    states: tuple
    transition: np.ndarray
    stationary: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        if not states:
            raise ValueError("chain needs at least one state")
        if any(s not in (-1, 0, 1) for s in states):
            raise ValueError("chain states must be increments in {-1, 0, +1}")
        p = np.asarray(self.transition, dtype=np.float64)
        pi = stationary_distribution(p)
        if pi.size != len(states):
            raise ValueError("transition size does not match the state list")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "stationary", pi)

    @property
    def drift(self) -> float:
        """Stationary mean increment."""
        return float(self.stationary @ np.asarray(self.states, dtype=np.float64))

    @classmethod
    def iid(cls, p_up: float) -> "MarkovIncrementChain":
        """I.i.d. increments: every row (p_up, 1 - p_up), states (+1, -1)."""
        row = [p_up, 1.0 - p_up]
        return cls(states=(1, -1), transition=np.array([row, row]))

    @classmethod
    def two_state(cls, up_to_down: float, down_to_up: float) -> "MarkovIncrementChain":
        """States (+1, -1) with the given switch probabilities."""
        a, b = float(up_to_down), float(down_to_up)
        t = np.array([[1.0 - a, a], [b, 1.0 - b]])
        return cls(states=(1, -1), transition=t)


#: Positions per block of the sampler's two-level scan.
_SCAN_BLOCK = 16

#: Low bits of a fill key that hold the state, so a chain has at most 2^16 states.
_STATE_BITS = 16
_STATE_MASK = (1 << _STATE_BITS) - 1
#: The key of a position that keeps the state before it: below every start.
_NO_KEY = -(1 << 62)


class _Scratch:
    """Work arrays that a stream read, or a run of long trials, reuses on every block.

    A fresh block-sized array page-faults anew on every block, so a drawn
    source keeps these at a fixed number of cells and each block works in
    views of them: the uniforms, the int64 interval ids and the bytes of
    one compare.  The fill keys of `_gather_states` reuse the uniforms'
    memory once the ids are counted, an iid law with more than one cut adds
    up its lower cuts in the ids' memory (`spare`), and a law writes its
    int8 increments over the bytes, so the uniforms' and the ids' memory is
    free again once it returns.  `ramp` holds the keys' positions.
    """

    def __init__(self, cells: int):
        self.cells = cells
        self._u = np.empty(cells)
        self._ids = np.empty(cells, dtype=np.int64)
        self._reached = np.empty(cells, dtype=bool)
        self._ramp = self._ids[:0]

    def views(self, shape) -> tuple:
        """(u, ids, keys, reached) of `shape`, where keys alias u as int64."""
        n = math.prod(shape)
        u, ids, reached = (a[:n].reshape(shape) for a in (self._u, self._ids, self._reached))
        return u, ids, u.view(np.int64), reached

    def spare(self, shape) -> tuple:
        """Two int8 arrays of `shape` in the ids' memory, free while the ids are."""
        n = math.prod(shape)
        return tuple(self._ids.view(np.int8)[: 2 * n].reshape((2, *shape)))

    def ramp(self, rows: int, n: int) -> np.ndarray:
        """``(k + 1) << _STATE_BITS`` for k < n; built once for every row
        length that `rows` rows of these cells can have."""
        if self._ramp.size < n:
            self._ramp = np.arange(1, self.cells // rows + 1, dtype=np.int64) << _STATE_BITS
        return self._ramp[:n]


def _gather_states(ids: np.ndarray, table: np.ndarray, s0, scratch: Optional[_Scratch] = None):
    """The states s_k = table[ids[r, k], s_{k-1}] of R rows, row r from s_{-1} = s0[r].

    `ids` is (R, n) int64 and `table` (intervals, S): row i of the table is
    the map that a uniform of interval i applies to the state.  Returns the
    (R, n) int64 states, in the keys of `scratch` if one is given, equal to
    the plain loop's integer for integer.

    A position whose map is the identity keeps the state before it; every
    other position is kept.  A constant map fixes the state whatever came
    before (coalescence, as in Propp & Wilson 1996).  A kept state becomes
    the key ``((k + 1) << _STATE_BITS) | state``, any other position a key
    below every start, and one running max along each row, from the row's
    start, fills every position with the key of the last kept state before
    it, which the mask reads back.  When every map of the table is the
    identity or constant, as for a two-state chain whose two switch
    probabilities sum to at most 1, the kept states are read off the
    table.  Otherwise the kept maps are composed in blocks of `_SCAN_BLOCK`,
    prefix by prefix for all blocks at once, each prefix one gather from the
    flat table; each row's first kept map is first replaced by the constant
    map to its value at the row's start.  A Python loop carries the state
    across the block maps only, and one gather reads every kept state from
    its block's prefixes.
    """
    rows, n = ids.shape
    n_maps, n_states = table.shape
    start = np.asarray(s0, dtype=np.int64)
    scratch = _Scratch(ids.size) if scratch is None else scratch
    keys = scratch.views(ids.shape)[2]
    identity = (table == np.arange(n_states)).all(axis=1)
    if ((table == table[:, :1]).all(axis=1) | identity).all():
        np.take(np.where(identity, _NO_KEY, table[:, 0]), ids, out=keys, mode="clip")
        keys += scratch.ramp(rows, n)
    else:
        pos = np.flatnonzero(np.take(~identity, ids))
        m = pos.size
        w = _SCAN_BLOCK
        nb = -(-m // w)
        # Map n_maps is the identity, which pads the last block, and map
        # n_maps + 1 + c the constant map to c.
        states = np.arange(n_states)
        flat = np.vstack((table, states, np.repeat(states[:, None], n_states, axis=1))).ravel()
        at = np.full(nb * w, n_maps)
        at[:m] = np.take(ids, pos)
        first = np.searchsorted(pos, np.arange(rows) * n)  # each row's first kept map
        has = np.diff(first, append=m) > 0
        at[first[has]] = n_maps + 1 + table[at[first[has]], start[has]]
        at = at.reshape(nb, w).T * n_states
        prefix = np.empty((w, n_states, nb), dtype=np.int64)  # [i, s, b]: s after maps 0..i of block b
        np.take(flat, at[0] + states[:, None], out=prefix[0], mode="clip")
        for i in range(1, w):
            np.take(flat, at[i] + prefix[i - 1], out=prefix[i], mode="clip")
        block_map = prefix[-1].tolist()
        s = 0  # block 0 starts with a row's first kept map, which is constant
        entry = [0] + [s := block_map[s][b] for b in range(nb - 1)]
        x = np.take(prefix.reshape(w, -1), np.asarray(entry) * nb + np.arange(nb), axis=1)
        keys.fill(_NO_KEY)
        keys.reshape(-1)[pos] = (pos + 1) << _STATE_BITS | x.T.ravel()[:m]
    np.maximum(keys[:, 0], start, out=keys[:, 0])
    np.maximum.accumulate(keys, axis=1, out=keys)
    keys &= _STATE_MASK
    return keys


# ---------------------------------------------------------------------------
# Increment sources
# ---------------------------------------------------------------------------


def _prefix_sum(steps: np.ndarray) -> np.ndarray:
    """Each row's running sum of a (rows, k) array, in place, in its memory order.

    A row-major array (per-row draws, a stream's read) runs one cumsum along
    its rows.  In a step-major one (lockstep draws) a step of every row is
    one contiguous column, so k - 1 adds, each of a column into the next,
    sum every row at once; one cumsum would loop over the rows.
    """
    if steps.flags.c_contiguous:
        return np.cumsum(steps, axis=1, out=steps)
    for prev, cur in zip(steps.T, steps.T[1:]):
        np.add(prev, cur, out=cur)
    return steps


class _UniformLaw:
    """One stochastic generator's map from uniforms to increments.

    The map works on a (rows, k) array of uniforms, one row per walk, and
    an int64 carry per row.  A row draws `head` uniforms before its first
    step (a chain's initial state), which `start` turns into the first
    carry; `steps` maps the next k uniforms of every row to increments and
    returns the new carry.  A streamed walk is the one-row case of a batch
    of trials, so both run this one map.  A law holds no state of its own,
    because every read of a stream and every batch share one; a read passes
    its `_Scratch` to `steps`, which then works in its views and returns
    int8 increments in its bytes.  Without one, as for a batch, which sums
    its increments in place, they are int64 (over the uniforms for an iid
    law).  `peak` is the largest |increment| the law can map a uniform to.
    """

    head = 0
    peak = 1

    def start(self, u: np.ndarray) -> np.ndarray:
        return np.zeros(u.shape[0], dtype=np.int64)

    def steps(self, u: np.ndarray, carry: np.ndarray, scratch: Optional[_Scratch] = None):
        raise NotImplementedError


class _IidLaw(_UniformLaw):
    """I.i.d. increments: u maps to labels[j], j the number of `cuts` u reaches.

    The cuts are nondecreasing and u reaches a cut when u >= cut.  srw(p) and
    birth-death symmetric have cuts (p,) and labels (1, -1); lazy(alpha) has
    cuts (alpha, alpha + (1 - alpha)/2) and labels (0, 1, -1).  The lower
    cuts' rise · (u >= cut) terms add up, in place, in two spare int8
    arrays: a read's lie in its scratch's ids, a batch's are fresh, and they
    come before the last cut, whose compare overwrites a batch's uniforms.
    """

    def __init__(self, cuts: Sequence[float], labels: Sequence[int]):
        self._cuts = tuple(cuts)
        self._first = labels[0]
        self.peak = max(map(abs, labels))
        self._rises = np.diff(np.array(labels, dtype=np.int8))  # int8: rise * mask is 1 B a cell

    def steps(self, u, carry, scratch=None):
        *lower, last = self._cuts
        base = self._first
        if lower:
            fresh = (np.empty_like(u, dtype=np.int8) for _ in range(2))
            base, mask = fresh if scratch is None else scratch.spare(u.shape)
            base.fill(self._first)
            for cut, rise in zip(lower, self._rises):
                np.greater_equal(u, cut, out=mask)
                mask *= rise
                base += mask
        # The last cut's increments reuse the block's memory, a read's bytes or a
        # batch's uniforms, as int64 once its compare has read them: a fresh
        # array this size page-faults anew.
        if scratch is None:
            inc = np.multiply(u >= last, self._rises[-1], out=u.view(np.int64))
        else:
            inc = np.greater_equal(u, last, out=scratch.views(u.shape)[3]).view(np.int8)
            inc *= self._rises[-1]
        inc += base
        return inc, carry


class _ReflectedLaw(_UniformLaw):
    """Reflected-at-zero chain: from 0 step +1 surely, from x>0 step +-1 equally.

    Realized as |S_n| for a simple symmetric walk S_n, which is a Markov chain
    with exactly these transition probabilities; the carry is S_n.
    """

    _signs = _IidLaw((0.5,), (1, -1))

    def steps(self, u, carry, scratch=None):
        s = _prefix_sum(self._signs.steps(u, carry)[0])
        s += carry[:, None]
        last = s[:, -1].copy()
        np.abs(s, out=s)
        out = np.empty_like(s) if scratch is None else scratch.views(s.shape)[3].view(np.int8)
        out[:, 0] = s[:, 0] - np.abs(carry)
        np.subtract(s[:, 1:], s[:, :-1], out=out[:, 1:])
        return out, last


class _ChainLaw(_UniformLaw):
    """A Markov increment chain; the carry is the current state.

    Uniform u moves state s to the number of cuts of ``cumsum(P[s])[:-1]``
    it reaches, as `_IidLaw` counts them; the start state counts the cuts of
    the stationary distribution's cumulative sum the same way.  Every
    row's cuts, merged and sorted without repeats, are the chain's breaks.
    Between two breaks every state moves the same way, so the number of
    breaks a uniform reaches, its interval id, picks one row of the map
    table built here.  `steps` counts the breaks of every position of every
    row with one compare-add a break and follows all rows in one
    `_gather_states` call, each from its own carry.
    """

    head = 1

    def __init__(self, chain: MarkovIncrementChain):
        self._labels = np.asarray(chain.states, dtype=np.int64)
        self.peak = max(map(abs, chain.states))
        cuts = np.cumsum(chain.transition, axis=1)[:, :-1]
        # A one-state chain has no cuts; a break that no uniform reaches stands in.
        self._breaks = _distinct(cuts) if cuts.size else np.array([np.inf])
        # Interval i is breaks[i - 1] <= u < breaks[i]: there state s reaches
        # exactly its cuts at or below breaks[i - 1].
        edges = np.concatenate(([-np.inf], self._breaks))
        self._table = np.count_nonzero(cuts <= edges[:, None, None], axis=2)
        self._start_cuts = np.cumsum(chain.stationary)[:-1]

    def start(self, u):
        return np.count_nonzero(u[:, :1] >= self._start_cuts, axis=1)

    def steps(self, u, carry, scratch=None):
        work = _Scratch(u.size) if scratch is None else scratch
        _, ids, _, reached = work.views(u.shape)
        first, *rest = self._breaks
        np.greater_equal(u, first, out=ids)
        for cut in rest:
            ids += np.greater_equal(u, cut, out=reached)
        seq = _gather_states(ids, self._table, carry, work)
        out = ids if scratch is None else reached.view(np.int8)  # the ids and the bytes are spent
        # The table takes the out's dtype: np.take casts through a temporary of the out's size.
        inc = np.take(self._labels.astype(out.dtype), seq, out=out, mode="clip")
        return inc, seq[:, -1].copy()


#: Rows per uniform drawn from which `_draw_batch` steps its rows in lockstep.
LOCKSTEP_ROWS_PER_DRAW = 16


def _draw_batch(law: _UniformLaw, states: np.ndarray, k: int) -> np.ndarray:
    """The first k increments of seeded walks that share one law, a row a walk.

    Row j is that of ``make_walk(config, seed=seeds[j])`` bit for bit, from
    ``states = pcg64_states(seeds)``.  Both draw paths give numpy's own
    ``Generator.random`` uniforms.  A draw of w uniforms a row from at least
    ``LOCKSTEP_ROWS_PER_DRAW * w`` rows steps every row's PCG64 at once in
    numpy: its cost is some 30 in-place numpy calls per draw, shared by the
    rows, and its uniforms, and so an iid law's increments, are step-major
    (a column of the (rows, k) array is contiguous; `_prefix_sum` sums
    either order).  Any other draw assigns each row's state to one PCG64 in
    turn, a fixed cost per row, and draws the row with ``Generator.random``,
    row-major.  In a chunk of 2^16 cells, lockstep runs for rows of at most
    63 draws.
    """
    width = law.head + k
    if len(states) >= LOCKSTEP_ROWS_PER_DRAW * width:
        u = _lockstep_random(states, width)
    else:
        u = _per_row_random(np.random.Generator(np.random.PCG64(0)), states, width)
    return law.steps(u[:, law.head :], law.start(u[:, : law.head]))[0]


class _DrawnSource:
    """The increment source of one seeded walk: one row of a batch.

    It maps its draws through the same law as `_draw_batch`, from numpy's
    own ``Generator(PCG64(seed))``, which it keeps: for a single seed that
    is cheaper than `pcg64_states`, and it is the batch's oracle.  Each take
    draws into, and works in, `scratch` (which the sources of a run of Monte
    Carlo trials share) if it holds the take, else an own `_Scratch` of at
    least `DEFAULT_BLOCK` cells, so the next take overwrites the int8
    increments it returns.
    """

    def __init__(self, law: _UniformLaw, seed: int, scratch: Optional[_Scratch] = None):
        self._law = law
        self.peak = self.bound = law.peak  # d = 1: a step's norm is its |value|
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._carry: Optional[np.ndarray] = None
        self._scratch = _Scratch(0) if scratch is None else scratch

    def take(self, k: int) -> np.ndarray:
        if self._carry is None:
            self._carry = self._law.start(self._rng.random((1, self._law.head)))
        if self._scratch.cells < k:
            self._scratch = _Scratch(max(k, DEFAULT_BLOCK))
        u = self._rng.random(out=self._scratch.views((1, k))[0])
        inc, self._carry = self._law.steps(u, self._carry, self._scratch)
        return inc[0]


class _Seeded:
    """Source factory of a seeded stochastic stream; `uniform_law` reads its law."""

    def __init__(self, law: _UniformLaw, seed: int):
        self.law = law
        self.seed = seed

    def __call__(self) -> _DrawnSource:
        return _DrawnSource(self.law, self.seed)


class _TentSource:
    """Rise/flat/fall increments between scheduled zero times.

    `zero_time(j)` must return the j-th zero in a strictly increasing
    sequence with zero_time(0) == 0.  A gap g contributes g//2 rising steps,
    one flat step iff g is odd, and g//2 falling steps, so the walk is back
    at 0 exactly at each scheduled time.
    """

    peak = bound = 1

    def __init__(self, zero_time):
        self._zero_time = zero_time
        self._pos = 0
        self._j = 0
        self._a = int(zero_time(0))
        if self._a != 0:
            raise DegeneratePlanError("schedule must start at time 0")
        self._b = int(zero_time(1))

    def take(self, k: int) -> np.ndarray:
        out = np.empty(k, dtype=np.int64)
        filled = 0
        while filled < k:
            if self._pos >= self._b:  # the next excursion
                self._j += 1
                self._a, self._b = self._b, int(self._zero_time(self._j + 1))
                if self._b <= self._a:
                    raise DegeneratePlanError(
                        f"return-time schedule not strictly increasing at index {self._j + 1}"
                    )
            g = self._b - self._a
            half = g // 2
            local = self._pos - self._a
            n = min(k - filled, g - local)
            span = slice(filled, filled + n)
            j = np.arange(local, local + n)
            out[span] = np.where(j < half, 1, np.where(j < g - half, 0, -1))
            self._pos += n
            filled += n
        return out


class _SpiralSource:
    _DIRS = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.int64)
    peak = bound = 1

    def __init__(self):
        self._leg = 0          # counts completed legs; run length = leg // 2 + 1
        self._done_in_leg = 0

    def take(self, k: int) -> np.ndarray:
        # The rest of this leg and 2 sqrt(k) + 1 whole legs: more than k steps.
        legs = np.arange(self._leg, self._leg + math.isqrt(4 * k) + 2)
        runs = legs // 2 + 1
        runs[0] -= self._done_in_leg
        last = int(np.searchsorted(np.cumsum(runs), k))  # the leg of the k-th step
        runs = runs[: last + 1]
        runs[-1] -= int(runs.sum()) - k
        self._done_in_leg = (0 if last else self._done_in_leg) + int(runs[-1])
        self._leg += last
        if self._done_in_leg == self._leg // 2 + 1:
            self._leg, self._done_in_leg = self._leg + 1, 0
        return np.repeat(self._DIRS[legs[: last + 1] % 4], runs, axis=0)


class _CycleSource:
    """The pattern's steps, cyclically.  A take is a view of the pattern tiled
    once per source, from the phase: nothing is computed per step."""

    def __init__(self, pattern: np.ndarray):
        self._pattern = pattern
        self._phase = 0
        self._tiled = pattern[:0]
        self.peak = self.bound = max(abs(v) for v in pattern.tolist())  # d = 1

    def take(self, k: int) -> np.ndarray:
        period = len(self._pattern)
        if self._tiled.size < self._phase + k:
            self._tiled = np.tile(self._pattern, -(-(k + period - 1) // period))
            self._tiled.flags.writeable = False  # every take shares it
        out = self._tiled[self._phase : self._phase + k]
        self._phase = (self._phase + k) % period
        return out


# ---------------------------------------------------------------------------
# Zigzag plans (recurrent-yet-fast tents)
# ---------------------------------------------------------------------------


def _eq1_holds(ell: Fraction, n: int) -> bool:
    """Exact test of ((1+l)/(1-l))^n * (2l/(1-l)) > 1, for n <= _EXACT_EXP_CAP."""
    a, b = ell.numerator, ell.denominator
    return (b + a) ** n * 2 * a > (b - a) ** (n + 1)


def compute_n0(ell: float) -> int:
    """Minimal integer n0 >= 0 with ((1+l)/(1-l))^n0 * (2l/(1-l)) > 1.

    Exact rational arithmetic on the binary value of `ell`: the search starts
    at the float estimate of n0 and steps to the least n that passes the
    exact test.  An ell whose estimate, plus 2, exceeds the cap of ~65000 is
    rejected: the resulting plan's first return time is astronomically
    large and exact floors become impractical.
    """
    if not (0.0 < ell < 1.0):
        raise ValueError(f"ell must lie in (0, 1), got {ell}")
    f = Fraction(ell)
    if _eq1_holds(f, 0):
        return 0
    q = float((1 + f) / (1 - f))
    est = math.ceil(math.log((1 - ell) / (2 * ell)) / math.log(q)) if q > 1 else _EXACT_EXP_CAP
    if est + 2 > _EXACT_EXP_CAP:
        raise ValueError(f"ell={ell} too small for a practical plan (n0 > {_EXACT_EXP_CAP})")
    n = max(1, est)
    while not _eq1_holds(f, n):
        n += 1
    while n > 1 and _eq1_holds(f, n - 1):
        n -= 1
    return n


def _zigzag_zero_time(ell: float, n0: int):
    """Zero j of the plan, exactly: 0 at j = 0, then tau_{j-1}.

    tau_n = 2*floor(q^(n+n0)), which is 2*3^n at ell = 1/2 (q = 3, n0 = 0).
    """
    f = Fraction(ell)
    q = (1 + f) / (1 - f)

    def zero_time(j: int) -> int:
        if j == 0:
            return 0
        power = q ** (j - 1 + n0)
        return 2 * (power.numerator // power.denominator)

    return zero_time


def _rising_zeros(zero_time, steps: int) -> list:
    """zero_time(1), zero_time(2), ... up to the first at or past `steps`.

    Raises DegeneratePlanError unless they rise strictly from zero_time(0) = 0.
    """
    times = [0]
    while len(times) == 1 or times[-1] < steps:
        v = zero_time(len(times))
        if v <= times[-1]:
            raise DegeneratePlanError(
                f"return-time schedule not strictly increasing at index {len(times)}"
            )
        times.append(v)
    return times[1:]


@dataclass(frozen=True)
class ZigzagPlan:
    """Return times and peak times for a zigzag tent walk.

    tau lists the scheduled zeros tau_0 < tau_1 < ... (all even); t lists the
    peak times t_n = (tau_n + tau_{n-1}) / 2 with tau_{-1} = 0.  The warm-up
    exponent n0 satisfies the validity inequality exactly.
    """

    ell: float
    n0: int
    tau: tuple
    t: tuple

    def __post_init__(self):
        if not (0.0 < self.ell < 1.0):
            raise DegeneratePlanError("ell must lie in (0, 1)")
        tau = tuple(int(v) for v in self.tau)
        t = tuple(int(v) for v in self.t)
        if not tau or len(t) != len(tau):
            raise DegeneratePlanError("plan needs matching non-empty tau and t lists")
        prev = 0
        for i, v in enumerate(tau):
            if v % 2:
                raise DegeneratePlanError(f"tau[{i}] = {v} is odd")
            if i > 0 and v <= tau[i - 1]:
                raise DegeneratePlanError(f"tau not strictly increasing at index {i}")
            if t[i] != (v + prev) // 2:
                raise DegeneratePlanError(f"t[{i}] inconsistent with tau")
            if not (prev < t[i] < v):
                raise DegeneratePlanError(f"t[{i}] outside its excursion")
            prev = v
        if tau[0] < 2:
            raise DegeneratePlanError("tau_0 must be a positive even time")
        if self.n0 > _EXACT_EXP_CAP:
            raise DegeneratePlanError(f"n0 = {self.n0} exceeds the exact cap {_EXACT_EXP_CAP}")
        if not _eq1_holds(Fraction(self.ell), self.n0):
            raise DegeneratePlanError("(ell, n0) violates the validity inequality")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "t", t)

    # -- exact formula evaluation (no iteration) --------------------------

    def tau_at(self, n: int) -> int:
        """tau_n by direct formula (n = -1 gives the conventional 0)."""
        return _zigzag_zero_time(self.ell, self.n0)(max(n + 1, 0))

    def position_at(self, k: int) -> int:
        """x_k evaluated from the piecewise formula, exact for any k >= 0."""
        if k < 0:
            raise ValueError("k must be >= 0")
        n = 0
        while self.tau_at(n) <= k:
            n += 1
        a, b = self.tau_at(n - 1), self.tau_at(n)
        t = (a + b) // 2
        return k - a if k < t else b - k

    def peak_ratio(self, n: int) -> Fraction:
        """x_{t_n} / t_n as an exact rational."""
        a, b = self.tau_at(n - 1), self.tau_at(n)
        return Fraction(b - a, b + a)


def zigzag_plan(ell: float, steps: int) -> ZigzagPlan:
    """Plan whose tau entries cover x_0..x_steps (always at least one entry)."""
    n0 = compute_n0(ell)
    tau = _rising_zeros(_zigzag_zero_time(ell, n0), steps)
    t = [(a + b) // 2 for a, b in zip([0] + tau, tau)]
    return ZigzagPlan(ell=ell, n0=n0, tau=tuple(tau), t=tuple(t))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_simple_rw(p: float, steps: int, seed: int) -> WalkStream:
    """Simple random walk on Z: +1 with probability p, else -1; x_0 = 0."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    meta = WalkMetadata(
        generator_name="srw",
        params={"p": float(p), "steps": int(steps)},
        seed=int(seed),
        m=1,
        d=1,
        theoretical_drift=2.0 * p - 1.0,
    )
    return WalkStream(meta, _Seeded(_IidLaw((p,), (1, -1)), seed))


def gen_ergodic_walk(chain: MarkovIncrementChain, steps: int, seed: int) -> WalkStream:
    """Partial sums of a stationary finite-state Markov increment chain.

    The chain starts from its stationary distribution, and the drift
    metadata is the stationary mean increment.
    """
    meta = WalkMetadata(
        generator_name="ergodic",
        params={
            "states": list(chain.states),
            "transition": [list(map(float, row)) for row in chain.transition],
            "steps": int(steps),
        },
        seed=int(seed),
        m=1,
        d=1,
        theoretical_drift=chain.drift,
    )
    return WalkStream(meta, _Seeded(_ChainLaw(chain), seed))


_BD_PRESETS = ("symmetric", "lazy", "reflected")


def _birth_death_law(preset: str):
    """Parse a birth-death preset into (name, alpha, uniform law)."""
    name, colon, arg = preset.partition(":")
    alpha = float(arg) if colon else None
    if name not in _BD_PRESETS:
        raise ValueError(f"unknown birth-death preset {preset!r}")
    if name == "lazy":
        if alpha is None:
            raise ValueError("lazy preset needs alpha")
        if not (0.0 <= alpha < 1.0):
            raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
        return name, float(alpha), _IidLaw((alpha, alpha + (1.0 - alpha) / 2.0), (0, 1, -1))
    if alpha is not None:
        raise ValueError(f"{name} preset takes no alpha")
    return name, None, _IidLaw((0.5,), (1, -1)) if name == "symmetric" else _ReflectedLaw()


def gen_birth_death(preset: str, steps: int, seed: int) -> WalkStream:
    """Birth-death style chain on Z with increments in {-1, 0, +1}; x_0 = 0.

    Presets: ``symmetric`` (+-1 equally), ``lazy:<alpha>`` (stay with
    probability alpha, else +-1 equally; alpha in [0, 1)), ``reflected``
    (from 0 step +1 surely, otherwise +-1 equally).
    """
    name, alpha, law = _birth_death_law(preset)
    params = {"preset": name, "steps": int(steps)}
    if alpha is not None:
        params["alpha"] = alpha
    meta = WalkMetadata(
        generator_name="birth-death",
        params=params,
        seed=int(seed),
        m=1,
        d=1,
        theoretical_drift=0.0,
    )
    return WalkStream(meta, _Seeded(law, seed))


def gen_zigzag(ell: float, steps: int):
    """Deterministic tent walk returning to 0 at the plan's tau times.

    Returns (stream, plan).  Rises by +1 on [tau_{n-1}, t_n), falls by -1 on
    [t_n, tau_n); consuming the stream past `steps` extends the plan rule
    transparently.
    """
    plan = zigzag_plan(ell, steps)
    zero_time = _zigzag_zero_time(ell, plan.n0)
    meta = WalkMetadata(
        generator_name="zigzag",
        params={"ell": float(ell), "steps": int(steps), "n0": plan.n0},
        seed=None,
        m=1,
        d=1,
        theoretical_drift=None,
    )
    return WalkStream(meta, lambda: _TentSource(zero_time)), plan


def _parse_tau_rule(tau_rule: str):
    name, colon, arg = tau_rule.partition(":")
    c = float(arg) if colon else None
    if name == "squares":
        if c is not None:
            raise ValueError("squares rule takes no parameter")
        return "squares", None
    if name == "geometric":
        if c is None:
            raise ValueError("geometric rule needs c")
        if not c > 1.0:
            raise ValueError(f"geometric c must exceed 1, got {c}")
        return "geometric", float(c)
    raise ValueError(f"unknown tau rule {tau_rule!r}")


def gen_tau_tent(tau_rule: str, steps: int) -> WalkStream:
    """Tent excursions between scheduled zeros.

    ``squares`` pins zeros at 0, 1, 4, 9, ...; ``geometric:<c>`` (c > 1) at
    0 and 2*ceil(c^k) for k >= 0.  Odd gaps get one flat step at the peak so
    the walk still returns to 0 exactly on schedule with increments in
    {-1, 0, +1}.  The schedule is checked to rise up to `steps`.
    """
    name, cc = _parse_tau_rule(tau_rule)
    if name == "squares":
        zero_time = lambda j: j * j
    else:
        frac_c = Fraction(cc)

        def zero_time(j: int) -> int:
            if j == 0:
                return 0
            power = frac_c ** (j - 1)
            return 2 * (-((-power.numerator) // power.denominator))  # 2*ceil

    _rising_zeros(zero_time, steps)
    params = {"tau_rule": name, "steps": int(steps)}
    if cc is not None:
        params["c"] = cc
    meta = WalkMetadata(
        generator_name="tau-tent",
        params=params,
        seed=None,
        m=1,
        d=1,
        theoretical_drift=0.0 if name == "squares" else None,
    )
    return WalkStream(meta, lambda: _TentSource(zero_time))


def gen_spiral2d(steps: int) -> WalkStream:
    """Square spiral on Z^2 with unit axis steps and no repeated vertex."""
    meta = WalkMetadata(
        generator_name="spiral2d",
        params={"steps": int(steps)},
        seed=None,
        m=1,
        d=2,
        theoretical_drift=0.0,
    )
    return WalkStream(meta, _SpiralSource)


def gen_linear_drift(m: int, pattern: Sequence[int], steps: int) -> WalkStream:
    """Cyclic repetition of a fixed step pattern; drift is the pattern mean."""
    if m < 1:
        raise ValueError("m must be >= 1")
    pat = [int(v) for v in pattern]
    if not pat:
        raise ValueError("pattern must be non-empty")
    for v in pat:
        if abs(v) > m:
            raise ValueError(f"pattern entry {v} exceeds the bound m={m}")
    meta = WalkMetadata(
        generator_name="linear-drift",
        params={"m": int(m), "pattern": pat, "steps": int(steps)},
        seed=None,
        m=int(m),
        d=1,
        theoretical_drift=sum(pat) / len(pat),
    )
    arr = np.asarray(pat, dtype=np.int64)
    return WalkStream(meta, lambda: _CycleSource(arr))


# ---------------------------------------------------------------------------
# Flat-config factory (CLI / experiment provenance records)
# ---------------------------------------------------------------------------


def _parse_chain_preset(preset: str) -> MarkovIncrementChain:
    name, _, arg = preset.partition(":")
    try:
        values = [float(v) for v in arg.split(",")]
    except ValueError:
        values = []
    if name == "switch" and len(values) == 2:
        return MarkovIncrementChain.two_state(*values)
    if name == "iid" and len(values) == 1:
        return MarkovIncrementChain.iid(*values)
    raise ValueError(f"ergodic preset {preset!r} is not of the form switch:<a>,<b> or iid:<p>")


def make_walk(config: dict, seed: Optional[int] = None) -> WalkStream:
    """Build a stream from a flat generator-config record.

    Recognized keys: gen, steps, seed, and per-generator parameters (p, ell,
    preset, tau_rule, pattern, m).  `seed` overrides the record's seed, which
    is how the Monte Carlo harness injects per-trial seeds.  A linear-drift
    record without m takes max|pattern|, as the CLI fills it in.
    """
    cfg = dict(config)
    gen = cfg.get("gen")
    steps = int(cfg.get("steps", 0) or 0)
    if steps < 1:
        raise ValueError("config needs steps >= 1")
    if seed is not None:
        cfg["seed"] = seed

    def need(key: str):
        if cfg.get(key) is None:
            raise ValueError(f"config for gen {gen!r} needs the key {key!r}")
        return cfg[key]

    if gen == "srw":
        return gen_simple_rw(float(need("p")), steps, int(need("seed")))
    if gen == "ergodic":
        chain = _parse_chain_preset(str(need("preset")))
        return gen_ergodic_walk(chain, steps, int(need("seed")))
    if gen == "birth-death":
        return gen_birth_death(str(need("preset")), steps, int(need("seed")))
    if gen == "zigzag":
        stream, _ = gen_zigzag(float(need("ell")), steps)
        return stream
    if gen == "tau-tent":
        return gen_tau_tent(str(need("tau_rule")), steps)
    if gen == "spiral2d":
        return gen_spiral2d(steps)
    if gen == "linear-drift":
        pattern = need("pattern")
        if isinstance(pattern, str):
            pattern = pattern.split(",")
        pattern = [int(v) for v in pattern]
        m = cfg.get("m")
        m = max(map(abs, pattern), default=1) if m is None else int(m)
        return gen_linear_drift(m, pattern, steps)
    raise ValueError(f"unknown generator {gen!r}")


def uniform_law(walk: WalkStream) -> _UniformLaw:
    """The uniform-to-increment law of a seeded stochastic stream.

    Pair it with `_draw_batch` or `_DrawnSource` to run many seeds of one
    config from a single `make_walk`: the config is parsed, and an ergodic
    chain's stationary law solved, once.
    """
    factory = walk.source_factory
    if not isinstance(factory, _Seeded):
        raise ValueError(f"generator {walk.metadata.generator_name!r} draws no uniforms")
    return factory.law


def is_stochastic(config: dict) -> bool:
    return config.get("gen") in ("srw", "ergodic", "birth-death")
