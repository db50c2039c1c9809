"""Generator families: stochastic walks and the deterministic constructions."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rangewalk.core import validate_increment_bound
from rangewalk.suites import _shipped_generators
from rangewalk.generators import (
    LOCKSTEP_ROWS_PER_DRAW,
    DegeneratePlanError,
    MarkovIncrementChain,
    ReducibleChainError,
    ZigzagPlan,
    _ChainLaw,
    _draw_batch,
    _DrawnSource,
    _gather_states,
    _Scratch,
    compute_n0,
    gen_birth_death,
    gen_ergodic_walk,
    gen_linear_drift,
    gen_simple_rw,
    gen_spiral2d,
    gen_tau_tent,
    gen_zigzag,
    is_stochastic,
    make_walk,
    stationary_distribution,
    uniform_law,
)
from rangewalk.pcg64 import (
    _PCG64_MULT,
    _pcg64_state,
    mix_seed,
    mix_seeds,
    pcg64_states,
    seed_words,
    splitmix64,
)


class TestSeeding:
    def test_splitmix64_is_64_bit(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_mix_seed_injective_in_index(self):
        seeds = {mix_seed(42, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_mix_seed_depends_on_master(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)


# Seeds where SeedSequence's word split or the 2^63 / 2^64 wrap could go wrong;
# seeds below 2^32 hash as one uint32 word, the rest as two.
_EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]
_seeds = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)

# A batch of _ROWS rows draws up to _T uniforms a row in lockstep, more row
# by row; these widths lie on both sides of that bound.
_T = 5
_ROWS = LOCKSTEP_ROWS_PER_DRAW * _T
_STRADDLE = [_T - 1, _T, _T + 1, 2 * _T]
_widths = st.lists(st.integers(1, 40) | st.sampled_from(_STRADDLE), min_size=1, max_size=3)
_MASK64 = 2**64 - 1


class _RawUniforms:
    """A law that passes a batch's uniforms through unchanged."""

    head = 0

    def start(self, u):
        return np.zeros(u.shape[0], dtype=np.int64)

    def steps(self, u, carry):
        return u.copy(), carry


class TestBulkSeeding:
    """Each stage of bulk seeding against numpy's own seeding, seed by seed."""

    @given(st.integers(-(2**70), 2**70), st.integers(0, 2**40), st.integers(0, 40))
    def test_mix_seeds_equal_mix_seed(self, master, start, count):
        got = mix_seeds(master, start, start + count)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_seed(master, i) for i in range(start, start + count)]

    @pytest.mark.parametrize("master", [-1, -(2**63), 2**64, 2**64 + 5, 3 * 2**64 - 1])
    def test_mix_seeds_wrap_master_seeds(self, master):
        assert mix_seeds(master, 0, 3).tolist() == [mix_seed(master, i) for i in range(3)]

    @staticmethod
    def _check_words(seeds):
        got = seed_words(seeds)
        assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
        for seed, row in zip(seeds, got):
            assert np.array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_seed_words_at_edges(self):
        self._check_words(_EDGE_SEEDS)

    @given(_seeds)
    def test_seed_words_equal_seed_sequence(self, seeds):
        self._check_words(seeds)

    @staticmethod
    def _check_states(seeds):
        for seed, row in zip(seeds, pcg64_states(seeds)):
            assert _pcg64_state(row) == np.random.PCG64(seed).state

    def test_pcg64_states_at_edges(self):
        self._check_states(_EDGE_SEEDS)

    @given(_seeds)
    def test_pcg64_states_equal_pcg64(self, seeds):
        self._check_states(seeds)

    @given(_seeds, _widths, st.booleans())
    @example([0, 2**64 - 1], [_T + 5, 3], True)
    @example([0, 2**64 - 1], [2, _T + 1, 1], True)
    @settings(max_examples=30)
    def test_rows_equal_generator_random(self, seeds, widths, fill):
        # Each width is one draw from the seeded states, which it leaves as they were.
        if fill:
            seeds = seeds + mix_seeds(0, len(seeds), _ROWS).tolist()
        states = pcg64_states(seeds)
        before = states.copy()
        for k in widths:
            u = _draw_batch(_RawUniforms(), states, k)
            assert np.array_equal(states, before)
            for seed, row in zip(seeds, u):
                assert np.array_equal(row, np.random.Generator(np.random.PCG64(seed)).random(k))

    @staticmethod
    def _edge_states() -> np.ndarray:
        """Rows at the 128-bit edges, and rows whose first draw rotates by 0 and 63."""
        top, inv = 2**128 - 1, pow(_PCG64_MULT, -1, 2**128)
        rows = [(top, top), (top - 1, top), (2**64 - 1, 2**64 + 1), (0, 1), (2**64, top - 2)]
        inc = 2**128 - 2**64 + 1  # the low word's add carries into the high word
        for rot in (0, 63):
            for low in (0, 2**64 - 1):
                after = rot << 122 | low  # the state of the first draw
                rows.append(((after - inc) * inv % 2**128, inc))
        return np.array(
            [[s >> 64, s & _MASK64, c >> 64, c & _MASK64] for s, c in rows], dtype=np.uint64
        )

    @pytest.mark.parametrize("widths", [(3,), (64,), (65,), (3, 65, 2)])
    def test_edge_states_equal_generator_random(self, widths):
        # Copies of the edge rows, enough that takes of up to 64 draws run in lockstep.
        edge = self._edge_states()
        states = np.tile(edge, (-(-LOCKSTEP_ROWS_PER_DRAW * 64 // len(edge)), 1))
        for k in widths:
            u = _draw_batch(_RawUniforms(), states, k)
            for row, got in zip(edge, u):
                gen = np.random.Generator(np.random.PCG64())
                gen.bit_generator.state = _pcg64_state(row)
                assert np.array_equal(got, gen.random(k))

    def test_empty_batch(self):
        assert pcg64_states(mix_seeds(0, 5, 5)).shape == (0, 4)


class TestSimpleRW:
    def test_p_one_is_deterministic_drift(self):
        assert gen_simple_rw(1.0, 5, 123).path_array(5).tolist() == [0, 1, 2, 3, 4, 5]

    def test_p_zero(self):
        assert gen_simple_rw(0.0, 3, 5).path_array(3).tolist() == [0, -1, -2, -3]

    def test_replay_contract(self):
        a = gen_simple_rw(0.5, 100, 42).path_array(100)
        b = gen_simple_rw(0.5, 100, 42).path_array(100)
        assert np.array_equal(a, b)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            gen_simple_rw(1.5, 10, 0)

    def test_drift_metadata(self):
        assert gen_simple_rw(0.75, 10, 0).metadata.theoretical_drift == pytest.approx(0.5)


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        pi = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_single_state(self):
        assert stationary_distribution([[1.0]]).tolist() == [1.0]

    def test_hand_solved_balance(self):
        pi = stationary_distribution([[0.9, 0.1], [0.3, 0.7]])
        assert np.allclose(pi, [0.75, 0.25], atol=1e-12)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibleChainError):
            stationary_distribution(np.eye(2))

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            stationary_distribution([[0.5, 0.6], [0.5, 0.5]])

    def test_periodic_chain(self):
        pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 10**6))
    def test_residual_contract_on_random_chains(self, n, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        p = rng.random((n, n)) + 0.01  # strictly positive => irreducible
        p /= p.sum(axis=1, keepdims=True)
        p[:, -1] += 1.0 - p.sum(axis=1)  # exact row sums
        pi = stationary_distribution(p)
        assert np.max(np.abs(pi @ p - pi)) <= 1e-10
        assert abs(pi.sum() - 1.0) <= 1e-12

    def test_singular_solve_is_refused(self, monkeypatch):
        # An irreducible but ill-conditioned chain whose direct solve is
        # singular: no pi is returned that the residual gate has not passed.
        p = np.array([[1.0, 0.0, 1e-56], [0.0, 1.0, 1e-107], [1e-249, 1.0, 1e-265]])
        singular = []
        solve = np.linalg.solve

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(True)
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        with pytest.raises(ValueError, match=r"misses the gate max\|pi P - pi\| <= 1e-10"):
            stationary_distribution(p)
        assert singular == [True]

    def test_solve_missing_the_gate_is_refused(self, monkeypatch):
        # A solve that returns but misses the residual gate is refused as well.
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.array([0.9, 0.1]))
        with pytest.raises(ValueError, match="misses the gate"):
            stationary_distribution([[0.9, 0.1], [0.3, 0.7]])


class TestMarkovIncrementChain:
    def test_iid_drift(self):
        assert MarkovIncrementChain.iid(0.7).drift == pytest.approx(0.4)

    def test_two_state_drift(self):
        # balance: pi_up * 0.1 = pi_down * 0.3 => pi = (0.75, 0.25), mean 0.5
        assert MarkovIncrementChain.two_state(0.1, 0.3).drift == pytest.approx(0.5)

    def test_bad_state_values(self):
        with pytest.raises(ValueError):
            MarkovIncrementChain(states=(2,), transition=[[1.0]])

    def test_reducible(self):
        with pytest.raises(ReducibleChainError):
            MarkovIncrementChain(states=(1, -1), transition=np.eye(2))

    def test_row_sum_tolerance(self):
        with pytest.raises(ValueError):
            MarkovIncrementChain(states=(1, -1), transition=[[0.6, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN fails every compare, so no range or row-sum test alone refused it.
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            MarkovIncrementChain((1, 0, -1), [[bad, 0.5, 0.5], [0.3, 0.3, 0.4], [0.2, 0.4, 0.4]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            stationary_distribution([[bad, 1.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            MarkovIncrementChain.two_state(bad, 0.3)


class TestErgodicWalk:
    def test_degenerate_single_state(self):
        chain = MarkovIncrementChain(states=(1,), transition=[[1.0]])
        assert gen_ergodic_walk(chain, 4, 0).path_array(4).tolist() == [0, 1, 2, 3, 4]

    def test_replay(self):
        chain = MarkovIncrementChain.two_state(0.2, 0.4)
        a = gen_ergodic_walk(chain, 500, 9).path_array(500)
        b = gen_ergodic_walk(chain, 500, 9).path_array(500)
        assert np.array_equal(a, b)

    def test_iid_drift_metadata_matches_srw(self):
        for p in (0.3, 0.5, 0.9):
            chain = MarkovIncrementChain.iid(p)
            walk = gen_ergodic_walk(chain, 10, 0)
            assert walk.metadata.theoretical_drift == pytest.approx(2 * p - 1)

    def test_increments_come_from_the_state_labels(self):
        chain = MarkovIncrementChain(
            states=(1, 0, -1),
            transition=[[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.3, 0.5, 0.2]],
        )
        x = gen_ergodic_walk(chain, 2000, 3).path_array(2000)
        assert set(np.unique(np.diff(x))) <= {-1, 0, 1}

    def test_gather_fallback_is_bit_identical(self, monkeypatch):
        import rangewalk.generators as G

        # One chain whose maps all coalesce or keep the state, and one that swaps.
        chains = [MarkovIncrementChain.two_state(0.1, 0.3), MarkovIncrementChain.two_state(0.9, 0.8)]
        sampled = [gen_ergodic_walk(chain, 0, 5).path_array(70_000) for chain in chains]
        called = []

        def loop(ids, table, s0, scratch=None):
            called.append(ids.shape)
            return _loop_states(ids, table, s0)

        monkeypatch.setattr(G, "_gather_states", loop)
        looped = [gen_ergodic_walk(chain, 0, 5).path_array(70_000) for chain in chains]
        assert called == [(1, 2**16 - 1), (1, 70_000 - 2**16 + 1)] * 2
        for a, b in zip(sampled, looped):
            assert np.array_equal(a, b)


def _loop_states(ids, table, s0):
    """Plain-loop oracle of `_gather_states`: s_k = table[ids[r, k], s_{k-1}], row by row."""
    maps, out = table.tolist(), []
    for row, s in zip(ids.tolist(), np.asarray(s0).tolist()):
        states = []
        for i in row:
            s = maps[i][s]
            states.append(s)
        out.append(states)
    return np.array(out, dtype=np.int64).reshape(ids.shape)


def _reference_states(transition, u, s0):
    """The states from s0 under the uniforms `u` (R, n), each state's move the
    clipped searchsorted of its row's cumsum: the plain loop over a table
    with one map a position, which no break or interval enters."""
    cum = np.cumsum(transition, axis=1)
    n_states = cum.shape[0]
    nxt = [np.minimum(np.searchsorted(cum[s], u.ravel(), side="right"), n_states - 1) for s in range(n_states)]
    return _loop_states(np.arange(u.size).reshape(u.shape), np.stack(nxt, axis=1), s0)


def _chain_law(transition, pi=None, labels=None):
    """A `_ChainLaw` of any square row-stochastic matrix, irreducible or not."""
    n_states = transition.shape[0]
    pi = np.full(n_states, 1.0 / n_states) if pi is None else pi
    labels = np.ones(n_states, dtype=np.int64) if labels is None else labels
    return _ChainLaw(SimpleNamespace(states=tuple(labels), transition=transition, stationary=pi))


def _interval_ids(law, u):
    """The number of the law's breaks that each uniform reaches."""
    return np.searchsorted(law._breaks, u, side="right")


def _coalesces(table):
    """Every map of the table keeps the state or is constant."""
    keeps = (table == np.arange(table.shape[1])).all(axis=1)
    return bool(((table == table[:, :1]).all(axis=1) | keeps).all())


_KINDS = ("sticky", "switching", "iid", "permutation", "cycle", "near-deterministic", "zeros")


@st.composite
def _transitions(draw, max_states=5):
    """A 1 to `max_states` state transition matrix of one of the kinds in _KINDS."""
    n = draw(st.integers(1, max_states))
    kind = draw(st.sampled_from(_KINDS))
    weights = st.floats(0.0, 1.0, allow_nan=False)
    noise = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    noise += 1e-3  # no zero row
    noise /= noise.sum(axis=1, keepdims=True)
    eps = draw(st.sampled_from([1e-3, 1e-2, 0.1]))
    perm = np.eye(n)[draw(st.permutations(range(n)))]
    if kind == "sticky":
        p = (1 - eps) * np.eye(n) + eps * noise
    elif kind == "switching":
        p = noise
    elif kind == "iid":
        p = np.repeat(noise[:1], n, axis=0)
    elif kind == "permutation":
        p = (1 - eps) * perm + eps * noise
    elif kind == "cycle":
        p = np.roll(np.eye(n), 1, axis=1)
    elif kind == "near-deterministic":
        p = (1 - eps) * np.eye(n)[draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))]
        p += eps * noise
    else:
        keep = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        p = noise * np.array(keep).reshape(n, n)
        p[np.arange(n), draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))] += 0.5
        p /= p.sum(axis=1, keepdims=True)
    return p


@st.composite
def _small_chains(draw):
    """(kind, transition): a two-state chain whose maps all coalesce or keep
    the state (switch probabilities a + b <= 1), one that can swap (a + b > 1),
    or any 1-3 state matrix of `_transitions`.  The kind is read off the
    stored cuts 1 - a and b, as the law reads them: the chain swaps exactly
    where 1 - a < b, which a rounded a + b can miss (1.0 + 1e-159 == 1.0)."""
    kind = draw(st.sampled_from(["coalescing", "swapping", "any"]))
    if kind == "any":
        return kind, draw(_transitions(max_states=3))

    def chain(a, b):
        return np.array([[1.0 - a, a], [b, 1.0 - b]])

    def swaps(p):
        return p[0, 0] < p[1, 0]

    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    p = chain(a, b)
    if swaps(p) != (kind == "swapping"):
        p = chain(1.0 - a, 1.0 - b)
    if swaps(p) != (kind == "swapping"):  # equal cuts both ways
        p = chain(0.75, 0.75) if kind == "swapping" else chain(0.25, 0.25)
    return kind, p


class TestMarkovSampler:
    """`_gather_states` against the plain loop it replaces."""

    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    @given(
        _transitions(),
        st.one_of(st.sampled_from([1, 2, 2**16 - 1, 2**16, 2**16 + 1]), st.integers(1, 200)),
        st.integers(0, 2**32),
    )
    def test_matches_the_loop_from_every_state(self, transition, length, seed):
        n_states = transition.shape[0]
        rng = np.random.default_rng(seed)
        law = _chain_law(transition)
        u = np.repeat(rng.random((1, length)), n_states, axis=0)
        starts = np.arange(n_states)
        ids = _interval_ids(law, u)
        assert np.array_equal(_gather_states(ids, law._table, starts), _reference_states(transition, u, starts))
        # one row per start state, each over its own uniforms
        u = rng.random((n_states, length))
        ids = _interval_ids(law, u)
        assert np.array_equal(_gather_states(ids, law._table, starts), _reference_states(transition, u, starts))

    @settings(deadline=None)
    @given(_small_chains(), st.integers(1, 5), st.integers(1, 80), st.integers(0, 2**32), st.data())
    def test_small_chains_rows_and_breaks(self, chain, rows, k, seed, data):
        # Every row from its own start; a fifth of the uniforms exactly on a
        # break, 0 or the largest uniform; and, where the chain has a map that
        # keeps every state, rows whose every uniform picks one, sometimes on
        # its lower break.
        kind, transition = chain
        n_states = transition.shape[0]
        rng = np.random.default_rng(seed)
        law = _chain_law(transition)
        assert kind == "any" or _coalesces(law._table) == (kind == "coalescing")
        breaks = law._breaks[law._breaks < 1.0]  # a one-state chain's break is inf
        u = _with_cuts(rng.random((rows, k)), breaks, rng)
        lower = np.concatenate(([0.0], breaks))
        upper = np.concatenate((breaks, [1.0]))
        keeps = np.flatnonzero((law._table[: len(lower)] == np.arange(n_states)).all(axis=1))
        for r in range(rows):
            if keeps.size and data.draw(st.booleans()):
                i = rng.choice(keeps, k)
                on_break = rng.random(k) < 0.5
                u[r] = np.where(on_break, lower[i], (lower[i] + upper[i]) / 2)
        starts = np.array(data.draw(st.lists(st.integers(0, n_states - 1), min_size=rows, max_size=rows)))
        ids = _interval_ids(law, u)
        want = _reference_states(transition, u, starts)
        assert np.array_equal(_loop_states(ids, law._table, starts), want)
        assert np.array_equal(_gather_states(ids, law._table, starts), want)
        # the same through the law and a scratch of more cells than the block
        labels = np.arange(n_states) * 7 - 3
        law = _chain_law(transition, labels=labels)
        scratch = _Scratch(rows * k + 5)
        block = scratch.views((rows, k))[0]
        block[...] = u
        inc, last = law.steps(block, starts, scratch)
        assert np.array_equal(inc, labels[want]) and np.array_equal(last, want[:, -1])

    def test_many_states(self):
        rng = np.random.default_rng(3)
        table = rng.integers(0, 300, size=(50, 300))
        table[::3] = np.arange(300)  # identity maps among them
        ids = rng.integers(0, 50, size=(2, 5000))
        starts = [299, 0]
        assert np.array_equal(_gather_states(ids, table, starts), _loop_states(ids, table, starts))

    def test_chain_law_rows_match_row_by_row(self):
        chain = MarkovIncrementChain(
            states=(1, 0, -1),
            transition=[[0.9, 0.1, 0.0], [0.0, 0.2, 0.8], [0.5, 0.0, 0.5]],
        )
        law = _ChainLaw(chain)
        u = np.random.default_rng(8).random((6, 1000))
        carry = np.array([0, 1, 2, 2, 0, 1])
        inc, last = law.steps(u, carry)
        for r in range(6):
            row_inc, row_last = law.steps(u[r : r + 1], carry[r : r + 1])
            assert np.array_equal(inc[r], row_inc[0])
            assert last[r] == row_last[0]
        looped = _reference_states(chain.transition, u, carry)
        assert np.array_equal(inc, np.asarray(chain.states)[looped])


def _start_ref(pi, u):
    """The start state `_ChainLaw` draws from u: the clipped searchsorted reference."""
    return np.minimum(np.searchsorted(np.cumsum(pi), u, side="right"), len(pi) - 1)


def _with_cuts(u, cuts, rng):
    """u with about a fifth of its cells set to a cut, 0 or the largest uniform."""
    values = np.concatenate([np.ravel(cuts), [0.0, 1.0 - 2.0**-53]])
    hit = rng.random(u.shape) < 0.2
    u[hit] = rng.choice(values, hit.sum())
    return u


class TestCutRule:
    """Every law maps u to the number of nondecreasing cuts with u >= cut."""

    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    @given(_transitions(), st.integers(1, 4), st.integers(1, 300), st.integers(0, 2**32), st.data())
    def test_chain_law_matches_searchsorted(self, transition, rows, k, seed, data):
        n_states = transition.shape[0]
        rng = np.random.default_rng(seed)
        # The start law is a row of the matrix: it may hold zeros, and no
        # irreducibility is needed to test the map.
        pi = transition[data.draw(st.integers(0, n_states - 1))]
        labels = rng.integers(-1, 2, n_states)
        chain = SimpleNamespace(states=tuple(labels), transition=transition, stationary=pi)
        law = _ChainLaw(chain)
        cuts = np.concatenate([np.cumsum(transition, axis=1).ravel(), np.cumsum(pi)])
        u = _with_cuts(rng.random((rows, 1 + k)), cuts, rng)
        assert np.array_equal(law.start(u[:, :1]), _start_ref(pi, u[:, 0]))
        carry = rng.integers(0, n_states, rows)
        looped = _reference_states(transition, u[:, 1:], carry)
        inc, last = law.steps(u[:, 1:].copy(), carry)
        assert np.array_equal(inc, labels[looped])
        assert np.array_equal(last, looped[:, -1])

    @pytest.mark.parametrize("u", [1.0 - 2.0**-53, 0.5, 0.3, 0.8 - 1e-13, 0.0])
    def test_chain_rows_short_of_one_and_u_on_a_cut(self, u):
        # Each row sums to 1 - 1e-13: the largest uniform passes every cut,
        # and must still pick the last state.
        transition = np.array([[0.5, 0.5 - 1e-13], [0.3, 0.7 - 1e-13]])
        pi = np.array([0.8 - 1e-13, 0.2])
        chain = SimpleNamespace(states=(1, -1), transition=transition, stationary=pi)
        law = _ChainLaw(chain)
        cell = np.array([[u]])
        assert law.start(cell).tolist() == _start_ref(pi, cell[:, 0]).tolist()
        carry = np.array([0, 1])
        looped = _reference_states(transition, np.repeat(cell, 2, axis=0), carry)
        inc, last = law.steps(np.repeat(cell, 2, axis=0), carry)
        assert inc.tolist() == np.array([1, -1])[looped].tolist()
        assert last.tolist() == looped[:, -1].tolist()

    @pytest.mark.parametrize(
        "config",
        [{"gen": "srw", "p": p} for p in (0.0, 0.3, 1.0)]
        + [{"gen": "birth-death", "preset": f"lazy:{a}"} for a in (0.0, 0.3)]
        + [{"gen": "birth-death", "preset": p} for p in ("symmetric", "reflected")],
        ids=lambda c: c.get("preset", f"srw:{c.get('p')}"),
    )
    def test_iid_laws_match_the_where_formulas(self, config):
        p = config.get("p", 0.5)
        alpha = float(config.get("preset", "lazy:0").partition(":")[2] or 0)
        up = alpha + (1.0 - alpha) / 2.0
        cuts = [p, alpha, up, np.nextafter(p, 0), np.nextafter(up, 1)]
        u = _with_cuts(np.random.default_rng(5).random((3, 400)), cuts, np.random.default_rng(6))
        signs = np.where(u < 0.5, 1, -1)
        carry = np.array([0, 3, -2])
        if config["gen"] == "srw":
            want = np.where(u < p, 1, -1)
        elif config["preset"] == "symmetric":
            want = signs
        elif config["preset"] == "reflected":
            s = np.cumsum(signs, axis=1) + carry[:, None]
            want = np.diff(np.abs(np.concatenate([carry[:, None], s], axis=1)), axis=1)
        else:
            want = np.where(u < alpha, 0, np.where(u < up, 1, -1))
        law = uniform_law(make_walk(dict(config, steps=1), seed=0))
        inc, _ = law.steps(u.copy(), carry)
        assert inc.dtype == np.int64
        assert np.array_equal(inc, want)


class TestBirthDeath:
    def test_symmetric_replay(self):
        a = gen_birth_death("symmetric", 100, 4).path_array(100)
        b = gen_birth_death("symmetric", 100, 4).path_array(100)
        assert np.array_equal(a, b)
        assert set(np.unique(np.diff(a))) <= {-1, 1}

    def test_lazy_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            gen_birth_death("lazy:1.0", 10, 0)

    def test_lazy_inline_param(self):
        x = gen_birth_death("lazy:0.5", 1000, 8).path_array(1000)
        assert 0 in np.diff(x)

    def test_reflected_steps_up_from_zero(self):
        x = gen_birth_death("reflected", 2000, 11).path_array(2000)
        assert (x >= 0).all()
        at_zero = np.flatnonzero(x[:-1] == 0)
        assert (x[at_zero + 1] == 1).all()

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            gen_birth_death("sticky", 10, 0)


class TestComputeN0:
    def test_half(self):
        assert compute_n0(0.5) == 0

    def test_large_ell(self):
        assert compute_n0(0.9) == 0

    def test_small_ell_found_by_iteration(self):
        # q = 11/9, factor 2/9: smallest n0 with (11/9)^n0 * 2/9 > 1 is 8
        assert compute_n0(0.1) == 8

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                compute_n0(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 0.99))
    @example(0.05)
    @example(0.1)
    @example(0.2)
    @example(0.3)
    @example(0.47)
    @example(1 / 3)  # 2l/(1-l) = 1 at l = 1/3: n0 = 0 just above it
    @example(float(np.nextafter(1 / 3, 0)))
    @example(float(np.nextafter(1 / 3, 1)))
    @example(0.2360679774997897)  # the float estimate, 1, is one short of n0 = 2
    @example(0.18882895203249914)  # the float estimate, 3, is one past n0 = 2
    def test_minimality(self, ell):
        n0 = compute_n0(ell)
        f = Fraction(ell)
        q = (1 + f) / (1 - f)
        factor = 2 * f / (1 - f)
        assert q**n0 * factor > 1
        if n0 > 0:
            assert q ** (n0 - 1) * factor <= 1

    # The largest ell whose float estimate of n0, plus 2, passes the cap of 2^16.
    CAP_EDGE = 6.793252711979467e-05

    @pytest.mark.parametrize("ell", [float(np.nextafter(CAP_EDGE, 0)), 1e-17, 5e-324])
    def test_past_the_cap_raises_at_once(self, ell, monkeypatch):
        # 1e-17 and 5e-324 are so small that q = (1 + l)/(1 - l) rounds to 1.
        import rangewalk.generators as G

        tried = []
        holds = G._eq1_holds
        monkeypatch.setattr(G, "_eq1_holds", lambda f, n: tried.append(n) or holds(f, n))
        with pytest.raises(ValueError, match="too small for a practical plan"):
            compute_n0(ell)
        assert tried == [0]


class TestZigzag:
    def test_first_seven_values(self):
        stream, _ = gen_zigzag(0.5, 20)
        assert stream.path_array(6).tolist() == [0, 1, 0, 1, 2, 1, 0]

    def test_peak_ratio_is_half_from_n1(self):
        _, plan = gen_zigzag(0.5, 1000)
        for n in range(1, 12):
            assert plan.peak_ratio(n) == Fraction(1, 2)
        # n = 0 excursion starts the walk: tau_{-1} = 0 makes the ratio 1
        assert plan.peak_ratio(0) == 1

    def test_exact_zeroes_and_peaks_within_horizon(self):
        steps = 2 * 3**7
        stream, plan = gen_zigzag(0.5, steps)
        x = stream.path_array(steps)
        for n, tau in enumerate(plan.tau):
            if tau <= steps:
                assert x[tau] == 0
                assert x[plan.t[n]] == (tau - plan.tau_at(n - 1)) // 2

    def test_ell_03_plan(self):
        _, plan = gen_zigzag(0.3, 12)
        assert plan.n0 == 1
        assert plan.tau[:3] == (2, 6, 12)
        assert plan.peak_ratio(2) == Fraction(3, 9)

    def test_half_matches_general_formula_with_n0_zero(self):
        _, plan = gen_zigzag(0.5, 100)
        q = Fraction(3)
        for n in range(10):
            power = q**n
            assert plan.tau_at(n) == 2 * (power.numerator // power.denominator)

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            gen_zigzag(0.0, 10)
        with pytest.raises(ValueError):
            gen_zigzag(1.0, 10)

    def test_plan_validation_rejects_bad_lists(self):
        with pytest.raises(DegeneratePlanError):
            ZigzagPlan(ell=0.5, n0=0, tau=(3,), t=(1,))  # odd tau
        with pytest.raises(DegeneratePlanError):
            ZigzagPlan(ell=0.5, n0=0, tau=(4, 2), t=(2, 3))  # not increasing
        with pytest.raises(DegeneratePlanError):
            ZigzagPlan(ell=0.5, n0=0, tau=(2, 6), t=(1, 5))  # t inconsistent
        with pytest.raises(DegeneratePlanError):
            ZigzagPlan(ell=0.1, n0=0, tau=(2,), t=(1,))  # Eq-(1) fails at n0=0
        with pytest.raises(DegeneratePlanError):
            ZigzagPlan(ell=0.5, n0=(1 << 16) + 1, tau=(2,), t=(1,))  # n0 past the exact cap

    def test_position_at_matches_iteration(self):
        stream, plan = gen_zigzag(0.3, 200)
        x = stream.path_array(200)
        for k in (0, 1, 5, 17, 60, 200):
            assert plan.position_at(k) == x[k]


class TestTauTent:
    def test_squares_odd_gap_excursion(self):
        # gap tau_2 - tau_1 = 3: rise 1, flat 1, fall 1 over times 1..4
        x = gen_tau_tent("squares", 16).path_array(16)
        assert x[1:5].tolist() == [0, 1, 1, 0]

    def test_squares_zeros_exactly_at_squares(self):
        x = gen_tau_tent("squares", 400).path_array(400)
        zeros = set(np.flatnonzero(x == 0).tolist())
        assert zeros == {k * k for k in range(21)}

    def test_geometric_three_ratio(self):
        x = gen_tau_tent("geometric:3", 200).path_array(200)
        zeros = np.flatnonzero(x == 0)
        pos = zeros[zeros > 0]
        assert (pos[1:] / pos[:-1] == 3).all()

    def test_near_one_c_is_degenerate(self):
        with pytest.raises(DegeneratePlanError):
            gen_tau_tent("geometric:1.01", 100)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            gen_tau_tent("cubes", 10)

    def test_increments_stay_bounded(self):
        x = gen_tau_tent("squares", 1000).path_array(1000)
        assert set(np.unique(np.diff(x))) <= {-1, 0, 1}


class TestSpiral:
    def test_first_points(self):
        assert gen_spiral2d(3).path_array(3).tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_distinct_points(self):
        path = gen_spiral2d(10_000).path_array(10_000)
        assert len({tuple(r) for r in path.tolist()}) == 10_001

    def test_unit_steps(self):
        path = gen_spiral2d(5_000).path_array(5_000)
        d = np.diff(path, axis=0)
        assert ((d * d).sum(axis=1) == 1).all()

    @pytest.mark.parametrize(
        "block_size, steps", [(2, 5_000), (3, 20_000), (7, 3 * 2**16), (2**16, 3 * 2**16)]
    )
    def test_blocks_match_a_per_leg_oracle(self, block_size, steps):
        # Legs grow by one every second turn, so most of them straddle a block edge.
        dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        path, leg = [[0, 0]], 0
        while len(path) <= steps:
            dx, dy = dirs[leg % 4]
            for _ in range(leg // 2 + 1):
                path.append([path[-1][0] + dx, path[-1][1] + dy])
            leg += 1
        reads = gen_spiral2d(steps)._checked_blocks(steps, block_size)
        blocks = [(block.copy(), jump) for block, jump in reads]
        assert all(jump is None for _, jump in blocks)
        assert np.concatenate([block for block, _ in blocks]).tolist() == path[: steps + 1]


class TestStatedFacts:
    """A source that states `peak` and `bound` keeps to them."""

    def test_shipped_sources_keep_their_facts(self):
        stated = []
        for stream in _shipped_generators(3, 2**17):
            source = stream.source_factory()
            if not hasattr(source, "peak"):
                continue
            stated.append(stream.metadata.generator_name)
            inc = source.take(2**17).reshape(2**17, -1)
            assert int(np.abs(inc).max()) <= source.peak
            assert int((inc * inc).sum(axis=1).max()) <= source.bound**2
            assert source.bound <= stream.m  # so no block of it is tested again
        assert set(stated) == {
            "srw", "ergodic", "birth-death", "zigzag", "tau-tent", "linear-drift", "spiral2d"
        }

    @pytest.mark.parametrize("index", range(12))
    def test_every_take_keeps_the_facts(self, index):
        # Short takes straddle a cycle's phase, a tent's turns and a spiral's legs.
        stream = _shipped_generators(3, 2**17)[index]
        sizes = [1, 2, 3, 4, 5, 7, 2**16 - 1, 2**16, 9]
        source = stream.source_factory()
        takes = [source.take(k).reshape(k, -1).copy() for k in sizes]
        for inc in takes:
            assert int(np.abs(inc).max()) <= source.peak
            assert int((inc * inc).sum(axis=1).max()) <= source.bound**2
        whole = stream.source_factory().take(sum(sizes)).reshape(sum(sizes), -1)
        assert np.array_equal(np.concatenate(takes), whole)


class TestLinearDrift:
    def test_constant_two(self):
        w = gen_linear_drift(2, [2], 10)
        assert w.path_array(4).tolist() == [0, 2, 4, 6, 8]
        assert w.metadata.theoretical_drift == 2.0

    def test_alternating(self):
        w = gen_linear_drift(1, [1, -1], 10)
        assert w.path_array(4).tolist() == [0, 1, 0, 1, 0]
        assert w.metadata.theoretical_drift == 0.0

    def test_takes_follow_the_phase(self):
        pattern = np.array([2, -1, 1, 0, -2], dtype=np.int64)
        source = gen_linear_drift(2, pattern.tolist(), 10).source_factory()
        phase = 0
        for k in (1, 2, 3, 4, 5, 6, 11, 2**16, 7):
            assert source.take(k).tolist() == pattern[(phase + np.arange(k)) % 5].tolist()
            phase += k

    def test_mean_of_pattern(self):
        assert gen_linear_drift(3, [3, 0, 0], 10).metadata.theoretical_drift == 1.0

    def test_entry_exceeding_m(self):
        with pytest.raises(ValueError):
            gen_linear_drift(2, [3], 10)

    def test_empty_pattern(self):
        with pytest.raises(ValueError):
            gen_linear_drift(1, [], 10)


def _all_generators(seed):
    chain = MarkovIncrementChain.two_state(0.1, 0.3)
    zz, _ = gen_zigzag(0.5, 3000)
    return [
        gen_simple_rw(0.7, 3000, seed),
        gen_ergodic_walk(chain, 3000, seed),
        gen_birth_death("symmetric", 3000, seed),
        gen_birth_death("lazy:0.25", 3000, seed),
        gen_birth_death("reflected", 3000, seed),
        zz,
        gen_tau_tent("squares", 3000),
        gen_tau_tent("geometric:2.5", 3000),
        gen_spiral2d(3000),
        gen_linear_drift(3, [3, -1, 0, 2], 3000),
    ]


@pytest.mark.parametrize("seed", [1, 77, 424242])
def test_every_generator_respects_its_declared_bound(seed):
    for stream in _all_generators(seed):
        path = stream.path_array(3000)
        assert validate_increment_bound(path, stream.m) is None, stream.metadata.generator_name


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=20, deadline=None)
def test_srw_bound_property(seed):
    stream = gen_simple_rw(0.5, 256, seed)
    assert validate_increment_bound(stream.path_array(256), 1) is None


class TestMakeWalk:
    @pytest.mark.parametrize(
        "cfg",
        [
            {"gen": "srw", "p": 0.7, "steps": 50, "seed": 1},
            {"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 50, "seed": 1},
            {"gen": "ergodic", "preset": "iid:0.7", "steps": 50, "seed": 1},
            {"gen": "birth-death", "preset": "lazy:0.3", "steps": 50, "seed": 1},
            {"gen": "zigzag", "ell": 0.5, "steps": 50},
            {"gen": "tau-tent", "tau_rule": "geometric:3", "steps": 50},
            {"gen": "spiral2d", "steps": 50},
            {"gen": "linear-drift", "m": 2, "pattern": "2,-1", "steps": 50},
        ],
    )
    def test_roundtrip(self, cfg):
        stream = make_walk(cfg)
        assert stream.path_array(50).shape[0] == 51

    def test_seed_override(self):
        cfg = {"gen": "srw", "p": 0.5, "steps": 50, "seed": 1}
        a = make_walk(cfg, seed=9).path_array(50)
        b = make_walk({**cfg, "seed": 9}).path_array(50)
        assert np.array_equal(a, b)

    def test_stochastic_without_seed(self):
        with pytest.raises(ValueError):
            make_walk({"gen": "srw", "p": 0.5, "steps": 10})

    def test_unknown_gen(self):
        with pytest.raises(ValueError):
            make_walk({"gen": "levy", "steps": 10})

    def test_linear_drift_m_defaults_to_the_largest_step(self):
        # The CLI fills in max|pattern| for the same record.
        walk = make_walk({"gen": "linear-drift", "pattern": [2, -1], "steps": 5})
        assert walk.m == 2
        assert walk.path_array(5).tolist() == [0, 2, 1, 3, 2, 4]

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"gen": "srw"}, "p"),
            ({"gen": "ergodic"}, "preset"),
            ({"gen": "birth-death"}, "preset"),
            ({"gen": "zigzag"}, "ell"),
            ({"gen": "tau-tent"}, "tau_rule"),
            ({"gen": "linear-drift"}, "pattern"),
        ],
    )
    def test_missing_key_is_named(self, cfg, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            make_walk(dict(cfg, steps=5), seed=1)

    @pytest.mark.parametrize(
        "preset", ["switch:0.1", "switch:0.1,0.2,0.3", "switch", "iid:", "iid:a", "iid:0.3,0.7"]
    )
    def test_malformed_ergodic_preset_names_the_form(self, preset):
        with pytest.raises(ValueError, match="switch:<a>,<b> or iid:<p>"):
            make_walk({"gen": "ergodic", "preset": preset, "steps": 5}, seed=1)

    def test_is_stochastic(self):
        assert is_stochastic({"gen": "srw"})
        assert not is_stochastic({"gen": "zigzag"})


_LAW_CONFIGS = [
    {"gen": "srw", "p": 0.3},
    {"gen": "birth-death", "preset": "symmetric"},
    {"gen": "birth-death", "preset": "lazy:0.4"},
    {"gen": "birth-death", "preset": "reflected"},
    {"gen": "ergodic", "preset": "switch:0.1,0.3"},
    {"gen": "ergodic", "preset": "iid:0.6"},
]


class TestBatchSource:
    @pytest.mark.parametrize("config", _LAW_CONFIGS, ids=lambda c: c.get("preset", "srw"))
    @pytest.mark.parametrize("rows", [1, 5, _ROWS])
    # A chain's law draws one more uniform (head = 1): w = k + 1 straddles the
    # lockstep bound one step lower.  Each width is one draw of that many steps.
    @pytest.mark.parametrize(
        "widths",
        [(24,), (3, 1, 20)] + [(k,) for k in _STRADDLE] + [(_T + 5, 3), (2, _T + 1, 1)],
    )
    def test_rows_replay_their_streams(self, config, rows, widths):
        steps = max(widths)
        config = dict(config, steps=steps)
        seeds = [mix_seed(4, i) for i in range(rows)]
        law, states = uniform_law(make_walk(config, seed=0)), pcg64_states(seeds)
        paths = [make_walk(config, seed=seed).path_array(steps) for seed in seeds]
        for k in widths:
            for path, row in zip(paths, _draw_batch(law, states, k)):
                assert np.array_equal(row, np.diff(path[: k + 1]))

    @pytest.mark.parametrize(
        "config",
        _LAW_CONFIGS + [{"gen": "ergodic", "preset": "switch:0.1,0.1"}],  # sticky both ways
        ids=lambda c: c.get("preset", "srw"),
    )
    def test_stream_blocking_keeps_the_walk(self, config):
        # Blocks of 2 positions take two steps at a time: the carry must persist.
        walk = make_walk(dict(config, steps=60), seed=3)
        whole = walk.path_array(60)
        assert np.array_equal(np.concatenate(list(walk.blocks(60, block_size=2))), whole)

    def test_law_is_built_once_per_walk(self):
        # Each read of the walk builds a fresh source over the walk's one law.
        walk = make_walk({"gen": "ergodic", "preset": "switch:0.1,0.3", "steps": 4}, seed=0)
        law = uniform_law(walk)
        assert walk.source_factory()._law is law and walk.source_factory()._law is law

    def test_deterministic_walk_has_no_law(self):
        with pytest.raises(ValueError):
            uniform_law(make_walk({"gen": "zigzag", "ell": 0.5, "steps": 4}))


def _iid_steps(weights, labels):
    """The plain map of an i.i.d. law: the label of
    ``searchsorted(cumsum(w), u, side="right")``, clipped to the last one."""

    def steps(u):
        j = np.searchsorted(np.cumsum(weights), u, side="right")
        return np.asarray(labels)[np.minimum(j, len(labels) - 1)]

    return steps


def _reflected_steps(u):
    """|S_n| - |S_{n-1}| of the symmetric walk S_n that the uniforms draw."""
    return np.diff(np.abs(np.cumsum(_iid_steps([0.5, 0.5], [1, -1])(u))), prepend=0)


def _chain_steps(chain):
    """The state loop: u[0] draws the start state, each later u the next state."""

    def steps(u):
        start = _start_ref(chain.stationary, u[:1])
        return np.asarray(chain.states)[_reference_states(chain.transition, u[None, 1:], start)[0]]

    return steps


_MIXING = MarkovIncrementChain(
    (1, 0, -1), np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
)
_SWITCH = MarkovIncrementChain.two_state(0.1, 0.3)

#: Each drawn law: its walk of seed 0 and the plain map of a seed's uniforms to its steps.
_DRAWN = {
    **{
        f"srw:{p}": (gen_simple_rw(p, 1, 0), _iid_steps([p, 1 - p], [1, -1]))
        for p in (0.0, 0.3, 0.5, 1.0)
    },
    "lazy:0.4": (gen_birth_death("lazy:0.4", 1, 0), _iid_steps([0.4, 0.3, 0.3], [0, 1, -1])),
    "symmetric": (gen_birth_death("symmetric", 1, 0), _iid_steps([0.5, 0.5], [1, -1])),
    "reflected": (gen_birth_death("reflected", 1, 0), _reflected_steps),
    "switch:0.1,0.3": (gen_ergodic_walk(_SWITCH, 1, 0), _chain_steps(_SWITCH)),
    "3-state mixing": (gen_ergodic_walk(_MIXING, 1, 0), _chain_steps(_MIXING)),
}


class TestDrawnSteps:
    """A read's source returns int8 steps, the plain map of its uniforms."""

    @pytest.mark.parametrize("name", list(_DRAWN))
    def test_takes_are_the_plain_map_in_int8(self, name):
        walk, plain = _DRAWN[name]
        law, seed = uniform_law(walk), 17
        # Blocks of 2 to 9 positions in a scratch of 9 cells, then a take that grows it.
        source, sizes = _DrawnSource(law, seed, _Scratch(9)), list(range(2, 10)) + [300, 5]
        takes = []
        for k in sizes:
            inc = source.take(k)
            assert inc.dtype == np.int8 and inc.shape == (k,)
            takes.append(inc.copy())
        assert source._scratch.cells >= 300
        u = np.random.Generator(np.random.PCG64(seed)).random(law.head + sum(sizes))
        assert np.concatenate(takes).tolist() == plain(u).tolist()
        # A read's own source, from no scratch, is the same.
        own = walk.source_factory()
        assert own.take(sum(sizes)).tolist() == plain(
            np.random.Generator(np.random.PCG64(0)).random(law.head + sum(sizes))
        ).tolist()

    def test_chain_read_builds_no_block_sized_temporary(self):
        # The labels go to the scratch's bytes from an int8 table: an int64
        # table makes np.take cast through an int64 copy of the out, 512 KiB.
        source = gen_ergodic_walk(_SWITCH, 1, 5).source_factory()
        source.take(2**16)
        tracemalloc.start()
        try:
            source.take(2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_lazy_read_builds_no_block_sized_temporary(self):
        # The lower cut's compare and rise add up in the scratch's ids: a
        # fresh bool mask or rise * mask product of a 2^16 take is 64 KiB.
        source = gen_birth_death("lazy:0.4", 1, 5).source_factory()
        source.take(2**16)
        tracemalloc.start()
        try:
            steps = source.take(2**16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**14
        assert steps.dtype == np.int8 and set(np.unique(steps).tolist()) == {-1, 0, 1}
