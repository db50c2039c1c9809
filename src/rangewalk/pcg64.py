"""numpy's PCG64, seeded and drawn for many seeds at once, bit for bit.

Per-trial seeds are derived from a master seed with the SplitMix64 finalizer,
a 64-bit bijection; changing it would break report reproducibility.  A batch
of trials is seeded in numpy: `pcg64_states` computes, for many seeds at once,
the state that numpy's own ``PCG64(seed)`` starts from, and `_lockstep_random`
steps all of them at once to ``Generator.random``'s uniforms, in place.
`_per_row_random` draws the same uniforms a row at a time through one
``Generator``.  `generators._draw_batch` picks between the two.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def splitmix64(x):
    """SplitMix64 finalizer, a bijection on 64-bit integers.

    `x` is a Python int or a uint64 array, whose arithmetic wraps mod 2^64.
    """
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(master_seed: int, index: int) -> int:
    """Per-trial seed: splitmix64(splitmix64(master) + index).

    Injective in `index` for a fixed master seed, so trials never share a
    stream.  This mapping is part of the report-reproducibility contract.
    """
    return splitmix64((splitmix64(master_seed & _MASK64) + index) & _MASK64)


def mix_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """``mix_seed(master_seed, i)`` for every i in range(start, stop), as uint64."""
    return splitmix64(np.arange(start, stop, dtype=np.uint64) + splitmix64(master_seed & _MASK64))


# numpy's SeedSequence (NEP 19) hashes a seed's uint32 words into a pool of
# four with a multiply-xorshift "hashmix" whose multiplier is itself stepped
# by a constant on every call, then hashes the pool into output words the
# same way from a second constant.  PCG64 (O'Neill 2014) takes four uint64
# output words as its initial state and stream and runs two LCG steps.
_HASH_POOL = (0x43B0D7E5, 0x931E8875)
_HASH_OUT = (0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init_mult: tuple, count: int) -> list:
    """The (xor, multiplier) constants of `count` successive hashmix calls.

    A call xors its word with the running constant, steps the constant and
    multiplies by the new one.  The chain does not depend on the words.
    """
    h, mult = init_mult
    out = []
    for _ in range(count):
        nxt = h * mult & _MASK32
        out.append((np.uint32(h), np.uint32(nxt)))
        h = nxt
    return out


_POOL_CHAIN = _hash_chain(_HASH_POOL, 16)  # 4 pool fills, then 12 cross mixes
_OUT_CHAIN = _hash_chain(_HASH_OUT, 8)  # 8 uint32 output words = 4 uint64
# The shift and multiplier constants, made once, of the in-place hashes and LCG steps.
_S16 = np.uint32(16)
_MULT_HI, _MULT_LO = (np.uint64(w) for w in divmod(_PCG64_MULT, 1 << 64))
_M1, _M0 = (np.uint64(w) for w in divmod(_PCG64_MULT & _MASK64, 1 << 32))
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)


def _hashmix(words: np.ndarray, constants: tuple, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """One hashmix of uint32 `words` into `out` (which may be `words`); `work` is scratch."""
    xor, mult = constants
    np.bitwise_xor(words, xor, out=out)
    out *= mult
    out ^= np.right_shift(out, _S16, out=work)
    return out


def seed_words(seeds) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of every uint64 seed s.

    A seed is its little-endian uint32 words, one below 2^32 and two above.
    The pool pads them with zeros to four words, so a seed below 2^32 hashes
    as if its high word were 0.  Returns a (len(seeds), 4) uint64 array, the
    transpose of four rows: the hashes work in place, on a word of every
    seed at a time.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    pool += [np.zeros_like(pool[0]) for _ in range(2)]
    mixed, work = np.empty_like(pool[0]), np.empty_like(pool[0])
    chain = iter(_POOL_CHAIN)
    for word in pool:
        _hashmix(word, next(chain), word, work)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                _hashmix(pool[src], next(chain), mixed, work)
                mixed *= _MIX_R
                pool[dst] *= _MIX_L
                pool[dst] -= mixed
                pool[dst] ^= np.right_shift(pool[dst], _S16, out=work)
    out = [_hashmix(pool[i % 4], c, mixed, work).astype(np.uint64) for i, c in enumerate(_OUT_CHAIN)]
    for lo, hi in zip(out[::2], out[1::2]):
        hi <<= _U32
        hi |= lo
    return np.stack(out[1::2]).T


def _lcg_step(hi, lo, inc_hi, inc_lo, work) -> None:
    """One step of PCG64's LCG on every row, in place: (hi, lo) becomes the
    128-bit (hi·2^64 + lo)·MULT + (inc_hi·2^64 + inc_lo) mod 2^128.

    Every operand is a uint64 array, since numpy < 2 promotes uint64 mixed
    with int64, or with a Python int when both are scalars, to float64;
    `work` is three more that the step overwrites.  The high word of
    lo·MULT_LO comes from 32-bit halves, lo = l1·2^32 + l0 and MULT_LO =
    m1·2^32 + m0, and the low word's add carries when its sum wraps.
    """
    l0, l1, cross = work
    hi *= _MULT_LO
    hi += np.multiply(lo, _MULT_HI, out=l0)
    hi += inc_hi
    np.bitwise_and(lo, _LOW32, out=l0)
    np.right_shift(lo, _U32, out=l1)
    np.multiply(l0, _M0, out=cross)
    cross >>= _U32
    l0 *= _M1
    cross += l0  # (l0·m0 >> 32) + l0·m1
    np.multiply(l1, _M0, out=l0)
    l1 *= _M1
    hi += l1
    hi += np.right_shift(l0, _U32, out=l1)
    l0 &= _LOW32
    cross += l0  # + (l1·m0 & MASK32), at most 2^64 - 1
    hi += np.right_shift(cross, _U32, out=cross)
    lo *= _MULT_LO
    lo += inc_lo
    hi += np.less(lo, inc_lo, out=cross)


def pcg64_states(seeds) -> np.ndarray:
    """The state and increment of ``PCG64(s)`` for every uint64 seed s.

    With ``seed_words(s) = (a, b, c, d)``, PCG64 takes initstate = a·2^64 + b
    and initseq = c·2^64 + d, sets inc = 2·initseq + 1 and steps its LCG
    twice from 0, adding initstate in between: state =
    (inc + initstate)·MULT + inc mod 2^128.  Returns a (len(seeds), 4)
    uint64 array of state high, state low, inc high and inc low words, the
    form `_draw_batch` reads its rows from, as the transpose of four rows.
    """
    a, b, c, d = words = seed_words(seeds).T
    states = np.empty_like(words)
    hi, lo, inc_hi, inc_lo = states
    np.left_shift(c, _U1, out=inc_hi)
    inc_hi |= d >> _U63
    np.left_shift(d, _U1, out=inc_lo)
    inc_lo |= _U1
    np.add(inc_lo, b, out=lo)
    np.add(inc_hi, a, out=hi)
    hi += lo < inc_lo
    _lcg_step(hi, lo, inc_hi, inc_lo, words[:3])
    return states.T


def _pcg64_state(row: np.ndarray) -> dict:
    """The ``PCG64.state`` dict of one row of `pcg64_states`."""
    state_hi, state_lo, inc_hi, inc_lo = row.tolist()
    return {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _lockstep_random(states: np.ndarray, width: int) -> np.ndarray:
    """`width` uniforms of every row of `states`, all rows stepped at once.

    Each step runs every row's LCG in uint64 limbs, then PCG64's XSL-RR
    output (the xor of the new state's words, rotated right by its top six
    bits) and ``Generator.random``'s (x >> 11)·2^-53, all in place in work
    arrays allocated once.  A step's uniforms are one contiguous row of a
    (width, rows) array: the (rows, width) array returned is its
    transpose, step-major.
    """
    hi, lo, inc_hi, inc_lo = (np.array(words) for words in states.T)
    x, rot, tail = work = [np.empty_like(hi) for _ in range(3)]
    u = np.empty((width, len(states)))
    for draws in u:
        _lcg_step(hi, lo, inc_hi, inc_lo, work)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, _U58, out=rot)
        np.right_shift(x, rot, out=tail)
        np.subtract(_U64, rot, out=rot)
        rot &= _U63  # no shift by 64 when rot = 0
        x <<= rot
        x |= tail
        x >>= _U11
        # Below 2^53, so its int64 view is the same number, which converts faster.
        np.multiply(x.view(np.int64), 2.0**-53, out=draws)
    return u.T


def _per_row_random(gen: np.random.Generator, states: np.ndarray, width: int) -> np.ndarray:
    """`width` uniforms of every row of `states`, one row at a time through `gen`.

    Each row's state is assigned to gen's PCG64 before its draw.  Returns a
    (rows, width) array.
    """
    bitgen = gen.bit_generator
    u = np.empty((len(states), width))
    for row, state in zip(u, map(_pcg64_state, states)):
        bitgen.state = state
        gen.random(out=row)
    return u
