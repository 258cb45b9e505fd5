"""Counter-based random streams.

Every stochastic routine in the package draws from a stream keyed by
``(master_seed, replication, step)``.  Streams are independent Philox
generators, so serial and parallel execution over replications (or steps)
produce identical draws.

The key of ``substream(seed, *path)`` is NumPy's
``SeedSequence([seed, *path]).generate_state(2, np.uint64)``, and the
stream is Philox from counter 0 under that key.  Philox is counter-based
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): the
key fixes the stream, so a record needs no generator state carried from
one step to the next.  ``substreams`` uses this to serve the steps of a
record cheaply, with the same draws bit for bit:

- the keys of all steps come from one vectorised pass of SeedSequence's
  uint32 hash (``_keys``), not from one SeedSequence per step;
- one Philox/Generator pair is built per call and re-keyed before each
  step with the state of a freshly built Philox (counter 0, an empty
  output buffer, no cached 32-bit half).

So a generator that ``substreams`` yields is valid for its own step only:
the next step re-keys it.  ``substream`` stays the single-stream API and
the reference that ``substreams`` and ``normal_pairs`` are tested against.

``normal_pairs`` serves a record whose steps k >= 1 each draw two
``standard_normal()`` values, as the continuous models' ``simulate`` does,
without a generator per step.  Those draws are a pure function of the key:

- Philox4x64-10 runs at counter (1, 0, 0, 0), the first block a fresh
  Philox outputs, on the keys of all steps at once (``_philox_words``);
  the 64 x 64 -> 128 multiply is built from 32-bit halves;
- NumPy's ziggurat takes one word per draw on its fast path: ``idx = w &
  0xff``, sign bit 8, ``rabs`` the next 52 bits, ``x = +-rabs wi[idx]``,
  accepted when ``rabs < ki[idx]``, so words 0 and 1 give the two draws;
- a step with a word off the fast path (about 3% of steps) is redrawn by
  the scalar generator on its key, which is exact whatever path it takes.

``wi`` is read from the installed NumPy by feeding it chosen words through
Philox's output buffer; ``ki`` is a conservative bound derived from the
``wi`` ratios, so a word it passes is on NumPy's fast path.  At first use a
few fixed keys are compared with the scalar generator; if they differ,
every ``ki`` is 0 and every step takes the scalar fallback.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, the multipliers of its input hash (A), output hash (B) and mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
# Philox4x64's round multipliers of counter words 0 and 2, and its key bumps
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
_PHILOX_ROUNDS = 10
_LO32, _SHIFT32 = np.uint64(_MASK), np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a fresh generator for the given (seed, *path) key."""
    ss = np.random.SeedSequence(_words(seed, *path))  # hashes as SeedSequence([seed, *path])
    return np.random.Generator(np.random.Philox(ss))


def substreams(seed: int, *path: int, n: int):
    """Yield, for k = 0..n-1 in order, a generator whose draws equal those of
    ``substream(seed, *path, k)``.

    Every yielded generator is the same object, re-keyed per step: draw
    from it before asking for the next, and do not keep it past its step.
    """
    # the keys are hashed here, so a bad entry raises now, not at the first step
    return _rekeyed(_keys(seed, path, np.arange(n)))


def normal_pairs(seed, *path, n):
    """Return ``(first, pairs)`` for the n >= 1 steps of a record: ``first``
    is a generator whose draws equal those of ``substream(seed, *path, 0)``,
    and row k - 1 of the (n - 1, 2) float array ``pairs`` holds the first two
    ``standard_normal()`` draws of ``substream(seed, *path, k)``."""
    keys = _keys(seed, path, np.arange(n))
    pairs, slow = _fast_pairs(keys[1:], *_ziggurat())
    # the steps off the fast path first, then step 0, on one generator
    gens = _rekeyed(np.concatenate([keys[1:][slow], keys[:1]]))
    for i, gen in zip(np.flatnonzero(slow), gens):
        pairs[i] = gen.standard_normal(2)
    return next(gens), pairs


def _rekeyed(keys):
    bit = np.random.Philox(0)  # Philox(key=...) would draw OS entropy first
    gen = np.random.Generator(bit)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in keys:
        fresh["state"]["key"] = key
        bit.state = fresh
        yield gen


def _words(*entries):
    """The uint32 words SeedSequence takes from its entropy entries, low
    first within each.  An entry is a non-negative integer of any size and
    integer type (``operator.index``): a float raises TypeError rather than
    being truncated."""
    words = []
    for value in map(operator.index, entries):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK)
        while value > _MASK:
            value >>= 32
            words.append(value & _MASK)
    return words


def _keys(seed, path, ks):
    """Philox keys of ``substream(seed, *path, k)`` for every k of ``ks``:
    ``SeedSequence([seed, *path, k]).generate_state(2, np.uint64)`` as a
    (len(ks), 2) uint64 array, from one pass of the hash over ``ks``."""
    ks = np.asarray(ks)
    if ks.size and ks.min() < 0:
        raise ValueError("expected non-negative integer")
    ks = ks.astype(np.uint64)
    prefix = _words(seed, *path)
    keys = np.empty((len(ks), 2), np.uint64)
    # an entry of 2^32 or more adds a word: hash each entropy length apart
    wide = ks > _MASK
    for rows in (~wide, wide):
        if rows.any():
            k = ks[rows]
            tail = [k & _MASK, k >> 32] if rows is wide else [k]
            columns = [np.full(len(k), w, np.uint32) for w in prefix]
            keys[rows] = _hash_columns(columns + [t.astype(np.uint32) for t in tail])
    return keys


def _hash_columns(entropy):
    """SeedSequence's pool mixing and ``generate_state(2, np.uint64)`` for
    rows of entropy words: ``entropy`` is a list of uint32 columns, one per
    word; the hash constants are the same for every row."""
    const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK
        value = value * np.uint32(const)
        return value ^ value >> 16

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> 16

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B  # generate_state hashes the pool words with its own constants
    w = [hashmix(word, _MULT_B).astype(np.uint64) for word in pool]
    return np.column_stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)])


def _philox_words(keys):
    """Words 0 and 1 of Philox4x64-10's block at counter (1, 0, 0, 0) under
    each row of the (n, 2) uint64 ``keys``, as a (2, n) uint64 array."""
    key = keys.T.copy()
    # counter words 0 and 2, and 1 and 3: the first round maps the counter
    # (1, 0, 0, 0) to (k0, 0, k1, M0)
    even, odd = key.copy(), np.array([[0], _PHILOX_M[0]], np.uint64)
    for _ in range(_PHILOX_ROUNDS - 1):
        key += _PHILOX_W
        hi, lo = _mulhilo(even)
        # a round maps (c0, c1, c2, c3) to (hi1^c1^k0, lo1, hi0^c3^k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even[0], odd[0]])


def _mulhilo(b):
    """The high and low 64-bit words of ``_PHILOX_M * b``, elementwise, for
    a (2, n) uint64 array, from products of 32-bit halves."""
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    lo_lo, hi_lo = _M_LO * b_lo, _M_HI * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LO32) + _M_LO * b_hi  # below 2^64
    return _M_HI * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), _PHILOX_M * b


def _fast_pairs(keys, wi, ki):
    """The first two ``standard_normal()`` draws under each key, as an
    (n, 2) float array, on the ziggurat's fast path, and the (n,) mask of
    the keys whose rows are not on it and must be redrawn."""
    words = _philox_words(keys)
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = words >> np.uint64(9) & np.uint64(2**52 - 1)
    draws = rabs * wi[idx]  # rabs < 2^52 converts exactly
    draws[(words >> np.uint64(8) & np.uint64(1)).astype(bool)] *= -1
    return draws.T, (rabs >= ki[idx]).any(axis=0)


@functools.cache
def _ziggurat():
    """NumPy's ziggurat ``wi``, and a ``ki`` that is at most NumPy's: from
    the ``wi`` ratios, as the ziggurat's own construction derives it, less 2
    for rounding.  All 0 if a few fixed keys do not draw as the scalar
    generator does."""
    bit = np.random.Philox(0)
    gen = np.random.Generator(bit)
    state = bit.state
    state["buffer_pos"] = 0
    wi = np.empty(256)
    # the word of rabs = 1 on layer i draws wi[i], four words to a buffer;
    # layer 1 has ki = 0 and takes the slow path, which reads the next word
    # as a uniform and accepts x = wi[1] at 0
    for layers in [*np.r_[0, 2:256, 0].reshape(64, 4), [1]]:
        state["buffer"] = np.zeros(4, np.uint64)
        state["buffer"][:len(layers)] = np.bitwise_or(1 << 9, layers)
        bit.state = state
        wi[layers] = gen.standard_normal(len(layers))
    ratio = np.concatenate([wi[-1:] / wi[:1], [0.0], wi[1:-1] / wi[2:]])
    ki = (np.floor(ratio * 2**52) - 2).clip(0).astype(np.uint64)
    keys = _keys(0, (), np.arange(16))
    draws, slow = _fast_pairs(keys, wi, ki)
    scalar = np.array([g.standard_normal(2) for g in _rekeyed(keys)])
    if not np.array_equal(draws[~slow], scalar[~slow]):
        ki[:] = 0
    return wi, ki
