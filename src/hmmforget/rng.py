"""Counter-based random streams.

Every stochastic routine in the package draws from a stream keyed by
``(master_seed, replication, step)``.  Streams are independent Philox
generators, so serial and parallel execution over replications (or steps)
produce identical draws.

The key of ``substream(seed, *path)`` is NumPy's
``SeedSequence([seed, *path]).generate_state(2, np.uint64)``, and the
stream is Philox from counter 0 under that key.  Philox is counter-based
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11): the
key fixes the stream, so the record passes serve many streams at once,
with the same draws bit for bit.  ``normal_pairs`` and ``uniform_pairs``
give the first two ``standard_normal()`` or ``random()`` draws of every
step k >= 1 of every record of an experiment (one record per path, the
path being the replication), and each record's step 0 its own generator;
one pass serves them all, and record r still reads only the streams
(seed, r, .).  ``normal_rows`` gives the first k ``standard_normal()``
draws of each of n streams.  ``substream`` stays the single-stream API and
their reference:

- the keys of all streams come from one vectorised pass of SeedSequence's
  uint32 hash per entropy length (``_keys``), not from one SeedSequence
  per stream;
- Philox4x64-10 runs on all keys at once, at the counters (1, 0, 0, 0),
  (2, 0, 0, 0), ... whose blocks of four words a fresh Philox outputs in
  turn (``_philox_words``); the 64 x 64 -> 128 multiply is built from
  32-bit halves;
- ``random()`` is ``(word >> 11) 2^-53``, one word a draw;
- NumPy's ziggurat takes one word per draw on its fast path: ``idx = w &
  0xff``, sign bit 8, ``rabs`` the next 52 bits, ``x = +-rabs wi[idx]``,
  accepted when ``rabs < ki[idx]``, so words 0..k-1 give the first k draws;
- a stream with a word off the fast path (about 1.5% of words) is redrawn
  by the scalar generator on its key, which is exact whatever path it
  takes: one Philox/Generator pair re-keyed to the state of a freshly
  built Philox (``_rekeyed``), which then serves each record's step 0,
  in record order.

``wi`` is read from the installed NumPy by feeding it chosen words through
Philox's output buffer; ``ki`` is a conservative bound derived from the
``wi`` ratios, so a word it passes is on NumPy's fast path.  At first use a
few fixed keys are compared with the scalar generator; if they differ,
every ``ki`` is 0 and every stream takes the scalar fallback.
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


def normal_pairs(seed, paths, n):
    """Return ``(firsts, pairs)`` for the n >= 1 steps of one record per path
    of ``paths``: ``pairs[p, k - 1]`` holds the first two ``standard_normal()``
    draws of ``substream(seed, *paths[p], k)``, an (len(paths), n - 1, 2)
    float array, and ``firsts`` yields, path by path, a generator whose draws
    equal those of ``substream(seed, *paths[p], 0)``.  It is one generator,
    re-keyed at each ``next``: draw a record's step 0 before the next one's."""
    keys = _keys(seed, paths, np.arange(n))
    pairs, firsts = _normals(keys[:, 1:].reshape(-1, 2), 2, then=keys[:, 0])
    return firsts, pairs.reshape(len(paths), n - 1, 2)


def normal_rows(seed, *path, n, k):
    """Row i of the (n, k) float array holds the first k ``standard_normal()``
    draws of ``substream(seed, *path, i)``, i = 0..n-1."""
    return _normals(_keys(seed, [path], np.arange(n))[0], k)[0]


def uniform_pairs(seed, paths, n):
    """``normal_pairs`` for ``random()``: the first two draws of steps k >= 1
    are Philox words 0 and 1 as ``(word >> 11) 2^-53``, and no word is
    refused, so no step is redrawn."""
    keys = _keys(seed, paths, np.arange(n))
    words = _philox_words(keys[:, 1:].reshape(-1, 2)) >> np.uint64(11)  # below 2^53: exact
    return _rekeyed(keys[:, 0]), (words.T * 2.0**-53).reshape(len(paths), n - 1, 2)


def _normals(keys, k, then=()):
    """The first k ``standard_normal()`` draws under each row of the (n, 2)
    uint64 ``keys``, as an (n, k) float array, and an iterator that re-keys
    the generator which redrew the rows off the fast path to each key of
    ``then`` in turn."""
    draws, slow = _fast_normals(keys, k, *_ziggurat())
    # the rows off the fast path first, then the keys of ``then``, on one generator
    gens = _rekeyed([*keys[slow], *then])
    for i, gen in zip(np.flatnonzero(slow), gens):
        draws[i] = gen.standard_normal(k)
    return draws, gens


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


def _keys(seed, paths, ks):
    """Philox keys of ``substream(seed, *path, k)`` for every path of
    ``paths`` and k of ``ks``: ``SeedSequence([seed, *path, k])
    .generate_state(2, np.uint64)`` as a (len(paths), len(ks), 2) uint64
    array, from one pass of the hash over the rows of each entropy length.
    A k is a step or stream index, below 2^32, so it is one entropy word."""
    ks = np.asarray(ks)
    if ks.size and ks.min() < 0:
        raise ValueError("expected non-negative integer")
    if ks.size and ks.max() > _MASK:
        raise ValueError("a step or stream index must be below 2^32")
    ks = ks.astype(np.uint32)
    prefixes = [_words(seed, *path) for path in paths]
    keys = np.empty((len(paths), len(ks), 2), np.uint64)
    for length in sorted(set(map(len, prefixes))):
        ps = [p for p, words in enumerate(prefixes) if len(words) == length]
        # a path's words as a column, a k's as a row: the hash broadcasts them
        prefix = np.array([prefixes[p] for p in ps], np.uint32).T[:, :, None]
        keys[ps] = _hash_columns([*prefix, ks])
    return keys


def _hash_columns(entropy):
    """SeedSequence's pool mixing and ``generate_state(2, np.uint64)`` for
    rows of entropy words: ``entropy`` is a list of uint32 arrays, one per
    word, that broadcast together to the rows' shape; the hash constants
    are the same for every row.  The keys come out in that shape, by 2.

    The pool's 4 words are one (4, *shape) array.  SeedSequence hashes one
    value at a time, the i-th hash with constants i and i + 1 of a chain
    (each the last times a multiplier); where it hashes one value for
    several pool words in turn (a source word for the other three, an extra
    entropy word for all four), those hashes are taken in one step."""
    shape = np.broadcast_shapes(*(np.shape(word) for word in entropy))
    extra = entropy[_POOL:]
    chain_a = _chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * len(extra), len(shape))
    chain_b = _chain(_INIT_B, _MULT_B, _POOL, len(shape))

    def hashmix(value, chain):
        # row j of value (or its one row) hashed with chain[j] and chain[j + 1]
        value = (value ^ chain[:-1]) * chain[1:]
        return value ^ value >> 16

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ r >> 16

    pool = np.zeros((_POOL, *shape), np.uint32)
    for i, word in enumerate(entropy[:_POOL]):
        pool[i] = word
    pool, at = hashmix(pool, chain_a[:_POOL + 1]), _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src:src + 1], chain_a[at:at + _POOL]))
        at += _POOL - 1
    for word in extra:
        pool = mix(pool, hashmix(np.asarray(word)[None], chain_a[at:at + _POOL + 1]))
        at += _POOL
    # generate_state hashes the pool words with its own constants
    w = hashmix(pool, chain_b).astype(np.uint64)
    return np.stack([w[0] | w[1] << np.uint64(32), w[2] | w[3] << np.uint64(32)], axis=-1)


def _chain(first, mult, calls, ndim):
    """The calls + 1 constants of SeedSequence's successive hashes, from
    ``first``, as a uint32 column that broadcasts against ndim-d rows."""
    chain = [first]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK)
    return np.array(chain, np.uint32).reshape(-1, *(1,) * ndim)


def _philox_words(keys, k=2):
    """Words 0..k-1 of the Philox4x64-10 stream under each row of the (n, 2)
    uint64 ``keys``: the blocks at counters (1, 0, 0, 0), (2, 0, 0, 0), ...,
    four words each, that a fresh Philox outputs in turn, as a (k, n) uint64
    array."""
    n, blocks = len(keys), -(-k // 4)
    # counter words 0 and 2, and 1 and 3, of every block side by side, each
    # row contiguous; the first round maps the counter (c, 0, 0, 0) to
    # (k0, 0, k1 ^ hi, lo), with hi and lo the words of M0 c
    key = np.repeat(keys.T[:, None], blocks, axis=1).reshape(2, -1)
    m0c = [int(_PHILOX_M[0, 0]) * c for c in range(1, blocks + 1)]
    hi, lo = (np.repeat(np.array([[0] * blocks, w], np.uint64), n, axis=1)
              for w in ([p >> 64 for p in m0c], [p & 2**64 - 1 for p in m0c]))
    even, odd = key ^ hi, lo
    for _ in range(_PHILOX_ROUNDS - 1):
        key += _PHILOX_W
        hi, lo = _mulhilo(even)
        # a round maps (c0, c1, c2, c3) to (hi1^c1^k0, lo1, hi0^c3^k1, lo0)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    words = np.stack([even[0], odd[0], even[1], odd[1]]).reshape(4, blocks, n)
    return words.swapaxes(0, 1).reshape(4 * blocks, n)[:k]


def _mulhilo(b):
    """The high and low 64-bit words of ``_PHILOX_M * b``, elementwise, for
    a (2, n) uint64 array, from products of 32-bit halves."""
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    lo_lo, hi_lo = _M_LO * b_lo, _M_HI * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LO32) + _M_LO * b_hi  # below 2^64
    return _M_HI * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32), _PHILOX_M * b


def _fast_normals(keys, k, wi, ki):
    """The first k ``standard_normal()`` draws under each key, as an (n, k)
    float array, on the ziggurat's fast path, one word each, and the (n,)
    mask of the keys whose rows are not on it and must be redrawn."""
    words = _philox_words(keys, k)
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
    # five draws a key read words of two blocks
    keys = _keys(0, [()], np.arange(16))[0]
    draws, slow = _fast_normals(keys, 5, wi, ki)
    scalar = np.array([g.standard_normal(5) for g in _rekeyed(keys)])
    if not np.array_equal(draws[~slow], scalar[~slow]):
        ki[:] = 0
    return wi, ki
