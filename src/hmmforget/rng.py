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
the reference that ``substreams`` is tested against.
"""

from __future__ import annotations

import operator

import numpy as np

# SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of 4 uint32
# words, the multipliers of its input hash (A), output hash (B) and mix
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


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
