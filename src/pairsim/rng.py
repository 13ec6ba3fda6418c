"""Deterministic random streams keyed by (seed, stage tag, index, ...).

Every stochastic operation in this package draws from a Philox4x64-10
counter-based generator whose 128-bit key is a hash of the stream
coordinates. Streams are independent of each other and of iteration
order: the draws for item 17 do not change when items are processed in
a different order, when other items are added, or when an unrelated
stage consumes more randomness.

A stage draws in one of two ways: one batch pass over every item, or,
for draws with no array form (``Generator.beta``'s rejection sampler,
``choice`` over a varying population), :func:`stream` per item. Philox
output depends only on its key and its counter (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3"): 64-bit word j of a
stream is word j % 4 of the cipher block that the key encrypts from the
counter ``[j // 4 + 1, 0, 0, 0]``. So a batch pass takes every item's
key from :func:`stream_keys` and computes the words of all items at
once with :func:`philox_words`, a numpy array version of numpy's
Philox; :func:`doubles` and :func:`bounded_draws` turn words into the
values ``Generator.random`` and ``Generator.integers`` return. The
doubles are those of ``stream(*parts, i)``, bit for bit.

A bounded integer in [0, rng] is the multiply-shift ``(half * (rng + 1))
>> 32`` of a word's low, then high, 32-bit half, as in numpy's rule
(Lemire 2019, "Fast random integer generation in an interval") but
without its rejection step, so every stream of a stage takes a fixed
number of words. It is the stream's ``Generator.integers`` value up to
the first half numpy rejects, each with probability below (rng + 1) /
2**32, and each value's probability is within that of uniform.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

KeyPart = Union[int, str]

# an int key part is hashed as 16 signed bytes; CPython does not fold 2**127
_KEY_INT_BOUND = 2**127


def check_key_int(value: int, name: str = "stream key part") -> None:
    """Reject a value that cannot be an int stream key part: anything but
    an int (a bool is not one, as in a JSON config), or an int outside the
    signed 128-bit range, since each is hashed as 16 signed bytes;
    ``name`` says what the value is in the error."""
    if type(value) is bool or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not -_KEY_INT_BOUND <= value < _KEY_INT_BOUND:
        raise ValueError(f"{name} {value} outside the signed 128-bit range [-2**127, 2**127)")


def _int_part(value: int) -> bytes:
    """The bytes an int key part adds to the hash."""
    check_key_int(value)
    return b"i" + value.to_bytes(16, "little", signed=True)


def _key_hash(parts: tuple[KeyPart, ...]) -> hashlib.blake2b:
    """The hash of the stream coordinates ``parts``. Its digest, read
    little-endian, is the stream's Philox key."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, (int, np.integer)) and not isinstance(part, bool):
            h.update(_int_part(int(part)))
        elif isinstance(part, str):
            data = part.encode("utf-8")
            h.update(b"s" + len(data).to_bytes(4, "little") + data)
        else:
            raise TypeError(
                f"stream key parts must be int or str, got {type(part).__name__}"
            )
    return h


def stream(*parts: KeyPart) -> np.random.Generator:
    """Return the generator for the stream addressed by ``parts``.

    Parts may be ints (seeds, item indices, slots) or short strings
    (stage tags). The same parts always yield the same stream.
    """
    key = int.from_bytes(_key_hash(parts).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def stream_keys(*parts: KeyPart, count: int) -> np.ndarray:
    """The Philox keys of ``stream(*parts, i)`` for ``i`` in ``range(count)``,
    as a ``(count, 2)`` uint64 array (low word first)."""
    prefix = _key_hash(parts)
    digests = bytearray()
    for i in range(count):
        h = prefix.copy()
        # _int_part(i) without its range check: 0 <= i < count
        h.update(b"i" + i.to_bytes(16, "little"))
        digests += h.digest()
    return np.frombuffer(digests, dtype="<u8").astype(np.uint64).reshape(count, 2)


# Philox4x64-10 constants (Salmon et al. 2011, as in numpy's philox.h).
# Every constant is a np.uint64, so the arithmetic stays uint64 under
# numpy's older value-based promotion too.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_11 = np.uint64(11)


def _mulhilo(m: np.uint64, x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             t: np.ndarray, u: np.ndarray) -> None:
    """Write the high and low 64-bit words of the 128-bit products ``m * x``
    into ``hi`` and ``lo``, from products of 32-bit halves, none of which
    overflows, and no sum either (the carry chain of Hacker's Delight's
    ``mulhu``); ``t`` and ``u`` are scratch. No argument may share memory
    with another."""
    m_lo, m_hi = m & _LOW32, m >> _32
    np.bitwise_and(x, _LOW32, out=t)
    np.multiply(t, m_hi, out=u)
    np.multiply(t, m_lo, out=t)
    np.right_shift(t, _32, out=t)
    np.right_shift(x, _32, out=hi)
    np.multiply(hi, m_lo, out=lo)
    np.add(t, lo, out=t)  # x_hi * m_lo + (x_lo * m_lo >> 32)
    np.multiply(hi, m_hi, out=hi)
    np.bitwise_and(t, _LOW32, out=lo)
    np.add(u, lo, out=u)  # x_lo * m_hi + (t & low 32 bits)
    np.right_shift(t, _32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(u, _32, out=u)
    np.add(hi, u, out=hi)
    np.multiply(x, m, out=lo)


def philox_words(keys: np.ndarray, n: int) -> np.ndarray:
    """Each key's first ``n`` 64-bit Philox4x64-10 outputs: row ``i`` is
    ``stream(...).bit_generator.random_raw(n)`` of the stream whose key
    is ``keys[i]``, as a ``(len(keys), n)`` uint64 array.

    Each round writes into arrays allocated once: the four counter words,
    the four products and two scratch arrays."""
    keys = np.asarray(keys, dtype=np.uint64)
    k0 = keys[:, :1].copy()
    k1 = keys[:, 1:].copy()
    blocks = -(-n // 4)
    x0, x1, x2, x3, hi0, lo0, hi1, lo1, t, u = np.zeros((10, len(keys), blocks), dtype=np.uint64)
    # numpy increments the counter before each block: block b uses b + 1
    x0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    for r in range(10):
        if r:
            k0 += _W0
            k1 += _W1
        _mulhilo(_M0, x0, hi0, lo0, t, u)
        _mulhilo(_M1, x2, hi1, lo1, t, u)
        np.bitwise_xor(hi1, x1, out=hi1)
        np.bitwise_xor(hi1, k0, out=hi1)
        np.bitwise_xor(hi0, x3, out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        # the new words are (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0); the
        # old ones hold the next round's products
        x0, x1, x2, x3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, x0, x1, x2, x3
    return np.stack([x0, x1, x2, x3], axis=2).reshape(len(keys), 4 * blocks)[:, :n]


def doubles(words: np.ndarray) -> np.ndarray:
    """The doubles in [0, 1) that ``Generator.random`` makes of ``words``,
    one per word."""
    return (words >> _11) * 2.0**-53


def bounded_draws(words: np.ndarray, rng: int) -> np.ndarray:
    """The multiply-shift draws in [0, rng] of ``words``' low, then high,
    32-bit halves, two columns per word (see the module docstring)."""
    if not 0 < rng < 2**32 - 1:
        raise ValueError(f"bounded draw range {rng} outside (0, 2**32 - 1)")
    halves = np.stack([words & _LOW32, words >> _32], axis=-1)
    halves = halves.reshape(*words.shape[:-1], 2 * words.shape[-1])
    return ((halves * np.uint64(rng + 1)) >> _32).astype(np.int64)
