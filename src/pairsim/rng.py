"""Deterministic random streams keyed by (seed, stage tag, index, ...).

Every stochastic operation in this package draws from a Philox
counter-based generator whose 128-bit key is a hash of the stream
coordinates. Streams are independent of each other and of iteration
order: the draws for item 17 do not change when items are processed in
a different order, when other items are added, or when an unrelated
stage consumes more randomness.

A stage that draws one stream per item uses :func:`streams`, which
reuses one generator: Philox output depends only on its key and
counter (Salmon et al. 2011), so a new key and a zero counter give
exactly the draws of a freshly built generator, without the cost of
building one.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Union

import numpy as np

KeyPart = Union[int, str]


def _key_hash(
    parts: tuple[KeyPart, ...], prefix: hashlib.blake2b | None = None
) -> hashlib.blake2b:
    """The hash of the stream coordinates ``parts``, continuing a copy of
    ``prefix`` (the hash of the coordinates before them) when given. Its
    digest, read little-endian, is the stream's Philox key."""
    h = hashlib.blake2b(digest_size=16) if prefix is None else prefix.copy()
    for part in parts:
        if isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
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


def streams(*parts: KeyPart, count: int) -> Iterator[np.random.Generator]:
    """Yield, for each ``i`` in ``range(count)``, the generator of
    ``stream(*parts, i)``.

    All of them are one reused generator, rekeyed before it is yielded,
    so a yielded generator is valid only until the next one is taken.
    """
    prefix = _key_hash(parts)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    # a fresh generator's state: zero counter, empty output buffer, no
    # half-used 32-bit word; only the key changes from stream to stream
    state = bitgen.state
    for i in range(count):
        digest = _key_hash((i,), prefix).digest()
        state["state"]["key"] = np.frombuffer(digest, dtype="<u8")
        bitgen.state = state
        yield gen
