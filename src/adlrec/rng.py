"""Seeded counter-based randomness with stable named substreams.

Every stochastic component draws from a Philox generator keyed by the root
seed plus a hashed stream label, so independent units (trees, folds,
segments) get reproducible streams regardless of execution order.
"""

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1


def _digest(prefix: bytes, parts) -> int:
    """First 8 bytes of sha256(prefix + each part followed by 0x1f), big-endian."""
    digest = hashlib.sha256(prefix)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest()[:8], "big")


def make_generator(seed: int, *parts) -> np.random.Generator:
    """Philox keyed by the seed (high 64 bits) and the stream label's digest."""
    key = ((int(seed) & MASK64) << 64) | _digest(b"", parts)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *parts) -> int:
    """A new 64-bit seed deterministically derived from (seed, parts)."""
    return _digest((int(seed) & MASK64).to_bytes(8, "big"), parts)
