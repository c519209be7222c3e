"""Deterministic, hierarchical random-number management.

Every stochastic component in the library (dataset noise, ICL example
selection, LM logit jitter, sampling, hyperparameter search, tuners) draws
its randomness from an explicit integer seed derived through a named
hierarchy.  Two runs with the same root seed therefore produce bit-identical
results regardless of execution order or parallelism, which is what lets the
benchmark harness reproduce the paper's tables deterministically.

The scheme hashes ``(parent_seed, *path)`` with BLAKE2 rather than using
``numpy.random.SeedSequence.spawn`` so that derivation is *stateless*:
deriving ``("experiment", 3, "sampling")`` yields the same child seed no
matter how many siblings were derived before it.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "rng_from", "SeedSequenceTree"]

_MASK64 = (1 << 64) - 1


def derive_seed(parent: int, *path: object) -> int:
    """Derive a child seed from ``parent`` and a hashable derivation path.

    Parameters
    ----------
    parent:
        The parent seed (any Python int; reduced modulo 2**64).
    path:
        Arbitrary path components (ints, strings, ...).  Components are
        rendered with ``repr`` and joined, so distinct paths collide only
        with cryptographic improbability.

    Returns
    -------
    int
        A uniformly distributed 63-bit seed (non-negative, fits ``int64``).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(parent & _MASK64).encode("ascii"))
    for part in path:
        h.update(b"/")
        h.update(repr(part).encode("utf-8", errors="backslashreplace"))
    return int.from_bytes(h.digest(), "little") >> 1


def rng_from(parent: int, *path: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` seeded by a derived seed."""
    return np.random.default_rng(derive_seed(parent, *path))


class SeedSequenceTree:
    """A named node in a deterministic seed-derivation tree.

    Examples
    --------
    >>> root = SeedSequenceTree(1234)
    >>> child = root.child("dataset", "SM")
    >>> rng = child.rng("noise")
    >>> child.seed == SeedSequenceTree(1234).child("dataset", "SM").seed
    True
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = int(seed) & _MASK64

    def child(self, *path: object) -> "SeedSequenceTree":
        """Return the child node reached by ``path``."""
        return SeedSequenceTree(derive_seed(self.seed, *path))

    def rng(self, *path: object) -> np.random.Generator:
        """Return a generator for the (optionally pathed) child node."""
        if path:
            return rng_from(self.seed, *path)
        return np.random.default_rng(self.seed)

    def spawn(self, n: int, *path: object) -> list["SeedSequenceTree"]:
        """Return ``n`` children indexed ``0..n-1`` beneath ``path``."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        return [self.child(*path, i) for i in range(n)]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeedSequenceTree) and other.seed == self.seed

    def __hash__(self) -> int:
        return hash(("SeedSequenceTree", self.seed))

    def __repr__(self) -> str:
        return f"SeedSequenceTree(seed={self.seed})"
