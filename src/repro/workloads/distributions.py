"""Sampling distributions for workload generation."""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Sequence

from repro.config import KB


class ZipfSampler:
    """Zipf-distributed integers in ``[0, n)`` via an exact inverse CDF.

    Rank ``r`` has probability proportional to ``1 / (r + 1) ** alpha``.
    Higher ``alpha`` means more skew (hotter hot keys); ``alpha == 0`` is
    uniform.
    """

    def __init__(self, n: int, alpha: float = 1.0):
        if n < 1:
            raise ValueError("n must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.n = n
        self.alpha = alpha
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = sum(weights)
        self._cdf = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random())

    def probability(self, rank: int) -> float:
        """Exact probability mass of ``rank``."""
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - previous


class SizeSampler:
    """Deterministic per-key item sizes from a weighted bucket mix.

    Sizes are a *property of the key* (the same blob always has the same
    size), so the sampler hashes the key rather than drawing randomly.
    The default mix reproduces the paper's statistic that 80 % of items
    are no larger than 12 KB.
    """

    #: (size_bytes, weight) — cumulative 80 % at <= 12 KB.
    DEFAULT_BUCKETS: Sequence = (
        (512, 0.15),
        (1 * KB, 0.20),
        (2 * KB, 0.15),
        (4 * KB, 0.15),
        (8 * KB, 0.10),
        (12 * KB, 0.05),
        (32 * KB, 0.08),
        (64 * KB, 0.07),
        (256 * KB, 0.05),
    )

    def __init__(self, buckets: Sequence = DEFAULT_BUCKETS, scale: float = 1.0):
        total = sum(weight for _size, weight in buckets)
        self._cdf = []
        acc = 0.0
        for size, weight in buckets:
            acc += weight / total
            self._cdf.append((acc, int(size * scale)))

    def size_of(self, key: str) -> int:
        point = int.from_bytes(
            hashlib.md5(key.encode()).digest()[:4], "big") / 2 ** 32
        for threshold, bucket_size in self._cdf:
            if point <= threshold:
                return bucket_size
        return self._cdf[-1][1]


def is_read_only(key: str, fraction: float = 0.05) -> bool:
    """Deterministically mark ~``fraction`` of keys as read-only objects.

    The paper reports 5 % of objects in the Azure traces are read-only.
    """
    point = int.from_bytes(
        hashlib.md5(f"ro:{key}".encode()).digest()[:4], "big") / 2 ** 32
    return point < fraction
