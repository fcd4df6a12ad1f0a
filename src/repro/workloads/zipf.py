"""Zipf popularity sampling.

Internet flow popularity is famously heavy-tailed: a few flows (and a few
rules) carry most packets.  The cache-miss experiments rely on this, so
the sampler is exact (inverse-CDF over the normalized Zipf weights) and
deterministic for a given seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["ZipfSampler", "zipf_cdf"]


def _build_cdf(n: int, alpha: float) -> np.ndarray:
    # One array, every step in place: at 10^6 hosts each temporary would
    # add 8 MB to the run's peak.  Byte-equal to
    # ``cumsum(1.0 / power(arange, alpha))`` (tests/test_streaming.py).
    cdf = np.arange(1, n + 1, dtype=np.float64)
    np.power(cdf, alpha, out=cdf)
    np.divide(1.0, cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf


def zipf_cdf(n: int, alpha: float) -> np.ndarray:
    """The normalized Zipf CDF for ``(n, alpha)``, cached across samplers.

    Constructing the CDF is O(n) and was re-run by every sampler — at
    streaming scale (n ≈ 10^6 hosts, one sampler per epoch) that
    re-derivation dominated generation.  The artifact cache memoizes it
    by content address; the returned array is shared and read-only.
    """
    from repro.parallel.cache import artifact_cache

    cdf = artifact_cache().get(
        "zipf-cdf", {"n": n, "alpha": float(alpha)}, lambda: _build_cdf(n, alpha)
    )
    # Re-assert on every hit: a disk-tier pickle round-trip restores
    # writability, and samplers must never mutate the shared array.
    cdf.setflags(write=False)
    return cdf


class ZipfSampler:
    """Sample ranks ``0..n-1`` with probability proportional to ``1/(r+1)^alpha``.

    Parameters
    ----------
    n:
        Number of distinct items.
    alpha:
        Skew; 0 = uniform, ≈1 = classic Zipf, >1 = very heavy head.
    seed:
        RNG seed (numpy Generator).
    shuffle:
        When True, ranks are randomly permuted so popularity is not
        correlated with item index (rule priority); default False keeps
        rank 0 the most popular.
    """

    def __init__(self, n: int, alpha: float = 1.0, seed: int = 0, shuffle: bool = False):
        if n < 1:
            raise ValueError(f"need at least one item, got n={n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.n = n
        self.alpha = alpha
        self._cdf = zipf_cdf(n, alpha)
        self._rng = np.random.default_rng(seed)
        if shuffle:
            permutation = self._rng.permutation(n)
        else:
            permutation = np.arange(n)
        self._permutation = permutation

    def probability(self, rank: int) -> float:
        """The sampling probability of popularity rank ``rank``."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range")
        low = self._cdf[rank - 1] if rank else 0.0
        return float(self._cdf[rank] - low)

    def sample_many(self, count: int) -> List[int]:
        """``count`` item indices (vectorized).

        The same indices, in order, as ``count`` one-at-a-time draws from
        this sampler's Generator.
        """
        draws = self._rng.random(count)
        return self._permutation[np.searchsorted(self._cdf, draws)].tolist()
