"""Counter-based splittable RNG.

Streams are keyed by (seed, trial index) and advance a block counter
through blake2b, so trials are independent, reproducible and safe to
run in parallel. No global state.

Block i is the 8-byte blake2b digest of i (8 bytes, little-endian) keyed
by seed and trial. A stream keys one hash and copies it per block: the
same digest as a freshly keyed hash, without keying per draw.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


class TrialRng:
    def __init__(self, seed: int, trial: int = 0):
        key = seed.to_bytes(8, "little", signed=False) + trial.to_bytes(8, "little")
        self._keyed = hashlib.blake2b(key=key, digest_size=8)
        self._counter = 0

    def _block(self) -> bytes:
        h = self._keyed.copy()
        h.update(self._counter.to_bytes(8, "little"))
        self._counter += 1
        return h.digest()

    def u64(self) -> int:
        return int.from_bytes(self._block(), "little")

    def uniform(self) -> float:
        """Float in (0, 1) with 53 random bits (0 is nudged up)."""
        u = (self.u64() >> 11) * (2.0 ** -53)
        return u if u > 0.0 else 2.0 ** -54

    def bernoulli(self, p: Fraction) -> bool:
        # exact comparison: u < p over 64 bits of randomness
        u = self.u64()
        return u * p.denominator < p.numerator << 64

    def unif_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.u64()
            if u < limit:
                return lo + (u % span)

    def laplace_offset(self, eps: float) -> int:
        """Integer k with Pr[k] proportional to exp(-eps * |k|).

        Single-draw inverse CDF. With q = exp(-eps) the tails are
        Pr[K <= -m] = Pr[K >= m] = q^m / (1+q), so:
          u*(1+q) in [q^(m+1), q^m)       -> K = -m   (left side, m >= 0)
          (1-u)*(1+q) in (q^(m+1), q^m]   -> K = +m   (right side, m >= 1)
        """
        if eps <= 0:
            raise ValueError("scale must be positive")
        q = math.exp(-eps)
        log_q = -eps
        u = self.uniform()
        c = u * (1.0 + q)
        if c < 1.0:
            t = math.log(c) / log_q          # > 0
            return -(math.ceil(t) - 1)
        d = (1.0 - u) * (1.0 + q)            # in (0, q]
        if d <= 0.0:
            d = 5e-324
        s = math.log(d) / log_q              # >= 1
        return max(1, math.floor(s))
