"""Seeded xorshift64* generator used for all randomized sample placement.

A fixed, documented algorithm (rather than numpy's default generator) so
that identical seeds give byte-identical outputs regardless of the numpy
version installed.
"""

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717


class XorShift64Star:
    """xorshift64* with the standard (12, 25, 27) shift triple."""

    def __init__(self, seed):
        seed = int(seed) & _MASK
        # the all-zero state is a fixed point of the xorshift map
        self._state = seed if seed != 0 else 0x9E3779B97F4A7C15

    def next_u64(self):
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK

    def uniform(self, lo=0.0, hi=1.0):
        u = self.next_u64() / 2.0**64
        return lo + (hi - lo) * u

    def uniforms(self, n, lo=0.0, hi=1.0):
        return [self.uniform(lo, hi) for _ in range(n)]
