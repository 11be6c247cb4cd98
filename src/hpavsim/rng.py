"""Seeded, splittable PRNG used by the deployment generator and the MAC simulator.

The algorithm is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter that
advances by a fixed odd gamma, pushed through a 2-round xor-shift-multiply
finalizer. It is trivially reimplementable in any language from the constants
below, which is why trace files and simulation runs seeded with it stay
reproducible across ports. Streams are split by a caller-chosen index (e.g.
the ordinal of a directed link) so generation order never matters.

Name/version recorded in trace metadata: ``splitmix64`` / ``1``.
"""

ALGORITHM_NAME = "splitmix64"
ALGORITHM_VERSION = "1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, rounded to odd
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64 output finalizer on a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """One deterministic stream of 64-bit words.

    ``SplitMix64(seed, stream)`` and ``SplitMix64(seed, other_stream)`` are
    independent for distinct stream indices; draws within a stream are
    sequential.
    """

    def __init__(self, seed: int, stream: int = 0):
        # Decorrelate the stream index from the seed before use; without the
        # mix, nearby (seed, stream) pairs would start on overlapping walks.
        self._state = _mix64((seed & _MASK64) ^ _mix64((stream * _GAMMA) & _MASK64))

    # next_u64 and randbelow inline _mix64: they are the simulator's and the
    # generator's hottest calls, and the state is already a 64-bit word.

    def next_u64(self) -> int:
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        z = self._state
        while True:
            z = (z + _GAMMA) & _MASK64
            v = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            v = ((v ^ (v >> 27)) * _MIX2) & _MASK64
            v = (v ^ (v >> 31)) & mask
            if v < n:
                self._state = z
                return v

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("randint() requires lo <= hi")
        return lo + self.randbelow(hi - lo + 1)
