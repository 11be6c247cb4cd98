"""Seeded, splittable PRNG used by the deployment generator and the MAC simulator.

The algorithm is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter that
advances by a fixed odd gamma, pushed through a 2-round xor-shift-multiply
finalizer. It is trivially reimplementable in any language from the constants
below, which is why trace files and simulation runs seeded with it stay
reproducible across ports. Streams are split by a caller-chosen index (e.g.
the ordinal of a directed link) so generation order never matters.

``randbelow`` draws one value, as the MAC engine needs. ``randbelow_bytes``
draws a run of values below n <= 256 at once, as the deployment generator
needs: it mixes the words of a batch together in one big int and does every
per-draw step with C-level ``bytes`` operations, giving the same values and
leaving the same state as that many ``randbelow`` calls.

Name/version recorded in trace metadata: ``splitmix64`` / ``1``.
"""

from functools import lru_cache

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


# most words randbelow_bytes mixes in one batch
_BATCH = 2048

# _LOW_BITS[k] maps a byte to its low k bits
_LOW_BITS = [bytes(i & ((1 << k) - 1) for i in range(256)) for k in range(9)]


@lru_cache(maxsize=1)
def _lane_constants():
    """``(ones, low64, steps)`` over _BATCH 128-bit lanes: lane i holds 1 in
    ``ones``, 2^64 - 1 in ``low64`` and (i + 1) * gamma mod 2^64 in ``steps``."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BATCH, "little")
    steps = b"".join(
        ((i * _GAMMA) & _MASK64).to_bytes(16, "little") for i in range(1, _BATCH + 1)
    )
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


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

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        z = self._state
        # _mix64 inlined: the MAC engine draws every backoff through this call
        while True:
            z = (z + _GAMMA) & _MASK64
            v = ((z ^ (z >> 30)) * _MIX1) & _MASK64
            v = ((v ^ (v >> 27)) * _MIX2) & _MASK64
            v = (v ^ (v >> 31)) & mask
            if v < n:
                self._state = z
                return v

    def randbelow_bytes(self, n: int, count: int) -> bytes:
        """``count`` successive ``randbelow(n)`` draws as bytes, for
        1 <= n <= 256, leaving the state where those calls would.

        The next counter states are mixed a batch at a time, each word in its
        own 128-bit lane of one int: a few big-int operations per batch in
        place of a dozen int operations per word. A 64-bit word times a 64-bit
        constant fits in its lane, and every shift is masked back to 64 bits
        before the next multiply, so no lane disturbs another. A draw needs
        only its word's low byte: one slice takes every lane's, one
        ``translate`` masks them and a second drops the rejected ones.
        """
        if not 1 <= n <= 256:
            raise ValueError("randbelow_bytes() requires 1 <= n <= 256")
        if n == 1:
            return bytes(count)
        bits = (n - 1).bit_length()
        low_bits = _LOW_BITS[bits]
        rejected = bytes(range(n, 256))
        all_ones, all_low64, all_steps = _lane_constants()
        z = self._state
        chunks = []
        need = count
        while need:
            # the expected number of words for `need` draws, and a few spare
            lanes = min(_BATCH, (need << bits) // n + 16)
            keep = (1 << (128 * lanes)) - 1
            low64 = all_low64 & keep
            w = (z * (all_ones & keep) + (all_steps & keep)) & low64  # lane i: z + (i+1) gamma
            w = (((w ^ (w >> 30)) & low64) * _MIX1) & low64
            w = (((w ^ (w >> 27)) & low64) * _MIX2) & low64
            masked = (w ^ (w >> 31)).to_bytes(16 * lanes, "little")[::16].translate(low_bits)
            accepted = masked.translate(None, rejected)
            used = lanes
            if len(accepted) >= need:
                # walk back from the last lane to the one that gave draw `need`
                spare = len(accepted) - need
                while True:
                    used -= 1
                    if masked[used] < n:
                        if not spare:
                            break
                        spare -= 1
                used += 1
                accepted = accepted[:need]
            chunks.append(accepted)
            need -= len(accepted)
            z = (z + used * _GAMMA) & _MASK64
        self._state = z
        return b"".join(chunks)
