"""Seeded, splittable PRNG used by the deployment generator and the MAC simulator.

The algorithm is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter that
advances by a fixed odd gamma, pushed through a 2-round xor-shift-multiply
finalizer. It is trivially reimplementable in any language from the constants
below, which is why trace files and simulation runs seeded with it stay
reproducible across ports. Streams are split by a caller-chosen index (e.g.
the ordinal of a directed link) so generation order never matters.

Words are mixed ahead in 128-bit lanes by one lane routine: the next counter
states sit side by side in one big int, and each finalizer step is a few
big-int operations over all of them. ``next_u64`` and ``randbelow`` take words
from one buffer that this routine fills a batch at a time, built only on the
first single draw, with batches that start small and double up to a cap, so a
short-lived stream pays little. ``randbelow_bytes`` draws a run of values below
n <= 256 at once, as the deployment generator needs: it mixes its own batch
from the first unconsumed word, takes each lane's low byte and does every
per-draw step with C-level ``bytes`` operations, giving the same values and
leaving the same state as that many ``randbelow`` calls. ``words`` hands the
buffer's batches to a C-level iterator, for a caller that draws many single
words in a hot loop and cannot afford a method call per word.

Name/version recorded in trace metadata: ``splitmix64`` / ``1``.
"""

from itertools import chain
from math import isqrt
from struct import unpack

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


# most lanes one call of _mixed_lanes takes
_BATCH = 2048
# lanes in the first buffer batch of a stream, and in the largest: a larger cap
# holds more memory per live stream and saves little more time
_BUFFER_FIRST = 8
_BUFFER_CAP = 256

# _LOW_BITS[k] maps a byte to its low k bits
_LOW_BITS = [bytes(i & ((1 << k) - 1) for i in range(256)) for k in range(9)]


# (lanes, ones, low64, steps): the lane constants built so far
_built_constants = (0, 0, 0, 0)


def _lane_constants(lanes: int):
    """``(ones, low64, steps)`` over at least ``lanes`` <= _BATCH 128-bit
    lanes: lane i holds 1 in ``ones``, 2^64 - 1 in ``low64`` and
    (i + 1) * gamma mod 2^64 in ``steps``.

    They are built when a call needs more lanes than were built before, for
    the next power of two of lanes up to _BATCH, so a process whose batches
    stay small builds few lanes and one whose batches grow rebuilds a few
    times at most.
    """
    global _built_constants
    if _built_constants[0] < lanes:
        size = min(_BATCH, 1 << (lanes - 1).bit_length())
        ones = int.from_bytes((b"\x01" + bytes(15)) * size, "little")
        steps = b"".join(
            ((i * _GAMMA) & _MASK64).to_bytes(16, "little") for i in range(1, size + 1)
        )
        _built_constants = (size, ones, ones * _MASK64, int.from_bytes(steps, "little"))
    return _built_constants[1:]


def _mixed_lanes(z: int, lanes: int) -> bytes:
    """The ``lanes`` words that follow counter state z, as 16 little-endian
    bytes per word with the word in the low 8.

    Lane i of one big int holds the counter z + (i + 1) * gamma: a few big-int
    operations per batch in place of a dozen int operations per word. A 64-bit
    word times a 64-bit constant fits in its lane, and every shift is masked
    back to 64 bits before the next multiply, so no lane disturbs another.
    """
    all_ones, all_low64, all_steps = _lane_constants(lanes)
    keep = (1 << (128 * lanes)) - 1
    low64 = all_low64 & keep
    w = (z * (all_ones & keep) + (all_steps & keep)) & low64
    w = (((w ^ (w >> 30)) & low64) * _MIX1) & low64
    w = (((w ^ (w >> 27)) & low64) * _MIX2) & low64
    return (w ^ (w >> 31)).to_bytes(16 * lanes, "little")


class SplitMix64:
    """One deterministic stream of 64-bit words.

    ``SplitMix64(seed, stream)`` and ``SplitMix64(seed, other_stream)`` are
    independent for distinct stream indices; draws within a stream are
    sequential.
    """

    def __init__(self, seed: int, stream: int = 0):
        # Decorrelate the stream index from the seed before use; without the
        # mix, nearby (seed, stream) pairs would start on overlapping walks.
        # The counter state is _base advanced by one gamma per consumed word
        # of the buffer _words.
        self._base = _mix64((seed & _MASK64) ^ _mix64((stream * _GAMMA) & _MASK64))
        self._words = ()
        self._used = 0

    def _refill(self) -> tuple:
        """Fold the used-up buffer into the base and mix the next batch,
        twice as long as the last one, up to the cap."""
        words = self._words
        self._base = (self._base + len(words) * _GAMMA) & _MASK64
        lanes = min(_BUFFER_CAP, 2 * len(words)) or _BUFFER_FIRST
        # each lane's word and its zero high half; keep the words
        self._words = words = unpack(f"<{2 * lanes}Q", _mixed_lanes(self._base, lanes))[::2]
        self._used = 0
        return words

    def next_u64(self) -> int:
        words = self._words
        i = self._used
        if i == len(words):
            words = self._refill()
            i = 0
        self._used = i + 1
        return words[i]

    def words(self):
        """An iterator over the words that successive ``next_u64`` calls
        would give, starting where the stream stands.

        It steps through each buffer batch at C level and refills the buffer
        when a batch runs out, so once it is taken the stream is drawn from
        through it alone.
        """
        return chain.from_iterable(
            chain((self._words[self._used:],), iter(self._refill, None))
        )

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        if n == 1:
            return 0
        mask = (1 << (n - 1).bit_length()) - 1
        words = self._words
        i = self._used
        while True:
            if i == len(words):
                words = self._refill()
                i = 0
            v = words[i] & mask
            i += 1
            if v < n:
                self._used = i
                return v

    def randbelow_bytes(self, n: int, count: int) -> bytes:
        """``count`` successive ``randbelow(n)`` draws as bytes, for
        1 <= n <= 256, leaving the state where those calls would.

        The draws start at the first unconsumed word of the buffer, which is
        dropped, and their words are mixed a batch at a time in lanes of their
        own. A draw needs only its word's low byte: one slice takes every
        lane's, one ``translate`` masks them and a second drops the rejected
        ones.
        """
        if not 1 <= n <= 256:
            raise ValueError("randbelow_bytes() requires 1 <= n <= 256")
        if n == 1:
            return bytes(count)
        bits = (n - 1).bit_length()
        low_bits = _LOW_BITS[bits]
        rejected = bytes(range(n, 256))
        z = (self._base + self._used * _GAMMA) & _MASK64
        chunks = []
        need = count
        while need:
            # the expected number of words for `need` draws plus one standard
            # deviation, sqrt(need * (1 - p)) / p for acceptance probability
            # p = n / 2^bits: a second, short batch costs less than the
            # spare lanes of a wider margin would
            spread = isqrt((need * ((1 << bits) - n)) << bits)
            lanes = min(_BATCH, ((need << bits) + spread) // n + 1)
            masked = _mixed_lanes(z, lanes)[::16].translate(low_bits)
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
        self._base = z
        self._words = ()
        self._used = 0
        return b"".join(chunks)
