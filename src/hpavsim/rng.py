"""Seeded, splittable PRNG used by the deployment generator and the MAC simulator.

The algorithm is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit counter that
advances by a fixed odd gamma, pushed through a 2-round xor-shift-multiply
finalizer. It is trivially reimplementable in any language from the constants
below, which is why trace files and simulation runs seeded with it stay
reproducible across ports. Streams are split by a caller-chosen index (e.g.
the ordinal of a directed link) so generation order never matters.

A stream's whole state is that counter, as it stood for the last word
consumed. ``next_u64`` advances it by one gamma and mixes one word, and
``randbelow`` is masked rejection over ``next_u64``. The two batch draws mix
many words at once in 128-bit lanes: the next counter states sit side by side
in one big int, and each finalizer step is a few big-int operations over all
of them. ``randbelow_bytes`` draws a run of values below n <= 256 at once, as
the deployment generator needs: it takes each lane's low byte, does every
per-draw step with C-level ``bytes`` operations and stores the counter of its
last word, giving the same values and leaving the same state as that many
``randbelow`` calls. ``words`` chains fixed batches into a C-level iterator,
for a caller that draws many single words in a hot loop and cannot afford a
method call per word, and ``below`` turns such an iterator into successive
``randbelow(n)`` draws, also at C level; ``randbelow`` is one draw of ``below``
over ``next_u64``.

Name/version recorded in trace metadata: ``splitmix64`` / ``1``.
"""

from functools import lru_cache
from itertools import chain, count, repeat
from math import isqrt
from operator import and_
from struct import Struct

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
# lanes in each batch of a words() iterator: a larger batch mixes more words
# that a short-lived iterator never takes, and saves little more time
_WORDS_BATCH = 256
# one such batch's words, each lane's zero high half skipped
_unpack_words = Struct("<" + "Q8x" * _WORDS_BATCH).unpack

# _LOW_BITS[k] maps a byte to its low k bits
_LOW_BITS = [bytes(i & ((1 << k) - 1) for i in range(256)) for k in range(9)]


@lru_cache(maxsize=1)
def _lane_constants():
    """``(ones, low64, steps)`` over _BATCH 128-bit lanes: lane i holds 1 in
    ``ones``, 2^64 - 1 in ``low64`` and (i + 1) * gamma mod 2^64 in
    ``steps``."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BATCH, "little")
    steps = b"".join(
        ((i * _GAMMA) & _MASK64).to_bytes(16, "little") for i in range(1, _BATCH + 1)
    )
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


def _mixed_lanes(z: int, lanes: int) -> bytes:
    """The ``lanes`` <= _BATCH words that follow counter state z mod 2^64, as
    16 little-endian bytes per word with the word in the low 8.

    Lane i of one big int holds the counter z + (i + 1) * gamma: a few big-int
    operations per batch in place of a dozen int operations per word. A 64-bit
    word times a 64-bit constant fits in its lane, and every shift is masked
    back to 64 bits before the next multiply, so no lane disturbs another.
    A narrower batch cuts the _BATCH-lane constants down to its lanes; a
    full one, as most byte-run batches are, uses them whole.
    """
    ones, low64, steps = _lane_constants()
    if lanes < _BATCH:
        keep = (1 << (128 * lanes)) - 1
        ones, low64, steps = ones & keep, low64 & keep, steps & keep
    w = ((z & _MASK64) * ones + steps) & low64
    w = (((w ^ (w >> 30)) & low64) * _MIX1) & low64
    w = (((w ^ (w >> 27)) & low64) * _MIX2) & low64
    return (w ^ (w >> 31)).to_bytes(16 * lanes, "little")


class SplitMix64:
    """One deterministic stream of 64-bit words.

    ``SplitMix64(seed, stream)`` and ``SplitMix64(seed, other_stream)`` are
    independent for distinct stream indices; draws within a stream are
    sequential.
    """

    __slots__ = ("_z",)

    def __init__(self, seed: int, stream: int = 0):
        # Decorrelate the stream index from the seed before use; without the
        # mix, nearby (seed, stream) pairs would start on overlapping walks.
        self._z = _mix64((seed & _MASK64) ^ _mix64((stream * _GAMMA) & _MASK64))

    def next_u64(self) -> int:
        self._z = z = (self._z + _GAMMA) & _MASK64
        return _mix64(z)

    def words(self):
        """An iterator over the words that successive ``next_u64`` calls
        would give, starting where the stream stands.

        It mixes _WORDS_BATCH words at a time and steps through each batch at
        C level. It leaves the stream's counter where it stands, so once it
        is taken the stream is drawn from through it alone.
        """
        starts = count(self._z, _WORDS_BATCH * _GAMMA)
        batches = map(_mixed_lanes, starts, repeat(_WORDS_BATCH))
        return chain.from_iterable(map(_unpack_words, batches))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via masked rejection (unbiased)."""
        if n <= 0:
            raise ValueError("randbelow() requires n >= 1")
        return next(below(n, iter(self.next_u64, None)))

    def randbelow_bytes(self, n: int, count: int) -> bytes:
        """``count`` successive ``randbelow(n)`` draws as bytes, for
        1 <= n <= 256, leaving the state where those calls would.

        Their words are mixed a batch at a time in lanes. A draw needs only
        its word's low byte: one slice takes every lane's, one ``translate``
        masks them and a second drops the rejected ones.
        """
        if not 1 <= n <= 256:
            raise ValueError("randbelow_bytes() requires 1 <= n <= 256")
        if n == 1:
            return bytes(count)
        bits = (n - 1).bit_length()
        low_bits = _LOW_BITS[bits]
        rejected = bytes(range(n, 256))
        z = self._z
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
        self._z = z
        return b"".join(chunks)


def below(n: int, words):
    """An iterator over successive ``randbelow(n)`` draws, by the same masked
    rejection over the word iterator ``words``, taking exactly the words
    those calls would.

    It takes a word only when it is advanced, so several such iterators can
    share one ``words`` and draw in any interleaving. A bound of 1 yields 0
    without a word, and a power of two never rejects a masked word, so it
    skips the filter.
    """
    if n <= 0:
        raise ValueError("below() requires n >= 1")
    if n == 1:
        return repeat(0)
    mask = (1 << (n - 1).bit_length()) - 1
    draws = map(and_, words, repeat(mask))
    return draws if n > mask else filter(n.__gt__, draws)
