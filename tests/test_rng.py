"""Pinned SplitMix64 outputs: the stream every trace and run depends on."""

import pytest

from hpavsim.rng import _BATCH, SplitMix64, _mixed_lanes, below

from conftest import masked_rejection

# (seed, stream) -> first 8 next_u64 words. Seed 0, stream 0 starts the state
# at 0, so its words are the reference splitmix64 sequence for seed 0.
FIRST_WORDS = {
    (0, 0): [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B, 0x53CB9F0C747EA2EA,
        0x2C829ABE1F4532E1, 0xC584133AC916AB3C,
    ],
    (42, 0): [
        0x989B3F130A063869, 0x290DB4BF2570DED7, 0x2A990BE63A01B2D5,
        0x0C4B6B24EF01890E, 0xFB16A06E52EC10A7, 0x3C30FC5FD50692C3,
        0x4782C4B4C4FDF7C9, 0x272404A0A3926552,
    ],
    (2**64 + 7, 3): [
        0x18E67AD713B9AE26, 0xBD096DE231226E57, 0x925BA0DF3F06C898,
        0x0755FEB103625927, 0x90A0E7A90F2F0A85, 0xBAEC489E69352940,
        0x3777C91E657F24CA, 0x867B74B79CD8D3F5,
    ],
}

BOUNDS = (1, 2, 3, 8, 10, 64, 100, 1000, 2**40 + 1, 7)
# (seed, stream) -> randbelow(n) for n in BOUNDS, then the next next_u64 word
DRAWS = {
    (0, 0): ([0, 1, 0, 7, 1, 60, 67, 166, 950206020873, 6], 9665182471527586683),
    (42, 0): ([0, 1, 1, 6, 7, 3, 73, 338, 679283657933, 4], 16347796136573169428),
    (2**64 + 7, 3): ([0, 0, 0, 7, 5, 0, 74, 971, 744401163593, 1], 6815483089125854536),
}


@pytest.mark.parametrize("key", sorted(FIRST_WORDS, key=str))
def test_first_words_pinned(key):
    rng = SplitMix64(*key)
    assert [rng.next_u64() for _ in range(8)] == FIRST_WORDS[key]


@pytest.mark.parametrize("key", sorted(DRAWS, key=str))
def test_randbelow_draws_pinned(key):
    # rejected draws must advance the state exactly as accepted ones do
    rng = SplitMix64(*key)
    draws, next_word = DRAWS[key]
    assert [rng.randbelow(n) for n in BOUNDS] == draws
    assert rng.next_u64() == next_word


# n = 1 never draws; 2, 8 and 256 are powers of two; 3, 5, 21 and 255 reject
# words. Bounds above a byte have no batch call: 2^40 + 1 rejects words, and a
# bound above 2^64 accepts every 64-bit word. 917 draws are a tonemap row;
# 5000 draws span several batches.
@pytest.mark.parametrize("n", [1, 8, 5, 2**40 + 1, 2**64 + 1, 2**70, 2, 3, 21, 255, 256])
@pytest.mark.parametrize("count", [0, 1, 917, 5000])
def test_randbelow_many_is_successive_randbelow(n, count):
    words, one, batched = (SplitMix64(42, 3) for _ in range(3))
    # single draws before and after each batch, so it must start and end on
    # the state those calls leave
    for rng in (words, one, batched):
        rng.next_u64()
        rng.randbelow(7)
    # a second batch starts where the single draws left off
    for _ in range(2):
        expected = [masked_rejection(words, n) for _ in range(count)]
        assert [one.randbelow(n) for _ in range(count)] == expected
        if n <= 256:
            assert batched.randbelow_bytes(n, count) == bytes(expected)
        else:
            # refused before the state moves
            with pytest.raises(ValueError, match="1 <= n <= 256"):
                batched.randbelow_bytes(n, count)
            assert [batched.randbelow(n) for _ in range(count)] == expected
        assert batched.randbelow(n) == one.randbelow(n) == masked_rejection(words, n)
        assert batched.next_u64() == one.next_u64() == words.next_u64()


def test_randbelow_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)
    # a draw below 0 would reject every word for ever
    with pytest.raises(ValueError):
        below(0, SplitMix64(1).words())


@pytest.mark.parametrize("n", [0, 257])
def test_randbelow_bytes_rejects_bound_outside_a_byte(n):
    with pytest.raises(ValueError, match="1 <= n <= 256"):
        SplitMix64(1).randbelow_bytes(n, 3)


class ReferenceWords:
    """SplitMix64 words one at a time, straight from the algorithm: seed the
    counter, then add gamma and run the finalizer for each word."""

    M = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15

    @classmethod
    def mix(cls, z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & cls.M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & cls.M
        return z ^ (z >> 31)

    def __init__(self, seed, stream=0):
        self.z = self.mix((seed & self.M) ^ self.mix((stream * self.GAMMA) & self.M))

    def next_u64(self):
        self.z = (self.z + self.GAMMA) & self.M
        return self.mix(self.z)


@pytest.mark.parametrize("key", sorted(FIRST_WORDS, key=str))
def test_reference_words_pinned(key):
    ref = ReferenceWords(*key)
    assert [ref.next_u64() for _ in range(8)] == FIRST_WORDS[key]


# Single draws, byte runs and further single draws share one counter, so each
# must leave it where the reference stream stands. 5000 draws span several
# byte-run batches; every bound rejects words, so a draw may take more than
# one.
@pytest.mark.parametrize("n", [3, 5, 11, 2**40 + 1])
@pytest.mark.parametrize("count", [1, 7, 8, 9, 255, 256, 257, 5000])
def test_buffered_draws_follow_the_word_stream(n, count):
    rng, ref = SplitMix64(2**64 + 7, 3), ReferenceWords(2**64 + 7, 3)
    for _ in range(3):
        expected = [masked_rejection(ref, n) for _ in range(count)]
        assert [rng.randbelow(n) for _ in range(count)] == expected
        assert rng.next_u64() == ref.next_u64()
        # a byte run starts at the first unconsumed word
        if n <= 256:
            expected = bytes(masked_rejection(ref, n) for _ in range(count))
            assert rng.randbelow_bytes(n, count) == expected
        assert [rng.next_u64() for _ in range(count)] == [ref.next_u64() for _ in range(count)]


# one lane, the words() batch and the widest batch, each with its neighbours:
# a batch narrower than the widest is cut out of the widest's constants
@pytest.mark.parametrize("lanes", [1, 2, 255, 256, 257, _BATCH - 2, _BATCH - 1, _BATCH])
def test_mixed_lanes_are_the_next_words(lanes):
    ref = ReferenceWords(2**64 + 7, 3)
    raw = _mixed_lanes(ref.z, lanes)
    assert len(raw) == 16 * lanes
    # each word sits in the low 8 bytes of its lane
    words = [int.from_bytes(raw[i : i + 8], "little") for i in range(0, len(raw), 16)]
    assert words == [ref.next_u64() for _ in range(lanes)]


# An iterator mixes its words in batches of 256: counts up to 25 stay in the
# first batch, 256 and 512 end the first two, 257 and 513 cross into the next
# and 5000 spans many.
@pytest.mark.parametrize("count", [1, 7, 8, 9, 24, 25, 255, 256, 257, 512, 513, 5000])
def test_words_are_successive_next_u64(count):
    rng, twin = SplitMix64(2**64 + 7, 3), SplitMix64(2**64 + 7, 3)
    words = rng.words()
    assert [next(words) for _ in range(count)] == [twin.next_u64() for _ in range(count)]
    assert next(words) == twin.next_u64()


@pytest.mark.parametrize("draws", [1, 3, 7, 8, 20])
def test_words_start_where_the_stream_stands(draws):
    # started after single draws, the words go on from the first unconsumed
    # one
    rng, twin = SplitMix64(42, 9), SplitMix64(42, 9)
    for _ in range(draws):
        assert rng.randbelow(11) == twin.randbelow(11)
    words = rng.words()
    assert [next(words) for _ in range(300)] == [twin.next_u64() for _ in range(300)]


# no word for 1, powers of two that never reject, and bounds that do
BELOW_BOUNDS = [1, 2, 3, 5, 7, 8, 11, 64, 2**40 + 1]


@pytest.mark.parametrize("n", BELOW_BOUNDS)
def test_masked_rejection_over_words_is_randbelow(n):
    # below() starts at the first unconsumed word and takes exactly the words
    # successive randbelow(n) calls would; randbelow itself is below() over
    # next_u64, so the reference is the word-at-a-time oracle
    rng, twin = SplitMix64(0, 4), SplitMix64(0, 4)
    twin.next_u64()
    words = rng.words()
    next(words)
    draw = below(n, words).__next__
    assert [draw() for _ in range(600)] == [masked_rejection(twin, n) for _ in range(600)]
    assert next(words) == twin.next_u64()


def test_below_iterators_share_one_stream():
    # one iterator per bound over one word stream, advanced in a random
    # order, as the MAC engine's per-stage draws are
    rng, twin, order = SplitMix64(42, 9), SplitMix64(42, 9), SplitMix64(7, 1)
    words = rng.words()
    draws = [below(n, words).__next__ for n in BELOW_BOUNDS]
    for _ in range(3000):
        i = order.randbelow(len(BELOW_BOUNDS))
        assert draws[i]() == masked_rejection(twin, BELOW_BOUNDS[i])
    assert next(words) == twin.next_u64()
