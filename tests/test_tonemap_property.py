"""Property test: a Tonemap that breaks the value range is refused, and the
error names exactly the slot and subcarrier of the bad value."""

import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hpavsim import Tonemap
from hpavsim.tonemap import MAX_SLOT_COUNT, SUBCARRIER_COUNT


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    slot_count=st.integers(1, MAX_SLOT_COUNT),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([list, tuple, bytes, bytearray]),
    bad=st.sampled_from([-1, 11, 256, 1.5]),
    data=st.data(),
)
def test_constructor_names_the_bad_value(slot_count, seed, kind, bad, data):
    rng = random.Random(seed)
    rows = [rng.choices(range(11), k=SUBCARRIER_COUNT) for _ in range(slot_count)]
    assert Tonemap(map(kind, rows)).slot_count == slot_count
    k = data.draw(st.integers(1, slot_count), label="k")
    j = data.draw(st.integers(1, SUBCARRIER_COUNT), label="j")
    rows[k - 1][j - 1] = bad
    # the valid slots come in every accepted form; the bad one stays a list
    slots = [row if i == k - 1 else kind(row) for i, row in enumerate(rows)]
    with pytest.raises(ValueError) as err:
        Tonemap(slots)
    assert str(err.value) == (
        f"modulation out of range: value {bad!r} at slot {k}, subcarrier {j}"
    )
