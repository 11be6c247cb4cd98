"""Property tests of PLCTM text and the generator. Text round-trips every
valid deployment, not only generator output: parsing the canonical text gives
the deployment back, and serializing again gives the same bytes. The reader
accepts a value field exactly when it is in the writer's form, and rejects
any other with the oracle's message. And the generator's batched draws give
the bytes of one draw per entry."""

import random
import string

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hpavsim import (
    Deployment, DirectedLink, GeneratorProfile, Tonemap, TraceFormatError,
    generate_deployment, parse_trace, serialize_trace,
)
from hpavsim.tonemap import MAX_MODULATION, MAX_SLOT_COUNT, SUBCARRIER_COUNT
from hpavsim.traceio import PROFILE_KINDS

from conftest import parse_values_oracle, reference_generator_slots

# characters a whitespace-split field can hold
TOKEN_CHARS = "".join(c for c in string.printable if not c.isspace())
tokens = st.text(TOKEN_CHARS, min_size=1, max_size=8)
# a meta value is the rest of its line, so runs of inner spaces must survive
meta_values = st.builds(
    str.join, st.sampled_from([" ", "   "]), st.lists(tokens, min_size=1, max_size=3)
)


@st.composite
def deployments(draw):
    """2-5 nodes, a non-empty set of node pairs traced in both directions,
    1-6 slots of values anywhere in 0..10, and a few meta lines."""
    nodes = draw(st.lists(tokens, min_size=2, max_size=5, unique=True))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
    traced = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    slot_count = draw(st.integers(1, MAX_SLOT_COUNT))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    links = {
        link: Tonemap(
            [rng.choices(range(11), k=SUBCARRIER_COUNT) for _ in range(slot_count)]
        )
        for a, b in traced
        for link in (DirectedLink(a, b), DirectedLink(b, a))
    }
    metadata = draw(st.dictionaries(tokens, meta_values, max_size=3))
    return Deployment(nodes, links, metadata)


@settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(dep=deployments())
def test_round_trip_on_arbitrary_valid_deployments(dep):
    text = serialize_trace(dep)
    parsed = parse_trace(text)
    assert parsed == dep
    assert serialize_trace(parsed) == text


# int() reads these as values in 0..10, but they are not the writer's form,
# so the reader refuses them
NON_CANONICAL = ["03", "+10", "010", "-0", "00", "٣"]
# ":" stands in for 10 inside the reader and "#" marks a dropped byte in the
# reader and the writer; "3x3" puts a non-comma at a comma offset of a
# 916-value row
INVALID = [":", "#", "1:", "3#", "", "x", "11", "3x3"]


def one_link_trace(values_s):
    """A one-slot trace whose a->b line (line 5) carries ``values_s``."""
    reverse = ",".join(["3"] * SUBCARRIER_COUNT)
    return (
        "plctm 1\nslots 1\nsubcarriers 917\nnodes a b\n"
        f"link a b 1 {values_s}\nlink b a 1 {reverse}\n"
    )


@st.composite
def value_fields(draw):
    """A link line's value field: a canonical row of 916-918 values, with
    0-3 of its tokens replaced by non-canonical or invalid ones."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([range(11), (10,), (0, 1, 10)]))
    count = SUBCARRIER_COUNT + draw(st.sampled_from([0, 0, -1, 1]))
    tokens = [str(v) for v in rng.choices(levels, k=count)]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, count - 1))
        tokens[j] = draw(st.sampled_from(NON_CANONICAL + INVALID))
    return ",".join(tokens)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(values_s=value_fields())
@example(values_s=",".join(["10"] * 916 + [":"]))
@example(values_s=",".join(["A"] + ["10"] * 916))
@example(values_s=",".join(["3x3"] + ["10"] * 915))
# a field of exactly 1833 characters skips the 10 search, but not the ":"
# guard; the "#" guard holds where the markers are dropped; and a row may end
# in a 10
@example(values_s=",".join(["3"] * 400 + [":"] + ["3"] * 516))
@example(values_s=",".join(["3#"] + ["10"] * 916))
@example(values_s=",".join(["3"] * 916 + ["10"]))
def test_parser_agrees_with_canonical_oracle(values_s):
    values, message = parse_values_oracle(values_s)
    text = one_link_trace(values_s)
    if message is None:
        assert parse_trace(text).links[DirectedLink("a", "b")].slot(1) == values
    else:
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert err.value.line_number == 5
        assert str(err.value) == f"line 5: {message}"


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(values_s=value_fields())
def test_accepted_value_field_is_the_writers_text(values_s):
    # a property of the reader alone, whatever the oracle says
    try:
        values = parse_trace(one_link_trace(values_s)).links[DirectedLink("a", "b")].slot(1)
    except TraceFormatError:
        return
    assert values_s == ",".join(map(str, values))


@st.composite
def generator_cases(draw):
    """Any profile kind, noise 0..10, 1-6 slots, 2-5 nodes, notches on or off."""
    kind = draw(st.sampled_from(PROFILE_KINDS))
    notches = draw(st.booleans())
    profile = GeneratorProfile(
        kind,
        base_quality=draw(st.floats(0, MAX_MODULATION)),
        notch_count=draw(st.integers(1, 6)) if notches else 0,
        notch_width=draw(st.integers(1, 80)) if notches else 0,
        asymmetry_noise=draw(st.integers(0, MAX_MODULATION)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    return draw(st.integers(2, 5)), profile, draw(st.integers(1, MAX_SLOT_COUNT))


@settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(case=generator_cases())
# the notched trace_io deployment, and the widest draw span at the top level
@example(case=(6, GeneratorProfile("interference-notched", 6, 4, 40, 1, 1608), 5))
@example(case=(3, GeneratorProfile("uniform", 10, asymmetry_noise=10, seed=7), 2))
def test_generator_matches_one_draw_per_entry(case):
    n_nodes, profile, slot_count = case
    dep = generate_deployment(n_nodes, profile, slot_count)
    expected = reference_generator_slots(n_nodes, profile, slot_count)
    assert {link: list(t.slots) for link, t in dep.links.items()} == expected
