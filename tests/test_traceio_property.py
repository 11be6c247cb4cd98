"""Property test: PLCTM text round-trips every valid deployment, not only
generator output: parsing the canonical text gives the deployment back, and
serializing again gives the same bytes."""

import random
import string

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hpavsim import Deployment, DirectedLink, Tonemap, parse_trace, serialize_trace
from hpavsim.tonemap import MAX_SLOT_COUNT, SUBCARRIER_COUNT

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
