"""Property test: the decision table equals the brute-force enumeration."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hpavsim import Deployment, DirectedLink, SSPolicy, Tonemap, build_decision_table
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import brute_force_table, tables_equal

NODES = ("n1", "n2", "n3", "n4")
LINKS = tuple(DirectedLink(tx, rx) for tx in NODES for rx in NODES if tx != rx)


@st.composite
def four_node_deployments(draw):
    """4-node deployments; each link draws its subcarriers from its own small
    palette of levels in 0..10, so ties, empty levels and wide differences
    all occur."""
    slot_count = draw(st.integers(1, 3))
    palettes = draw(
        st.lists(
            st.lists(st.integers(0, 10), min_size=1, max_size=4),
            min_size=len(LINKS),
            max_size=len(LINKS),
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    links = {
        link: Tonemap(
            [rng.choices(palette, k=SUBCARRIER_COUNT) for _ in range(slot_count)]
        )
        for link, palette in zip(LINKS, palettes)
    }
    return Deployment(NODES, links)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    dep=four_node_deployments(),
    beta=st.integers(0, 11),
    top_m=st.integers(1, 4),
    cap=st.floats(0.0, 1.0),
)
def test_table_matches_brute_force(dep, beta, top_m, cap):
    policy = SSPolicy(beta=beta, top_m=top_m, max_share_fraction=cap)
    assert tables_equal(build_decision_table(dep, policy), brute_force_table(dep, policy))
