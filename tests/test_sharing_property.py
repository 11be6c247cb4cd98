"""Property tests: the decision table and its CSV equal the brute-force
enumeration and a CSV written from its index tuples, and an allocation's
plane-weighted ``shared_total`` equals the sum over its index tuple."""

import random

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hpavsim import (
    Deployment, DirectedLink, SSPolicy, Tonemap, build_decision_table, decision_table_csv,
)
from hpavsim.sharing import SSAllocation
from hpavsim.tonemap import MAX_MODULATION_TOTAL, SUBCARRIER_COUNT

from conftest import brute_force_csv, brute_force_table, spectrum_fraction, tables_equal

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


def fixed_deployment():
    """A 4-node, 2-slot deployment with every subcarrier drawn from all of
    0..10, so each difference bucket holds several subcarriers: at beta 2, a
    0.05 cap (45 subcarriers) cuts 46 of the 48 (primary, secondary, slot)
    triples inside a bucket.

    The generated examples move whenever the test's source changes; the
    explicit ones on this deployment stay.
    """
    rng = random.Random(17)
    return Deployment(NODES, {
        link: Tonemap([rng.choices(range(11), k=SUBCARRIER_COUNT) for _ in range(2)])
        for link in LINKS
    })


FIXED = fixed_deployment()


# No shrink phase: each shrink step rebuilds the table and the brute-force
# oracle, which made a failure take about a minute to report; the failing
# example is reported unshrunk.
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    dep=four_node_deployments(),
    beta=st.integers(0, 20),
    top_m=st.integers(1, 4),
    cap=st.floats(0.0, 1.0),
)
@example(dep=FIXED, beta=0, top_m=4, cap=1.0)  # uncapped, every difference kept
@example(dep=FIXED, beta=16, top_m=4, cap=1.0)  # a fifth beta bit
@example(dep=FIXED, beta=11, top_m=4, cap=1.0)  # no level is 11 above another
@example(dep=FIXED, beta=2, top_m=3, cap=0.05)  # a cap that splits a bucket
def test_table_matches_brute_force(dep, beta, top_m, cap):
    policy = SSPolicy(beta=beta, top_m=top_m, max_share_fraction=cap)
    table = build_decision_table(dep, policy)
    oracle = brute_force_table(dep, policy)
    assert tables_equal(table, oracle)
    assert decision_table_csv(table) == brute_force_csv(oracle)


ALL_SUBCARRIERS = (1 << SUBCARRIER_COUNT) - 1
ORACLE_MAP = Tonemap([random.Random(41).choices(range(11), k=SUBCARRIER_COUNT)
                      for _ in range(2)])


@st.composite
def tonemaps(draw):
    """Maps of 1..3 slots whose levels come from a small palette in 0..10."""
    palette = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Tonemap([rng.choices(palette, k=SUBCARRIER_COUNT)
                    for _ in range(draw(st.integers(1, 3)))])


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    tmap=tonemaps(),
    k=st.integers(1, 3),
    shared=st.one_of(
        st.integers(1, ALL_SUBCARRIERS),
        st.sets(st.integers(0, SUBCARRIER_COUNT - 1), min_size=1, max_size=8).map(
            lambda bits: sum(1 << b for b in bits)),
    ),
)
@example(tmap=ORACLE_MAP, k=2, shared=1)  # subcarrier 1 alone
@example(tmap=ORACLE_MAP, k=2, shared=1 << SUBCARRIER_COUNT - 1)  # 917 alone
@example(tmap=ORACLE_MAP, k=2, shared=ALL_SUBCARRIERS)  # all 917
def test_shared_total_equals_index_oracle(tmap, k, shared):
    k = min(k, tmap.slot_count)
    alloc = SSAllocation(LINKS[0], DirectedLink("n3", "n4"), k, shared, 1, 1)
    expected = spectrum_fraction(tmap, k, alloc.shared_indices) * MAX_MODULATION_TOTAL
    assert alloc.shared_total(tmap) == expected
