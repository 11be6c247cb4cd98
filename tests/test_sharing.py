import pytest

from hpavsim import (
    Deployment,
    DirectedLink,
    GeneratorProfile,
    SSPolicy,
    Tonemap,
    build_decision_table,
    diff_vector,
    eligible_indices,
    gain,
    generate_deployment,
)
from hpavsim.rng import SplitMix64
from hpavsim.sharing import SSAllocation, decision_table_csv
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import brute_force_table, deployment_from_levels, tables_equal


def vec(*head, fill=0):
    return tuple(head) + (fill,) * (SUBCARRIER_COUNT - len(head))


class TestDiffVector:
    def test_identical_vectors(self):
        v = vec(5, 5, 5)
        assert diff_vector(v, v) == (0,) * SUBCARRIER_COUNT

    def test_worked_example(self):
        primary = vec(10, 10, 2, 0)
        secondary = vec(2, 2, 8, 6)
        d = diff_vector(primary, secondary)
        assert d[:4] == (-8, -8, 6, 6)
        assert set(d[4:]) == {0}

    def test_antisymmetry(self):
        rng = SplitMix64(5, 0)
        a = tuple(rng.randbelow(11) for _ in range(SUBCARRIER_COUNT))
        b = tuple(rng.randbelow(11) for _ in range(SUBCARRIER_COUNT))
        assert diff_vector(a, b) == tuple(-x for x in diff_vector(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            diff_vector((0,) * 916, (0,) * SUBCARRIER_COUNT)


class TestEligibleIndices:
    def test_worked_example(self):
        d = vec(-8, -8, 6, 6)
        assert eligible_indices(d, 2) & {1, 2, 3, 4} == {3, 4}

    def test_beta_above_max_empty(self):
        assert eligible_indices(vec(-8, -8, 6, 6), 7) == frozenset()

    def test_zero_beta_on_zero_vector_is_inclusive(self):
        assert len(eligible_indices((0,) * SUBCARRIER_COUNT, 0)) == SUBCARRIER_COUNT

    def test_monotone_shrinking_in_beta(self):
        rng = SplitMix64(6, 0)
        d = tuple(rng.randbelow(21) - 10 for _ in range(SUBCARRIER_COUNT))
        previous = eligible_indices(d, 0)
        for beta in range(1, 11):
            current = eligible_indices(d, beta)
            assert current <= previous
            previous = current


class TestGain:
    def test_worked_example(self):
        primary = vec(10, 10, 2, 0)
        secondary = vec(2, 2, 8, 6)
        assert gain(primary, secondary, {3, 4}) == 12

    def test_empty_indices(self):
        assert gain(vec(1), vec(9), ()) == 0

    def test_equal_maps_zero(self):
        v = vec(4, 4, 4, 4)
        assert gain(v, v, range(1, 5)) == 0

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gain(vec(), vec(), [0])

    def test_equals_diff_vector_sum(self):
        rng = SplitMix64(8, 0)
        p = tuple(rng.randbelow(11) for _ in range(SUBCARRIER_COUNT))
        s = tuple(rng.randbelow(11) for _ in range(SUBCARRIER_COUNT))
        d = diff_vector(p, s)
        indices = eligible_indices(d, 3)
        assert gain(p, s, indices) == sum(d[j - 1] for j in indices)


class TestDecisionTable:
    def test_two_node_deployment_all_empty(self):
        dep = deployment_from_levels({("n1", "n2"): 10, ("n2", "n1"): 2})
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=3))
        assert all(not c for c in table.entries.values())

    def test_complementary_has_candidates(self):
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, asymmetry_noise=2, seed=3)
        )
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=2))
        assert any(c for c in table.entries.values())

    def test_matches_brute_force_enumeration(self):
        for seed in (1, 2, 3):
            dep = generate_deployment(
                4,
                GeneratorProfile(
                    "complementary", base_quality=6, asymmetry_noise=2, seed=seed
                ),
            )
            for policy in (SSPolicy(2, 2), SSPolicy(6, 1), SSPolicy(4, 3, 0.3)):
                table = build_decision_table(dep, policy)
                assert tables_equal(table, brute_force_table(dep, policy))

    def test_raising_beta_never_raises_gain_or_count(self):
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, asymmetry_noise=3, seed=9)
        )
        prev = build_decision_table(dep, SSPolicy(beta=0, top_m=4))
        for beta in (2, 4, 6, 8, 10):
            current = build_decision_table(dep, SSPolicy(beta=beta, top_m=4))
            for key, prev_cands in prev.entries.items():
                cur_cands = current.entries[key]
                assert len(cur_cands) <= len(prev_cands)
                prev_by_link = {c.secondary: c.gain for c in prev_cands}
                for c in cur_cands:
                    assert c.gain <= prev_by_link.get(c.secondary, 0) or c.secondary not in prev_by_link
            prev = current

    def test_share_cap_truncates_keeping_best(self):
        # secondary beats primary by 4 on the first 10 subcarriers, by 9 after
        primary = vec(*([1] * 20))
        secondary = tuple(
            5 if j < 10 else (10 if j < 20 else 0) for j in range(SUBCARRIER_COUNT)
        )
        dep = deployment_from_levels(
            {("n1", "n2"): 0, ("n2", "n1"): 0, ("n3", "n4"): 0, ("n4", "n3"): 0}, 1
        )
        links = dict(dep.links)
        links[DirectedLink("n1", "n2")] = Tonemap([primary])
        links[DirectedLink("n3", "n4")] = Tonemap([secondary])
        dep = Deployment(dep.nodes, links)
        cap_15 = 15 / SUBCARRIER_COUNT
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=1, max_share_fraction=cap_15))
        (alloc,) = table.entries[(DirectedLink("n1", "n2"), 1)]
        # all ten 9-diff indices kept, then the five lowest-index 4-diff ones,
        # stored in ascending order
        assert alloc.shared_indices == tuple(range(1, 6)) + tuple(range(11, 21))
        assert alloc.gain == 10 * 9 + 5 * 4

    def test_share_cap_cuts_inside_a_mixed_bucket(self):
        # the diff-3 bucket mixes three primary levels; the cap keeps all five
        # diff-9 subcarriers, then the 12 lowest-index diff-3 ones
        primary = [0] * SUBCARRIER_COUNT
        secondary = [0] * SUBCARRIER_COUNT
        for j, (p, s) in {
            **{j: (1, 4) for j in range(101, 111)},
            **{j: (5, 8) for j in range(1, 11)},
            **{j: (7, 10) for j in range(50, 56)},
            **{j: (0, 9) for j in range(200, 205)},
            **{j: (2, 4) for j in range(300, 321)},
        }.items():
            primary[j - 1], secondary[j - 1] = p, s
        dep = deployment_from_levels(
            {("n1", "n2"): 0, ("n2", "n1"): 0, ("n3", "n4"): 0, ("n4", "n3"): 0}, 1
        )
        links = dict(dep.links)
        links[DirectedLink("n1", "n2")] = Tonemap([primary])
        links[DirectedLink("n3", "n4")] = Tonemap([secondary])
        dep = Deployment(dep.nodes, links)
        policy = SSPolicy(beta=2, top_m=1, max_share_fraction=17 / SUBCARRIER_COUNT)
        table = build_decision_table(dep, policy)
        (alloc,) = table.entries[(DirectedLink("n1", "n2"), 1)]
        assert alloc.shared_indices == (
            tuple(range(1, 11)) + (50, 51) + tuple(range(200, 205))
        )
        assert alloc.gain == 5 * 9 + 12 * 3
        assert tables_equal(table, brute_force_table(dep, policy))

    def test_allocations_validate_disjointness_and_positive_gain(self):
        with pytest.raises(ValueError, match="shares a node"):
            SSAllocation(
                DirectedLink("a", "b"), DirectedLink("b", "c"), 1, (1,), 5, 1
            )
        with pytest.raises(ValueError, match="positive gain"):
            SSAllocation(
                DirectedLink("a", "b"), DirectedLink("c", "d"), 1, (), 0, 1
            )

    def test_deterministic(self):
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, asymmetry_noise=2, seed=4)
        )
        policy = SSPolicy(beta=2, top_m=2)
        assert build_decision_table(dep, policy) == build_decision_table(dep, policy)

    def test_csv_shape(self):
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, asymmetry_noise=2, seed=4)
        )
        text = decision_table_csv(build_decision_table(dep, SSPolicy(beta=2, top_m=1)))
        lines = text.splitlines()
        assert lines[0] == (
            "primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,num_shared,indices"
        )
        first = lines[1].split(",")
        num_shared = int(first[7])
        assert len(first) == 8 + num_shared


EIGHT_NODE_PROFILES = {
    "complementary": GeneratorProfile(
        "complementary", base_quality=6, asymmetry_noise=2, seed=21
    ),
    "interference-notched": GeneratorProfile(
        "interference-notched",
        base_quality=6,
        notch_count=4,
        notch_width=40,
        asymmetry_noise=2,
        seed=22,
    ),
}


@pytest.fixture(scope="module")
def eight_node_deployments():
    return {
        kind: generate_deployment(8, profile, slot_count=1)
        for kind, profile in EIGHT_NODE_PROFILES.items()
    }


def random_level_deployment(n_nodes, slot_count, seed):
    """Deployment whose tonemaps draw every subcarrier uniformly from 0..10."""
    rng = SplitMix64(seed, 0)
    nodes = [f"n{i}" for i in range(1, n_nodes + 1)]
    links = {
        DirectedLink(tx, rx): Tonemap(
            [
                [rng.randbelow(11) for _ in range(SUBCARRIER_COUNT)]
                for _ in range(slot_count)
            ]
        )
        for tx in nodes
        for rx in nodes
        if tx != rx
    }
    return Deployment(nodes, links)


class TestDecisionTableOracle:
    @pytest.mark.parametrize("beta", (0, 2, 6, 10, 11))
    @pytest.mark.parametrize("kind", sorted(EIGHT_NODE_PROFILES))
    def test_eight_nodes_match_brute_force(self, eight_node_deployments, kind, beta):
        dep = eight_node_deployments[kind]
        for cap in (1.0, 0.5, 0.05):
            policy = SSPolicy(beta=beta, top_m=3, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            assert tables_equal(table, brute_force_table(dep, policy)), (kind, beta, cap)

    def test_all_eleven_levels_match_brute_force(self):
        dep = random_level_deployment(5, 3, seed=31)
        levels = {v for tmap in dep.links.values() for slot in tmap.slots for v in slot}
        assert levels == set(range(11))
        for beta in (0, 1, 3, 5, 7, 9):
            for cap in (1.0, 0.3):
                policy = SSPolicy(beta=beta, top_m=3, max_share_fraction=cap)
                table = build_decision_table(dep, policy)
                assert tables_equal(table, brute_force_table(dep, policy)), (beta, cap)


class TestDecisionTableInputGuard:
    @pytest.mark.parametrize(
        "bad_slot",
        (
            (11,) + (0,) * (SUBCARRIER_COUNT - 1),
            (0,) * (SUBCARRIER_COUNT - 1) + (-1,),
            (0,) * (SUBCARRIER_COUNT - 1),
        ),
        ids=("level-11", "level-minus-1", "916-long"),
    )
    def test_malformed_slot_names_link_and_slot(self, bad_slot):
        dep = deployment_from_levels(
            {("n1", "n2"): 2, ("n2", "n1"): 2, ("n3", "n4"): 8, ("n4", "n3"): 8}, 3
        )
        links = dict(dep.links)
        good = (8,) * SUBCARRIER_COUNT
        links[DirectedLink("n3", "n4")] = Tonemap([good, bad_slot, good])
        with pytest.raises(ValueError, match=r"link n3->n4 slot 2"):
            build_decision_table(Deployment(dep.nodes, links), SSPolicy())


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SSPolicy(beta=-1)
        with pytest.raises(ValueError):
            SSPolicy(top_m=0)
        with pytest.raises(ValueError):
            SSPolicy(max_share_fraction=1.5)
