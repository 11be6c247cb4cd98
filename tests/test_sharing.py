from fractions import Fraction

import pytest

from hpavsim import (
    Deployment,
    DirectedLink,
    GeneratorProfile,
    MacParams,
    SSPolicy,
    Tonemap,
    build_decision_table,
    generate_deployment,
    run_simulation,
)
from hpavsim import sharing, tonemap
from hpavsim.rng import SplitMix64
from hpavsim.sharing import SSAllocation, SSDecisionTable, decision_table_csv
from hpavsim.tonemap import SUBCARRIER_COUNT

from conftest import (
    brute_force_eligible,
    brute_force_table,
    deployment_from_levels,
    ss_allocation,
    tables_equal,
)


def vec(*head, fill=0):
    return tuple(head) + (fill,) * (SUBCARRIER_COUNT - len(head))


PRIMARY = DirectedLink("n1", "n2")


def pair_deployment(primary, secondary):
    """One-slot 4-node deployment: n1->n2 carries ``primary``, n3->n4
    ``secondary``, and every other link is all zeros."""
    dep = deployment_from_levels(
        {("n1", "n2"): 0, ("n2", "n1"): 0, ("n3", "n4"): 0, ("n4", "n3"): 0}, 1
    )
    links = dict(dep.links)
    links[PRIMARY] = Tonemap([primary])
    links[DirectedLink("n3", "n4")] = Tonemap([secondary])
    return Deployment(dep.nodes, links)


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
        # hand-checked answers for n1->n2: the worked example at beta 2 and 7,
        # then the inclusive beta boundary, subcarrier 1 exactly beta better
        # and 2 only beta - 1 better (at beta 0 the equal ones are shared too)
        worked = (vec(10, 10, 2, 0), vec(2, 2, 8, 6))
        all_but_2 = (1,) + tuple(range(3, SUBCARRIER_COUNT + 1))
        for (primary, secondary), beta, expected in (
            (worked, 2, [((3, 4), 12)]),
            (worked, 7, []),
            ((vec(4, 4), vec(6, 5)), 2, [((1,), 2)]),
            ((vec(4, 4), vec(6, 3)), 0, [(all_but_2, 2)]),
        ):
            dep = pair_deployment(primary, secondary)
            policy = SSPolicy(beta=beta, top_m=1)
            table = build_decision_table(dep, policy)
            assert tables_equal(table, brute_force_table(dep, policy))
            found = [(a.shared_indices, a.gain) for a in table.candidates(PRIMARY, 1)]
            assert found == expected, (beta, expected)

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
        dep = pair_deployment(primary, secondary)
        cap_15 = 15 / SUBCARRIER_COUNT
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=1, max_share_fraction=cap_15))
        (alloc,) = table.entries[(PRIMARY, 1)]
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
        dep = pair_deployment(primary, secondary)
        policy = SSPolicy(beta=2, top_m=1, max_share_fraction=17 / SUBCARRIER_COUNT)
        table = build_decision_table(dep, policy)
        (alloc,) = table.entries[(PRIMARY, 1)]
        assert alloc.shared_indices == (
            tuple(range(1, 11)) + (50, 51) + tuple(range(200, 205))
        )
        assert alloc.gain == 5 * 9 + 12 * 3
        assert tables_equal(table, brute_force_table(dep, policy))

    def test_allocations_validate_disjointness_and_positive_gain(self):
        with pytest.raises(ValueError, match="shares a node"):
            ss_allocation(DirectedLink("a", "b"), DirectedLink("b", "c"), 1, (1,), 5, 1)
        with pytest.raises(ValueError, match="positive gain"):
            ss_allocation(DirectedLink("a", "b"), DirectedLink("c", "d"), 1, (1,), 0, 1)

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
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=1))
        text = decision_table_csv(table)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        num_shared = int(first[7])
        assert len(first) == 8 + num_shared
        assert_renders_as_reference(table, text)


CSV_HEADER = (
    "primary_tx,primary_rx,slot,rank,secondary_tx,secondary_rx,gain,num_shared,indices"
)


def reference_csv(table):
    """decision_table_csv written out field by field with str()."""
    lines = [CSV_HEADER]
    for (p, k), allocs in sorted(table.entries.items()):
        for a in allocs:
            head = [p.tx, p.rx, str(k), str(a.rank), a.secondary.tx, a.secondary.rx,
                    str(a.gain), str(len(a.shared_indices))]
            lines.append(",".join(head + [str(j) for j in a.shared_indices]))
    return "\n".join(lines) + "\n"


def assert_renders_as_reference(table, text=None):
    """decision_table_csv(table), or ``text``, equals the reference, compared
    line by line so that a failure reports the first differing row rather
    than a diff of megabytes of text."""
    if text is None:
        text = decision_table_csv(table)
    assert text.splitlines(keepends=True) == reference_csv(table).splitlines(keepends=True)


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


ALLOC_PRIMARY, ALLOC_SECONDARY = DirectedLink("a", "b"), DirectedLink("c", "d")


class TestAllocationTuple:
    def test_behaves_as_before(self):
        # equality, hash, repr and str between allocations are those of the
        # frozen dataclass the allocation used to be
        alloc = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        same = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        other = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 8, 1)
        assert alloc == same and alloc != other
        assert hash(alloc) == hash(same) == hash((ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1))
        text = (
            "SSAllocation(primary=DirectedLink(tx='a', rx='b'), "
            "secondary=DirectedLink(tx='c', rx='d'), slot=2, shared=5, gain=7, rank=1)"
        )
        assert repr(alloc) == str(alloc) == text
        assert (alloc.primary, alloc.secondary, alloc.slot, alloc.shared, alloc.gain,
                alloc.rank) == (ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        assert alloc.shared_indices == (1, 3)

    def test_orders_by_fields(self):
        # the dataclass had no order; the tuple orders field by field
        low = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, 5, 7, 1)
        high = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 1, 1, 1)
        assert low < high and sorted([high, low]) == [low, high]

    def test_equals_its_plain_tuple(self):
        # declared: an allocation is the tuple of its six fields
        alloc = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        assert isinstance(alloc, tuple)
        assert alloc == (("a", "b"), ("c", "d"), 2, 5, 7, 1)

    def test_is_immutable(self):
        alloc = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        with pytest.raises(AttributeError):
            alloc.gain = 8
        with pytest.raises(AttributeError):
            alloc.extra = 1

    @pytest.mark.parametrize("secondary", [("b", "c"), ("c", "b"), ("a", "c"), ("c", "a"),
                                           ("b", "a")])
    def test_overlap_message(self, secondary):
        secondary = DirectedLink(*secondary)
        message = f"^secondary {secondary} shares a node with primary a->b$"
        with pytest.raises(ValueError, match=message):
            SSAllocation(ALLOC_PRIMARY, secondary, 1, 1, 1, 1)

    @pytest.mark.parametrize("shared", [0, -1, 2**SUBCARRIER_COUNT, 2**SUBCARRIER_COUNT + 1])
    def test_mask_outside_917_bits_rejected(self, shared):
        with pytest.raises(ValueError, match=r"^shared mask out of range 1\.\.2\*\*917 - 1$"):
            SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, shared, 1, 1)

    @pytest.mark.parametrize("shared", [1, 2**(SUBCARRIER_COUNT - 1), 2**SUBCARRIER_COUNT - 1])
    def test_mask_inside_917_bits_accepted(self, shared):
        assert SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, shared, 1, 1).shared == shared

    def test_gain_and_rank_messages(self):
        for gain in (0, -3):
            with pytest.raises(ValueError, match="^retained candidates must have positive gain$"):
                SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, 1, gain, 1)
        with pytest.raises(ValueError, match="^rank is 1-based$"):
            SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, 1, 1, 0)

    @pytest.mark.parametrize("slot", [0, -1])
    def test_slot_below_one_rejected(self, slot):
        # slot 0 read the last slot's planes through planes[-1]
        with pytest.raises(ValueError, match="^slot is 1-based$"):
            SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, slot, 1, 1, 1)
        with pytest.raises(ValueError, match="^slot is 1-based$"):
            SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, 1, 1, 1)._replace(slot=slot)

    # unchecked, a bool or float would reach the CSV through a hand-built
    # table, and a string would fail in a comparison with TypeError
    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    @pytest.mark.parametrize("field", ["slot", "shared", "gain", "rank"])
    def test_integer_fields_must_be_ints(self, field, bad):
        valid = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 1, 1, 1, 1)
        fields = valid._asdict()
        fields[field] = bad
        message = f"^{field} must be an integer$"
        with pytest.raises(ValueError, match=message):
            SSAllocation(**fields)
        with pytest.raises(ValueError, match=message):
            valid._replace(**{field: bad})

    def test_int_subclass_accepted(self):
        # is_integer's rule: an int that is not a bool passes, exact type or not
        class Count(int):
            pass

        alloc = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, Count(2), Count(5), Count(7),
                             Count(1))
        assert alloc == (ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)

    def test_make_and_replace_check_their_fields(self):
        alloc = SSAllocation(ALLOC_PRIMARY, ALLOC_SECONDARY, 2, 5, 7, 1)
        assert SSAllocation._make(tuple(alloc)) == alloc
        assert alloc._replace(gain=9).gain == 9
        overlap = "^secondary c->b shares a node with primary a->b$"
        with pytest.raises(ValueError, match=overlap):
            SSAllocation._make((ALLOC_PRIMARY, DirectedLink("c", "b"), 2, 5, 7, 1))
        with pytest.raises(ValueError, match=overlap):
            alloc._replace(secondary=DirectedLink("c", "b"))
        with pytest.raises(ValueError, match="^link endpoints must differ, got 'c' twice$"):
            alloc._replace(secondary=alloc.secondary._replace(rx="c"))
        with pytest.raises(ValueError, match="^shared mask out of range"):
            alloc._replace(shared=0)
        with pytest.raises(ValueError, match="^rank is 1-based$"):
            alloc._replace(rank=0)


def six_node_deployment(maps):
    """One-slot deployment of n1..n6 where every link carries all zeros but
    those in ``maps``, {(tx, rx): one slot's levels}."""
    nodes = [f"n{i}" for i in range(1, 7)]
    dep = deployment_from_levels(
        {(tx, rx): 0 for tx in nodes for rx in nodes if tx != rx}, 1
    )
    links = dict(dep.links)
    for (tx, rx), levels in maps.items():
        links[DirectedLink(tx, rx)] = Tonemap([levels])
    return Deployment(dep.nodes, links)


class TestDecisionTableOracle:
    @pytest.mark.parametrize("beta", (0, 2, 6, 10, 11))
    @pytest.mark.parametrize("kind", sorted(EIGHT_NODE_PROFILES))
    def test_eight_nodes_match_brute_force(self, eight_node_deployments, kind, beta):
        dep = eight_node_deployments[kind]
        eligible = brute_force_eligible(dep, beta)
        for cap in (1.0, 0.5, 0.3, 0.05):
            policy = SSPolicy(beta=beta, top_m=3, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            oracle = brute_force_table(dep, policy, eligible)
            assert tables_equal(table, oracle), (kind, beta, cap)

    def test_tie_at_the_bound_is_split(self):
        # cap 91: n4->n3 (100 at level 5) and n3->n4 (91 at 5, 10 at 2) both
        # keep 91 fives, capped gain 455. n3->n4's bound 475 - 2 * (101 - 91)
        # equals that gain exactly, so it must still be split, and it wins
        # the tie on the secondary's (tx, rx)
        dep = deployment_from_levels(
            {("n1", "n2"): 0, ("n2", "n1"): 0, ("n3", "n4"): 0, ("n4", "n3"): 0}, 1
        )
        links = dict(dep.links)
        links[DirectedLink("n4", "n3")] = Tonemap([vec(*([5] * 100))])
        links[SECONDARY] = Tonemap([vec(*([5] * 91 + [2] * 10))])
        dep = Deployment(dep.nodes, links)
        policy = SSPolicy(beta=2, top_m=1, max_share_fraction=0.1)
        table = build_decision_table(dep, policy)
        assert tables_equal(table, brute_force_table(dep, policy))
        (alloc,) = table.candidates(PRIMARY, 1)
        assert (alloc.secondary, alloc.gain) == (SECONDARY, 455)
        assert alloc.shared_indices == tuple(range(1, 92))

    @pytest.mark.parametrize("top_m", (1, 2, 3, 4))
    def test_equal_gains_keep_the_earliest_secondaries(self, top_m):
        # ten of the twelve node-disjoint secondaries of n1->n2 gain 60; in
        # node order the earliest win, and no later equal gain displaces
        # them, before or after the larger gains of n5->n3 (66) and, after
        # it, n6->n4 (63) take the first ranks
        tie = vec(*([6] * 10))
        maps = {(tx, rx): tie for tx in ("n3", "n4", "n5", "n6")
                for rx in ("n3", "n4", "n5", "n6") if tx != rx}
        maps[("n5", "n3")] = vec(*([6] * 11))
        maps[("n6", "n4")] = vec(*([6] * 10 + [3]))
        dep = six_node_deployment(maps)
        policy = SSPolicy(beta=2, top_m=top_m)
        table = build_decision_table(dep, policy)
        assert tables_equal(table, brute_force_table(dep, policy))
        ranked = [(str(a.secondary), a.gain) for a in table.candidates(PRIMARY, 1)]
        expected = [("n5->n3", 66), ("n6->n4", 63), ("n3->n4", 60), ("n3->n5", 60)]
        assert ranked == expected[:top_m]

    def test_top_m_above_the_candidate_count(self):
        # two secondaries gain anything; a top_m of 5 retains both, ranked
        dep = six_node_deployment({("n4", "n5"): vec(*([3] * 20)),
                                   ("n6", "n3"): vec(*([9] * 2))})
        for top_m in (2, 5, 40):
            policy = SSPolicy(beta=0, top_m=top_m)
            table = build_decision_table(dep, policy)
            assert tables_equal(table, brute_force_table(dep, policy))
            ranked = [(str(a.secondary), a.gain, a.rank) for a in table.candidates(PRIMARY, 1)]
            assert ranked == [("n4->n5", 60, 1), ("n6->n3", 18, 2)]

    @pytest.mark.parametrize("capped_first", (True, False))
    def test_capped_gain_tying_the_floor_at_beta_zero(self, capped_first):
        # beta 0, primary at 5, cap 10: "fits" gains 10 on 10 subcarriers
        # under the cap; "capped" has 20 over the cap, bound 20, capped gain
        # 10, tying the top_m-th gain. The earlier of the two in node order
        # wins the tie whichever of them is split
        fits, capped = ("n5", "n6"), ("n3", "n4")
        if not capped_first:
            fits, capped = capped, fits
        dep = six_node_deployment({
            ("n1", "n2"): vec(fill=5),
            fits: vec(*([6] * 10)),
            capped: vec(*([6] * 20)),
            ("n4", "n3"): vec(*([10] * 10)),
        })
        policy = SSPolicy(beta=0, top_m=2, max_share_fraction=10 / SUBCARRIER_COUNT)
        table = build_decision_table(dep, policy)
        assert tables_equal(table, brute_force_table(dep, policy))
        ranked = [(str(a.secondary), a.gain) for a in table.candidates(PRIMARY, 1)]
        assert ranked == [("n4->n3", 50), ("n3->n4", 10)]
        (_, second) = table.candidates(PRIMARY, 1)
        assert second.shared_indices == tuple(range(1, 11))

    # _split calls at the commit before the bounded ranking, per profile:
    # {(beta, cap): (calls at top_m 1, 2, 3)}
    PARENT_SPLITS = {
        "complementary": {(0, 0.5): (33, 80, 132), (6, 0.3): (438, 547, 645)},
        "interference-notched": {(0, 0.5): (56, 116, 175), (2, 0.3): (58, 118, 177)},
    }

    @pytest.mark.parametrize("kind", sorted(PARENT_SPLITS))
    def test_bounded_ranking_splits_no_more(self, eight_node_deployments, kind, monkeypatch):
        # the floor prunes over-cap candidates as the old full ranking did,
        # or more; a lost bound would pass every correctness test and show
        # only as a slowdown
        splits = []

        def counting_split(*args):
            splits.append(args)
            return split(*args)

        split = sharing._split
        monkeypatch.setattr(sharing, "_split", counting_split)
        dep = eight_node_deployments[kind]
        for (beta, cap), parent_calls in self.PARENT_SPLITS[kind].items():
            eligible = brute_force_eligible(dep, beta)
            for top_m, most in enumerate(parent_calls, start=1):
                policy = SSPolicy(beta=beta, top_m=top_m, max_share_fraction=cap)
                splits.clear()
                table = build_decision_table(dep, policy)
                assert 0 < len(splits) <= most, (beta, cap, top_m)
                assert tables_equal(table, brute_force_table(dep, policy, eligible))

    def test_hot_paths_build_no_index_tuples(self, eight_node_deployments, monkeypatch):
        # the builder, the CSV and a run's window plans work on masks; an
        # index tuple built on any of these paths would pass every
        # correctness test and show only as a slowdown
        def no_tuples(alloc):
            raise AssertionError(f"index tuple built for {alloc.secondary}")

        monkeypatch.setattr(SSAllocation, "shared_indices", property(no_tuples))
        dep = eight_node_deployments["complementary"]
        ring = [DirectedLink(f"n{i}", f"n{i % 8 + 1}") for i in range(1, 9)]
        for cap in (1.0, 0.5):
            policy = SSPolicy(beta=2, top_m=3, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            assert any(table.entries.values())
            assert decision_table_csv(table).count("\n") > 1
            report = run_simulation(dep, table, MacParams(), policy, ring, 100_000, 1)
            assert any(t.successes_secondary for t in report.tallies.values())

    def test_capped_table_splits_behind_the_bound(self, eight_node_deployments, monkeypatch):
        # over-cap candidates are split only while their bound can still
        # rank, and only retained ones get their cut bucket cut; a lost bound
        # or an eager cut would pass every correctness test and show only as
        # a slowdown
        splits, cuts = [], []

        def counting_split(*args):
            splits.append(args)
            return split(*args)

        def counting_cut(cut, room):
            cuts.append(cut)
            return lowest_bits(cut, room)

        split, lowest_bits = sharing._split, sharing._lowest_bits
        monkeypatch.setattr(sharing, "_split", counting_split)
        monkeypatch.setattr(sharing, "_lowest_bits", counting_cut)
        dep = eight_node_deployments["interference-notched"]
        policy = SSPolicy(beta=2, top_m=2, max_share_fraction=0.3)
        table = build_decision_table(dep, policy)
        cap = int(policy.max_share_fraction * SUBCARRIER_COUNT)
        over_cap = 0
        for primary in dep.links:
            p = dep.links[primary].slot(1)
            for secondary in dep.links:
                if {secondary.tx, secondary.rx} & {primary.tx, primary.rx}:
                    continue
                s = dep.links[secondary].slot(1)
                over_cap += sum(b - a >= policy.beta for a, b in zip(p, s)) > cap
        assert 0 < len(splits) < over_cap
        # one cut per retained candidate, an uncut one's from the empty bucket
        retained = sum(map(len, table.entries.values()))
        assert len(cuts) == retained and any(cuts)
        assert tables_equal(table, brute_force_table(dep, policy))

    def test_sweep_builds_planes_once_per_map(self, monkeypatch):
        built = []

        def counting(vec):
            built.append(vec)
            return slot_planes(vec)

        slot_planes = tonemap._slot_planes
        monkeypatch.setattr(tonemap, "_slot_planes", counting)
        dep = random_level_deployment(4, 3, seed=37)
        for beta in (2, 4, 6, 8):
            assert any(build_decision_table(dep, SSPolicy(beta=beta, top_m=2)).entries.values())
        assert len(built) == len(dep.links) * dep.slot_count

    def test_all_eleven_levels_match_brute_force(self):
        dep = random_level_deployment(5, 3, seed=31)
        levels = {v for tmap in dep.links.values() for slot in tmap.slots for v in slot}
        assert levels == set(range(11))
        for beta in (0, 1, 3, 5, 7, 9):
            eligible = brute_force_eligible(dep, beta)
            for cap in (1.0, 0.3):
                policy = SSPolicy(beta=beta, top_m=3, max_share_fraction=cap)
                table = build_decision_table(dep, policy)
                oracle = brute_force_table(dep, policy, eligible)
                assert tables_equal(table, oracle), (beta, cap)

    @pytest.mark.parametrize("beta", tuple(range(18)) + (2**40,))
    def test_every_level_pair_matches_brute_force(self, beta):
        # subcarrier j carries primary level p and secondary level s for the
        # (p, s) pair j % 121, so every pair of levels 0..10 meets every beta,
        # carry out of the beta adder included, and every difference bucket
        primary = [0] * SUBCARRIER_COUNT
        secondary = [0] * SUBCARRIER_COUNT
        for j in range(SUBCARRIER_COUNT):
            primary[j], secondary[j] = divmod(j % 121, 11)
        dep = pair_deployment(primary, secondary)
        for cap in (1.0, 0.3, 0.05, 0.0):
            policy = SSPolicy(beta=beta, top_m=3, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            assert tables_equal(table, brute_force_table(dep, policy)), cap

    @pytest.mark.parametrize("beta", (6, 10))
    def test_primary_at_ten_past_beta_six_has_no_candidate(self, beta):
        # P + beta is 16 or more on every subcarrier, which no level reaches:
        # four planes of P + beta alone would read it as P + beta - 16
        secondary = [j % 11 for j in range(SUBCARRIER_COUNT)]
        dep = pair_deployment(vec(fill=10), secondary)
        for cap in (1.0, 0.05):
            policy = SSPolicy(beta=beta, top_m=1, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            assert table.candidates(PRIMARY, 1) == ()
            assert tables_equal(table, brute_force_table(dep, policy))

    @pytest.mark.parametrize("beta", (0, 1, 2))
    def test_difference_of_ten_weighs_eight_in_plane_3(self, beta):
        # 20 subcarriers beat the primary by 10, 20 by 5 and the rest lose by
        # 1, so the digits S - P - beta of the first 20 are 10, 9 and 8 and
        # set plane 3; a cap of 25 keeps the tens and the five lowest fives
        secondary = vec(*([10] * 20 + [5] * 20))
        dep = pair_deployment(vec(*([0] * 40), fill=1), secondary)
        for cap, gain, shared in (
            (1.0, 20 * 10 + 20 * 5, tuple(range(1, 41))),
            (25 / SUBCARRIER_COUNT, 20 * 10 + 5 * 5, tuple(range(1, 26))),
        ):
            policy = SSPolicy(beta=beta, top_m=1, max_share_fraction=cap)
            table = build_decision_table(dep, policy)
            (alloc,) = table.candidates(PRIMARY, 1)
            assert (alloc.gain, alloc.shared_indices) == (gain, shared)
            assert tables_equal(table, brute_force_table(dep, policy))


CSV_MASKS = {
    # byte boundaries, one- to three-digit indices and the last byte's bits
    "boundaries": (1, 8, 9, 10, 99, 100, 101, 912, 913, 916, 917),
    "first-bit": (1,),
    "byte-top-bit": (8,),
    "middle-bit": (460,),
    "last-bit": (SUBCARRIER_COUNT,),
    "all-bits": tuple(range(1, SUBCARRIER_COUNT + 1)),
    "odd-bits": tuple(range(1, SUBCARRIER_COUNT + 1, 2)),
    "even-bits": tuple(range(2, SUBCARRIER_COUNT + 1, 2)),
}
SECONDARY = DirectedLink("n3", "n4")


class TestDecisionTableCsv:
    @pytest.mark.parametrize("name", sorted(CSV_MASKS))
    def test_hand_built_mask(self, name):
        indices = CSV_MASKS[name]
        alloc = ss_allocation(PRIMARY, SECONDARY, 1, indices, gain=12345, rank=1)
        assert alloc.shared_indices == indices
        table = SSDecisionTable({(PRIMARY, 1): (alloc,)})
        text = decision_table_csv(table)
        assert_renders_as_reference(table, text)
        assert text.splitlines()[1] == ",".join(
            ["n1", "n2", "1", "1", "n3", "n4", "12345", str(len(indices))]
            + [str(j) for j in indices]
        )

    def test_hand_built_masks_in_one_table(self):
        # one row per mask, over several slots and two ranks, in key order
        entries = {}
        for slot, name in enumerate(sorted(CSV_MASKS), start=1):
            first = ss_allocation(PRIMARY, SECONDARY, slot, CSV_MASKS[name], gain=9, rank=1)
            second = ss_allocation(PRIMARY, DirectedLink("n4", "n3"), slot,
                                   CSV_MASKS["boundaries"], gain=3, rank=2)
            entries[(PRIMARY, slot)] = (first, second)
        entries[(DirectedLink("n2", "n1"), 1)] = ()
        table = SSDecisionTable(entries)
        assert_renders_as_reference(table)

    @pytest.mark.parametrize("kind", sorted(EIGHT_NODE_PROFILES))
    def test_eight_node_tables(self, eight_node_deployments, kind):
        dep = eight_node_deployments[kind]
        for policy in (SSPolicy(beta=2, top_m=2), SSPolicy(beta=6, top_m=2),
                       SSPolicy(beta=2, top_m=2, max_share_fraction=0.5)):
            table = build_decision_table(dep, policy)
            assert any(table.entries.values()), policy
            assert_renders_as_reference(table)

    def test_empty_table_is_header_only(self):
        table = SSDecisionTable({(PRIMARY, 1): ()})
        assert decision_table_csv(table) == CSV_HEADER + "\n"


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SSPolicy(beta=-1)
        with pytest.raises(ValueError):
            SSPolicy(top_m=0)
        with pytest.raises(ValueError):
            SSPolicy(max_share_fraction=1.5)
        # the knobs are counts: a float or a bool is refused by name
        for name, value in (("beta", 2.5), ("beta", 2.0), ("beta", True),
                            ("top_m", 1.5), ("top_m", True), ("top_m", "2")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SSPolicy(**{name: value})

    # a bool would pass the range check as 0 or 1; a string would fail in it
    # with a TypeError
    @pytest.mark.parametrize("value", [True, False, "0.5", None, 1j])
    def test_non_number_share_fraction_rejected(self, value):
        with pytest.raises(ValueError, match="^max_share_fraction must be a number$"):
            SSPolicy(max_share_fraction=value)

    @pytest.mark.parametrize("value", [0, 1, 0.5, Fraction(1, 3)])
    def test_real_share_fraction_accepted(self, value):
        assert SSPolicy(max_share_fraction=value).max_share_fraction == value
