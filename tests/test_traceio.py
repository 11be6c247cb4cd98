import pytest

from hpavsim import (
    Deployment,
    DirectedLink,
    GeneratorProfile,
    SSPolicy,
    Tonemap,
    TraceFormatError,
    build_decision_table,
    generate_deployment,
    parse_trace,
    serialize_trace,
    validate_tonemap,
)
from hpavsim.traceio import LEGAL_MODULATIONS, snap_legal

from conftest import deployment_from_levels


def minimal_trace(slot_count=5):
    row = ",".join(["3"] * 917)
    lines = [
        "plctm 1",
        f"slots {slot_count}",
        "subcarriers 917",
        "nodes a b",
        "meta origin test",
    ]
    for tx, rx in (("a", "b"), ("b", "a")):
        for k in range(1, slot_count + 1):
            lines.append(f"link {tx} {rx} {k} {row}")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_minimal_two_node_file(self):
        dep = parse_trace(minimal_trace())
        assert dep.nodes == ("a", "b")
        assert len(dep.links) == 2
        assert dep.slot_count == 5
        assert dep.metadata == {"origin": "test"}

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n" + minimal_trace().replace(
            "meta origin test", "meta origin test\n# another\n"
        )
        assert len(parse_trace(text).links) == 2

    def test_wrong_value_count_names_line(self):
        bad = minimal_trace().replace(",".join(["3"] * 917), ",".join(["3"] * 916), 1)
        with pytest.raises(TraceFormatError, match="line 6.*subcarrier count 916"):
            parse_trace(bad)

    def test_malformed_header(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace(minimal_trace().replace("plctm 1", "plctm 2"))
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace(minimal_trace().replace("subcarriers 917", "subcarriers 916"))

    def test_unknown_node(self):
        bad = minimal_trace().replace("link a b 1", "link a c 1", 1)
        with pytest.raises(TraceFormatError, match="unknown node 'c'"):
            parse_trace(bad)

    def test_duplicate_link_slot(self):
        bad = minimal_trace() + "link a b 1 " + ",".join(["3"] * 917) + "\n"
        with pytest.raises(TraceFormatError, match="duplicate link line"):
            parse_trace(bad)

    def test_slot_out_of_header_range(self):
        bad = minimal_trace().replace("link a b 5", "link a b 6", 1)
        with pytest.raises(TraceFormatError, match="disagrees with header"):
            parse_trace(bad)

    def test_missing_slot_detected(self):
        lines = [l for l in minimal_trace().splitlines() if not l.startswith("link b a 5")]
        with pytest.raises(TraceFormatError, match="missing slot 5"):
            parse_trace("\n".join(lines) + "\n")

    def test_missing_reverse_direction(self):
        lines = [l for l in minimal_trace().splitlines() if not l.startswith("link b a")]
        with pytest.raises(TraceFormatError, match="reverse"):
            parse_trace("\n".join(lines) + "\n")

    def test_value_out_of_range(self):
        bad = minimal_trace().replace("3,3", "11,3", 1)
        with pytest.raises(TraceFormatError, match="out of range"):
            parse_trace(bad)

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated header"):
            parse_trace("plctm 1\nslots 5\n")


class TestSerialize:
    def test_round_trip_identity(self):
        dep = parse_trace(minimal_trace())
        assert parse_trace(serialize_trace(dep)) == dep

    def test_serialization_deterministic(self):
        dep = parse_trace(minimal_trace())
        assert serialize_trace(dep) == serialize_trace(dep)

    def test_canonical_form_is_fixed_point(self):
        # shuffled link-line order parses to the same canonical bytes
        lines = minimal_trace().splitlines()
        header, links = lines[:5], lines[5:]
        shuffled = "\n".join(header + links[::-1]) + "\n"
        canonical = serialize_trace(parse_trace(minimal_trace()))
        assert serialize_trace(parse_trace(shuffled)) == canonical

    def test_line_count_matches_link_and_slot_count(self):
        dep = generate_deployment(4, GeneratorProfile("uniform", seed=3))
        text = serialize_trace(dep)
        link_lines = [l for l in text.splitlines() if l.startswith("link ")]
        assert len(link_lines) == 12 * dep.slot_count

    def test_invalid_deployment_rejected(self):
        dep = Deployment(("a", "b"), {DirectedLink("a", "b"): Tonemap.filled(1)})
        with pytest.raises(ValueError, match="reverse"):
            serialize_trace(dep)


class TestGenerator:
    def test_uniform_degenerate_profile(self):
        dep = generate_deployment(
            2, GeneratorProfile("uniform", base_quality=10, asymmetry_noise=0, seed=9)
        )
        for tmap in dep.links.values():
            assert tmap == Tonemap.filled(10)

    def test_same_seed_byte_identical(self):
        profile = GeneratorProfile("complementary", asymmetry_noise=2, seed=77)
        a = serialize_trace(generate_deployment(4, profile))
        b = serialize_trace(generate_deployment(4, profile))
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(profile_kind="complementary", asymmetry_noise=2)
        a = generate_deployment(4, GeneratorProfile(seed=1, **base))
        b = generate_deployment(4, GeneratorProfile(seed=2, **base))
        assert a != b

    def test_all_maps_valid_and_legal_levels(self):
        for kind in ("uniform", "complementary", "interference-notched", "asymmetric"):
            profile = GeneratorProfile(
                kind, base_quality=6, notch_count=3, notch_width=40,
                asymmetry_noise=2, seed=5,
            )
            dep = generate_deployment(3, profile)
            assert len(dep.links) == 6
            for tmap in dep.links.values():
                assert validate_tonemap(tmap) is None
                assert all(
                    v in LEGAL_MODULATIONS for slot in tmap.slots for v in slot
                )

    def test_complementary_bands_disjoint(self):
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, seed=4)
        )
        # even-index tx nodes are strong in the low half, odd in the high half
        low_strong = dep.links[DirectedLink("n1", "n2")].slot(1)
        high_strong = dep.links[DirectedLink("n2", "n1")].slot(1)
        assert min(low_strong[:458]) >= 8 and max(low_strong[458:]) <= 4
        assert min(high_strong[458:]) >= 8 and max(high_strong[:458]) <= 4

    def test_complementary_deployment_has_positive_ss_gain(self):
        # spectrum-sharing module as the oracle for the profile's guarantee
        dep = generate_deployment(
            4, GeneratorProfile("complementary", base_quality=6, asymmetry_noise=2, seed=1)
        )
        table = build_decision_table(dep, SSPolicy(beta=2, top_m=1))
        assert any(
            alloc.gain > 0
            for candidates in table.entries.values()
            for alloc in candidates
        )

    def test_notched_maps_have_zero_bands(self):
        profile = GeneratorProfile(
            "interference-notched", base_quality=8, notch_count=2, notch_width=50, seed=6
        )
        dep = generate_deployment(2, profile)
        tmap = dep.links[DirectedLink("n1", "n2")]
        zeros = [j for j, v in enumerate(tmap.slot(1)) if v == 0]
        assert len(zeros) == 100
        # both directions share band positions when asymmetry_noise == 0
        assert dep.links[DirectedLink("n2", "n1")].slot(1) == tmap.slot(1)

    def test_asymmetric_profile_directional(self):
        dep = generate_deployment(2, GeneratorProfile("asymmetric", base_quality=6, seed=2))
        forward = dep.links[DirectedLink("n1", "n2")].slot(1)[0]
        backward = dep.links[DirectedLink("n2", "n1")].slot(1)[0]
        assert forward > backward

    def test_infeasible_notch_layout_rejected(self):
        with pytest.raises(ValueError, match="infeasible notch layout"):
            GeneratorProfile("interference-notched", notch_count=100, notch_width=10)

    def test_small_node_count_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            generate_deployment(1, GeneratorProfile("uniform"))

    def test_metadata_records_recipe(self):
        dep = generate_deployment(2, GeneratorProfile("uniform", seed=31))
        assert dep.metadata["prng"] == "splitmix64/1"
        assert dep.metadata["seed"] == "31"
        assert dep.metadata["profile"] == "uniform"


class TestHelpers:
    def test_snap_legal_rounds_to_ladder(self):
        assert snap_legal(5) == 4  # ties resolve downward
        assert snap_legal(7) == 6
        assert snap_legal(9) == 8
        assert snap_legal(10) == 10
        assert snap_legal(0) == 0

    def test_deployment_check_rejects_mixed_slot_counts(self):
        dep = Deployment(
            ("a", "b"),
            {
                DirectedLink("a", "b"): Tonemap.filled(1, 5),
                DirectedLink("b", "a"): Tonemap.filled(1, 4),
            },
        )
        with pytest.raises(ValueError, match="slot_count"):
            dep.check()

    def test_slot_count_of_empty_deployment(self):
        dep = Deployment(("a", "b"), {})
        with pytest.raises(ValueError, match="deployment has no links"):
            dep.slot_count
        with pytest.raises(ValueError, match="deployment has no links"):
            build_decision_table(dep, SSPolicy())

    def test_deployment_from_levels_fixture_valid(self):
        dep = deployment_from_levels({("a", "b"): 10, ("b", "a"): 2})
        dep.check()
        assert dep.slot_count == 5
