import hashlib
import random
from fractions import Fraction

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
)
from hpavsim.tonemap import SUBCARRIER_COUNT
from hpavsim.traceio import LEGAL_MODULATIONS, snap_legal

from conftest import deployment_from_levels, filled_tonemap


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
        with pytest.raises(TraceFormatError, match="line 10: slot index '6' not in 1..5"):
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
        with pytest.raises(TraceFormatError, match="bad modulation value '11', expected 0..10"):
            parse_trace(bad)

    @pytest.mark.parametrize("token", ["x", "-1", "11", "300"])
    def test_bad_value_token_named_with_its_line(self, token):
        lines = minimal_trace().splitlines()
        values = ["3"] * 917
        values[4] = token
        lines[7] = "link a b 3 " + ",".join(values)
        with pytest.raises(TraceFormatError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert err.value.line_number == 8
        assert str(err.value) == f"line 8: bad modulation value {token!r}, expected 0..10"

    @pytest.mark.parametrize("slot, token, message", [
        ("1", "03", "bad modulation value '03', expected 0..10"),
        ("1", "+10", "bad modulation value '+10', expected 0..10"),
        ("1", "\u0663", "bad modulation value '\u0663', expected 0..10"),
        ("01", "3", "slot index '01' not in 1..5"),
        ("+1", "3", "slot index '+1' not in 1..5"),
    ], ids=["value-03", "value-plus10", "value-arabic3", "slot-01", "slot-plus1"])
    def test_non_canonical_integer_tokens_rejected(self, slot, token, message):
        # int() reads each of these as a number in range, but the writer
        # never writes them, and the reader takes only the writer's form
        text = minimal_trace() + f"link a  b\t{slot} {token}," + ",".join(["4"] * 916) + "\n"
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert str(err.value) == f"line 16: {message}"

    @pytest.mark.parametrize("line_no, line, message", [
        (2, "slots 0", "expected 'slots <1..6>', got 'slots 0'"),
        (2, "slots 7", "expected 'slots <1..6>', got 'slots 7'"),
        (2, "slots 05", "expected 'slots <1..6>', got 'slots 05'"),
        (2, "slots +5", "expected 'slots <1..6>', got 'slots +5'"),
        (2, "slots 5 5", "expected 'slots <1..6>', got 'slots 5 5'"),
        (2, "slot 5", "expected 'slots <1..6>', got 'slot 5'"),
        (2, "slots", "expected 'slots <1..6>', got 'slots'"),
        (3, "subcarriers 916", "expected 'subcarriers 917', got 'subcarriers 916'"),
        (3, "subcarriers 0917", "expected 'subcarriers 917', got 'subcarriers 0917'"),
        (3, "subcarriers +917", "expected 'subcarriers 917', got 'subcarriers +917'"),
    ])
    def test_header_counts_only_in_the_writers_form(self, line_no, line, message):
        lines = minimal_trace().splitlines()
        lines[line_no - 1] = line
        with pytest.raises(TraceFormatError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert str(err.value) == f"line {line_no}: {message}"

    def test_writer_rows_round_trip(self):
        knobs = {
            "uniform": {},
            "complementary": {"asymmetry_noise": 2},
            "interference-notched": {"notch_count": 4, "notch_width": 40,
                                     "asymmetry_noise": 1},
            "asymmetric": {},
        }
        deployments = [
            generate_deployment(4, GeneratorProfile(kind, base_quality=6, seed=9, **kw))
            for kind, kw in knobs.items()
        ]
        every_level = [bytes((j + k) % 11 for j in range(SUBCARRIER_COUNT)) for k in range(11)]
        # one 10 makes a field one character longer than a row without
        one_ten = bytes([3] * (SUBCARRIER_COUNT - 1) + [10])
        deployments.append(Deployment(("a", "b"), {
            DirectedLink("a", "b"): Tonemap(every_level[:5] + [one_ten]),
            DirectedLink("b", "a"): Tonemap(every_level[5:]),
        }))
        for dep in deployments:
            assert parse_trace(serialize_trace(dep)) == dep

    @pytest.mark.parametrize("newline", ["\r\n", "\u2028"])
    def test_any_line_break_ends_a_line(self, newline):
        text = minimal_trace()
        assert parse_trace(text.replace("\n", newline)) == parse_trace(text)

    def test_line_break_inside_a_line_ends_it(self):
        # a vertical tab inside a value field cuts the row short on its line
        lines = minimal_trace().splitlines()
        lines[5] = "link a b 1 " + ",".join(["3"] * 458) + "\x0b" + ",".join(["3"] * 459)
        with pytest.raises(TraceFormatError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert str(err.value) == "line 6: subcarrier count 458, expected 917"
        # and one inside the nodes line starts a meta line
        text = minimal_trace().replace("nodes a b\nmeta origin test", "nodes a b\x0bmeta k v")
        dep = parse_trace(text)
        assert (dep.nodes, dep.metadata) == (("a", "b"), {"k": "v"})

    def test_truncated_header(self):
        with pytest.raises(TraceFormatError, match="truncated header"):
            parse_trace("plctm 1\nslots 5\n")


ROW = ",".join(["3"] * 917)
LINK_LINE = "expected 'link <tx> <rx> <slot> <values>'"


def with_first_link_line(line):
    """minimal_trace() with its first link line (line 6) replaced."""
    lines = minimal_trace().splitlines()
    lines[5] = line
    return "\n".join(lines) + "\n"


class TestLinkLineLayout:
    """How a link line splits into its five fields, and which error wins
    when a line breaks more than one rule."""

    @pytest.mark.parametrize("line", [
        f"link\ta\tb\t1\t{ROW}",
        f"link  a   b \t 1    {ROW}",
        f"  link a b 1 {ROW}\t ",
    ])
    def test_any_whitespace_separates_fields(self, line):
        assert parse_trace(with_first_link_line(line)) == parse_trace(minimal_trace())

    @pytest.mark.parametrize("values", [
        "3, " + ",".join(["3"] * 916),
        ",".join(["3"] * 458) + ",\t" + ",".join(["3"] * 459),
        ",".join(["3"] * 916) + ", 3",
        "3 ,3" + ",3" * 915,
    ])
    @pytest.mark.parametrize("head", ["link a b 1", "link c b 1", "link a c 1",
                                      "link a a 1", "link a b x", "link a b 9"])
    def test_whitespace_in_the_values_is_a_sixth_field(self, head, values):
        # int(" 3") would read each token, but the line has six fields; that
        # is reported before the node and slot checks see the line
        with pytest.raises(TraceFormatError) as err:
            parse_trace(with_first_link_line(f"{head} {values}"))
        assert str(err.value) == f"line 6: {LINK_LINE}"

    @pytest.mark.parametrize("line, message", [
        (f"link a b 1 {ROW} extra", LINK_LINE),
        (f"link a b 1 {ROW} 3", LINK_LINE),
        ("link a b 1", LINK_LINE),
        (f"link a b {ROW}", LINK_LINE),
        ("link", LINK_LINE),
        (f"link c b 1 {ROW},", "unknown node 'c'"),
        (f"link a b 1 {ROW},", "subcarrier count 918, expected 917"),
        (f"link a b 1 ,{ROW}", "subcarrier count 918, expected 917"),
        (f"link a b 1 {ROW},,", "subcarrier count 919, expected 917"),
        (f"link a b 0 {ROW},", "slot index '0' not in 1..5"),
        (f"link a b 1.0 {ROW}", "slot index '1.0' not in 1..5"),
    ])
    def test_field_count_and_trailing_comma_errors(self, line, message):
        with pytest.raises(TraceFormatError) as err:
            parse_trace(with_first_link_line(line))
        assert str(err.value) == f"line 6: {message}"

    @pytest.mark.parametrize("slot", ["1", "5"])
    def test_duplicate_line_names_its_link_and_slot(self, slot):
        text = minimal_trace() + f"link a  b\t{slot} {ROW.replace('3', '4')}\n"
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert str(err.value) == f"line 16: duplicate link line for a->b slot {slot}"

    def test_duplicate_line_is_checked_after_its_values(self):
        text = minimal_trace() + f"link a b 1 {ROW},\n"
        with pytest.raises(TraceFormatError) as err:
            parse_trace(text)
        assert str(err.value) == "line 16: subcarrier count 918, expected 917"

    def test_missing_slot_names_the_first_link_in_order(self):
        lines = [l for l in minimal_trace().splitlines()
                 if not l.startswith(("link b a 2", "link a b 4"))]
        with pytest.raises(TraceFormatError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert str(err.value) == "link a->b is missing slot 4 of 5"


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

    def test_links_iterate_in_node_order_however_inserted(self):
        dep = generate_deployment(
            5, GeneratorProfile("asymmetric", asymmetry_noise=1, seed=4), slot_count=1
        )
        items = list(dep.links.items())
        random.Random(7).shuffle(items)
        shuffled = Deployment(dep.nodes, dict(items), dep.metadata)
        assert list(shuffled.links) == sorted(dep.links) == list(dep.links)
        assert shuffled == dep
        assert serialize_trace(shuffled) == serialize_trace(dep)

    def test_meta_keys_iterate_in_key_order_however_inserted(self):
        dep = generate_deployment(3, GeneratorProfile("uniform", seed=4), slot_count=1)
        backwards = Deployment(dep.nodes, dep.links, dict(reversed(dep.metadata.items())))
        assert list(backwards.metadata) == sorted(dep.metadata) == list(dep.metadata)
        assert backwards == dep
        assert serialize_trace(backwards) == serialize_trace(dep)

    def test_invalid_deployment_rejected(self):
        # nothing invalid can reach serialize_trace: the constructor refuses it
        with pytest.raises(ValueError, match="reverse"):
            Deployment(("a", "b"), {DirectedLink("a", "b"): filled_tonemap(1)})


class TestGenerator:
    def test_uniform_degenerate_profile(self):
        dep = generate_deployment(
            2, GeneratorProfile("uniform", base_quality=10, asymmetry_noise=0, seed=9)
        )
        for tmap in dep.links.values():
            assert tmap == filled_tonemap(10)

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

    @pytest.mark.parametrize("noise", [-1, 11])
    def test_noise_off_the_ladder_rejected(self, noise):
        with pytest.raises(ValueError, match="asymmetry_noise must be in 0..10"):
            GeneratorProfile("uniform", asymmetry_noise=noise)

    # a bool would be recorded in the trace metadata as True; a float would
    # fail inside the generator
    @pytest.mark.parametrize("name", ["notch_count", "notch_width", "asymmetry_noise", "seed"])
    @pytest.mark.parametrize("value", [True, False, 2.0, 1.5])
    def test_non_integer_knob_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            GeneratorProfile("interference-notched",
                             **{"notch_count": 2, "notch_width": 3, name: value})

    # a bool would reach the trace metadata as 1; a string would fail in the
    # range check with a TypeError
    @pytest.mark.parametrize("value", [True, False, "6", None])
    def test_non_number_base_quality_rejected(self, value):
        with pytest.raises(ValueError, match="^base_quality must be a number$"):
            GeneratorProfile("uniform", base_quality=value)

    @pytest.mark.parametrize("value", [6, 6.5, Fraction(13, 2)])
    def test_real_base_quality_accepted(self, value):
        dep = generate_deployment(2, GeneratorProfile("uniform", base_quality=value))
        assert dep.metadata["base_quality"] == ("6" if value == 6 else "6.5")

    def test_small_node_count_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            generate_deployment(1, GeneratorProfile("uniform"))

    # True would build a one-slot deployment; a float or a string would fail
    # inside the generator with a TypeError
    @pytest.mark.parametrize("n_nodes, slot_count, name", [
        (2, True, "slot_count"), (2, 2.0, "slot_count"), (2, "2", "slot_count"),
        (2.0, 2, "n_nodes"), (True, 2, "n_nodes"), ("2", 2, "n_nodes"),
    ])
    def test_non_integer_count_rejected(self, n_nodes, slot_count, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            generate_deployment(n_nodes, GeneratorProfile("uniform"), slot_count)

    def test_metadata_records_recipe(self):
        dep = generate_deployment(2, GeneratorProfile("uniform", seed=31))
        assert dep.metadata["prng"] == "splitmix64/1"
        assert dep.metadata["seed"] == "31"
        assert dep.metadata["profile"] == "uniform"


# sha256 of serialize_trace(generate_deployment(6, profile)), recorded when
# slots were tuples of ints; the generator and the serializer must keep them.
TRACE_DIGESTS = {
    ("uniform", 0): "8cc9cc1ab19f9339cf8f432e16ab8f89590b0dd499c1385fc48b320263eb3238",
    ("uniform", 2): "e787d2ce23795c6a662fce8fd23f5471bbf46f547b5f0f7bdecc2c3b4559461f",
    ("complementary", 0): "837a3ddc73124066831c00555968c2d46b0a75a137dd88903bd93ebd7768782e",
    ("complementary", 2): "aa47b3a89b86e97a4edc8253b0c2f5099ef3fcc473eb54727afb1d542a7963b2",
    ("interference-notched", 0): "cd2321e932bc5310b7ac322e06741b7bf57f9576e7a1d553def2434d6bdce557",
    ("interference-notched", 2): "adc6cbdc803905d7f4a853d77a0fcd4cd2a6e8f5fab398cf6d7979bcc325ba11",
    ("asymmetric", 0): "4567ee853d7c94f1802a89b7f64a0f5472b213b4266bb77a6bafa4618d06571e",
    ("asymmetric", 2): "ea5dc72b3a068c94116955b9c29343c49425978d152739e9b5c5937c4bcb7e80",
    # recorded from the generator that drew through a list of ints per row
    ("interference-notched", 1): "fa3b015355e2935cbebc330ae897a27969cf48953cb8bb97f0a7f917361df751",
    ("complementary", 10): "3409dce7223b71e2ec8d55bbffdbd3fbdabceb6e39a961dd158fba12eb20c52d",
    ("uniform", 10): "7f12abb73d94d88360c40077c28e12ea460f354247044a14627d61f6f4c770a5",
}


@pytest.mark.parametrize("kind, noise", sorted(TRACE_DIGESTS))
def test_generated_trace_bytes_pinned(kind, noise):
    knobs = {"notch_count": 4, "notch_width": 40} if kind == "interference-notched" else {}
    profile = GeneratorProfile(kind, base_quality=6, asymmetry_noise=noise, seed=1234, **knobs)
    text = serialize_trace(generate_deployment(6, profile))
    assert hashlib.sha256(text.encode()).hexdigest() == TRACE_DIGESTS[(kind, noise)]


class TestHelpers:
    def test_snap_legal_rounds_to_ladder(self):
        assert snap_legal(5) == 4  # ties resolve downward
        assert snap_legal(7) == 6
        assert snap_legal(9) == 8
        assert snap_legal(10) == 10
        assert snap_legal(0) == 0

    def test_snap_lookup_matches_nearest_level_rule(self):
        def nearest_ties_down(v):
            return min(LEGAL_MODULATIONS, key=lambda lv: (abs(lv - v), lv))

        for v in list(range(11)) + [-3, 12, 5.5]:
            assert snap_legal(v) == nearest_ties_down(v), v
        assert (snap_legal(-3), snap_legal(12), snap_legal(5.5)) == (0, 10, 6)

    def test_deployment_check_rejects_mixed_slot_counts(self):
        links = {
            DirectedLink("a", "b"): filled_tonemap(1, 5),
            DirectedLink("b", "a"): filled_tonemap(1, 4),
        }
        with pytest.raises(ValueError, match="slot_count"):
            Deployment(("a", "b"), links)

    def test_slot_count_of_empty_deployment(self):
        with pytest.raises(ValueError, match="deployment has no links"):
            Deployment(("a", "b"), {})

    @pytest.mark.parametrize(
        "nodes, message",
        [
            (("a",), "at least 2 nodes"),
            (("a", "b", "a"), "duplicate node identifiers"),
            (("a", "c"), "link a->b uses a node missing from the node list"),
        ],
    )
    def test_deployment_rejects_bad_node_list(self, nodes, message):
        links = {
            DirectedLink("a", "b"): filled_tonemap(1),
            DirectedLink("b", "a"): filled_tonemap(1),
        }
        with pytest.raises(ValueError, match=message):
            Deployment(nodes, links)

    def test_deployment_rejects_node_ids_that_do_not_order(self):
        links = {
            DirectedLink(1, "a"): filled_tonemap(1),
            DirectedLink("a", 1): filled_tonemap(1),
        }
        with pytest.raises(ValueError, match="^node ids do not order against each other$"):
            Deployment((1, "a"), links)

    def test_deployment_rejects_meta_keys_that_do_not_order(self):
        links = {
            DirectedLink("a", "b"): filled_tonemap(1),
            DirectedLink("b", "a"): filled_tonemap(1),
        }
        with pytest.raises(ValueError, match="^meta keys do not order against each other$"):
            Deployment(("a", "b"), links, {1: "x", "a": "y"})

    def test_deployment_from_levels_fixture_valid(self):
        dep = deployment_from_levels({("a", "b"): 10, ("b", "a"): 2})
        assert dep.slot_count == 5
        assert dep.nodes == ("a", "b") and len(dep.links) == 2
