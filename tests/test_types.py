"""The library's records as tuples: each of the fourteen types that were
dataclasses keeps the repr, equality and hash it had then, is immutable,
and, where it checks its fields, runs the same checks with the same
messages from ``_make`` and ``_replace`` as from its constructor.

Every repr string and literal hash below was recorded from the dataclass
versions. A frozen dataclass hashed the tuple of its fields, so each hash
equals the hash of the plain tuple; the declared changes are that a value
now also equals that tuple, that ``LinkTally`` and ``SimReportRaw``,
which were mutable and unhashable, are immutable, and a ``LinkTally``
hashable, and that ``GainReport`` has since lost its four per-run JFI and
FSSE fields."""

import importlib
import math
import pkgutil
import re
from fractions import Fraction

import pytest

import hpavsim
from hpavsim import (
    Deployment,
    DirectedLink,
    FairnessReport,
    GainReport,
    GeneratorProfile,
    LinkGraph,
    MacParams,
    PhyParams,
    Route,
    SimReportRaw,
    SSDecisionTable,
    SSPolicy,
    Tonemap,
)
from hpavsim.macsim import LinkTally
from hpavsim.metrics import LinkGain
from hpavsim.sharing import SSAllocation
from hpavsim.tonemap import SUBCARRIER_COUNT, CheckedTuple

from conftest import filled_tonemap

AB, BA = DirectedLink("a", "b"), DirectedLink("b", "a")
TWO_SLOTS = Tonemap([[1] * SUBCARRIER_COUNT, [2] * SUBCARRIER_COUNT])


def samples():
    """``(name, value, repr recorded from the dataclass)`` of every type."""
    mac_repr = (
        "MacParams(collision_duration_us=2920.64, success_duration_us=2542.64, "
        "frame_length=2050.0, cw_schedule={}, dc_schedule={}, slot_duration_us=35.84, "
        "rank_wait_slots_per_rank=1, reeval_period_us={}, ac_cycle_us=16666.67)"
    )
    return [
        ("MacParams", MacParams(),
         mac_repr.format("(8, 16, 32, 64)", "(0, 1, 3, 15)", "None")),
        ("MacParams-lists",
         MacParams(cw_schedule=[4, 8], dc_schedule=[0, 1], reeval_period_us=1000.0),
         mac_repr.format("(4, 8)", "(0, 1)", "1000.0")),
        ("LinkTally", LinkTally(3, 1, 2, Fraction(1, 3), Fraction(2, 9170)),
         "LinkTally(successes_primary=3, successes_secondary=1, collisions=2, "
         "sf_primary=Fraction(1, 3), sf_secondary=Fraction(1, 4585))"),
        ("LinkTally-defaults", LinkTally(),
         "LinkTally(successes_primary=0, successes_secondary=0, collisions=0, "
         "sf_primary=Fraction(0, 1), sf_secondary=Fraction(0, 1))"),
        ("SimReportRaw", SimReportRaw({AB: LinkTally(1)}, 10.0, 9.0, 4.0, 6.0),
         "SimReportRaw(tallies={DirectedLink(tx='a', rx='b'): LinkTally(successes_primary=1, "
         "successes_secondary=0, collisions=0, sf_primary=Fraction(0, 1), "
         "sf_secondary=Fraction(0, 1))}, total_sim_time_us=10.0, requested_duration_us=9.0, "
         "idle_us=4.0, busy_us=6.0, events=None)"),
        ("Tonemap", TWO_SLOTS, "Tonemap(slot_count=2)"),
        ("PhyParams", PhyParams(),
         "PhyParams(fec_rate=Fraction(16, 21), bit_error_rate=0.0, symbol_interval_us=46.0, "
         "protocol_overhead=0.4)"),
        ("PhyParams-float-rate", PhyParams(fec_rate=0.5, bit_error_rate=0.25),
         "PhyParams(fec_rate=Fraction(1, 2), bit_error_rate=0.25, symbol_interval_us=46.0, "
         "protocol_overhead=0.4)"),
        ("Deployment", Deployment(["a", "b"], {AB: TWO_SLOTS, BA: TWO_SLOTS}, {"k": "v"}),
         "Deployment(nodes=['a', 'b'], links=2, metadata={'k': 'v'})"),
        ("GeneratorProfile", GeneratorProfile("uniform"),
         "GeneratorProfile(profile_kind='uniform', base_quality=6.0, notch_count=0, "
         "notch_width=0, asymmetry_noise=0, seed=0)"),
        ("GeneratorProfile-all",
         GeneratorProfile("interference-notched", 4.5, 2, 10, 1, 99),
         "GeneratorProfile(profile_kind='interference-notched', base_quality=4.5, "
         "notch_count=2, notch_width=10, asymmetry_noise=1, seed=99)"),
        ("SSPolicy", SSPolicy(), "SSPolicy(beta=2, top_m=1, max_share_fraction=1.0)"),
        ("SSPolicy-all", SSPolicy(beta=3, top_m=2, max_share_fraction=0.5),
         "SSPolicy(beta=3, top_m=2, max_share_fraction=0.5)"),
        ("SSDecisionTable", SSDecisionTable({(AB, 1): ()}),
         "SSDecisionTable(entries=1, populated=0)"),
        ("FairnessReport", FairnessReport(0.5, 1.25, {"a": 1.0}, 2.0),
         "FairnessReport(jfi=0.5, fsse=1.25, per_node_throughput={'a': 1.0}, "
         "aggregate_throughput=2.0)"),
        ("LinkGain", LinkGain(1.0, 2.0, 100.0), "LinkGain(base=1.0, ss=2.0, gain_pct=100.0)"),
        ("GainReport",
         GainReport({AB: LinkGain(1.0, 2.0, 100.0)}, 1.0, 2.0, 100.0, 0.25, 1.0),
         "GainReport(per_link={DirectedLink(tx='a', rx='b'): LinkGain(base=1.0, ss=2.0, "
         "gain_pct=100.0)}, aggregate_base=1.0, aggregate_ss=2.0, aggregate_gain_pct=100.0, "
         "jfi_delta=0.25, fsse_delta=1.0)"),
        ("LinkGraph", LinkGraph(["a", "b"], {AB: 1.5}),
         "LinkGraph(nodes=('a', 'b'), edges={DirectedLink(tx='a', rx='b'): 1.5})"),
        ("Route", Route(("a", "b"), 1.5), "Route(path=('a', 'b'), throughput_bps=1.5)"),
    ]


SAMPLES = samples()
IDS = [name for name, _, _ in SAMPLES]
# a dict field makes a value unhashable, as it made the frozen dataclass
UNHASHABLE = {"SimReportRaw", "Deployment", "SSDecisionTable", "FairnessReport",
              "GainReport", "LinkGraph"}


@pytest.mark.parametrize("name, value, text", SAMPLES, ids=IDS)
def test_repr_as_recorded(name, value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name, value, text", SAMPLES, ids=IDS)
def test_equal_and_hash_as_the_tuple_of_fields(name, value, text):
    fields = tuple(getattr(value, f) for f in value._fields)
    assert isinstance(value, tuple) and tuple(value) == fields
    assert value == fields and fields == value
    twin = type(value)(*fields)
    assert twin == value and twin is not value
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(fields) == hash(twin)


def test_hashes_recorded_from_the_dataclasses():
    # fields of numbers only, so these hashes do not depend on the string
    # hash seed
    assert hash(PhyParams()) == -8890358604305017079
    assert hash(SSPolicy()) == -7299810140967063839
    assert hash(LinkGain(1.0, 2.0, 100.0)) == 7838739191357736453


def test_field_order_and_defaults():
    assert MacParams._fields == (
        "collision_duration_us", "success_duration_us", "frame_length", "cw_schedule",
        "dc_schedule", "slot_duration_us", "rank_wait_slots_per_rank", "reeval_period_us",
        "ac_cycle_us")
    assert LinkTally._fields == ("successes_primary", "successes_secondary", "collisions",
                                 "sf_primary", "sf_secondary")
    assert SimReportRaw._fields == ("tallies", "total_sim_time_us", "requested_duration_us",
                                    "idle_us", "busy_us", "events")
    assert GeneratorProfile("uniform")._asdict() == {
        "profile_kind": "uniform", "base_quality": 6.0, "notch_count": 0, "notch_width": 0,
        "asymmetry_noise": 0, "seed": 0}
    assert SSPolicy()._asdict() == {"beta": 2, "top_m": 1, "max_share_fraction": 1.0}
    assert Deployment(("a", "b"), {AB: TWO_SLOTS, BA: TWO_SLOTS}).metadata == {}


@pytest.mark.parametrize("name, value, text", SAMPLES, ids=IDS)
def test_immutable(name, value, text):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


def test_tonemap_caches_its_views_and_stays_immutable():
    tmap = filled_tonemap(3, 2)
    planes, totals = tmap.planes, tmap.totals
    assert tmap.planes is planes and tmap.totals is totals
    assert vars(tmap) == {"planes": planes, "totals": totals}
    for name in ("slots", "planes", "totals", "extra"):
        with pytest.raises(AttributeError, match=f"^cannot set '{name}': a Tonemap is immutable$"):
            setattr(tmap, name, ())
        with pytest.raises(AttributeError,
                           match=f"^cannot delete '{name}': a Tonemap is immutable$"):
            delattr(tmap, name)
    assert tmap.planes is planes and tmap.totals == (3 * SUBCARRIER_COUNT,) * 2
    assert vars(tmap).keys() == {"planes", "totals"}


def test_record_properties():
    tally = LinkTally(3, 1, 2, Fraction(1, 3), Fraction(1, 6))
    assert tally.successes == 4 and tally.sf_total == Fraction(1, 2)
    assert Route(("a", "c", "b"), 1.0).hops == 2


def test_records_order_and_replace():
    # the tuples order field by field; the dataclasses had no order
    assert LinkTally(1) < LinkTally(2) and Route(("a",), 2.0) < Route(("b",), 1.0)
    assert LinkTally(1)._replace(collisions=4) == LinkTally(1, 0, 4)
    assert LinkGain._make([1.0, 2.0, 100.0]) == LinkGain(1.0, 2.0, 100.0)


# per checked type, keywords that build a valid value
VALID = {
    Tonemap: {"slots": TWO_SLOTS.slots},
    PhyParams: {},
    MacParams: {},
    Deployment: {"nodes": ("a", "b"), "links": {AB: TWO_SLOTS, BA: TWO_SLOTS}},
    # a notch width of 1, so that a notch count alone can break the layout
    GeneratorProfile: {"profile_kind": "uniform", "notch_width": 1},
    SSPolicy: {},
    LinkGraph: {"nodes": ("a", "b"), "edges": {AB: 1.0}},
}
# (type, field, bad value, message): one case per check
CHECKS = [
    (Tonemap, "slots", [], "slot count 0 outside 1..6"),
    (Tonemap, "slots", [[0] * SUBCARRIER_COUNT, [0] * 3],
     "subcarrier count 3 in slot 2, expected 917"),
    (Tonemap, "slots", [[0] * 40 + [11] + [0] * 876],
     "modulation out of range: value 11 at slot 1, subcarrier 41"),
    (PhyParams, "fec_rate", "1/2", "fec_rate must be a number"),
    (PhyParams, "fec_rate", Fraction(3, 4),
     f"fec_rate must be one of {(Fraction(1, 2), Fraction(16, 21))}, got 3/4"),
    (PhyParams, "bit_error_rate", True, "bit_error_rate must be a number"),
    (PhyParams, "bit_error_rate", 1.0, "bit_error_rate must be in [0, 1)"),
    (PhyParams, "symbol_interval_us", math.nan, "symbol_interval_us must be positive and finite"),
    (PhyParams, "protocol_overhead", -0.1, "protocol_overhead must be in [0, 1)"),
    (MacParams, "cw_schedule", (8, 16.0, 32, 64), "cw_schedule entries must be integers"),
    (MacParams, "dc_schedule", (0, 1, True, 15), "dc_schedule entries must be integers"),
    (MacParams, "rank_wait_slots_per_rank", 1.0, "rank_wait_slots_per_rank must be an integer"),
    (MacParams, "cw_schedule", (8, 16), "cw_schedule and dc_schedule need equal length >= 1"),
    (MacParams, "cw_schedule", (8, 0, 32, 64), "contention windows must be >= 1"),
    (MacParams, "dc_schedule", (0, -1, 3, 15), "deferral counters must be >= 0"),
    (MacParams, "frame_length", "2050", "frame_length must be a number"),
    (MacParams, "slot_duration_us", math.inf, "slot_duration_us must be positive and finite"),
    (MacParams, "reeval_period_us", 0.0, "reeval_period_us must be positive and finite"),
    (MacParams, "rank_wait_slots_per_rank", -1, "rank_wait_slots_per_rank must be >= 0"),
    (Deployment, "nodes", ("a",), "deployment needs at least 2 nodes"),
    (Deployment, "nodes", ("a", "b", "a"), "duplicate node identifiers"),
    (Deployment, "links", {}, "deployment has no links"),
    (Deployment, "links", {AB: TWO_SLOTS, BA: filled_tonemap(1, 3)},
     "tonemaps disagree on slot_count: [2, 3]"),
    (Deployment, "nodes", ("a", "c"), "link a->b uses a node missing from the node list"),
    (Deployment, "links", {AB: TWO_SLOTS}, "link a->b has no reverse-direction tonemap"),
    (GeneratorProfile, "profile_kind", "flat",
     "unknown profile 'flat', expected one of ('uniform', 'complementary', "
     "'interference-notched', 'asymmetric')"),
    (GeneratorProfile, "seed", 1.0, "seed must be an integer"),
    (GeneratorProfile, "base_quality", None, "base_quality must be a number"),
    (GeneratorProfile, "base_quality", 11, "base_quality must be in 0..10"),
    (GeneratorProfile, "notch_width", -1, "notch_count, notch_width must be >= 0"),
    (GeneratorProfile, "asymmetry_noise", 11, "asymmetry_noise must be in 0..10"),
    (GeneratorProfile, "notch_count", 918,
     "infeasible notch layout: 918 x 1 exceeds 917 subcarriers"),
    (SSPolicy, "beta", True, "beta must be an integer"),
    (SSPolicy, "top_m", 1.5, "top_m must be an integer"),
    (SSPolicy, "beta", -1, "beta must be >= 0"),
    (SSPolicy, "top_m", 0, "top_m must be >= 1"),
    (SSPolicy, "max_share_fraction", "1", "max_share_fraction must be a number"),
    (SSPolicy, "max_share_fraction", 1.5, "max_share_fraction must be in [0, 1]"),
    (LinkGraph, "edges", {AB: -1.0},
     "rate of a->b must be a finite number >= 0, got -1.0"),
    (LinkGraph, "edges", {AB: math.inf},
     "rate of a->b must be a finite number >= 0, got inf"),
    # appended, so that the ids above keep their numbers
    *((PhyParams, "fec_rate", bad,
       f"fec_rate must be one of {(Fraction(1, 2), Fraction(16, 21))}, got {bad}")
      for bad in (math.inf, -math.inf, math.nan)),
]
CHECK_IDS = [f"{kind.__name__}-{field}-{n}" for n, (kind, field, _, _) in enumerate(CHECKS)]


@pytest.mark.parametrize("kind, field, bad, message", CHECKS, ids=CHECK_IDS)
def test_construction_make_and_replace_run_every_check(kind, field, bad, message):
    valid = kind(**VALID[kind])
    fields = valid._asdict()
    fields[field] = bad
    pattern = "^" + re.escape(message) + "$"
    with pytest.raises(ValueError, match=pattern):
        kind(**fields)
    with pytest.raises(ValueError, match=pattern):
        kind._make(fields.values())
    with pytest.raises(ValueError, match=pattern):
        valid._replace(**{field: bad})


def test_make_and_replace_normalise_as_construction():
    mac = MacParams()._replace(cw_schedule=[2, 4], dc_schedule=[0, 1])
    assert mac.cw_schedule == (2, 4) and mac.dc_schedule == (0, 1)
    assert MacParams._make(mac) == mac and type(MacParams._make(mac)) is MacParams
    phy = PhyParams()._replace(fec_rate=0.5)
    assert type(phy.fec_rate) is Fraction and phy.fec_rate == Fraction(1, 2)
    dep = Deployment._make([["a", "b"], {AB: TWO_SLOTS, BA: TWO_SLOTS}, None])
    assert dep.nodes == ("a", "b") and dep.metadata == {}
    links = dict(dep.links)
    assert dep._replace(links=links).links is not links
    graph = LinkGraph(("a", "b"), {AB: 1.0})._replace(nodes=["b", "a"])
    assert graph.nodes == ("b", "a")
    entries = {(AB, 1): ()}
    table = SSDecisionTable._make([entries])
    assert table.entries == entries and table.entries is not entries
    assert table._replace(entries=entries).entries is not entries
    assert Tonemap._make([[[2] * SUBCARRIER_COUNT]]).slots == (bytes([2]) * SUBCARRIER_COUNT,)
    assert SSPolicy()._replace(top_m=3) == SSPolicy(top_m=3)
    assert GeneratorProfile._make(["asymmetric"] + [6.0, 0, 0, 2, 5]).asymmetry_noise == 2


def subclasses_of_fields_classes():
    """Every class defined in an hpavsim module that derives from a
    NamedTuple fields class (a class whose one base is ``tuple``) other
    than itself."""
    names = ["hpavsim"] + [f"hpavsim.{m.name}" for m in pkgutil.iter_modules(hpavsim.__path__)]
    found = set()
    for name in names:
        module = importlib.import_module(name)
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == name
                    and any(base.__bases__ == (tuple,) and hasattr(base, "_fields")
                            for base in value.__mro__[1:])):
                found.add(value)
    return found


def test_every_checked_type_shares_the_one_make():
    checked = subclasses_of_fields_classes()
    # a new checked type is added here on purpose, not by accident
    assert checked == {Tonemap, DirectedLink, PhyParams, Deployment, GeneratorProfile,
                       SSPolicy, SSAllocation, SSDecisionTable, MacParams, LinkGraph}
    for kind in checked:
        assert issubclass(kind, CheckedTuple), kind
        assert "_make" not in vars(kind), kind
        # before the fields class in the MRO, so its _make is the one found
        assert kind._make.__func__ is vars(CheckedTuple)["_make"].__func__, kind
