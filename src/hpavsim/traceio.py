"""Deployment trace format (PLCTM v1) and the seeded synthetic generator.

A deployment is a set of nodes plus one tonemap per directed link; one trace
file is one snapshot. The on-disk format is line-oriented UTF-8 text with LF
endings so fixtures diff cleanly and golden files survive reimplementation:

    plctm 1
    slots <N>
    subcarriers 917
    nodes <id1> <id2> ...
    meta <key> <value>            (zero or more, canonical form sorts by key)
    link <tx> <rx> <slot> <v1>,<v2>,...,<v917>

Comment lines start with ``#``. Canonical serialization lists links sorted by
(tx, rx) with slots ascending; ``parse_trace(serialize_trace(d))`` is the
identity and re-serializing is byte-identical.

The generator stands in for measured traces. It draws from the splittable
splitmix64 stream of each directed link (stream index = link ordinal), so
output is a pure function of (n_nodes, profile, slot_count) and survives any
reordering of the generation loop. Emitted modulation values are restricted
to the HPAV-legal ladder {0,1,2,3,4,6,8,10}.
"""

import io
from dataclasses import dataclass
from typing import Dict, Tuple

from .rng import ALGORITHM_NAME, ALGORITHM_VERSION, SplitMix64
from .tonemap import (
    DEFAULT_SLOT_COUNT,
    MAX_MODULATION,
    MAX_SLOT_COUNT,
    SUBCARRIER_COUNT,
    DirectedLink,
    Tonemap,
    validate_tonemap,
)

FORMAT_NAME = "plctm"
FORMAT_VERSION = 1

# HPAV-legal bits-per-subcarrier ladder: none, BPSK, QPSK, 8/16/64/256/1024-QAM.
LEGAL_MODULATIONS = (0, 1, 2, 3, 4, 6, 8, 10)

PROFILE_KINDS = ("uniform", "complementary", "interference-notched", "asymmetric")


class TraceFormatError(ValueError):
    """Malformed PLCTM input; ``line_number`` is 1-based (0 for end-of-file
    consistency problems)."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}" if line_number else message)
        self.line_number = line_number


@dataclass(frozen=True)
class Deployment:
    """Node set plus a tonemap for every traced directed link."""

    nodes: Tuple[str, ...]
    links: Dict[DirectedLink, Tonemap]
    metadata: Dict[str, str]

    def __init__(self, nodes, links, metadata=None):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "links", dict(links))
        object.__setattr__(self, "metadata", dict(metadata or {}))

    @property
    def slot_count(self) -> int:
        if not self.links:
            raise ValueError("deployment has no links")
        return next(iter(self.links.values())).slot_count

    def __repr__(self) -> str:
        return (
            f"Deployment(nodes={list(self.nodes)!r}, links={len(self.links)}, "
            f"metadata={self.metadata!r})"
        )

    def check(self) -> None:
        """Raise ValueError on the first violated deployment invariant."""
        if len(self.nodes) < 2:
            raise ValueError("deployment needs at least 2 nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        if not self.links:
            raise ValueError("deployment has no links")
        slot_counts = {t.slot_count for t in self.links.values()}
        if len(slot_counts) != 1:
            raise ValueError(f"tonemaps disagree on slot_count: {sorted(slot_counts)}")
        known = set(self.nodes)
        for link, tmap in self.links.items():
            if link.tx not in known or link.rx not in known:
                raise ValueError(f"link {link} uses a node missing from the node list")
            if link.reversed() not in self.links:
                raise ValueError(f"link {link} has no reverse-direction tonemap")
            problem = validate_tonemap(tmap)
            if problem is not None:
                raise ValueError(f"link {link}: {problem}")


@dataclass(frozen=True)
class GeneratorProfile:
    """Knobs of the synthetic deployment generator.

    profile_kind       uniform | complementary | interference-notched | asymmetric
    base_quality       mean modulation level, 0-10
    notch_count        zeroed interference bands per map (notched profile)
    notch_width        subcarriers per band
    asymmetry_noise    max per-subcarrier, per-direction perturbation in bits
    seed               64-bit generator seed
    """

    profile_kind: str
    base_quality: float = 6.0
    notch_count: int = 0
    notch_width: int = 0
    asymmetry_noise: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.profile_kind not in PROFILE_KINDS:
            raise ValueError(
                f"unknown profile {self.profile_kind!r}, expected one of {PROFILE_KINDS}"
            )
        if not 0 <= self.base_quality <= MAX_MODULATION:
            raise ValueError("base_quality must be in 0..10")
        if self.notch_count < 0 or self.notch_width < 0 or self.asymmetry_noise < 0:
            raise ValueError("notch_count, notch_width, asymmetry_noise must be >= 0")
        if self.notch_count * self.notch_width > SUBCARRIER_COUNT:
            raise ValueError(
                f"infeasible notch layout: {self.notch_count} x {self.notch_width} "
                f"exceeds {SUBCARRIER_COUNT} subcarriers"
            )


def snap_legal(value) -> int:
    """Nearest HPAV-legal modulation level; ties resolve to the lower level."""
    return min(LEGAL_MODULATIONS, key=lambda lv: (abs(lv - value), lv))


def _ladder_shift(value: int, steps: int) -> int:
    idx = LEGAL_MODULATIONS.index(snap_legal(value))
    idx = max(0, min(len(LEGAL_MODULATIONS) - 1, idx + steps))
    return LEGAL_MODULATIONS[idx]


# --------------------------------------------------------------------------
# Parsing / serialization
# --------------------------------------------------------------------------


def parse_trace(source) -> Deployment:
    """Parse PLCTM v1 text (a string or a text stream) into a Deployment.

    Raises TraceFormatError naming the offending line for malformed input;
    the returned deployment satisfies every deployment invariant.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = source.read().splitlines()

    content = [
        (n, line.strip())
        for n, line in enumerate(lines, start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(content) < 4:
        raise TraceFormatError(0, "truncated header: need plctm/slots/subcarriers/nodes")

    (n1, l1), (n2, l2), (n3, l3), (n4, l4) = content[:4]
    if l1.split() != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise TraceFormatError(n1, f"expected '{FORMAT_NAME} {FORMAT_VERSION}', got {l1!r}")
    slot_count = _parse_header_int(n2, l2, "slots")
    if not 1 <= slot_count <= MAX_SLOT_COUNT:
        raise TraceFormatError(n2, f"slots must be 1..{MAX_SLOT_COUNT}, got {slot_count}")
    subcarriers = _parse_header_int(n3, l3, "subcarriers")
    if subcarriers != SUBCARRIER_COUNT:
        raise TraceFormatError(n3, f"subcarriers must be {SUBCARRIER_COUNT}, got {subcarriers}")
    node_fields = l4.split()
    if not node_fields or node_fields[0] != "nodes" or len(node_fields) < 3:
        raise TraceFormatError(n4, "expected 'nodes <id1> <id2> ...' with at least 2 ids")
    nodes = tuple(node_fields[1:])
    if len(set(nodes)) != len(nodes):
        raise TraceFormatError(n4, "duplicate node identifier")
    known = set(nodes)

    metadata: Dict[str, str] = {}
    slot_vectors: Dict[Tuple[DirectedLink, int], tuple] = {}
    for line_no, line in content[4:]:
        fields = line.split(None, 1)
        if fields[0] == "meta":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise TraceFormatError(line_no, "expected 'meta <key> <value>'")
            if parts[1] in metadata:
                raise TraceFormatError(line_no, f"duplicate meta key {parts[1]!r}")
            metadata[parts[1]] = parts[2]
        elif fields[0] == "link":
            parts = line.split()
            if len(parts) != 5:
                raise TraceFormatError(line_no, "expected 'link <tx> <rx> <slot> <values>'")
            _, tx, rx, slot_s, values_s = parts
            if tx not in known:
                raise TraceFormatError(line_no, f"unknown node {tx!r}")
            if rx not in known:
                raise TraceFormatError(line_no, f"unknown node {rx!r}")
            if tx == rx:
                raise TraceFormatError(line_no, f"link endpoints must differ, got {tx!r}")
            try:
                slot = int(slot_s)
            except ValueError:
                raise TraceFormatError(line_no, f"bad slot index {slot_s!r}") from None
            if not 1 <= slot <= slot_count:
                raise TraceFormatError(
                    line_no, f"slot index {slot} disagrees with header slots {slot_count}"
                )
            values = _parse_values(line_no, values_s)
            key = (DirectedLink(tx, rx), slot)
            if key in slot_vectors:
                raise TraceFormatError(line_no, f"duplicate link line for {key[0]} slot {slot}")
            slot_vectors[key] = values
        else:
            raise TraceFormatError(line_no, f"unrecognized line {line!r}")

    links: Dict[DirectedLink, Tonemap] = {}
    seen_links = sorted({link for link, _ in slot_vectors})
    if not seen_links:
        raise TraceFormatError(0, "trace contains no link lines")
    seen_set = set(seen_links)
    for link in seen_links:
        slots = []
        for k in range(1, slot_count + 1):
            try:
                slots.append(slot_vectors[(link, k)])
            except KeyError:
                raise TraceFormatError(
                    0, f"link {link} is missing slot {k} of {slot_count}"
                ) from None
        links[link] = Tonemap(slots)
        if link.reversed() not in seen_set:
            raise TraceFormatError(0, f"link {link} has no reverse-direction tonemap")

    deployment = Deployment(nodes, links, metadata)
    deployment.check()
    return deployment


def _parse_header_int(line_no: int, line: str, key: str) -> int:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise TraceFormatError(line_no, f"expected '{key} <n>', got {line!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise TraceFormatError(line_no, f"bad integer {parts[1]!r}") from None


def _parse_values(line_no: int, values_s: str) -> tuple:
    tokens = values_s.split(",")
    if len(tokens) != SUBCARRIER_COUNT:
        raise TraceFormatError(
            line_no, f"subcarrier count {len(tokens)}, expected {SUBCARRIER_COUNT}"
        )
    values = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise TraceFormatError(line_no, f"bad modulation value {tok!r}") from None
        if not 0 <= v <= MAX_MODULATION:
            raise TraceFormatError(line_no, f"modulation value {v} out of range 0..{MAX_MODULATION}")
        values.append(v)
    return tuple(values)


def serialize_trace(deployment: Deployment) -> str:
    """Canonical PLCTM v1 text for a valid deployment.

    Nodes keep their listed order; meta lines sort by key; link lines sort by
    (tx, rx) then slot. Equal deployments serialize byte-identically.
    """
    deployment.check()
    out = io.StringIO()
    out.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
    out.write(f"slots {deployment.slot_count}\n")
    out.write(f"subcarriers {SUBCARRIER_COUNT}\n")
    out.write("nodes " + " ".join(deployment.nodes) + "\n")
    for key in sorted(deployment.metadata):
        out.write(f"meta {key} {deployment.metadata[key]}\n")
    for link in sorted(deployment.links):
        tmap = deployment.links[link]
        for k in range(1, tmap.slot_count + 1):
            values = ",".join(str(v) for v in tmap.slot(k))
            out.write(f"link {link.tx} {link.rx} {k} {values}\n")
    return out.getvalue()


def load_trace(path) -> Deployment:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def save_trace(deployment: Deployment, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_trace(deployment))


# --------------------------------------------------------------------------
# Synthetic deployment generator
# --------------------------------------------------------------------------


def generate_deployment(
    n_nodes: int,
    profile: GeneratorProfile,
    slot_count: int = DEFAULT_SLOT_COUNT,
) -> Deployment:
    """Deterministically synthesize a deployment with all n*(n-1) directed links.

    Profiles:
      uniform                every subcarrier at snap(base_quality)
      complementary          each node owns half the band (even node index ->
                             low half, odd -> high half); a node's outgoing
                             links run ~4 levels above base in its own band and
                             ~4 below elsewhere, so cross-band link pairs have
                             disjoint high-modulation regions
      interference-notched   flat base with notch_count zeroed bands of
                             notch_width subcarriers; band positions are drawn
                             per node pair, or per direction when
                             asymmetry_noise > 0
      asymmetric             flat base shifted two ladder steps up in the
                             (lower id -> higher id) direction and two down in
                             the reverse

    asymmetry_noise > 0 perturbs every (slot, subcarrier) of every direction
    independently by up to that many bits, then snaps back to the legal ladder.
    """
    if n_nodes < 2:
        raise ValueError("n_nodes must be >= 2")
    if not 1 <= slot_count <= MAX_SLOT_COUNT:
        raise ValueError(f"slot_count must be 1..{MAX_SLOT_COUNT}")

    nodes = tuple(f"n{i + 1}" for i in range(n_nodes))
    node_index = {node: i for i, node in enumerate(nodes)}
    ordered_links = [
        DirectedLink(a, b) for a in nodes for b in nodes if a != b
    ]
    ordered_links.sort()
    link_ordinal = {link: i for i, link in enumerate(ordered_links)}
    pairs = sorted({tuple(sorted((l.tx, l.rx))) for l in ordered_links})
    # pair streams live above the directed-link streams so indices never clash
    pair_stream_base = len(ordered_links)
    pair_ordinal = {pair: pair_stream_base + i for i, pair in enumerate(pairs)}

    base = snap_legal(profile.base_quality)
    hi = snap_legal(min(MAX_MODULATION, profile.base_quality + 4))
    lo = snap_legal(max(0, profile.base_quality - 4))
    half = SUBCARRIER_COUNT // 2  # low band = 1..458, high band = 459..917

    pair_notches: Dict[tuple, list] = {}
    links: Dict[DirectedLink, Tonemap] = {}
    for link in ordered_links:
        rng = SplitMix64(profile.seed, link_ordinal[link])

        if profile.profile_kind == "uniform":
            base_row = [base] * SUBCARRIER_COUNT
        elif profile.profile_kind == "complementary":
            own_low_band = node_index[link.tx] % 2 == 0
            base_row = [
                hi if ((j < half) == own_low_band) else lo
                for j in range(SUBCARRIER_COUNT)
            ]
        elif profile.profile_kind == "asymmetric":
            shift = 2 if node_index[link.tx] < node_index[link.rx] else -2
            base_row = [_ladder_shift(base, shift)] * SUBCARRIER_COUNT
        else:  # interference-notched
            if profile.asymmetry_noise > 0:
                notches = _draw_notches(rng, profile)
            else:
                pair = tuple(sorted((link.tx, link.rx)))
                if pair not in pair_notches:
                    pair_rng = SplitMix64(profile.seed, pair_ordinal[pair])
                    pair_notches[pair] = _draw_notches(pair_rng, profile)
                notches = pair_notches[pair]
            base_row = [base] * SUBCARRIER_COUNT
            for start, width in notches:
                for j in range(start, start + width):
                    base_row[j] = 0

        notched = {
            j
            for j in range(SUBCARRIER_COUNT)
            if profile.profile_kind == "interference-notched" and base_row[j] == 0
        }
        slots = []
        for _ in range(slot_count):
            if profile.asymmetry_noise == 0:
                slots.append(tuple(base_row))
                continue
            row = []
            for j, b in enumerate(base_row):
                if j in notched:
                    row.append(0)
                    continue
                delta = rng.randint(-profile.asymmetry_noise, profile.asymmetry_noise)
                row.append(snap_legal(min(MAX_MODULATION, max(0, b + delta))))
            slots.append(tuple(row))
        links[link] = Tonemap(slots)

    metadata = {
        "generator": "hpavsim-g1",
        "prng": f"{ALGORITHM_NAME}/{ALGORITHM_VERSION}",
        "profile": profile.profile_kind,
        "seed": str(profile.seed),
        "base_quality": _fmt_number(profile.base_quality),
        "asymmetry_noise": str(profile.asymmetry_noise),
        "notch_count": str(profile.notch_count),
        "notch_width": str(profile.notch_width),
    }
    deployment = Deployment(nodes, links, metadata)
    deployment.check()
    return deployment


def _draw_notches(rng: SplitMix64, profile: GeneratorProfile) -> list:
    """Non-overlapping 0-based (start, width) bands via gap sampling."""
    if profile.notch_count == 0 or profile.notch_width == 0:
        return []
    free = SUBCARRIER_COUNT - profile.notch_count * profile.notch_width
    cuts = sorted(rng.randbelow(free + 1) for _ in range(profile.notch_count))
    return [
        (cut + i * profile.notch_width, profile.notch_width)
        for i, cut in enumerate(cuts)
    ]


def _fmt_number(x) -> str:
    return str(int(x)) if float(x) == int(x) else repr(float(x))
