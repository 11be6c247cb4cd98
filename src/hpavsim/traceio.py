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
identity and re-serializing is byte-identical. The reader takes each number
only in the form the writer writes it, a bare decimal: ``<N>`` and ``<slot>``
in 1..6, each value in 0..10, and ``03``, ``+10`` or ``01`` is an error.

The generator stands in for measured traces. It draws from the splittable
splitmix64 stream of each directed link (stream index = link ordinal), so
output is a pure function of (n_nodes, profile, slot_count) and survives any
reordering of the generation loop. Emitted modulation values are restricted
to the HPAV-legal ladder {0,1,2,3,4,6,8,10}.

``Deployment`` and ``GeneratorProfile`` are checked tuples
(``tonemap.CheckedTuple``).
"""

import io
from itertools import groupby
from typing import Dict, NamedTuple, NoReturn, Optional, Tuple

from .rng import ALGORITHM_NAME, ALGORITHM_VERSION, SplitMix64
from .tonemap import (
    DEFAULT_SLOT_COUNT,
    MAX_MODULATION,
    MAX_SLOT_COUNT,
    SUBCARRIER_COUNT,
    CheckedTuple,
    DirectedLink,
    Tonemap,
    is_integer,
    is_number,
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


class _DeploymentFields(NamedTuple):
    nodes: Tuple[str, ...]
    links: Dict[DirectedLink, Tonemap]
    metadata: Optional[Dict[str, str]] = None


class Deployment(CheckedTuple, _DeploymentFields):
    """Node set plus a tonemap for every traced directed link.

    A tuple of ``nodes`` (kept as a tuple), ``links`` and ``metadata``
    (each copied into a new dict, ``metadata`` empty when None).
    Construction, ``_make`` and ``_replace`` raise ValueError on the first
    broken invariant: fewer than 2 nodes, a duplicate node, no links,
    tonemaps that disagree on slot_count, a link naming an unlisted node or
    a link without its reverse.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        nodes, links, metadata = super().__new__(cls, *args, **kwargs)
        nodes = tuple(nodes)
        links = dict(links)
        if len(nodes) < 2:
            raise ValueError("deployment needs at least 2 nodes")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node identifiers")
        if not links:
            raise ValueError("deployment has no links")
        slot_counts = {t.slot_count for t in links.values()}
        if len(slot_counts) != 1:
            raise ValueError(f"tonemaps disagree on slot_count: {sorted(slot_counts)}")
        known = set(nodes)
        for link in links:
            if link.tx not in known or link.rx not in known:
                raise ValueError(f"link {link} uses a node missing from the node list")
            if link.reversed() not in links:
                raise ValueError(f"link {link} has no reverse-direction tonemap")
        return tuple.__new__(cls, (nodes, links, dict(metadata or {})))

    @property
    def slot_count(self) -> int:
        return next(iter(self.links.values())).slot_count

    def __repr__(self) -> str:
        return (
            f"Deployment(nodes={list(self.nodes)!r}, links={len(self.links)}, "
            f"metadata={self.metadata!r})"
        )


class _ProfileFields(NamedTuple):
    profile_kind: str
    base_quality: float = 6.0
    notch_count: int = 0
    notch_width: int = 0
    asymmetry_noise: int = 0
    seed: int = 0


class GeneratorProfile(CheckedTuple, _ProfileFields):
    """Knobs of the synthetic deployment generator.

    profile_kind       uniform | complementary | interference-notched | asymmetric
    base_quality       mean modulation level, 0-10
    notch_count        zeroed interference bands per map (notched profile)
    notch_width        subcarriers per band
    asymmetry_noise    max per-subcarrier, per-direction perturbation in bits,
                       0-10
    seed               64-bit generator seed

    A tuple of these six fields; construction, ``_make`` and ``_replace``
    raise ValueError for a field of the wrong type or out of range, or a
    notch layout wider than the spectrum.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.profile_kind not in PROFILE_KINDS:
            raise ValueError(
                f"unknown profile {self.profile_kind!r}, expected one of {PROFILE_KINDS}"
            )
        # a float knob would fail deep in the generator, and a bool would
        # reach the trace metadata as True or False
        for name in ("notch_count", "notch_width", "asymmetry_noise", "seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        # a bool would reach the trace metadata as 1, a string would fail
        # in the comparison below
        if not is_number(self.base_quality):
            raise ValueError("base_quality must be a number")
        if not 0 <= self.base_quality <= MAX_MODULATION:
            raise ValueError("base_quality must be in 0..10")
        if self.notch_count < 0 or self.notch_width < 0:
            raise ValueError("notch_count, notch_width must be >= 0")
        # a wider perturbation means nothing on the 0..10 ladder
        if not 0 <= self.asymmetry_noise <= MAX_MODULATION:
            raise ValueError("asymmetry_noise must be in 0..10")
        if self.notch_count * self.notch_width > SUBCARRIER_COUNT:
            raise ValueError(
                f"infeasible notch layout: {self.notch_count} x {self.notch_width} "
                f"exceeds {SUBCARRIER_COUNT} subcarriers"
            )
        return self


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


def parse_trace(text: str) -> Deployment:
    r"""Parse PLCTM v1 text into a Deployment.

    Every number is read as the text ``serialize_trace`` writes: ``slots``
    and a slot index are one of ``1``..``6``, ``subcarriers`` is ``917`` and
    each modulation value is one of ``0``..``10``, so ``03``, ``+10`` and
    ``01`` are refused. Fields are split on any whitespace.

    Lines are split by ``str.splitlines()``, so every Unicode line break
    (``\r\n``, ``\x0b``, ``\u2028`` and the rest) ends a line and none
    can hide inside a ``nodes`` or ``meta`` line: ``split("\n")`` would read
    ``nodes a b\x0bmeta k v`` as five node ids.

    Raises TraceFormatError naming the offending line for malformed input,
    or line 0 when the links, once read, break a Deployment invariant (a
    missing slot or a link without its reverse).
    """
    content = [
        (n, line.strip())
        for n, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(content) < 4:
        raise TraceFormatError(0, "truncated header: need plctm/slots/subcarriers/nodes")

    (n1, l1), (n2, l2), (n3, l3), (n4, l4) = content[:4]
    if l1.split() != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise TraceFormatError(n1, f"expected '{FORMAT_NAME} {FORMAT_VERSION}', got {l1!r}")
    slot_fields = l2.split()
    slot_count = _SLOT_NUMBERS.get(slot_fields[-1]) if slot_fields[:-1] == ["slots"] else None
    if slot_count is None:
        raise TraceFormatError(n2, f"expected 'slots <1..{MAX_SLOT_COUNT}>', got {l2!r}")
    if l3.split() != ["subcarriers", str(SUBCARRIER_COUNT)]:
        raise TraceFormatError(n3, f"expected 'subcarriers {SUBCARRIER_COUNT}', got {l3!r}")
    node_fields = l4.split()
    if not node_fields or node_fields[0] != "nodes" or len(node_fields) < 3:
        raise TraceFormatError(n4, "expected 'nodes <id1> <id2> ...' with at least 2 ids")
    nodes = tuple(node_fields[1:])
    if len(set(nodes)) != len(nodes):
        raise TraceFormatError(n4, "duplicate node identifier")
    known = set(nodes)

    metadata: Dict[str, str] = {}
    link_rows: Dict[Tuple[str, str], list] = {}  # one row per slot, None until read
    for line_no, line in content[4:]:
        parts = line.split(None, 4)
        if parts[0] == "meta":
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise TraceFormatError(line_no, "expected 'meta <key> <value>'")
            if parts[1] in metadata:
                raise TraceFormatError(line_no, f"duplicate meta key {parts[1]!r}")
            metadata[parts[1]] = parts[2]
        elif parts[0] == "link":
            values = _row_values(parts[4]) if len(parts) == 5 else None
            # a value field the row read accepts holds no whitespace; any
            # other line is split in full, so that a value field with
            # whitespace in it fails as a sixth field would, before the
            # checks below
            if values is None and len(line.split(None, 5)) != 5:
                raise TraceFormatError(line_no, "expected 'link <tx> <rx> <slot> <values>'")
            _, tx, rx, slot_s, values_s = parts
            if tx not in known:
                raise TraceFormatError(line_no, f"unknown node {tx!r}")
            if rx not in known:
                raise TraceFormatError(line_no, f"unknown node {rx!r}")
            if tx == rx:
                raise TraceFormatError(line_no, f"link endpoints must differ, got {tx!r}")
            slot = _SLOT_NUMBERS.get(slot_s)
            if slot is None or slot > slot_count:
                raise TraceFormatError(line_no, f"slot index {slot_s!r} not in 1..{slot_count}")
            if values is None:
                _refuse_values(line_no, values_s)
            rows = link_rows.setdefault((tx, rx), [None] * slot_count)
            if rows[slot - 1] is not None:
                raise TraceFormatError(line_no, f"duplicate link line for {tx}->{rx} slot {slot}")
            rows[slot - 1] = values
        else:
            raise TraceFormatError(line_no, f"unrecognized line {line!r}")

    links: Dict[DirectedLink, Tonemap] = {}
    for (tx, rx), rows in sorted(link_rows.items()):
        link = DirectedLink(tx, rx)
        if None in rows:
            missing = rows.index(None) + 1
            raise TraceFormatError(0, f"link {link} is missing slot {missing} of {slot_count}")
        links[link] = Tonemap(rows)
    if not links:
        raise TraceFormatError(0, "trace contains no link lines")
    try:
        return Deployment(nodes, links, metadata)
    except ValueError as exc:
        raise TraceFormatError(0, str(exc)) from None


# the writer's text of each slot count and slot index, and of each value
_SLOT_NUMBERS = {str(k): k for k in range(1, MAX_SLOT_COUNT + 1)}
_VALUE_TOKENS = frozenset(str(v) for v in range(MAX_MODULATION + 1))
# reader: one character per value 0..10, ":" for "10", any other as 255;
# writer: each value's first and second character, "#" where there is none
_CHAR_VALUES = bytes(b"0123456789:".find(c) % 256 for c in range(256))
_HEAD_CHARS = bytes.maketrans(bytes(range(MAX_MODULATION + 1)), b"01234567891")
_TAIL_CHARS = bytes.maketrans(bytes(range(MAX_MODULATION + 1)), b"##########0")
# 917 one-character values at the even offsets, commas between
_ROW_LENGTH = 2 * SUBCARRIER_COUNT - 1
_ROW_COMMAS = b"," * (SUBCARRIER_COUNT - 1)


def _row_values(values_s: str) -> Optional[bytes]:
    """The 917 modulation bytes of a value field in the writer's form (917
    comma-separated tokens, each one of ``0``..``10``), else None.

    The read is C-level bytes operations. A field of exactly 1833
    characters holds no 10 (one of its characters would sit where a comma
    must be); in a longer one a same-length replace writes each "10" as "#:"
    and one delete drops the "#"s, leaving one character per value. A field
    holding a ":" or "#" of its own is refused first, since either would
    read as part of a 10.
    """
    row = values_s.encode("ascii", "replace")
    if b":" in row or b"#" in row:  # else they would read as 10 or vanish
        return None
    if len(row) > _ROW_LENGTH:
        row = row.replace(b"10", b"#:").translate(None, b"#")
    if len(row) == _ROW_LENGTH and row[1::2] == _ROW_COMMAS:
        values = row[::2].translate(_CHAR_VALUES)
        if 255 not in values:
            return values
    return None


def _refuse_values(line_no: int, values_s: str) -> NoReturn:
    """Raise TraceFormatError for a value field that ``_row_values``
    refused: its token count if that is wrong, else its first token outside
    ``0``..``10``."""
    tokens = values_s.split(",")
    if len(tokens) != SUBCARRIER_COUNT:
        raise TraceFormatError(
            line_no, f"subcarrier count {len(tokens)}, expected {SUBCARRIER_COUNT}"
        )
    bad = next(tok for tok in tokens if tok not in _VALUE_TOKENS)
    raise TraceFormatError(line_no, f"bad modulation value {bad!r}, expected 0..{MAX_MODULATION}")


def serialize_trace(deployment: Deployment) -> str:
    """Canonical PLCTM v1 text of a deployment.

    Nodes keep their listed order; meta lines sort by key; link lines sort by
    (tx, rx) then slot. Equal deployments serialize byte-identically. A
    value row is laid out by C-level bytes operations: one character per
    value with commas between when the slot holds no 10, else three bytes
    per value ("d#," or "10,") with the "#" markers deleted. Raises nothing
    of its own: a Deployment is valid once built.
    """
    out = io.StringIO()
    out.write(f"{FORMAT_NAME} {FORMAT_VERSION}\n")
    out.write(f"slots {deployment.slot_count}\n")
    out.write(f"subcarriers {SUBCARRIER_COUNT}\n")
    out.write("nodes " + " ".join(deployment.nodes) + "\n")
    for key in sorted(deployment.metadata):
        out.write(f"meta {key} {deployment.metadata[key]}\n")
    row = bytearray(_ROW_LENGTH)
    row[1::2] = _ROW_COMMAS
    wide = bytearray(3 * SUBCARRIER_COUNT - 1)  # "d#," or "10," per value
    wide[2::3] = _ROW_COMMAS
    for link in sorted(deployment.links):
        tmap = deployment.links[link]
        for k, slot in enumerate(tmap.slots, 1):
            if MAX_MODULATION not in slot:
                row[::2] = slot.translate(_HEAD_CHARS)
                values = row.decode("ascii")
            else:
                wide[::3] = slot.translate(_HEAD_CHARS)
                wide[1::3] = slot.translate(_TAIL_CHARS)
                values = wide.translate(None, b"#").decode("ascii")
            out.write(f"link {link.tx} {link.rx} {k} {values}\n")
    return out.getvalue()


def load_trace(path) -> Deployment:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())


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
    independently by up to that many bits, then snaps back to the legal ladder;
    the notched profile's zeroed bands are the exception and stay 0.
    """
    # a float count fails deep in the generator, and True builds one slot
    for name, value in (("n_nodes", n_nodes), ("slot_count", slot_count)):
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer")
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
    noise = profile.asymmetry_noise
    span = 2 * noise + 1  # draw values 0..2 * noise
    # noisy[b + r] is the value of an entry at base level b after draw r,
    # which moves it by r - noise, clamps it to 0..10 and snaps it; level b
    # maps its draws through noise_tables[b]
    noisy = bytes(
        snap_legal(min(MAX_MODULATION, max(0, i - noise)))
        for i in range(MAX_MODULATION + span)
    )
    noise_tables = [noisy[b : b + span].ljust(256, b"\0") for b in range(MAX_MODULATION + 1)]

    pair_notches: Dict[tuple, list] = {}
    links: Dict[DirectedLink, Tonemap] = {}
    for link in ordered_links:
        rng = SplitMix64(profile.seed, link_ordinal[link])

        if profile.profile_kind == "uniform":
            base_row = [base] * SUBCARRIER_COUNT
        elif profile.profile_kind == "complementary":
            low_band, high_band = (hi, lo) if node_index[link.tx] % 2 == 0 else (lo, hi)
            base_row = [low_band] * half + [high_band] * (SUBCARRIER_COUNT - half)
        elif profile.profile_kind == "asymmetric":
            shift = 2 if node_index[link.tx] < node_index[link.rx] else -2
            base_row = [_ladder_shift(base, shift)] * SUBCARRIER_COUNT
        else:  # interference-notched
            if noise > 0:
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

        if noise == 0:
            slots = [bytes(base_row)] * slot_count
        else:
            quiet_zeros = profile.profile_kind == "interference-notched"
            slots = _noisy_slots(rng, base_row, noise_tables, span, quiet_zeros, slot_count)
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
    return Deployment(nodes, links, metadata)


def _noisy_slots(rng: SplitMix64, base_row: list, noise_tables: list, span: int,
                 quiet_zeros: bool, slot_count: int) -> list:
    """``slot_count`` rows of ``base_row`` (legal levels), each entry at base
    level b with a uniform draw r in 0..span - 1 becoming
    ``noise_tables[b][r]``.

    With ``quiet_zeros`` the zero entries draw nothing and stay 0. All the
    rows take one batch of draws, row by row in subcarrier order, so the
    stream is that of one ``randbelow(span)`` call per drawing entry; each
    run of equal base level maps its share of a row's draws through its
    level's table.
    """
    runs = []  # (length, table) per run of equal level; None draws nothing
    for level, group in groupby(base_row):
        quiet = quiet_zeros and level == 0
        runs.append((len(list(group)), None if quiet else noise_tables[level]))
    drawn = sum(length for length, table in runs if table is not None)
    draws = rng.randbelow_bytes(span, drawn * slot_count)
    slots = []
    pos = 0
    for _ in range(slot_count):
        parts = []
        for length, table in runs:
            if table is None:
                parts.append(bytes(length))
            else:
                parts.append(draws[pos : pos + length].translate(table))
                pos += length
        slots.append(b"".join(parts))
    return slots


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
