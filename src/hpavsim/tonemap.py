"""Tonemap data types and the closed-form link metrics computed from them.

A tonemap is the per-subcarrier modulation assignment (bits per OFDM symbol,
0-10) that a HomePlug AV receiver feeds back to a transmitter, one vector of
917 values per AC-line-cycle sub-interval ("slot"). Everything this library
computes - PHY rate, expected throughput, link asymmetry, spectrum fraction -
is a function of tonemaps:

    phy rate (slot k)     sum_j T[j] * C * (1 - B_err) / T_s
    expected throughput   (1 - F_o) * mean_k phy_rate(k)
    asymmetry(a<->b)      sum_k sum_j |T_ab[j] - T_ba[j]| / slot_count
    spectrum fraction     sum_{j in active} T[j] / 9170

All operations are pure; all types are immutable after construction.
Subcarrier and slot indices are 1-based in every public signature, matching
the trace file format.

A map is valid by construction: every slot is 917 ``bytes`` in 0..10, so
summing and indexing a slot run in C, and two maps are equal, and hash
equal, exactly when they hold the same values.

``Tonemap``, ``DirectedLink`` and ``PhyParams`` are checked tuples
(``CheckedTuple``, defined here for the whole library), so every link-keyed
dict and sort hashes and compares a ``DirectedLink`` in C.
"""

from fractions import Fraction
from functools import cached_property
from math import isfinite
from numbers import Real
from typing import Iterable, NamedTuple, Tuple
from zlib import adler32

SUBCARRIER_COUNT = 917
MAX_MODULATION = 10
# Largest per-slot modulation total, and therefore the asymmetry bound and the
# spectrum-fraction denominator: 917 subcarriers * 10 bits.
MAX_MODULATION_TOTAL = SUBCARRIER_COUNT * MAX_MODULATION
MAX_SLOT_COUNT = 6
DEFAULT_SLOT_COUNT = 5

FEC_RATES = (Fraction(1, 2), Fraction(16, 21))

# the valid modulation values 0..10, as bytes
_LEVELS = bytes(range(MAX_MODULATION + 1))
# byte 16 * hi + lo -> |hi - lo|, the per-subcarrier kernel of ``asymmetry``
_NIBBLE_DISTANCE = bytes(abs((i >> 4) - (i & 15)) for i in range(256))
# _PLANE_BITS[b] translates a modulation byte to b"1" if bit b of it is set,
# else b"0"; levels are at most 10 < 2**4, so four planes hold every level
_PLANE_BITS = tuple(
    bytes(0x31 if v >> b & 1 else 0x30 for v in range(256)) for b in range(4)
)


def is_integer(value) -> bool:
    """Whether a parameter is an int and not a bool, the type check of every
    count and seed field: a bool is an int to Python, but True is no
    count of anything."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a parameter is a real number and not a bool, the type check of
    every duration, rate and fraction field: a string would fail in a
    comparison with TypeError, and True would pass as 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


class CheckedTuple:
    """Base of the library's checked tuples, the types that reject a
    malformed value however it is built.

    A checked type derives from this class first and then from a
    ``typing.NamedTuple`` of its fields, as in
    ``class MacParams(CheckedTuple, _MacFields)``. The fields class declares
    the fields and their defaults; the checked type's ``__new__`` runs its
    checks and normalisations and builds the value. The ``_make`` a
    NamedTuple inherits builds the tuple directly, past ``__new__``, and its
    ``_replace`` calls ``_make``; the ``_make`` here calls the class
    instead, so construction, ``_make`` and ``_replace`` all run the same
    checks. A checked value is still the tuple of its fields: it hashes,
    compares and orders in C and equals that plain tuple.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _TonemapFields(NamedTuple):
    slots: Tuple[bytes, ...]


class Tonemap(CheckedTuple, _TonemapFields):
    """Per-subcarrier modulation map for one directed link.

    ``slots[k-1][j-1]`` is the modulation of subcarrier ``j`` during AC-cycle
    sub-interval ``k``, each slot stored as ``bytes`` whatever sequence of
    ints it was built from. Construction, ``_make`` and ``_replace`` raise
    ValueError naming the first violation: slot count outside 1..6, then per
    slot a subcarrier count other than 917 or a value that is not an int in
    0..10.

    A tuple of its one field, ``slots``. Two derived views of ``slots`` are
    computed on first use and then kept in the instance dict: ``planes``,
    each slot's four bit planes, and ``totals``, each slot's summed
    modulation. They are not fields, so equality and hashing still read
    ``slots`` alone; setting or deleting any attribute raises
    AttributeError.
    """

    # no __slots__ = (): the instance dict holds the cached views

    def __new__(cls, slots: Iterable[Iterable[int]]):
        rows = [v if isinstance(v, (bytes, bytearray)) else tuple(v) for v in slots]
        try:
            checked = tuple(map(bytes, rows))
        except (TypeError, ValueError):
            checked = ()
        if not 1 <= len(checked) <= MAX_SLOT_COUNT or any(
            len(slot) != SUBCARRIER_COUNT or slot.translate(None, _LEVELS)
            for slot in checked
        ):
            raise ValueError(_first_violation(rows))
        return tuple.__new__(cls, (checked,))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Tonemap is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Tonemap is immutable")

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    @cached_property
    def planes(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """Per slot, the four bit planes: plane ``b`` marks the subcarriers
        whose level has bit ``b`` set, bit ``j - 1`` standing for subcarrier
        ``j``, so a slot's level at ``j`` is ``sum_b 2**b * (plane_b >> j - 1 & 1)``."""
        return tuple(map(_slot_planes, self.slots))

    @cached_property
    def totals(self) -> Tuple[int, ...]:
        """Per slot, the summed modulation (bits per symbol) of its
        subcarriers, each taken in C by ``_byte_sum``."""
        return tuple(map(_byte_sum, self.slots))

    def slot(self, k: int) -> bytes:
        """Modulation vector of 1-based slot ``k``."""
        if not 1 <= k <= len(self.slots):
            raise ValueError(f"slot index {k} out of range 1..{len(self.slots)}")
        return self.slots[k - 1]

    def __repr__(self) -> str:
        # the full 917-wide vectors are useless in tracebacks
        return f"Tonemap(slot_count={len(self.slots)})"


def _byte_sum(data: bytes) -> int:
    """Sum of the bytes of one slot-sized run, at C speed.

    The low half of Adler-32 is 1 + the byte sum, mod 65521. Every run summed
    here is 917 bytes of at most 10 (a slot's levels, or the per-subcarrier
    distances of ``asymmetry``), so the sum is at most 9170 and never wraps.
    """
    return (adler32(data) & 0xFFFF) - 1


def _slot_planes(vec: bytes) -> Tuple[int, int, int, int]:
    """Bit planes of one slot, as ``Tonemap.planes`` lists them."""
    raw = vec[::-1]  # subcarrier 1 becomes the last, least significant, digit
    p0, p1, p2, p3 = [int(raw.translate(table), 2) for table in _PLANE_BITS]
    return p0, p1, p2, p3


def _first_violation(rows: list) -> str:
    """The first broken invariant of a map's slot rows, 1-based positions."""
    if not 1 <= len(rows) <= MAX_SLOT_COUNT:
        return f"slot count {len(rows)} outside 1..{MAX_SLOT_COUNT}"
    for k, row in enumerate(rows, start=1):
        if len(row) != SUBCARRIER_COUNT:
            return f"subcarrier count {len(row)} in slot {k}, expected {SUBCARRIER_COUNT}"
        for j, v in enumerate(row, start=1):
            if not isinstance(v, int) or not 0 <= v <= MAX_MODULATION:
                return f"modulation out of range: value {v!r} at slot {k}, subcarrier {j}"
    raise AssertionError("no violation in a map that failed its checks")


class _LinkEnds(NamedTuple):
    tx: str
    rx: str


class DirectedLink(CheckedTuple, _LinkEnds):
    """Transmitter/receiver pair identifying one direction of a PLC link.

    A tuple ``(tx, rx)``, so hashing, equality and ordering run in C, and a
    link equals the plain tuple of its ends. Construction, ``_make`` and
    ``_replace`` raise ValueError for ``tx == rx``.
    """

    __slots__ = ()

    def __new__(cls, tx: str, rx: str):
        if tx == rx:
            raise ValueError(f"link endpoints must differ, got {tx!r} twice")
        return tuple.__new__(cls, (tx, rx))

    def reversed(self) -> "DirectedLink":
        return DirectedLink(self.rx, self.tx)

    def __str__(self) -> str:
        return f"{self.tx}->{self.rx}"


class _PhyFields(NamedTuple):
    fec_rate: Fraction = Fraction(16, 21)
    bit_error_rate: float = 0.0
    symbol_interval_us: float = 46.0
    protocol_overhead: float = 0.4


class PhyParams(CheckedTuple, _PhyFields):
    """PHY constants entering the rate formulas.

    fec_rate          FEC code rate C; HPAV uses 1/2 or 16/21
    bit_error_rate    configured constant, not simulated (channel errors are
                      out of the simulation's scope)
    symbol_interval_us  OFDM symbol interval including overheads
    protocol_overhead   MAC/protocol overhead fraction applied to throughput

    A tuple of these four fields; construction, ``_make`` and ``_replace``
    raise ValueError for a value out of range, and keep ``fec_rate`` as a
    Fraction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a string would pass through Fraction("1/2"), and None would fail in
        # it with TypeError
        if not is_number(self.fec_rate):
            raise ValueError("fec_rate must be a number")
        # tested before the conversion, which raises on inf and nan; a
        # Fraction equals a float exactly
        if self.fec_rate not in FEC_RATES:
            raise ValueError(f"fec_rate must be one of {FEC_RATES}, got {self.fec_rate}")
        for name in ("bit_error_rate", "symbol_interval_us", "protocol_overhead"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a number")
        if not 0.0 <= self.bit_error_rate < 1.0:
            raise ValueError("bit_error_rate must be in [0, 1)")
        if not (self.symbol_interval_us > 0 and isfinite(self.symbol_interval_us)):
            raise ValueError("symbol_interval_us must be positive and finite")
        if not 0.0 <= self.protocol_overhead < 1.0:
            raise ValueError("protocol_overhead must be in [0, 1)")
        return tuple.__new__(cls, (Fraction(self.fec_rate),) + self[1:])


def phy_rate(t: Tonemap, slot_index: int, params: PhyParams) -> float:
    """Effective PHY rate of one AC-cycle slot, in bits/second.

    The slot's modulation total (``t.totals``), scaled by the FEC rate and
    the bit error rate, divided by the symbol interval (converted to
    seconds). The scaled total is one int true division, correctly rounded,
    so the result is the float of ``total_bits * fec_rate`` as an exact
    Fraction. Raises ValueError for a slot index outside 1..slot_count.
    """
    t.slot(slot_index)  # raises for an index out of range
    fec = params.fec_rate
    return (
        t.totals[slot_index - 1] * fec.numerator / fec.denominator
        * (1.0 - params.bit_error_rate)
        / (params.symbol_interval_us * 1e-6)
    )


def expected_throughput(t: Tonemap, params: PhyParams) -> float:
    """Protocol-level expected throughput in bits/second.

    The per-slot PHY rates are averaged over all AC-cycle slots and reduced
    by the protocol overhead fraction.
    """
    rates = [phy_rate(t, k, params) for k in range(1, t.slot_count + 1)]
    return (1.0 - params.protocol_overhead) * (sum(rates) / len(rates))


def asymmetry(t_ab: Tonemap, t_ba: Tonemap) -> Fraction:
    """Link asymmetry: summed per-subcarrier modulation distance, averaged
    over slots.

    Exact rational result in [0, 9170]; normalize by 9170 for the [0, 1]
    presentation scale. Symmetric in its arguments and zero iff the maps are
    identical.

    The distances are computed and summed in C: each slot pair is packed
    into one int whose byte j is ``16 * a[j] + b[j]``, that byte is looked
    up in a 256-entry ``|hi - lo|`` table and ``_byte_sum`` adds the
    results. Packing is exact only while every value fits in a nibble (at
    most 15), so that no byte carries into the next; the ``Tonemap``
    constructor guarantees at most 10.
    """
    if t_ab.slot_count != t_ba.slot_count:
        raise ValueError(
            f"slot_count mismatch: {t_ab.slot_count} vs {t_ba.slot_count}"
        )
    total = 0
    for slot_ab, slot_ba in zip(t_ab.slots, t_ba.slots):
        packed = (int.from_bytes(slot_ab, "little") << 4) + int.from_bytes(slot_ba, "little")
        distances = packed.to_bytes(SUBCARRIER_COUNT, "little").translate(_NIBBLE_DISTANCE)
        total += _byte_sum(distances)
    return Fraction(total, t_ab.slot_count)
