import math
from fractions import Fraction

import pytest

from hpavsim import (
    DirectedLink,
    PhyParams,
    Tonemap,
    asymmetry,
    expected_throughput,
    phy_rate,
)
from hpavsim.rng import SplitMix64
from hpavsim.tonemap import FEC_RATES, MAX_MODULATION_TOTAL, SUBCARRIER_COUNT, float_sum

from conftest import (
    asymmetry_oracle,
    expected_throughput_oracle,
    filled_tonemap,
    phy_rate_oracle,
    spectrum_fraction,
)


def rate_oracle(tmap, k, params):
    # exact rational arithmetic, independent of the float path under test
    total = sum(tmap.slot(k))
    return Fraction(total) * params.fec_rate * Fraction(1 - params.bit_error_rate) / (
        Fraction(repr(params.symbol_interval_us)) / 10**6
    )


def random_tonemap(rng, slot_count=5):
    return Tonemap(
        tuple(
            tuple(rng.randbelow(11) for _ in range(SUBCARRIER_COUNT))
            for _ in range(slot_count)
        )
    )


class TestValidate:
    def test_maximal_map_ok(self):
        assert filled_tonemap(10).slot(1) == bytes([10]) * SUBCARRIER_COUNT

    def test_modulation_out_of_range(self):
        slots = [[10] * SUBCARRIER_COUNT for _ in range(5)]
        slots[2][41] = 11
        with pytest.raises(ValueError, match="modulation out of range") as err:
            Tonemap(slots)
        assert "slot 3" in str(err.value) and "subcarrier 42" in str(err.value)

    def test_short_subcarrier_vector(self):
        slots = [[10] * SUBCARRIER_COUNT, [10] * (SUBCARRIER_COUNT - 1)]
        with pytest.raises(ValueError, match="subcarrier count 916") as err:
            Tonemap(slots)
        assert "slot 2" in str(err.value)

    def test_slot_count_bounds(self):
        with pytest.raises(ValueError, match="slot count"):
            Tonemap([])
        with pytest.raises(ValueError, match="slot count"):
            Tonemap([[0] * SUBCARRIER_COUNT] * 7)

    def test_negative_value_rejected(self):
        slots = [[0] * SUBCARRIER_COUNT]
        slots[0][0] = -1
        with pytest.raises(ValueError, match="modulation out of range"):
            Tonemap(slots)

    @pytest.mark.parametrize(
        "bad_slot",
        (
            (11,) + (0,) * (SUBCARRIER_COUNT - 1),
            (0,) * (SUBCARRIER_COUNT - 1) + (-1,),
            (0,) * (SUBCARRIER_COUNT - 1),
            bytes([11]) + bytes(SUBCARRIER_COUNT - 1),
            bytearray([11]) + bytes(SUBCARRIER_COUNT - 1),
        ),
        ids=(
            "level-11", "level-minus-1", "916-long", "level-11-bytes", "level-11-bytearray"
        ),
    )
    def test_malformed_middle_slot_names_slot(self, bad_slot):
        good = (8,) * SUBCARRIER_COUNT
        with pytest.raises(ValueError, match="slot 2"):
            Tonemap([good, bad_slot, good])

    def test_scan_order_slot_count_then_length_then_values(self):
        bad_value = [0] * SUBCARRIER_COUNT
        bad_value[5] = 11
        short = [0] * (SUBCARRIER_COUNT - 1)
        with pytest.raises(ValueError, match="slot count 7"):
            Tonemap([bad_value] + [short] * 6)
        with pytest.raises(ValueError, match="value 11 at slot 1, subcarrier 6"):
            Tonemap([bad_value, short])
        with pytest.raises(ValueError, match="subcarrier count 916 in slot 1"):
            Tonemap([[11] + short[1:], bad_value])


class TestRepresentation:
    def test_same_ints_from_any_sequence_equal_and_hash_equal(self):
        values = [j % 11 for j in range(SUBCARRIER_COUNT)]
        maps = [
            Tonemap([values]),
            Tonemap([tuple(values)]),
            Tonemap([bytes(values)]),
            Tonemap([bytearray(values)]),
            Tonemap(iter([iter(values)])),
        ]
        for tmap in maps:
            assert tmap == maps[0]
            assert hash(tmap) == hash(maps[0])
            assert type(tmap.slot(1)) is bytes
            assert tmap.slot(1) == bytes(values)

    def test_float_entry_map_rejected(self):
        with pytest.raises(ValueError, match="value 1.0 at slot 1, subcarrier 1"):
            Tonemap([[1.0] * SUBCARRIER_COUNT])

    @pytest.mark.parametrize("bad", [-1, 11, 256, 1.5])
    def test_malformed_value_built_and_reported(self, bad):
        slots = [[4] * SUBCARRIER_COUNT for _ in range(3)]
        slots[1][99] = bad
        with pytest.raises(ValueError) as err:
            Tonemap(slots)
        assert str(err.value) == (
            f"modulation out of range: value {bad!r} at slot 2, subcarrier 100"
        )


class TestViews:
    def test_planes_rebuild_each_slot(self):
        tmap = random_tonemap(SplitMix64(23, 1), slot_count=3)
        for slot, planes in zip(tmap.slots, tmap.planes):
            assert len(planes) == 4
            assert bytes(
                sum(2**b * (plane >> j & 1) for b, plane in enumerate(planes))
                for j in range(SUBCARRIER_COUNT)
            ) == slot

    def test_totals_are_slot_sums(self):
        tmap = random_tonemap(SplitMix64(29, 1))
        assert tmap.totals == tuple(map(sum, tmap.slots))
        assert filled_tonemap(10, 2).totals == (MAX_MODULATION_TOTAL,) * 2

    def test_filled_views_leave_equality_and_hash(self):
        rng = SplitMix64(31, 1)
        tmap = random_tonemap(rng, slot_count=2)
        twin = Tonemap(tmap.slots)
        before = hash(tmap)
        assert tmap.planes and tmap.totals
        assert {"planes", "totals"} <= vars(tmap).keys()  # kept on the instance
        assert tmap == twin and twin == tmap
        assert hash(tmap) == before == hash(twin)
        assert tmap != random_tonemap(rng, slot_count=2)


class TestPhyRate:
    def test_full_modulation_reference_point(self):
        # 9170 bits * 16/21 / 46 us
        rate = phy_rate(filled_tonemap(10), 1, PhyParams())
        assert round(rate) == 151_884_058
        assert rate == pytest.approx(float(rate_oracle(filled_tonemap(10), 1, PhyParams())), rel=1e-12)

    def test_zero_map(self):
        assert phy_rate(filled_tonemap(0), 3, PhyParams()) == 0.0

    def test_single_subcarrier_with_fec_and_errors(self):
        slots = [[0] * SUBCARRIER_COUNT]
        slots[0][0] = 2
        params = PhyParams(fec_rate=Fraction(1, 2), bit_error_rate=0.5)
        # 2 * 0.5 * 0.5 / 46e-6
        assert round(phy_rate(Tonemap(slots), 1, params)) == 10_870

    def test_slot_index_out_of_range(self):
        with pytest.raises(ValueError, match="slot index"):
            phy_rate(filled_tonemap(1), 6, PhyParams())
        with pytest.raises(ValueError, match="slot index"):
            phy_rate(filled_tonemap(1), 0, PhyParams())

    def test_matches_rational_oracle_on_random_maps(self):
        rng = SplitMix64(2024, 0)
        params = PhyParams()
        for _ in range(50):
            tmap = random_tonemap(rng)
            for k in range(1, 6):
                oracle = float(rate_oracle(tmap, k, params))
                assert phy_rate(tmap, k, params) == pytest.approx(oracle, rel=1e-9)

    def test_monotone_in_modulation_fec_and_symbol_interval(self):
        rng = SplitMix64(7, 0)
        tmap = random_tonemap(rng, slot_count=1)
        base = phy_rate(tmap, 1, PhyParams())
        bumped = [list(tmap.slots[0])]
        j = rng.randbelow(SUBCARRIER_COUNT)
        bumped[0][j] = min(10, bumped[0][j] + 1)
        assert phy_rate(Tonemap(bumped), 1, PhyParams()) >= base
        assert phy_rate(tmap, 1, PhyParams(fec_rate=Fraction(1, 2))) <= base
        assert phy_rate(tmap, 1, PhyParams(bit_error_rate=0.1)) <= base
        assert phy_rate(tmap, 1, PhyParams(symbol_interval_us=92.0)) < base


class TestExpectedThroughput:
    def test_uniform_slots_reference_point(self):
        thr = expected_throughput(filled_tonemap(10), PhyParams())
        assert round(thr) == 91_130_435

    def test_zero_map(self):
        assert expected_throughput(filled_tonemap(0), PhyParams()) == 0.0

    def test_no_overhead_equals_slot_average(self):
        rng = SplitMix64(11, 0)
        tmap = random_tonemap(rng)
        params = PhyParams(protocol_overhead=0.0)
        rates = [phy_rate(tmap, k, params) for k in range(1, 6)]
        assert expected_throughput(tmap, params) == pytest.approx(sum(rates) / 5)

    def test_float_sum_adds_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16; the compensated float sum() of
        # Python 3.12 and later would give 2.0 here
        values = [1e16, 1.0, 1.0, -1e16]
        assert float_sum(values) == 0.0
        assert float_sum(iter(values)) == 0.0
        assert float_sum([]) == 0

    def test_bounded_by_slot_extremes(self):
        rng = SplitMix64(12, 0)
        params = PhyParams()
        for _ in range(20):
            tmap = random_tonemap(rng)
            rates = [phy_rate(tmap, k, params) for k in range(1, 6)]
            thr = expected_throughput(tmap, params)
            assert thr <= max(rates)
            assert thr >= (1 - params.protocol_overhead) * min(rates)


class TestAsymmetry:
    def test_identical_maps(self):
        rng = SplitMix64(3, 0)
        tmap = random_tonemap(rng)
        assert asymmetry(tmap, tmap) == 0

    def test_uniform_one_bit_difference(self):
        assert asymmetry(filled_tonemap(5), filled_tonemap(4)) == 917

    def test_documented_maximum(self):
        assert asymmetry(filled_tonemap(10), filled_tonemap(0)) == 9170

    def test_slot_count_mismatch(self):
        with pytest.raises(ValueError, match="slot_count mismatch"):
            asymmetry(filled_tonemap(1, 5), filled_tonemap(1, 4))

    def test_metric_properties_on_random_maps(self):
        rng = SplitMix64(99, 0)
        for _ in range(20):
            a, b, c = (random_tonemap(rng, 3) for _ in range(3))
            assert asymmetry(a, b) == asymmetry(b, a)
            assert 0 <= asymmetry(a, b) <= 9170
            assert asymmetry(a, c) <= asymmetry(a, b) + asymmetry(b, c)
            assert (asymmetry(a, b) == 0) == (a == b)


def pin_maps():
    """All-0, all-10 and random maps of every slot count, plus maps drawn
    from the two ends of the range only."""
    rng = SplitMix64(1010, 0)
    maps = [filled_tonemap(0), filled_tonemap(10)]
    maps += [random_tonemap(rng, slot_count) for slot_count in range(1, 7)]
    maps += [
        Tonemap([[10 * rng.randbelow(2) for _ in range(SUBCARRIER_COUNT)]] * 3)
        for _ in range(2)
    ]
    return maps


class TestKernelPins:
    """The C-level kernels give exactly the floats and Fractions of the
    per-value expressions they replaced."""

    @pytest.mark.parametrize("fec", FEC_RATES)
    @pytest.mark.parametrize("ber", [0.0, 0.1])
    @pytest.mark.parametrize("symbol_us", [46.0, 92.0])
    def test_rates_equal_the_fraction_expression(self, fec, ber, symbol_us):
        params = PhyParams(fec_rate=fec, bit_error_rate=ber, symbol_interval_us=symbol_us)
        for tmap in pin_maps():
            for k in range(1, tmap.slot_count + 1):
                assert phy_rate(tmap, k, params) == phy_rate_oracle(tmap, k, params)
            assert expected_throughput(tmap, params) == expected_throughput_oracle(tmap, params)

    def test_asymmetry_equals_brute_force(self):
        maps = pin_maps()
        for a in maps:
            for b in maps:
                if a.slot_count == b.slot_count:
                    assert asymmetry(a, b) == asymmetry_oracle(a, b)

    def test_extreme_maps_in_both_orders(self):
        top, bottom = filled_tonemap(10, 6), filled_tonemap(0, 6)
        assert asymmetry(top, bottom) == asymmetry(bottom, top) == 9170
        assert asymmetry(top, top) == asymmetry(bottom, bottom) == 0

    def test_asymmetry_slot_count_mismatch(self):
        with pytest.raises(ValueError, match="slot_count mismatch: 6 vs 1"):
            asymmetry(filled_tonemap(10, 6), filled_tonemap(0, 1))


class TestSpectrumFraction:
    def test_full_spectrum_maximum(self):
        assert spectrum_fraction(filled_tonemap(10), 1, range(1, 918)) == 1

    def test_empty_active_set(self):
        assert spectrum_fraction(filled_tonemap(10), 1, ()) == 0

    def test_uniform_subset(self):
        # 100 subcarriers at 5 bits
        value = spectrum_fraction(filled_tonemap(5), 2, range(1, 101))
        assert value == Fraction(500, 9170)
        assert float(value) == pytest.approx(0.05453, abs=5e-6)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            spectrum_fraction(filled_tonemap(1), 1, [918])
        with pytest.raises(ValueError, match="out of range"):
            spectrum_fraction(filled_tonemap(1), 1, [0])

    def test_negative_index_raises_rather_than_wrapping(self):
        # -1 would otherwise read the slot's last subcarrier
        tmap = filled_tonemap(3)
        with pytest.raises(ValueError, match="subcarrier index -1 out of range"):
            spectrum_fraction(tmap, 1, [5, -1, 7])
        assert spectrum_fraction(tmap, 1, [5, 917, 7]) == Fraction(9, MAX_MODULATION_TOTAL)

    def test_additive_over_disjoint_sets(self):
        rng = SplitMix64(15, 0)
        for _ in range(20):
            tmap = random_tonemap(rng, 1)
            split = 1 + rng.randbelow(SUBCARRIER_COUNT - 1)
            low = range(1, split + 1)
            high = range(split + 1, SUBCARRIER_COUNT + 1)
            assert spectrum_fraction(tmap, 1, low) + spectrum_fraction(
                tmap, 1, high
            ) == spectrum_fraction(tmap, 1, range(1, SUBCARRIER_COUNT + 1))

    def test_purity(self):
        tmap = random_tonemap(SplitMix64(1, 0))
        first = spectrum_fraction(tmap, 1, range(1, 451))
        assert all(
            spectrum_fraction(tmap, 1, range(1, 451)) == first for _ in range(3)
        )


class TestTypes:
    def test_directed_link_rejects_loops(self):
        with pytest.raises(ValueError, match="^link endpoints must differ, got 'a' twice$"):
            DirectedLink("a", "a")

    def test_directed_link_behaves_as_before(self):
        # equality, hash, order, repr and str between links are those of the
        # frozen, ordered dataclass the link used to be
        a, b = DirectedLink("a", "b"), DirectedLink("a", "c")
        assert a == DirectedLink("a", "b") and a != b
        assert hash(a) == hash(DirectedLink("a", "b")) == hash(("a", "b"))
        assert a < b and not b < a and sorted([b, a]) == [a, b]
        assert DirectedLink("a", "z") < DirectedLink("b", "a")
        assert repr(a) == "DirectedLink(tx='a', rx='b')"
        assert str(a) == "a->b" and f"{a}" == "a->b"
        assert (a.tx, a.rx) == ("a", "b") and a.reversed() == DirectedLink("b", "a")
        assert DirectedLink(tx="a", rx="b") == a

    def test_directed_link_equals_its_plain_tuple(self):
        # declared: a link is the tuple (tx, rx), so it equals that tuple
        link = DirectedLink("a", "b")
        assert isinstance(link, tuple)
        assert link == ("a", "b") and ("a", "b") == link
        assert {("a", "b"): 1}[link] == 1

    def test_directed_link_is_immutable(self):
        link = DirectedLink("a", "b")
        with pytest.raises(AttributeError):
            link.tx = "c"
        with pytest.raises(AttributeError):
            link.extra = 1

    def test_make_and_replace_reject_loops(self):
        link = DirectedLink("a", "b")
        assert DirectedLink._make(["a", "b"]) == link
        assert link._replace(rx="c") == DirectedLink("a", "c")
        with pytest.raises(ValueError, match="^link endpoints must differ, got 'a' twice$"):
            DirectedLink._make(["a", "a"])
        with pytest.raises(ValueError, match="^link endpoints must differ, got 'a' twice$"):
            link._replace(rx="a")

    def test_phy_params_validation(self):
        with pytest.raises(ValueError):
            PhyParams(fec_rate=Fraction(3, 4))
        with pytest.raises(ValueError):
            PhyParams(bit_error_rate=1.0)
        with pytest.raises(ValueError):
            PhyParams(symbol_interval_us=0)
        with pytest.raises(ValueError):
            PhyParams(protocol_overhead=1.0)

    # True passed the range checks as 1, and a string failed them with
    # TypeError; a fec_rate of "1/2" passed through Fraction as 1/2, and None
    # raised TypeError in it
    @pytest.mark.parametrize("value", [True, "x", "1/2", None])
    @pytest.mark.parametrize("field", ["fec_rate", "bit_error_rate", "symbol_interval_us",
                                       "protocol_overhead"])
    def test_phy_params_need_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a number$"):
            PhyParams(**{field: value})

    # a NaN interval passed the "<= 0" check and made every rate NaN
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_symbol_interval_rejected(self, value):
        with pytest.raises(ValueError, match="^symbol_interval_us must be positive and finite$"):
            PhyParams(symbol_interval_us=value)

    def test_max_total_constant(self):
        assert MAX_MODULATION_TOTAL == 9170
