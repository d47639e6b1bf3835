"""Tests for word-level memory accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from expertpool.meter import WordMeter


class TestChargeRelease:
    def test_charge_then_release(self):
        m = WordMeter()
        m.charge("pool", 5)
        m.release("pool", 5)
        assert m.current == 0
        assert m.peak == 5

    def test_interleaved(self):
        m = WordMeter()
        m.charge("pool", 3)
        m.charge("mwu", 4)
        m.release("pool", 2)
        assert m.current == 5
        assert m.peak == 7

    def test_release_exceeding_balance(self):
        m = WordMeter()
        m.charge("pool", 3)
        with pytest.raises(ValueError):
            m.release("pool", 4)

    def test_release_wrong_category(self):
        m = WordMeter()
        m.charge("pool", 3)
        with pytest.raises(ValueError):
            m.release("mwu", 1)

    def test_negative_amounts_rejected(self):
        m = WordMeter()
        with pytest.raises(ValueError):
            m.charge("pool", -1)
        with pytest.raises(ValueError):
            m.release("pool", -1)


class TestFields:
    def test_fresh_meter_all_zero(self):
        m = WordMeter()
        assert m.current == 0 and m.peak == 0 and m.by_category == {}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(0, 50)), max_size=30))
def test_meter_arithmetic(ops):
    # meter totals always equal the replayed arithmetic; peak >= current
    m = WordMeter()
    balance = {}
    peak = 0
    for cat, words in ops:
        m.charge(cat, words)
        balance[cat] = balance.get(cat, 0) + words
        peak = max(peak, sum(balance.values()))
    assert m.current == sum(balance.values())
    assert m.peak == peak
    for cat, held in balance.items():
        assert m.by_category[cat] == held
        m.release(cat, held)
    assert m.current == 0
    assert m.peak == peak
