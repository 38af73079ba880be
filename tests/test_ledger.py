import pytest

from valsketch.ledger import PHASES, QueryLedger
from valsketch.valuations import AdditiveValuation, UniformPrices


def test_counts_accumulate_per_phase():
    led = QueryLedger()
    led.count_value()
    with led.phase("partition"):
        led.count_value()
        led.count_demand()
    assert led.value_queries == 2
    assert led.demand_queries == 1
    assert led.value_by_phase()["build"] == 1
    assert led.value_by_phase()["partition"] == 1
    assert led.demand_by_phase()["partition"] == 1


def test_phases_nest_and_restore():
    led = QueryLedger()
    with led.phase("partition"):
        with led.phase("oracle-internal"):
            led.count_value()
        led.count_value()
    led.count_value()
    by = led.value_by_phase()
    assert by == {"partition": 1, "oracle-internal": 1, "build": 1, "evaluation": 0}


def test_unknown_phase_rejected():
    led = QueryLedger()
    with pytest.raises(ValueError):
        with led.phase("bogus"):
            pass


def test_snapshot_shape():
    led = QueryLedger()
    led.count_value()
    snap = led.snapshot()
    assert snap["value_queries"] == 1
    assert snap["demand_queries"] == 0
    assert set(snap["phases"]) == set(PHASES)


def test_oracle_counts_through_wrappers_once():
    led = QueryLedger()
    v = AdditiveValuation([1.0, 2.0, 4.0], led)
    view = v.restrict(0b011)
    assert view.value(0b111) == 3.0
    assert led.value_queries == 1
    view.demand(UniformPrices(1.5, 0b111, 3))
    assert led.totals() == (1, 1)


def test_internal_hooks_are_uncounted():
    led = QueryLedger()
    v = AdditiveValuation([1.0, 2.0, 4.0], led)
    assert v._value(0b111) == 7.0
    assert led.totals() == (0, 0)
