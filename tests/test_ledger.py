from valsketch.ledger import QueryLedger
from valsketch.valuations import AdditiveValuation, OracleView


def test_snapshot_shape():
    led = QueryLedger()
    led.value_queries = 2
    led.demand_queries = 1
    assert led.totals() == (2, 1)
    assert led.snapshot() == {"value_queries": 2, "demand_queries": 1}


def test_oracle_counts_through_wrappers_once():
    led = QueryLedger()
    v = AdditiveValuation([1.0, 2.0, 4.0], led)
    view = OracleView(v)
    assert view.value(0b011) == 3.0
    assert led.value_queries == 1
    view.demand((1.5, 0b011))
    assert led.totals() == (1, 1)


def test_internal_hooks_are_uncounted():
    led = QueryLedger()
    v = AdditiveValuation([1.0, 2.0, 4.0], led)
    assert v._value(0b111) == 7.0
    assert led.totals() == (0, 0)
