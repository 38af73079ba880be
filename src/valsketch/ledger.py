"""Query accounting.

One ledger is shared by an oracle and every wrapper built on top of it, so a
query is counted exactly once no matter how many restriction or scaling
layers it passes through. Counts are attributed to the phase that was active
when the query happened.
"""

from contextlib import contextmanager

PHASES = ("partition", "build", "oracle-internal", "evaluation")


class QueryLedger:
    def __init__(self):
        self._value = {p: 0 for p in PHASES}
        self._demand = {p: 0 for p in PHASES}
        self._phase = "build"

    @property
    def value_queries(self) -> int:
        return sum(self._value.values())

    @property
    def demand_queries(self) -> int:
        return sum(self._demand.values())

    def value_by_phase(self) -> dict:
        return dict(self._value)

    def demand_by_phase(self) -> dict:
        return dict(self._demand)

    def count_value(self) -> None:
        self._value[self._phase] += 1

    def count_demand(self) -> None:
        self._demand[self._phase] += 1

    @contextmanager
    def phase(self, name: str):
        """Attribute queries made inside the with-block to the given phase."""
        if name not in PHASES:
            raise ValueError(f"unknown phase {name!r}")
        prev = self._phase
        self._phase = name
        try:
            yield self
        finally:
            self._phase = prev

    def totals(self) -> tuple[int, int]:
        return self.value_queries, self.demand_queries

    def snapshot(self) -> dict:
        return {
            "value_queries": self.value_queries,
            "demand_queries": self.demand_queries,
            "phases": {
                p: {"value": self._value[p], "demand": self._demand[p]}
                for p in PHASES
            },
        }
