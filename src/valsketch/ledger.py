"""Query accounting.

The root oracle owns the ledger. A view of it has none: it sends each
question it has not seen to the root's counted value() or demand(), which
check and count it, so a query is checked and counted exactly once,
whichever view it is asked through.
"""


class QueryLedger:
    def __init__(self):
        self.value_queries = 0
        self.demand_queries = 0

    def count_value(self) -> None:
        self.value_queries += 1

    def count_demand(self) -> None:
        self.demand_queries += 1

    def totals(self) -> tuple[int, int]:
        return self.value_queries, self.demand_queries

    def snapshot(self) -> dict:
        return {"value_queries": self.value_queries, "demand_queries": self.demand_queries}
