"""Outside-in layer tracing for the benchmark's traced run.

Nothing inside `src/` knows about this module. Spans are recorded by
wrapping only names the package documents or exports:

  * the `card` and `xos` arguments of `build_sketch` (their `run` and
    `clause` methods): one span per maximizer or clause call
  * `ValuationOracle.value` / `demand`, the counted query boundary
  * the root oracle's `_value`, `_demand` and `_demand_uniform`
    extension hooks, where the instance family does its work
  * `serialize` / `deserialize`, as called by `save_sketch` /
    `load_sketch`

Span tree per build: build -> partition | group -> cardinality | clauses.
A group span starts when the maximizer first sees a new restricted view
and ends when the next group starts. Oracle calls are not spans of their
own (one build makes up to ~164k); each span keeps a count and busy time
of the counted queries made while it was innermost.

A hook that cannot be installed, or that saw no call where the build
shows the layer worked, is reported as unmeasured; the untraced run never
touches this module. Times come from the clock the tracer is given, so
the benchmark can exclude its own speed probes (speed.py) from spans.
"""

import json
import statistics
import time
from contextlib import contextmanager

import valsketch as vs
import valsketch.sketch as vs_sketch


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs",
                 "v_calls", "v_s", "v_hook_s", "d_calls", "d_s", "d_hook_s")

    def __init__(self, sid, parent, name, attrs, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end = None
        self.v_calls = self.d_calls = 0
        self.v_s = self.v_hook_s = self.d_s = self.d_hook_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def query_s(self) -> float:
        return self.v_s + self.d_s

    def as_json(self, t0: float) -> dict:
        out = {"id": self.id, "parent": self.parent, "name": self.name,
               "start_s": self.start - t0, "end_s": self.end - t0}
        for key in ("v_calls", "v_s", "v_hook_s", "d_calls", "d_s", "d_hook_s"):
            value = getattr(self, key)
            if value:
                out[key] = value
        out.update(self.attrs)
        return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans = []
        self.stack = []
        self.unmeasured = set()
        self.builds = []  # per-build layer metrics
        self.codec = {"serialize": [], "deserialize": []}
        self._reset_build()

    # -- spans ---------------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, attrs, self.clock())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    # -- hooks ---------------------------------------------------------

    def _counted(self, orig, kind: str):
        tracer = self
        clock = self.clock

        def counted(oracle, arg):
            hook_before = tracer.hook_s
            start = clock()
            try:
                return orig(oracle, arg)
            finally:
                elapsed = clock() - start
                hook = tracer.hook_s - hook_before
                if tracer.stack:
                    span = tracer.stack[-1]
                    if kind == "value":
                        span.v_calls += 1
                        span.v_s += elapsed
                        span.v_hook_s += hook
                    else:
                        span.d_calls += 1
                        span.d_s += elapsed
                        span.d_hook_s += hook

        return counted

    def _value_hook(self, orig):
        tracer = self
        clock = self.clock

        def hook(bundle):
            start = clock()
            result = orig(bundle)
            elapsed = clock() - start
            tracer.hook_s += elapsed
            tracer.value_hook_s += elapsed
            tracer.value_hook_calls += 1
            tracer.value_bundles.add(bundle)
            return result

        return hook

    def _demand_hook(self, orig):
        tracer = self
        clock = self.clock

        def hook(*args):
            start = clock()
            result = orig(*args)
            elapsed = clock() - start
            tracer.hook_s += elapsed
            tracer.demand_hook_s += elapsed
            tracer.demand_hook_calls += 1
            return result

        return hook

    @contextmanager
    def attached(self, oracle):
        """Wrap the counted query boundary and the root oracle's hooks."""
        restore = []
        cls = vs.ValuationOracle
        for name, layer in (("value", "ledger"), ("demand", "ledger")):
            orig = cls.__dict__.get(name)
            if orig is None:
                self.unmeasured.add(layer)
                continue
            setattr(cls, name, self._counted(orig, name))
            restore.append((cls, name, orig))
        for name, wrap, layer in (
            ("_value", self._value_hook, "valuations.value"),
            ("_demand", self._demand_hook, "valuations.demand"),
            ("_demand_uniform", self._demand_hook, "valuations.demand"),
        ):
            orig = getattr(oracle, name, None)
            if orig is None:
                self.unmeasured.add(layer)
                continue
            restore.append((oracle, name, oracle.__dict__.get(name)))
            setattr(oracle, name, wrap(orig))
        try:
            yield
        finally:
            for owner, name, orig in reversed(restore):
                if orig is None:
                    delattr(owner, name)
                else:
                    setattr(owner, name, orig)

    def card(self, spec):
        """The `card` argument of build_sketch, with a span per `run` call."""
        if not callable(getattr(spec, "run", None)):
            self.unmeasured.add("cardinality")
            return spec
        return _TracedCard(spec, self)

    def xos(self, spec):
        """The `xos` argument of build_sketch, with a span per `clause` call."""
        if not callable(getattr(spec, "clause", None)):
            self.unmeasured.add("clauses")
            return spec
        return _TracedXos(spec, self)

    def enter_group(self, view) -> None:
        if view is self._view:
            return
        self._view = view
        self._group_index += 1
        if self._part is not None:
            self.close(self._part)
            self._part = None
        if self._group is not None:
            self.close(self._group)
        self._group = self.open("group", index=self._group_index)

    # -- builds --------------------------------------------------------

    def _reset_build(self):
        self.hook_s = 0.0
        self.value_hook_s = self.demand_hook_s = 0.0
        self.value_hook_calls = self.demand_hook_calls = 0
        self.value_bundles = set()
        self.card_keys = set()
        self.clause_keys = set()
        self._view = None
        self._group = None
        self._part = None
        self._group_index = -1

    @contextmanager
    def build(self):
        """Span one build_sketch call; its layer metrics go to self.builds."""
        self._reset_build()
        root = self.open("build")
        first = len(self.spans) - 1
        self._part = self.open("partition")
        try:
            yield
        finally:
            for span in (self._part, self._group):
                if span is not None:
                    self.close(span)
            self._part = self._group = None
            self.close(root)
        self.builds.append(self._build_metrics(self.spans[first:]))

    def _build_metrics(self, spans) -> dict:
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)

        def total(name, attr):
            return sum(getattr(s, attr) for s in by_name.get(name, ()))

        build = by_name["build"][0]
        cards, clauses = by_name.get("cardinality", []), by_name.get("clauses", [])
        card_s, clause_s = total("cardinality", "duration"), total("clauses", "duration")
        group_s = total("group", "duration")
        part_s = total("partition", "duration")
        counted_s = sum(s.query_s for s in spans)
        hook_in_counted = sum(s.v_hook_s + s.d_hook_s for s in spans)
        layers = {
            "sketch.partition_self_s": part_s - total("partition", "query_s"),
            "sketch.grid_self_s": group_s - card_s - clause_s - total("group", "query_s"),
            "cardinality.self_s": card_s - total("cardinality", "query_s"),
            "clauses.self_s": clause_s - total("clauses", "query_s"),
            "ledger.self_s": counted_s - hook_in_counted,
            "valuations.hook_s": hook_in_counted,
        }
        value_calls = self.value_hook_calls
        return {
            "trace.build_s": build.duration,
            "trace.accounted_frac": sum(layers.values()) / build.duration,
            "valuations.value_calls": value_calls,
            "valuations.value_busy_s": self.value_hook_s,
            "valuations.value_distinct_ratio": len(self.value_bundles) / value_calls if value_calls else 0.0,
            "valuations.demand_calls": self.demand_hook_calls,
            "valuations.demand_busy_s": self.demand_hook_s,
            "ledger.self_s": layers["ledger.self_s"],
            "ledger.value_queries": sum(s.v_calls for s in spans),
            "ledger.demand_queries": sum(s.d_calls for s in spans),
            "cardinality.calls": len(cards),
            "cardinality.distinct_ratio": len(self.card_keys) / len(cards) if cards else 0.0,
            "cardinality.self_s": layers["cardinality.self_s"],
            "clauses.calls": len(clauses),
            "clauses.distinct_ratio": len(self.clause_keys) / len(clauses) if clauses else 0.0,
            "clauses.self_s": layers["clauses.self_s"],
            "sketch.grid_self_s": layers["sketch.grid_self_s"],
            "sketch.partition_s": part_s,
        }

    def build_summary(self, members: int) -> dict:
        """Median over traced builds of each per-build layer metric."""
        out = {key: statistics.median(b[key] for b in self.builds) for key in self.builds[0]}
        calls = out["cardinality.calls"]
        out["sketch.members_per_card_call"] = members / calls if calls else 0.0
        if out["ledger.value_queries"] + out["ledger.demand_queries"] == 0:
            self.unmeasured.add("ledger")
        if out["ledger.value_queries"] and not out["valuations.value_calls"]:
            self.unmeasured.add("valuations.value")
        if out["ledger.demand_queries"] and not out["valuations.demand_calls"]:
            self.unmeasured.add("valuations.demand")
        if members and not calls:
            self.unmeasured.add("cardinality")
        if members and not out["clauses.calls"]:
            self.unmeasured.add("clauses")
        return out

    # -- sketch file codec -----------------------------------------------

    @contextmanager
    def codec_attached(self):
        """Time serialize/deserialize as save_sketch/load_sketch call them."""
        restore = []
        for name in ("serialize", "deserialize"):
            orig = getattr(vs_sketch, name, None)
            if orig is None:
                self.unmeasured.add(f"sketch.{name}")
                continue
            setattr(vs_sketch, name, self._codec_hook(orig, name))
            restore.append((name, orig))
        try:
            yield
        finally:
            for name, orig in restore:
                setattr(vs_sketch, name, orig)

    def _codec_hook(self, orig, name):
        tracer = self
        clock = self.clock

        def hook(arg):
            with tracer.span(name):
                start = clock()
                result = orig(arg)
                tracer.codec[name].append(clock() - start)
            return result

        return hook

    def codec_summary(self) -> dict:
        out = {}
        for name, times in self.codec.items():
            if not times:
                self.unmeasured.add(f"sketch.{name}")
            out[f"sketch.{name}_s"] = statistics.median(times) if times else 0.0
        return out

    # -- output --------------------------------------------------------

    def write_jsonl(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"header": header, "unmeasured": sorted(self.unmeasured)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_json(self.t0)) + "\n")


class _TracedCard:
    def __init__(self, spec, tracer: Tracer):
        self._spec = spec
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def run(self, oracle, ground, k, **kwargs):
        tracer = self._tracer
        tracer.enter_group(oracle)
        tracer.card_keys.add((tracer._group_index, ground, k))
        with tracer.span("cardinality", k=k):
            return self._spec.run(oracle, ground, k, **kwargs)


class _TracedXos:
    def __init__(self, spec, tracer: Tracer):
        self._spec = spec
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._spec, name)

    def clause(self, oracle, bundle, *args, **kwargs):
        tracer = self._tracer
        tracer.enter_group(oracle)
        tracer.clause_keys.add((tracer._group_index, bundle))
        with tracer.span("clauses"):
            return self._spec.clause(oracle, bundle, *args, **kwargs)
