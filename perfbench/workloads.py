"""The four benchmark workloads and the loop that runs each of them.

Every workload walks the whole life of a sketch -- set-up, build,
evaluation, save and load -- so every run reports every metric. The
`--seconds` budget goes mostly to the part the workload is about:
repeated builds (BUILD_SHARE of it) for the three build workloads, and
the whole of it to the load / evaluate / save stream for eval-mix. Runs
are single-process and single-threaded, and closed loop: the next build
or bundle starts when the previous one returns.

Instance recipes are pinned here with explicit parameters rather than
taken from `bench_instance`, so an edit to that helper cannot change a
workload silently. The instance seed defaults to 0 and is a separate
argument from the run seed: the run seed draws the bundle samples and
the evaluation stream, so counts and sketch bytes compare exactly across
runs while timings and sampled quality vary only with the machine and
the sample. Times are scaled to a reference machine speed (speed.py).
"""

import math
import os
import random
import resource
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass

import valsketch as vs

from gate import (
    BuildRecord,
    Gate,
    certified_factor,
    check_contract,
    sample_bundles,
    sketch_digest,
    sketch_members,
)
from speed import Speed
from tracing import Tracer

clock = time.perf_counter

BUILD_SETUP_REPS = 25  # set-up is milliseconds here; many reps steady the median
EVAL_SETUP_REPS = 5  # eval-mix set-up includes a full build
MIN_BUILDS = 3
GATE_SAMPLE = 6000  # max_under is a sample maximum; a larger sample steadies it
GATE_PER_BUILD = 128
# Build workloads spend this share of --seconds on builds and the rest on
# the same load / evaluate / save stream as eval-mix. A time box rather
# than a count gives fast sketches as many samples as slow ones, and
# interleaving load and save with evaluation spreads all three over the
# machine's fast and slow spells.
BUILD_SHARE = 0.7
# Latencies go to a store allocated up front, so peak_rss_mb does not grow
# with the number of calls a fast or slow spell allows; calls beyond it
# still count towards eval_bundles_per_s.
LATENCY_CAPACITY = 1 << 20
EVAL_CHUNK = 500  # bundles evaluated per load / save cycle
TRACED_EVAL_BUILDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str
    family: str
    n: int
    params: dict
    timed: str  # "build" or "eval": where the --seconds budget goes
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        # Value-query path with the exact bisection maximizer: ~134k value
        # queries per build, about 75% of build time in the family's
        # _value and 20% in maximizer self time, and only 6% of queried
        # bundles distinct. Grid memoization and oracle vectorization
        # show here; the demand path is idle.
        Workload(
            "matroid-value", "matroid", "partition-matroid", 512,
            {"block_size": 4, "cap": 1}, "build",
            "value queries through the exact bisection maximizer; the family's _value dominates",
        ),
        # Same layers as matroid-value, used differently: bundles grow one
        # item at a time (threshold greedy plus marginal clauses) and the
        # coverage _value loops over the bundle's items. The counted
        # value() stack has its largest share here. A bitset helper that
        # speeds one family and slows the other shows as a split between
        # these two workloads.
        Workload(
            "coverage-greedy", "submodular", "coverage", 512,
            {"universe": 1024, "max_cover": 6}, "build",
            "value queries on growing bundles (threshold greedy, marginal clauses)",
        ),
        # Cheap oracle, demand queries (~4k value, ~21k demand): the grid
        # sweep's own loops, maximizer self time and _demand_uniform
        # share the build. Grid and clause changes show here, value
        # oracle changes hardly move it.
        Workload(
            "xos-demand", "subadditive", "xos-explicit", 2048,
            {"clauses": 24, "support": 256, "uniform": True}, "build",
            "demand queries on a cheap oracle; grid sweep, maximizer and clause code dominate",
        ),
        # The read path: set-up builds and saves the xos-demand sketch
        # (599 members, 290 KB at instance seed 0); the timed part loads
        # it, evaluates a seeded bundle stream and saves it again, with no
        # oracle calls. Small bundles are dominated by evaluate's member
        # loop and large ones by its singleton loop.
        Workload(
            "eval-mix", "subadditive", "xos-explicit", 2048,
            {"clauses": 24, "support": 256, "uniform": True}, "eval",
            "load, evaluate a seeded bundle stream and save the xos-demand sketch; no oracle calls",
        ),
    )
}


@dataclass
class RunResult:
    metrics: dict
    table_only: dict
    raw: dict  # unscaled medians of every timed quantity
    gate: Gate
    tracer: Tracer | None


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """One run of one workload; see run() for the phases.

    Every timed quantity is stored raw and speed-scaled (`add`), with the
    region's scale from the speed probes that fired during it (speed.py).
    """

    def __init__(self, wl: Workload, *, seed, seconds, trace, n, instance_seed, out_dir, src_digest):
        self.wl = wl
        self.seconds = seconds
        self.n = n or wl.n
        self.instance_seed = instance_seed
        self.rng = random.Random(f"perfbench|{wl.name}|{seed}")
        self.pipeline = vs.get_pipeline(wl.pipeline)
        self.gate = Gate()
        self.speed = Speed()
        self.tracer = Tracer(clock=lambda: clock() - self.speed.probe_s) if trace else None
        # keyed by recipe, so eval-mix and xos-demand must agree on their sketch
        key = (f"{wl.pipeline}|{wl.family}|{sorted(wl.params.items())}|n={self.n}"
               f"|instance_seed={instance_seed}|src={src_digest}")
        self.record = BuildRecord(self.gate, os.path.join(out_dir, "determinism.json"), key)
        self.path = os.path.join(out_dir, f"{wl.name}-sketch.json")
        self.path_saved = os.path.join(out_dir, f"{wl.name}-saved.json")
        self.layers = {}
        self.raw = defaultdict(list)
        self.scaled = defaultdict(list)
        self.latencies = array("d", bytes(8 * LATENCY_CAPACITY))  # scaled seconds per call
        self.stored = 0
        self.eval_calls = 0
        self.eval_wall = 0.0  # scaled seconds of evaluation loops
        self.eval_busy = 0.0  # raw seconds inside evaluate
        self.worst = 1.0

    def add(self, name: str, raw: float, scale: float) -> None:
        self.raw[name].append(raw)
        self.scaled[name].append(raw * scale)

    # -- building blocks -------------------------------------------------

    def make_instance(self):
        start = clock()
        spec = vs.generate_instance(self.wl.family, self.n, self.instance_seed, **self.wl.params)
        mid = clock()
        oracle = spec.build(vs.QueryLedger())
        return spec, oracle, mid - start, clock() - mid

    def build(self, oracle, traced: bool):
        """One build_sketch call; returns the sketch, its text and raw time.

        The sketch bytes and query counts go to the determinism record.
        """
        card, xos = self.pipeline.card, self.pipeline.xos
        if traced:
            card, xos = self.tracer.card(card), self.tracer.xos(xos)
            with self.tracer.attached(oracle), self.tracer.build():
                mark = self.speed.mark()
                sketch = vs.build_sketch(oracle, card, xos)
                raw, scale = self.speed.measure(mark)
        else:
            mark = self.speed.mark()
            sketch = vs.build_sketch(oracle, card, xos)
            raw, scale = self.speed.measure(mark)
        self.add("trace.build_s" if traced else "build_s", raw, scale)
        text = vs.serialize(sketch)
        self.record.add(sketch_digest(text), oracle.ledger.totals())
        return sketch, text, raw

    def prepare_sample(self, sketch, oracle) -> None:
        self.bound = certified_factor(sketch)
        self.sample = sample_bundles(sketch, GATE_SAMPLE, self.rng)
        self.truths = [oracle._value(b) for b in self.sample]

    def gate_slice(self, sketch, index: int) -> None:
        """Contract check of one build on its own slice of the sample."""
        lo = (index * GATE_PER_BUILD) % len(self.sample)
        picks = range(lo, min(lo + GATE_PER_BUILD, len(self.sample)))
        self.check_estimates(picks, [vs.evaluate(sketch, self.sample[i]) for i in picks], f"build {index}")

    def check_estimates(self, picks, estimates, label: str) -> None:
        truths = [self.truths[i] for i in picks]
        bundles = [self.sample[i] for i in picks]
        worst = check_contract(self.gate, truths, bundles, estimates, self.bound, label)
        self.worst = max(self.worst, worst)

    def evaluate_chunk(self, sketch, picks, label: str) -> None:
        """Evaluate sample bundles one by one, then record and check them."""
        estimates, latencies = [], []
        speed = self.speed
        span = self.tracer.open("evaluate", calls=len(picks)) if self.tracer else None
        mark = speed.mark()
        for i in picks:
            probe_before = speed.probe_s
            start = clock()
            estimates.append(vs.evaluate(sketch, self.sample[i]))
            latencies.append(clock() - start - (speed.probe_s - probe_before))
        wall, scale = speed.measure(mark)
        if span is not None:
            self.tracer.close(span)
        room = min(len(latencies), LATENCY_CAPACITY - self.stored)
        self.latencies[self.stored:self.stored + room] = array("d", (t * scale for t in latencies[:room]))
        self.stored += room
        self.eval_calls += len(latencies)
        self.eval_wall += wall * scale
        self.eval_busy += sum(latencies)
        self.check_estimates(picks, estimates, label)

    def traced_call(self, name, fn, *args):
        if not self.tracer:
            return fn(*args)
        with self.tracer.codec_attached(), self.tracer.span(name):
            return fn(*args)

    def timed_save(self, sketch) -> None:
        mark = self.speed.mark()
        self.traced_call("save_sketch", vs.save_sketch, sketch, self.path_saved)
        self.add("save_s", *self.speed.measure(mark))

    def timed_load(self, path):
        mark = self.speed.mark()
        sketch = self.traced_call("load_sketch", vs.load_sketch, path)
        self.add("load_s", *self.speed.measure(mark))
        return sketch

    def check_saved(self, text: str, label: str) -> None:
        with open(self.path_saved) as fh:
            saved = fh.read()
        self.gate.check(saved == text + "\n", f"{label}: saved file differs from serialize()")

    # -- phases ------------------------------------------------------------

    def setup_build_workload(self):
        """Instance generation and oracle construction, BUILD_SETUP_REPS times."""
        gen, orc = [], []
        for _ in range(BUILD_SETUP_REPS):
            mark = self.speed.mark()
            spec, _, g, o = self.make_instance()
            self.add("setup_s", *self.speed.measure(mark))
            gen.append(g)
            orc.append(o)
        self.layers["instances.generate_s"] = statistics.median(gen)
        self.layers["instances.oracle_s"] = statistics.median(orc)
        return spec

    def setup_eval_mix(self):
        """Generate, construct, build and save the sketch, EVAL_SETUP_REPS times."""
        gen, orc = [], []
        for _ in range(EVAL_SETUP_REPS):
            mark = self.speed.mark()
            spec, oracle, g, o = self.make_instance()
            sketch, text, _ = self.build(oracle, traced=False)
            vs.save_sketch(sketch, self.path)
            self.add("setup_s", *self.speed.measure(mark))
            gen.append(g)
            orc.append(o)
        self.layers["instances.generate_s"] = statistics.median(gen)
        self.layers["instances.oracle_s"] = statistics.median(orc)
        return spec, oracle, sketch, text

    def build_loop(self, spec):
        """Closed-loop builds for the --seconds budget (at least MIN_BUILDS).

        A traced run alternates untraced and traced builds, so drift on a
        shared machine hits both halves of trace.overhead_frac alike.
        """
        modes = (False, True) if self.tracer else (False,)
        min_rounds = 1 if self.tracer else MIN_BUILDS
        rounds = index = 0
        spent = 0.0
        while True:
            for traced in modes:
                oracle = spec.build(vs.QueryLedger())
                sketch, text, elapsed = self.build(oracle, traced)
                spent += elapsed
                if index == 0:
                    self.prepare_sample(sketch, oracle)
                self.gate_slice(sketch, index)
                index += 1
            rounds += 1
            if rounds >= min_rounds and spent + spent / rounds > BUILD_SHARE * self.seconds:
                return sketch, text

    def eval_stream(self, text, seconds) -> None:
        """Load the saved sketch, evaluate a chunk of the sample, save it; repeat."""
        spent = 0.0
        pos = cycle = 0
        while spent < seconds or cycle == 0:
            cycle_start = clock()
            sketch = self.timed_load(self.path)
            picks = [(pos + i) % len(self.sample) for i in range(EVAL_CHUNK)]
            pos = (picks[-1] + 1) % len(self.sample)
            self.evaluate_chunk(sketch, picks, f"cycle {cycle}")
            self.timed_save(sketch)
            spent += clock() - cycle_start
            self.check_saved(text, f"cycle {cycle}")
            cycle += 1

    # -- whole run -----------------------------------------------------------

    def run(self) -> RunResult:
        with self.speed:
            return self._run()

    def _run(self) -> RunResult:
        if self.wl.timed == "build":
            spec = self.setup_build_workload()
            sketch, text = self.build_loop(spec)
            vs.save_sketch(sketch, self.path)
            self.eval_stream(text, (1.0 - BUILD_SHARE) * self.seconds)
        else:
            spec, oracle, sketch, text = self.setup_eval_mix()
            self.prepare_sample(sketch, oracle)
            if self.tracer:
                for _ in range(TRACED_EVAL_BUILDS):
                    self.build(spec.build(vs.QueryLedger()), traced=True)
            self.eval_stream(text, self.seconds)
        value_q, demand_q = self.record.first["queries"]
        table_only = {
            "demand_queries": demand_q,
            "fail_ratio": self.gate.failed / self.gate.attempted,
            "speed_factor": self.speed.median_scale(),
        }
        raw = {name: statistics.median(v) for name, v in self.raw.items()}
        if self.tracer:
            metrics = self.layer_metrics(sketch)
        else:
            latencies = sorted(self.latencies[:self.stored])
            metrics = {
                "setup_s": statistics.median(self.scaled["setup_s"]),
                "build_s": statistics.median(self.scaled["build_s"]),
                "value_queries": value_q,
                "oracle_queries": value_q + demand_q,
                "sketch_bytes": len(text.encode()),
                "certified_factor": self.bound,
                "max_under": self.worst,
                "peak_rss_mb": peak_rss_mb(),
                "eval_bundles_per_s": self.eval_calls / self.eval_wall,
                "eval_us.p50": percentile(latencies, 50) * 1e6,
                "eval_us.p99": percentile(latencies, 99) * 1e6,
                "load_s": statistics.median(self.scaled["load_s"]),
                "save_s": statistics.median(self.scaled["save_s"]),
            }
        return RunResult(metrics, table_only, raw, self.gate, self.tracer)

    def layer_metrics(self, sketch) -> dict:
        """Per-layer times are raw; only trace.overhead_frac compares scaled builds."""
        out = dict(self.layers)
        out.update(self.tracer.build_summary(len(sketch_members(sketch))))
        out.update(self.tracer.codec_summary())
        out["sketch.evaluate_calls"] = self.eval_calls
        out["sketch.evaluate_busy_s"] = self.eval_busy
        out["sketch.file_bytes"] = os.path.getsize(self.path_saved)
        traced = statistics.median(self.scaled["trace.build_s"])
        out["trace.overhead_frac"] = traced / statistics.median(self.scaled["build_s"]) - 1.0
        return out
