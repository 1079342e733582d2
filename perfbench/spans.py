"""Benchmark-side spans, counters and the problem proxy handed to `run_ga`.

Spans are recorded only around calls the benchmark makes into public
`evosent` functions, and around the problem methods the GA engine calls
through `ProblemProxy`. Nothing inside `src/evosent` is instrumented, so a
layer's self time includes the helpers it calls (`evaluator`, `lexicon`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

clock = time.perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    run: str  # the unit of work (set-up, training run, predict pass) it belongs to


class Tracer:
    """In-memory span and counter store; disabled, it records nothing."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.run = "-"
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(int))  # run -> name -> n
        self.samples = defaultdict(list)  # name -> values, over the whole run
        self._stack: list = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(Span(sid, name, clock(), 0.0, parent, self.run))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (open: {popped})")

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, n=1) -> None:
        if self.enabled:
            self.counts[self.run][name] += n

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[name].append(value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.sid = -1

    def __enter__(self):
        if self.tracer.enabled:
            self.sid = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        if self.sid >= 0:
            self.tracer.end(self.sid)
        return False


class ProblemProxy:
    """Wraps a GASA or CA-GASA problem for `run_ga` without changing what the
    engine sees: `fitness_many` exists only when the wrapped problem has it,
    and every other attribute is forwarded unchanged.

    It marks generation boundaries, which gives per-generation wall times: a
    generation starts at the first variation call (`mutate` or `crossover`)
    after any scoring call, and the last one ends at `finish()`, which the
    caller makes once `run_ga` has returned. This holds however many genomes
    the engine scores in a generation. At a boundary the proxy stamps the
    clock in `ended`, calls `between(True)`, and stamps it again in
    `resumed`, so that what `between` does there stays out of the
    generation times. It also calls `between(False)` after every `fitness`
    call, which lets the caller interrupt a generation scored one genome at
    a time.
    Traced, it also records a span per problem call and counts scored
    genomes, generations, offspring and novel genomes: those equal to no
    genome scored in the previous generation and to none scored earlier in
    the same one.
    """

    def __init__(self, problem, tracer: Tracer, layer: str, between=None):
        self._problem = problem
        self._tracer = tracer
        self._layer = layer
        self._scored = False  # a scoring call since the last boundary
        self._batches = 0
        self._previous: dict = {}
        self._batch: list = []
        self._between = between
        self.ended: list = []  # clock() at each boundary
        self.resumed: list = []  # clock() once `between` has returned
        self.random_genome = self._traced(problem.random_genome, "random_genome")
        self.mutate = self._variation(problem.mutate, "mutate")
        self.crossover = self._variation(problem.crossover, "crossover")
        if hasattr(problem, "fitness_many"):
            self.fitness_many = self._fitness_many

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def _traced(self, method, name):
        if not self._tracer.enabled:
            return method
        tracer = self._tracer
        span_name = f"{self._layer}.{name}"

        def call(*args):
            sid = tracer.begin(span_name)
            try:
                return method(*args)
            finally:
                tracer.end(sid)

        return call

    def _variation(self, method, name):
        method = self._traced(method, name)

        def call(*args):
            if self._scored:
                self._boundary()
            return method(*args)

        return call

    def _score(self, method, genomes, arg):
        """Call `method(arg)` in a span, counting `genomes` as scored."""
        tracer = self._tracer
        self._batch.extend(genomes)
        sid = tracer.begin(f"{self._layer}.{method.__name__}")
        try:
            result = method(arg)
        finally:
            tracer.end(sid)
        span = tracer.spans[sid]
        layer = self._layer
        tracer.count(f"{layer}.genomes_scored", len(genomes))
        tracer.count(f"{layer}.sentence_scores", len(genomes) * len(self._problem.corpus))
        per_genome = (span.end - span.start) / len(genomes)
        for _ in genomes:  # one sample per genome, also for a batched call
            tracer.sample(f"{layer}.genome_s", per_genome)
        return result

    def _fitness_many(self, genomes):
        self._scored = True
        if self._tracer.enabled:
            genomes = list(genomes)
            return self._score(self._problem.fitness_many, genomes, genomes)
        return self._problem.fitness_many(genomes)

    def fitness(self, genome):
        self._scored = True
        if self._tracer.enabled:
            score = self._score(self._problem.fitness, [genome], genome)
        else:
            score = self._problem.fitness(genome)
        if self._between is not None:
            self._between(False)
        return score

    def finish(self) -> None:
        """End the last generation; call once `run_ga` has returned."""
        self._boundary()

    def _boundary(self) -> None:
        self._scored = False
        self.ended.append(clock())
        if self._tracer.enabled:
            self._end_batch()
        if self._between is not None:
            self._between(True)
        self.resumed.append(clock())

    def _end_batch(self) -> None:
        # Hashing whole genomes is bookkeeping of the trace, not engine work,
        # so it gets its own span and leaves `ga_engine` self time alone.
        tracer = self._tracer
        with tracer.span("trace.bookkeeping"):
            seen = {}  # hash -> genomes; hashing a genome is the costly part, so once each
            novel = 0
            for genome in self._batch:
                key = hash(genome)
                earlier = self._previous.get(key, []) + seen.get(key, [])
                if all(genome != other for other in earlier):
                    novel += 1
                seen.setdefault(key, []).append(genome)
            tracer.count("ga_engine.novel_genomes", novel)
            if self._batches:
                tracer.count("ga_engine.generations")
                tracer.count("ga_engine.offspring", len(self._batch))
            self._batches += 1
            self._previous, self._batch = seen, []


def self_times(spans) -> dict:
    """Span id -> duration minus the time covered by its direct children."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def per_run_totals(spans) -> dict:
    """run -> span name -> {"total": seconds, "self": seconds}."""
    selfs = self_times(spans)
    out = defaultdict(lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0}))
    for span in spans:
        entry = out[span.run][span.name]
        entry["total"] += span.end - span.start
        entry["self"] += selfs[span.id]
    return out
