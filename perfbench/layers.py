"""Per-layer metrics from the spans and counters of a traced run.

A layer's time is the sum of its spans within one unit of work (a set-up, a
`run_ga` call, a predict pass pair, the preparation or the check), and each
metric is the median over the units in which the layer appears. `problem.*`
adds up the `gasa` and `cagasa` layers, so that it is measured on every
workload; the report also gives each of the two under its own name.
"""

from __future__ import annotations

import math
import statistics

from spans import per_run_totals

PROBLEM_LAYERS = ("gasa", "cagasa")
# The benchmark's own work inside `run_ga`; excluded from `ga_engine` time.
BENCH_SPANS = ("bench.calibrate", "trace.bookkeeping")


def percentile(samples, q: float):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer, corpus_counts: dict) -> dict:
    totals = per_run_totals(tracer.spans)
    runs = sorted(set(totals) | set(tracer.counts))

    def median_of(value):
        values = [value(totals.get(run, {}), tracer.counts.get(run, {})) for run in runs]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    def span_time(*names, part="total"):
        def value(spans, _counts):
            present = [spans[n][part] for n in names if n in spans]
            return sum(present) if present else None

        return median_of(value)

    def count(*names):
        def value(_spans, counts):
            present = [counts[n] for n in names if n in counts]
            return sum(present) if present else None

        return median_of(value)

    out = dict(corpus_counts)
    out["corpus.load_s"] = span_time("corpus.load")
    out["corpus.index_s"] = span_time("corpus.index")
    out["corpus.tokenize_s"] = span_time("corpus.tokenize")

    def problem(prefix, layers):
        def names(*methods):
            return [f"{layer}.{m}" for layer in layers for m in methods]

        evals = names("fitness_many", "fitness")

        def scores_per_s(spans, counts):
            seconds = sum(spans[n]["self"] for n in evals if n in spans)
            scored = sum(counts.get(n, 0) for n in names("sentence_scores"))
            return scored / seconds if seconds else None

        per_genome = [s for n in names("genome_s") for s in tracer.samples.get(n, [])]
        setup = span_time(*names("compile", "setup"))
        if setup is None and not per_genome:
            return
        out[f"{prefix}.setup_s"] = setup
        out[f"{prefix}.init_s"] = span_time(*names("random_genome"))
        out[f"{prefix}.eval_s"] = span_time(*evals, part="self")
        out[f"{prefix}.variation_s"] = span_time(*names("mutate", "crossover"))
        out[f"{prefix}.genomes_scored"] = count(*names("genomes_scored"))
        out[f"{prefix}.sentence_scores_per_s"] = median_of(scores_per_s)
        if per_genome:
            out[f"{prefix}.genome_ms_p50"] = 1000.0 * percentile(per_genome, 50)
            out[f"{prefix}.genome_ms_p99"] = 1000.0 * percentile(per_genome, 99)

    problem("problem", PROBLEM_LAYERS)
    for layer in PROBLEM_LAYERS:
        problem(layer, (layer,))
    if "gasa.setup_s" in out:
        out["gasa.compile_s"] = out.pop("gasa.setup_s")

    def novel_ratio(_spans, counts):
        scored = sum(counts.get(f"{layer}.genomes_scored", 0) for layer in PROBLEM_LAYERS)
        return counts.get("ga_engine.novel_genomes", 0) / scored if scored else None

    def engine_time(spans, _counts):
        if "ga_engine.run" not in spans:
            return None
        overhead = sum(spans[n]["total"] for n in BENCH_SPANS if n in spans)
        return spans["ga_engine.run"]["total"] - overhead

    out["ga_engine.run_s"] = median_of(engine_time)
    out["ga_engine.self_s"] = span_time("ga_engine.run", part="self")
    out["ga_engine.generations"] = count("ga_engine.generations")
    out["ga_engine.offspring"] = count("ga_engine.offspring")
    out["ga_engine.novel_genome_ratio"] = median_of(novel_ratio)

    out["model.save_s"] = span_time("model.save")
    out["model.load_s"] = span_time("model.load")
    out["model.bytes"] = count("model.bytes")

    def predict_self(spans, _counts):
        if "cli.predict" not in spans:
            return None
        inside = sum(spans[n]["total"] for n in ("model.load", "corpus.tokenize") if n in spans)
        return spans["cli.predict"]["total"] - inside

    out["cli.predict_s"] = span_time("cli.predict")
    out["cli.predict_self_s"] = median_of(predict_self)
    for layer in PROBLEM_LAYERS:
        out[f"cli.predict_s.{layer}"] = _child_time(tracer.spans, f"pass.{layer}", "cli.predict")
    return {k: v for k, v in out.items() if v is not None}


def _child_time(spans, parent_name: str, child_name: str):
    """Median duration of `child_name` spans whose parent is `parent_name`."""
    parents = {s.id for s in spans if s.name == parent_name}
    durations = [s.end - s.start for s in spans if s.name == child_name and s.parent in parents]
    return statistics.median(durations) if durations else None
