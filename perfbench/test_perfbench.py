"""Checks of the benchmark itself, at a small size.

    python3 -m pytest perfbench/test_perfbench.py -q

A traced and an untraced run of each workload must give identical
trajectories, model bytes and labels, and in a traced run every span's self
time plus its children's time must equal its duration.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import ProblemProxy, Tracer, self_times  # noqa: E402

TINY = workloads.CorpusSpec(instances=200, planted=20, fillers=6)
SMALL = {
    "gasa": workloads.TrainSpec("gasa", TINY, generations=3, population=12, tournament=3),
    "cagasa": workloads.TrainSpec("cagasa", TINY, generations=2, population=8, tournament=3),
    "predict": workloads.PredictSpec(
        models=(
            workloads.TrainSpec("gasa", TINY, generations=2, population=12, tournament=3),
            workloads.TrainSpec("cagasa", TINY, generations=1, population=6, tournament=2),
        ),
        lines=300,
    ),
}


@pytest.fixture(scope="module")
def oracles():
    return checks.load_oracles(ROOT)


def _run(spec, trace, tmp_path, oracles, seed=3):
    work = tmp_path / f"trace{int(trace)}"
    work.mkdir()
    return workloads.run(spec, seed, 0.0, trace, work, oracles)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_behaves_like_untraced(name, tmp_path, oracles):
    plain, _ = _run(SMALL[name], False, tmp_path, oracles)
    traced, tracer = _run(SMALL[name], True, tmp_path, oracles)
    assert plain.ops.failures == [] and traced.ops.failures == []
    assert plain.ops.attempted == traced.ops.attempted > 0
    assert plain.fingerprints == traced.fingerprints
    kinds = {key.split(".")[0] for key in plain.fingerprints}
    assert kinds == {"model", "trajectory", "labels"}
    assert [u.traced for u in traced.units] == [False, True]
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_time_plus_children_equals_span(name, tmp_path, oracles):
    _, tracer = _run(SMALL[name], True, tmp_path, oracles)
    spans = tracer.spans
    selfs = self_times(spans)
    children = {}
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
            assert parent.run == span.run
            children.setdefault(span.parent, []).append(span)
    for span in spans:
        inside = sum(c.end - c.start for c in children.get(span.id, []))
        assert selfs[span.id] >= 0.0
        assert selfs[span.id] + inside == pytest.approx(span.end - span.start, abs=1e-9)
    # Every root span is fully accounted for by the self times beneath it.
    subtree_self = {}
    for span in reversed(spans):  # children are recorded after their parents
        subtree_self[span.id] = selfs[span.id] + sum(
            subtree_self[c.id] for c in children.get(span.id, [])
        )
    for span in spans:
        if span.parent < 0:
            assert subtree_self[span.id] == pytest.approx(span.end - span.start, abs=1e-9)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_benchmark_metric_is_reported(name, tmp_path, oracles):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, tracer = _run(SMALL[name], True, tmp_path, oracles)
    e2e, _, _ = workloads.end_to_end(SMALL[name], result)
    per_layer = layers.layer_metrics(tracer, result.corpus_counts)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in spec["per_layer"]} <= set(per_layer)
    for m in spec["end_to_end"]:
        assert e2e[m["name"]] > 0


class Plain:
    corpus = ()
    marker = "forwarded"

    def fitness(self, genome):
        return len(genome)

    def random_genome(self, rng):
        return "a"

    def mutate(self, genome, rng):
        return genome + "m"

    def crossover(self, g1, g2, rng):
        return g1 + "x", g2 + "x"


class Batched(Plain):
    def fitness_many(self, genomes):
        return [len(g) for g in genomes]


def test_proxy_exposes_fitness_many_only_when_wrapped_problem_has_it():
    for traced in (False, True):
        plain = ProblemProxy(Plain(), Tracer(traced), "gasa")
        batched = ProblemProxy(Batched(), Tracer(traced), "gasa")
        assert getattr(plain, "fitness_many", None) is None
        assert batched.fitness_many(["a", "bb"]) == [1, 2]
        assert plain.marker == batched.marker == "forwarded"
        assert [plain.fitness("a"), plain.fitness("bb")] == [1, 2]


def _engine_with_reuse(problem, population: int, generations: int) -> None:
    """A generational loop that scores only genomes it has not scored
    before, as an engine with fitness reuse would."""
    known = {}

    def score(genomes):
        new = [g for g in dict.fromkeys(genomes) if g not in known]
        for genome in new:
            known[genome] = problem.fitness(genome)
        return [known[g] for g in genomes]

    genomes = [problem.random_genome(None) for _ in range(population)]
    score(genomes)
    for _ in range(generations):
        offspring = [problem.mutate(genomes[0], None)]
        while len(offspring) < population:
            offspring.extend(problem.crossover(genomes[0], genomes[0], None))
        genomes = offspring[:population]
        score(genomes)


def test_generation_boundaries_do_not_depend_on_genomes_scored():
    for traced in (False, True):
        tracer = Tracer(traced)
        tracer.run = "train"
        calls = []
        proxy = ProblemProxy(Plain(), tracer, "gasa", between=calls.append)
        # Each generation scores 2 of its 5 offspring; the initial one, 1 of 5.
        _engine_with_reuse(proxy, population=5, generations=3)
        proxy.finish()
        assert calls.count(True) == len(proxy.ended) == len(proxy.resumed) == 4
        assert calls.count(False) == 1 + 3 * 2  # once per `fitness` call
        assert all(a <= b for a, b in zip(proxy.resumed, proxy.ended[1:]))
        if traced:
            counts = tracer.counts["train"]
            assert counts["gasa.genomes_scored"] == 1 + 3 * 2
            assert counts["ga_engine.generations"] == 3
            assert counts["ga_engine.offspring"] == 3 * 2


@pytest.mark.parametrize("algo", ["gasa", "cagasa"])
def test_run_ga_generation_times_match_generations(algo, monkeypatch):
    monkeypatch.setattr(workloads, "CAL_INTERVAL_S", 0.0)  # calibrate after every `fitness`
    spec = SMALL[algo]
    corpus, _ = workloads.make_inputs(spec.corpus, 5)
    sentiment = workloads.empty_sentiment_dictionary()
    amplifier = workloads.seed_amplifier_dictionary()
    index = workloads.build_unknown_index(corpus, sentiment, amplifier)
    problem = workloads.PROBLEMS[algo](corpus, index, sentiment, amplifier, workloads.SEMANTICS)
    _, stats, seconds, gens, ratios, cals = workloads.train(Tracer(False), spec, problem, 5)
    assert len(gens) == len(ratios) == stats.generations_executed == spec.generations
    boundaries = spec.generations + 1
    per_genome = spec.population * boundaries if algo == "cagasa" else 0
    assert len(cals) == boundaries + per_genome
    assert 0.0 < sum(gens) <= seconds


def test_tail_has_ten_samples_beyond_it():
    value, label, n = workloads.tail([float(i) for i in range(100)])
    assert (value, label, n) == (89.0, "p90", 100)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, "max", 3)
