"""The benchmark workloads.

Every input is made from the workload seed: a planted lexicon and synthetic
corpora from `evosent.experiments`, written to files so that `load_corpus`,
`tokenize` and the CLI read them as they do for a user.

A run has four phases:
  prep   untimed: make the inputs (and, for predict-c50k, train and save the
         two models);
  setup  repeated; its median is `setup_s`;
  timed  units of work repeated for `--seconds` (at least two): one `run_ga`
         call, or one CLI predict pass with each model. In a traced run every
         second unit is traced and the others give the untraced reference for
         the tracing overhead;
  check  untimed: save, reload and run the trained model through the CLI,
         and run the workload's `evosent` command once more in a process of
         its own, whose peak resident set size is `peak_rss_mb`.

The machine's speed drifts by tens of percent over minutes when other
processes share it, so every timed set-up, generation and predict pass is
bracketed by two runs of a fixed calibration loop, and a generation scored
one genome at a time is also interrupted by it every CAL_INTERVAL_S. The
gated times leave the calibrations out, divide each time by the mean of the
calibration times around and within it, and express the ratio in seconds of
a machine on which the loop takes CAL_REF_S. Raw wall times are reported
beside them.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import evosent
from evosent import cli
from evosent.cagasa import CagasaProblem
from evosent.corpus import build_unknown_index, load_corpus, save_corpus, tokenize
from evosent.evaluator import Semantics
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import GasaProblem
from evosent.lexicon import empty_sentiment_dictionary, seed_amplifier_dictionary
from evosent.model import TrainedModel, load_model, save_model

from checks import Ops, ReferenceLabeler, predict_output, sha256, trajectory_ok
from spans import ProblemProxy, Tracer, clock

LENGTHS = (3, 8)  # `evosent synth` defaults: 5.5 tokens per sentence on average
SEMANTICS = Semantics.LITERAL
MIN_UNITS = 2
MIN_SETUPS = 5
MAX_SETUPS = 200
SETUP_SECONDS = 1.0
CAL_INTERVAL_S = 0.2  # the most time a generation runs between calibrations
COMMAND_TIMEOUT_S = 150
CAL_REF_S = 0.015  # about the loop's median time on a shared 2-core Xeon VM

PROBLEMS = {"gasa": GasaProblem, "cagasa": CagasaProblem}
SETUP_SPAN = {"gasa": "gasa.compile", "cagasa": "cagasa.setup"}


@dataclass(frozen=True)
class CorpusSpec:
    instances: int
    planted: int
    fillers: int


C500 = CorpusSpec(500, 30, 10)
C5K = CorpusSpec(5000, 300, 100)


@dataclass(frozen=True)
class TrainSpec:
    algo: str
    corpus: CorpusSpec
    generations: int
    population: int = 200
    tournament: int = 7

    def config(self, seed: int) -> GAConfig:
        return GAConfig(
            population_size=self.population,
            tournament_size=self.tournament,
            max_generations=self.generations,
            seed=seed,
        )


@dataclass(frozen=True)
class PredictSpec:
    models: tuple  # TrainSpecs on one shared training corpus
    lines: int  # input lines drawn from the same planted lexicon


WORKLOADS = {
    "gasa-c5k": TrainSpec("gasa", C5K, generations=30),
    "cagasa-c500": TrainSpec("cagasa", C500, generations=5),
    "predict-c50k": PredictSpec(
        models=(
            TrainSpec("gasa", C5K, generations=10),
            TrainSpec("cagasa", C5K, generations=2, population=10, tournament=3),
        ),
        lines=50_000,
    ),
}


@dataclass
class Unit:
    traced: bool
    seconds: float  # wall time, calibration excluded
    steps: list  # wall time of each generation, or of the predict pass pair
    ratios: list  # each step over the calibration times around it
    passes: dict = field(default_factory=dict)  # algo -> seconds (predict)


@dataclass
class RunResult:
    setups: list  # wall time of each set-up
    setup_ratios: list  # each set-up over the calibration times around it
    units: list
    ops: Ops
    fingerprints: dict
    corpus_counts: dict
    sentences_per_step: int  # sentence classifications in one step
    calibrations: list = field(default_factory=list)
    peak_rss_mb: float = 0.0  # of the `evosent` command run in a process of its own
    command_s: float = 0.0  # that command's wall time


def bracketed(seconds: float, before: float, after: float) -> float:
    return seconds / ((before + after) / 2.0)


# The calibration loop's fixed input, made once.
_CAL_WORDS = [f"w{i:06d}" for i in range(60_000)]
_CAL_ORDER = random.Random(0).sample(range(len(_CAL_WORDS)), 3_000)
_CAL_PROBE = frozenset(_CAL_WORDS[j] for j in _CAL_ORDER[::7])


def calibrate() -> float:
    """Seconds taken by a fixed piece of work of the program's kind (joining
    and splitting text, dictionary updates, small sets and their
    intersections, and numpy over eight megabytes) that no change to the
    program can affect. The garbage collector is paused so that the
    program's live objects cost it nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        lines = [
            " ".join(_CAL_WORDS[j] for j in _CAL_ORDER[i : i + 6])
            for i in range(0, len(_CAL_ORDER), 6)
        ]
        counts = {}
        for line in lines:
            tokens = line.split()
            for position, token in enumerate(tokens):
                counts[token] = counts.get(token, 0) + 1
                window = set(tokens[max(0, position - 2) : position + 3])
                counts[token] += len(window & _CAL_PROBE)
        x = np.arange(1_000_000, dtype=np.float64)
        x = np.where(x > 5.0, x * 0.5, x + 1.0)
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


def make_inputs(spec: CorpusSpec, seed: int, extra_lines: int = 0):
    rng = random.Random(seed)
    lexicon = random_planted_lexicon(spec.planted, spec.fillers, rng)
    corpus = generate_synthetic_corpus(lexicon, spec.instances, LENGTHS, SEMANTICS, rng)
    text = None
    if extra_lines:
        text = generate_synthetic_corpus(lexicon, extra_lines, LENGTHS, SEMANTICS, rng)
    return corpus, text


def write_text(instances, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(" ".join(inst.tokens) + "\n")


def corpus_counts(token_lists, words) -> dict:
    """Tokens, unknown words, and the mean share of sentences that contain a
    given unknown word (what delta evaluation would re-score per change)."""
    token_lists = list(token_lists)
    doc_freq = Counter(w for tokens in token_lists for w in set(tokens))
    n = len(token_lists)
    share = sum(doc_freq[w] for w in words) / (len(words) * n) if words and n else 0.0
    return {
        "corpus.tokens": sum(len(t) for t in token_lists),
        "corpus.unknown_words": len(words),
        "corpus.gene_sentence_share": share,
    }


def repeat_setup(tracer: Tracer, setup):
    """(wall times, calibrated ratios, last result) of repeated set-ups."""
    times, ratios = [], []
    result = None
    start = clock()
    while len(times) < MIN_SETUPS or (
        clock() - start < SETUP_SECONDS and len(times) < MAX_SETUPS
    ):
        tracer.run = f"setup-{len(times)}"
        result = None  # each set-up starts from the same heap, as in a fresh process
        gc.collect()
        before = calibrate()
        t0 = clock()
        with tracer.span("setup"):
            result = setup()
        times.append(clock() - t0)
        ratios.append(bracketed(times[-1], before, calibrate()))
    return times, ratios, result


def timed_units(tracer: Tracer, trace: bool, seconds: float, kind: str, unit):
    """Run `unit(k)` while the next unit, as long as the last, still ends
    within `seconds` (at least MIN_UNITS times); odd units are traced."""
    units = []
    start = last = clock()
    k = 0
    while k < MIN_UNITS or 2 * clock() - last - start <= seconds:
        tracer.enabled = trace and k % 2 == 1
        tracer.run = f"{kind}-{k}"
        gc.collect()
        last = clock()
        result = unit(k)
        if result is None:
            break
        units.append(result)
        k += 1
    tracer.enabled = trace
    return units


def train(tracer: Tracer, spec: TrainSpec, problem, seed: int, calibrated: bool = True):
    """One `run_ga` call: (best, stats, wall seconds without calibration,
    generation times, their calibrated ratios, calibration times).

    The calibration loop runs at each generation boundary that the proxy
    marks (after the initial evaluation and after each generation) and,
    within a generation, after a `fitness` call once CAL_INTERVAL_S has
    passed since the last calibration. On this machine that cut the noise of
    a CA-GASA generation's calibrated time from about 21% to about 9% (see
    perfbench/README.md). A generation's time leaves out the calibrations
    inside it and is divided by the mean of those and of the two around it."""
    calibrations = []  # (clock() at its start, seconds)
    last = clock()

    def between(boundary: bool):
        nonlocal last
        if not boundary and clock() - last < CAL_INTERVAL_S:
            return
        start = clock()
        with tracer.span("bench.calibrate"):
            calibrations.append((start, calibrate()))
        last = clock()

    proxy = ProblemProxy(problem, tracer, spec.algo, between if calibrated else None)
    t0 = clock()
    with tracer.span("ga_engine.run"):
        best, stats = run_ga(proxy, spec.config(seed))
        proxy.finish()
    ended, resumed = proxy.ended, proxy.resumed
    seconds = ended[-1] - t0 - sum(c for t, c in calibrations if t < ended[-1])
    gens, ratios = [], []
    for k in range(len(ended) - 1):
        inside = [c for t, c in calibrations if resumed[k] < t < ended[k + 1]]
        around = [c for t, c in calibrations if ended[k] <= t < resumed[k + 1]]
        gens.append(ended[k + 1] - resumed[k] - sum(inside))
        if calibrated:
            ratios.append(gens[-1] / statistics.mean(around))
    return best, stats, seconds, gens, ratios, [c for _, c in calibrations]


def cli_predict(tracer: Tracer, model_path: Path, input_path: Path, out_path: Path, lines):
    """One `evosent predict` call. Traced, the model load and the tokenizing
    that the CLI does inside are timed separately beforehand, so that the
    CLI's remaining time can be split off."""
    if tracer.enabled:
        with tracer.span("model.load"):
            load_model(model_path)
        with tracer.span("corpus.tokenize"):
            for line in lines:
                tokenize(line)
    argv = ["predict", "--model", str(model_path), "--input", str(input_path)]
    argv += ["--out", str(out_path), "--show-ties"]
    t0 = clock()
    with tracer.span("cli.predict"):
        code = cli.main(argv)
    return code, clock() - t0


def run_command(argv, work: Path) -> tuple:
    """Run `evosent <argv>` as a user would, in a process of its own, and
    wait for it: (exit code, wall seconds, peak RSS in MB of every such
    process this one has waited for)."""
    src = Path(evosent.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = clock()
    done = subprocess.run(
        [sys.executable, "-m", "evosent.cli", *argv],
        cwd=work,
        env=env,
        stdout=subprocess.DEVNULL,
        timeout=COMMAND_TIMEOUT_S,
    )
    seconds = clock() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return done.returncode, seconds, peak_kb / 1024.0


def _trained_model(spec: TrainSpec, problem, best, seed: int) -> TrainedModel:
    return TrainedModel(
        algo=spec.algo,
        semantics=SEMANTICS,
        config=spec.config(seed),
        sentiment_dict=problem.sentiment_dict,
        amplifier_dict=problem.amplifier_dict,
        index=problem.index,
        chromosome=best.genome,
        best_fitness=best.fitness,
        train_instances=len(problem.corpus),
    )


def _save(tracer: Tracer, model: TrainedModel, path: Path) -> bytes:
    with tracer.span("model.save"):
        save_model(model, path)
    data = path.read_bytes()
    tracer.count("model.bytes", len(data))
    return data


def _reference_fitness(oracles, problem, genome) -> int:
    return ReferenceLabeler(
        oracles,
        "cagasa" if isinstance(problem, CagasaProblem) else "gasa",
        problem.sentiment_dict,
        problem.amplifier_dict,
        problem.index.words,
        genome.genes,
        SEMANTICS,
    ).correct_count(problem.corpus)


def load_corpus_traced(tracer: Tracer, path: Path):
    with tracer.span("corpus.load"):
        return load_corpus(path)


def run_training(spec: TrainSpec, seed, seconds, trace, work: Path, oracles):
    tracer = Tracer(trace)
    ops = Ops()
    algo = spec.algo
    tracer.run = "prep"
    corpus, _ = make_inputs(spec.corpus, seed)
    corpus_path = work / "corpus.tsv"
    text_path = work / "text.txt"
    save_corpus(corpus, corpus_path)
    write_text(corpus.instances, text_path)
    lines = text_path.read_text(encoding="utf-8").splitlines()

    def setup():
        loaded = load_corpus_traced(tracer, corpus_path)
        sentiment, amplifier = empty_sentiment_dictionary(), seed_amplifier_dictionary()
        with tracer.span("corpus.index"):
            index = build_unknown_index(loaded, sentiment, amplifier)
        with tracer.span(SETUP_SPAN[algo]):
            return PROBLEMS[algo](loaded, index, sentiment, amplifier, SEMANTICS)

    setups, setup_ratios, problem = repeat_setup(tracer, setup)
    words = {w for inst in corpus.instances for w in inst.tokens}
    ops.record("setup", len(problem.index) == len(words), "unknown-word count")

    first = {}
    calibrations = []

    def unit(k):
        try:
            best, stats, seconds_, gens, ratios, cals = train(tracer, spec, problem, seed)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            ops.record(f"train-{k}", False, repr(exc))
            return None
        if len(gens) != stats.generations_executed:
            ops.record(f"train-{k}", False, f"{len(gens)} generation times")
            return None
        trajectory = stats.best_fitness_per_generation
        if not first:
            first.update(trajectory=trajectory, best=best)
            ok = (
                trajectory_ok(trajectory, spec.generations)
                and trajectory[-1] == best.fitness
                and _reference_fitness(oracles, problem, best.genome) == best.fitness
            )
        else:
            ok = trajectory == first["trajectory"] and best.genome == first["best"].genome
        ops.record(f"train-{k}", ok, "trajectory or best fitness")
        calibrations.extend(cals)
        return Unit(tracer.enabled, seconds_, gens, ratios)

    units = timed_units(tracer, trace, seconds, "train", unit)

    fingerprints = {}
    peak_rss_mb = command_s = 0.0
    tracer.run = "check"
    if first:
        best = first["best"]
        model_path = work / f"{algo}.model"
        out_path = work / "labels.txt"
        try:
            model_bytes = _save(tracer, _trained_model(spec, problem, best, seed), model_path)
            code, _ = cli_predict(tracer, model_path, text_path, out_path, lines)
            reference = ReferenceLabeler.for_model(oracles, load_model(model_path))
            expected = [reference.label(inst.tokens) for inst in corpus.instances]
            correct = sum(e == inst.label.value for e, inst in zip(expected, corpus.instances))
            output = out_path.read_bytes() if code == 0 else b""
            ops.record(
                "model",
                code == 0 and output == predict_output(expected) and correct == best.fitness,
                f"exit {code}, {correct} correct against best fitness {best.fitness}",
            )
            fingerprints = {
                f"model.{algo}": sha256(model_bytes),
                f"trajectory.{algo}": sha256(first["trajectory"]),
                f"labels.{algo}": sha256(output),
            }
            command_path = work / "command.model"
            code, command_s, peak_rss_mb = run_command(
                ["train", "--corpus", str(corpus_path), "--algo", algo,
                 "--pop", str(spec.population), "--tournament", str(spec.tournament),
                 "--generations", str(spec.generations), "--seed", str(seed),
                 "--model-out", str(command_path)],
                work,
            )
            ops.record(
                "command",
                code == 0 and command_path.read_bytes() == model_bytes,
                f"`evosent train` exit {code}, or its model differs",
            )
        except Exception as exc:  # noqa: BLE001
            ops.record("model", False, repr(exc))
    return RunResult(
        setups=setups,
        setup_ratios=setup_ratios,
        units=units,
        ops=ops,
        fingerprints=fingerprints,
        corpus_counts=corpus_counts((i.tokens for i in corpus.instances), problem.index.words),
        sentences_per_step=spec.population * len(corpus),
        calibrations=calibrations,
        peak_rss_mb=peak_rss_mb,
        command_s=command_s,
    ), tracer


def run_predict(spec: PredictSpec, seed, seconds, trace, work: Path, oracles):
    tracer = Tracer(trace)
    ops = Ops()
    tracer.run = "prep"
    train_corpus, text = make_inputs(spec.models[0].corpus, seed, spec.lines)
    corpus_path = work / "corpus.tsv"
    input_path = work / "input.txt"
    save_corpus(train_corpus, corpus_path)
    write_text(text.instances, input_path)

    # Untimed preparation: train and save both models (traced when tracing).
    corpus = load_corpus_traced(tracer, corpus_path)
    sentiment, amplifier = empty_sentiment_dictionary(), seed_amplifier_dictionary()
    with tracer.span("corpus.index"):
        index = build_unknown_index(corpus, sentiment, amplifier)
    fingerprints = {}
    trained = {}
    for model_spec in spec.models:
        algo = model_spec.algo
        with tracer.span(SETUP_SPAN[algo]):
            problem = PROBLEMS[algo](corpus, index, sentiment, amplifier, SEMANTICS)
        best, stats, *_ = train(tracer, model_spec, problem, seed, calibrated=False)
        trajectory = stats.best_fitness_per_generation
        ops.record(
            f"prep.{algo}",
            trajectory_ok(trajectory, model_spec.generations)
            and _reference_fitness(oracles, problem, best.genome) == best.fitness,
            "trajectory or best fitness",
        )
        path = work / f"{algo}.model"
        model_bytes = _save(tracer, _trained_model(model_spec, problem, best, seed), path)
        trained[algo] = (path, best.fitness)
        fingerprints[f"model.{algo}"] = sha256(model_bytes)
        fingerprints[f"trajectory.{algo}"] = sha256(trajectory)

    expected = {}
    for algo, (path, best_fitness) in trained.items():
        model = load_model(path)
        reference = ReferenceLabeler.for_model(oracles, model)
        correct = reference.correct_count(train_corpus)
        ops.record(
            f"model.{algo}",
            correct == best_fitness,
            f"{correct} correct against best fitness {best_fitness}",
        )
        expected[algo] = predict_output([reference.label(i.tokens) for i in text.instances])
        fingerprints[f"labels.{algo}"] = sha256(expected[algo])
    counts = corpus_counts((i.tokens for i in text.instances), model.index.words)
    # A user's predict process holds none of these; without them the garbage
    # collector has far fewer live objects to walk in the timed passes.
    del train_corpus, text, corpus, problem

    def setup():
        for path, _ in trained.values():
            with tracer.span("model.load"):
                load_model(path)
        with tracer.span("setup.read_input"):
            with open(input_path, "r", encoding="utf-8") as fh:
                return [line.rstrip("\n") for line in fh]

    setups, setup_ratios, lines = repeat_setup(tracer, setup)
    out_path = work / "labels.txt"
    calibrations = []

    def calibrated():
        with tracer.span("bench.calibrate"):
            calibrations.append(calibrate())
        return calibrations[-1]

    def unit(k):
        total = ratio = 0.0
        passes = {}
        before = calibrated()
        for algo, (path, _) in trained.items():
            try:
                with tracer.span(f"pass.{algo}"):
                    code, seconds_ = cli_predict(tracer, path, input_path, out_path, lines)
                ok = code == 0 and out_path.read_bytes() == expected[algo]
            except Exception as exc:  # noqa: BLE001
                ops.record(f"predict-{k}.{algo}", False, repr(exc))
                return None
            if not ops.record(f"predict-{k}.{algo}", ok, f"labels differ (exit {code})"):
                return None
            passes[algo] = seconds_
            total += seconds_
            after = calibrated()
            ratio += bracketed(seconds_, before, after)
            before = after
        return Unit(tracer.enabled, total, [total], [ratio], passes)

    units = timed_units(tracer, trace, seconds, "predict", unit)
    tracer.run = "check"
    peak_rss_mb = command_s = 0.0
    for algo, (path, _) in trained.items():
        try:
            code, seconds_, peak_rss_mb = run_command(
                ["predict", "--model", str(path), "--input", str(input_path),
                 "--out", str(out_path), "--show-ties"],
                work,
            )
            command_s += seconds_
            ok = code == 0 and out_path.read_bytes() == expected[algo]
            detail = f"`evosent predict` exit {code}, or its labels differ"
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, repr(exc)
        ops.record(f"command.{algo}", ok, detail)
    return RunResult(
        setups=setups,
        setup_ratios=setup_ratios,
        units=units,
        ops=ops,
        fingerprints=fingerprints,
        corpus_counts=counts,
        sentences_per_step=len(trained) * spec.lines,
        calibrations=calibrations,
        peak_rss_mb=peak_rss_mb,
        command_s=command_s,
    ), tracer


def run(spec, seed: int, seconds: float, trace: bool, work: Path, oracles):
    runner = run_predict if isinstance(spec, PredictSpec) else run_training
    return runner(spec, seed, seconds, trace, work, oracles)


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, label, sample count); the maximum when there are ten or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], "max", n
    return ordered[n - 11], f"p{100 * (n - 10) // n}", n


def end_to_end(spec, result: RunResult) -> tuple:
    """(calibrated metrics for BENCHMARK.json, raw wall-time metrics by the
    names users know, description of the generation tail or None), all from
    the untraced units."""
    units = [u for u in result.units if not u.traced]
    step_s = CAL_REF_S * statistics.median(r for u in units for r in u.ratios)
    metrics = {
        "setup_s": CAL_REF_S * statistics.median(result.setup_ratios),
        "step_s_p50": step_s,
        "peak_rss_mb": result.peak_rss_mb,
        "sentences_per_s": result.sentences_per_step / step_s,  # reported, not gated
    }
    named = {"setup_s": (statistics.median(result.setups), "s")}
    tail_info = None
    if isinstance(spec, PredictSpec):
        for algo in units[0].passes:
            pass_s = statistics.median(u.passes[algo] for u in units)
            named[f"predict_{algo}_lines_per_s"] = (spec.lines / pass_s, "1/s")
    else:
        steps = [s for u in units for s in u.steps]
        named["train_s"] = (statistics.median(u.seconds for u in units), "s")
        named["gen_s_p50"] = (statistics.median(steps), "s")
        tail_value, tail_label, tail_n = tail(steps)
        named["gen_s_tail"] = (tail_value, "s")
        tail_info = {"percentile": tail_label, "samples": tail_n}
    named["peak_rss_mb"] = (result.peak_rss_mb, "MB")
    named["command_s"] = (result.command_s, "s")
    ratio = result.ops.failed / result.ops.attempted if result.ops.attempted else 1.0
    named["failed_ops_ratio"] = (ratio, "ratio")
    named["calibration_s"] = (statistics.median(result.calibrations), "s")
    return metrics, named, tail_info


def tracing_overhead(spec, result: RunResult) -> dict:
    """Traced over untraced medians of the same run's timed units, for the
    metrics users see (above 1 for train_s, below 1 for lines per second,
    means that tracing slowed the run)."""
    traced = [u for u in result.units if u.traced]
    plain = [u for u in result.units if not u.traced]
    if not traced or not plain:
        return {}
    if isinstance(spec, PredictSpec):
        return {
            f"predict_{algo}_lines_per_s": statistics.median(u.passes[algo] for u in plain)
            / statistics.median(u.passes[algo] for u in traced)
            for algo in plain[0].passes
        }
    return {
        "train_s": statistics.median(u.seconds for u in traced)
        / statistics.median(u.seconds for u in plain)
    }
