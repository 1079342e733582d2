"""Problem-agnostic generational genetic algorithm.

Replacement is wholesale (no elitism); the best-ever individual across all
generations, including the random initial population, is what gets returned.
All randomness flows from a single seeded stream in a fixed draw order:
initial genomes, then per generation the dispatch coin, tournament draws
and operator randomness for each offspring production.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from .lexicon import record_lines


@dataclass
class GAConfig:
    population_size: int = 200
    tournament_size: int = 7
    max_generations: int = 500
    crossover_rate: float = 0.60
    mutation_rate: float = 0.40
    seed: int = 0

    def validate(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if self.max_generations < 0:
            raise ValueError("max_generations must be non-negative")
        if not math.isclose(self.crossover_rate + self.mutation_rate, 1.0):
            raise ValueError("crossover_rate + mutation_rate must equal 1.0")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be a probability")


# The text form of a GAConfig: field -> type, in the order fields are written.
CONFIG_FIELDS = {f.name: type(f.default) for f in fields(GAConfig)}


def config_records(config: GAConfig) -> Iterator[Tuple[str, str]]:
    """(field, text) for every config field; rates are written with `%.6f`."""
    for key, kind in CONFIG_FIELDS.items():
        value = getattr(config, key)
        yield key, f"{value:.6f}" if kind is float else str(value)


def parse_config_field(key: str, text: str):
    """The typed value of one config field; ValueError on an unknown key or
    a malformed value."""
    kind = CONFIG_FIELDS.get(key)
    if kind is None:
        raise ValueError(f"unknown key {key!r}")
    return kind(text)


@dataclass
class EvaluatedIndividual:
    genome: Any
    fitness: int


@dataclass
class RunStats:
    generations_executed: int = 0
    best_fitness_per_generation: List[int] = field(default_factory=list)
    terminated_early: bool = False


def tournament_select(
    population: Sequence[EvaluatedIndividual], k: int, rng: random.Random
) -> EvaluatedIndividual:
    """Draw k individuals uniformly with replacement, return a fittest one;
    ties are broken uniformly at random among the tied maxima. Each index is
    drawn as CPython's `rng.randrange(n)` draws it, `getrandbits` of n's bit
    length until the value is below n, so the picks and the stream's state
    are those of k + 1 `randrange` calls."""
    if not population:
        raise ValueError("cannot select from an empty population")
    if k < 1:
        raise ValueError("tournament size must be at least 1")
    n, getrandbits = len(population), rng.getrandbits
    bits = n.bit_length()
    best, tied = None, []  # tied: the draws as fit as `best`, repeats included, in draw order
    for _ in range(k):
        i = getrandbits(bits)
        while i >= n:
            i = getrandbits(bits)
        ind = population[i]
        if best is None or ind.fitness > best.fitness:
            best = ind
            tied = [ind]
        elif ind.fitness == best.fitness:
            tied.append(ind)
    n = len(tied)  # the tie-break draws the same way, one bit even for one tied draw
    i = getrandbits(n.bit_length())
    while i >= n:
        i = getrandbits(n.bit_length())
    return tied[i]


def _evaluate(problem, genomes) -> list:
    many = getattr(problem, "fitness_many", None)
    if many is not None:
        return list(many(genomes))
    return [problem.fitness(g) for g in genomes]


_fitness = attrgetter("fitness")


def _breed(problem, population, config: GAConfig, rng: random.Random) -> list:
    """A generation's children, made by crossover or mutation of tournament
    winners; a crossover's second child is dropped once the population is
    full."""
    size, k, offspring = config.population_size, config.tournament_size, []
    while len(offspring) < size:
        if rng.random() < config.crossover_rate:
            p1 = tournament_select(population, k, rng)
            p2 = tournament_select(population, k, rng)
            offspring.extend(problem.crossover(p1.genome, p2.genome, rng))
        else:
            offspring.append(problem.mutate(tournament_select(population, k, rng).genome, rng))
    return offspring[:size]


def run_ga(problem, config: GAConfig) -> Tuple[EvaluatedIndividual, RunStats]:
    config.validate()
    rng = random.Random(config.seed)
    max_fitness: Optional[int] = getattr(problem, "max_fitness", None)

    genomes = [problem.random_genome(rng) for _ in range(config.population_size)]
    best, stats = None, RunStats()
    for generation in range(config.max_generations + 1):  # 0 is the initial population
        if generation:
            genomes = _breed(problem, population, config, rng)
        population = [
            EvaluatedIndividual(g, f) for g, f in zip(genomes, _evaluate(problem, genomes))
        ]
        generation_best = max(population, key=_fitness)  # the first of tied maxima
        if best is None or generation_best.fitness > best.fitness:
            best = generation_best
        stats.generations_executed = generation
        stats.best_fitness_per_generation.append(best.fitness)
        if max_fitness is not None and best.fitness >= max_fitness:
            stats.terminated_early = True
            break
    return best, stats


def parse_config_file(source) -> dict:
    """Parse a line-oriented `key=value` GA config file into keyword overrides."""
    overrides = {}
    for place, line in record_lines(source):
        if "=" not in line:
            raise ValueError(f"{place}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in overrides:
            raise ValueError(f"{place}: repeated key {key!r}")
        try:
            overrides[key] = parse_config_field(key, value.strip())
        except ValueError as exc:
            raise ValueError(f"{place}: {exc}") from None
    return overrides
