import random
from collections import Counter

import pytest

from evosent.ga_engine import (
    EvaluatedIndividual,
    GAConfig,
    parse_config_file,
    run_ga,
    tournament_select,
)


class OneMax:
    """20-bit toy problem: fitness = number of ones."""

    n = 20
    max_fitness = 20

    def random_genome(self, rng):
        return tuple(rng.randrange(2) for _ in range(self.n))

    def fitness(self, genome):
        return sum(genome)

    def mutate(self, genome, rng):
        i = rng.randrange(self.n)
        bits = list(genome)
        bits[i] ^= 1
        return tuple(bits)

    def crossover(self, g1, g2, rng):
        i = rng.randrange(self.n)
        a, b = list(g1), list(g2)
        a[i], b[i] = b[i], a[i]
        return tuple(a), tuple(b)


class ConstantProblem(OneMax):
    max_fitness = None

    def fitness(self, genome):
        return 7


def population_of(fitnesses):
    return [EvaluatedIndividual(genome=i, fitness=f) for i, f in enumerate(fitnesses)]


class TestConfig:
    def test_table_defaults(self):
        config = GAConfig()
        assert (
            config.population_size,
            config.tournament_size,
            config.max_generations,
            config.crossover_rate,
            config.mutation_rate,
        ) == (200, 7, 500, 0.60, 0.40)
        config.validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 0},
            {"tournament_size": 0},
            {"tournament_size": 300},
            {"max_generations": -1},
            {"crossover_rate": 0.5},  # rates no longer sum to 1
            {"crossover_rate": 1.2, "mutation_rate": -0.2},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs).validate()

    def test_config_file(self, tmp_path):
        path = tmp_path / "ga.conf"
        path.write_text(
            "# comment\npopulation_size=50\ncrossover_rate=0.7\nmutation_rate=0.3\n"
        )
        assert parse_config_file(path) == {
            "population_size": 50,
            "crossover_rate": 0.7,
            "mutation_rate": 0.3,
        }

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "ga.conf"
        path.write_text("speed=11\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_file(path)

    def test_config_file_repeated_key(self, tmp_path):
        path = tmp_path / "ga.conf"
        path.write_text("population_size=10\n# the same key again\npopulation_size=6\n")
        with pytest.raises(ValueError, match="line 3: repeated key 'population_size'"):
            parse_config_file(path)


class TestTournament:
    def test_empty_population(self, rng):
        with pytest.raises(ValueError):
            tournament_select([], 3, rng)

    def test_k1_returns_single_sample(self, rng):
        pop = population_of([5, 3, 9])
        seen = {tournament_select(pop, 1, rng).fitness for _ in range(200)}
        assert seen == {5, 3, 9}

    def test_full_distinct_sample_returns_max(self):
        pop = population_of([5, 3, 9])

        class ForcedDraws(random.Random):
            def __init__(self):
                super().__init__(0)
                self.draws = iter([0, 1, 2, 0])  # three members then tie-break

            def randrange(self, n):
                return next(self.draws) % n

        assert tournament_select(pop, 3, ForcedDraws()).fitness == 9

    def test_winner_is_fittest_of_sample(self, rng):
        pop = population_of([4, 8, 1, 8, 2])

        class Recording(random.Random):
            def __init__(self):
                super().__init__(123)
                self.sampled = []

            def randrange(self, n):
                i = super().randrange(n)
                if n == len(pop):
                    self.sampled.append(i)
                return i

        for _ in range(500):
            recorder = Recording()
            recorder.seed(rng.randrange(2**32))
            recorder.sampled.clear()
            winner = tournament_select(pop, 7, recorder)
            sample_max = max(pop[i].fitness for i in recorder.sampled[:7])
            assert winner.fitness == sample_max

    def test_uniform_tie_break(self, rng):
        from scipy.stats import chisquare

        pop = population_of([3, 3, 3, 3])
        counts = Counter(tournament_select(pop, 4, rng).genome for _ in range(10_000))
        _stat, p = chisquare([counts[i] for i in range(4)])
        assert p > 0.01


class TestRunGA:
    def small(self, **kwargs):
        defaults = dict(population_size=30, tournament_size=3, max_generations=20, seed=1)
        defaults.update(kwargs)
        return GAConfig(**defaults)

    def test_zero_generations_returns_best_of_initial(self):
        best, stats = run_ga(OneMax(), self.small(max_generations=0))
        assert stats.generations_executed == 0
        assert stats.best_fitness_per_generation == [best.fitness]

    def test_constant_fitness_runs_to_limit(self):
        best, stats = run_ga(ConstantProblem(), self.small())
        assert best.fitness == 7
        assert stats.generations_executed == 20
        assert not stats.terminated_early

    def test_determinism(self):
        config = self.small(max_generations=10)
        b1, s1 = run_ga(OneMax(), config)
        b2, s2 = run_ga(OneMax(), config)
        assert b1.genome == b2.genome
        assert s1 == s2

    def test_best_monotone_nondecreasing(self):
        _, stats = run_ga(OneMax(), self.small(max_generations=40))
        history = stats.best_fitness_per_generation
        assert all(a <= b for a, b in zip(history, history[1:]))

    def test_early_termination(self):
        best, stats = run_ga(OneMax(), GAConfig(population_size=50, seed=3))
        assert best.fitness == 20
        assert stats.terminated_early
        assert stats.generations_executed < 500

    def test_population_size_constant(self):
        class Counting(OneMax):
            max_fitness = None

            def __init__(self):
                self.batches = []

            def fitness_many(self, genomes):
                self.batches.append(len(genomes))
                return [sum(g) for g in genomes]

        # at 5 with crossover alone, each generation's third crossover overfills it
        for size, rates in ((30, {}), (5, dict(crossover_rate=1.0, mutation_rate=0.0))):
            problem = Counting()
            run_ga(problem, self.small(population_size=size, max_generations=5, **rates))
            assert problem.batches == [size] * 6  # initial population + 5 generations

    def test_solved_initial_population_stops_before_any_variation(self):
        class Solved(OneMax):
            def random_genome(self, rng):
                return (1,) * self.n

            def mutate(self, genome, rng):
                raise AssertionError("mutate called")

            def crossover(self, g1, g2, rng):
                raise AssertionError("crossover called")

        best, stats = run_ga(Solved(), self.small())
        assert (stats.generations_executed, stats.terminated_early) == (0, True)
        assert stats.best_fitness_per_generation == [best.fitness] == [Solved.max_fitness]

    @pytest.mark.parametrize("generations", [0, 1])
    def test_ties_return_the_first_fittest(self, generations):
        class Tied(OneMax):
            """The second and fourth genomes of each batch tie for the best,
            and each batch beats the one before."""

            max_fitness = None

            def __init__(self):
                self.batches = []

            def fitness_many(self, genomes):
                self.batches.append(genomes)
                return [[1, 5, 2, 5], [6, 9, 3, 9]][len(self.batches) - 1]

        problem = Tied()
        best, stats = run_ga(problem, self.small(population_size=4, max_generations=generations))
        assert best.genome is problem.batches[generations][1]
        assert stats.best_fitness_per_generation == [5, 9][: generations + 1]

    def test_onemax_solved_in_at_least_95_of_100_seeds(self):
        # calibrated over these fixed seeds: currently 100/100
        config = dict(population_size=50, tournament_size=7, max_generations=200)
        wins = sum(
            run_ga(OneMax(), GAConfig(seed=seed, **config))[0].fitness == 20
            for seed in range(100)
        )
        assert wins >= 95
