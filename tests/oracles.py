"""Independent reference implementations used only as test oracles."""

import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np

from evosent.cagasa import MAX_CONTEXT, CagasaGene, ContextRule, from_fields
from evosent.corpus import Corpus, Instance, Label
from evosent.evaluator import Semantics
from evosent.experiments import GenerationError
from evosent.gasa import PAIR_CODES, GasaChromosome, forced_new_code, random_code
from evosent.lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    NEUTRAL_PAIR,
    SENTIMENT_VALUES,
    ClassificationValuePair,
    Kind,
)

# A token is a maximal run of letters, digits or apostrophes, found by a
# regex here and by a `str.translate` table in `evosent.corpus`.
_TOKEN_RE = re.compile(r"(?:[^\W_]|')+")


def tokenize(text: str) -> list:
    return _TOKEN_RE.findall(text.lower())


def reference_load_corpus(lines) -> list:
    """The `Instance`s of `label<TAB>text` lines, each read alone, as
    `corpus.load_corpus` must give them: a blank line or a line with no
    tokens is skipped, and a label counts once stripped and lowercased. The
    first line, blank lines counted, with no tab or another label raises
    ValueError with `load_corpus`'s message, less the file's name."""
    instances = []
    for number, line in enumerate(lines, start=1):
        if line == "":
            continue
        if "\t" not in line:
            raise ValueError(f"line {number}: expected `label<TAB>text`")
        field, text = line.split("\t", 1)
        label = field.strip().lower()
        if label not in ("positive", "negative"):
            raise ValueError(f"line {number}: unknown label {field!r}")
        tokens = tokenize(text)
        if tokens:
            instances.append(Instance(tuple(tokens), Label(label)))
    return instances


def corpus_of(instances) -> Corpus:
    """The `Corpus` of `Instance`s, its word ids in order of first occurrence."""
    instances = list(instances)
    vocabulary: dict = {}
    ids = [vocabulary.setdefault(t, len(vocabulary)) for inst in instances for t in inst.tokens]
    return Corpus(
        tuple(vocabulary),
        np.array(ids, dtype=np.int32),
        np.array([len(inst.tokens) for inst in instances], dtype=np.int64),
        np.array([inst.label is Label.POSITIVE for inst in instances], dtype=bool),
    )


def reference_unknown_words(corpus, sentiment_dict, amplifier_dict) -> tuple:
    """`corpus.build_unknown_index`'s words as a walk over the tokens: those
    in neither dictionary, in order of first occurrence."""
    seen = dict.fromkeys(itertools.chain.from_iterable(i.tokens for i in corpus.instances))
    return tuple(w for w in seen if w not in sentiment_dict and w not in amplifier_dict)


def reference_word_frequencies(corpus) -> Counter:
    """`corpus.word_frequencies` as a walk over the tokens."""
    return Counter(itertools.chain.from_iterable(i.tokens for i in corpus.instances))


def reference_split_holdout(corpus, train_fraction, seed) -> tuple:
    """The (train, test) instances of `corpus.split_holdout`, as it split
    instance lists: each label's instances shuffled, cut at the rounded train
    fraction, and the two labels' parts interleaved, positive first. A
    missing label raises ValueError."""
    groups = [[i for i in corpus.instances if i.label is label] for label in Label]
    if not all(groups):
        raise ValueError("corpus misses a label")
    rng = random.Random(seed)
    sides = ([], [])
    for group in groups:
        rng.shuffle(group)
        n_train = int(len(group) * train_fraction + 0.5)
        sides[0].append(group[:n_train])
        sides[1].append(group[n_train:])
    gap = object()
    return tuple(
        tuple(i for row in itertools.zip_longest(*parts, fillvalue=gap) for i in row if i is not gap)
        for parts in sides
    )


def gasa_chromosome(pairs) -> GasaChromosome:
    """The GASA chromosome whose genes are `pairs`, evolvable pairs all."""
    return GasaChromosome(bytes(EVOLVABLE_PAIRS.index(p) for p in pairs))


def to_context_free_gasa(chromosome) -> GasaChromosome:
    """The GASA chromosome formed from a CA-GASA chromosome's context-free
    pairs."""
    return gasa_chromosome(g.context_free_pair for g in chromosome.genes)


def cagasa_chromosome(genes, words=None):
    """The CA-GASA chromosome whose genes are the `CagasaGene`s `genes`, its
    lists ids into `words`, a sorted word table holding every list word; by
    default, the sorted words of the lists."""
    fields = []
    for gene in genes:
        rule = gene.rule
        fields.append(
            (
                rule.number_ahead,
                rule.number_behind,
                PAIR_CODES[gene.context_free_pair],
                PAIR_CODES[rule.context_pair],
                rule.next_size,
                rule.previous_size,
                rule.list_next,
                rule.list_previous,
            )
        )
    return from_fields(fields, words)


@lru_cache(maxsize=8)
def _genes(chromosome) -> tuple:
    """`chromosome.genes`, decoded once for the verdicts of many sentences."""
    return chromosome.genes


def reference_corpus_neighbors(corpus) -> dict:
    """The (preceding, following) adjacent words of every corpus word, each
    sorted, as they were found before genomes held word ids."""
    neighbors: dict = {}
    for inst in corpus.instances:
        tokens = inst.tokens
        for i, word in enumerate(tokens):
            prev_set, next_set = neighbors.setdefault(word, (set(), set()))
            if i > 0:
                prev_set.add(tokens[i - 1])
            if i + 1 < len(tokens):
                next_set.add(tokens[i + 1])
    return {w: (tuple(sorted(p)), tuple(sorted(n))) for w, (p, n) in neighbors.items()}


def reference_random_cagasa_gene(neighbors, rng) -> CagasaGene:
    """A random CA-GASA gene drawn as before genomes were rows, its lists
    from the word's (preceding, following) sorted neighbours."""
    preceding, following = neighbors
    next_size = rng.randint(1, MAX_CONTEXT)
    previous_size = rng.randint(1, MAX_CONTEXT)
    rule = ContextRule(
        next_size=next_size,
        previous_size=previous_size,
        list_next=frozenset(rng.sample(following, min(next_size, len(following)))),
        list_previous=frozenset(rng.sample(preceding, min(previous_size, len(preceding)))),
        number_ahead=rng.randint(1, MAX_CONTEXT),
        number_behind=rng.randint(1, MAX_CONTEXT),
        context_pair=EVOLVABLE_PAIRS[random_code(rng)],
    )
    return CagasaGene(rule, EVOLVABLE_PAIRS[random_code(rng)])


def _new_pair(pair, rng) -> ClassificationValuePair:
    return EVOLVABLE_PAIRS[forced_new_code(PAIR_CODES[pair], rng)]


def _reference_mutate_list(gene, neighbors, rng) -> CagasaGene:
    """Swap one stored context word for a fresh corpus neighbor; falls back
    to resampling the context-free pair when no fresh neighbor exists."""
    preceding, following = neighbors
    rule = gene.rule
    sides = []
    fresh_next = [w for w in following if w not in rule.list_next]
    fresh_prev = [w for w in preceding if w not in rule.list_previous]
    if fresh_next and rule.next_size > 0:
        sides.append((fresh_next, rule.next_size, "list_next"))
    if fresh_prev and rule.previous_size > 0:
        sides.append((fresh_prev, rule.previous_size, "list_previous"))
    if not sides:
        return replace(gene, context_free_pair=_new_pair(gene.context_free_pair, rng))
    fresh_words, capacity, field = sides[rng.randrange(len(sides))]
    fresh = fresh_words[rng.randrange(len(fresh_words))]
    words = sorted(getattr(rule, field))
    if len(words) >= capacity and words:
        words[rng.randrange(len(words))] = fresh
    else:
        words.append(fresh)
    return replace(gene, rule=replace(rule, **{field: frozenset(words)}))


def reference_mutate_cagasa_at(genes, neighbors, rng):
    """(genes, position): `genes` with one gene edited as before genomes
    were rows; `neighbors` holds each position's (preceding, following)
    sorted neighbours."""
    position = rng.randrange(len(genes))
    gene = genes[position]
    edit = rng.randrange(3)
    if edit == 0:
        new_gene = replace(gene, context_free_pair=_new_pair(gene.context_free_pair, rng))
    elif edit == 1:
        new_rule = replace(gene.rule, context_pair=_new_pair(gene.rule.context_pair, rng))
        new_gene = replace(gene, rule=new_rule)
    else:
        new_gene = _reference_mutate_list(gene, neighbors[position], rng)
    return genes[:position] + (new_gene,) + genes[position + 1 :], position


def reference_gene_rows(slots, genes):
    """`gasa.gene_rows` through `np.unique` over (gene, row) keys."""
    instances = max(len(slots), 1)
    rows, columns = np.nonzero(slots >= 0)
    keys = np.unique(slots[rows, columns].astype(np.int64) * instances + rows)
    starts = np.searchsorted(keys // instances, np.arange(genes + 1))
    return starts.tolist(), keys % instances


def reference_tournament_select(population, k, rng):
    """`ga_engine.tournament_select` through `rng.randrange`: k draws with
    replacement, then a uniform pick among the draws as fit as the fittest,
    repeats included, in draw order."""
    n = len(population)
    best = population[rng.randrange(n)]
    tied = [best]
    for _ in range(k - 1):
        ind = population[rng.randrange(n)]
        if ind.fitness > best.fitness:
            best = ind
            tied = [ind]
        elif ind.fitness == best.fitness:
            tied.append(ind)
    return tied[rng.randrange(len(tied))]


def reference_random_pair(rng) -> ClassificationValuePair:
    """A random gene as pairs were drawn before genes became pair codes:
    kind first, then its value."""
    kind = Kind.SENTIMENT if rng.randrange(2) == 0 else Kind.AMPLIFIER
    values = SENTIMENT_VALUES if kind is Kind.SENTIMENT else AMPLIFIER_VALUES
    return ClassificationValuePair(kind, values[rng.randrange(3)])


def reference_forced_new_pair(current, rng) -> ClassificationValuePair:
    """Uniform over the five evolvable pairs other than `current`, drawn as
    before genes became pair codes."""
    candidates = [p for p in EVOLVABLE_PAIRS if p != current]
    return candidates[rng.randrange(len(candidates))]


def reference_sentence_score(pairs, prose: bool) -> float:
    """Straight-line transliteration of the accumulation pseudocode, kept
    deliberately separate from the library implementation."""
    sentiment_count = 0.0
    amplifier_count = 0.0
    i = 0
    while i < len(pairs):
        pair = pairs[i]
        if pair.kind == Kind.AMPLIFIER:
            amplifier_count = amplifier_count + pair.value
        else:
            if amplifier_count != 0.0:
                sentiment_count = sentiment_count + amplifier_count * pair.value
                if prose:
                    amplifier_count = 0.0
            else:
                sentiment_count = sentiment_count + pair.value
        i = i + 1
    if not prose:
        if amplifier_count != 0.0:
            sentiment_count = sentiment_count + amplifier_count
    else:
        if len(pairs) > 0 and pairs[-1].kind == Kind.AMPLIFIER:
            sentiment_count = sentiment_count + amplifier_count
    return sentiment_count


def reference_synthetic_corpus(lexicon, n_instances, length_range, semantics, rng):
    """`experiments.generate_synthetic_corpus` in its plain form: the same
    draws, accept rule and budget, one candidate drawn and scored at a time
    by `reference_sentence_score` under the ground truth. The arguments are
    assumed valid."""
    lo, hi = length_range
    vocabulary = sorted(lexicon.entries) + sorted(lexicon.fillers)
    half = n_instances // 2
    positives, negatives = [], []
    budget = 10 * n_instances
    draws = 0
    while (len(positives) < half or len(negatives) < half) and draws < budget:
        draws += 1
        length = rng.randint(lo, hi)
        tokens = tuple(vocabulary[rng.randrange(len(vocabulary))] for _ in range(length))
        pairs = [lexicon.resolve(word) for word in tokens]
        score = reference_sentence_score(pairs, semantics is Semantics.PROSE)
        if score > 0.0 and len(positives) < half:
            positives.append(Instance(tokens, Label.POSITIVE))
        elif score < 0.0 and len(negatives) < half:
            negatives.append(Instance(tokens, Label.NEGATIVE))
    if len(positives) < half or len(negatives) < half:
        raise GenerationError(
            f"could not balance {n_instances} instances within {budget} draws"
        )
    instances = []
    for pos, neg in zip(positives, negatives):
        instances += [pos, neg]
    return corpus_of(instances)


def _verdict_value(score):
    """'positive', 'negative' or 'tie', comparable with `Verdict.value`."""
    if score > 0.0:
        return "positive"
    if score < 0.0:
        return "negative"
    return "tie"


def gasa_verdict(chromosome, tokens, index, sentiment_dict, amplifier_dict, semantics):
    """Sentiment dictionary, then amplifier dictionary, then the word's gene;
    any other word is neutral."""
    pairs = []
    for word in tokens:
        if word in sentiment_dict.entries:
            pairs.append(sentiment_dict.entries[word])
        elif word in amplifier_dict.entries:
            pairs.append(amplifier_dict.entries[word])
        elif word in index.position_of:
            pairs.append(_genes(chromosome)[index.position_of[word]])
        else:
            pairs.append(NEUTRAL_PAIR)
    return _verdict_value(reference_sentence_score(pairs, semantics is Semantics.PROSE))


def reference_fires(rule, tokens, position) -> bool:
    """Whether `rule` picks its context pair at tokens[position]: at least
    half of the distinct words within its look distances, cut at the
    sentence, are in its lists, and there is at least one."""
    ahead = set(tokens[position + 1 : position + 1 + rule.number_ahead])
    behind = set(tokens[max(0, position - rule.number_behind) : position])
    hits = len(ahead & rule.list_next) + len(behind & rule.list_previous)
    size = len(ahead) + len(behind)
    return size > 0 and 2 * hits >= size


def cagasa_verdict(chromosome, tokens, index, sentiment_dict, amplifier_dict, semantics):
    """As `gasa_verdict`, but a gene's context pair replaces its context-free
    pair when at least half of the word's neighbourhood is in its lists."""
    pairs = []
    for position, word in enumerate(tokens):
        if word in sentiment_dict.entries:
            pairs.append(sentiment_dict.entries[word])
        elif word in amplifier_dict.entries:
            pairs.append(amplifier_dict.entries[word])
        elif word in index.position_of:
            gene = _genes(chromosome)[index.position_of[word]]
            if reference_fires(gene.rule, tokens, position):
                pairs.append(gene.rule.context_pair)
            else:
                pairs.append(gene.context_free_pair)
        else:
            pairs.append(NEUTRAL_PAIR)
    return _verdict_value(reference_sentence_score(pairs, semantics is Semantics.PROSE))


def _fitness(verdict, chromosome, corpus, index, sd, ad, semantics):
    if len(chromosome) != len(index):
        raise ValueError(
            f"chromosome length {len(chromosome)} != unknown-word count {len(index)}"
        )
    return sum(
        verdict(chromosome, inst.tokens, index, sd, ad, semantics) == inst.label.value
        for inst in corpus.instances
    )


def gasa_fitness(chromosome, corpus, index, sd, ad, semantics=Semantics.LITERAL) -> int:
    """Training instances whose GASA verdict equals their label."""
    return _fitness(gasa_verdict, chromosome, corpus, index, sd, ad, semantics)


def cagasa_fitness(chromosome, corpus, index, sd, ad, semantics=Semantics.LITERAL) -> int:
    """Training instances whose CA-GASA verdict equals their label."""
    return _fitness(cagasa_verdict, chromosome, corpus, index, sd, ad, semantics)


def exhaustive_best_fitness(corpus, index, sentiment_dict, amplifier_dict, semantics):
    """Maximal fitness over every possible chromosome (6^n candidates)."""
    return max(
        gasa_fitness(
            GasaChromosome(bytes(codes)), corpus, index, sentiment_dict, amplifier_dict, semantics
        )
        for codes in itertools.product(range(len(EVOLVABLE_PAIRS)), repeat=len(index))
    )
