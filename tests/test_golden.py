"""Golden GASA and CA-GASA runs: fixed seeds must keep producing the same
model bytes and best-fitness trajectory, so a change to the scoring kernels
or the operators that alters any fitness value shows up here. Golden
synthetic corpora: fixed seeds must keep producing the same corpus bytes, so
a change to the generator's draws or labels shows up here too."""

import hashlib
import random

import pytest

from evosent.cagasa import CagasaProblem
from evosent.corpus import build_unknown_index, save_corpus
from evosent.evaluator import Semantics
from evosent.experiments import (
    PlantedLexicon,
    generate_synthetic_corpus,
    random_planted_lexicon,
)
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import GasaProblem
from evosent.lexicon import empty_sentiment_dictionary, seed_amplifier_dictionary
from evosent.model import TrainedModel, save_model

from conftest import A, S

# sha256 of (saved model bytes, comma-joined trajectory) per (semantics, seed).
# GASA: population 60, 30 generations.
GOLDEN = {
    ("literal", 0): (
        "f985765ab544292033f3af8779db9ae6e8dfa70fd233862ac43f012719a9c527",
        "7bac93b168b707315e7e1fe73c4c4dc02114f95d7ff141dd79c5b5d296835955",
    ),
    ("literal", 1): (
        "198939da4ea041b6c5e61213cb00dd75b8796a7cdac7b9c536351e515d08e6d7",
        "b06c7020670c6e3661936165c81f33d43f0592d235996c36e11dac9008c74aac",
    ),
    ("literal", 2): (
        "e5871a9f1b5831e2915f7c02775f3ffacba5a78ed54b0c3957f9a135fc052bbe",
        "d02f36d27302ee0b3ab93f6a8ee2655c8ae6e53e7d4657ace4afba52fc402714",
    ),
    ("literal", 3): (
        "28d01aa5b6ed49ca072b86795da63256c3d2aaf0cef88cb1306df5dcae55050f",
        "bca5132c1d1ff355ed1a8f7501c663a615b1fc5055845f465f635a8d6aad56af",
    ),
    ("literal", 4): (
        "d55b1993d1621635a71785724e3a968bfe31010e5796c3f2fcc6d405ec2cbc84",
        "6e55aeb05006bf8045c2475d375b4f7f459439c9ff45388be7f1f96cfdbed48a",
    ),
    ("prose", 0): (
        "81da26f6c6c1c17be7250c2f553b8a41ee743075ad2b6c878e2dd1847cc3361a",
        "4f93c631421ce3161dadf30f4a3583d9e6343626682b22916801088af90f526f",
    ),
    ("prose", 1): (
        "46a3fd636b3d2e7f1eaccc2446b3bf450e165bc3c01ab0e323dcfb72454d3b91",
        "02db91efd9707830e66f4934d4f2543a29f174771d735b023f20cb5cb6199394",
    ),
    ("prose", 2): (
        "5827bfc33812aafb5597a7d944d398e850262bcf8e8e2e9d1b1a86a54e71a041",
        "47f74da373f81ea3c18f9629a675376ebf1a726d1b699160a44e758301efe7d8",
    ),
    ("prose", 3): (
        "ae49280bf7cee6fb82aff471e2341dffea1db42a49c367e989a40310a65ce308",
        "d611ec6c39b46e21644ace0db472c6dda62a2d7f62ca9575cfb20e91427e7d95",
    ),
    ("prose", 4): (
        "614ae7d2fb53c65f76d477315db4aea9a79de8a02056f35bcd6e820b7bc39cf8",
        "2a5dc28589591820d94f4d8fb2294a807f5fe7a6011cb1fc36ec5ede9108cd60",
    ),
}


# CA-GASA: population 40, 10 generations.
GOLDEN_CAGASA = {
    ("literal", 0): (
        "0f28401c64ca6a0a9e8ac52428ab1324734f589ff5209bce8e85caae4d0f7f7f",
        "bff0cbb4449e7b17fd93b0d89dd5c2050dce150715b350907dfaae7019563d0f",
    ),
    ("literal", 1): (
        "fd48071bdbcdc345a5e4b93424378a4395de0f69e5c1cb4ff55b4d741f80a509",
        "54a1e6fcd9f50e030683d9c8c971828eedf788b2e688e667115262b8d47c2536",
    ),
    ("literal", 2): (
        "25bdd008c4553a7685879a2326ec52a2d403a8ad5cd8a9591dbc28160c6e9c62",
        "262da7d2a72f3ee3a3863afdb1d76e36bc142131f5a54a2f20f5b0f2280682a8",
    ),
    ("literal", 3): (
        "c5bea4ef1c64a2943034298921dff6867d7ff4d8ad6e726443913ec8d1dc6c1c",
        "e5bf598203a3189684dbe8775d2d0ff2ec74fec08ca409afa1ac5ab4b243bd7c",
    ),
    ("literal", 4): (
        "eab771019ba30b5529965e343c5b0384805ccd7e43ed70bafe2d8fae8a2428d3",
        "2a3ebbbb4be9520c3c9f869ab13e379719f9577545a9c19acf9b568e60327d10",
    ),
    ("prose", 0): (
        "0b4ee1a2a39e56df920d8512b6dbc3abac3660b998804842b53a40bb508ebf06",
        "1174ec027d6ab26e532f16ddd84bf96ead83cd655516adc8d1b0a21bc8512d4d",
    ),
    ("prose", 1): (
        "1a815be435afdfd24aa26afaed876263f16eb80b8872a4d6763a8c4f07d35dc9",
        "bcd3a8232d5762db953fa3a49fdee804c115708656c89d411883645cc5b7a38a",
    ),
    ("prose", 2): (
        "6a17c538f7358048ad48355c818720cdca2eb623332af3e84f7e144dcd944521",
        "9c8144f4af97afdb22544c7f9f04649bec2dfba21fd475640538f12da9f450d7",
    ),
    ("prose", 3): (
        "a57e9134b83aab741f121de66327e514175a98ac2e3cdf6372550f9127013629",
        "52944ef5e7464512dea67245ac3e8cffad24800cbfad9bc02c1048246b702b00",
    ),
    ("prose", 4): (
        "e8061c485a5828a99151b307407940b51493f955238dd30cec6115dafe8dc1fb",
        "905b820f9ffdaf56714fd1be5b64b7b16be83d05bb21eafbc99acaacd4a7901b",
    ),
}


# A planted lexicon with amplifiers, a zero-valued amplifier, a sentiment
# value that is not a multiple of one half, and fillers.
AMPLIFIER_LEXICON = PlantedLexicon(
    {"up": S(1.0), "down": S(-1.0), "slight": S(0.3), "very": A(1.5),
     "not": A(-1.0), "half": A(0.5), "zero": A(0.0)},
    frozenset({"the", "meh"}),
)

# sha256 of the `save_corpus` bytes per generator call: (planted and filler
# word counts, or None for AMPLIFIER_LEXICON; instances; length range;
# semantics; seed). A random planted lexicon is drawn first from the seed's
# rng, as `evosent synth` draws it, so "c500" is `synth --instances 500
# --seed 1` and "long" is `--instances 300 --min-length 3 --max-length 2000
# --seed 1`.
GOLDEN_SYNTH = {
    "c500": (
        ((30, 10), 500, (3, 8), "literal", 1),
        "6a2d2c13efbfa16ba8bd9dacb864e3fa3ad559e94a95186d018e7c1cc9d835f7",
    ),
    "c500-prose": (
        ((30, 10), 500, (3, 8), "prose", 5),
        "b860e7c2fa2a5d7eb8dab253b768bcdd315afa551dedb4ddb5366fb6caab5f78",
    ),
    "c5k": (
        ((300, 100), 5000, (3, 8), "literal", 2),
        "bed289a954b5cbf2fe3d791ff62671426bc11bb802fc4c9cb914c6cdac001ef0",
    ),
    "wide": (
        ((300, 10), 60, (3, 8), "literal", 3),
        "394daff830a38b8cb09b495f2e6e3136959509f046623d49102acfa3c49e3691",
    ),
    "amplifiers-literal": (
        (None, 400, (1, 6), "literal", 7),
        "244e7031dd3e480720a9f43fa942381c57ff5fd7e81d8ab7a8fc3ef93a1f30fc",
    ),
    "amplifiers-prose": (
        (None, 400, (1, 6), "prose", 7),
        "6415982c06a7c2af68d0cc26ed1e5c2e2f40cbe8234585695189416d0d4c7d6d",
    ),
    "long": (
        ((30, 10), 300, (3, 2000), "literal", 1),
        "4ad9e01182430678b58208f034ae7b501ebce506d03a367216d9ac1914b32c5c",
    ),
}


@pytest.fixture(scope="module")
def corpus():
    """`evosent synth --instances 500 --seed 1`: 30 planted words, 10 fillers."""
    rng = random.Random(1)
    lexicon = random_planted_lexicon(30, 10, rng)
    return generate_synthetic_corpus(lexicon, 500, (3, 8), Semantics.LITERAL, rng)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(problem_class, algo, corpus, semantics, config, path):
    """sha256 of the saved model bytes and of the best-fitness trajectory."""
    sd, ad = empty_sentiment_dictionary(), seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    problem = problem_class(corpus, index, sd, ad, semantics)
    best, stats = run_ga(problem, config)
    save_model(
        TrainedModel(algo, semantics, config, sd, ad, index,
                     best.genome, best.fitness, len(corpus)),
        path,
    )
    trajectory = ",".join(map(str, stats.best_fitness_per_generation))
    return sha256(path.read_bytes()), sha256(trajectory.encode())


@pytest.mark.parametrize("semantics, seed", sorted(GOLDEN))
def test_gasa_run_is_unchanged(corpus, semantics, seed, tmp_path):
    config = GAConfig(population_size=60, max_generations=30, seed=seed)
    hashes = run_hashes(GasaProblem, "gasa", corpus, Semantics(semantics), config,
                        tmp_path / "model")
    assert hashes == GOLDEN[semantics, seed]


@pytest.mark.parametrize("semantics, seed", sorted(GOLDEN_CAGASA))
def test_cagasa_run_is_unchanged(corpus, semantics, seed, tmp_path):
    config = GAConfig(population_size=40, max_generations=10, seed=seed)
    hashes = run_hashes(CagasaProblem, "cagasa", corpus, Semantics(semantics), config,
                        tmp_path / "model")
    assert hashes == GOLDEN_CAGASA[semantics, seed]


@pytest.mark.parametrize("name", sorted(GOLDEN_SYNTH))
def test_synthetic_corpus_is_unchanged(name, tmp_path):
    (words, instances, lengths, semantics, seed), digest = GOLDEN_SYNTH[name]
    rng = random.Random(seed)
    lexicon = AMPLIFIER_LEXICON if words is None else random_planted_lexicon(*words, rng)
    corpus = generate_synthetic_corpus(lexicon, instances, lengths, Semantics(semantics), rng)
    save_corpus(corpus, tmp_path / "corpus.tsv")
    assert sha256((tmp_path / "corpus.tsv").read_bytes()) == digest
