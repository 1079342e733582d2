"""Golden GASA runs: fixed seeds must keep producing the same model bytes and
best-fitness trajectory, so a change to the scoring kernel or the operators
that alters any fitness value shows up here."""

import hashlib
import random

import pytest

from evosent.corpus import build_unknown_index
from evosent.evaluator import Semantics
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import GasaProblem
from evosent.lexicon import empty_sentiment_dictionary, seed_amplifier_dictionary
from evosent.model import TrainedModel, save_model

# sha256 of (saved model bytes, comma-joined trajectory) per (semantics, seed).
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


@pytest.fixture(scope="module")
def corpus():
    """`evosent synth --instances 500 --seed 1`: 30 planted words, 10 fillers."""
    rng = random.Random(1)
    lexicon = random_planted_lexicon(30, 10, rng)
    return generate_synthetic_corpus(lexicon, 500, (3, 8), Semantics.LITERAL, rng)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("semantics, seed", sorted(GOLDEN))
def test_gasa_run_is_unchanged(corpus, semantics, seed, tmp_path):
    sd, ad = empty_sentiment_dictionary(), seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    problem = GasaProblem(corpus, index, sd, ad, Semantics(semantics))
    config = GAConfig(population_size=60, max_generations=30, seed=seed)
    best, stats = run_ga(problem, config)
    path = tmp_path / "model"
    save_model(
        TrainedModel("gasa", Semantics(semantics), config, sd, ad, index,
                     best.genome, best.fitness, len(corpus)),
        path,
    )
    trajectory = ",".join(map(str, stats.best_fitness_per_generation))
    assert (sha256(path.read_bytes()), sha256(trajectory.encode())) == GOLDEN[semantics, seed]
