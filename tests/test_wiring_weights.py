"""Differential check of the wirings' place weights: for every letter of a
component's alphabet, the letter's codes times its wiring's weights sum to
the index of the projected letter the component reads."""

import random

import pytest

from cascata.alphabets import FactoredAlphabet
from cascata.cascade import Cascade, _wired, chain_alphabet

from helpers import cascade_with_counter, random_cascade, random_component, random_semiautomaton


def one_value_cascade(rng: random.Random) -> Cascade:
    """A cascade whose external alphabet holds one-value coordinates among
    others, in a seeded order; its parts may have one state or one output
    value, so chained coordinates may hold one value too."""
    coords = [("u", ("only",)), ("c", ("a", "b", "c")), ("v", (7,)), ("w", (0, 1))]
    rng.shuffle(coords)
    external = FactoredAlphabet.of(*coords[:rng.randint(2, 4)])
    comps = []
    for i in range(rng.randint(1, 3)):
        core = random_semiautomaton(rng, max_states=rng.choice([1, 3]))
        comps.append(random_component(rng, chain_alphabet(external, comps), core=core,
                                      output=rng.choice(["state", "random"]), name=f"k{i}"))
    return Cascade(comps)


def assert_weights_give_the_projected_index(cascade: Cascade):
    for comp in cascade.components:
        wiring = _wired(comp)
        weights = wiring.weights
        assert len(weights) == comp.alphabet.arity
        assert {j for j, w in enumerate(weights) if w} == \
            {i - 1 for i in comp.dependencies.indices}
        assert wiring.views[3] == tuple((j, w) for j, w in enumerate(weights) if w)
        position = {x: i for i, x in enumerate(comp.projected.letters())}
        for a in comp.alphabet.letters():
            x = comp.dependencies(a)
            assert comp.projected.index(x) == position[x]
            assert sum(c * w for c, w in zip(comp.alphabet.encode(a), weights)) == position[x]


CASES = {
    "random": lambda rng: random_cascade(rng, max_d=4, max_arity=3, max_domain=4),
    "counter": lambda rng: cascade_with_counter(rng, modulus=rng.randint(2, 6), max_d=4),
    "one_value": one_value_cascade,
}


@pytest.mark.parametrize("kind", sorted(CASES))
@pytest.mark.parametrize("seed", range(25))
def test_wiring_weights_give_the_projected_letter_index(kind, seed):
    assert_weights_give_the_projected_index(CASES[kind](random.Random(seed)))


def test_place_values_are_the_products_of_the_later_value_counts():
    alphabet = FactoredAlphabet.of(("a", (0, 1, 2)), ("b", ("x",)), ("c", (0, 1)), ("d", (5, 6)))
    assert alphabet.place_values == (4, 4, 2, 1)
    for i, letter in enumerate(alphabet.letters()):
        assert sum(c * w for c, w in zip(alphabet.encode(letter), alphabet.place_values)) == i
