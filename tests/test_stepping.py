"""Differential tests for the table-driven stepping path: ``Cascade.step``,
``Cascade.flatten`` and ``ComponentAutomaton.induce`` against the
functional oracle, on seeded random cascades."""

import random

import pytest

from cascata.alphabets import FactoredAlphabet
from cascata.automata import ComponentAutomaton
from cascata.cascade import Cascade
from cascata.crafting import build_flipflop_task_cascade
from cascata.errors import ArityMismatchError, UnknownLetterError
from cascata.functional import cascade_function, component_function
from cascata.primes import make_counter, make_flipflop

from helpers import random_cascade, string_sweep


def _last_step(cascade, string):
    state = cascade.initial_state()
    for letter in string:
        result = cascade.step(state, letter)
        state = result.state
    return result


def _permute_chained_values(rng, cascade):
    """The same cascade, except that every chained coordinate lists its
    producer's outputs in a shuffled order."""
    alphabet = cascade.external
    comps = []
    for comp in cascade.components:
        if comps:
            values = list(comps[-1].outputs)
            rng.shuffle(values)
            alphabet = alphabet.extend(comps[-1].name, values)
        output_fn = comp.theta if comp.output_kind == "table" else comp.output_kind
        comps.append(ComponentAutomaton(alphabet, comp.dependencies.indices, comp.input_fn,
                                        comp.core, output_fn=output_fn,
                                        outputs=comp.outputs, name=comp.name))
    return Cascade(comps)


def test_step_outputs_match_the_oracle_per_component():
    rng = random.Random(71)
    for _ in range(60):
        c = random_cascade(rng)
        # component i's output stream is the output of the cascade's prefix
        prefixes = [cascade_function(Cascade(c.components[:i + 1])) for i in range(c.depth)]
        for s in string_sweep(list(c.external.letters()), 5, 80, rng):
            result = _last_step(c, s)
            assert result.component_outputs == tuple(tree(s) for tree in prefixes)
            assert result.output == c.run(s)


def test_unpruned_flatten_matches_the_oracle():
    rng = random.Random(72)
    for _ in range(60):
        c = random_cascade(rng)
        flat = c.flatten(prune=False)
        assert flat.n_states == c.product_size()
        tree = cascade_function(c)
        for s in string_sweep(list(c.external.letters()), 5, 80, rng):
            assert flat.run(s) == tree(s)


def test_induce_matches_the_oracle_for_chained_components():
    rng = random.Random(73)
    for _ in range(40):
        for comp in random_cascade(rng, max_d=3).components:
            induced = comp.induce()
            assert induced.states == comp.core.states
            tree = component_function(comp)
            for s in string_sweep(list(comp.alphabet.letters()), 4, 60, rng):
                assert induced.run(s) == tree(s)


def test_chained_coordinate_in_another_order_than_the_producer_outputs():
    external = FactoredAlphabet.single("event", ("x", "y", "z"))
    counter = ComponentAutomaton(
        external, (1,), lambda v: "inc" if v[0] == "x" else "read", make_counter(3),
        output_fn="state", name="count",
    )
    # the producer lists its outputs as 0, 1, 2; the chained coordinate as 2, 0, 1
    goal = ComponentAutomaton(
        external.extend("count", (2, 0, 1)), (1, 2),
        lambda v: "set" if v == ("y", 2) else "read",
        make_flipflop(with_reset=False), output_fn="next_state", name="goal",
    )
    c = Cascade([counter, goal])
    assert c.run((("x",), ("x",), ("y",))) == 1
    assert c.run((("x",), ("y",))) == 0
    tree = cascade_function(c)
    flat = c.flatten()
    for s in string_sweep(list(external.letters()), 6, 400, random.Random(74)):
        assert c.run(s) == flat.run(s) == tree(s)
        assert _last_step(c, s).component_outputs[0] == s[:-1].count(("x",)) % 3


def test_shuffled_chained_value_orders_change_nothing():
    rng = random.Random(75)
    for _ in range(40):
        c = random_cascade(rng, max_d=3)
        shuffled = _permute_chained_values(rng, c)
        flat = shuffled.flatten()
        for s in string_sweep(list(c.external.letters()), 5, 80, rng):
            assert shuffled.run(s) == flat.run(s) == c.run(s)


@pytest.mark.parametrize("bad,error", [
    (("plastic",), UnknownLetterError),
    (("wood", 0), ArityMismatchError),
    ((), ArityMismatchError),
    ("wood", ArityMismatchError),
    (["wood"], ArityMismatchError),
])
def test_bad_letters_raise_in_cascade_run_and_step(bad, error):
    c = build_flipflop_task_cascade()
    with pytest.raises(error):
        c.run((("wood",), bad))
    with pytest.raises(error):
        c.step(c.initial_state(), bad)


@pytest.mark.parametrize("bad", [("plastic",), ("wood", 0), (), "wood"])
def test_bad_letters_raise_in_flat_and_semiautomaton_run(bad):
    flat = build_flipflop_task_cascade().flatten()
    for string in ((bad,), (bad, ("wood",)), (("wood",), bad)):
        with pytest.raises(UnknownLetterError):
            flat.run(string)
    with pytest.raises(UnknownLetterError) as err:
        flat.core.run((("wood",), bad))
    assert err.value.position == 1
    with pytest.raises(UnknownLetterError):
        make_flipflop().run(("set", bad))


def test_unknown_states_raise_value_error():
    c = build_flipflop_task_cascade()
    for states in ((0, 0, 0, 0, 7), (0, 0)):
        with pytest.raises(ValueError):
            c.step(states, ("wood",))
    with pytest.raises(ValueError):
        make_flipflop().run(("set",), start=5)
