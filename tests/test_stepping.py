"""Differential tests for the table-driven stepping path: ``Cascade.step``,
``Cascade.run`` and its transition memo, ``Cascade.flatten`` and
``ComponentAutomaton.induce`` against the functional oracle, on seeded random
cascades."""

import random
import sys
import threading

import pytest

from cascata import cascade as cascade_module
from cascata.alphabets import FactoredAlphabet
from cascata.automata import ComponentAutomaton
from cascata.cascade import Cascade
from cascata.crafting import (
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    generate_traces,
)
from cascata.errors import ArityMismatchError, UnknownLetterError
from cascata.functional import cascade_function, component_function
from cascata.primes import make_counter, make_flipflop

from helpers import cascade_with_counter, random_cascade, string_sweep


def _last_step(cascade, string):
    state = cascade.initial_state()
    for letter in string:
        result = cascade.step(state, letter)
        state = result.state
    return result


def _rebuilt(cascade, shuffle=None) -> list:
    """The cascade's components built afresh; with ``shuffle``, every
    chained coordinate lists its producer's outputs in the order that
    ``shuffle`` leaves a list of them in."""
    alphabet = cascade.external
    comps = []
    for comp in cascade.components:
        if comps:
            values = list(comps[-1].outputs)
            if shuffle:
                shuffle(values)
            alphabet = alphabet.extend(comps[-1].name, values)
        output_fn = comp.theta if comp.output_kind == "table" else comp.output_kind
        comps.append(ComponentAutomaton(alphabet, comp.dependencies.indices, comp.input_fn,
                                        comp.core, output_fn=output_fn,
                                        outputs=comp.outputs, name=comp.name))
    return comps


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

    def goal(order):
        return ComponentAutomaton(
            external.extend("count", order), (1, 2),
            lambda v: "set" if v == ("y", 2) else "read",
            make_flipflop(with_reset=False), output_fn="next_state", name="goal",
        )

    # the producer lists its outputs as 0, 1, 2; the chained coordinate as 2, 0, 1
    with pytest.raises(ValueError) as err:
        Cascade([counter, goal((2, 0, 1))])
    assert str(err.value) == (
        "coordinate 'count' of component 2 (goal) lists (2, 0, 1), not the outputs of "
        "component 1 in its order (0, 1, 2); build the alphabet with chain_alphabet or "
        "build_chained")
    c = Cascade([counter, goal((0, 1, 2))])
    assert c.run((("x",), ("x",), ("y",))) == 1
    assert c.run((("x",), ("y",))) == 0
    tree = cascade_function(c)
    flat = c.flatten()
    for s in string_sweep(list(external.letters()), 6, 400, random.Random(74)):
        assert c.run(s) == flat.run(s) == tree(s)
        assert _last_step(c, s).component_outputs[0] == s[:-1].count(("x",)) % 3


def test_shuffled_chained_value_orders_are_rejected():
    rng = random.Random(75)
    rejected = 0
    for _ in range(40):
        c = random_cascade(rng, max_d=3)
        shuffled = _rebuilt(c, rng.shuffle)
        if any(tuple(comp.alphabet.coords[-1].values) != prev.outputs
               for prev, comp in zip(shuffled, shuffled[1:])):
            with pytest.raises(ValueError, match="not the outputs of component"):
                Cascade(shuffled)
            rejected += 1
        rebuilt = Cascade(_rebuilt(c))
        flat = rebuilt.flatten()
        for s in string_sweep(list(c.external.letters()), 5, 80, rng):
            assert rebuilt.run(s) == flat.run(s) == c.run(s)
    assert rejected >= 10  # the others are of depth 1 or drew the same order


def _memo_snapshot(cascade):
    return [dict(row) for row in cascade._memo], cascade._memo_size


def _memo_cases(rng):
    """Seeded flip-flop and counter cascades, each with a second cascade
    over the same components, whose memo is its own."""
    for i in range(48):
        if i % 2:
            c = cascade_with_counter(rng, modulus=rng.randint(2, 5))
        else:
            c = random_cascade(rng, cores="flipflop" if i % 4 else "random")
        yield c, Cascade(c.components)


def test_run_memo_matches_the_oracle_cold_warm_and_interleaved():
    rng = random.Random(76)
    for c, twin in _memo_cases(rng):
        letters = list(c.external.letters())
        strings = string_sweep(letters, 6, 120, rng)
        strings += [tuple(rng.choice(letters) for _ in range(rng.randint(1, 40)))
                    for _ in range(20)]
        rng.shuffle(strings)
        tree = cascade_function(c)
        want = [tree(s) for s in strings]
        assert [_last_step(c, s).output for s in strings] == want
        assert [c.run(s) for s in strings] == want  # cold
        cold = _memo_snapshot(c)
        assert [c.run(s) for s in strings] == want  # warm
        assert _memo_snapshot(c) == cold
        for s, w in zip(reversed(strings), reversed(want)):  # interleaved
            assert c.run(s) == twin.run(s) == w
        assert _memo_snapshot(c) == cold


BAD_LETTERS = [
    (("plastic",), UnknownLetterError),
    (("wood", 0), ArityMismatchError),
    ((), ArityMismatchError),
    ("wood", ArityMismatchError),
    (["wood"], ArityMismatchError),
    ((["wood"],), UnknownLetterError),
]


@pytest.mark.parametrize("bad,error", BAD_LETTERS)
def test_bad_letters_raise_from_a_warm_memo_and_leave_it_unchanged(bad, error):
    c = build_flipflop_task_cascade()
    letters = list(c.external.letters())
    for s in string_sweep(letters, 2, 1000, random.Random(77)):
        c.run(s)
    before = _memo_snapshot(c)
    for string in ((bad,), (letters[0], bad), (letters[0], letters[-1], bad),
                   (bad, letters[0])):
        with pytest.raises(error):
            c.run(string)
        assert _memo_snapshot(c) == before


@pytest.mark.parametrize("cap", [0, 1, 37, 500])
def test_run_memo_stays_within_its_cap(monkeypatch, cap):
    traces = generate_traces(150, 120, seed=78)
    reference = build_counter_task_cascade(5, 4, 2, 3)
    want = [_last_step(reference, t).output for t in traces]
    monkeypatch.setattr(cascade_module, "RUN_MEMO_CAP", cap)
    c = build_counter_task_cascade(5, 4, 2, 3)
    for _ in range(2):
        for t, w in zip(traces, want):
            assert c.run(t) == w
            assert sum(map(len, c._memo)) == c._memo_size <= cap
    assert c._memo_size == cap  # the traces visit more transitions than the cap


def test_run_memo_stays_consistent_across_threads():
    traces = generate_traces(300, 60, seed=79)
    reference = build_counter_task_cascade(5, 4, 2, 3)
    want = [_last_step(reference, t).output for t in traces]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # each round races on a cold memo
            c = build_counter_task_cascade(5, 4, 2, 3)
            results, start = {}, threading.Barrier(6)

            def work(k):
                start.wait(timeout=60)
                order = list(range(len(traces)))
                random.Random(k).shuffle(order)
                outputs = {i: c.run(traces[i]) for i in order}
                results[k] = [outputs[i] for i in range(len(traces))]

            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == {k: want for k in range(6)}
            assert [c._numbers[st] for st in c._product] == list(range(len(c._product)))
            assert len(c._memo) == len(c._product)
            assert sum(map(len, c._memo)) == c._memo_size
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bad,error", BAD_LETTERS)
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


@pytest.mark.parametrize("bad", [["set"], {"wood": 1}, (["wood"],)])
def test_unhashable_letters_raise_unknown_letter_errors(bad):
    """An unhashable letter is an unknown letter to every stepping entry
    point, named with its position by ``run`` wherever it stands."""
    flat = build_flipflop_task_cascade().flatten()
    core = make_flipflop()
    for auto, good in ((core, "set"), (flat.core, ("wood",)), (flat, ("wood",))):
        for at in range(3):
            string = [good, good]
            string.insert(at, bad)
            for given in (string, iter(string)):
                with pytest.raises(UnknownLetterError) as err:
                    auto.run(given)
                last = auto is flat and at == 2  # the output function reads the last letter
                assert (err.value.letter, err.value.position) == (bad, None if last else at)
                assert str(err.value).endswith("automaton output" if last else "semiautomaton")
    for step, state in ((core.step, 0), (flat.core.step, flat.initial), (flat.output, flat.initial)):
        with pytest.raises(UnknownLetterError) as err:
            step(state, bad)
        assert err.value.letter == bad and err.value.position is None
