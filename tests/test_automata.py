import ast
import itertools
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cascata import automata
from cascata.alphabets import FactoredAlphabet
from cascata.automata import ComponentAutomaton, FlatAutomaton, Semiautomaton
from cascata.crafting import build_flipflop_task_cascade, trace_from_words
from cascata.errors import CapExceededError, EmptyInputError, UnknownLetterError
from cascata.primes import make_counter, make_flipflop

from helpers import random_component, random_external, random_semiautomaton


def test_run_semiautomaton_flipflop():
    ff = make_flipflop()
    assert ff.run(("set", "read", "read")) == 1


def test_run_semiautomaton_empty_string_returns_initial():
    d = random_semiautomaton(random.Random(3))
    assert d.run(()) == d.initial


def test_run_semiautomaton_counter_wraps():
    c = make_counter(5)
    assert c.run(("inc",) * 7) == 2


def test_run_semiautomaton_unknown_letter_names_letter_and_position():
    ff = make_flipflop()
    with pytest.raises(UnknownLetterError) as err:
        ff.run(("set", "bogus"))
    assert err.value.letter == "bogus"
    assert err.value.position == 1


def test_an_unknown_letter_from_a_one_shot_iterator_is_named_with_its_position():
    with pytest.raises(UnknownLetterError) as err:
        make_flipflop().run(iter(["set", "read", "bogus", "read"]))
    assert (err.value.letter, err.value.position) == ("bogus", 2)
    flat = build_flipflop_task_cascade().flatten()
    with pytest.raises(UnknownLetterError) as err:
        flat.run(a for a in [("wood",), ("bronze",), ("iron",)])
    assert (err.value.letter, err.value.position) == (("bronze",), 1)
    with pytest.raises(UnknownLetterError, match="automaton output") as err:
        flat.run(a for a in [("wood",), ("bronze",)])
    assert (err.value.letter, err.value.position) == (("bronze",), None)


def test_run_composition_law():
    rng = random.Random(11)
    for _ in range(25):
        d = random_semiautomaton(rng)
        s = tuple(rng.choice(d.alphabet) for _ in range(rng.randint(0, 6)))
        t = tuple(rng.choice(d.alphabet) for _ in range(rng.randint(0, 6)))
        assert d.run(s + t) == d.run(t, start=d.run(s))


# ---------------------------------------------------------------------------
# Flat automata.
# ---------------------------------------------------------------------------


def _tiny_acceptor():
    """Accepts strings whose last letter is 'a' after an even count of 'b'."""
    states = (0, 1)
    trans = {(q, a): (q + (a == "b")) % 2 for q in states for a in "ab"}
    outs = {(q, a): int(q == 0 and a == "a") for q in states for a in "ab"}
    return FlatAutomaton("ab", states, trans, 0, outs)


def test_run_automaton_single_letter_uses_initial_state():
    auto = _tiny_acceptor()
    assert auto.run("a") == auto.output(auto.initial, "a")


def test_run_automaton_rejects_empty_string():
    with pytest.raises(EmptyInputError):
        _tiny_acceptor().run("")


def test_task_acceptor_examples():
    acceptor = build_flipflop_task_cascade().flatten()
    assert acceptor.run(trace_from_words(["steel", "factory"])) == 1
    assert acceptor.run(trace_from_words(["wood", "iron", "factory"])) == 0


def test_induce_hand_trace():
    external = FactoredAlphabet.single("event", ("wood", "blank"))
    comp = ComponentAutomaton(
        external, (1,),
        lambda x: "set" if x[0] == "wood" else "read",
        make_flipflop(with_reset=False),
        output_fn="state", name="wood",
    )
    auto = comp.induce()
    assert auto.run((("wood",), ("blank",))) == 1
    assert auto.run((("blank",), ("blank",))) == 0


def test_induce_identity_input_function_matches_core():
    core = random_semiautomaton(random.Random(5), max_states=3, max_letters=2)
    external = FactoredAlphabet.single("p", core.alphabet)
    comp = ComponentAutomaton(
        external, (1,), lambda x: x[0], core, output_fn="state"
    )
    auto = comp.induce()
    rng = random.Random(6)
    for _ in range(40):
        s = tuple((rng.choice(core.alphabet),) for _ in range(rng.randint(1, 6)))
        assert auto.run(s) == core.run(tuple(x[0] for x in s[:-1]))


# ---------------------------------------------------------------------------
# Minimization.
# ---------------------------------------------------------------------------


def test_minimize_is_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        comp = random_component(rng, random_external(rng))
        m = comp.induce().minimize()
        assert m.minimize().n_states == m.n_states


def test_minimize_merges_identical_rows():
    # states 1 and 2 have the same outputs and the same successors
    trans = {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 1,
             (2, "a"): 1, (2, "b"): 1}
    outs = {(q, a): 0 if q == 0 else 1 for q in (0, 1, 2) for a in "ab"}
    auto = FlatAutomaton("ab", (0, 1, 2), trans, 0, outs)
    assert auto.minimize().n_states == 2


def test_minimize_preserves_function():
    rng = random.Random(8)
    for _ in range(25):
        auto = random_component(rng, random_external(rng)).induce()
        small = auto.minimize()
        assert small.n_states <= auto.n_states
        letters = list(auto.alphabet)
        for _ in range(30):
            s = tuple(rng.choice(letters) for _ in range(rng.randint(1, 7)))
            assert small.run(s) == auto.run(s)


# ---------------------------------------------------------------------------
# Aperiodicity.
# ---------------------------------------------------------------------------


def brute_force_aperiodic(d: Semiautomaton) -> bool:
    """Every transformation's power sequence must reach a fixed point, found
    by walking powers until the first repeat."""
    for f in d.transition_monoid():
        seen = []
        power = f
        while power not in seen:
            seen.append(power)
            power = tuple(f[power[i]] for i in range(len(power)))
        # cycle of length one iff the repeat is the last element seen
        if seen.index(power) != len(seen) - 1:
            return False
    return True


def test_flipflop_aperiodic_counter_not():
    assert make_flipflop().is_aperiodic()
    assert not make_counter(5).is_aperiodic()


def test_aperiodic_agrees_with_brute_force():
    rng = random.Random(9)
    for _ in range(60):
        d = random_semiautomaton(rng, max_states=4, max_letters=3)
        assert d.is_aperiodic() == brute_force_aperiodic(d)


# ---------------------------------------------------------------------------
# Equivalence.
# ---------------------------------------------------------------------------


def test_equivalent_reflexive_and_vs_minimize():
    rng = random.Random(10)
    for _ in range(15):
        auto = random_component(rng, random_external(rng)).induce()
        assert auto.equivalent(auto).equivalent
        assert auto.equivalent(auto.minimize()).equivalent
        assert auto.minimize().equivalent(auto).equivalent


def test_resettable_vs_write_once_flipflop_counterexample():
    external = FactoredAlphabet.single("op", ("set", "reset", "read"))
    resettable = ComponentAutomaton(
        external, (1,), lambda x: x[0], make_flipflop(with_reset=True),
        output_fn="state",
    ).induce()
    write_once = ComponentAutomaton(
        external, (1,), lambda x: "set" if x[0] == "set" else "read",
        make_flipflop(with_reset=False), output_fn="state",
    ).induce()
    result = resettable.equivalent(write_once)
    assert not result.equivalent
    assert ("reset",) in result.counterexample
    # the counterexample is a real witness
    assert resettable.run(result.counterexample) != write_once.run(result.counterexample)


def test_equivalent_symmetric_on_exact_path():
    rng = random.Random(12)
    for _ in range(15):
        ext = random_external(rng)
        a = random_component(rng, ext).induce()
        b = random_component(rng, ext, output="state").induce()
        if set(a.alphabet) != set(b.alphabet) or set(a.outputs) != set(b.outputs):
            continue
        assert a.equivalent(b).equivalent == b.equivalent(a).equivalent


def test_equivalent_across_alphabets_pairs_letters_in_sorted_order():
    a = _tiny_acceptor()
    trans = {(0, x): 0 for x in "dc"}
    outs = {(0, x): 0 for x in "dc"}
    b = FlatAutomaton("dc", (0,), trans, 0, outs)
    assert a.equivalent(b) == (False, ("a",))  # 'a' pairs with 'c'
    assert b.equivalent(a) == (False, ("c",))
    one = FlatAutomaton("x", (0,), {(0, "x"): 0}, 0, {(0, "x"): 0})
    with pytest.raises(ValueError, match="differ in size"):
        a.equivalent(one)


def _random_flat(rng: random.Random, letters) -> FlatAutomaton:
    states = tuple(range(rng.randint(1, 3)))
    trans = {(q, a): rng.choice(states) for q in states for a in letters}
    outs = {(q, a): rng.randint(0, 1) for q in states for a in letters}
    return FlatAutomaton(letters, states, trans, rng.choice(states), outs)


def bounded_counterexample(a: FlatAutomaton, b: FlatAutomaton, max_len: int):
    """The reference check: letters paired in sorted order, and every string
    of length 1 to ``max_len`` compared, shortest first.  Returns the first
    string (in ``a``'s letters) on which the automata differ, or None."""
    pairs = list(zip(sorted(a.alphabet, key=repr), sorted(b.alphabet, key=repr)))
    for length in range(1, max_len + 1):
        for word in itertools.product(pairs, repeat=length):
            s1, s2 = zip(*word)
            if a.run(s1) != b.run(s2):
                return s1
    return None


def test_equivalent_matches_the_exhaustive_reference_on_renamed_alphabets():
    # the product has at most n_a * n_b state pairs, so a shortest
    # distinguishing string has at most that many letters
    rng = random.Random(14)
    verdicts = set()
    for _ in range(300):
        k = rng.randint(2, 3)
        a = _random_flat(rng, tuple("abc"[:k]))
        if rng.random() < 0.5:  # a renamed copy, with its states permuted
            perm = rng.sample(range(a.n_states), a.n_states)
            renamed = dict(zip(a.alphabet, "xyz"[:k]))
            b = FlatAutomaton(
                tuple(reversed("xyz"[:k])), tuple(range(a.n_states)),
                {(perm[q], renamed[x]): perm[a.core.step(q, x)]
                 for q in a.states for x in a.alphabet},
                perm[a.initial],
                {(perm[q], renamed[x]): a.output(q, x) for q in a.states for x in a.alphabet})
        else:
            b = _random_flat(rng, tuple(reversed("xyz"[:k])))
        result = a.equivalent(b)
        witness = bounded_counterexample(a, b, a.n_states * b.n_states)
        assert result.equivalent == (witness is None)
        verdicts.add(result.equivalent)
        if witness is not None:
            ce = result.counterexample
            assert len(ce) <= len(witness)
            paired = dict(zip(sorted(a.alphabet), sorted(b.alphabet)))
            assert a.run(ce) != b.run(tuple(paired[x] for x in ce))
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_dict_round_trip_preserves_behavior():
    """``to_dict`` writes the automaton's arrays, cell by cell in (state,
    letter) order, with its initial state and output values."""
    rng = random.Random(13)
    autos = [random_component(rng, random_external(rng)).induce() for _ in range(5)]
    for auto in autos + [build_flipflop_task_cascade().flatten()]:
        data = auto.to_dict()
        cells = list(itertools.product(*map(range, auto.delta_array.shape)))
        assert data["initial"] == auto.core.initial_index
        assert data["outputs"] == list(auto.outputs)
        assert data["transitions"] == [(q, a, auto.delta_array[q, a]) for q, a in cells]
        assert data["output_rows"] == [(q, a, auto.outputs[auto.out_array[q, a]])
                                       for q, a in cells]


@pytest.mark.parametrize("strings, letters, codes", [
    ([], [], []),
    ([(), ()], [], []),
    ([("a", "b", "a"), (), ("b", "c")], ["a", "b", "c"], [0, 1, 0, 1, 2]),
    ([(("e1",), ("e2",)), (("e2",),)], [("e1",), ("e2",)], [0, 1, 1]),
    ([(1, True, 1.0), (0, False)], [1, 0], [0, 0, 0, 1, 1]),  # equal letters are one
])
def test_encode_strings_numbers_letters_by_first_occurrence(strings, letters, codes):
    got_letters, got_codes, lengths = automata.encode_strings(strings)
    assert got_letters == letters
    assert got_codes.dtype == lengths.dtype == np.intp
    assert got_codes.tolist() == codes
    assert lengths.tolist() == [len(s) for s in strings]
    ends = np.cumsum(lengths)
    assert [tuple(got_letters[c] for c in got_codes[e - n:e]) for e, n in zip(ends, lengths)] \
        == [tuple(s) for s in strings]


def test_encode_strings_rejects_an_unhashable_letter():
    with pytest.raises(TypeError):
        automata.encode_strings([("a",), ("b", ["a"])])


def test_output_values_are_the_core_states_under_the_shorthands():
    core = make_counter(3)
    assert automata.output_values("state", core) is core.states
    assert automata.output_values("next_state", core, ("a", "b")) is core.states
    assert automata.output_values(lambda q, x: q, core, ("a", "b")) == ("a", "b")
    assert automata.output_values(lambda q, x: q, core) is None
    for bad in ("sate", None, 3):
        with pytest.raises(ValueError, match=f"unknown output_fn {bad!r}"):
            automata.output_values(bad, core)


def test_unknown_state_is_a_value_error_naming_the_state():
    with pytest.raises(ValueError, match="state 7 not among states") as err:
        make_flipflop().step(7, "set")
    assert not isinstance(err.value, UnknownLetterError)
    with pytest.raises(UnknownLetterError, match="'jump'"):
        make_flipflop().step(1, "jump")
    flat = build_flipflop_task_cascade().flatten()
    with pytest.raises(ValueError, match="'nowhere' not among states") as err:
        flat.output("nowhere", ("wood",))
    assert not isinstance(err.value, UnknownLetterError)
    with pytest.raises(UnknownLetterError):
        flat.output(flat.initial, ("bronze",))


BAD_STATE_CALLS = {
    "Semiautomaton.step": lambda state: make_flipflop().step(state, "set"),
    "Semiautomaton.run": lambda state: make_flipflop().run(["set"], start=state),
    "FlatAutomaton.output": lambda state: build_flipflop_task_cascade().flatten().output(
        state, ("wood",)),
    "Cascade.step": lambda state: build_flipflop_task_cascade().step(state, ("wood",)),
}


@pytest.mark.parametrize("api,state", [
    ("Semiautomaton.step", [0]),
    ("Semiautomaton.run", [0]),
    ("FlatAutomaton.output", [0]),
    ("Cascade.step", (0, 0, 0, 0, 0, 7)),  # one entry too many
    ("Cascade.step", 5),
    ("Cascade.step", (0, 0, [0], 0, 0)),
])
def test_a_bad_state_is_a_value_error_naming_it(api, state):
    with pytest.raises(ValueError, match=re.escape(repr(state))) as err:
        BAD_STATE_CALLS[api](state)
    assert not isinstance(err.value, UnknownLetterError)


def test_monoid_cap_counts_elements_times_states():
    counter = make_counter(5)  # five rotations of five states: 25 entries
    assert len(counter.transition_monoid(cap=25)) == 5
    with pytest.raises(CapExceededError) as err:
        counter.transition_monoid(cap=24)
    assert err.value.size == 25 and err.value.cap == 24


def test_dot_export_marks_accepting_states():
    dot = build_flipflop_task_cascade().flatten().minimize().to_dot()
    assert "doublecircle" in dot
    assert dot.startswith("digraph")


def test_component_compile_allocates_only_the_pairs_its_table_uses():
    # outputs are the 1000 states: a pair per (state, output) would be 10^6
    external = FactoredAlphabet.single("op", ("inc", "read"))
    core = make_counter(1000)
    tracemalloc.start()
    try:
        comp = ComponentAutomaton(external, (1,), lambda x: x[0], core, output_fn="state")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (comp.next_array[999, 0], comp.out_array[999, 0]) == (0, 999) and peak < 5_000_000


def test_automata_module_imports_neither_cascade_nor_specfile():
    """The automata layer sits below cascades and spec files: no import of
    either, at module level or inside a function."""
    tree = ast.parse(Path(automata.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    parts = {part for name in names for part in name.split(".")}
    assert not parts & {"cascade", "specfile"}, sorted(names)
