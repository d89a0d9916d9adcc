"""``FlatAutomaton.minimize`` against a reference refinement, and scalar
stepping against an explicit walk of the arrays.

The reference below is Moore's refinement written with ``np.unique(axis=0)``
over whole signature rows, every state re-sorted in every round, on the
states a list-based FIFO search reaches, in the order it reaches them,
which ``automata.bfs_order`` must give too.  ``minimize`` re-keys only the
states whose successors moved, on all states, and numbers the quotient
afterwards; both must produce the same automaton, byte for byte once
serialized: on random automata (unreachable states, one state, several
outputs, wide rows), on counters and on long chains of splits.
"""

import hashlib
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from cascata.automata import FlatAutomaton, _row_classes, bfs_order
from cascata.crafting import build_counter_task_cascade, build_flipflop_task_cascade
from cascata.errors import CascataError, EmptyInputError, UnknownLetterError


def reference_reachable(auto: FlatAutomaton) -> list[int]:
    """The reachable state numbers by a FIFO search over the list rows of
    ``delta_array``, letters in alphabet order."""
    delta = auto.delta_array.tolist()
    order = [auto.core.initial_index]
    seen = {order[0]}
    for q in order:  # the list grows while it is walked: BFS
        for nxt in delta[q]:
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


def reference_minimize(auto: FlatAutomaton) -> FlatAutomaton:
    """Moore's refinement, each round's classes found by ``np.unique``
    over the rows ``[block, block[delta]]``."""
    order = reference_reachable(auto)
    position = np.zeros(auto.n_states, dtype=np.int64)
    position[order] = np.arange(len(order))
    delta = position[auto.delta_array[order]]
    out_rows = auto.out_array[order]
    _, block = np.unique(out_rows, axis=0, return_inverse=True)
    while True:
        signature = np.column_stack([block, block[delta]])
        _, refined = np.unique(signature, axis=0, return_inverse=True)
        if refined.max() == block.max():  # no block split: stable
            break
        block = refined
    _, first = np.unique(block, return_index=True)
    canonical = np.argsort(np.argsort(first))
    representatives = np.sort(first)
    new_delta = canonical[block[delta[representatives]]]
    return FlatAutomaton.from_tables(
        auto.alphabet, range(len(representatives)), new_delta.tolist(), 0,
        out_rows[representatives].tolist(), auto.outputs, auto.factored)


def random_flat(rng: random.Random, letters=(1, 5)) -> FlatAutomaton:
    """A random automaton of 1-400 states, 1-5 letters (or as many as the
    range ``letters`` allows) and 1-4 outputs.

    Half the time it is a random quotient blown up: every state of a small
    random automaton gets several copies, and each copy's transitions go to
    random copies of the targets, so many states are equivalent.  Some
    automata also keep their transitions inside a prefix of the states, so
    the rest is unreachable."""
    n = rng.randint(1, 400)
    k = rng.randint(*letters)
    n_outputs = rng.randint(1, 4)
    if rng.random() < 0.5:
        m = rng.randint(1, max(1, n // rng.randint(1, 8)))
        quotient = [[rng.randrange(m) for _ in range(k)] for _ in range(m)]
        quotient_out = [[rng.randrange(n_outputs) for _ in range(k)] for _ in range(m)]
        kind = [q % m for q in range(n)]
        copies = [[q for q in range(n) if kind[q] == c] for c in range(m)]
        delta = [[rng.choice(copies[t]) for t in quotient[kind[q]]] for q in range(n)]
        out = [list(quotient_out[kind[q]]) for q in range(n)]
    else:
        delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
        out = [[rng.randrange(n_outputs) for _ in range(k)] for _ in range(n)]
    if rng.random() < 0.3:  # targets inside a prefix: the rest is unreachable
        reach = rng.randint(1, n)
        delta = [[t % reach for t in row] for row in delta]
    initial = rng.randrange(n)
    letters = tuple(f"a{j}" for j in range(k))
    outputs = tuple(range(n_outputs) if rng.random() < 0.5
                    else (f"o{j}" for j in range(n_outputs)))
    return FlatAutomaton.from_tables(letters, range(n), delta, initial, out, outputs)


def _json(auto: FlatAutomaton) -> str:
    """The serialization ``cascata minimize`` writes."""
    return json.dumps(auto.to_dict(), indent=2, default=str)


@pytest.mark.parametrize("block", range(4))
def test_minimize_matches_the_unique_reference_on_random_automata(block):
    for seed in range(block * 60, block * 60 + 60):
        auto = random_flat(random.Random(seed))
        assert auto.minimize().to_dict() == reference_minimize(auto).to_dict(), seed


@pytest.mark.parametrize("block", range(2))
def test_reachable_states_match_the_fifo_search_on_random_automata(block):
    for seed in range(2000 + block * 100, 2000 + block * 100 + 100):
        auto = random_flat(random.Random(seed), letters=(1, 8))
        order = bfs_order(auto.delta_array, auto.core.initial_index)
        assert order.tolist() == reference_reachable(auto)


def test_minimize_matches_the_reference_when_rows_span_several_keys():
    # 9 bits per block id at most, so 7 ids to a key: 8-24 letters make
    # rows of 9-25 ids, two to four keys
    for seed in range(1000, 1040):
        auto = random_flat(random.Random(seed), letters=(8, 24))
        assert auto.minimize().to_dict() == reference_minimize(auto).to_dict(), seed


@pytest.mark.parametrize("seed", range(6))
def test_row_classes_match_unique_on_wide_rows(seed):
    # rows drawn from a few prototypes, some changed in one entry, so equal
    # and nearly equal rows meet in every key
    rng = np.random.default_rng(seed)
    n_values = int(rng.choice([2, 3, 1000, 2**20 + 1, 2**40]))
    width = int(rng.integers(1, 12))
    prototypes = rng.integers(0, n_values, size=(20, width))
    rows = prototypes[rng.integers(0, 20, size=3000)]
    changed = rng.random(3000) < 0.3
    rows[changed, rng.integers(0, width, size=changed.sum())] = rng.integers(
        0, n_values, size=changed.sum())
    ids, n_ids = _row_classes(list(np.ascontiguousarray(rows.T)), n_values)
    _, reference = np.unique(rows, axis=0, return_inverse=True)
    assert n_ids == reference.max() + 1 == ids.max() + 1
    assert len(set(zip(ids.tolist(), reference.tolist()))) == n_ids  # the same partition


def test_minimize_of_one_state_matches_the_reference():
    auto = FlatAutomaton.from_tables(("a", "b"), ("only",), [[0, 0]], 0, [[1, 0]], (0, 1))
    small = auto.minimize()
    assert small.n_states == 1
    assert small.to_dict() == reference_minimize(auto).to_dict()


def test_minimize_splits_a_chain_one_state_per_round():
    # an n-state chain whose last state alone outputs 1: every state is
    # distinguished, and the refinement needs n-1 rounds to see it
    n = 70
    delta = [[min(q + 1, n - 1)] for q in range(n)]
    out = [[int(q == n - 1)] for q in range(n)]
    auto = FlatAutomaton.from_tables(("a",), range(n), delta, 0, out, (0, 1))
    assert auto.minimize().n_states == n
    assert auto.minimize().to_dict() == reference_minimize(auto).to_dict()


def reference_stepping(auto: FlatAutomaton) -> SimpleNamespace:
    """``auto.run``, ``auto.output``, ``auto.core.run`` and ``auto.core.step``
    as explicit walks of ``delta_array`` and ``out_array``.  An unknown
    letter is named by the core with its position, except for the last
    letter of ``run`` and the letter of ``output``, which the output
    function names without one."""
    delta, out = auto.delta_array.tolist(), auto.out_array.tolist()
    letters = {a: j for j, a in enumerate(auto.alphabet)}

    def number(state, what="state"):
        if state not in auto.states:
            raise ValueError(f"{what} {state!r} not among states")
        return auto.states.index(state)

    def walk(string, q):
        for i, a in enumerate(string):
            if a not in letters:
                raise UnknownLetterError(a, position=i, where="semiautomaton")
            q = delta[q][letters[a]]
        return q

    def code(q, letter):  # the output code of state number q on the letter
        if letter not in letters:
            raise UnknownLetterError(letter, where="automaton output")
        return out[q][letters[letter]]

    def run(string):
        string = tuple(string)
        if not string:
            raise EmptyInputError()
        return auto.outputs[code(walk(string[:-1], auto.core.initial_index), string[-1])]

    def core_run(string, start=None):
        q = auto.core.initial_index if start is None else number(start, "start state")
        return auto.states[walk(tuple(string), q)]

    def step(state, letter):
        q = number(state)
        if letter not in letters:
            raise UnknownLetterError(letter, where="semiautomaton")
        return auto.states[delta[q][letters[letter]]]

    return SimpleNamespace(run=run, core_run=core_run, step=step,
                           output=lambda state, letter: auto.outputs[code(number(state), letter)])


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type, letter, position and
    message (which names ``where``) of the error it raises."""
    try:
        return "returns", fn(*args)
    except (CascataError, ValueError) as error:
        return (type(error), getattr(error, "letter", None), getattr(error, "position", None),
                str(error))


def _stepping_cases(rng: random.Random, auto: FlatAutomaton):
    """Strings over the alphabet, the empty one included, and each of a few
    with an unknown letter put at every position in turn."""
    strings = [()] + [tuple(rng.choice(auto.alphabet) for _ in range(rng.randint(1, 12)))
                      for _ in range(12)]
    for s in strings[1:4]:
        for i in range(len(s) + 1):
            strings.append(s[:i] + ("zz",) + s[i:])
    return strings


@pytest.mark.parametrize("block", range(2))
def test_stepping_matches_an_explicit_walk_on_random_automata(block):
    for seed in range(3000 + block * 60, 3000 + block * 60 + 60):
        rng = random.Random(seed)
        auto = random_flat(rng)
        ref, core = reference_stepping(auto), auto.core
        for s in _stepping_cases(rng, auto):
            want = _outcome(ref.run, s)
            assert _outcome(auto.run, s) == _outcome(auto.run, iter(s)) == want, (seed, s)
            want = _outcome(ref.core_run, s)
            assert _outcome(core.run, s) == _outcome(core.run, iter(s)) == want, (seed, s)
            q = rng.choice((*auto.states, auto.n_states))
            assert _outcome(core.run, s, q) == _outcome(ref.core_run, s, q), (seed, s, q)
        for q in (*rng.sample(auto.states, min(20, auto.n_states)), auto.n_states):
            for a in (*auto.alphabet, "zz"):
                assert _outcome(auto.output, q, a) == _outcome(ref.output, q, a), (seed, q, a)
                assert _outcome(core.step, q, a) == _outcome(ref.step, q, a), (seed, q, a)


@pytest.mark.parametrize("modulus", range(2, 9))
def test_minimize_matches_the_reference_on_counter_scenarios(modulus):
    # counters split in long chains, one block after another, over as many
    # rounds as the modulus is large
    rng = random.Random(modulus)
    for _ in range(3):
        thresholds = [rng.randint(1, modulus - 1) for _ in range(3)]
        auto = build_counter_task_cascade(modulus, *thresholds).flatten()
        assert auto.minimize().to_dict() == reference_minimize(auto).to_dict(), thresholds


def random_chain(rng: random.Random) -> FlatAutomaton:
    """A chain of 2-300 states that one letter walks along, with 1-3 more
    letters that stay, go back or jump, and a few states whose outputs
    differ: states far from those are told apart only after many rounds,
    a few at a time.  Some automata repeat the chain, so states merge."""
    length, k = rng.randint(2, 300), rng.randint(1, 4)
    copies = rng.choice([1, 1, 2, 3])
    n = length * copies
    marks = {rng.randrange(length): rng.randint(1, 2) for _ in range(rng.randint(1, 3))}
    delta, out = [], []
    for q in range(n):
        place, copy = q % length, q // length
        row = [(q + 1) % n if place + 1 < length or copies == 1 else (place + 1) % length
               + rng.randrange(copies) * length]
        for _ in range(k - 1):
            row.append(rng.choice([q, copy * length, q - place + rng.randrange(length)]))
        delta.append(row)
        out.append([marks.get(place, 0)] + [0] * (k - 1))
    return FlatAutomaton.from_tables(tuple(f"a{j}" for j in range(k)), range(n), delta,
                                     rng.randrange(n), out, (0, 1, 2))


@pytest.mark.parametrize("block", range(2))
def test_minimize_matches_the_reference_on_random_chains(block):
    for seed in range(4000 + block * 40, 4000 + block * 40 + 40):
        auto = random_chain(random.Random(seed))
        assert auto.minimize().to_dict() == reference_minimize(auto).to_dict(), seed


def test_minimize_of_unreachable_states_matches_the_reference():
    # from states 0-2, states 3 and 4 are unreachable, 4 behaving as 1 and
    # 3 as none of them: refining them beside the others changes no block
    delta = [[1, 0], [2, 0], [2, 2], [3, 0], [2, 0]]
    out = [[0, 0], [0, 1], [1, 1], [1, 0], [0, 1]]
    for initial in range(5):
        auto = FlatAutomaton.from_tables(("a", "b"), range(5), delta, initial, out, (0, 1))
        assert auto.minimize().to_dict() == reference_minimize(auto).to_dict(), initial


# sha256 of the JSON ``minimize`` produced for each scenario before the
# refinement packed its rows into integer keys
SCENARIO_SHA256 = {
    "flipflop": (build_flipflop_task_cascade, 9,
                 "e53e69795b4fc5c60aa35c7f98a92c1324f801eb425fe4702d6b58cc7a27a43e"),
    "counter-2": (lambda: build_counter_task_cascade(2, 1, 1, 1), 17,
                  "149d4856c0226531f3ff4ece61f989fc1d20ab4018d6bf94791df45e96e2a2d5"),
    "counter-4": (lambda: build_counter_task_cascade(4, 3, 1, 2), 129,
                  "d9082f15484f84fab9e18730c239e6031b696657a5108fcc0fab0ea6031f9319"),
    "counter-16": (build_counter_task_cascade, 8193,
                   "d55af8a816fc0123c23ef559f713a7b30f0fbb763ec3a0896c69d2a35c2f5cd2"),
}


@pytest.mark.parametrize("name", SCENARIO_SHA256)
def test_minimize_json_of_the_scenarios_is_pinned(name):
    build, n_states, digest = SCENARIO_SHA256[name]
    small = build().flatten().minimize()
    assert small.n_states == n_states
    assert hashlib.sha256(_json(small).encode()).hexdigest() == digest
