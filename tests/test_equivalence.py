"""``FlatAutomaton.equivalent`` against the dict-based breadth-first search.

The reference below is the search ``equivalent`` ran before it went a layer
at a time over int arrays: a FIFO queue of state pairs, read through the
list rows ``delta`` and ``out``, with each new pair's parent kept in a dict.
Both must return the same ``EquivalenceResult``, the counterexample
included, on seeded random pairs, on blow-ups whose states are met with
several partners (``equivalent`` keeps one partner per state and the other
pairs apart), and on the scenarios.
"""

import random
from collections import deque

import pytest

from cascata.automata import EquivalenceResult, FlatAutomaton
from cascata.crafting import build_counter_task_cascade, build_flipflop_task_cascade


def reference_equivalent(a: FlatAutomaton, b: FlatAutomaton) -> EquivalenceResult:
    """Letters paired in sorted order; state pairs searched breadth-first,
    outputs compared per letter pair as each pair leaves the queue."""
    mine = sorted(a.alphabet, key=repr)
    theirs = mine if set(mine) == set(b.alphabet) else sorted(b.alphabet, key=repr)
    if len(mine) != len(theirs):
        raise ValueError("alphabets differ in size; no letter pairing exists")
    letters = [(x, a.letter_index[x], b.letter_index[y]) for x, y in zip(mine, theirs)]
    a_delta, a_out = a.delta_array.tolist(), a.out_array.tolist()
    b_delta, b_out = b.delta_array.tolist(), b.out_array.tolist()
    start = (a.core.initial_index, b.core.initial_index)
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair
        for x, ia, ib in letters:
            if a.outputs[a_out[qa][ia]] != b.outputs[b_out[qb][ib]]:
                word, node = [x], pair
                while parent[node] is not None:
                    node, letter = parent[node]
                    word.append(letter)
                return EquivalenceResult(False, tuple(reversed(word)))
            nxt = (a_delta[qa][ia], b_delta[qb][ib])
            if nxt not in parent:
                parent[nxt] = (pair, x)
                queue.append(nxt)
    return EquivalenceResult(True, None)


# output values that compare equal across automata: 1, True and 1.0 alike
_OUTPUTS = [(0, 1), (False, True), (0.0, 1.0), ("x", "y", "z"), (0, 1, 2)]


def _random_tables(rng: random.Random, n: int, k: int, n_outputs: int):
    delta = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    out = [[rng.randrange(n_outputs) for _ in range(k)] for _ in range(n)]
    return delta, out


def _random_pair(rng: random.Random) -> tuple[FlatAutomaton, FlatAutomaton]:
    """``a`` of 1-6 states and 1-3 letters, and ``b`` built from it in one
    of five ways: a copy with its states permuted and (half the time) its
    letters renamed, such a copy with one output changed, a blown-up copy
    (every state doubled), a copy over outputs that compare equal but are
    other objects, or an independent random automaton."""
    n, k = rng.choice([1, 1, 2, 3, 4, 6]), rng.randint(1, 3)
    outputs = rng.choice(_OUTPUTS)
    delta, out = _random_tables(rng, n, k, len(outputs))
    letters = tuple(f"a{j}" for j in range(k))
    a = FlatAutomaton.from_tables(letters, range(n), delta, rng.randrange(n), out, outputs)
    renamed = tuple(reversed([f"b{j}" for j in range(k)])) if rng.random() < 0.5 else letters
    # b's column for each of a's letters under the sorted pairing
    column = dict(zip(sorted(letters), sorted(range(k), key=lambda j: renamed[j])))
    kind = rng.choice(["permuted", "changed", "doubled", "equal_outputs", "random"])
    if kind == "random":
        m = rng.choice([1, 2, 3, 5])
        b_delta, b_out = _random_tables(rng, m, k, len(outputs))
        return a, FlatAutomaton.from_tables(renamed, range(m), b_delta, rng.randrange(m),
                                            b_out, outputs)
    copies = 2 if kind == "doubled" else 1
    perm = rng.sample(range(n * copies), n * copies)  # copy c of state q is perm[c * n + q]
    b_delta = [[0] * k for _ in range(n * copies)]
    b_out = [[0] * k for _ in range(n * copies)]
    for c in range(copies):
        for q in range(n):
            for x, j in zip(letters, range(k)):
                col = column[x]
                b_delta[perm[c * n + q]][col] = perm[rng.randrange(copies) * n + delta[q][j]]
                b_out[perm[c * n + q]][col] = out[q][j]
    if kind == "changed":
        row, col = rng.randrange(n * copies), rng.randrange(k)
        b_out[row][col] = (b_out[row][col] + 1) % len(outputs)
    b_outputs = outputs
    if kind == "equal_outputs":
        b_outputs = rng.choice([o for o in _OUTPUTS if len(o) == len(outputs)])
    return a, FlatAutomaton.from_tables(renamed, range(n * copies), b_delta,
                                        perm[rng.randrange(copies) * n + a.core.initial_index],
                                        b_out, b_outputs)


@pytest.mark.parametrize("block", range(4))
def test_equivalent_matches_the_reference_on_random_pairs(block):
    verdicts = set()
    for seed in range(block * 100, block * 100 + 100):
        a, b = _random_pair(random.Random(seed))
        for x, y in ((a, b), (b, a)):
            got = x.equivalent(y)
            assert got == reference_equivalent(x, y), seed
            assert type(got) is EquivalenceResult
            verdicts.add(got.equivalent)
    assert verdicts == {True, False}


def test_equivalent_matches_the_reference_on_single_state_automata():
    for seed in range(40):
        rng = random.Random(5000 + seed)
        k = rng.randint(1, 3)
        one = [FlatAutomaton.from_tables(tuple(f"a{j}" for j in range(k)), ("q",), [[0] * k],
                                         0, [[rng.randrange(2) for _ in range(k)]],
                                         rng.choice(_OUTPUTS[:3]))
               for _ in range(2)]
        assert one[0].equivalent(one[1]) == reference_equivalent(one[0], one[1]), seed


@pytest.mark.parametrize("build", [build_flipflop_task_cascade, build_counter_task_cascade])
def test_equivalent_matches_the_reference_on_the_scenarios(build):
    flat = build().flatten()
    minimized = flat.minimize()
    for x, y in ((flat, minimized), (minimized, flat)):
        assert x.equivalent(y) == reference_equivalent(x, y) == (True, None)


def test_equivalent_matches_the_reference_on_counters_with_another_threshold():
    a = build_counter_task_cascade(16, 13, 5, 7).flatten()
    b = build_counter_task_cascade(16, 13, 5, 6).flatten()
    for x, y in ((a, b), (b, a), (a.minimize(), b), (a, b.minimize())):
        got = x.equivalent(y)
        assert got == reference_equivalent(x, y)
        assert not got.equivalent and x.run(got.counterexample) != y.run(got.counterexample)


class _Output:
    """An output value that counts the ``!=`` comparisons made on it."""

    compared = 0

    def __init__(self, value):
        self.value = value

    def __ne__(self, other):
        _Output.compared += 1
        return self.value != other.value


def test_equivalent_compares_only_the_output_pairs_it_meets():
    # a 1,000-state chain whose state is its output, against a copy: the
    # search meets 1,000 output pairs, not the 10^6 of every pairing
    n = 1000
    delta = [[(q + 1) % n, q] for q in range(n)]
    out = [[q, q] for q in range(n)]
    a, b = (FlatAutomaton.from_tables(("inc", "read"), range(n), delta, 0, out,
                                      [_Output(q) for q in range(n)]) for _ in range(2))
    _Output.compared = 0
    assert a.equivalent(b) == (True, None)
    assert _Output.compared == n
    assert reference_equivalent(a, b) == (True, None)


def _blown_up(rng: random.Random, delta, out, initial: int, copies: int, outputs, changed=False):
    """A copy of the tables with every state held by ``copies`` states, each
    copy's transitions going to random copies of the targets: an automaton
    whose states are met with several partners by any other copy.  With
    ``changed`` one output of one copy differs."""
    n, k = len(delta), len(delta[0])
    perm = rng.sample(range(n * copies), n * copies)  # copy c of state q is perm[c * n + q]
    b_delta = [[0] * k for _ in range(n * copies)]
    b_out = [[0] * k for _ in range(n * copies)]
    for c in range(copies):
        for q in range(n):
            for j in range(k):
                b_delta[perm[c * n + q]][j] = perm[rng.randrange(copies) * n + delta[q][j]]
                b_out[perm[c * n + q]][j] = out[q][j]
    if changed:
        row, col = rng.randrange(n * copies), rng.randrange(k)
        b_out[row][col] = (b_out[row][col] + 1) % len(outputs)
    return FlatAutomaton.from_tables(tuple(f"a{j}" for j in range(k)), range(n * copies),
                                     b_delta, perm[initial], b_out, outputs)


@pytest.mark.parametrize("block", range(2))
def test_equivalent_matches_the_reference_when_states_meet_several_partners(block):
    # two blow-ups of one random automaton, with 2-3 and 2-4 copies per
    # state: a state of either is met with several states of the other, so
    # the search keeps pairs beside the first partner of each state
    verdicts, several = set(), 0
    for seed in range(7000 + block * 60, 7000 + block * 60 + 60):
        rng = random.Random(seed)
        n, k, outputs = rng.randint(1, 6), rng.randint(1, 3), rng.choice(_OUTPUTS)
        delta, out = _random_tables(rng, n, k, len(outputs))
        initial = rng.randrange(n)
        a = _blown_up(rng, delta, out, initial, rng.randint(2, 3), outputs)
        b = _blown_up(rng, delta, out, initial, rng.randint(2, 4), outputs,
                      changed=rng.random() < 0.5)
        reference = reference_pairs(a, b)
        several += any(len(set(ms)) > 1 for ms in reference.values())
        for x, y in ((a, b), (b, a)):
            got = x.equivalent(y)
            assert got == reference_equivalent(x, y), seed
            verdicts.add(got.equivalent)
    assert verdicts == {True, False} and several >= 30


def reference_pairs(a: FlatAutomaton, b: FlatAutomaton) -> dict:
    """Per state of ``b``, the states of ``a`` it is paired with on some
    string (letters paired by position)."""
    start = (a.core.initial_index, b.core.initial_index)
    seen, todo = {start}, [start]
    for qa, qb in todo:
        for nxt in zip(a.delta_array[qa].tolist(), b.delta_array[qb].tolist()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    partners: dict = {}
    for qa, qb in seen:
        partners.setdefault(qb, []).append(qa)
    return partners


def test_a_pair_met_beside_the_first_partner_is_searched_on():
    # ``big`` has one state, paired first with ``small``'s state 0 and then
    # with state 1, from which state 2 outputs 1 where ``big`` outputs 0:
    # the only counterexample runs through the second pairing
    small = FlatAutomaton.from_tables(("a",), range(3), [[1], [2], [2]], 0,
                                      [[0], [0], [1]], (0, 1))
    big = FlatAutomaton.from_tables(("a",), range(4), [[0], [0], [0], [0]], 0,
                                    [[0], [0], [0], [0]], (0, 1))
    for x, y in ((small, big), (big, small)):
        got = x.equivalent(y)
        assert got == reference_equivalent(x, y) == (False, ("a", "a", "a"))
