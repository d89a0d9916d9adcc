"""``FlatAutomaton.equivalent`` against the dict-based breadth-first search.

The reference below is the search ``equivalent`` ran before it went a layer
at a time over int arrays: a FIFO queue of state pairs, read through the
list rows ``delta`` and ``out``, with each new pair's parent kept in a dict.
Both must return the same ``EquivalenceResult``, the counterexample
included, on seeded random pairs and on the scenarios.
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
