"""``Semiautomaton.transition_monoid`` against a reference search.

The reference is the FIFO search over tuples that ``transition_monoid`` ran
before it composed a whole frontier layer with each letter in one numpy
gather: one element at a time, each composed with every letter by a tuple
comprehension.  Both must return the same set and stop at the same cap.
"""

import itertools
import random
from collections import deque

import numpy as np
import pytest

from cascata.automata import Semiautomaton
from cascata.crafting import build_counter_task_cascade, build_flipflop_task_cascade
from cascata.errors import CapExceededError

CAP = 100_000


def reference_transition_monoid(d: Semiautomaton, cap: int = CAP) -> set:
    n = len(d.states)
    identity = tuple(range(n))
    generators = [tuple(column) for column in d.delta_array.T.tolist()]
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        f = frontier.popleft()
        for g in generators:
            h = tuple(g[p] for p in f)
            if h not in seen:
                entries = (len(seen) + 1) * n
                if entries > cap:
                    raise CapExceededError("transition monoid entries", entries, cap)
                seen.add(h)
                frontier.append(h)
    return seen


def outcome(build, d: Semiautomaton, cap: int):
    """The monoid, or the size and cap a ``CapExceededError`` carried."""
    try:
        return build(d, cap)
    except CapExceededError as err:
        return ("cap", err.what, err.size, err.cap)


def random_semiautomaton(rng: random.Random) -> Semiautomaton:
    """1-40 states and 1-6 letters.  Each letter maps into an image of a
    random size, so that monoids range from a few elements to past the
    cap."""
    n, k = rng.randint(1, 40), rng.randint(1, 6)
    letters = tuple(f"a{j}" for j in range(k))
    images = {a: rng.sample(range(n), rng.randint(1, n)) for a in letters}
    transitions = {(q, a): rng.choice(images[a]) for q in range(n) for a in letters}
    return Semiautomaton(letters, range(n), transitions, 0)


def test_layered_search_matches_the_reference_on_random_semiautomata():
    rng = random.Random(20261018)
    finished = 0
    for _ in range(200):
        d = random_semiautomaton(rng)
        want = outcome(reference_transition_monoid, d, CAP)
        assert outcome(Semiautomaton.transition_monoid, d, CAP) == want
        finished += isinstance(want, set)
    assert 50 <= finished < 200  # both complete monoids and capped searches


@pytest.mark.parametrize("name", ["flip-flop scenario", "counter scenario mod 2"])
def test_layered_search_matches_the_reference_on_the_scenarios(name):
    if name == "flip-flop scenario":
        d = build_flipflop_task_cascade().flatten().core
    else:
        d = build_counter_task_cascade(2, 1, 1, 1).flatten().core
    monoid = d.transition_monoid()
    assert monoid == reference_transition_monoid(d)
    assert len(monoid) == {"flip-flop scenario": 77, "counter scenario mod 2": 1536}[name]


def test_cap_raises_exactly_past_elements_times_states():
    d = build_counter_task_cascade(2, 1, 1, 1).flatten().core
    entries = 1536 * d.n_states
    assert len(d.transition_monoid(cap=entries)) == 1536
    with pytest.raises(CapExceededError) as err:
        d.transition_monoid(cap=entries - 1)
    assert (err.value.size, err.value.cap) == (entries, entries - 1)
    assert outcome(Semiautomaton.transition_monoid, d, entries - 1) == \
        outcome(reference_transition_monoid, d, entries - 1)


def random_wide_semiautomaton(rng: random.Random) -> Semiautomaton:
    """257-400 states, so rows no longer fit one byte per entry, and 1-3
    letters that each map into at most three states: after its first letter
    a string's transformation is fixed by where those states go, so the
    monoid stays small."""
    n, k = rng.randint(257, 400), rng.randint(1, 3)
    images = [rng.sample(range(n), rng.randint(1, 3)) for _ in range(k)]
    delta = [[rng.choice(image) for image in images] for _ in range(n)]
    return Semiautomaton.from_tables([f"a{j}" for j in range(k)], range(n), delta, 0)


def gather_totals(d: Semiautomaton) -> list[tuple[int, int, int]]:
    """(layer, letter, elements found so far) after each letter's gather of
    the layered search, counted with tuples.  It only places caps at chosen
    gathers; the reference decides what each cap must give."""
    n = d.n_states
    generators = [tuple(column) for column in d.delta_array.T.tolist()]
    seen, frontier, totals = {tuple(range(n))}, [tuple(range(n))], []
    for layer in itertools.count():
        if not frontier:
            return totals
        added = []
        for j, g in enumerate(generators):
            for f in frontier:
                h = tuple(g[p] for p in f)
                if h not in seen:
                    seen.add(h)
                    added.append(h)
            totals.append((layer, j, len(seen)))
        frontier = added


def test_rows_past_one_byte_match_the_reference():
    rng = random.Random(20261019)
    for _ in range(30):
        d = random_wide_semiautomaton(rng)
        assert d.n_states > 256
        size = len(reference_transition_monoid(d))
        for cap in (CAP, size * d.n_states, size * d.n_states - 1, 2 * d.n_states + 5):
            want = outcome(reference_transition_monoid, d, cap)
            assert outcome(Semiautomaton.transition_monoid, d, cap) == want


def test_rows_past_two_bytes_match_the_reference():
    n = 2**16 + 1
    delta = np.zeros((n, 2), dtype=np.int64)
    delta[:, 1] = n - 1
    d = Semiautomaton.from_tables(("a", "b"), range(n), delta, 0)
    for cap in (3 * n, 3 * n - 1, 2 * n - 1, n - 1):
        want = outcome(reference_transition_monoid, d, cap)
        assert outcome(Semiautomaton.transition_monoid, d, cap) == want
    assert len(d.transition_monoid(cap=3 * n)) == 3


@pytest.mark.parametrize("delta, size", [([[0]], 1), ([[0, 0, 0]], 1), ([[1], [2], [0]], 3),
                                         ([[1], [1], [0], [3]], 3)])
def test_one_state_and_one_letter_cores_match_the_reference(delta, size):
    n = len(delta)
    d = Semiautomaton.from_tables([f"a{j}" for j in range(len(delta[0]))], range(n), delta, 0)
    assert len(d.transition_monoid()) == size
    for cap in range(0, size * n + 2):
        want = outcome(reference_transition_monoid, d, cap)
        assert outcome(Semiautomaton.transition_monoid, d, cap) == want


@pytest.mark.parametrize("n", [32, 300])
def test_caps_that_fire_on_a_later_letter_within_a_layer_match_the_reference(n):
    # the counter scenario mod 2; on 300 states, each state past the 32nd
    # copies the row of its residue mod 32, which keeps the 1,536 elements
    counter = build_counter_task_cascade(2, 1, 1, 1).flatten().core
    d = Semiautomaton.from_tables(counter.alphabet, range(n),
                                  counter.delta_array[np.arange(n) % 32], 0)
    totals = gather_totals(d)
    places = [(before, after) for (_, _, before), (layer, letter, after)
              in zip(totals, totals[1:]) if layer > 0 and letter > 0 and after - before >= 2]
    assert places
    for before, after in places[:: max(1, len(places) // 12)]:
        limit = (before + after) // 2  # elements the cap admits: the gather passes it
        for cap in (limit * n, limit * n + n - 1):
            want = outcome(reference_transition_monoid, d, cap)
            assert want == ("cap", "transition monoid entries", (limit + 1) * n, cap)
            assert outcome(Semiautomaton.transition_monoid, d, cap) == want
