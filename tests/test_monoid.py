"""``Semiautomaton.transition_monoid`` against a reference search.

The reference is the FIFO search over tuples that ``transition_monoid`` ran
before it composed a whole frontier layer with each letter in one numpy
gather: one element at a time, each composed with every letter by a tuple
comprehension.  Both must return the same set and stop at the same cap.
"""

import random
from collections import deque

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
