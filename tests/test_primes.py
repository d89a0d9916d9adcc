import itertools
import random
import re
from fractions import Fraction

import pytest

from cascata.automata import Semiautomaton
from cascata.primes import (
    COUNTER_LETTERS,
    FLIPFLOP_LETTERS,
    IdentityCheck,
    is_prime_counter,
    make_counter,
    make_flipflop,
    validate_prime_identities,
)


def test_flipflop_identities():
    ff = make_flipflop(with_reset=True)
    assert ff.step(1, "reset") == 0
    assert ff.step(0, "read") == 0
    assert ff.step(0, "set") == 1


def test_write_once_flipflop_keeps_the_bit():
    ff = make_flipflop(with_reset=False)
    assert "reset" not in ff.alphabet
    assert ff.run(("set",) + ("read",) * 5) == 1


def test_counter_wrap_and_full_cycle():
    c = make_counter(5)
    assert c.step(4, "inc") == 0
    assert c.run(("inc",) * 5) == 0


def test_counter_threshold_scenario_size():
    c = make_counter(16)
    assert c.run(("inc",) * 13) == 13


def test_make_counter_rejects_small_modulus():
    with pytest.raises(ValueError):
        make_counter(1)


def test_flipflop_rejects_bad_initial():
    with pytest.raises(ValueError):
        make_flipflop(initial=2)


@pytest.mark.parametrize("n,prime", [(2, True), (3, True), (5, True),
                                     (7, True), (16, False), (9, False)])
def test_is_prime_counter(n, prime):
    assert is_prime_counter(make_counter(n)) == prime
    # n states over {inc, read}, but inc does not count
    stuck = Semiautomaton(COUNTER_LETTERS, tuple(range(n)),
                          {(q, a): q for q in range(n) for a in COUNTER_LETTERS}, 0)
    assert not is_prime_counter(stuck)


def test_constructors_pass_identity_validation():
    for with_reset in (True, False):
        for init in (0, 1):
            check = validate_prime_identities(make_flipflop(with_reset, init), "flipflop")
            assert check.ok, check.violation
    for n in (2, 3, 5, 7, 16):
        check = validate_prime_identities(make_counter(n), "counter")
        assert check.ok, check.violation


def test_validation_names_a_corrupted_transition():
    c = make_counter(7)
    broken = _transitions(c)
    broken[(3, "inc")] = 3
    from cascata.automata import Semiautomaton

    bad = Semiautomaton(c.alphabet, c.states, broken, c.initial)
    check = validate_prime_identities(bad, "counter")
    assert not check.ok
    assert "delta(3, inc)" in check.violation


def test_validation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        validate_prime_identities(make_flipflop(), "group")


def test_counters_are_never_aperiodic():
    for n in (2, 3, 5, 16):
        assert not make_counter(n).is_aperiodic()


def _dict_flipflop(with_reset: bool, initial: int) -> Semiautomaton:
    """The flip-flop written as ``(state, letter)`` transitions."""
    letters = ("set", "reset", "read") if with_reset else ("set", "read")
    moves = {"set": lambda q: 1, "reset": lambda q: 0, "read": lambda q: q}
    return Semiautomaton(letters, (0, 1), {(q, a): moves[a](q) for q in (0, 1)
                                           for a in letters}, initial)


def _dict_counter(modulus: int, initial: int) -> Semiautomaton:
    """The counter written as ``(state, letter)`` transitions."""
    states = tuple(range(modulus))
    transitions = {}
    for q in states:
        transitions[(q, "read")] = q
        transitions[(q, "inc")] = (q + 1) % modulus
    return Semiautomaton(COUNTER_LETTERS, states, transitions, initial)


def _transitions(core: Semiautomaton) -> dict:
    return {(q, a): core.step(q, a) for q in core.states for a in core.alphabet}


def _same_core(core: Semiautomaton, reference: Semiautomaton):
    assert (core.alphabet, core.states, core.initial, core.initial_index) == (
        reference.alphabet, reference.states, reference.initial, reference.initial_index)
    assert core.delta_array.tolist() == reference.delta_array.tolist()
    assert type(core.initial) is int
    assert _transitions(core) == _transitions(reference)


@pytest.mark.parametrize("with_reset", [True, False])
@pytest.mark.parametrize("initial", [0, 1])
def test_flipflop_equals_the_dict_built_reference(with_reset, initial):
    _same_core(make_flipflop(with_reset, initial), _dict_flipflop(with_reset, initial))


def test_counter_equals_the_dict_built_reference():
    for modulus in range(2, 65):
        for initial in {0, 1, modulus // 2, modulus - 1}:
            _same_core(make_counter(modulus, initial), _dict_counter(modulus, initial))


@pytest.mark.parametrize("initial", [True, False, 1.0, "1", None, -1, 3])
def test_prime_cores_take_only_an_int_state_number_as_initial(initial):
    for build in (lambda: make_flipflop(initial=initial),
                  lambda: make_flipflop(False, initial),
                  lambda: make_counter(3, initial=initial)):
        with pytest.raises(ValueError, match=re.escape(f"initial state {initial!r} outside")):
            build()


def reference_validate(core: Semiautomaton, kind: str) -> IdentityCheck:
    """The identities checked label by label through ``core.step``: the
    flip-flop in core letter order, the counter with ``read`` before
    ``inc`` in each state."""
    if kind == "flipflop":
        if set(core.states) != {0, 1}:
            return IdentityCheck(False, f"states {core.states} are not {{0, 1}}")
        expected = {"read": lambda q: q, "set": lambda q: 1, "reset": lambda q: 0}
        if not set(core.alphabet) <= set(expected):
            return IdentityCheck(False, f"alphabet {core.alphabet} is not flip-flop-like")
        if "set" not in core.alphabet or "read" not in core.alphabet:
            return IdentityCheck(False, "flip-flop needs at least {set, read}")
        for q in core.states:
            for a in core.alphabet:
                want, got = expected[a](q), core.step(q, a)
                if got != want:
                    return IdentityCheck(False, f"delta({q}, {a}) = {got}, expected {want}")
        return IdentityCheck(True, None)
    if kind == "counter":
        n = len(core.states)
        if set(core.states) != set(range(n)) or n < 2:
            return IdentityCheck(False, f"states {core.states} are not [0, n-1]")
        if set(core.alphabet) != set(COUNTER_LETTERS):
            return IdentityCheck(False, f"alphabet {core.alphabet} is not {{inc, read}}")
        for q in core.states:
            for a, want in (("read", q), ("inc", (q + 1) % n)):
                got = core.step(q, a)
                if got != want:
                    return IdentityCheck(False, f"delta({q}, {a}) = {got}, expected {want}")
        return IdentityCheck(True, None)
    raise ValueError(f"unknown prime kind {kind!r}")


def _random_core(rng: random.Random) -> tuple[Semiautomaton, int]:
    """A flip-flop- or counter-like core with permuted state labels and
    letters, then up to two transitions moved elsewhere; returns the core and
    the number of transitions moved."""
    if rng.random() < 0.5:
        n = rng.choice((2, 2, 2, 2, 3))
        letters = rng.sample(FLIPFLOP_LETTERS, rng.randint(1, 3))
    else:
        n = rng.randint(1, 7)
        letters = rng.sample(COUNTER_LETTERS, 2) if rng.random() < 0.9 else ["inc"]
    extra = rng.choice(("set", "skip"))
    if rng.random() < 0.1 and extra not in letters:
        letters.append(extra)
    labels = rng.sample(range(n), n) if rng.random() < 0.9 else rng.sample(range(1, n + 2), n)
    moves = {"set": lambda q: 1, "reset": lambda q: 0, "read": lambda q: q,
             "inc": lambda q: (q + 1) % n, "skip": lambda q: q}
    transitions = {(q, a): moves[a](q) if moves[a](q) in labels else q
                   for q in labels for a in letters}
    moved = rng.choice((0, 1, 1, 2)) if n > 1 else 0
    for q, a in rng.sample(sorted(transitions, key=repr), moved):
        transitions[(q, a)] = rng.choice([p for p in labels if p != transitions[(q, a)]])
    return Semiautomaton(letters, labels, transitions, rng.choice(labels)), moved


def test_validation_equals_the_label_by_label_reference_on_random_cores():
    rng = random.Random(20)
    outcomes = set()
    for _ in range(3000):
        core, moved = _random_core(rng)
        for kind in ("flipflop", "counter"):
            check, reference = validate_prime_identities(core, kind), reference_validate(core, kind)
            assert check.ok == reference.ok, (core.states, core.alphabet, check, reference)
            # the same violation is named when there is one at most, and for
            # flip-flops, which the reference also checks in core letter order
            if moved <= 1 or kind == "flipflop":
                assert check == reference, (core.states, core.alphabet, check, reference)
            outcomes.add((kind, (reference.violation or "ok").split("(")[0].split()[0]))
    # both kinds pass, and fail on states, on the alphabet and on a transition
    assert outcomes == {(kind, word) for kind in ("flipflop", "counter")
                        for word in ("ok", "states", "alphabet", "delta")} | {
                            ("flipflop", "flip-flop")}


def test_two_wrong_moves_of_one_counter_state_name_the_first_core_letter():
    # state 1 goes wrong on both letters: the core's letter order picks inc
    core = Semiautomaton(COUNTER_LETTERS, (0, 1, 2), {
        (0, "inc"): 1, (0, "read"): 0, (1, "inc"): 0, (1, "read"): 2,
        (2, "inc"): 0, (2, "read"): 2}, 0)
    assert validate_prime_identities(core, "counter").violation == "delta(1, inc) = 0, expected 2"
    assert reference_validate(core, "counter").violation == "delta(1, read) = 2, expected 1"


class _One:
    """Equal to 1 and hashed as 1, but not ordered against numbers."""

    def __eq__(self, other):
        return other == 1

    def __add__(self, other):
        return 1 + other

    def __hash__(self):
        return hash(1)

    def __repr__(self):
        return "One"


LABELS = [(0, 1), (1, 0), (0.0, 1.0), (False, True), (True, 0), (1, 2), (-1, 0), (0, 1.5),
          (0, float("nan")), (0, "1"), ("0", "1"), (0, None), (0, _One()), (_One(), 2, 0),
          ((0,), (1,)), ((0,), (0, 1)), (2, 0, 1.0), (0, 1, 3), (0, 1, 2**70),
          (Fraction(2), 0, 1), (0, 1, 2, 3, 4, 5, 6, 7), tuple(range(8, -1, -1))]


@pytest.mark.parametrize("labels", LABELS, ids=repr)
def test_the_label_check_gives_the_set_test_verdict(labels):
    """The labels are checked on an array, with the verdict and, for a core
    of up to 8 states, the message of ``set(labels) == set(range(n))``."""
    n = len(labels)
    for kind, letters in (("flipflop", FLIPFLOP_LETTERS), ("counter", COUNTER_LETTERS)):
        core = Semiautomaton.from_tables(letters, labels, [[0] * len(letters)] * n, 0)
        check, reference = validate_prime_identities(core, kind), reference_validate(core, kind)
        assert check.violation.startswith("states") == reference.violation.startswith("states")
        if reference.violation.startswith("states") and n <= 8:
            assert check == reference


def test_a_large_core_is_checked_without_a_set_and_named_by_a_prefix():
    core = make_counter(10**5)
    assert validate_prime_identities(core, "counter").ok
    check = validate_prime_identities(core, "flipflop")
    assert check.violation == "states (0, 1, 2, 3, 4, 5, 6, 7, ... 99992 more) are not {0, 1}"
    shifted = Semiautomaton.from_tables(COUNTER_LETTERS, range(1, 10**5 + 1),
                                        core.delta_array, 0)
    assert validate_prime_identities(shifted, "counter").violation == (
        "states (1, 2, 3, 4, 5, 6, 7, 8, ... 99992 more) are not [0, n-1]")


@pytest.mark.parametrize("labels, numbers", [((0, 1 + 0j), (0, 1)), ((1 + 0j, 0), (1, 0)),
                                             ((0.0, True), (0, 1)), ((_One(), 2, 0), (1, 2, 0))],
                         ids=repr)
def test_labels_equal_to_the_state_numbers_get_the_verdict_of_int_labels(labels, numbers):
    """The rules are applied to the numbers that the labels stand for, so
    labels that support no ``%`` are judged as int labels are, on every
    transition table."""
    n = len(labels)
    kinds = [("counter", COUNTER_LETTERS)] + [("flipflop", ("set", "read"))] * (n == 2)
    for kind, letters in kinds:
        for entries in itertools.product(range(n), repeat=2 * n):
            delta = [entries[2 * q:2 * q + 2] for q in range(n)]
            core = Semiautomaton.from_tables(letters, labels, delta, 0)
            same = Semiautomaton.from_tables(letters, numbers, delta, 0)
            assert (validate_prime_identities(core, kind).ok
                    == validate_prime_identities(same, kind).ok), (kind, delta)


def test_a_wrong_move_is_named_by_the_labels():
    broken = Semiautomaton.from_tables(COUNTER_LETTERS, (0, 1 + 0j), [[0, 0], [0, 1]], 0)
    assert validate_prime_identities(broken, "counter").violation == (
        "delta(0, inc) = 0, expected (1+0j)")
