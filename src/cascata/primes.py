"""Prime building blocks: flip-flops and modular counters.  Each kind's
transition rule is written once, in ``RULES``: the builders fill their
``delta_array`` from it, and ``validate_prime_identities`` checks one."""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import NamedTuple

import numpy as np

from .automata import Semiautomaton

#: Per kind and letter: the state that a core of ``n`` states moves to from
#: state ``q`` (a label, or an array of labels).
RULES = {"flipflop": {"set": lambda q, n: 1, "reset": lambda q, n: 0, "read": lambda q, n: q},
         "counter": {"inc": lambda q, n: (q + 1) % n, "read": lambda q, n: q}}
FLIPFLOP_LETTERS, COUNTER_LETTERS = map(tuple, RULES.values())


def _moves(kind: str, letters, q: np.ndarray) -> np.ndarray:
    """``RULES[kind]`` from the ``len(q)`` states ``q``, one column per letter."""
    table = np.empty((len(q), len(letters)), dtype=q.dtype)
    for j, a in enumerate(letters):
        table[:, j] = RULES[kind][a](q, len(q))
    return table


def _check_initial(initial, n_states: int, what: str) -> None:
    """A prime core's initial state is an int state number (not a bool)."""
    if type(initial) is not int or not 0 <= initial < n_states:
        raise ValueError(f"{what} initial state {initial!r} outside [0, {n_states - 1}]")


def make_flipflop(with_reset: bool = True, initial: int = 0) -> Semiautomaton:
    """Two-state core storing one bit.  Without reset the bit is write-once
    and the internal alphabet is just {set, read}."""
    _check_initial(initial, 2, "flip-flop")
    letters = FLIPFLOP_LETTERS if with_reset else ("set", "read")
    return Semiautomaton.from_tables(letters, (0, 1), _moves("flipflop", letters, np.arange(2)),
                                     initial)


def make_counter(modulus: int, initial: int = 0) -> Semiautomaton:
    """Counter modulo ``modulus`` with letters {inc, read}; the wrap on inc
    stands for overflow of the finite memory."""
    if modulus < 2:
        raise ValueError(f"counter modulus must be at least 2, got {modulus}")
    _check_initial(initial, modulus, "counter")
    delta = _moves("counter", COUNTER_LETTERS, np.arange(modulus))
    return Semiautomaton.from_tables(COUNTER_LETTERS, partial(range, modulus), delta, initial)


def is_prime_counter(core: Semiautomaton) -> bool:
    """A core is a prime counter exactly when it satisfies the counter
    identities and its modulus is a prime number."""
    return validate_prime_identities(core, "counter").ok and all(
        core.n_states % d for d in range(2, math.isqrt(core.n_states) + 1))


class IdentityCheck(NamedTuple):
    ok: bool
    violation: str | None


def validate_prime_identities(core: Semiautomaton, kind: str) -> IdentityCheck:
    """Exhaustively check the defining identities of a ``kind`` of core,
    'flipflop' (reset optional in the alphabet) or 'counter': states labelled
    0..n-1, and every transition as ``RULES[kind]`` says of the numbers they
    stand for; the first that is not, in (state, core letter) order, is named."""
    if kind not in RULES:
        raise ValueError(f"unknown prime kind {kind!r}")
    flipflop, labels, n = kind == "flipflop", core.state_labels(), core.n_states
    try:  # the verdict of set(labels) == set(range(n)), found by a sort in numpy
        values = np.asarray(labels)
        order = np.argsort(values)  # the positions of the labels of 0, 1, ..., n-1
        numbered = values.shape == (n,) and (values[order] == np.arange(n)).all()
    except (TypeError, ValueError):  # labels numpy cannot order or hold in one array
        order = list(map({v: i for i, v in enumerate(labels)}.get, range(n)))
        numbered = None not in order
    if (n != 2 if flipflop else n < 2) or not numbered:
        shown = tuple(labels) if n <= 8 else (  # a handful is named, not a million
            f"({', '.join(map(repr, itertools.islice(labels, 8)))}, ... {n - 8} more)")
        return IdentityCheck(False, f"states {shown} are not "
                                    + ("{0, 1}" if flipflop else "[0, n-1]"))
    letters, known = set(core.alphabet), set(RULES[kind])  # a flip-flop may lack reset
    if not (letters <= known if flipflop else letters == known):
        return IdentityCheck(False, f"alphabet {core.alphabet} is not "
                                    + ("flip-flop-like" if flipflop else "{inc, read}"))
    if flipflop and not {"set", "read"} <= letters:
        return IdentityCheck(False, "flip-flop needs at least {set, read}")
    number = np.argsort(order)  # the number each state's label stands for
    wrong = (number[core.delta_array] != _moves(kind, core.alphabet, number)).ravel()
    if not wrong[first := int(wrong.argmax())]:
        return IdentityCheck(True, None)
    q, i = divmod(first, len(core.alphabet))
    a, got = core.alphabet[i], labels[core.delta_array[q, i]]
    want = labels[order[RULES[kind][a](int(number[q]), n)]]
    return IdentityCheck(False, f"delta({labels[q]}, {a}) = {got}, expected {want}")
