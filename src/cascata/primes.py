"""Prime building blocks: flip-flops and modular counters."""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .automata import Semiautomaton

FLIPFLOP_LETTERS = ("set", "reset", "read")
COUNTER_LETTERS = ("inc", "read")


def _check_initial(initial, n_states: int, what: str) -> None:
    """A prime core's initial state is an int state number (not a bool)."""
    if type(initial) is not int or not 0 <= initial < n_states:
        raise ValueError(f"{what} initial state {initial!r} outside [0, {n_states - 1}]")


def make_flipflop(with_reset: bool = True, initial: int = 0) -> Semiautomaton:
    """Two-state core storing one bit.  Without reset the bit is write-once
    and the internal alphabet is just {set, read}."""
    _check_initial(initial, 2, "flip-flop")
    letters = FLIPFLOP_LETTERS if with_reset else ("set", "read")
    delta = np.array([[1, 0, q] if with_reset else [1, q] for q in (0, 1)])  # over ``letters``
    return Semiautomaton.from_tables(letters, (0, 1), delta, initial)


def make_counter(modulus: int, initial: int = 0) -> Semiautomaton:
    """Counter modulo ``modulus`` with letters {inc, read}; the wrap on inc
    stands for overflow of the finite memory."""
    if modulus < 2:
        raise ValueError(f"counter modulus must be at least 2, got {modulus}")
    _check_initial(initial, modulus, "counter")
    q = np.arange(modulus)
    delta = np.stack([(q + 1) % modulus, q], axis=1)  # columns (inc, read)
    return Semiautomaton.from_tables(COUNTER_LETTERS, partial(range, modulus), delta, initial)


def is_prime_counter(core: Semiautomaton) -> bool:
    """A core is a prime counter exactly when it satisfies the counter
    identities and its modulus is a prime number."""
    if not validate_prime_identities(core, "counter").ok:
        return False
    n = len(core.states)
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class IdentityCheck(NamedTuple):
    ok: bool
    violation: str | None


def validate_prime_identities(core: Semiautomaton, kind: str) -> IdentityCheck:
    """Exhaustively check the defining identities of a flip-flop or counter.

    kind: 'flipflop' (reset optional in the alphabet) or 'counter'.
    """
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
                want = expected[a](q)
                got = core.step(q, a)
                if got != want:
                    return IdentityCheck(
                        False, f"delta({q}, {a}) = {got}, expected {want}"
                    )
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
