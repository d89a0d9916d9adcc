"""Semiautomata, flat automata, and components with projections.

Run semantics: a semiautomaton maps a string to the state reached from the
initial state; an automaton maps a non-empty string to the output of the
state reached after all but the last letter, paired with the last letter.
Instances are immutable after construction and all operations are pure.

Tables: states and letters are numbered by position in the ``states`` and
``alphabet`` label tuples.  ``delta[q][a]`` is the next state's number and a
flat automaton's ``out[q][a]`` the position of its output in ``outputs``;
both are plain lists of int rows, one row per state.  A component's compiled
``next[q][x]`` and ``out[q][x]`` are the next core state's number and the
output code on the projected letter numbered ``x`` in the order of
``projected.letters()``; for ``'next_state'`` outputs ``out`` is ``next``
itself.  Constructors take ``(state, letter)``-keyed dicts and check them
once; ``transitions`` and ``output_map`` are read-only dict views of the
tables, built on first use.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .alphabets import FactoredAlphabet, Projection, TableFunction
from .errors import CapExceededError, EmptyInputError, UnknownLetterError

#: The most entries a transition monoid may store: elements times states.
DEFAULT_MONOID_CAP = 100_000


def _is_index(value, size: int) -> bool:
    """Is ``value`` an int (not a bool) in ``range(size)``?"""
    return type(value) is int and 0 <= value < size


def _table(mapping, states, alphabet, code: dict, what: str) -> list[list[int]]:
    """Rows of ``code[mapping[(q, a)]]``, checked to be total and in range."""
    for q, a in itertools.product(states, alphabet):
        if (q, a) not in mapping:
            raise ValueError(f"{what} missing for ({q!r}, {a!r})")
        if mapping[(q, a)] not in code:
            raise ValueError(f"{what} ({q!r}, {a!r}) -> {mapping[(q, a)]!r} is out of range")
    return [[code[mapping[(q, a)]] for a in alphabet] for q in states]


class Semiautomaton:
    """States plus a total transition function over a flat alphabet."""

    def __init__(self, alphabet, states, transitions, initial):
        self._label(alphabet, states, initial)
        self.delta = _table(transitions, self.states, self.alphabet, self.state_index,
                            "transition")

    @classmethod
    def from_tables(cls, alphabet, states, delta, initial_index: int) -> "Semiautomaton":
        """Wrap a transition table that is already total and in range."""
        self = cls.__new__(cls)
        states = tuple(states)
        self._label(alphabet, states, states[initial_index])
        self.delta = delta
        return self

    def _label(self, alphabet, states, initial):
        self.alphabet, self.states = tuple(alphabet), tuple(states)
        self.state_index = {q: i for i, q in enumerate(self.states)}
        self.letter_index = {a: i for i, a in enumerate(self.alphabet)}
        if len(self.state_index) != len(self.states) or not self.states:
            raise ValueError("states must be a non-empty duplicate-free sequence")
        if len(self.letter_index) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be a non-empty duplicate-free sequence")
        if initial not in self.state_index:
            raise ValueError(f"initial state {initial!r} not among states")
        self.initial, self.initial_index = initial, self.state_index[initial]

    @cached_property
    def transitions(self):
        """Read-only ``(state, letter) -> state`` view of ``delta``."""
        return MappingProxyType({
            (q, a): self.states[t]
            for q, row in zip(self.states, self.delta) for a, t in zip(self.alphabet, row)
        })

    @property
    def n_states(self) -> int:
        return len(self.states)

    def _number(self, state, what: str = "state") -> int:
        """The state's position in ``states``; a ``ValueError`` naming it
        when it is not a state."""
        q = self.state_index.get(state)
        if q is None:
            raise ValueError(f"{what} {state!r} not among states")
        return q

    def step(self, state, letter):
        try:
            return self.states[self.delta[self.state_index[state]][self.letter_index[letter]]]
        except KeyError:
            self._number(state)
            raise UnknownLetterError(letter, where="semiautomaton")

    def run(self, string, start=None):
        """State reached from ``start`` (default: initial) on the string;
        the empty string returns the start state unchanged."""
        q = self.initial_index if start is None else self._number(start, "start state")
        delta, index = self.delta, self.letter_index
        for i, a in enumerate(string):
            j = index.get(a)
            if j is None:
                raise UnknownLetterError(a, position=i, where="semiautomaton")
            q = delta[q][j]
        return self.states[q]

    def __call__(self, string):
        return self.run(string)

    # -- transition monoid ---------------------------------------------------

    def transition_monoid(self, cap: int = DEFAULT_MONOID_CAP):
        """All distinct state transformations induced by strings (including
        the empty string), as tuples over state indices.  ``cap`` bounds the
        entries stored, that is elements times states.

        The search runs a layer at a time.  The frontier is a ``(k, n)`` int
        array of the transformations found last, and each letter's column
        ``g`` of ``delta`` composes with all of it in one gather,
        ``g[frontier]``, whose rows are checked against the elements seen so
        far.  The frontier is part of the monoid, so one gather holds at
        most ``k * n <= cap`` entries."""
        n = len(self.states)
        generators = np.array(self.delta, dtype=np.int64).T
        seen = {tuple(range(n))}
        frontier = np.arange(n)[None, :]
        while len(frontier):
            added = []
            for g in generators:
                for h in map(tuple, g[frontier].tolist()):
                    if h not in seen:
                        entries = (len(seen) + 1) * n
                        if entries > cap:
                            raise CapExceededError("transition monoid entries", entries, cap)
                        seen.add(h)
                        added.append(h)
            frontier = np.array(added, dtype=np.int64).reshape(-1, n)
        return seen

    def is_aperiodic(self, cap: int = DEFAULT_MONOID_CAP) -> bool:
        return is_aperiodic_monoid(self.transition_monoid(cap))


def is_aperiodic_monoid(monoid) -> bool:
    """True iff every transformation f in the monoid (a tuple over state
    indices) satisfies f^k = f^(k+1) for some k <= number of states, i.e. no
    string permutes a state subset nontrivially."""
    for f in monoid:
        power = f
        for _ in range(len(f)):
            nxt = tuple(f[p] for p in power)
            if nxt == power:
                break
            power = nxt
        else:
            return False
    return True


def packed_keys(columns, n_values: int) -> list[np.ndarray]:
    """Equal-shape int64 columns with entries in ``range(n_values)``, packed
    ``63 // bits`` to an int64 key, where ``bits`` is the width of
    ``n_values - 1``: two positions hold equal keys exactly where they hold
    equal columns.  ``columns`` may be a generator; it is read a key's worth
    at a time."""
    bits = max(1, (n_values - 1).bit_length())
    per_key = 63 // bits
    columns = iter(columns)
    keys = []
    for first in columns:
        key = first.copy()
        for column in itertools.islice(columns, per_key - 1):
            key <<= bits
            key |= column
        keys.append(key)
    return keys


def _row_classes(columns, n_values: int) -> tuple[np.ndarray, int]:
    """Dense class ids of the rows formed by equal-length int64 columns with
    entries in ``range(n_values)`` (equal rows share an id), and the number
    of classes: the columns' ``packed_keys`` sorted together."""
    keys = packed_keys(columns, n_values)
    order = np.lexsort(keys)
    boundary = np.zeros(len(order), dtype=bool)
    for key in keys:
        ranked = key[order]
        boundary[1:] |= ranked[1:] != ranked[:-1]
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(boundary)
    return ids, int(ids[order[-1]]) + 1


def int_rows(table: np.ndarray, n: int) -> list[list[int]]:
    """``table.tolist()`` for entries in ``range(n)``, with one int object
    per value: ``tolist`` alone makes a new one for every entry above 256."""
    return np.arange(n, dtype=object)[table].tolist()


def bfs_order(table: np.ndarray, start: int) -> np.ndarray:
    """The rows of an int table ``table[q, a]`` (the next state of ``q`` on
    letter ``a``) reachable from row ``start``, in breadth-first order.

    The search runs a layer at a time: a layer's new states are numbered by
    their first occurrence in (frontier order, letter order), which is the
    order a FIFO search with letters in column order discovers them in."""
    # per state: its first position in the layer being reached, or -1 once
    # an earlier layer holds it
    first = np.full(len(table), table.size, dtype=np.int64)
    first[start] = -1
    layers = [np.array([start], dtype=table.dtype)]
    while True:
        reached = table[layers[-1]].ravel()
        at = np.arange(len(reached))
        np.minimum.at(first, reached, at)
        frontier = reached[first[reached] == at]
        if not len(frontier):
            return np.concatenate(layers)
        first[frontier] = -1
        layers.append(frontier)


class EquivalenceResult(NamedTuple):
    equivalent: bool
    counterexample: tuple | None

    def __bool__(self) -> bool:
        return self.equivalent


class FlatAutomaton:
    """A semiautomaton plus an output function on (state, letter) pairs.

    ``alphabet`` is the concrete set of letters; ``factored`` optionally
    records coordinate structure for letters that are tuples.
    """

    def __init__(self, alphabet, states, transitions, initial, output_map,
                 outputs=None, factored: FactoredAlphabet | None = None):
        core = Semiautomaton(alphabet, states, transitions, initial)
        if outputs is None:
            outputs = sorted({output_map.get((q, a)) for q in core.states
                              for a in core.alphabet}, key=repr)
        code = {v: i for i, v in enumerate(outputs)}
        self._wrap(core, _table(output_map, core.states, core.alphabet, code, "output"),
                   outputs, factored)

    @classmethod
    def from_tables(cls, alphabet, states, delta, initial_index: int, out, outputs,
                    factored: FactoredAlphabet | None = None) -> "FlatAutomaton":
        """Wrap transition and output-code tables that are already valid."""
        return cls.__new__(cls)._wrap(
            Semiautomaton.from_tables(alphabet, states, delta, initial_index),
            out, outputs, factored)

    def _wrap(self, core: Semiautomaton, out, outputs, factored) -> "FlatAutomaton":
        self.core = core
        self.alphabet, self.states, self.initial = core.alphabet, core.states, core.initial
        self.letter_index, self.delta = core.letter_index, core.delta
        self.out = out
        self.outputs = tuple(outputs)
        self.factored = factored
        return self

    @cached_property
    def output_map(self):
        """Read-only ``(state, letter) -> output`` view of ``out``."""
        return MappingProxyType({
            (q, a): self.outputs[o]
            for q, row in zip(self.states, self.out) for a, o in zip(self.alphabet, row)
        })

    @property
    def n_states(self) -> int:
        return len(self.states)

    def output(self, state, letter):
        try:
            return self.outputs[self.out[self.core.state_index[state]][self.letter_index[letter]]]
        except KeyError:
            self.core._number(state)
            raise UnknownLetterError(letter, where="automaton output")

    def run(self, string):
        """Output on a non-empty string: the output function applied to the
        state reached after all but the last letter, with the last letter."""
        string = tuple(string)
        if len(string) == 0:
            raise EmptyInputError()
        return self.output(self.core.run(string[:-1]), string[-1])

    def __call__(self, string):
        return self.run(string)

    def is_aperiodic(self, cap: int = DEFAULT_MONOID_CAP) -> bool:
        return self.core.is_aperiodic(cap)

    # -- reachability and minimization ----------------------------------------

    def reachable_states(self):
        """Reachable states in BFS discovery order (letters in alphabet
        order), starting at the initial state."""
        order = bfs_order(np.array(self.delta, dtype=np.int64), self.core.initial_index)
        return [self.states[q] for q in order.tolist()]

    def restrict(self, letters) -> "FlatAutomaton":
        """Sub-automaton over a subset of the alphabet."""
        letters = tuple(letters)
        missing = [a for a in letters if a not in self.letter_index]
        if missing:
            raise UnknownLetterError(missing[0], where="restrict")
        cols = [self.letter_index[a] for a in letters]
        return FlatAutomaton.from_tables(
            letters, self.states, [[row[j] for j in cols] for row in self.delta],
            self.core.initial_index, [[row[j] for j in cols] for row in self.out],
            self.outputs)

    def minimize(self) -> "FlatAutomaton":
        """Smallest automaton implementing the same string function.

        Moore's partition refinement, restricted to reachable states: start
        from the classes of equal output rows, then split every class by the
        classes its letters lead to, until no class splits.  Each round finds
        the classes of the rows ``[block, block[delta]]`` by sorting them;
        the rows' columns are packed into a few int64 keys (as many block ids
        per key as fit in 63 bits), because ``np.lexsort`` over a few integer
        keys is an order of magnitude faster than sorting the rows as
        records.  The result is canonically relabelled 0..k-1 in BFS order.
        """
        delta = np.array(self.delta, dtype=np.int64)
        order = bfs_order(delta, self.core.initial_index)
        position = np.zeros(self.n_states, dtype=np.int64)
        position[order] = np.arange(len(order))
        delta = position[delta[order]]
        out_rows = np.array(self.out, dtype=np.int64)[order]
        by_letter = np.ascontiguousarray(delta.T)  # each letter's targets, contiguous
        block, n_blocks = _row_classes(np.ascontiguousarray(out_rows.T), len(self.outputs))
        while True:
            refined, n_refined = _row_classes([block, *block[by_letter]], n_blocks)
            if n_refined == n_blocks:  # no block split: stable
                break
            block, n_blocks = refined, n_refined
        # canonical ids by first occurrence in BFS order; the first member of
        # each block stands for it (all members have the same rows)
        _, first = np.unique(block, return_index=True)
        canonical = np.argsort(np.argsort(first))
        representatives = np.sort(first)
        new_delta = canonical[block[delta[representatives]]]
        return FlatAutomaton.from_tables(
            self.alphabet, range(len(representatives)),
            int_rows(new_delta, len(representatives)), 0,
            out_rows[representatives].tolist(), self.outputs, self.factored)

    # -- equivalence -----------------------------------------------------------

    def equivalent(self, other: "FlatAutomaton") -> EquivalenceResult:
        """Do both automata implement the same string function?

        Letters are paired in sorted order; a letter pairs with itself when
        both automata have the same letter set.  The pairs of states reachable
        on paired strings are searched breadth-first and their outputs
        compared per letter pair, so the check is exact and a counterexample
        (in this automaton's letters) is a shortest one.
        """
        mine = sorted(self.alphabet, key=repr)
        theirs = mine if set(mine) == set(other.alphabet) else sorted(other.alphabet, key=repr)
        if len(mine) != len(theirs):
            raise ValueError("alphabets differ in size; no letter pairing exists")
        letters = [(a, self.letter_index[a], other.letter_index[b]) for a, b in zip(mine, theirs)]
        start = (self.core.initial_index, other.core.initial_index)
        parent: dict = {start: None}
        queue = deque([start])
        while queue:
            pair = queue.popleft()
            qa, qb = pair
            for a, ia, ib in letters:
                if self.outputs[self.out[qa][ia]] != other.outputs[other.out[qb][ib]]:
                    # the letters leading here, read back from this pair
                    word, node = [a], pair
                    while parent[node] is not None:
                        node, letter = parent[node]
                        word.append(letter)
                    return EquivalenceResult(False, tuple(reversed(word)))
                nxt = (self.delta[qa][ia], other.delta[qb][ib])
                if nxt not in parent:
                    parent[nxt] = (pair, a)
                    queue.append(nxt)
        return EquivalenceResult(True, None)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "letters": [list(a) if isinstance(a, tuple) else a for a in self.alphabet],
            "states": [repr(q) for q in self.states],
            "initial": self.core.initial_index,
            "outputs": list(self.outputs),
            "transitions": [
                [q, i, t] for q, row in enumerate(self.delta) for i, t in enumerate(row)
            ],
            "output_rows": [
                [q, i, self.outputs[o]] for q, row in enumerate(self.out) for i, o in enumerate(row)
            ],
        }
        if self.factored is not None:
            data["alphabet"] = [
                {"name": c.name, "values": list(c.values)} for c in self.factored.coords
            ]
        return data

    @staticmethod
    def from_dict(data: dict) -> "FlatAutomaton":
        letters = tuple(
            tuple(a) if isinstance(a, list) else a for a in data["letters"]
        )
        n, k = len(data["states"]), len(letters)
        code = {v: i for i, v in enumerate(data["outputs"])}
        delta, out = [[None] * k for _ in range(n)], [[None] * k for _ in range(n)]
        for table, rows, value in ((delta, data["transitions"], lambda t: t),
                                   (out, data["output_rows"], code.get)):
            for row in rows:
                if not (isinstance(row, (list, tuple)) and len(row) == 3 and _is_index(row[0], n)
                        and _is_index(row[1], k)) or table[row[0]][row[1]] is not None:
                    raise ValueError(f"serialized automaton has a bad or repeated row {row!r}")
                q, i, v = row
                table[q][i] = value(v)
        if (not _is_index(data["initial"], n) or any(None in row for row in out)
                or not all(_is_index(t, n) for row in delta for t in row)):
            raise ValueError("serialized automaton is not total over its states and letters")
        factored = None
        if "alphabet" in data:
            factored = FactoredAlphabet.of(
                *((c["name"], tuple(c["values"])) for c in data["alphabet"])
            )
        return FlatAutomaton.from_tables(letters, range(n), delta, data["initial"], out,
                                         data["outputs"], factored)

    def to_dot(self) -> str:
        """GraphViz rendering; states get double circles when outputs are
        {0,1} and consistently mark the transition targets."""
        accepting = self._accepting_states() if set(self.outputs) <= {0, 1} else None
        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
        for i, q in enumerate(self.states):
            shape = "doublecircle" if accepting is not None and i in accepting else "circle"
            lines.append(f'  q{i} [shape={shape}, label="{q}"];')
        lines.append(f"  __start -> q{self.core.initial_index};")
        for i, (drow, orow) in enumerate(zip(self.delta, self.out)):
            for a, target, o in zip(self.alphabet, drow, orow):
                label = str(a)
                if accepting is None:
                    label += f" / {self.outputs[o]}"
                lines.append(f'  q{i} -> q{target} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def _accepting_states(self):
        """State numbers F such that output(q, a) == 1 iff the transition
        enters F, or None when no such labelling is consistent."""
        label: dict = {}
        for drow, orow in zip(self.delta, self.out):
            for target, o in zip(drow, orow):
                out = self.outputs[o]
                if label.setdefault(target, out) != out:
                    return None
        return {q for q, v in label.items() if v == 1}


class ComponentAutomaton:
    """An automaton over a factored alphabet that projects its input to a
    dependency set (``dependencies``, 1-based coordinate indices), maps the
    projection into a small internal alphabet, and transitions on the result.

    ``output_fn`` is a callable (state, projected letter) -> output, or one
    of the shorthands ``'state'`` (return the state unchanged) and
    ``'next_state'`` (return the transition target, i.e. the state the input
    letter leads to); ``theta`` is the resulting callable.
    """

    def __init__(self, alphabet: FactoredAlphabet, dependencies, input_fn,
                 core: Semiautomaton, output_fn="state", outputs=None,
                 name: str | None = None):
        self.alphabet = alphabet
        self.dependencies = Projection(alphabet.arity, tuple(dependencies))
        if self.dependencies.degree == 0:
            raise ValueError("a component must depend on at least one coordinate")
        self.projected = alphabet.project(self.dependencies.indices)
        self.input_fn = input_fn
        self.core = core
        self.name = name or "component"

        if callable(output_fn):
            self.theta = output_fn
        elif output_fn == "state":
            self.theta = lambda q, x: q
            outputs = core.states
        elif output_fn == "next_state":
            self.theta = lambda q, x: core.step(q, input_fn(x))
            outputs = core.states
        else:
            raise ValueError(f"unknown output_fn {output_fn!r}")
        self.output_kind = output_fn if isinstance(output_fn, str) else "table"
        self._compile(outputs)

    def _compile(self, outputs):
        """Fill ``next`` and ``out``, checking the functions' ranges.  A
        ``TableFunction`` over the projected alphabet is read, not called:
        its ``values`` are already in the order of ``projected.letters()``."""
        core, fn = self.core, self.input_fn
        if isinstance(fn, TableFunction) and fn.signature == self.projected:
            column = fn.values
        else:
            column = [fn(x) for x in self.projected.letters()]
        inputs = list(map(core.letter_index.get, column))
        if None in inputs:
            raise UnknownLetterError(column[inputs.index(None)],
                                     where=f"{self.name}: input function range")
        self.next = [[drow[a] for a in inputs] for drow in core.delta]
        if self.output_kind == "next_state":
            self.out = self.next
        elif self.output_kind == "state":
            self.out = [[q] * len(inputs) for q in range(core.n_states)]
        else:
            values = [[self.theta(q, x) for q in core.states] for x in self.projected.letters()]
            if outputs is None:
                outputs = sorted({v for column in values for v in column}, key=repr)
            code = {v: i for i, v in enumerate(outputs)}
            for v in (v for column in values for v in column if v not in code):
                raise UnknownLetterError(v, where=f"{self.name}: output function range")
            self.out = [[code[v] for v in row] for row in zip(*values)]
        self.outputs = tuple(outputs)

    def induce(self) -> FlatAutomaton:
        """The flat automaton over the full alphabet, on the core's states:
        a letter acts as its projection does in ``next`` and ``out``."""
        letters = tuple(self.alphabet.letters())
        xs = [self.projected.index(self.dependencies(a)) for a in letters]
        return FlatAutomaton.from_tables(
            letters, self.core.states, [[row[x] for x in xs] for row in self.next],
            self.core.initial_index, [[row[x] for x in xs] for row in self.out],
            self.outputs, self.alphabet)
