"""Semiautomata, flat automata, and components with projections.

Run semantics: a semiautomaton maps a string to the state reached from the
initial state; an automaton maps a non-empty string to the output of the
state reached after all but the last letter, paired with the last letter.
Instances are immutable after construction and all operations are pure.

Tables: states and letters are numbered by position in the ``states`` and
``alphabet`` label tuples.  Tables have one public form, read-only int64
arrays with one row per state: ``delta_array[q, a]`` is the next state's
number and a flat automaton's ``out_array[q, a]`` the position of its output
in ``outputs``.  A component's ``next_array[q, x]`` and ``out_array[q, x]``
are the next core state's number and the output code on the projected letter
numbered ``x`` in the order of ``projected.letters()``; for ``'next_state'``
outputs ``out_array`` is ``next_array`` itself.  Flattening, minimization,
equivalence, reachability, the transition monoid, serialization, ``to_dot``
and the prime checks read and write these arrays; so does a semiautomaton's
stepping.  A flat automaton's ``run`` and ``output`` read one private cache,
``_rows``, built on first use in the row form of a cascade's ``run`` memo.
Labels given as a function (as ``flatten`` and ``minimize`` give them) are
built on first read.  Constructors take ``(state, letter)``-keyed dicts, for
automata written by hand, and check them once.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import NamedTuple

import numpy as np

from .alphabets import FactoredAlphabet, Projection, TableFunction
from .errors import CapExceededError, CascataError, EmptyInputError, UnknownLetterError

#: The most entries a transition monoid may store: elements times states.
DEFAULT_MONOID_CAP = 100_000


def _table(mapping, states, alphabet, code: dict, what: str) -> list[list[int]]:
    """Rows of ``code[mapping[(q, a)]]``, checked to be total and in range."""
    for q, a in itertools.product(states, alphabet):
        if (q, a) not in mapping:
            raise ValueError(f"{what} missing for ({q!r}, {a!r})")
        if mapping[(q, a)] not in code:
            raise ValueError(f"{what} ({q!r}, {a!r}) -> {mapping[(q, a)]!r} is out of range")
    return [[code[mapping[(q, a)]] for a in alphabet] for q in states]


class _lazy_attribute:
    """A method whose value is built on first read and then set as a plain
    instance attribute of the same name.  Unlike ``functools.cached_property``
    it never touches the instance's ``__dict__``: materializing that dict
    slows every later attribute read of the instance, and scalar stepping
    reads these attributes on every call.  It builds the letter rows of flat
    automata (``_rows``), the table views of cascades (``Cascade._wiring``)
    and labels given as a function."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.build(instance)
        setattr(instance, self.name, value)
        return value


def _frozen(table) -> np.ndarray:
    """``table`` as a read-only int64 array: a view of it when it already is
    an int64 array, else a new array."""
    array = np.asarray(table, dtype=np.int64).view()
    array.setflags(write=False)
    return array


class Semiautomaton:
    """States plus a total transition function over a flat alphabet."""

    def __init__(self, alphabet, states, transitions, initial):
        self._label(alphabet, states, initial)
        self.delta_array = _frozen(_table(transitions, self.states, self.alphabet,
                                          self.state_index, "transition"))

    @classmethod
    def from_tables(cls, alphabet, states, delta, initial_index: int) -> "Semiautomaton":
        """Wrap a transition table that is already total and in range: any
        int table ``np.asarray`` reads, one row per state (an int64 array is
        kept, not copied).  ``states`` is the sequence of labels, or a
        function of no arguments returning distinct labels, which is called
        on the first read of ``states``, ``state_index`` or ``initial``."""
        self = cls.__new__(cls)
        self.delta_array = _frozen(delta)
        if callable(states):
            self._letters(alphabet)
            self._labels, self.initial_index = states, initial_index
        else:
            states = tuple(states)
            self._label(alphabet, states, states[initial_index])
        return self

    def _label(self, alphabet, states, initial):
        self.states = self._labels = states = tuple(states)
        self.state_index = {q: i for i, q in enumerate(states)}
        if len(self.state_index) != len(states) or not states:
            raise ValueError("states must be a non-empty duplicate-free sequence")
        self._letters(alphabet)
        if initial not in self.state_index:
            raise ValueError(f"initial state {initial!r} not among states")
        self.initial, self.initial_index = initial, self.state_index[initial]

    def _letters(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.letter_index = {a: i for i, a in enumerate(self.alphabet)}
        if len(self.letter_index) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be a non-empty duplicate-free sequence")

    def state_labels(self):
        """The labels: ``states`` once built, until then what the labels
        function returns, which is not kept."""
        return self._labels() if callable(self._labels) else self._labels

    @_lazy_attribute
    def states(self) -> tuple:
        self._labels = tuple(self.state_labels())
        return self._labels

    @_lazy_attribute
    def state_index(self) -> dict:
        return {q: i for i, q in enumerate(self.states)}

    @_lazy_attribute
    def initial(self):
        return self.states[self.initial_index]

    @property
    def n_states(self) -> int:
        return len(self.delta_array)

    def _number(self, state, what: str = "state") -> int:
        """The state's position in ``states``; a ``ValueError`` naming it
        when it is not a state."""
        try:
            return self.state_index[state]
        except (KeyError, TypeError):  # not a state, or not hashable
            raise ValueError(f"{what} {state!r} not among states") from None

    def step(self, state, letter):
        try:
            return self.states[self.delta_array.item(self.state_index[state],
                                                     self.letter_index[letter])]
        except (KeyError, TypeError):  # not known, or not hashable
            self._number(state)
            raise UnknownLetterError(letter, where="semiautomaton") from None

    def run(self, string, start=None):
        """State reached from ``start`` (default: initial) on the string;
        the empty string returns the start state unchanged."""
        return self.states[self._walk(string, start)]

    def _walk(self, string, start=None) -> int:
        """The number of the state ``run`` reaches."""
        q = self.initial_index if start is None else self._number(start, "start state")
        item, index = self.delta_array.item, self.letter_index
        try:
            for i, a in enumerate(string):
                q = item(q, index[a])
        except (KeyError, TypeError):  # not known, or not hashable
            raise UnknownLetterError(a, position=i, where="semiautomaton") from None
        return q

    __call__ = run

    # -- transition monoid ---------------------------------------------------

    def transition_monoid(self, cap: int = DEFAULT_MONOID_CAP):
        """All distinct state transformations induced by strings (including
        the empty string), as tuples over state indices.  ``cap`` bounds the
        entries stored, that is elements times states.

        The search runs a layer at a time, on rows of the narrowest unsigned
        dtype that holds ``n - 1``.  The frontier is a ``(k, n)`` index
        array of the transformations found last, and each letter's column
        ``g`` of ``delta`` composes with all of it in one gather,
        ``g[frontier]``.  Each gathered row is read as one ``bytes`` key.
        The keys not seen before are deduplicated in first-occurrence order
        (a dict, not a set, so the order does not depend on string hashing),
        added to the elements seen and appended to the next frontier.  The
        cap is checked once per gather, before its new rows are added, and
        raises what adding them one at a time would: the size of the first
        element past the cap.  The frontier is part of the monoid, so one
        gather holds at most ``k * n <= cap`` entries.  Each element becomes
        an int tuple once, when its layer is the frontier."""
        n = self.n_states
        dtype = np.min_scalar_type(n - 1)
        generators = np.ascontiguousarray(self.delta_array.T, dtype=dtype)
        row = np.dtype((np.void, n * dtype.itemsize))
        limit = max(cap // n, 1)  # the identity is stored whatever the cap
        seen, monoid = {np.arange(n, dtype=dtype).tobytes()}, set()
        frontier = np.arange(n)[None, :]
        while len(frontier):
            monoid.update(map(tuple, frontier.tolist()))
            added = []
            for g in generators:
                keys = g[frontier].view(row).reshape(-1).tolist()
                new = dict.fromkeys(itertools.filterfalse(seen.__contains__, keys))
                if len(seen) + len(new) > limit:
                    raise CapExceededError("transition monoid entries", (limit + 1) * n, cap)
                seen.update(new)
                added += new
            # index with intp: a narrow index array is converted on every gather
            frontier = np.frombuffer(b"".join(added), dtype=dtype).reshape(-1, n).astype(np.intp)
        return monoid

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
    return ids, int(ids[order[-1]]) + 1 if len(order) else 0


def _value_starts(ranked: np.ndarray) -> np.ndarray:
    """A mask of the places where a sorted int array ``ranked`` starts a new value."""
    starts = np.empty(len(ranked), dtype=bool)
    starts[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=starts[1:])
    return starts


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


def encode_strings(strings) -> tuple[list, np.ndarray, np.ndarray]:
    """Strings given as tuples of letters in the form ``letter_table`` and
    ``run_many`` take: their letters by first occurrence (letters that
    compare equal are one), every string's letters in order as positions
    among those, and each string's length.  An unhashable letter raises
    ``TypeError``."""
    numbering: dict = {}
    codes = [numbering.setdefault(a, len(numbering)) for s in strings for a in s]
    lengths = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    return list(numbering), np.array(codes, dtype=np.intp), lengths


def letter_table(letters, codes, lengths, encode, width: int, run) -> np.ndarray:
    """The ``width`` codes that ``encode`` gives each of ``letters``, as the
    rows of an int array, for running strings given as letter codes into
    ``letters`` (``codes``, every string's letters in order) and
    ``lengths``.  A letter that ``encode`` rejects gets a row of zeros.  The
    first string, in order, that is empty or holds a rejected letter is
    passed to ``run``, which raises its error on it."""
    rows, rejected = [], np.zeros(len(letters), dtype=bool)
    for i, a in enumerate(letters):
        try:
            rows.append(encode(a))
        except (CascataError, LookupError, TypeError):
            rows.append([0] * width)
            rejected[i] = True
    offending = lengths < 1
    if rejected.any() or offending.any():
        ends = np.cumsum(lengths)
        offending[np.searchsorted(ends, np.flatnonzero(rejected[codes]), "right")] = True
        if offending.any():
            s = int(offending.argmax())
            run(tuple(letters[c] for c in codes[ends[s] - lengths[s]:ends[s]].tolist()))
    return np.array(rows, dtype=np.intp).reshape(len(letters), width)


def letter_positions(lengths: np.ndarray):
    """Where the letters of strings with ``lengths`` sit in an array of
    every string's letters in order (as in ``letter_table``), position by
    position, for stepping the strings together.  Per position it yields
    the indices of the letters there of the strings still running, longer
    strings first (so those still running at the next position are a
    prefix), and the numbers of the strings whose last letter it is, which
    are the last ones.  The lengths are sorted as ``top - lengths`` in the
    narrowest dtype that holds ``top``, their maximum, which numpy sorts by
    radix at 16 bits or fewer."""
    top = lengths.max(initial=0)
    order = np.argsort((top - lengths).astype(np.min_scalar_type(top)), kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    # how many strings are longer than t, for t = 0..max(lengths)
    running = (len(lengths) - np.cumsum(np.bincount(lengths))).tolist()
    for t in range(len(running) - 1):
        yield starts[:running[t]] + t, order[running[t + 1]:running[t]]


def run_tables(delta: np.ndarray, out: np.ndarray, initial: int, columns: np.ndarray,
               lengths: np.ndarray) -> np.ndarray:
    """The output codes of strings stepped together on the int tables
    ``delta[q, a]`` (next state) and ``out[q, a]`` (output code) from state
    ``initial``: the strings are given as ``columns``, every string's letters
    in order as column numbers, and their ``lengths``.  Each position costs
    one multiply-add and two gathers (``letter_positions``)."""
    k, delta, out = delta.shape[1], delta.ravel(), out.ravel()
    q = np.full(len(lengths), initial, dtype=np.intp)
    outputs = np.empty(len(lengths), dtype=np.intp)
    for index, ending in letter_positions(lengths):
        x = q[:len(index)] * k + columns[index]
        q = delta[x]
        outputs[ending] = out[x[len(x) - len(ending):]]
    return outputs


def _dot_text(value) -> str:
    """``str(value)`` escaped to sit inside a DOT double-quoted string."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


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
        self.alphabet, self.letter_index = core.alphabet, core.letter_index
        self.delta_array, self.out_array = core.delta_array, _frozen(out)
        self.outputs = tuple(outputs)
        self.factored = factored
        return self

    @property
    def states(self) -> tuple:
        return self.core.states

    @property
    def initial(self):
        return self.core.initial

    @_lazy_attribute
    def _rows(self) -> list[dict]:
        """Per state, a dict letter -> (next state, output code), one tuple per pair."""
        shared = {}
        return [dict(zip(self.alphabet, [shared.setdefault(p, p) for p in zip(*row)]))
                for row in zip(self.delta_array.tolist(), self.out_array.tolist())]

    @property
    def n_states(self) -> int:
        return self.core.n_states

    def output(self, state, letter):
        try:
            return self.outputs[self._rows[self.core.state_index[state]][letter][1]]
        except (KeyError, TypeError):  # not known, or not hashable
            self.core._number(state)
            raise UnknownLetterError(letter, where="automaton output") from None

    def run(self, string):
        """Output on a non-empty string: the output function applied to the
        state reached after all but the last letter, with the last letter."""
        string = tuple(string)
        if not string:
            raise EmptyInputError()
        rows, q = self._rows, self.core.initial_index
        try:
            for a in string:
                q, out = rows[q][a]
        except (KeyError, TypeError):
            self.core._walk(string[:-1])  # names an unknown letter before the last
            raise UnknownLetterError(string[-1], where="automaton output") from None
        return self.outputs[out]

    __call__ = run

    def run_many(self, letters, codes, lengths) -> np.ndarray:
        """``run`` on many strings at once: the strings are given as letter
        codes into ``letters`` (``codes``, every string's letters in order)
        and their ``lengths``, and each one's output code, its position in
        ``outputs``, comes back.  They are stepped together on
        ``delta_array`` and ``out_array`` (``run_tables``).  The first string
        that ``run`` would reject is passed to it, which raises its error."""
        table = letter_table(letters, codes, lengths, lambda a: [self.letter_index[a]], 1,
                             self.run)
        return run_tables(self.delta_array, self.out_array, self.core.initial_index,
                          table[codes, 0], lengths)

    def is_aperiodic(self, cap: int = DEFAULT_MONOID_CAP) -> bool:
        return self.core.is_aperiodic(cap)

    # -- reachability and minimization ----------------------------------------

    def restrict(self, letters) -> "FlatAutomaton":
        """Sub-automaton over a subset of the alphabet."""
        letters = tuple(letters)
        missing = [a for a in letters if a not in self.letter_index]
        if missing:
            raise UnknownLetterError(missing[0], where="restrict")
        cols = [self.letter_index[a] for a in letters]
        return FlatAutomaton.from_tables(
            letters, self.states, self.delta_array[:, cols], self.core.initial_index,
            self.out_array[:, cols], self.outputs)

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
        order = bfs_order(self.delta_array, self.core.initial_index)
        position = np.zeros(self.n_states, dtype=np.int64)
        position[order] = np.arange(len(order))
        delta = position[self.delta_array[order]]
        out_rows = self.out_array[order]
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
        return FlatAutomaton.from_tables(
            self.alphabet, partial(range, len(representatives)),
            canonical[block[delta[representatives]]], 0, out_rows[representatives],
            self.outputs, self.factored)

    # -- equivalence -----------------------------------------------------------

    def equivalent(self, other: "FlatAutomaton") -> EquivalenceResult:
        """Do both automata implement the same string function?

        Letters are paired in sorted order; a letter pairs with itself when
        both automata have the same letter set.  The pairs of states reachable
        on paired strings are searched breadth-first and their outputs
        compared per letter pair, so the check is exact and a counterexample
        (in this automaton's letters) is a shortest one.

        The search runs a layer at a time over pair codes ``qa * n_b + qb``.
        Each state has one table row: its output codes, then its successor
        codes, per letter pair, scaled so that a pair's row is the sum of its
        states' rows.  New pairs are numbered by first occurrence in (frontier
        order, letter order), as a FIFO search meets them, so the first
        mismatch found and its counterexample are the FIFO search's.  Output
        values are compared with ``!=`` only for the output pairs the search
        meets.
        """
        mine = sorted(self.alphabet, key=repr)
        theirs = mine if set(mine) == set(other.alphabet) else sorted(other.alphabet, key=repr)
        if len(mine) != len(theirs):
            raise ValueError("alphabets differ in size; no letter pairing exists")
        cols_a = [self.letter_index[a] for a in mine]
        cols_b = [other.letter_index[b] for b in theirs]
        n_b, k, n_out = other.n_states, len(mine), len(other.outputs)
        rows_a = np.hstack([self.out_array[:, cols_a] * n_out, self.delta_array[:, cols_a] * n_b])
        rows_b = np.hstack([other.out_array[:, cols_b], other.delta_array[:, cols_b]])

        def step(frontier):  # the layer's output pair codes and successor codes
            qa, qb = np.divmod(frontier, n_b)
            pair_rows = rows_a[qa] + rows_b[qb]
            return pair_rows[:, :k].ravel(), pair_rows[:, k:].ravel()

        differs = {}  # output pair code -> do the two outputs differ
        start = self.core.initial_index * n_b + other.core.initial_index
        seen, layers = {start}, [np.array([start])]
        while True:
            met, reached = step(layers[-1])
            ranked = np.sort(met)
            met_codes = ranked[_value_starts(ranked)].tolist()
            for code in met_codes:
                if code not in differs:
                    u, v = divmod(code, n_out)
                    differs[code] = self.outputs[u] != other.outputs[v]
            mismatched = [code for code in met_codes if differs[code]]
            if mismatched:
                at = int(np.isin(met, mismatched).argmax())
                word, code = [mine[at % k]], layers[-1][at // k]
                for frontier in reversed(layers[:-1]):  # where each pair was first met
                    at = int((step(frontier)[1] == code).argmax())
                    word.append(mine[at % k])
                    code = frontier[at // k]
                return EquivalenceResult(False, tuple(reversed(word)))
            order = reached.argsort(kind="stable")
            first = order[_value_starts(reached[order])]
            first.sort()  # each successor once, in order of first occurrence
            new = list(itertools.filterfalse(seen.__contains__, reached[first].tolist()))
            if not new:
                return EquivalenceResult(True, None)
            seen.update(new)
            layers.append(np.array(new))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        n, k = self.delta_array.shape
        state, letter = np.arange(n).repeat(k).tolist(), np.tile(np.arange(k), n).tolist()
        data = {
            "letters": [list(a) if isinstance(a, tuple) else a for a in self.alphabet],
            "states": [repr(q) for q in self.core.state_labels()],
            "initial": self.core.initial_index,
            "outputs": list(self.outputs),
            "transitions": list(zip(state, letter, self.delta_array.ravel().tolist())),
            "output_rows": list(zip(state, letter, map(self.outputs.__getitem__,
                                                       self.out_array.ravel().tolist()))),
        }
        if self.factored is not None:
            data["alphabet"] = [
                {"name": c.name, "values": list(c.values)} for c in self.factored.coords
            ]
        return data

    def to_dot(self) -> str:
        """GraphViz rendering; states get double circles when outputs are
        {0,1} and consistently mark the transition targets."""
        accepting = self._accepting_states() if set(self.outputs) <= {0, 1} else None
        lines = ["digraph automaton {", "  rankdir=LR;", '  __start [shape=point, label=""];']
        for i, q in enumerate(self.core.state_labels()):
            shape = "doublecircle" if accepting is not None and i in accepting else "circle"
            lines.append(f'  q{i} [shape={shape}, label="{_dot_text(q)}"];')
        lines.append(f"  __start -> q{self.core.initial_index};")
        for i, (drow, orow) in enumerate(zip(self.delta_array.tolist(), self.out_array.tolist())):
            for a, target, o in zip(self.alphabet, drow, orow):
                label = a if accepting is not None else f"{a} / {self.outputs[o]}"
                lines.append(f'  q{i} -> q{target} [label="{_dot_text(label)}"];')
        lines.append("}")
        return "\n".join(lines)

    def _accepting_states(self):
        """State numbers F such that output(q, a) == 1 iff the transition
        enters F, or None when no such labelling is consistent."""
        label: dict = {}
        for target, o in zip(self.delta_array.ravel().tolist(), self.out_array.ravel().tolist()):
            out = self.outputs[o]
            if label.setdefault(target, out) != out:
                return None
        return {q for q, v in label.items() if v == 1}


def output_values(output_fn, core: Semiautomaton, outputs=None):
    """The values a component's outputs are drawn from: its core's states
    under the shorthands ``'state'`` and ``'next_state'``, else ``outputs``
    (``None`` when they are left to be found).  An ``output_fn`` that is
    neither a shorthand nor a callable is a ``ValueError``."""
    if callable(output_fn):
        return outputs
    if output_fn in ("state", "next_state"):
        return core.states
    raise ValueError(f"unknown output_fn {output_fn!r}")


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
        # what a cascade steps this component by (``cascade._wired``), shared
        # by every cascade holding it
        self._wiring = None

        outputs = output_values(output_fn, core, outputs)
        self.output_kind = "table" if callable(output_fn) else output_fn
        if self.output_kind == "table":
            self.theta = output_fn
        elif self.output_kind == "state":
            self.theta = lambda q, x: q
        else:
            self.theta = lambda q, x: core.step(q, input_fn(x))
        self._compile(outputs)

    def _compile(self, outputs):
        """Fill ``next_array`` and ``out_array``, checking the functions'
        ranges.  A ``TableFunction`` over the projected alphabet is read,
        not called: its ``values`` are already in the order of
        ``projected.letters()``."""
        core, fn = self.core, self.input_fn
        if isinstance(fn, TableFunction) and fn.signature == self.projected:
            column = fn.values
        else:
            column = [fn(x) for x in self.projected.letters()]
        inputs = list(map(core.letter_index.get, column))
        if None in inputs:
            raise UnknownLetterError(column[inputs.index(None)],
                                     where=f"{self.name}: input function range")
        self.next_array = _frozen(core.delta_array.take(inputs, axis=1))
        if self.output_kind == "next_state":
            self.out_array = self.next_array
        elif self.output_kind == "state":
            n, k = self.next_array.shape
            self.out_array = _frozen(np.arange(n).repeat(k).reshape(n, k))
        else:
            values = [[self.theta(q, x) for q in core.states] for x in self.projected.letters()]
            if outputs is None:
                outputs = sorted({v for column in values for v in column}, key=repr)
            code = {v: i for i, v in enumerate(outputs)}
            for v in (v for column in values for v in column if v not in code):
                raise UnknownLetterError(v, where=f"{self.name}: output function range")
            self.out_array = _frozen([[code[v] for v in row] for row in zip(*values)])
        self.outputs = tuple(outputs)

    def induce(self) -> FlatAutomaton:
        """The flat automaton over the full alphabet, on the core's states:
        a letter acts as its projection does in ``next_array`` and
        ``out_array``."""
        letters = tuple(self.alphabet.letters())
        xs = [self.projected.index(self.dependencies(a)) for a in letters]
        return FlatAutomaton.from_tables(
            letters, self.core.states, self.next_array[:, xs], self.core.initial_index,
            self.out_array[:, xs], self.outputs, self.alphabet)
