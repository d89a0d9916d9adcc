"""Cascade composition: stepping, flattening and enumerable classes of
cascades.

Component i reads the external input extended by the outputs of components
1..i-1, so its input alphabet must be the previous component's alphabet plus
one coordinate listing that component's outputs in the producer's order
(``chain_alphabet``).  Within one step every component sees the pre-update
states of all others; transitions are then applied simultaneously.  A
cascade is immutable once built.

Stepping takes three forms, each explained where it is written: the scalar
``Cascade._advance``, behind ``step`` and ``run`` (whose memo
``Cascade._memoize`` fills); the broadcast pass ``Cascade._product_tables``,
behind ``flatten``; and the level kernel ``_step_levels``, behind
``stacked_output_matrix`` and ``Cascade.run_many``.  All three read the
components' wirings (``_Wiring``, shared through ``_wired``).  A
``CascadeClass`` builds each part's components once per class
(``CascadeClass._component``) and assembles its members from them, indexed
or iterated, so every member shares the components and their wirings; the
certification searches read a class through ``complexity.class_outputs``.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import cached_property, partial
from typing import Iterator, NamedTuple

import numpy as np

from .alphabets import FactoredAlphabet, Letter, NumberedClass, mixed_radix_digits
from .automata import (ComponentAutomaton, FlatAutomaton, Semiautomaton, _frozen,
                       _lazy_attribute, bfs_order, encode_strings, letter_positions,
                       letter_table, output_values, run_tables)
from .complexity import ClassDescriptor, ClassOutputs, ComponentClassSpec
from .errors import CapExceededError, EmptyInputError

DEFAULT_PRODUCT_CAP = 1_000_000
#: The most entries (product states times external letters) the tables of
#: ``flatten`` may hold, whatever its ``cap``.  An entry costs about 28
#: bytes at the peak (the 5.7 million of the modulus-62 counter add 153 MB
#: of max RSS), so the largest allowed flatten stays under 250 MB.
FLATTEN_TABLE_CAP = 1 << 23
#: The most product transitions one cascade's ``run`` memo holds (about
#: 150 bytes each); past it, ``run`` steps unrecorded transitions through
#: ``_advance`` and records nothing more.
RUN_MEMO_CAP = 1 << 18

CascadeState = tuple


class StepResult(NamedTuple):
    state: CascadeState
    output: object
    component_outputs: tuple


class _Wiring:
    """What stepping ``comp`` in a cascade reads: ``next_array`` and
    ``out_array`` flattened, indexed ``q * k + x``; ``k``, its projected
    letter count; and per dependency, (coordinate, code -> the code's share
    of the projected letter's index).  A chained coordinate lists the
    outputs it holds in their code order, so its codes are output codes.
    The arrays are C-contiguous, so flattening them copies nothing."""

    def __init__(self, comp: ComponentAutomaton):
        self.next_array = comp.next_array.reshape(-1)
        self.out_array = comp.out_array.reshape(-1)
        self.k = comp.next_array.shape[1]
        self.inputs = tuple((j - 1, list(place.values()))
                            for j, place in zip(comp.dependencies.indices, comp.projected.places))
        # per coordinate, how many codes it takes
        self.widths = tuple(len(c.values) for c in comp.alphabet.coords)

    @_lazy_attribute
    def views(self) -> tuple:
        """What ``_advance`` reads: the arrays as views, read as Python
        ints, which copy nothing."""
        return memoryview(self.next_array), memoryview(self.out_array), self.k, self.inputs

    @_lazy_attribute
    def laid(self) -> tuple[np.ndarray, list]:
        """What the vectorized forms read: every coordinate's contributions
        as one int array, laid end to end, zeros for a coordinate not read,
        and where each coordinate's begin."""
        read, flat, starts = dict(self.inputs), [], []
        for j, width in enumerate(self.widths):
            starts.append(len(flat))
            flat += read.get(j) or [0] * width
        return np.array(flat, dtype=np.intp), starts


def _wired(comp: ComponentAutomaton) -> _Wiring:
    """``comp``'s wiring, built once however many cascades hold it."""
    if comp._wiring is None:
        comp._wiring = _Wiring(comp)
    return comp._wiring


class Cascade:
    """A chain of components: each reads the alphabet of the one before it,
    extended by that one's outputs in the producer's order
    (``chain_alphabet``)."""

    def __init__(self, components):
        self.components = tuple(components)
        if not self.components:
            raise ValueError("a cascade needs at least one component")
        self.external = self.components[0].alphabet
        for i, (prev, comp) in enumerate(zip(self.components, self.components[1:]), 1):
            if comp.alphabet.coords[:-1] != prev.alphabet.coords:
                raise ValueError(f"component {i + 1} ({comp.name}) does not extend the "
                                 f"alphabet of component {i}")
            extra = comp.alphabet.coords[-1]
            if tuple(extra.values) != prev.outputs:
                raise ValueError(
                    f"coordinate {extra.name!r} of component {i + 1} ({comp.name}) "
                    f"lists {extra.values!r}, not the outputs of component {i} in its "
                    f"order {prev.outputs!r}; build the alphabet with chain_alphabet "
                    f"or build_chained")
        # run's memo: product states (tuples of state numbers) numbered in the
        # order run reaches them, and per number a dict letter -> (next
        # number, last component's output code)
        initial = tuple(c.core.initial_index for c in self.components)
        self._numbers, self._product, self._memo = {initial: 0}, [initial], [{}]
        self._memo_size = 0
        self._memo_lock = threading.Lock()

    @_lazy_attribute
    def _wiring(self) -> tuple:
        """Per component, what ``_advance`` reads: its wiring's ``views``."""
        return tuple(_wired(comp).views for comp in self.components)

    @_lazy_attribute
    def _levels(self) -> list:
        """What ``run_many`` steps past its table rule: the cascade's own
        levels for the level kernel (``_step_levels``), one row each."""
        return _stacked_levels([self])[0]

    @property
    def depth(self) -> int:
        return len(self.components)

    @property
    def outputs(self) -> tuple:
        """The last component's output values, which ``run`` returns."""
        return self.components[-1].outputs

    def initial_state(self) -> CascadeState:
        """The state ``step`` starts from: each component's initial state."""
        return tuple(c.core.initial for c in self.components)

    def _advance(self, states: tuple, codes: list) -> tuple:
        """Next state numbers from state numbers ``states`` on the letter
        with external coordinate codes ``codes``, to which every component's
        output code (from its pre-update state) is appended, reading the
        wirings' ``views``.  Stepping one product state at a time stays
        beside the array forms: on a 2-CPU host ``flatten`` pays about 80 us
        for a d=2 family member's whole product, where a cold ``run`` over
        its 6 strings takes about 36 us, and this step fills ``run``'s memo
        for products past the flatten caps."""
        nxt = []
        for q, (next_view, out_view, k, inputs) in zip(states, self._wiring):
            x = q * k
            for j, contribution in inputs:
                x += contribution[codes[j]]
            nxt.append(next_view[x])
            codes.append(out_view[x])
        return tuple(nxt)

    def step(self, states: CascadeState, letter: Letter) -> StepResult:
        codes = self.external.encode(letter, "cascade input")
        try:
            numbers = tuple(c.core.state_index[q]
                            for c, q in zip(self.components, states, strict=True))
        except (KeyError, TypeError, ValueError):  # a bad entry, no sequence, a bad length
            raise ValueError(f"{states!r} is not a state of the cascade") from None
        nxt = self._advance(numbers, codes)
        outs = tuple(c.outputs[o] for c, o in zip(self.components, codes[self.external.arity:]))
        new_states = tuple(c.core.states[q] for c, q in zip(self.components, nxt))
        return StepResult(new_states, outs[-1], outs)

    def run(self, string):
        string = tuple(string)
        if not string:
            raise EmptyInputError("cascade run")
        memo, q, letters = self._memo, 0, iter(string)
        for letter in letters:
            try:
                q, out = memo[q][letter]
            except (KeyError, TypeError):  # not recorded yet, or not a letter
                q, out = self._memoize(q, letter)
                if isinstance(q, tuple):  # the memo is full: step on unrecorded
                    encode, advance = self.external.encode, self._advance
                    for letter in letters:
                        codes = encode(letter, "cascade input")
                        q, out = advance(q, codes), codes[-1]
                    break
        return self.components[-1].outputs[out]

    def _memoize(self, q: int, letter):
        """Step product state number ``q`` on ``letter`` and record the
        transition in ``run``'s memo while it holds fewer than
        ``RUN_MEMO_CAP``.  Returns the next state's number and the output
        code; once the memo is full, an unnumbered next state comes back as
        its tuple of component state numbers.  ``run`` reuses what is
        recorded on later calls; recording is done under a lock, so one
        cascade may be run from several threads."""
        codes = self.external.encode(letter, "cascade input")
        nxt, out = self._advance(self._product[q], codes), codes[-1]
        with self._memo_lock:
            number = self._numbers.get(nxt)
            if self._memo_size >= RUN_MEMO_CAP:
                return (nxt if number is None else number), out
            if number is None:
                number = self._numbers[nxt] = len(self._product)
                self._product.append(nxt)
                self._memo.append({})
            # published last: a reader that finds it finds row ``number`` too
            row = self._memo[q]
            if letter not in row:  # another thread may have recorded it meanwhile
                row[letter] = number, out
                self._memo_size += 1
        return number, out

    __call__ = run

    def run_many(self, letters, codes, lengths) -> np.ndarray:
        """``run`` on many strings at once, given and answered as in
        ``FlatAutomaton.run_many``; the memo is neither read nor filled.

        When the product's table over ``letters`` has no more entries than
        the strings have letters, it is built (``_product_tables``) and the
        strings are stepped on it as a flat automaton steps them
        (``run_tables``), one multiply-add and two gathers per position.
        Otherwise its one member is stepped through the level kernel
        (``_step_levels``), as ``stacked_output_matrix`` steps a class's:
        its levels are built on first use and kept, and only their
        per-letter contributions are computed per call.  Either way the work
        is at most strings times letters times components, whatever the
        product's size."""
        table = letter_table(letters, codes, lengths, self.external.encode,
                             self.external.arity, self.run)
        if self.product_size() * len(letters) <= len(codes):
            return run_tables(*self._product_tables(table), codes, lengths)
        levels = self._levels
        return _step_levels(levels, [level.per_letter(table) for level in levels],
                            codes, lengths).reshape(-1)

    def _product_tables(self, letter_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """The product's transition and output-code tables, product states
        by letters, over the letters whose external coordinate codes are the
        rows of ``letter_codes``, and the initial state's code.

        A product state is coded in mixed radix over its component state
        numbers, last component fastest.  One broadcast pass gathers every
        component's ``next_array``/``out_array`` over all codes and letters
        at once, each on the axes of the product it depends on."""
        radices, n_letters = [c.core.n_states for c in self.components], len(letter_codes)
        shape = (*radices, n_letters)

        def along(values, axis):  # a 1-D array laid along one axis of ``shape``
            return np.asarray(values).reshape([-1 if i == axis else 1 for i in range(len(shape))])

        codes = [along(column, len(radices)) for column in letter_codes.T]
        table, init = 0, 0
        for i, (r, comp) in enumerate(zip(radices, self.components)):
            wiring = _wired(comp)
            (contributions, starts), x = wiring.laid, along(np.arange(r) * wiring.k, i)
            for j, _ in wiring.inputs:
                x = x + contributions[starts[j]:][codes[j]]
            codes.append(wiring.out_array[x])
            table = table * r + wiring.next_array[x]
            init = init * r + comp.core.initial_index
        out = np.empty(shape, dtype=np.int64)
        out[...] = codes.pop()  # the last output may not depend on every axis
        # every component's digit is an axis of ``table``, and the first
        # component reads the letter
        size = math.prod(radices)
        return table.reshape(size, n_letters), out.reshape(size, n_letters), init

    def product_size(self) -> int:
        return math.prod(c.core.n_states for c in self.components)

    def flatten(self, cap: int = DEFAULT_PRODUCT_CAP, prune: bool = True) -> FlatAutomaton:
        """The single product automaton the cascade denotes, over the
        external alphabet.  ``prune`` keeps reachable product states only;
        ``cap`` bounds the product's states and the external letters alike,
        and ``FLATTEN_TABLE_CAP`` their product, the entries of each table.

        The tables are ``_product_tables`` over every external letter.  With
        ``prune`` the states are numbered by ``bfs_order`` from the initial
        code: each layer's new codes by first occurrence in (frontier order,
        letter order), as a FIFO search numbers them.  Without, a state's
        number is its code.  The tables are handed over as arrays; the
        state labels, tuples of component states, are built on first read."""
        size = self.product_size()
        if size > cap:
            raise CapExceededError("cascade product", size, cap)
        if self.external.n_letters > cap:
            raise CapExceededError("cascade alphabet", self.external.n_letters, cap)
        entries = size * self.external.n_letters
        if entries > FLATTEN_TABLE_CAP:
            raise CapExceededError("cascade table entries", entries, FLATTEN_TABLE_CAP)
        letters = tuple(self.external.letters())
        table, out, init = self._product_tables(
            np.array([self.external.encode(a) for a in letters], dtype=np.int64))
        if prune:
            order = bfs_order(table, init)
            number = np.empty(size, dtype=np.int64)  # read at reachable codes only
            number[order] = np.arange(len(order))
            table, out, init = number[table[order]], out[order], 0
        else:
            order = np.arange(size)
        labels = partial(_product_labels, tuple(c.core for c in self.components), order)
        return FlatAutomaton.from_tables(letters, labels, table, init, out,
                                         self.components[-1].outputs, self.external)

    def is_simple(self) -> bool:
        """True when every non-final component's output function returns the
        current state, checked extensionally."""
        return all(comp.outputs[o] == q for comp in self.components[:-1]
                   for q, row in zip(comp.core.states, comp.out_array.tolist()) for o in row)


def _product_labels(cores, codes: np.ndarray) -> list[tuple]:
    """The product states coded ``codes`` over ``cores``' state counts, as
    tuples of core states."""
    digits = []
    for core in reversed(cores):
        codes, digit = np.divmod(codes, core.n_states)
        digits.append(map(core.states.__getitem__, digit.tolist()))
    return list(zip(*reversed(digits)))


def _automaton(fn):
    """The automaton that calling ``fn`` runs, when ``fn`` is a ``Cascade``
    or a ``FlatAutomaton`` or its bound ``run`` (which its ``__call__``
    is); otherwise None, for subclasses too, which may override ``run``.
    Sampling, risk estimates and the certification searches step ``fn``'s
    arrays instead of calling it exactly when this finds an automaton."""
    if type(fn) is Cascade or type(fn) is FlatAutomaton:  # the common case, decided at once
        return fn
    owner = getattr(fn, "__self__", None)
    if (type(owner) is Cascade or type(owner) is FlatAutomaton) and fn == owner.run:
        return owner
    return None


class _Level(NamedTuple):
    """One level of the level kernel (``_step_levels``).  A row is a
    distinct component prefix, held as its state number q, and reads entry
    ``q * k`` plus its input's index and its wiring's offset of the
    wirings' tables laid end to end (a level of one wiring reads that
    wiring's own).  Per row: ``k``, wiring, initial state.  Per wiring:
    offset, and where its external coordinates' contributions begin in
    ``contributions``, the wirings' ``laid`` end to end.  ``chained`` holds
    per chained coordinate read here the level whose outputs it holds, per
    row where its contributions begin, and per row its ancestor row at that
    level."""

    next_array: np.ndarray
    out_array: np.ndarray
    k: np.ndarray
    wiring: np.ndarray
    initial: np.ndarray
    offsets: np.ndarray
    external: np.ndarray
    contributions: np.ndarray
    chained: tuple

    def per_letter(self, table: np.ndarray) -> np.ndarray:
        """Per letter and row, the offset of the row's wiring plus its
        external coordinates' contributions, for the letters whose external
        coordinate codes are the rows of ``table``."""
        shares = self.contributions[self.external + table[:, None]].sum(axis=2) + self.offsets
        return shares[:, self.wiring]


#: The most entries (strings x component prefixes) that one block of the
#: level kernel steps at once, so that its working arrays stay small next
#: to its output however many strings it reads.
STACKED_BLOCK_ENTRIES = 1 << 20


def stacked_output_matrix(cascades: list, points: list) -> ClassOutputs | None:
    """The outputs of ``cascades`` on ``points``, as ``complexity.class_outputs``
    reads them from calling each cascade on each point, or None unless the
    cascades share one external alphabet and one depth and every point is a
    string of hashable letters.  The first point that ``run`` rejects is
    passed to the first cascade's ``run``, which raises its error
    (``letter_table``).

    Every member steps at once through the level kernel (``_step_levels``).
    The members' components are grouped by identity into levels: a row of
    level i is a distinct prefix (c_0, ..., c_i), stepped once for all
    members holding it, and a chained coordinate reads its ancestor row's
    output codes.  A row's wiring is its component's (``_wired``), shared
    by every row and cascade holding the component, and each level's
    distinct wirings are laid end to end.  Only the output values that the
    last level reaches are numbered.  The memo of ``run`` is neither read
    nor filled."""
    first, depth = cascades[0], len(cascades[0].components)
    if any(c.external is not first.external or len(c.components) != depth for c in cascades):
        return None
    try:
        letters, codes, lengths = encode_strings(list(map(tuple, points)))
    except TypeError:  # not a string, or an unhashable letter: the per-call loop raises
        return None
    table = letter_table(letters, codes, lengths, first.external.encode, first.external.arity,
                         first.run)
    levels, comps, row_of = _stacked_levels(cascades)
    raw = _step_levels(levels, [level.per_letter(table) for level in levels], codes, lengths)
    row_wiring = levels[-1].wiring
    # the reached output values numbered once, equal values alike: a value
    # is found by its position among the wirings' outputs laid end to end
    starts = np.cumsum([0, *(len(comp.outputs) for comp in comps)])
    positions = raw + starts[row_wiring]
    reached = np.bincount(positions.ravel(), minlength=starts[-1]).nonzero()[0]
    wirings = np.searchsorted(starts, reached, "right") - 1
    value_ids: dict = {}
    ids = np.zeros(starts[-1], dtype=np.intp)
    ids[reached] = [value_ids.setdefault(comps[w].outputs[i], len(value_ids))
                    for w, i in zip(wirings.tolist(), (reached - starts[wirings]).tolist())]
    by_row = ids[positions]
    # rows are numbered in order of their first member, so values first
    # occur in the same order among rows, points outer, as among members
    renumber = np.empty(len(value_ids), dtype=np.int64)
    values = []
    for first, v in sorted((int((by_row == v).argmax()), v) for v in range(len(value_ids))):
        renumber[v] = len(values)
        values.append(comps[row_wiring[first % len(row_wiring)]].outputs[raw.flat[first]])
    return ClassOutputs(_frozen(renumber[by_row][:, row_of].T), tuple(values), tuple(points))


def _step_levels(levels: list, externals: list, codes: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """The level kernel: the last component's output codes, strings by
    rows of the last level, of the strings given as letter codes
    (``codes``, every string's letters in order) and ``lengths`` stepped
    through ``levels``, whose per-letter contributions are ``externals``.
    Every row steps at once, a position at a time (``letter_positions``),
    on blocks of at most ``STACKED_BLOCK_ENTRIES`` strings x rows."""
    last = levels[-1]
    raw = np.empty((len(lengths), len(last.wiring)), dtype=np.intp)
    size = max(1, STACKED_BLOCK_ENTRIES // max(len(level.wiring) for level in levels))
    ends = np.cumsum(lengths)
    for lo in range(0, len(lengths), size):
        hi = min(lo + size, len(lengths))
        block = codes[ends[lo] - lengths[lo]:ends[hi - 1]]
        states = [level.initial[None] for level in levels]
        for index, ending in letter_positions(lengths[lo:hi]):
            m, letter, outs = len(index), block[index], []
            for i, (level, external) in enumerate(zip(levels, externals)):
                x = external.take(letter, axis=0)
                x += states[i][:m] * level.k
                for producer, start, ancestor in level.chained:
                    x += level.contributions[start + outs[producer][:, ancestor]]
                states[i] = level.next_array[x]
                if level is not last:  # the last level's outputs are read at string ends
                    outs.append(level.out_array[x])
            raw[lo + ending] = last.out_array[x[m - len(ending):]]
    return raw


def _joined(arrays: list) -> np.ndarray:
    """``arrays`` laid end to end; a single array itself, not a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stacked_levels(cascades: list) -> tuple:
    """The levels of ``cascades`` for the level kernel; the component of
    each of the last level's wirings, and each member's row there."""
    base = cascades[0].external.arity
    row_of = [0] * len(cascades)  # per member, its row at the level before
    ancestors: list = []  # per level before, each row's ancestor row there
    levels = []
    for column in zip(*(c.components for c in cascades)):
        rows: dict = {}  # (parent row, component) -> row, in order of first member
        row_of = [rows.setdefault(key, len(rows)) for key in zip(row_of, column)]
        numbers: dict = {}  # component -> its wiring's number at this level
        row_wiring = np.array([numbers.setdefault(c, len(numbers)) for _, c in rows],
                              dtype=np.intp)
        comps = list(numbers)
        wirings = list(map(_wired, comps))
        if levels:
            row_parent = np.fromiter((p for p, _ in rows), dtype=np.intp, count=len(rows))
            ancestors = [a[row_parent] for a in ancestors] + [row_parent]
        laid = [w.laid for w in wirings]
        widths = [0, *itertools.accumulate(len(flat) for flat, _ in laid)]
        # per wiring and coordinate, where its contributions begin
        starts = np.array([s for _, s in laid], dtype=np.intp)
        starts += np.array(widths[:-1], dtype=np.intp)[:, None]
        contributions = _joined([flat for flat, _ in laid])
        chained = tuple((j - base, starts[row_wiring, j], ancestors[j - base])
                        for j in sorted({j for w in wirings for j, _ in w.inputs if j >= base}))
        offsets = [0, *itertools.accumulate(len(w.next_array) for w in wirings)]
        levels.append(_Level(
            _joined([w.next_array for w in wirings]), _joined([w.out_array for w in wirings]),
            np.array([w.k for w in wirings], dtype=np.intp)[row_wiring], row_wiring,
            np.array([comp.core.initial_index for comp in comps], dtype=np.intp)[row_wiring],
            np.array(offsets[:-1], dtype=np.intp), starts[:, :base], contributions, chained))
    return levels, comps, np.array(row_of, dtype=np.intp)


def chain_alphabet(external: FactoredAlphabet, components_so_far) -> FactoredAlphabet:
    """Input alphabet for the next component: the external alphabet extended
    by one coordinate per already-built component, named after it."""
    alphabet = external
    for comp in components_so_far:
        alphabet = alphabet.extend(comp.name, comp.outputs)
    return alphabet


def build_chained(external: FactoredAlphabet, specs) -> Cascade:
    """Construct a cascade from per-component specs.

    Each spec is a mapping with keys ``name``, ``dependencies`` (1-based
    indices), ``input_fn``, ``core``, and optionally ``output_fn`` /
    ``outputs``; alphabets are chained automatically, as ``chain_alphabet``
    chains them.  Every component made from parts is made by its helper
    ``_part_component``: those of spec files and of class members, indexed
    or iterated.  Since ``extend`` hands out one object per extension,
    cascades chained from the same external alphabet share their alphabets.
    """
    built = []
    for spec in specs:
        prev = built[-1] if built else None
        alphabet = external if prev is None else prev.alphabet.extend(prev.name, prev.outputs)
        built.append(_part_component(alphabet, spec, spec["input_fn"]))
    return Cascade(built)


def _part_component(alphabet: FactoredAlphabet, spec, input_fn) -> ComponentAutomaton:
    """The component that ``spec`` describes with input function
    ``input_fn``, reading ``alphabet``."""
    return ComponentAutomaton(alphabet, spec["dependencies"], input_fn, spec["core"],
                              output_fn=spec.get("output_fn", "state"),
                              outputs=spec.get("outputs"), name=spec["name"])


class ClassPart(NamedTuple):
    """One component of a :class:`CascadeClass`: everything but the input
    function is fixed, and ``input_class`` enumerates the input functions.
    An ``output_fn`` given as a callable needs its values in ``outputs``."""

    name: str
    dependencies: tuple
    input_class: object
    core: Semiautomaton
    output_fn: object = "state"
    outputs: tuple | None = None


class CascadeClass(NumberedClass):
    """The product class of cascades whose components have fixed names,
    dependency sets, cores and output functions, and each choose their input
    function from a finite class (``cardinality`` and ``member``).  A
    member's digits are its components' choices, so the last component's
    choice varies fastest.  A member, indexed or iterated, is the tuple of
    its parts' components for its digits, each built once per class by
    ``_component``; ``build`` chains a member of any input functions through
    ``build_chained``.  Every member holds the same chained alphabets.  A
    part whose ``output_fn`` is a callable must list its values in
    ``outputs``; ``part_outputs`` holds each part's output values, so the
    last one's are the members' outputs."""

    def __init__(self, external: FactoredAlphabet, parts):
        self.external = external
        self.parts = tuple(ClassPart(*p) for p in parts)
        self.part_outputs = tuple(output_values(p.output_fn, p.core, p.outputs)
                                  for p in self.parts)
        for p, outputs in zip(self.parts, self.part_outputs):
            if outputs is None:
                raise ValueError(f"part {p.name!r}: an output_fn given as a callable "
                                 "needs its values in outputs")
        # per part, its components built so far, by choice (``_component``)
        self._built = tuple({} for _ in self.parts)

    @cached_property
    def _radices(self) -> tuple[int, ...]:
        return tuple(p.input_class.cardinality for p in self.parts)

    @property
    def cardinality(self) -> int:
        return math.prod(self._radices)

    @property
    def input_classes(self) -> list:
        return [p.input_class for p in self.parts]

    @cached_property
    def _specs(self) -> tuple[dict, ...]:
        """Each part as a ``build_chained`` spec, but for its input function."""
        return tuple(p._asdict() for p in self.parts)

    def build(self, input_fns) -> Cascade:
        """The member whose components use the given input functions, which
        need not be members of the parts' input classes."""
        return build_chained(self.external, [dict(spec, input_fn=fn) for spec, fn
                                             in zip(self._specs, input_fns, strict=True)])

    def member(self, index: int) -> Cascade:
        digits = mixed_radix_digits(index, self._radices)
        return Cascade(map(self._component, range(len(self.parts)), digits))

    def _component(self, part: int, choice: int) -> ComponentAutomaton:
        """The component of ``part`` for its ``choice``-th input function, on
        the part's input alphabet (``_alphabets``).  It depends on nothing
        else, so it is built when first asked for and kept as long as the
        class; racing threads keep the first one built."""
        built = self._built[part]
        comp = built.get(choice)
        if comp is None:
            spec = self._specs[part]
            comp = built.setdefault(choice, _part_component(
                self._alphabets[part], spec, spec["input_class"].member(choice)))
        return comp

    @cached_property
    def _alphabets(self) -> tuple[FactoredAlphabet, ...]:
        """Each part's input alphabet: the external alphabet extended by the
        names and output values of the parts before it, as ``build_chained``
        chains it."""
        alphabets = [self.external]
        for p, outputs in zip(self.parts[:-1], self.part_outputs):
            alphabets.append(alphabets[-1].extend(p.name, outputs))
        return tuple(alphabets)

    def __iter__(self) -> Iterator[Cascade]:
        """The members in index order, as the product of every part's
        components (``_component``): sum_i |F_i| components for prod_i
        |F_i| members.  Two members share part i's component exactly when
        they agree on its choice, and every iteration and ``member`` share
        them and their wirings."""
        return map(Cascade, itertools.product(*(
            [self._component(part, choice) for choice in range(radix)]
            for part, radix in enumerate(self._radices))))

    def descriptor(self, max_len: int, epsilon: float = 0.1, eta: float = 0.1,
                   input_dims=None) -> ClassDescriptor:
        """Class descriptor with one choice per core and output function and
        the input classes' cardinalities; ``input_dims`` optionally gives
        each input class's dimension.  Projection factors count every
        dependency set of the stated degree, so the resulting cardinality
        bound dominates the class, whose dependency sets are fixed."""
        dims = input_dims or [None] * len(self.parts)
        return ClassDescriptor(tuple(
            ComponentClassSpec(
                arity=self.external.arity + i, degree=len(set(p.dependencies)),
                n_input_fns=p.input_class.cardinality, n_cores=1, n_output_fns=1,
                internal_size=len(p.core.alphabet),
                output_size=len(outputs), input_dim=dim,
            )
            for i, (p, outputs, dim) in enumerate(zip(self.parts, self.part_outputs, dims,
                                                      strict=True))
        ), max_len, epsilon, eta)
