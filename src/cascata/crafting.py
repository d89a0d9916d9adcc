"""The crafting scenario end-to-end: a bridge-building task over event
traces, rule-based oracles, cascade builders for the flip-flop and counter
variants, the enumerable task family used by the learning experiments, and
seeded trace generation.

Traces are strings over the six events blank, wood, iron, fire, steel,
factory; in memory a trace is a tuple of one-coordinate letters such as
``(('wood',), ('factory',))``.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .alphabets import FactoredAlphabet, MonotoneDnfClass
from .automata import _row_classes, encode_strings, letter_table
from .cascade import Cascade, CascadeClass, ClassPart, build_chained
from .complexity import ClassDescriptor
from .primes import make_counter, make_flipflop

EVENTS = ("blank", "wood", "iron", "fire", "steel", "factory")
TASK_EVENTS = ("wood", "iron", "fire", "steel", "factory")
MATERIALS = ("wood", "iron", "fire", "steel")

#: trace-generation weights tuned so completed tasks are not vanishingly
#: rare (measured: well above 1% positives at max_len 10)
DEFAULT_TRACE_WEIGHTS = {
    "blank": 0.24,
    "wood": 0.14,
    "iron": 0.12,
    "fire": 0.08,
    "steel": 0.22,
    "factory": 0.20,
}


def trace_alphabet() -> FactoredAlphabet:
    return FactoredAlphabet.single("event", EVENTS)


def trace_from_words(words) -> tuple:
    return tuple((w,) for w in words)


def trace_words(trace) -> tuple:
    return tuple(x[0] if isinstance(x, tuple) else x for x in trace)


def datalog_oracle(trace) -> tuple[bool, ...]:
    """Task-completion truth value at every time point, by forward-chaining
    the scenario rules: each material event latches a fact that persists;
    using the factory succeeds when, at the previous step, either steel was
    collected or wood, iron and fire all were; success persists."""
    words = trace_words(trace)
    got = {m: False for m in MATERIALS}
    use = False
    out = []
    for ev in words:
        if ev == "factory" and (
            got["steel"] or (got["wood"] and got["iron"] and got["fire"])
        ):
            use = True
        if ev in got:
            got[ev] = True
        out.append(use)
    return tuple(out)


def counting_oracle(trace, wood_needed=13, iron_needed=5, steel_needed=7) -> tuple[bool, ...]:
    """Counting variant of the oracle with unbounded accumulators (no
    overflow).  Agreement with the counter cascade therefore holds only on
    traces whose per-material counts stay below the cascade's modulus."""
    words = trace_words(trace)
    counts = {"wood": 0, "iron": 0, "steel": 0}
    fire = False
    use = False
    out = []
    for ev in words:
        if ev == "factory" and (
            counts["steel"] >= steel_needed
            or (counts["wood"] >= wood_needed and counts["iron"] >= iron_needed and fire)
        ):
            use = True
        if ev in counts:
            counts[ev] += 1
        elif ev == "fire":
            fire = True
        out.append(use)
    return tuple(out)


def task_label(trace) -> int:
    """Final completion label of a trace under the rule oracle."""
    return int(datalog_oracle(trace)[-1]) if len(trace) else 0


# ---------------------------------------------------------------------------
# Cascade builders.
# ---------------------------------------------------------------------------


def _material(event: str, modulus: int | None = None) -> dict:
    """A component that reads only the event and outputs its state: a
    write-once flip-flop that ``event`` sets or, given a modulus, a counter
    that ``event`` increments."""
    if modulus is None:
        return dict(name=event, dependencies=(1,), core=make_flipflop(with_reset=False),
                    input_fn=lambda x: "set" if x[0] == event else "read")
    return dict(name=event, dependencies=(1,), core=make_counter(modulus),
                input_fn=lambda x: "inc" if x[0] == event else "read")


def _goal(input_fn) -> dict:
    """The goal flip-flop: it reads everything and outputs the state its
    transition enters, so a successful factory use shows up at the step it
    happens."""
    return dict(name="factory_use", dependencies=(1, 2, 3, 4, 5), input_fn=input_fn,
                core=make_flipflop(with_reset=False), output_fn="next_state")


def _task_cascade(modulus: int | None, thresholds: dict) -> Cascade:
    """The scenario's one goal rule: using the factory succeeds when, at the
    previous step, steel reached its threshold, or wood and iron reached
    theirs and fire was collected.  Wood, iron and steel are counters modulo
    ``modulus``, or write-once flip-flops when it is None."""
    wood_needed, iron_needed, steel_needed = (thresholds[m] for m in ("wood", "iron", "steel"))

    def goal_input(x):
        event, wood, iron, fire, steel = x
        ready = (wood >= wood_needed and iron >= iron_needed and fire) or steel >= steel_needed
        return "set" if event == "factory" and ready else "read"

    materials = [_material(event, modulus if event in thresholds else None)
                 for event in MATERIALS]
    return build_chained(trace_alphabet(), materials + [_goal(goal_input)])


def build_flipflop_task_cascade() -> Cascade:
    """One write-once flip-flop per material plus the goal flip-flop: the
    counter variant's goal rule with every threshold at 1, so the factory
    needs steel, or wood, iron and fire, collected once."""
    return _task_cascade(None, {"wood": 1, "iron": 1, "steel": 1})


def build_counter_task_cascade(modulus: int = 16, wood_needed: int = 13,
                               iron_needed: int = 5, steel_needed: int = 7) -> Cascade:
    """Counter variant: wood, iron and steel become modular counters and the
    goal condition tests thresholds on their counts.  A threshold at or above
    the modulus could never be reached, so it is rejected.  It shares the
    flip-flop variant's goal rule."""
    thresholds = {"wood": wood_needed, "iron": iron_needed, "steel": steel_needed}
    unreachable = {k: t for k, t in thresholds.items() if t >= modulus}
    if unreachable:
        raise ValueError(f"thresholds {unreachable} are not below the modulus {modulus}")
    return _task_cascade(modulus, thresholds)


# ---------------------------------------------------------------------------
# The enumerable task family.
# ---------------------------------------------------------------------------

#: the most hit entries, combinations x profiles x terms, that one block of
#: ``SequenceTaskFamily``'s ERM kernel holds (256 KiB of float64)
ERM_BLOCK_ENTRIES = 1 << 15


class WatcherCombinations(NamedTuple):
    """The orbits of ``SequenceTaskFamily``'s watcher-table combinations
    under permuting the watchers, in the lexicographic order of their
    representatives: one table per watcher component, ascending."""

    #: per orbit, how many watcher combinations its table combinations hold
    weights: np.ndarray
    #: per orbit, the smallest member index of its representative divided
    #: by the number of goals: each table's smallest watcher, so it grows
    #: with the combination and the representative's is the orbit's least
    first_members: np.ndarray
    #: assignments[c, e, p]: the goal assignment of a step with event e after
    #: the events of bitmask p under representative c, e's bit plus bit
    #: d + j when watcher j's table fires on an event of p; the last column,
    #: p = 2**d, stands for an event that never occurs and holds
    #: ``2 ** n_variables``, the ``_contains_words`` row of nothing
    assignments: np.ndarray


class SequenceTaskFamily(CascadeClass):
    """Cascades of d write-once flip-flops for sequence tasks over d events.

    The first d-1 components watch the raw event through a 1-term monotone
    DNF over the d event indicators; the final component's trigger is a
    2-term monotone DNF over those indicators plus the d-1 component
    outputs (2d-1 variables).  Cores and output functions are fixed, so the
    class enumerates as the product of the input-function choices, goal
    choice varying fastest.
    """

    def __init__(self, d: int, letters: tuple[str, ...] | None = None):
        if d < 2:
            raise ValueError("the family needs at least two components")
        self.d = d
        if letters is None:
            letters = TASK_EVENTS if d == 5 else tuple(f"e{i + 1}" for i in range(d))
        if len(letters) != d:
            raise ValueError(f"need exactly {d} letters, got {len(letters)}")
        self.letters = tuple(letters)
        external = FactoredAlphabet.single("event", self.letters)
        self.watcher_class = MonotoneDnfClass(external, 1, outputs=("set", "read"))
        goal_signature = external
        for i in range(d - 1):
            goal_signature = goal_signature.extend(f"task{i + 1}", (0, 1))
        self.goal_class = MonotoneDnfClass(goal_signature, 2, outputs=("set", "read"))
        core = make_flipflop(with_reset=False)
        watchers = [ClassPart(f"task{i + 1}", (1,), self.watcher_class, core)
                    for i in range(d - 1)]
        goal = ClassPart("goal", tuple(range(1, d + 1)), self.goal_class, core, "next_state")
        super().__init__(external, watchers + [goal])

    # -- fast empirical-risk scoring -------------------------------------------

    @cached_property
    def _watcher_truth(self) -> np.ndarray:
        """watcher x event-index -> does the watcher fire on that event.  A
        watcher is one term, in member order: the empty term (constant true),
        then the single terms.  It fires on an event iff the term has no
        variable outside the event's boolean code."""
        view = self.watcher_class.view
        terms = np.array([0, *self.watcher_class._single_terms], dtype=np.int64)
        codes = np.array([view.encode((ev,)) for ev in self.letters], dtype=np.int64)
        return (terms[:, None] & ~codes) == 0

    @cached_property
    def _combinations(self) -> WatcherCombinations:
        """One ascending combination of the watcher tables (``_tables``,
        numbered in order of their smallest watcher) per orbit, one table
        per watcher component."""
        d, truth = self.d, self._watcher_truth
        first, counts = self._tables
        combos = np.array(list(itertools.combinations_with_replacement(range(len(first)),
                                                                        d - 1)))
        # an orbit holds the distinct orderings of its representative
        orderings = [math.factorial(d - 1)
                     // math.prod(map(math.factorial, Counter(row).values()))
                     for row in combos.tolist()]
        places = len(truth) ** np.arange(d - 2, -1, -1)
        # latched[u, p]: table u fires on an event of bitmask p
        latched = ((truth[first] @ (1 << np.arange(d)))[:, None] & np.arange(2 ** d)) != 0
        watcher_bits = sum(latched[combos[:, j]].astype(np.intp) << (d + j)
                           for j in range(d - 1))
        assignments = np.full((len(combos), d, 2 ** d + 1), 2 ** self.goal_class.n_variables)
        assignments[:, :, :-1] = (1 << np.arange(d))[:, None] | watcher_bits[:, None, :]
        return WatcherCombinations(counts[combos].prod(axis=1) * orderings,
                                   first[combos] @ places, assignments)

    @cached_property
    def _contains_words(self) -> np.ndarray:
        """words[a]: the terms contained in goal assignment a, bit T of the
        little-endian words; the last row, no assignment, contains none.  A
        word is as wide as the terms fill, up to 64 bits."""
        masks = np.arange(2 ** self.goal_class.n_variables)
        contains = np.vstack([(masks[:, None] & masks) == masks,
                              np.zeros(len(masks), dtype=bool)])
        words = np.packbits(contains, axis=1, bitorder="little")
        return words.view(f"<u{min(8, words.shape[1])}")

    @cached_property
    def _goal_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """First and last term of every goal, in the goal class's member order."""
        return tuple(np.array([(0, 0), *((t, t) for t in self.goal_class._single_terms),
                               *self.goal_class._term_pairs], dtype=np.int64).T)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The watchers grouped by their ``_watcher_truth`` row (their
        table), in order of their smallest watcher: each table's smallest
        watcher and how many watchers it holds.  A row is told apart by its
        events packed as bits, which is much quicker than
        ``np.unique(axis=0)`` on the 2**d rows of a large family."""
        keys = self._watcher_truth @ (1 << np.arange(self.d))
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        return first[order], counts[order]

    @property
    def erm_work(self) -> int:
        """How many error counts one ``erm`` call computes: one per watcher
        orbit (a multiset of d-1 of the distinct tables, ``_tables``) and
        goal, counted without building either."""
        n_tables = len(self._tables[0])
        return math.comb(n_tables + self.d - 2, self.d - 1) * self.goal_class.cardinality

    def _events(self, sample) -> tuple[np.ndarray, np.ndarray]:
        """The family's event code of every letter of a ``LabeledSample``'s
        strings, all strings' letters in order, and each string's length.
        The strings are read as ``sample.drawn`` or, for a sample built by
        hand, as ``encode_strings`` encodes them, and their letters are
        looked up through ``letter_table``: a letter outside the family
        raises the error that the members' ``run`` raises on the first
        string holding it, and one that no string holds raises nothing."""
        def run(string):
            return self.member(0).run(string)

        try:
            letters, codes, lengths = sample.drawn or encode_strings(sample.strings)
        except TypeError:  # an unhashable letter, which the members' run names
            for string in sample.strings:
                run(string)
            raise
        table = letter_table(letters, codes, lengths, self.external.encode, 1, run)
        return table.take(codes), lengths  # one column: the letters' event codes

    def _profiles(self, events, lengths) -> tuple[np.ndarray, np.ndarray]:
        """The profiles of the strings with ``lengths`` whose letters have
        the event codes ``events`` (all strings' letters in order), each
        profile once, and each string's profile number.  A profile holds,
        per event, the bitmask of the events before its last occurrence, or
        2**d if it does not occur.  Equal profiles are told apart by
        ``automata._row_classes`` on their packed columns."""
        d, n = self.d, len(lengths)
        valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
        # grid[t, i]: the event at step t of string i, or d past its end
        grid = np.full(valid.shape[::-1], d, dtype=np.intp)
        grid.T[valid] = events
        bits = (1 << grid) & (2 ** d - 1)
        # per event and string, the events before the event's latest step:
        # a step writes over what an earlier occurrence wrote; row d takes
        # the steps past a string's end
        columns = np.full((d + 1) * n, 2 ** d, dtype=np.int64)
        before = np.zeros(n, dtype=np.int64)
        for places, step_bits in zip(grid * n + np.arange(n), bits):
            columns[places] = before
            before |= step_bits
        columns = columns.reshape(d + 1, n)[:d]
        which, count = _row_classes(columns, 2 ** d + 1)
        profiles = np.empty((count, d), dtype=np.int64)
        profiles[which] = columns.T
        return profiles, which

    def _distinct_error_counts(self, events, lengths, labels):
        """The error counts of each watcher orbit's representative (rows, in
        ``_combinations`` order) with each goal (columns), on the strings
        given by their event codes and lengths (as ``_profiles`` takes
        them), in blocks of rows: pairs (first row, counts).  A label is
        accepted when it ``==`` 0 or 1, as ``zero_one_loss`` compares it.

        The d-1 watchers share one core, one input class and one
        dependency, and the goal class (every monotone DNF of at most two
        terms over the 2d-1 variables) is closed under permuting the watcher
        bits.  Moving watcher j to place s(j), and the goal's bit of watcher
        j with it, gives a member that computes the same function, so one
        representative per orbit is scored.  A step's goal assignment (its
        event bit plus the bits of the watchers that fired before it) only
        grows along a string, so only each event's last occurrence counts:
        strings of one profile (``_profiles``) score alike, and are scored
        once with their labels summed.  Per representative, ``hit[p, T]``
        says whether profile p reaches an assignment containing term T: the
        d events' words of ``_contains_words`` ORed and unpacked once.  With
        ``w`` the summed ``1 - 2y`` of each profile's strings, ``h = w @
        hit`` and ``m = hit.T @ (w * hit)``, inclusion-exclusion over a
        goal's two terms (t1, t2) gives its count as ``sum(y) + h[t1] +
        h[t2] - m[t1, t2]``; a one-term goal has t1 = t2.  The products sum
        at most one 1 per string in float64, so the counts are exact.  A
        block holds at most ``ERM_BLOCK_ENTRIES`` hit entries."""
        first, last = self._goal_terms
        y = np.fromiter((1 if v == 1 else 0 if v == 0 else -1 for v in labels), dtype=np.int64)
        if len(y) != len(lengths) or np.any(y < 0):
            raise ValueError("error counts need one 0/1 label per string")
        profiles, which = self._profiles(events, lengths)
        w = np.bincount(which, weights=1.0 - 2 * y, minlength=len(profiles))
        assignments, words = self._combinations.assignments, self._contains_words
        n_terms = 2 ** self.goal_class.n_variables
        pairs = first * n_terms + last
        # reached[c, e, p]: the assignment of profile p's last step with event e
        per_event = np.arange(self.d)[:, None]
        block = max(1, ERM_BLOCK_ENTRIES // max(1, len(profiles) * n_terms))
        for start in range(0, len(assignments), block):
            reached = assignments[start:start + block][:, per_event, profiles.T]
            # hit[c, p, T]: profile p reaches an assignment containing term T
            packed = words[reached[:, 0]]
            for e in range(1, self.d):
                packed |= words[reached[:, e]]
            hit = np.unpackbits(packed.view(np.uint8), axis=-1, bitorder="little").astype(float)
            h = w @ hit
            m = (hit.transpose(0, 2, 1) @ (w[:, None] * hit)).reshape(len(hit), -1)
            counts = (np.take(h, first, axis=1) + np.take(h, last, axis=1)
                      - np.take(m, pairs, axis=1) + float(y.sum()))
            yield start, counts.astype(np.int64)

    def erm(self, sample) -> tuple[int, int, int]:
        """(fewest errors, first member index with that many, number of
        members with that many) on a ``LabeledSample``, as a loop over the
        members finds them, reduced block by block from the orbits' counts
        (``_distinct_error_counts``), so nothing of size ``cardinality`` is
        allocated.  The sample's strings are read once (``_events``).

        An orbit's ties are its representative's tied goals times its
        weight: the watcher combinations of all its orderings.  Tables are
        numbered in order of their smallest watcher, so a member index grows
        with the combination and the ascending representative holds the
        orbit's smallest indices; a permutation of equal tables, the only
        kind that fixes it, maps its tied goals onto its tied goals.  So the
        representative's first tied goal, with each table's smallest
        watcher, is the orbit's first tied member, and no goal is mapped."""
        events, lengths = self._events(sample)
        weights, first_members = self._combinations.weights, self._combinations.first_members
        n_goals = len(self._goal_terms[0])
        best, index, ties = None, self.cardinality, 0
        for start, counts in self._distinct_error_counts(events, lengths, sample.labels):
            low = int(counts.min())
            if best is None or low < best:
                best, index, ties = low, self.cardinality, 0
            if low == best:
                tied = counts == best
                ties += int(tied.sum(axis=1) @ weights[start:start + len(counts)])
                rows = tied.any(axis=1).nonzero()[0]
                candidates = first_members[start + rows] * n_goals + tied[rows].argmax(axis=1)
                index = min(index, int(candidates.min()))
        return best, index, ties

    def descriptor(self, max_len: int, epsilon: float = 0.1, eta: float = 0.1,
                   watcher_dim: float | None = None,
                   goal_dim: float | None = None) -> ClassDescriptor:
        return super().descriptor(max_len, epsilon, eta,
                                  [watcher_dim] * (self.d - 1) + [goal_dim])

    def sequence_target(self) -> Cascade:
        """A canonical realizable target: every watcher tracks its own
        event; the goal fires on the last event once either all but the
        last material are latched, or the second-to-last one is."""
        watcher_fns = [
            self.watcher_class.from_term_names([[f"event={self.letters[i]}"]])
            for i in range(self.d - 1)
        ]
        last = self.letters[-1]
        if self.d == 2:
            goal = self.goal_class.from_term_names([[f"event={last}", "task1"]])
        else:
            first_group = [f"event={last}"] + [f"task{i + 1}" for i in range(self.d - 2)]
            second_group = [f"event={last}", f"task{self.d - 1}"]
            goal = self.goal_class.from_term_names([first_group, second_group])
        return self.build([*watcher_fns, goal])


# ---------------------------------------------------------------------------
# Trace generation.
# ---------------------------------------------------------------------------


def generate_traces(n: int, max_len: int, seed: int = 0,
                    weights: dict[str, float] | None = None) -> list[tuple]:
    """n seeded traces with lengths uniform on 1..max_len and letters drawn
    from the given per-event weights."""
    weights = dict(DEFAULT_TRACE_WEIGHTS if weights is None else weights)
    if set(weights) != set(EVENTS):
        raise ValueError(f"weights must cover exactly the events {EVENTS}")
    total = sum(weights.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"weights must sum to 1, got {total}")
    rng = random.Random(seed)
    probs = [weights[ev] for ev in EVENTS]
    traces = []
    for _ in range(n):
        length = rng.randint(1, max_len)
        traces.append(tuple((ev,) for ev in rng.choices(EVENTS, weights=probs, k=length)))
    return traces
