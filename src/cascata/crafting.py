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
import random
from functools import cached_property

import numpy as np

from .alphabets import FactoredAlphabet, MonotoneDnfClass
from .automata import ComponentAutomaton
from .cascade import Cascade, chain_alphabet
from .complexity import ClassDescriptor, ComponentClassSpec
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


def _material_watcher(event: str):
    return lambda x: "set" if x[0] == event else "read"


def _material_stepper(event: str):
    return lambda x: "inc" if x[0] == event else "read"


def build_flipflop_task_cascade() -> Cascade:
    """One write-once flip-flop per material plus a goal flip-flop.

    The material components read only the event and output their state; the
    goal reads everything and outputs the state its transition enters, so a
    successful factory use shows up at the step it happens.
    """
    external = trace_alphabet()
    components: list[ComponentAutomaton] = []
    for event in MATERIALS:
        components.append(
            ComponentAutomaton(
                chain_alphabet(external, components),
                dependencies=(1,),
                input_fn=_material_watcher(event),
                core=make_flipflop(with_reset=False),
                output_fn="state",
                name=event,
            )
        )

    def goal_input(x):
        event, wood, iron, fire, steel = x
        if event == "factory" and ((wood and iron and fire) or steel):
            return "set"
        return "read"

    components.append(
        ComponentAutomaton(
            chain_alphabet(external, components),
            dependencies=(1, 2, 3, 4, 5),
            input_fn=goal_input,
            core=make_flipflop(with_reset=False),
            output_fn="next_state",
            name="factory_use",
        )
    )
    return Cascade(components)


def build_counter_task_cascade(modulus: int = 16, wood_needed: int = 13,
                               iron_needed: int = 5, steel_needed: int = 7) -> Cascade:
    """Counter variant: wood, iron and steel become modular counters and the
    goal condition tests thresholds on their counts.  A threshold at or above
    the modulus could never be reached, so it is rejected."""
    thresholds = {"wood": wood_needed, "iron": iron_needed, "steel": steel_needed}
    unreachable = {k: t for k, t in thresholds.items() if t >= modulus}
    if unreachable:
        raise ValueError(f"thresholds {unreachable} are not below the modulus {modulus}")
    external = trace_alphabet()
    components: list[ComponentAutomaton] = []
    for event in ("wood", "iron"):
        components.append(
            ComponentAutomaton(
                chain_alphabet(external, components),
                dependencies=(1,),
                input_fn=_material_stepper(event),
                core=make_counter(modulus),
                output_fn="state",
                name=event,
            )
        )
    components.append(
        ComponentAutomaton(
            chain_alphabet(external, components),
            dependencies=(1,),
            input_fn=_material_watcher("fire"),
            core=make_flipflop(with_reset=False),
            output_fn="state",
            name="fire",
        )
    )
    components.append(
        ComponentAutomaton(
            chain_alphabet(external, components),
            dependencies=(1,),
            input_fn=_material_stepper("steel"),
            core=make_counter(modulus),
            output_fn="state",
            name="steel",
        )
    )

    def goal_input(x):
        event, wood, iron, fire, steel = x
        ready = (wood >= wood_needed and iron >= iron_needed and fire) or steel >= steel_needed
        return "set" if event == "factory" and ready else "read"

    components.append(
        ComponentAutomaton(
            chain_alphabet(external, components),
            dependencies=(1, 2, 3, 4, 5),
            input_fn=goal_input,
            core=make_flipflop(with_reset=False),
            output_fn="next_state",
            name="factory_use",
        )
    )
    return Cascade(components)


# ---------------------------------------------------------------------------
# The enumerable task family.
# ---------------------------------------------------------------------------


class SequenceTaskFamily:
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
        self.external = FactoredAlphabet.single("event", self.letters)
        self.watcher_class = MonotoneDnfClass(self.external, 1, outputs=("set", "read"))
        goal_signature = self.external
        for i in range(d - 1):
            goal_signature = goal_signature.extend(f"task{i + 1}", (0, 1))
        self.goal_class = MonotoneDnfClass(goal_signature, 2, outputs=("set", "read"))

    @property
    def cardinality(self) -> int:
        return self.watcher_class.cardinality ** (self.d - 1) * self.goal_class.cardinality

    def assemble(self, watcher_fns, goal_fn) -> Cascade:
        components: list[ComponentAutomaton] = []
        for i, fn in enumerate(watcher_fns):
            components.append(
                ComponentAutomaton(
                    chain_alphabet(self.external, components),
                    dependencies=(1,),
                    input_fn=fn,
                    core=make_flipflop(with_reset=False),
                    output_fn="state",
                    name=f"task{i + 1}",
                )
            )
        components.append(
            ComponentAutomaton(
                chain_alphabet(self.external, components),
                dependencies=tuple(range(1, self.d + 1)),
                input_fn=goal_fn,
                core=make_flipflop(with_reset=False),
                output_fn="next_state",
                name="goal",
            )
        )
        return Cascade(components)

    def member(self, index: int) -> Cascade:
        if not 0 <= index < self.cardinality:
            raise IndexError(index)
        goal_index = index % self.goal_class.cardinality
        combo = index // self.goal_class.cardinality
        digits = []
        for _ in range(self.d - 1):
            digits.append(combo % self.watcher_class.cardinality)
            combo //= self.watcher_class.cardinality
        digits.reverse()
        return self.assemble(
            [self.watcher_class.function_at(i) for i in digits],
            self.goal_class.function_at(goal_index),
        )

    def __iter__(self):
        watchers = list(self.watcher_class)
        goals = list(self.goal_class)
        for combo in itertools.product(watchers, repeat=self.d - 1):
            for goal in goals:
                yield self.assemble(combo, goal)

    # -- fast empirical-risk scoring -------------------------------------------

    @cached_property
    def _watcher_truth(self) -> np.ndarray:
        """watcher x event-index -> does the watcher fire on that event."""
        fns = list(self.watcher_class)
        return np.array(
            [[fn((ev,)) == "set" for ev in self.letters] for fn in fns], dtype=bool
        )

    def error_counts(self, strings, labels) -> np.ndarray:
        """Disagreement counts with the labels, one per member in canonical
        order.

        Exploits the family's structure: watcher components read only the
        event, so their output streams depend on their own choice alone; a
        member's final output is 1 iff its goal DNF fires on some step's
        variable assignment, which only depends on the set of maximal
        assignments seen.  Strings are deduplicated by that signature per
        watcher combination before the goal functions are scored.
        """
        d = self.d
        n_watchers = self.watcher_class.cardinality
        goals = list(self.goal_class)
        n_goals = len(goals)
        truth = self._watcher_truth
        event_index = {ev: i for i, ev in enumerate(self.letters)}
        labels01 = np.asarray([int(y) for y in labels], dtype=np.int8)
        n = len(strings)

        encoded = [[event_index[x[0]] for x in s] for s in strings]
        letter_masks = [np.array([1 << ev for ev in idxs], dtype=np.int64) for idxs in encoded]

        # per string, per watcher: latched-before-step bit sequences
        latched: list[np.ndarray] = []
        for idxs in encoded:
            fires = truth[:, idxs]  # [n_watchers, len]
            before = np.zeros_like(fires)
            if fires.shape[1] > 1:
                before[:, 1:] = np.logical_or.accumulate(fires[:, :-1], axis=1)
            latched.append(before)

        shifts = np.array([1 << (d + j) for j in range(d - 1)], dtype=np.int64)
        sig_ids: dict[frozenset, int] = {}
        sig_masks: list[tuple[int, ...]] = []
        combos = list(itertools.product(range(n_watchers), repeat=d - 1))
        combo_sigs = np.empty((len(combos), n), dtype=np.int64)
        for ci, combo in enumerate(combos):
            rows = list(combo)
            for si in range(n):
                bits = latched[si][rows]  # [d-1, len]
                masks = np.unique(letter_masks[si] + bits.T @ shifts)
                maximal = frozenset(
                    int(m) for m in masks
                    if not any(m != other and m & other == m for other in masks)
                )
                if maximal not in sig_ids:
                    sig_ids[maximal] = len(sig_masks)
                    sig_masks.append(tuple(maximal))
                combo_sigs[ci, si] = sig_ids[maximal]

        pred = np.zeros((n_goals, len(sig_masks)), dtype=np.int8)
        for gi, goal in enumerate(goals):
            terms = goal.terms
            for sid, masks in enumerate(sig_masks):
                if any(term & m == term for m in masks for term in terms):
                    pred[gi, sid] = 1

        counts = np.empty(len(combos) * n_goals, dtype=np.int64)
        for ci in range(len(combos)):
            preds = pred[:, combo_sigs[ci]]  # [n_goals, n]
            counts[ci * n_goals:(ci + 1) * n_goals] = (preds != labels01).sum(axis=1)
        return counts

    # -- descriptors ------------------------------------------------------------

    def descriptor(self, max_len: int, epsilon: float = 0.1, eta: float = 0.1,
                   watcher_dim: float | None = None,
                   goal_dim: float | None = None) -> ClassDescriptor:
        """Class descriptor with per-component choice counts; projection
        factors count every dependency set of the stated degree, so the
        resulting cardinality bound dominates the enumerated family (whose
        dependency sets are fixed)."""
        specs = []
        for i in range(1, self.d):
            specs.append(
                ComponentClassSpec(
                    arity=i, degree=1,
                    n_input_fns=self.watcher_class.cardinality,
                    n_cores=1, n_output_fns=1,
                    internal_size=2, output_size=2,
                    input_dim=watcher_dim,
                )
            )
        specs.append(
            ComponentClassSpec(
                arity=self.d, degree=self.d,
                n_input_fns=self.goal_class.cardinality,
                n_cores=1, n_output_fns=1,
                internal_size=2, output_size=2,
                input_dim=goal_dim,
            )
        )
        return ClassDescriptor(tuple(specs), max_len, epsilon, eta)

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
        return self.assemble(watcher_fns, goal)


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
