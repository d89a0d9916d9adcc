"""Checks the benchmark makes on cascata's outputs.

Each check recomputes the expected answer apart from the code under test
(from scenario parameters, a hand-written rule, a table walk over the
serialized automaton, or the compositional oracle) and returns a list of
failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

#: the counter scenario: three modular counters (wood, iron, steel) and two
#: write-once flip-flops (fire, factory use)
COUNTER_COMPONENTS = ("counter", "counter", "flipflop", "counter", "flipflop")


def counter_product_size(modulus: int) -> int:
    """Product state count of the counter scenario: modulus**3 * 2 * 2."""
    return math.prod(modulus if kind == "counter" else 2 for kind in COUNTER_COMPONENTS)


def counter_min_states(modulus: int) -> int:
    """Minimal state count of the counter scenario: every joint count with
    fire unset or set, plus one absorbing 'task done' state."""
    return 2 * modulus**3 + 1


# ---------------------------------------------------------------------------
# Serialized automata (the JSON that ``cascata minimize`` writes).
# ---------------------------------------------------------------------------


def tables(data: dict):
    """Integer transition and output tables of a serialized automaton, and
    the index of each letter (letters are named by their first coordinate)."""
    n = len(data["states"])
    k = len(data["letters"])
    delta = np.full((n, k), -1, dtype=np.int64)
    out = np.zeros((n, k), dtype=np.int64)
    rows = np.array(data["transitions"], dtype=np.int64).reshape(-1, 3)
    delta[rows[:, 0], rows[:, 1]] = rows[:, 2]
    rows = np.array(data["output_rows"], dtype=np.int64).reshape(-1, 3)
    out[rows[:, 0], rows[:, 1]] = rows[:, 2]
    letter_index = {
        (a[0] if isinstance(a, list) else a): i for i, a in enumerate(data["letters"])
    }
    return delta, out, letter_index


def table_output(delta, out, letter_index, initial: int, trace) -> int:
    """Output of the serialized automaton on a non-empty trace: the output
    row of the state reached before the last letter, at the last letter."""
    q = initial
    for (event,) in trace[:-1]:
        q = delta[q, letter_index[event]]
    return int(out[q, letter_index[trace[-1][0]]])


def behaviour_signatures(delta, out, letter_index, modulus: int) -> int:
    """Distinct behaviours among the automaton's states: the factory output
    after every joint shift wood^a iron^b fire^f steel^c (a, b, c below the
    modulus, f in {0, 1}).  States with different signatures are
    distinguishable, so this count is a lower bound on the minimal state
    count; it equals the state count exactly when the automaton is minimal."""
    wood, iron, fire, steel, factory = (
        letter_index[e] for e in ("wood", "iron", "fire", "steel", "factory"))
    n = delta.shape[0]
    n_columns = 2 * modulus**3
    packed = np.zeros((n, (n_columns + 7) // 8), dtype=np.uint8)
    column = 0
    va = np.arange(n)
    for _ in range(modulus):
        vab = va
        for _ in range(modulus):
            for use_fire in (False, True):
                vk = delta[vab, fire] if use_fire else vab
                for _ in range(modulus):
                    bit = out[vk, factory].astype(np.uint8)
                    packed[:, column >> 3] |= bit << np.uint8(7 - (column & 7))
                    column += 1
                    vk = delta[vk, steel]
            vab = delta[vab, iron]
        va = delta[va, wood]
    return len({row.tobytes() for row in packed})


def check_compile(modulus: int, product_size: int, reachable: int,
                  minimized_states: int, data: dict, equivalent: bool) -> list[str]:
    """The counter scenario's compile: product and reachable sizes from the
    scenario's parameters, the minimized count against the behaviour
    signatures of the serialized tables, and the equivalence verdict."""
    failures = []
    expected_product = counter_product_size(modulus)
    if product_size != expected_product:
        failures.append(f"product size {product_size}, expected {expected_product}")
    if reachable != expected_product:
        failures.append(f"reachable states {reachable}, expected {expected_product}")
    if len(data["states"]) != minimized_states:
        failures.append(f"serialized {len(data['states'])} states, "
                        f"automaton has {minimized_states}")
    delta, out, letter_index = tables(data)
    if (delta < 0).any() or (delta >= len(data["states"])).any():
        failures.append("serialized transition table is not total")
        return failures
    if not set(np.unique(out).tolist()) <= {0, 1}:
        failures.append("outputs outside {0, 1}")
        return failures
    signatures = behaviour_signatures(delta, out, letter_index, modulus)
    if minimized_states != signatures:
        failures.append(f"minimized to {minimized_states} states, "
                        f"but {signatures} distinct behaviours")
    if minimized_states != counter_min_states(modulus):
        failures.append(f"minimized to {minimized_states} states, "
                        f"expected {counter_min_states(modulus)}")
    if not equivalent:
        failures.append("minimized automaton not equivalent to the flat one")
    return failures


def counts_below(trace, modulus: int) -> bool:
    """True when no counted material occurs ``modulus`` times or more, the
    range on which the counter cascade and the unbounded oracle agree."""
    words = [x[0] for x in trace]
    return all(words.count(m) < modulus for m in ("wood", "iron", "steel"))


# ---------------------------------------------------------------------------
# Learning.
# ---------------------------------------------------------------------------


def sequence_rule(string, last="e3", earlier=("e1", "e2")) -> int:
    """Label of the sequence target, written from its description: 1 iff
    ``last`` occurs after an earlier event from ``earlier`` (for d=3: some e3
    after an earlier e1 or e2)."""
    seen = False
    for (event,) in string:
        if event == last and seen:
            return 1
        if event in earlier:
            seen = True
    return 0


def check_labels(entries, rule=sequence_rule) -> list[str]:
    """Sample labels against the rule."""
    wrong = sum(1 for s, y in entries if y != rule(s))
    return [f"{wrong} of {len(entries)} sample labels disagree with the rule"] if wrong else []


def check_winner(empirical_risk: float, winner_outputs, entries) -> list[str]:
    """The ERM winner on a realizable sample: zero empirical risk, and its
    own run reproduces every label."""
    failures = []
    if empirical_risk != 0:
        failures.append(f"winner's empirical risk {empirical_risk}, expected 0")
    wrong = sum(1 for o, (_, y) in zip(winner_outputs, entries) if o != y)
    if wrong or len(winner_outputs) != len(entries):
        failures.append(f"winner disagrees with {wrong} of {len(entries)} labels")
    return failures


def check_risk(estimate: float, winner_outputs, pool, rule=sequence_rule) -> list[str]:
    """The Monte-Carlo risk against a recount of the winner's errors on the
    same seeded pool, labelled by the rule."""
    errors = sum(1 for o, s in zip(winner_outputs, pool) if o != rule(s))
    recount = errors / len(pool)
    if not math.isclose(estimate, recount, rel_tol=0, abs_tol=1e-12):
        return [f"risk estimate {estimate}, recount {recount}"]
    return []


def check_success_rate(gaps, epsilon: float, share: float = 0.9) -> list[str]:
    """At least ``share`` of the trials land within epsilon."""
    within = sum(1 for g in gaps if g <= epsilon)
    if within < share * len(gaps):
        return [f"{within} of {len(gaps)} trials within {epsilon}"]
    return []


# ---------------------------------------------------------------------------
# Certification.
# ---------------------------------------------------------------------------


def check_growth(ell: int, count: int, bound: float, n_members: int, exact: bool,
                 recount: int) -> list[str]:
    """A measured growth value: within its bound, within min(|F|, 2^ell),
    found by exact search, and equal to the pattern count recounted at its
    witness."""
    failures = []
    if count > bound:
        failures.append(f"growth {count} at ell={ell} above its bound {bound}")
    if count > min(n_members, 2**ell):
        failures.append(f"growth {count} at ell={ell} above min(|F|, 2^ell)")
    if not exact:
        failures.append(f"growth search at ell={ell} fell back to heuristic mode")
    if recount != count:
        failures.append(f"growth {count} at ell={ell}, recount at witness {recount}")
    return failures


def check_dimension(value: int, bound: float | None, exact: bool, label: str) -> list[str]:
    failures = []
    if not exact:
        failures.append(f"{label} search stopped at its cap")
    if bound is not None and value > bound:
        failures.append(f"{label} {value} above its bound {bound}")
    return failures


def monoid_is_aperiodic(elements, n_states: int) -> bool:
    """Aperiodicity from the monoid's elements: every transformation f
    satisfies f^k = f^(k+1) for some k <= n_states."""
    for f in elements:
        power = f
        for _ in range(n_states):
            nxt = tuple(f[i] for i in power)
            if nxt == power:
                break
            power = nxt
        else:
            return False
    return True


def check_aperiodicity(name: str, flipflop: bool, aperiodic: bool) -> list[str]:
    """Flip-flop cascades are aperiodic; the modulus-2 counter scenario is not."""
    if aperiodic != flipflop:
        return [f"{name}: aperiodic={aperiodic}, expected {flipflop}"]
    return []
