"""Shared generators for randomized tests, and a CLI runner for tests that
need a separate process."""

import itertools
import os
import random
import resource
import subprocess
import sys

import numpy as np

from cascata import complexity
from cascata.alphabets import FactoredAlphabet, TableClass
from cascata.automata import ComponentAutomaton, Semiautomaton
from cascata.cascade import Cascade, CascadeClass, ClassPart, build_chained, chain_alphabet
from cascata.learner import LabeledSample
from cascata.primes import make_counter, make_flipflop
from cascata.specfile import cascade_to_spec


def pattern_count(functions, sample) -> int:
    """Number of distinct output tuples of the class on the sample, scored
    as the growth and VC searches score a sample."""
    sample = list(sample)
    table = complexity.class_outputs(functions, sample)
    return complexity._first_best(table.matrix, len(table.values), [tuple(range(len(sample)))],
                                  len(sample))[0]


def random_external(rng: random.Random, max_arity=2, max_domain=3) -> FactoredAlphabet:
    arity = rng.randint(1, max_arity)
    coords = []
    for i in range(arity):
        size = rng.randint(2, max_domain)
        coords.append((f"c{i}", tuple(f"{chr(97 + i)}{j}" for j in range(size))))
    return FactoredAlphabet.of(*coords)


def random_semiautomaton(rng: random.Random, max_states=3, max_letters=3) -> Semiautomaton:
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_letters)
    letters = tuple(f"p{j}" for j in range(k))
    states = tuple(range(n))
    trans = {(q, a): rng.randrange(n) for q in states for a in letters}
    return Semiautomaton(letters, states, trans, rng.randrange(n))


def random_component(rng: random.Random, alphabet: FactoredAlphabet, core=None,
                     output="random", name="comp") -> ComponentAutomaton:
    arity = alphabet.arity
    deps = tuple(sorted(rng.sample(range(1, arity + 1), rng.randint(1, arity))))
    if core is None:
        core = random_semiautomaton(rng)
    letters = list(alphabet.project(deps).letters())
    phi = {x: rng.choice(core.alphabet) for x in letters}
    input_fn = lambda x, table=phi: table[x]
    if output == "state":
        return ComponentAutomaton(alphabet, deps, input_fn, core,
                                  output_fn="state", name=name)
    gamma = tuple(f"g{j}" for j in range(rng.randint(1, 3)))
    theta = {(q, x): rng.choice(gamma) for q in core.states for x in letters}
    output_fn = lambda q, x, table=theta: table[(q, x)]
    return ComponentAutomaton(alphabet, deps, input_fn, core,
                              output_fn=output_fn, outputs=gamma, name=name)


def random_cascade(rng: random.Random, max_d=3, max_arity=2, max_domain=3,
                   cores="random", simple=False) -> Cascade:
    external = random_external(rng, max_arity, max_domain)
    d = rng.randint(1, max_d)
    comps = []
    for i in range(d):
        alphabet = chain_alphabet(external, comps)
        if cores == "flipflop":
            core = make_flipflop(with_reset=rng.random() < 0.5,
                                 initial=rng.randint(0, 1))
        else:
            core = random_semiautomaton(rng)
        output = "state" if (simple and i < d - 1) else \
            rng.choice(["state", "random"])
        comps.append(random_component(rng, alphabet, core=core,
                                      output=output, name=f"k{i}"))
    return Cascade(comps)


def cascade_with_counter(rng: random.Random, modulus=5, max_d=3) -> Cascade:
    """Cascade containing a counter whose inc is driven directly by one
    external letter, so the inc cycle is always reachable."""
    external = random_external(rng, max_arity=1, max_domain=3)
    trigger = external.coords[0].values[0]
    d = rng.randint(1, max_d)
    position = rng.randrange(d)
    comps = []
    for i in range(d):
        alphabet = chain_alphabet(external, comps)
        if i == position:
            core = make_counter(modulus)
            input_fn = lambda x, t=trigger: "inc" if x[0] == t else "read"
            comps.append(ComponentAutomaton(alphabet, (1,), input_fn, core,
                                            output_fn="state", name=f"k{i}"))
        else:
            comps.append(random_component(
                rng, alphabet,
                core=make_flipflop(with_reset=rng.random() < 0.5),
                output=rng.choice(["state", "random"]), name=f"k{i}"))
    return Cascade(comps)


def random_cascade_class(rng: random.Random, external: FactoredAlphabet, depth: int,
                         last_outputs=None) -> CascadeClass:
    """A class of ``depth`` parts over ``external``.  Each part reads one or
    two coordinates of its chained alphabet (at most 4 projected letters)
    through the tables of a ``TableClass`` into a random core of at most 2
    letters, so it has at most 16 choices.  It outputs its state, its next
    state, or a random table over values drawn from a few sets, among them
    ``(0, 1)`` and ``(False, True)``; ``last_outputs`` fixes the last
    part's table values."""
    parts, alphabet = [], external
    for i in range(depth):
        coordinates = list(range(1, alphabet.arity + 1))
        rng.shuffle(coordinates)
        deps = coordinates[:1]
        if len(coordinates) > 1 and rng.random() < 0.5:
            deps.append(coordinates[1])
        projected = alphabet.project(deps)
        if projected.n_letters > 4:
            deps, projected = deps[:1], alphabet.project(deps[:1])
        core = random_semiautomaton(rng, max_states=3, max_letters=2)
        values = last_outputs if i == depth - 1 and last_outputs else None
        kind = "table" if values else rng.choice(["state", "next_state", "table"])
        if kind == "table":
            values = values or rng.choice([("g0", "g1", "g2"), (0, 1), (False, True), ("g0",)])
            theta = {(q, x): rng.choice(values) for q in core.states for x in projected.letters()}
            output_fn, outputs = (lambda q, x, t=theta: t[(q, x)]), tuple(values)
        else:
            output_fn, outputs = kind, None
        parts.append(ClassPart(f"k{i}", tuple(sorted(deps)), TableClass(projected, core.alphabet),
                               core, output_fn, outputs))
        alphabet = alphabet.extend(f"k{i}", outputs or core.states)
    return CascadeClass(external, parts)


def random_strings(rng: random.Random, letters, n: int, max_len: int) -> list[tuple]:
    """``n`` strings of 1..``max_len`` letters drawn uniformly."""
    return [tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
            for _ in range(n)]


def million_state_counter_spec() -> dict:
    """The spec of a cascade of one ``counter:1000000`` part over the events
    tick (inc) and idle (read)."""
    spec = cascade_to_spec(build_chained(
        FactoredAlphabet.single("event", ("tick", "idle")),
        [dict(name="k", dependencies=(1,), core=make_counter(3),
              input_fn=lambda x: "inc" if x == ("tick",) else "read")]))
    spec["components"][0]["core"] = "counter:1000000"
    return spec


def exhaustive_strings(letters, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(letters, repeat=length)


def string_sweep(letters, max_len, cap, rng: random.Random):
    """Every string up to max_len when that fits under the cap; otherwise
    all short strings plus random longer ones up to the cap."""
    letters = list(letters)
    total = sum(len(letters) ** le for le in range(1, max_len + 1))
    if total <= cap:
        return list(exhaustive_strings(letters, max_len))
    out = []
    length = 1
    while sum(len(letters) ** le for le in range(1, length + 1)) <= cap // 2 and length <= max_len:
        out.extend(itertools.product(letters, repeat=length))
        length += 1
    while len(out) < cap:
        le = rng.randint(length, max_len)
        out.append(tuple(rng.choice(letters) for _ in range(le)))
    return out


def goal_images(fam, perms) -> dict:
    """Per watcher permutation in ``perms``, each goal's index once watcher
    j's bit moves to watcher perm[j]'s, read from the goal members' term
    masks."""
    bits = [fam.goal_class.view.bit_of(f"task{j + 1}") for j in range(fam.d - 1)]
    goals = [tuple(sorted(g.terms)) for g in fam.goal_class]
    index = {terms: i for i, terms in enumerate(goals)}

    others = ~sum(1 << b for b in bits)

    def images(perm):
        def move(term):
            moved = term & others
            for j, k in enumerate(perm):
                moved |= (term >> bits[j] & 1) << bits[k]
            return moved

        return np.array([index[tuple(sorted(map(move, terms)))] for terms in goals])

    return {perm: images(perm) for perm in perms}


def family_events(fam, strings) -> tuple[np.ndarray, np.ndarray]:
    """Strings given as tuples of letters as the family kernel reads them
    (``_events``): every letter's event code and each string's length."""
    return fam._events(LabeledSample(tuple((s, 0) for s in strings)))


def family_kernel_rows(fam, strings, labels) -> np.ndarray:
    """The family kernel's error counts, one row per watcher orbit and one
    column per goal (``_distinct_error_counts``' blocks stacked)."""
    return np.concatenate([counts for _, counts in
                           fam._distinct_error_counts(*family_events(fam, strings), labels)])


def family_error_counts(fam, strings, labels) -> np.ndarray:
    """Every member's error count on the labelled strings, in member order,
    from the family kernel's orbit rows (``_distinct_error_counts``).  The
    watchers are numbered into tables in order of their first watcher, and
    the orbits listed as the ascending table combinations in lexicographic
    order.  A combination of tables takes its ascending reordering's row,
    with each goal moved to its image under the permutation between them,
    and a combination of watchers its tables' row."""
    rows = family_kernel_rows(fam, strings, labels)
    k = fam.d - 1
    numbering = {}
    table_of = [numbering.setdefault(row.tobytes(), len(numbering))
                for row in fam._watcher_truth]
    orbit = {tables: i for i, tables in enumerate(
        itertools.combinations_with_replacement(range(len(numbering)), k))}
    assert len(orbit) == len(rows)
    images = goal_images(fam, itertools.permutations(range(k)))
    combinations = list(itertools.product(range(len(numbering)), repeat=k))
    by_tables = np.empty((len(combinations), rows.shape[1]), dtype=np.int32)
    for i, tables in enumerate(combinations):
        # ascending place j holds the table of watcher moves[j]
        moves = tuple(sorted(range(k), key=tables.__getitem__))
        by_tables[i, images[moves]] = rows[orbit[tuple(sorted(tables))]]
    place = {tables: i for i, tables in enumerate(combinations)}
    return by_tables[[place[tables] for tables in
                      itertools.product(table_of, repeat=k)]].reshape(-1)


def _cli(args) -> tuple[list, dict]:
    """The command line of ``python -m cascata.cli`` with ``args``, and an
    environment that imports cascata from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    # one BLAS thread: its per-thread buffers would otherwise count against
    # a memory limit in proportion to the host's cores
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return [sys.executable, "-m", "cascata.cli", *map(str, args)], env


def run_cli(args, timeout: float, memory_bytes: int | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m cascata.cli`` with ``args`` in a child process, killed
    after ``timeout`` seconds.  ``memory_bytes`` caps the child's address
    space (``RLIMIT_AS``, set in the child only).  Output comes back as text."""

    def limit():
        if memory_bytes is not None:
            resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    command, env = _cli(args)
    return subprocess.run(command, capture_output=True, text=True, timeout=timeout, env=env,
                          preexec_fn=limit)


def start_cli(args) -> subprocess.Popen:
    """Start ``python -m cascata.cli`` with ``args`` in a child process whose
    stdout and stderr are pipes of text."""
    command, env = _cli(args)
    return subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
