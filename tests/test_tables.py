"""The stored tables of automata, semiautomata and components are read-only
int64 arrays, their only public table form.  The compile path (flatten,
minimize, equivalence, serialization) never builds a flat automaton's
stepping rows or the state labels, and a cascade steps on views of its
components' arrays, copying no table."""

import gc
import json
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from cascata.alphabets import FactoredAlphabet
from cascata.automata import ComponentAutomaton, FlatAutomaton, Semiautomaton
from cascata.crafting import build_counter_task_cascade, build_flipflop_task_cascade
from cascata.primes import is_prime_counter, make_counter, make_flipflop, validate_prime_identities
from cascata.specfile import cascade_from_spec, cascade_to_spec

from helpers import million_state_counter_spec

# built only when read
LAZY = ("_rows", "states", "state_index", "initial")


def _built(auto: FlatAutomaton) -> set:
    return (set(vars(auto)) | set(vars(auto.core))) & set(LAZY)


def test_the_compile_path_builds_no_list_rows_and_no_labels():
    cascade = build_counter_task_cascade()
    flat = cascade.flatten()
    minimized = flat.minimize()
    assert minimized.equivalent(flat).equivalent
    text = json.dumps(minimized.to_dict())
    assert json.loads(text)["states"] == [str(q) for q in range(8193)]
    assert (flat.n_states, minimized.n_states) == (16384, 8193)
    assert _built(flat) == set() and _built(minimized) == set()
    # the cascade's table views wait for its first run; components hold arrays only
    assert "_wiring" not in vars(cascade)
    assert not any(hasattr(c, "next") or hasattr(c, "out") for c in cascade.components)


def test_a_million_state_counter_spec_builds_no_list_per_state():
    spec = million_state_counter_spec()
    tracemalloc.start()
    try:
        cascade = cascade_from_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20 and "_wiring" not in vars(cascade)
    assert cascade.run([("tick",)] * 3 + [("idle",)]) == 3
    assert cascade.run([("idle",)]) == 0


def test_the_first_run_of_a_million_state_counter_copies_no_table():
    cascade = cascade_from_spec(million_state_counter_spec())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cascade.run([("tick",)] * 3 + [("idle",)]) == 3
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20  # list copies of the two tables would take about 61 MiB


def test_serializing_a_million_state_counter_retains_nothing_per_state():
    cascade = cascade_from_spec(million_state_counter_spec())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cascade_to_spec(cascade)["components"][0]["core"] == "counter:1000000"
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20  # a list row or a label per state would take tens of MB


@pytest.mark.parametrize("build", [build_flipflop_task_cascade, build_counter_task_cascade])
def test_serializing_checking_and_drawing_build_no_stepping_cache(build):
    """Only scalar stepping builds the list rows and the state index."""
    cascade = build()
    flat = cascade.flatten()
    minimized = flat.minimize()
    cores = [c.core for c in cascade.components]
    objects = cores + [flat, flat.core, minimized, minimized.core]
    before = [set(vars(obj)) for obj in objects]
    cascade_to_spec(cascade)
    for core in cores:
        for kind in ("flipflop", "counter"):
            validate_prime_identities(core, kind)
        is_prime_counter(core)
    assert flat.to_dot() and minimized.to_dot()
    for obj, names in zip(objects, before):
        assert not (set(vars(obj)) - names) & {"_rows", "state_index"}, obj


@pytest.mark.parametrize("build", [build_flipflop_task_cascade, build_counter_task_cascade])
def test_list_rows_once_read_equal_the_arrays(build):
    """A flat automaton's one stepping cache, ``_rows``, is built on the
    first ``run`` or ``output`` and then kept; it holds the arrays' entries
    as (next state number, output code) per state and letter."""
    flat = build().flatten()
    for auto, first_step in ((flat, lambda a: a.run(a.alphabet[:3])),
                             (flat.minimize(), lambda a: a.output(a.initial, a.alphabet[-1]))):
        assert "_rows" not in vars(auto)
        first_step(auto)
        rows = vars(auto)["_rows"]
        assert len(rows) == auto.n_states
        assert [[row[a] for a in auto.alphabet] for row in rows] == [
            list(zip(d, o)) for d, o in zip(auto.delta_array.tolist(), auto.out_array.tolist())]
        assert all(type(v) is int for row in rows for pair in row.values() for v in pair)
        auto.run(auto.alphabet[::-1])
        auto.output(auto.states[-1], auto.alphabet[0])
        assert auto._rows is rows  # built once
        assert auto.delta_array.dtype == auto.out_array.dtype == np.int64


def test_list_rows_share_one_tuple_per_distinct_pair():
    minimized = build_counter_task_cascade().flatten().minimize()
    minimized.run(minimized.alphabet[:1])
    pairs = [pair for row in minimized._rows for pair in row.values()]
    assert len({id(pair) for pair in pairs}) == len(set(pairs)) < len(pairs) // 2


def test_semiautomaton_stepping_builds_no_cache():
    flat = build_counter_task_cascade().flatten()
    for core in (make_flipflop(), make_counter(300), flat.core, flat.minimize().core):
        before = set(vars(core))
        core.run(core.alphabet * 3)
        core.step(core.initial, core.alphabet[-1])
        # stepping reads ``delta_array``; only the state labels are built
        assert set(vars(core)) - before <= {"states", "state_index", "initial"}, core


def test_the_arrays_are_the_only_public_tables():
    flat = build_flipflop_task_cascade().flatten()
    flat.run(flat.alphabet[:2])  # builds the private stepping caches
    for obj in (flat, flat.core):
        assert not any(hasattr(obj, name) for name in ("delta", "out", "transitions", "output_map"))


def test_labels_once_read_index_the_states():
    flat = build_flipflop_task_cascade().flatten()
    assert flat.initial == flat.states[flat.core.initial_index]
    assert flat.core.state_index == {q: i for i, q in enumerate(flat.states)}
    assert flat.minimize().states == tuple(range(flat.minimize().n_states))


def test_unread_labels_do_not_keep_the_cascade_alive():
    cascade = build_flipflop_task_cascade()
    expected = cascade.flatten().states
    alive = weakref.ref(cascade)
    flat = cascade.flatten()
    del cascade
    gc.collect()
    assert alive() is None and "states" not in vars(flat.core)
    assert pickle.loads(pickle.dumps(flat)).states == flat.states == expected


def _automata():
    dict_built = FlatAutomaton("ab", (0, 1), {(q, a): 1 - q for q in (0, 1) for a in "ab"},
                               0, {(q, a): q for q in (0, 1) for a in "ab"})
    from_lists = FlatAutomaton.from_tables("ab", (0, 1), [[1, 0], [0, 1]], 0, [[0, 1], [1, 0]],
                                           (0, 1))
    flat = build_flipflop_task_cascade().flatten()
    return [dict_built, from_lists, flat, flat.minimize(), flat.restrict(flat.alphabet[:2])]


@pytest.mark.parametrize("index", range(5))
def test_stored_tables_are_read_only(index):
    auto = _automata()[index]
    for table in (auto.delta_array, auto.out_array, auto.core.delta_array):
        with pytest.raises(ValueError):
            table[0, 0] = 0
    for core in (make_flipflop(), make_counter(5), Semiautomaton("a", "pq", {
            ("p", "a"): "q", ("q", "a"): "p"}, "p")):
        with pytest.raises(ValueError):
            core.delta_array[0, 0] = 0


def test_from_tables_keeps_an_int64_array_without_freezing_the_callers():
    delta = np.array([[1], [0]], dtype=np.int64)
    core = Semiautomaton.from_tables("a", (0, 1), delta, 0)
    assert np.shares_memory(core.delta_array, delta) and delta.flags.writeable
    assert core.run("aaa") == 1


def test_labels_given_as_a_function_are_built_on_first_read():
    calls = []

    def labels():
        calls.append(1)
        return ["p", "q"]

    auto = FlatAutomaton.from_tables("a", labels, [[1], [0]], 1, [[0], [1]], (0, 1))
    assert auto.n_states == 2 and not calls
    assert auto.run("a") == 1 and auto.run("aa") == 0
    assert auto.initial == "q" and calls == [1]
    assert auto.to_dict()["states"] == ["'p'", "'q'"] and calls == [1]


@pytest.mark.parametrize("output_fn", ["state", "next_state"])
def test_component_rows_are_gathered_from_the_core_array(output_fn):
    external = FactoredAlphabet.single("op", ("inc", "read", "skip"))
    core = make_counter(300)
    comp = ComponentAutomaton(external, (1,), lambda x: "read" if x[0] == "skip" else x[0],
                              core, output_fn=output_fn)
    inputs = [core.letter_index[a] for a in ("inc", "read", "read")]
    assert comp.next_array.tolist() == [[row[a] for a in inputs]
                                        for row in core.delta_array.tolist()]
    want = comp.next_array.tolist() if output_fn == "next_state" else [[q] * 3 for q in range(300)]
    assert comp.out_array.tolist() == want
    assert comp.next_array.dtype == comp.out_array.dtype == np.int64
