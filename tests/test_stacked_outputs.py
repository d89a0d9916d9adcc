"""A class's output table (``complexity.class_outputs``), built by
stepping cascade members together (``cascade.stacked_output_matrix``),
against calling each member once per point, and the searches that read it.

The reference is the per-call loop ``complexity.class_outputs`` ran for
every class before cascades were stepped together: points outer, members
inner, outputs numbered by first occurrence.  Matrices and output values
must be identical, the values' order and types included.  The random cases
are also checked against the expression-tree oracle
(``functional.cascade_function``), which reads no wiring.  A search handed
the table in place of the functions reports what it reports on the
functions and steps no member; iterating a class again builds no component.
"""

import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cascata import cascade as cascade_module
from cascata import complexity
from cascata.alphabets import FactoredAlphabet
from cascata.alphabets import BooleanView, MonotoneDnf, TableFunction
from cascata.automata import ComponentAutomaton
from cascata.cascade import Cascade, stacked_output_matrix
from cascata.complexity import (ClassOutputs, class_dimension, class_outputs, empirical_growth,
                                graph_dimension, vc_dimension)
from cascata.crafting import SequenceTaskFamily
from cascata.functional import cascade_function
from cascata.primes import make_flipflop
from cascata.specfile import cascade_from_spec

from helpers import (million_state_counter_spec, random_cascade_class, random_external,
                     random_semiautomaton, random_strings)
from test_run_many import _kernel_calls


def called(functions, points):
    """The output matrix and codes from calling each function once per
    point, a point at a time."""
    code = {}
    matrix = np.empty((len(functions), len(points)), dtype=np.int64)
    for j, x in enumerate(points):
        matrix[:, j] = [code.setdefault(f(x), len(code)) for f in functions]
    return matrix, code


def typed(code: dict) -> list:
    """A code dict's entries in order, with each key's type."""
    return [(type(value), value, number) for value, number in code.items()]


def pair(outputs) -> tuple:
    """A ``ClassOutputs`` as its matrix and code dict, after checking that
    it cannot be changed; a (matrix, code) pair as it is."""
    if not isinstance(outputs, ClassOutputs):
        return outputs
    assert not outputs.matrix.flags.writeable
    assert type(outputs.values) is tuple and type(outputs.points) is tuple
    return outputs.matrix, {value: number for number, value in enumerate(outputs.values)}


def assert_same(got, expected):
    (matrix, code), (matrix_expected, code_expected) = pair(got), pair(expected)
    assert matrix.dtype == np.int64 and matrix.shape == matrix_expected.shape
    assert np.array_equal(matrix, matrix_expected)
    assert typed(code) == typed(code_expected)


def outcome(fn):
    """The result, or the type and message of the exception raised."""
    try:
        return fn()
    except Exception as err:  # every error is compared, type and message
        return type(err), str(err)


def chains_sharing_a_second(rng: random.Random, external: FactoredAlphabet) -> list:
    """Two depth-2 cascades holding one second component behind two
    different first components, which output the same values in the same
    order."""
    gamma = ("g0", "g1", "g2")
    core = random_semiautomaton(rng, max_states=3, max_letters=2)
    letters = list(external.letters())
    phi = {x: rng.choice(core.alphabet) for x in letters}
    firsts = []
    for _ in range(2):
        theta = {(q, x): rng.choice(gamma) for q in core.states for x in letters}
        firsts.append(ComponentAutomaton(external, range(1, external.arity + 1), phi.__getitem__,
                                         core, lambda q, x, theta=theta: theta[(q, x)], gamma,
                                         name="k0"))
    alphabet = external.extend("k0", gamma)
    reads = (1, alphabet.arity) if rng.random() < 0.5 else (alphabet.arity,)
    projected = alphabet.project(reads)
    flipflop = make_flipflop(with_reset=True)
    psi = {x: rng.choice(flipflop.alphabet) for x in projected.letters()}
    second = ComponentAutomaton(alphabet, reads, psi.__getitem__, flipflop,
                                rng.choice(["state", "next_state"]), name="k1")
    return [Cascade([first, second]) for first in firsts]


def random_members(rng: random.Random, external: FactoredAlphabet, depth: int) -> list:
    """Members of random classes of ``depth`` parts over ``external``:
    iterated ones, which share the components of their choices, indexed
    ones (``build_chained``), which share none, and some listed twice."""
    members = []
    for _ in range(rng.randint(1, 3)):
        cls = random_cascade_class(rng, external, depth)
        members += itertools.islice(cls, rng.randint(1, 40))
        members += [cls.member(rng.randrange(cls.cardinality)) for _ in range(rng.randint(0, 5))]
    members += rng.choices(members, k=rng.randint(0, 4))
    rng.shuffle(members)
    return members


def random_points(rng: random.Random, external: FactoredAlphabet) -> list:
    """Strings of mixed lengths over ``external``, some repeated."""
    points = random_strings(rng, list(external.letters()), rng.randint(1, 25), 4)
    return points + rng.choices(points, k=rng.randint(0, 5))


@pytest.mark.parametrize("seed", range(40))
def test_stepped_members_match_the_per_call_loop(seed, monkeypatch):
    # every third seed steps its strings in blocks of one, every third in
    # blocks of a few
    monkeypatch.setattr(cascade_module, "STACKED_BLOCK_ENTRIES", (1 << 20, 1, 150)[seed // 3 % 3])
    rng = random.Random(seed)
    external = random_external(rng)
    depth = 1 + seed % 3
    members = random_members(rng, external, depth)
    if depth == 2 and seed % 2:
        members += [m for _ in range(2) for m in chains_sharing_a_second(rng, external)]
    points = random_points(rng, external)
    got = class_outputs(members, points)
    assert all(m._memo_size == 0 for m in members)  # stepped together, never run
    assert_same(got, called(members, points))
    assert_same(stacked_output_matrix(members, points), got)
    # both paths read the shared wirings; the expression-tree oracle does not
    assert_same(got, called([cascade_function(m) for m in members], points))


@pytest.mark.parametrize("bound", ["run", "__call__"])
def test_members_bound_runs_are_stepped_together(bound):
    rng = random.Random(3)
    external = random_external(rng)
    members = random_members(rng, external, 2)
    points = random_points(rng, external)
    got = class_outputs([getattr(m, bound) for m in members], points)
    assert all(m._memo_size == 0 for m in members)
    assert_same(got, called(members, points))


def test_equal_outputs_of_different_types_share_a_code():
    # members of two classes over one alphabet, whose last parts output
    # (0, 1) and (False, True): 0 and False share a code, as do 1 and True,
    # and each code's key is the value met first
    rng = random.Random(5)
    external = random_external(rng)
    for order in ((0, 1), (1, 0)):
        classes = [random_cascade_class(rng, external, 2, values) for values in
                   ((0, 1), (False, True))]
        members = [m for i in order for m in itertools.islice(classes[i], 6)]
        points = random_points(rng, external)
        got = class_outputs(members, points)
        assert len(got.values) <= 2
        assert type(got.values[0]) is (int, bool)[order[0]]  # the first member's
        assert_same(got, called(members, points))


@pytest.mark.parametrize("points", [[], [(("e1",),)] * 3], ids=["no points", "one point thrice"])
def test_edge_point_lists_match_the_per_call_loop(points):
    members = list(SequenceTaskFamily(2))
    got = class_outputs(members, points)
    assert got.matrix.shape == (68, len(points)) and got.points == tuple(points)
    assert_same(got, called(members, points))


@pytest.mark.parametrize("d", [2, 3])
def test_the_family_universe_matches_the_per_call_loop(d):
    family = SequenceTaskFamily(d)
    letters = list(family.external.letters())
    universe = [s for n in range(1, 4) for s in itertools.product(letters, repeat=n)]
    members = list(family)
    if d == 3:  # every twentieth member keeps the per-call reference quick
        members = members[::20]
    assert_same(class_outputs(members, universe), called(members, universe))


# ---------------------------------------------------------------------------
# What takes the per-call loop, and errors.
# ---------------------------------------------------------------------------


class Recorded(Cascade):
    """A cascade whose ``run`` records its calls."""

    calls = 0

    def run(self, string):
        Recorded.calls += 1
        return super().run(string)

    __call__ = run


def test_a_subclass_overriding_run_is_called_per_point(monkeypatch):
    rng = random.Random(8)
    external = random_external(rng)
    members = [Recorded(m.components) for m in random_members(rng, external, 2)]
    points = random_points(rng, external)
    monkeypatch.setattr(Recorded, "calls", 0)
    got = class_outputs(members, points)
    assert Recorded.calls == len(members) * len(points)
    assert_same(got, called(members, points))


def test_a_list_holding_a_lambda_is_called_per_point(monkeypatch):
    rng = random.Random(9)
    external = random_external(rng)
    members = random_members(rng, external, 2)
    points = random_points(rng, external)
    functions = [*members, lambda s: members[0](s)]

    def refuse(*args):
        raise AssertionError("stepped together")

    monkeypatch.setattr(cascade_module, "stacked_output_matrix", refuse)
    got = class_outputs(functions, points)
    assert all(m._memo_size > 0 for m in members)
    assert_same(got, called(functions, points))


def test_members_over_two_alphabets_or_depths_are_called_per_point():
    rng = random.Random(10)
    external = random_external(rng)
    twin = FactoredAlphabet(external.coords)  # equal coordinates, another object
    points = random_points(rng, external)
    for other in (random_members(rng, twin, 2), random_members(rng, external, 3)):
        members = random_members(rng, external, 2) + other
        assert stacked_output_matrix(members, points) is None
        got = class_outputs(members, points)
        assert all(m._memo_size > 0 for m in members)
        assert_same(got, called(members, points))


def bad_points(letters) -> dict:
    a, b = letters[0], letters[-1]
    return {
        "unknown letter": [(a,), (a, b), (a, ("nope",)), (), (b,)],
        "empty string": [(a, b), (), (a, ("nope",))],
        "letter of another arity": [(b,), (a + a,)],
        "no string": [(a,), 5],
        "unhashable letter": [(a,), (a, [0])],
        "letter that is a bare value": [(a,), "ab"],
    }


@pytest.mark.parametrize("case", list(bad_points([("x",)])))
def test_rejected_points_raise_the_per_call_loops_error(case):
    family = SequenceTaskFamily(2)
    points = bad_points(list(family.external.letters()))[case]
    got = outcome(lambda: class_outputs(list(family), points))
    assert isinstance(got, tuple) and issubclass(got[0], Exception)
    assert got == outcome(lambda: called(list(family), points))


# ---------------------------------------------------------------------------
# Wirings are shared.
# ---------------------------------------------------------------------------


def test_each_component_is_wired_once(monkeypatch):
    built = []
    wiring = cascade_module._Wiring

    def counted(comp):
        built.append(comp)
        return wiring(comp)

    monkeypatch.setattr(cascade_module, "_Wiring", counted)
    family = SequenceTaskFamily(2)
    members = list(family)
    for m in members:
        m([("e1",), ("e2",)])
    assert len(built) == len(set(built)) == 21  # 4 watchers and 17 goals, not 136
    letters = list(family.external.letters())
    points = [s for n in (1, 2) for s in itertools.product(letters, repeat=n)]
    class_outputs(members, points)
    assert len(built) == 21
    same_goal = [m for m in members if m.components[1] is members[0].components[1]]
    assert len(same_goal) == 4
    assert all(m._wiring[1] is members[0]._wiring[1] for m in same_goal)
    # a second iteration holds the first one's components, so it wires none
    again = list(family)
    assert all(a is b for m, n in zip(members, again, strict=True)
               for a, b in zip(m.components, n.components, strict=True))
    for m in again:
        m([("e1",), ("e2",)])
    assert_same(class_outputs(again, points), called(members, points))
    assert len(built) == 21  # not 42


# ---------------------------------------------------------------------------
# Searches read a class's outputs in place of its functions.
# ---------------------------------------------------------------------------


def letter_functions(rng: random.Random, values: tuple) -> tuple[list, list]:
    """Table functions or monotone DNFs over a random signature, and
    letters of it, some repeated."""
    signature = random_external(rng)
    letters = list(signature.letters())
    if rng.random() < 0.5:
        functions = [TableFunction(signature, tuple(rng.choices(values, k=len(letters))))
                     for _ in range(rng.randint(1, 30))]
    else:
        view = BooleanView(signature)
        functions = [MonotoneDnf(view, tuple(rng.randrange(2**view.n_variables)
                                             for _ in range(rng.randint(0, 3))),
                                 *rng.sample(values, 2))
                     for _ in range(rng.randint(1, 30))]
    return functions, rng.choices(letters, k=rng.randint(1, 12))


def search_class(seed: int) -> tuple:
    """A seeded class over two or three output values, with its universe
    and values: cascade members, lambdas over tables of the points, or
    letter functions, by ``seed % 3``."""
    rng = random.Random(seed)
    values = ("g0", "g1", "g2")[:rng.choice([2, 3])]
    if seed % 3 == 0:
        external, depth = random_external(rng), rng.randint(1, 2)
        members = [m for _ in range(3) for m in itertools.islice(
            random_cascade_class(rng, external, depth, values), 40)]
        return members, random_points(rng, external), values
    if seed % 3 == 1:
        points = [f"x{i}" for i in range(rng.randint(1, 12))]
        tables = [{x: rng.choice(values) for x in points} for _ in range(rng.randint(1, 40))]
        return [t.__getitem__ for t in tables], points, values
    return (*letter_functions(rng, values), values)


def searches(source, universe: list, values: tuple) -> dict:
    """Every search's report on the class, or the error it raised."""
    reports = {f"growth {ell}": outcome(lambda: empirical_growth(source, universe, ell))
               for ell in range(4)}
    reports["heuristic"] = outcome(lambda: empirical_growth(source, universe, 3,
                                                            mode="heuristic", restarts=40, seed=7))
    reports["capped growth"] = outcome(lambda: empirical_growth(source, universe, 3, cap=20,
                                                                restarts=30, seed=2))
    reports["vc"] = outcome(lambda: vc_dimension(source, universe))
    reports["capped vc"] = outcome(lambda: vc_dimension(source, universe, 8 * len(universe)))
    for outputs in (values[:2], (*values[:2], "other"), values):
        reports[outputs] = outcome(lambda: class_dimension(source, universe, outputs))
    reports["graph"] = outcome(lambda: graph_dimension(source, universe, values[:1]))
    return reports


@pytest.mark.parametrize("seed", range(30))
def test_searches_on_the_class_outputs_report_what_searches_on_the_functions_do(
        seed, monkeypatch):
    functions, universe, values = search_class(seed)
    expected = searches(functions, universe, values)
    assert not all(isinstance(r[0], type) for r in expected.values())  # not every one raised
    calls, stepped = _kernel_calls(monkeypatch), []
    counted = [lambda x, f=f: stepped.append(x) or f(x) for f in functions]
    source = counted if seed % 3 == 1 else functions  # lambdas counted; the rest are not called
    table = class_outputs(source, universe)
    steps = (len(calls), len(stepped))
    assert steps == [(1, 0), (0, len(functions) * len(universe)), (0, 0)][seed % 3]

    def refuse(*args):
        raise AssertionError("the class was read again")

    monkeypatch.setattr(complexity, "class_outputs", refuse)
    assert searches(table, universe, values) == expected
    assert (len(calls), len(stepped)) == steps
    assert all(m._memo_size == 0 for m in functions if isinstance(m, Cascade))  # never run
    assert table.points == tuple(universe)
    assert_same(table, called(functions, universe))


def test_a_search_on_outputs_read_on_other_points_raises():
    family = SequenceTaskFamily(2)
    members = list(family)
    points = [(a,) for a in family.external.letters()]
    table = class_outputs(members, points)
    outputs = ("set", "read")
    for universe in (points[::-1], points[:-1], points + points[:1], [list(x) for x in points]):
        for search in (lambda: empirical_growth(table, universe, 1),
                       lambda: empirical_growth(table, universe, 2, mode="heuristic"),
                       lambda: vc_dimension(table, universe),
                       lambda: class_dimension(table, universe, outputs),
                       lambda: graph_dimension(table, universe, (*outputs, "other"))):
            with pytest.raises(ValueError, match="other points than the universe"):
                search()
    # equal points in another sequence are the same universe
    assert empirical_growth(table, tuple(points), 2) == empirical_growth(members, points, 2)


def test_the_class_outputs_cannot_be_changed():
    members = list(SequenceTaskFamily(2))
    table = class_outputs(members, [(("e1",),), (("e2",), ("e1",))])
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[0, 0] = 5
    for field in ("matrix", "values", "points"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(table, field, None)


def test_a_million_state_counter_numbers_only_the_values_reached():
    # numbering all 1,000,000 output values of the counter peaks near 88 MB;
    # the four points reach three of them
    members = [cascade_from_spec(million_state_counter_spec())]
    points = [(("tick",),) * 3, (("idle",), ("tick",)), (("tick",),), (("tick",),) * 4]
    tracemalloc.start()
    try:
        got = class_outputs(members, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert_same(got, called(members, points))
    assert list(got.values) == [2, 0, 3]
