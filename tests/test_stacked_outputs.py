"""The certification searches' output matrix, built by stepping cascade
members together (``cascade.stacked_output_matrix``), against calling each
member once per point.

The reference is the per-call loop ``complexity._output_matrix`` ran for
every class before cascades were stepped together: points outer, members
inner, outputs numbered by first occurrence.  Matrices and code dicts must
be identical, the dicts' order and key types included.  The random cases
are also checked against the expression-tree oracle
(``functional.cascade_function``), which reads no wiring.  A call on the
same members and points returns the kept matrix, and any other call steps
its members again.
"""

import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from cascata import cascade as cascade_module
from cascata import complexity
from cascata.alphabets import FactoredAlphabet
from cascata.automata import ComponentAutomaton
from cascata.cascade import Cascade, stacked_output_matrix
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


def assert_same(got, expected):
    (matrix, code), (matrix_expected, code_expected) = got, expected
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
    got = complexity._output_matrix(members, points)
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
    got = complexity._output_matrix([getattr(m, bound) for m in members], points)
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
        got = complexity._output_matrix(members, points)
        assert len(got[1]) <= 2
        assert type(next(iter(got[1]))) is (int, bool)[order[0]]  # the first member's
        assert_same(got, called(members, points))


@pytest.mark.parametrize("points", [[], [(("e1",),)] * 3], ids=["no points", "one point thrice"])
def test_edge_point_lists_match_the_per_call_loop(points):
    members = list(SequenceTaskFamily(2))
    got = complexity._output_matrix(members, points)
    assert got[0].shape == (68, len(points))
    assert_same(got, called(members, points))


@pytest.mark.parametrize("d", [2, 3])
def test_the_family_universe_matches_the_per_call_loop(d):
    family = SequenceTaskFamily(d)
    letters = list(family.external.letters())
    universe = [s for n in range(1, 4) for s in itertools.product(letters, repeat=n)]
    members = list(family)
    if d == 3:  # every twentieth member keeps the per-call reference quick
        members = members[::20]
    assert_same(complexity._output_matrix(members, universe), called(members, universe))


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
    got = complexity._output_matrix(members, points)
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
    got = complexity._output_matrix(functions, points)
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
        got = complexity._output_matrix(members, points)
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
    got = outcome(lambda: complexity._output_matrix(list(family), points))
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
    complexity._output_matrix(members, [s for n in (1, 2) for s in
                                        itertools.product(letters, repeat=n)])
    assert len(built) == 21
    same_goal = [m for m in members if m.components[1] is members[0].components[1]]
    assert len(same_goal) == 4
    assert all(m._wiring[1] is members[0]._wiring[1] for m in same_goal)


# ---------------------------------------------------------------------------
# The last matrix is kept.
# ---------------------------------------------------------------------------


def test_a_repeated_call_steps_its_members_once(monkeypatch):
    rng = random.Random(11)
    external = random_external(rng)
    members = random_members(rng, external, 2)
    points = random_points(rng, external)
    calls = _kernel_calls(monkeypatch)
    first = complexity._output_matrix(members, points)
    # the same components in new cascades, and the points as other sequences
    again = [complexity._output_matrix(members, points),
             complexity._output_matrix([Cascade(m.components) for m in members], points),
             complexity._output_matrix(list(members), [list(x) for x in points])]
    assert len(calls) == 1
    for got in again:
        assert_same(got, first)
    assert_same(first, called(members, points))


def test_other_members_or_points_are_stepped_again(monkeypatch):
    def members_and_points(seed: int) -> tuple:
        rng = random.Random(seed)
        external = random_external(rng)
        members = random_members(rng, external, 3) + random_members(rng, external, 3)
        return members, random_points(rng, external)

    members, points = members_and_points(12)
    calls = _kernel_calls(monkeypatch)
    complexity._output_matrix(members, points)
    rebuilt, same_points = members_and_points(12)  # the same specs, fresh components
    assert same_points == points
    # each case differs from the one before it, so each is stepped afresh
    cases = [(members, points[::-1] + [points[0] + points[-1]]),
             (members[::-1], points),
             (members[:len(members) // 2 + 1], points),
             (rebuilt, points)]
    for n, (functions, strings) in enumerate(cases, start=2):
        assert_same(complexity._output_matrix(functions, strings), called(functions, strings))
        assert len(calls) == n


def test_a_fresh_iteration_of_a_class_is_stepped_again(monkeypatch):
    family = SequenceTaskFamily(2)
    letters = list(family.external.letters())
    points = [s for n in (1, 2) for s in itertools.product(letters, repeat=n)]
    calls = _kernel_calls(monkeypatch)
    first = complexity._output_matrix(list(family), points)
    second = complexity._output_matrix(list(family), points)
    assert len(calls) == 2
    assert_same(second, first)


def test_the_kept_matrix_cannot_be_written_nor_its_codes_changed():
    family = SequenceTaskFamily(2)
    members = list(family)
    points = [(a,) for a in family.external.letters()]
    matrix, code = complexity._output_matrix(members, points)
    expected = (matrix.copy(), dict(code))
    for _ in range(2):  # the first result, then the kept one
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 5
        code.clear()
        code["spoiled"] = 7
        matrix, code = complexity._output_matrix(members, points)
        assert_same((matrix, code), expected)


def test_the_kept_matrix_keeps_no_component_alive(monkeypatch):
    family = SequenceTaskFamily(2)
    letters = list(family.external.letters())
    points = [s for n in (1, 2) for s in itertools.product(letters, repeat=n)]
    members = list(family)
    expected = called(members, points)
    calls = _kernel_calls(monkeypatch)
    complexity._output_matrix(members, points)
    components = [weakref.ref(comp) for member in members for comp in member.components]
    del members
    gc.collect()
    assert not any(ref() for ref in components)
    assert_same(complexity._output_matrix(list(family), points), expected)
    assert len(calls) == 2


@pytest.mark.parametrize("case", list(bad_points([("x",)])))
def test_rejected_points_raise_on_every_call_after_a_kept_matrix(case):
    family = SequenceTaskFamily(2)
    members = list(family)
    letters = list(family.external.letters())
    points = bad_points(letters)[case]
    expected = outcome(lambda: called(members, points))
    good = [x for x in points if isinstance(x, tuple) and x and all(a in letters for a in x)]
    complexity._output_matrix(members, good)  # kept, then asked for a rejected point
    for _ in range(2):
        assert outcome(lambda: complexity._output_matrix(members, points)) == expected
    assert_same(complexity._output_matrix(members, good), called(members, good))


def test_a_million_state_counter_numbers_only_the_values_reached():
    # numbering all 1,000,000 output values of the counter peaks near 88 MB;
    # the four points reach three of them
    members = [cascade_from_spec(million_state_counter_spec())]
    points = [(("tick",),) * 3, (("idle",), ("tick",)), (("tick",),), (("tick",),) * 4]
    tracemalloc.start()
    try:
        got = complexity._output_matrix(members, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert_same(got, called(members, points))
    assert list(got[1]) == [2, 0, 3]
