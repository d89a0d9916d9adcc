"""The output table of letter-function classes (``complexity.class_outputs``),
read from the functions' definitions (``alphabets.letter_reader``), against
calling each function once per point.

A list of ``MonotoneDnf`` over one boolean view is read from its terms and
a list of ``TableFunction`` over one signature from its values, each letter
encoded once.  The matrix and the output values must be those of the
per-call loop, the values' order and types included; any other list is
called.
Both, and each function's ``__call__``, must give the values that the
functions' definitions give, read here by variable names and letter
positions.
"""

import random

import pytest

from cascata import complexity
from cascata.alphabets import (BooleanView, FactoredAlphabet, MonotoneDnf, TableFunction,
                               letter_reader)

from test_stacked_outputs import assert_same, called, outcome

#: Output values, among them ``1`` beside ``True`` and ``0`` beside ``False``.
VALUES = (1, True, 0, False, "set", "read", 2)


LETTER_FUNCTIONS = (MonotoneDnf, TableFunction)


@pytest.fixture
def calls(monkeypatch) -> list:
    """Records, from now on, every letter each letter function is called on."""
    recorded = []
    for cls in LETTER_FUNCTIONS:
        def counted(self, letter, call=cls.__call__):
            recorded.append(letter)
            return call(self, letter)

        monkeypatch.setattr(cls, "__call__", counted)
    return recorded


def random_signature(rng: random.Random) -> FactoredAlphabet:
    """One to three coordinates, each boolean ({0, 1}, in either order) or
    one-hot over two to four named values."""
    coords = []
    for i in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            coords.append((f"b{i}", rng.choice([(0, 1), (1, 0)])))
        else:
            coords.append((f"c{i}", tuple(f"v{i}{j}" for j in range(rng.randint(2, 4)))))
    return FactoredAlphabet.of(*coords)


def random_letters(rng: random.Random, signature: FactoredAlphabet) -> list:
    """Letters of the signature, some repeated, in random order."""
    letters = list(signature.letters())
    points = rng.sample(letters, rng.randint(1, len(letters)))
    return points + rng.choices(points, k=rng.randint(0, 3))


def random_dnfs(rng: random.Random, view: BooleanView) -> list:
    """Monotone DNFs of zero to three terms over the view, the empty term
    (constant true) among them, with random output values."""
    n = view.n_variables
    functions = []
    for _ in range(rng.randint(1, 30)):
        terms = tuple(0 if rng.random() < 0.1 else rng.randrange(1, 2**n)
                      for _ in range(rng.randint(0, 3)))
        on_true, on_false = rng.sample(VALUES, 2)
        functions.append(MonotoneDnf(view, terms, on_true, on_false))
    return functions


def random_tables(rng: random.Random, signature: FactoredAlphabet) -> list:
    values = rng.sample(VALUES, rng.randint(1, 4))
    return [TableFunction(signature, tuple(rng.choice(values) for _ in range(signature.n_letters)))
            for _ in range(rng.randint(1, 30))]


def defined(f, letter):
    """The function's value on the letter by its definition: a table
    function's at the letter's position among the signature's letters; a
    monotone DNF's ``on_true`` when every variable of some term is on, a
    boolean coordinate's variable when its value is 1 and a one-hot one
    when it is the coordinate's value."""
    if isinstance(f, TableFunction):
        return f.values[list(f.signature.letters()).index(letter)]
    on = {coord.name if coord.is_boolean else f"{coord.name}={v}"
          for coord, v in zip(f.view.signature.coords, letter)
          if not coord.is_boolean or v == 1}
    return f.on_true if any(set(term) <= on for term in f.term_names()) else f.on_false


def by_definition(functions, points):
    """The per-call loop's matrix and codes, each value read by ``defined``."""
    return called([lambda x, f=f: defined(f, x) for f in functions], points)


@pytest.mark.parametrize("seed", range(40))
def test_monotone_dnfs_are_read_as_the_per_call_loop_reads_them(seed, calls):
    rng = random.Random(seed)
    signature = random_signature(rng)
    functions = random_dnfs(rng, BooleanView(signature))
    if seed % 2:  # an equal view of another object reads alike
        functions += random_dnfs(rng, BooleanView(FactoredAlphabet(signature.coords)))
    points = random_letters(rng, signature)
    assert letter_reader(functions) is not None
    got = complexity.class_outputs(functions, points)
    assert not calls  # read, not called
    assert_same(got, called(functions, points))
    assert_same(got, by_definition(functions, points))


@pytest.mark.parametrize("seed", range(40))
def test_table_functions_are_read_as_the_per_call_loop_reads_them(seed, calls):
    rng = random.Random(seed)
    signature = random_signature(rng)
    functions = random_tables(rng, signature)
    points = random_letters(rng, signature)
    assert letter_reader(functions) is not None
    got = complexity.class_outputs(functions, points)
    assert not calls  # read, not called
    assert_same(got, called(functions, points))
    assert_same(got, by_definition(functions, points))


def test_true_and_one_share_a_code_keyed_by_the_first_met():
    signature = FactoredAlphabet.of(("event", ("a", "b")))
    view = BooleanView(signature)
    a = 1 << view.bit_of("event=a")
    for first, second in ((True, 1), (1, True)):
        functions = [MonotoneDnf(view, (a,), first, "no"), MonotoneDnf(view, (0,), second, "no")]
        table = complexity.class_outputs(functions, [("b",), ("a",)])
        # on "b" the first function is false and the constant-true second
        # gives ``second``; on "a" the first gives ``first``, which shares its code
        assert table.matrix.tolist() == [[0, 1], [1, 1]]
        assert [(type(v), v) for v in table.values] == [(str, "no"), (type(second), second)]


def test_other_lists_are_called_once_per_point(calls):
    # views and signatures over one coordinate, the second with a value
    # more; the points are letters of both
    narrow, wide = (FactoredAlphabet.of(("event", values)) for values in (("a", "b"),
                                                                          ("a", "b", "c")))
    rng = random.Random(3)
    dnfs, tables = random_dnfs(rng, BooleanView(narrow)), random_tables(rng, narrow)
    lists = [dnfs + random_dnfs(rng, BooleanView(wide)),
             tables + random_tables(rng, wide),
             dnfs + [lambda x: "set"],
             tables + [lambda x: "set"],
             dnfs + tables,
             tables + dnfs]
    points = [("b",), ("a",), ("b",)]
    for functions in lists:
        assert letter_reader(functions) is None
        calls.clear()
        assert_same(complexity.class_outputs(functions, points), called(functions, points))
        # each letter function was called once per point, and as often by the reference
        assert len(calls) == 2 * len(points) * sum(isinstance(f, LETTER_FUNCTIONS)
                                                   for f in functions)


@pytest.mark.parametrize("kind", ["dnf", "table"])
def test_a_letter_outside_the_signature_raises_what_the_first_function_raises(kind):
    rng = random.Random(7)
    signature = random_signature(rng)
    functions = (random_dnfs(rng, BooleanView(signature)) if kind == "dnf"
                 else random_tables(rng, signature))
    letters = list(signature.letters())
    unknown = ("nope",) * signature.arity
    for bad in [unknown, letters[0] + letters[0], "x", (), (*letters[0][:-1], [0]), 5]:
        points = [letters[0], bad, letters[-1]]
        got = outcome(lambda: complexity.class_outputs(functions, points))
        assert isinstance(got, tuple) and issubclass(got[0], Exception)
        assert got == outcome(lambda: functions[0](bad))
        assert got == outcome(lambda: called(functions, points))
