import itertools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascata.alphabets import (
    BooleanView,
    FactoredAlphabet,
    MonotoneDnfClass,
    Projection,
    TableClass,
    TableFunction,
    ThresholdClass,
    enumerate_class,
    projection_count,
)
from cascata.errors import ArityMismatchError, CapExceededError, UnknownLetterError


ABC = FactoredAlphabet.of(("first", ("a",)), ("second", ("b",)), ("third", ("c",)))


def test_project_basic():
    p = Projection(3, (1, 3))
    assert p(("a", "b", "c")) == ("a", "c")


def test_project_identity():
    p = Projection(3, (1, 2, 3))
    assert p(("a", "b", "c")) == ("a", "b", "c")


def test_project_singleton():
    p = Projection(2, (2,))
    assert p(("wood", 1)) == (1,)


def test_project_arity_mismatch_names_expected_and_actual():
    p = Projection(3, (1,))
    with pytest.raises(ArityMismatchError) as err:
        p(("a", "b"))
    assert err.value.expected == 3
    assert err.value.actual == 2


def test_projection_indices_sorted_and_bounded():
    assert Projection(4, (3, 1)).indices == (1, 3)
    with pytest.raises(ValueError):
        Projection(2, (0,))
    with pytest.raises(ValueError):
        Projection(2, (3,))


def test_projection_count_values():
    assert projection_count(5, 2) == 10
    assert projection_count(7, 0) == 1
    assert projection_count(9, 5) == 126


def test_projection_count_rejects_degree_above_arity():
    with pytest.raises(ValueError):
        projection_count(3, 4)


@given(st.integers(0, 12), st.integers(0, 12))
def test_projection_count_symmetry(a, m):
    if m > a:
        return
    assert projection_count(a, m) == projection_count(a, a - m)


def test_alphabet_project_builds_each_projection_once():
    projected = ABC.project([3, 1, 3])
    assert projected.coords == (ABC.coords[0], ABC.coords[2])
    assert ABC.project((1, 3)) is projected
    for bad in ((), (0, 1), (4,)):
        with pytest.raises(ValueError):
            ABC.project(bad)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_project_preserves_values_and_length(data):
    arity = data.draw(st.integers(1, 5))
    letter = tuple(data.draw(st.integers(0, 9)) for _ in range(arity))
    indices = data.draw(st.sets(st.integers(1, arity), min_size=0, max_size=arity))
    p = Projection(arity, tuple(indices))
    out = p(letter)
    assert len(out) == p.degree
    for pos, j in enumerate(p.indices):
        assert out[pos] == letter[j - 1]


def test_alphabet_membership_and_errors():
    assert ("a", "b", "c") in ABC
    assert ("a", "b", "x") not in ABC
    with pytest.raises(UnknownLetterError) as err:
        ABC.check(("a", "b", "x"))
    assert err.value.position == 2


def _random_alphabet(rng: random.Random) -> FactoredAlphabet:
    """Boolean coordinates in either value order mixed with one-hot ones."""
    coords = []
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(["bool", "flipped", "onehot"])
        if kind == "bool":
            values = (0, 1)
        elif kind == "flipped":
            values = (1, 0)
        else:
            values = tuple(rng.sample(["a", "b", "c", 7, 9], rng.randint(1, 4)))
        coords.append((f"c{i}", values))
    return FactoredAlphabet.of(*coords)


@pytest.mark.parametrize("seed", range(12))
def test_index_numbers_letters_in_order_and_encode_gives_value_positions(seed):
    alphabet = _random_alphabet(random.Random(seed))
    letters = list(alphabet.letters())
    assert [alphabet.index(x) for x in letters] == list(range(alphabet.n_letters))
    for x in letters:
        assert alphabet.encode(x) == [c.values.index(v) for c, v in zip(alphabet.coords, x)]


@pytest.mark.parametrize("letter", [["a", "b", "c"], "abc", ("a", "b"), ("a", "b", "x")])
def test_encode_and_index_raise_what_check_raises(letter):
    with pytest.raises((ArityMismatchError, UnknownLetterError)) as want:
        ABC.check(letter, "here")
    for method in (ABC.encode, ABC.index):
        with pytest.raises(type(want.value)) as got:
            method(letter, "here")
        assert str(got.value) == str(want.value)


def _reference_mask(signature, letter) -> int:
    """One bit per boolean-view variable, in the view's variable order."""
    bits = []
    for coord, v in zip(signature.coords, letter):
        if coord.is_boolean:
            bits.append(v == 1)
        else:
            bits.extend(v == u for u in coord.values)
    return sum(1 << i for i, on in enumerate(bits) if on)


@pytest.mark.parametrize("seed", range(12))
def test_boolean_view_encode_matches_per_variable_reference(seed):
    alphabet = _random_alphabet(random.Random(seed))
    view = BooleanView(alphabet)
    for x in alphabet.letters():
        assert view.encode(x) == _reference_mask(alphabet, x)
    assert view.n_variables == sum(1 if c.is_boolean else len(c.values)
                                   for c in alphabet.coords)


def test_boolean_view_flipped_boolean_sets_its_bit_on_one():
    view = BooleanView(FactoredAlphabet.of(("flag", (1, 0)), ("event", ("a", "b"))))
    assert view.variables == ("flag", "event=a", "event=b")
    assert view.encode((1, "b")) == 0b101
    assert view.encode((0, "a")) == 0b010


def test_table_function_reads_values_in_letter_order():
    values = tuple(range(BOOL2.n_letters))
    fn = TableFunction(BOOL2, values)
    assert [fn(x) for x in BOOL2.letters()] == list(values)
    with pytest.raises(UnknownLetterError):
        fn((0, 2))
    with pytest.raises(ValueError):
        TableFunction(BOOL2, values[1:])


def test_table_class_function_at_matches_iteration():
    cls = TableClass(FactoredAlphabet.of(("x", (0, 1)), ("y", ("a", "b", "c"))), (0, 1, 2))
    for i, fn in enumerate(itertools.islice(cls, 0, None, 37)):
        assert cls.member(37 * i) == fn
    assert cls.member(1).values == (0,) * 5 + (1,)


# ---------------------------------------------------------------------------
# Cardinality and enumeration.
# ---------------------------------------------------------------------------

BOOL2 = FactoredAlphabet.of(("x", (0, 1)), ("y", (0, 1)))


def truth_table(fn, signature):
    return tuple(fn(x) for x in signature.letters())


def test_table_class_cardinality():
    cls = TableClass(BOOL2, (0, 1))
    assert cls.cardinality == 16


def test_table_class_enumeration_distinct():
    cls = TableClass(BOOL2, (0, 1))
    fns = list(enumerate_class(cls))
    assert len(fns) == 16
    assert len({truth_table(f, BOOL2) for f in fns}) == 16


def brute_force_dnf_count(n, max_terms):
    """Independent oracle: all syntactic DNFs of at most max_terms non-empty
    terms plus the empty term, deduplicated by truth table over {0,1}^n."""
    terms = list(range(1, 2**n))

    def table(term_set):
        return tuple(
            any(t & mask == t for t in term_set) for mask in range(2**n)
        )

    tables = {table([0])}
    for size in range(1, max_terms + 1):
        for combo in itertools.combinations(terms, size):
            tables.add(table(combo))
    return len(tables)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_dnf_cardinality_matches_brute_force(n, k):
    sig = FactoredAlphabet.of(*((f"v{i}", (0, 1)) for i in range(n)))
    cls = MonotoneDnfClass(sig, k)
    assert cls.cardinality == brute_force_dnf_count(n, k)
    fns = list(cls)
    assert len(fns) == cls.cardinality
    # pairwise distinct as functions on the full boolean assignment space
    assert len({truth_table(f, sig) for f in fns}) == cls.cardinality


@pytest.mark.parametrize("n", range(1, 13))
def test_single_terms_follow_the_sorted_variable_lists(n):
    cls = MonotoneDnfClass(FactoredAlphabet.single("event", [f"e{i}" for i in range(n)]), 1)
    assert cls.n_variables == n
    assert cls._single_terms == tuple(sorted(range(1, 2**n), key=MonotoneDnfClass._term_key))


def test_one_term_dnf_over_three_variables_counts_eight():
    sig = FactoredAlphabet.of(*((f"v{i}", (0, 1)) for i in range(3)))
    assert MonotoneDnfClass(sig, 1).cardinality == 8


def test_one_term_dnf_over_two_variables_is_true_v1_v2_and():
    sig = FactoredAlphabet.of(("v1", (0, 1)), ("v2", (0, 1)))
    fns = list(MonotoneDnfClass(sig, 1))
    tables = {truth_table(f, sig) for f in fns}
    # inputs in product order: (0,0), (0,1), (1,0), (1,1)
    assert tables == {
        (1, 1, 1, 1),  # constant true
        (0, 0, 1, 1),  # v1
        (0, 1, 0, 1),  # v2
        (0, 0, 0, 1),  # v1 and v2
    }


def test_two_term_dnf_over_nine_variables_frozen_count():
    sig = FactoredAlphabet.of(*((f"v{i}", (0, 1)) for i in range(9)))
    cls = MonotoneDnfClass(sig, 2)
    assert cls.cardinality == 112157
    assert math.log2(cls.cardinality) <= math.log2(math.e**2 * 2**16)


def test_dnf_rejects_more_than_two_terms():
    sig = FactoredAlphabet.of(("v", (0, 1)))
    with pytest.raises(ValueError):
        MonotoneDnfClass(sig, 3)


def test_enumeration_is_deterministic():
    sig = FactoredAlphabet.of(*((f"v{i}", (0, 1)) for i in range(3)))
    cls = MonotoneDnfClass(sig, 2)
    first = [f.terms for f in cls]
    second = [f.terms for f in cls]
    assert first == second
    assert [cls.member(i).terms for i in range(cls.cardinality)] == first


def test_enumeration_cap_error_carries_cardinality():
    cls = TableClass(FactoredAlphabet.of(("x", tuple(range(8)))), (0, 1))
    with pytest.raises(CapExceededError) as err:
        list(enumerate_class(cls, cap=100))
    assert err.value.size == 256


def test_threshold_class_members_distinct_and_counted():
    sig = FactoredAlphabet.of(("wood", tuple(range(4))), ("iron", (0, 1, 2)))
    cls = ThresholdClass(sig)
    fns = list(enumerate_class(cls))
    # one choice per domain value: unconstrained plus each value above the
    # minimum (an at-least-minimum test is extensionally unconstrained)
    assert cls.cardinality == 4 * 3 == len(fns)
    assert len({truth_table(f, sig) for f in fns}) == cls.cardinality


def test_threshold_function_example():
    sig = FactoredAlphabet.of(("wood", tuple(range(16))),)
    cls = ThresholdClass(sig)
    at_least_13 = next(f for f in cls if f.thresholds == (13,))
    assert at_least_13((13,)) == 1
    assert at_least_13((12,)) == 0


def test_threshold_class_rejects_symbolic_domains():
    with pytest.raises(ValueError):
        ThresholdClass(FactoredAlphabet.of(("x", ("a", "b"))))


def test_boolean_view_one_hot_accounting():
    # d event values one-hot plus d-1 boolean outputs: 2d-1 variables
    d = 5
    sig = FactoredAlphabet.single("event", tuple(f"e{i}" for i in range(d)))
    for i in range(d - 1):
        sig = sig.extend(f"task{i}", (0, 1))
    assert BooleanView(sig).n_variables == 2 * d - 1


def test_boolean_view_encoding():
    sig = FactoredAlphabet.of(("event", ("a", "b")), ("flag", (0, 1)))
    view = BooleanView(sig)
    assert view.variables == ("event=a", "event=b", "flag")
    assert view.encode(("b", 1)) == 0b110


def test_extend_hands_out_one_object_per_extension():
    base = FactoredAlphabet.single("event", ("x", "y"))
    chained = base.extend("k", (0, 1))
    assert base.extend("k", [0, 1]) is chained
    assert chained == FactoredAlphabet.of(("event", ("x", "y")), ("k", (0, 1)))
    # equal values of other types, or another name, make another extension
    assert base.extend("k", (False, True)) is not chained
    assert base.extend("k", (False, True)).coords[-1].values == (False, True)
    assert base.extend("j", (0, 1)) is not chained
    with pytest.raises(ValueError):
        base.extend("event", (0, 1))


def test_threads_racing_on_one_alphabet_get_the_same_extension_and_projection():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            base = FactoredAlphabet.of(("a", (0, 1)), ("b", (0, 1, 2)))
            barrier, seen = threading.Barrier(8), []

            def race():
                barrier.wait()
                seen.append((base.extend("k", (0, 1)), base.project((2,))))

            threads = [threading.Thread(target=race) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and len(seen) == 8
            assert all(e is seen[0][0] and p is seen[0][1] for e, p in seen)
    finally:
        sys.setswitchinterval(interval)
