import itertools
import math
import random

import pytest

from cascata.alphabets import FactoredAlphabet, TableClass
from cascata.complexity import (
    ClassDescriptor,
    ComponentClassSpec,
    binarize,
    cardinality_bound_automata,
    cardinality_bound_cascade,
    class_dimension,
    dimension_bound_automata,
    dimension_bound_cascade,
    empirical_growth,
    graph_dimension,
    growth_bound_automata,
    growth_bound_cascade,
    haussler_growth_bound,
    sample_bound_dimension,
    sample_bound_finite,
    vc_dimension,
    verify_growth_propositions,
)

from helpers import pattern_count


def spec(arity=1, degree=1, phi=1, delta=1, theta=1, pi=2, gamma=2, **kw):
    return ComponentClassSpec(arity, degree, phi, delta, theta, pi, gamma, **kw)


# ---------------------------------------------------------------------------
# Cardinality and sample bounds.
# ---------------------------------------------------------------------------


def test_cardinality_bound_formula():
    assert cardinality_bound_automata(spec(arity=2, degree=1, phi=3)) == 6


def test_cardinality_bound_matches_single_alphabet_specialization():
    # non-factored input, identity input function, all cores on k letters and
    # n states, all indicator output functions
    k, n = 2, 3
    s = spec(arity=1, degree=1, phi=1, delta=n ** (k * n), theta=2**n, pi=k, gamma=2)
    assert cardinality_bound_automata(s) == n ** (k * n) * 2**n


def test_enumerated_distinct_automata_within_bound():
    from cascata.automata import ComponentAutomaton
    from cascata.primes import make_flipflop

    external = FactoredAlphabet.single("e", ("a", "b"))
    phi_class = TableClass(external, ("set", "read"))
    automata = [
        ComponentAutomaton(external, (1,), phi, make_flipflop(with_reset=False),
                           output_fn="state")
        for phi in phi_class
    ]
    strings = [
        s for length in range(1, 5)
        for s in itertools.product(external.letters(), repeat=length)
    ]
    behaviors = {tuple(a.induce().run(s) for s in strings) for a in automata}
    bound = cardinality_bound_automata(
        spec(arity=1, degree=1, phi=phi_class.cardinality)
    )
    assert len(behaviors) <= bound


def test_cascade_bound_reduces_to_automata_at_depth_one():
    s = spec(arity=2, degree=1, phi=5, delta=2, theta=3)
    desc = ClassDescriptor((s,), max_len=4)
    assert cardinality_bound_cascade(desc) == cardinality_bound_automata(s)


def test_cascade_bound_multiplies_and_respects_singletons():
    ones = ClassDescriptor((spec(), spec(arity=2)), max_len=4)
    assert cardinality_bound_cascade(ones) == 1 * 2  # projection choices remain
    fixed = ClassDescriptor((spec(), spec(arity=2, degree=2)), max_len=4)
    assert cardinality_bound_cascade(fixed) == 1


def test_cardinality_bound_monotone_in_each_factor():
    base = spec(arity=3, degree=1, phi=4, delta=2, theta=2)
    more = spec(arity=3, degree=1, phi=5, delta=2, theta=2)
    assert cardinality_bound_automata(more) >= cardinality_bound_automata(base)


def test_sample_bound_finite_values():
    assert sample_bound_finite(1024, 0.1, 0.1) == 497
    assert sample_bound_finite(1, 0.1, 0.1) == 150


def test_sample_bound_finite_scaling_and_monotonicity():
    full = sample_bound_finite(1024, 0.05, 0.1)
    assert 3.5 <= full / sample_bound_finite(1024, 0.1, 0.1) <= 4.5
    assert sample_bound_finite(10, 0.1, 0.1) <= sample_bound_finite(1000, 0.1, 0.1)


# ---------------------------------------------------------------------------
# Growth and dimension bounds.
# ---------------------------------------------------------------------------


def test_growth_bound_all_singletons_is_one():
    s = spec(pi=1, gamma=1)
    assert growth_bound_automata(s, ell=5, max_len=3) == 1


def test_dimension_bound_value():
    s = spec(arity=4, degree=2, input_dim=4.0 - math.log2(6), output_dim=0.0,
             pi=3, gamma=2)
    assert s.capacity() == pytest.approx(4.0)
    assert dimension_bound_automata(s, max_len=8) == pytest.approx(72.2213, abs=1e-3)


def test_dimension_bound_errors_exactly_below_two():
    low = spec(input_dim=1.9, output_dim=0.0)
    with pytest.raises(ValueError):
        dimension_bound_automata(low, max_len=4)
    ok = spec(input_dim=2.0, output_dim=0.0)
    assert dimension_bound_automata(ok, max_len=4) > 0


def test_cascade_dimension_bound_structure():
    one = ClassDescriptor((spec(input_dim=2.0, output_dim=0.0),), max_len=8)
    two = ClassDescriptor((spec(input_dim=2.0, output_dim=0.0),) * 2, max_len=8)
    d1 = dimension_bound_cascade(one)
    d2 = dimension_bound_cascade(two)
    assert d2 > 2 * d1 - 1e-9  # doubled leading factor plus log d inside


@pytest.mark.parametrize("dim", [math.nan, math.inf, 1e308])
def test_sample_bound_dimension_rejects_a_size_that_is_not_finite(dim):
    with pytest.raises(ValueError):
        sample_bound_dimension(dim, 2, 0.1, 0.1)


@pytest.mark.parametrize("dims", [(1e306, 0.0), (1e308, 1e308)])
def test_cascade_dimension_bound_rejects_a_bound_that_is_not_finite(dims):
    desc = ClassDescriptor((spec(input_dim=dims[0], output_dim=dims[1]),), max_len=8)
    with pytest.raises(ValueError, match="dimension bound is not finite"):
        dimension_bound_cascade(desc)


def test_sample_bound_dimension_values_and_scaling():
    assert sample_bound_dimension(10, 2, 0.1, 0.1) == 7388
    two = sample_bound_dimension(10, 2, 0.1, 0.1)
    four = sample_bound_dimension(10, 4, 0.1, 0.1)
    # the dimension term doubles with log|Y|
    assert four > two
    assert sample_bound_dimension(20, 2, 0.1, 0.1) > two
    assert sample_bound_dimension(10, 2, 0.1, 0.05) > two


# ---------------------------------------------------------------------------
# Empirical growth and dimension.
# ---------------------------------------------------------------------------

BOOL2 = FactoredAlphabet.of(("x", (0, 1)), ("y", (0, 1)))
POINTS2 = [(0,), (1,)]
TABLES2 = list(TableClass(FactoredAlphabet.of(("p", (0, 1))), (0, 1)))


def test_empirical_growth_singleton_class():
    fn = TABLES2[0]
    report = empirical_growth([fn], POINTS2, 3)
    assert report.count == 1 and report.exact


def test_empirical_growth_full_table_class_shatters():
    report = empirical_growth(TABLES2, POINTS2, 2)
    assert report.count == 4
    assert len(report.witness) == 2


def test_empirical_growth_heuristic_is_a_lower_bound():
    exact = empirical_growth(TABLES2, POINTS2, 2, mode="exact")
    heur = empirical_growth(TABLES2, POINTS2, 2, mode="heuristic", seed=1)
    assert not heur.exact
    assert heur.count <= exact.count


def _counting(functions):
    """The functions wrapped so that every call is tallied per (function,
    point)."""
    calls = {}

    def wrap(j, f):
        def g(x):
            calls[j, x] = calls.get((j, x), 0) + 1
            return f(x)
        return g

    return [wrap(j, f) for j, f in enumerate(functions)], calls


@pytest.mark.parametrize("search", ["exact", "heuristic", "vc"])
def test_growth_and_vc_search_call_each_function_once_per_point(search):
    domain = FactoredAlphabet.of(("p", (0, 1)), ("q", (0, 1)))
    points = list(domain.letters())
    functions, calls = _counting(TableClass(domain, (0, 1)))
    if search == "vc":
        report = vc_dimension(functions, points)
        assert (report.value, report.exact) == (4, True)
    else:
        report = empirical_growth(functions, points, 3, mode=search, restarts=50)
        assert report.count == 8
    assert calls and max(calls.values()) == 1


def test_pattern_count_on_fixed_sample():
    assert pattern_count(TABLES2, POINTS2) == 4


def test_vc_dimension_of_full_boolean_tables():
    domain = FactoredAlphabet.single("p", ("u", "v", "w"))
    fns = list(TableClass(domain, (0, 1)))
    points = list(domain.letters())
    report = vc_dimension(fns, points)
    assert report.value == 3 and report.exact


def test_vc_dimension_singleton_class_is_zero():
    assert vc_dimension([TABLES2[0]], POINTS2).value == 0


def test_graph_dimension_cross_check():
    domain = FactoredAlphabet.single("p", ("u", "v"))
    fns = list(TableClass(domain, ("r", "g", "b")))
    points = list(domain.letters())
    via_helper = graph_dimension(fns, points, ("r", "g", "b"))
    pairs = [(x, y) for x in points for y in ("r", "g", "b")]
    direct = vc_dimension(binarize(fns, ("r", "g", "b")), pairs)
    assert via_helper.value == direct.value


def test_class_dimension_dispatches_on_output_count():
    domain = FactoredAlphabet.single("p", ("u", "v"))
    points = list(domain.letters())
    binary = list(TableClass(domain, (0, 1)))
    assert class_dimension(binary, points, (0, 1)).value == 2


def test_empirical_dimension_modes():
    # the vc and graph modes of the former empirical_dimension, via class_dimension
    domain = FactoredAlphabet.single("p", ("u", "v"))
    points = list(domain.letters())
    binary = list(TableClass(domain, (0, 1)))
    assert class_dimension(binary, points, (0, 1)) == vc_dimension(binary, points)
    assert class_dimension(binary, points, (0, 1)).value == 2
    wide = list(TableClass(domain, ("r", "g", "b")))
    assert class_dimension(wide, points, ("r", "g", "b")) == \
        graph_dimension(wide, points, ("r", "g", "b"))


def test_empirical_growth_respects_theoretical_bound():
    # one tiny automaton class, exhaustively
    from cascata.automata import ComponentAutomaton
    from cascata.primes import make_flipflop

    external = FactoredAlphabet.single("e", ("a", "b"))
    phi_class = TableClass(external, ("set", "read"))
    members = [
        ComponentAutomaton(external, (1,), phi, make_flipflop(with_reset=False),
                           output_fn="state").induce()
        for phi in phi_class
    ]
    letters = list(external.letters())
    strings = [
        s for length in range(1, 4)
        for s in itertools.product(letters, repeat=length)
    ]
    max_len = 3
    comp = spec(arity=1, degree=1, phi=phi_class.cardinality, pi=2, gamma=2)
    for ell in (1, 2, 3):
        measured = empirical_growth(members, strings, ell).count
        phi_growth = lambda n: empirical_growth(list(phi_class), letters, n).count
        bound = growth_bound_automata(comp, ell, max_len, input_growth=phi_growth,
                                      output_growth=lambda n: 1)
        assert measured <= bound


def test_haussler_chain_bounds_growth():
    dim = vc_dimension(TABLES2, POINTS2).value
    for ell in (1, 2, 3):
        measured = empirical_growth(TABLES2, POINTS2, ell).count
        assert measured <= haussler_growth_bound(dim, ell, 2)


def test_verify_growth_propositions_all_hold():
    outer = TABLES2  # functions on 1-tuples over {0,1} into {0,1}
    inner = [lambda w: w, lambda w: 1 - w, lambda w: 0, lambda w: 1]
    string_universe = [
        s for length in range(1, 4)
        for s in itertools.product(POINTS2, repeat=length)
    ]
    string_functions = [
        lambda s: sum(x[0] for x in s) % 2,
        lambda s: int(any(x[0] for x in s)),
        lambda s: s[-1][0],
    ]
    checks = verify_growth_propositions(
        outer, inner, POINTS2, [0, 1], string_functions, string_universe,
        outputs=(0, 1),
    )
    names = {c.name for c in checks}
    assert names == {"composition", "cross_product", "binarization",
                     "last_letter_lift", "prefix_map", "dimension_chain"}
    for check in checks:
        assert check.ok, check


def reference_growth_bound_cascade(desc: ClassDescriptor, ell: int,
                                   input_growths=None, output_growths=None):
    """``growth_bound_cascade`` as its own loop, before it called
    ``growth_bound_automata``: both functions charged on ell * max_len
    letters, finite-class growths by default."""
    total = 1
    for i, s in enumerate(desc.components):
        ig = input_growths[i] if input_growths else (
            lambda n, s=s: min(s.n_input_fns, s.internal_size**n))
        og = output_growths[i] if output_growths else (
            lambda n, s=s: min(s.n_output_fns, s.output_size**n))
        total *= s.n_projections * s.n_cores * ig(ell * desc.max_len) * og(ell * desc.max_len)
    return total


def _exact_growth(functions, letters):
    functions = list(functions)
    return lambda n: empirical_growth(functions, letters, n, mode="exact").count


def test_growth_bound_cascade_equals_the_reference_on_criterion_7():
    from cascata.crafting import SequenceTaskFamily

    family = SequenceTaskFamily(2)
    growths = [_exact_growth(family.watcher_class, list(family.external.letters())),
               _exact_growth(family.goal_class, list(family.goal_class.signature.letters()))]
    ones = [lambda n: 1] * 2
    for desc in (family.descriptor(3), family.descriptor(3, watcher_dim=2, goal_dim=3),
                 SequenceTaskFamily(5).descriptor(8)):
        for ell in (1, 2, 3):
            assert growth_bound_cascade(desc, ell) == reference_growth_bound_cascade(desc, ell)
        if desc.depth == 2:
            for ell in (1, 2, 3):
                assert growth_bound_cascade(desc, ell, growths, ones) == \
                    reference_growth_bound_cascade(desc, ell, growths, ones)


def test_finite_growth_is_the_min_without_computing_the_power():
    from cascata.complexity import _finite_growth

    for n_functions, n_points, n_outputs in itertools.product(
            [1, 2, 3, 7, 8, 9, 1000, 2**20, 2**20 + 1, 10**30], range(0, 120, 7), range(1, 5)):
        assert _finite_growth(n_functions, n_points, n_outputs) == \
            min(n_functions, n_outputs**n_points)
    # 2 ** (10^9 * 8) would take gigabytes; the bound is |F| long before
    assert _finite_growth(20288, 8 * 10**9, 2) == 20288


def test_growth_bound_cascade_equals_the_reference_on_random_descriptors():
    rng = random.Random(7)
    for _ in range(200):
        parts = []
        for i in range(rng.randint(1, 4)):
            arity = rng.randint(1, 4) + i
            parts.append(spec(arity=arity, degree=rng.randint(0, arity),
                              phi=rng.randint(1, 10**rng.randint(1, 6)),
                              delta=rng.randint(1, 4), theta=rng.randint(1, 50),
                              pi=rng.randint(1, 5), gamma=rng.randint(1, 6)))
        desc = ClassDescriptor(tuple(parts), rng.randint(1, 12))
        # supplied growths: integer ones, as the exact searches give, and floats
        supplied = [[(lambda n, a=rng.randint(1, 9): min(a * n, 2**n)) if rng.random() < 0.5
                     else (lambda n, a=rng.uniform(0.5, 3): (a * n) ** 0.7) for _ in parts]
                    for _ in range(2)]
        for ell in (1, 2, 3, 5):
            assert growth_bound_cascade(desc, ell) == reference_growth_bound_cascade(desc, ell)
            assert growth_bound_cascade(desc, ell, *supplied) == \
                reference_growth_bound_cascade(desc, ell, *supplied)
            assert growth_bound_cascade(desc, ell, supplied[0]) == \
                reference_growth_bound_cascade(desc, ell, supplied[0])
