"""Growth and VC search against reference searches, and the work they do.

The references are the searches ``complexity`` ran before it read a class's
outputs into one int matrix and scored samples in blocks: ``ReferenceTable``
computes an output column per universe position on first use, and each
sample's patterns are a Python set of output tuples.  Reports (count or
value, witness, exactness) must be equal, witnesses included.
"""

import collections
import itertools
import math
import random
import tracemalloc

import pytest

from cascata import complexity
from cascata.complexity import (
    DEFAULT_SEARCH_CAP,
    DimensionReport,
    GrowthReport,
    binarize,
    class_dimension,
    empirical_growth,
    graph_dimension,
    vc_dimension,
    verify_growth_propositions,
)
from cascata.cascade import stacked_output_matrix
from cascata.crafting import SequenceTaskFamily
from cascata.errors import CapExceededError

from helpers import pattern_count, random_cascade_class, random_external, random_strings
from test_complexity import POINTS2, TABLES2


def reference_pattern_count(functions, sample) -> int:
    return len({tuple(f(x) for x in sample) for f in functions})


class ReferenceTable:
    """Every function's output at each universe position, each column
    computed on first use."""

    def __init__(self, functions, universe):
        self.functions = functions
        self.universe = universe
        self.columns = {}

    def column(self, i: int) -> tuple:
        if i not in self.columns:
            x = self.universe[i]
            self.columns[i] = tuple(f(x) for f in self.functions)
        return self.columns[i]

    def patterns(self, positions) -> set:
        if not positions:
            return {()} if self.functions else set()
        return set(zip(*(self.column(i) for i in positions)))


def reference_empirical_growth(functions, universe, ell, mode="exact",
                               cap=DEFAULT_SEARCH_CAP, restarts=200, seed=0) -> GrowthReport:
    universe = list(universe)
    table = ReferenceTable(list(functions), universe)
    support = min(ell, len(universe))
    if mode == "exact" and math.comb(len(universe), support) > cap:
        mode = "heuristic"
    if mode == "exact":
        candidates = itertools.combinations(range(len(universe)), support)
    elif mode == "heuristic":
        if ell and not universe:
            raise ValueError("heuristic growth search needs a non-empty universe")
        rng = random.Random(seed)
        positions = range(len(universe))
        candidates = (tuple(rng.choice(positions) for _ in range(ell))
                      for _ in range(restarts))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    best, witness = 0, ()
    for sample in candidates:
        n = len(table.patterns(sample))
        if n > best:
            best, witness = n, sample
    witness = tuple(universe[i] for i in witness)
    if mode == "heuristic":
        return GrowthReport(ell, best, witness, False)
    witness = witness + (witness[0],) * (ell - len(witness)) if witness else ()
    return GrowthReport(ell, best, witness, True)


def reference_vc_dimension(functions, universe, cap=DEFAULT_SEARCH_CAP) -> DimensionReport:
    functions = list(functions)
    universe = list(universe)
    table = ReferenceTable(functions, universe)
    outputs = {y for i in range(len(universe)) for y in table.column(i)}
    if len(outputs) > 2:
        raise ValueError(f"vc dimension needs binary outputs, saw {sorted(map(repr, outputs))}")
    best = DimensionReport(0, (), True)
    h = 1
    while h <= len(universe):
        if 2**h > len(functions):
            return best
        if math.comb(len(universe), h) * len(functions) > cap:
            return DimensionReport(best.value, best.witness, False)
        found = next((points for points in itertools.combinations(range(len(universe)), h)
                      if len(table.patterns(points)) == 2**h), None)
        if found is None:
            return best
        best = DimensionReport(h, tuple(universe[i] for i in found), True)
        h += 1
    return best


def outcome(search, *args, **kwargs):
    """The report, or the type and message of the exception raised."""
    try:
        return search(*args, **kwargs)
    except (ValueError, IndexError) as err:
        return type(err), str(err)


def random_class(rng: random.Random, values, n_points=None, n_members=None):
    """Table functions over points ``p0, p1, ...``, outputs drawn from
    ``values``; some members repeat earlier ones."""
    n_points = rng.randint(1, 9) if n_points is None else n_points
    n_members = rng.randint(1, 40) if n_members is None else n_members
    points = [f"p{i}" for i in range(n_points)]
    tables = []
    for _ in range(n_members):
        if tables and rng.random() < 0.2:
            tables.append(rng.choice(tables))
        else:
            tables.append({x: rng.choice(values) for x in points})
    return [lambda x, t=t: t[x] for t in tables], points


VALUE_SETS = [(0, 1), ("r", "g", "b"), (0, 1, 2, 3), (0, True, 2.5)]


@pytest.fixture(params=["default blocks", "one sample per block"])
def blocks(request, monkeypatch):
    """Scoring with the module's block budget, and with a budget so small
    that every sample is a block of its own."""
    if request.param == "one sample per block":
        monkeypatch.setattr(complexity, "BLOCK_ENTRIES", 1)


def test_growth_matches_the_reference_on_random_classes(blocks):
    rng = random.Random(7)
    for trial in range(120):
        functions, points = random_class(rng, VALUE_SETS[trial % 4])
        for ell in range(0, 5):
            for mode in ("exact", "heuristic"):
                kwargs = dict(mode=mode, seed=trial, restarts=rng.randint(0, 30))
                assert outcome(empirical_growth, functions, points, ell, **kwargs) == \
                    outcome(reference_empirical_growth, functions, points, ell, **kwargs)


def test_vc_and_graph_dimension_match_the_reference_on_random_classes(blocks):
    rng = random.Random(8)
    for trial in range(40):
        values = VALUE_SETS[trial % 4]
        functions, points = random_class(rng, values, rng.randint(1, 6), rng.randint(1, 70))
        cap = rng.choice([DEFAULT_SEARCH_CAP, 200])
        assert outcome(vc_dimension, functions, points, cap) == \
            outcome(reference_vc_dimension, functions, points, cap)
        pairs = [(x, y) for x in points for y in values]
        graph = reference_vc_dimension(binarize(functions, values), pairs, cap)
        assert graph_dimension(functions, points, values, cap) == graph
        assert class_dimension(functions, points, values, cap) == \
            (graph if len(values) > 2 else reference_vc_dimension(functions, points, cap))
        assert pattern_count(functions, points) == reference_pattern_count(functions, points)


def cascade_class(rng: random.Random, depth: int, values=None):
    """Members of a random cascade class, some listed twice, and distinct
    strings of 1..3 letters over its alphabet; ``values`` fixes the last
    part's output values."""
    external = random_external(rng)
    cls = random_cascade_class(rng, external, depth, values)
    members = list(itertools.islice(cls, rng.randint(1, 70)))
    members += rng.choices(members, k=rng.randint(0, 5))
    points = random_strings(rng, list(external.letters()), rng.randint(1, 9), 3)
    return members, list(dict.fromkeys(points))


def test_growth_and_vc_match_the_reference_on_cascade_classes(blocks):
    # cascade members are stepped together, never called, to read the
    # output matrix; the references call each member once per point
    rng = random.Random(31)
    for trial in range(45):
        members, points = cascade_class(rng, 1 + trial % 3, (0, 1) if trial % 3 else None)
        assert stacked_output_matrix(members, points) is not None
        for ell in range(0, 4):
            for mode in ("exact", "heuristic"):
                kwargs = dict(mode=mode, seed=trial, restarts=rng.randint(0, 30))
                assert outcome(empirical_growth, members, points, ell, **kwargs) == \
                    outcome(reference_empirical_growth, members, points, ell, **kwargs)
        cap = rng.choice([DEFAULT_SEARCH_CAP, 200])
        assert outcome(vc_dimension, members, points, cap) == \
            outcome(reference_vc_dimension, members, points, cap)
        assert pattern_count(members, points) == reference_pattern_count(members, points)


def test_vc_search_rejects_more_than_two_outputs_like_the_reference():
    functions, points = random_class(random.Random(3), ("r", "g", "b"), 4, 30)
    got = outcome(vc_dimension, functions, points)
    assert got == outcome(reference_vc_dimension, functions, points)
    assert got[0] is ValueError and "needs binary outputs" in got[1]


@pytest.mark.parametrize("shape", ["ten points", "empty universe", "empty class"])
@pytest.mark.parametrize("values", [(0, 1), (0, 1, 2)])
def test_edge_cases_match_the_reference(shape, values):
    # ell = 12 exceeds the ten points; an empty universe leaves heuristic
    # mode nothing to draw from, which both searches report alike
    functions, points = random_class(random.Random(len(values)), values, 10, 10)
    if shape == "empty universe":
        points = []
    elif shape == "empty class":
        functions = []
    for ell, mode in itertools.product((0, 1, 5, 12), ("exact", "heuristic")):
        assert outcome(empirical_growth, functions, points, ell, mode=mode, seed=ell) == \
            outcome(reference_empirical_growth, functions, points, ell, mode=mode, seed=ell)
    assert outcome(vc_dimension, functions, points) == \
        outcome(reference_vc_dimension, functions, points)
    assert pattern_count(functions, points) == reference_pattern_count(functions, points)


def test_heuristic_search_needs_a_universe_and_draws_under_the_draw_cap():
    functions, points = random_class(random.Random(13), (0, 1), 6, 8)
    with pytest.raises(ValueError, match="non-empty universe"):
        empirical_growth(functions, [], 1, mode="heuristic")
    assert empirical_growth(functions, [], 0, mode="heuristic") == (0, 1, (), False)
    with pytest.raises(CapExceededError) as err:
        empirical_growth(functions, points, 3, mode="heuristic", restarts=10, draw_cap=29)
    assert (err.value.size, err.value.cap) == (30, 29)
    assert empirical_growth(functions, points, 3, mode="heuristic", restarts=10,
                            draw_cap=30) == empirical_growth(functions, points, 3,
                                                             mode="heuristic", restarts=10)


def test_exact_search_past_the_cap_falls_back_like_the_reference():
    functions, points = random_class(random.Random(11), (0, 1, 2), 12, 50)
    report = empirical_growth(functions, points, 4, mode="exact", cap=100, seed=5)
    assert not report.exact  # comb(12, 4) = 495 > 100
    assert report == reference_empirical_growth(functions, points, 4, mode="exact", cap=100,
                                                seed=5)


def test_vc_cap_reports_the_same_lower_bound():
    functions, points = random_class(random.Random(12), (0, 1), 8, 64)
    for cap in (8 * 64, 28 * 64, 56 * 64, 70 * 64):
        assert vc_dimension(functions, points, cap) == \
            reference_vc_dimension(functions, points, cap)
    assert not vc_dimension(functions, points, 8 * 64 - 1).exact


@pytest.mark.parametrize("values", [("r", "g", "b"), (0, 1, 2, 3, 4, 5, 6, 7, 8)])
def test_samples_wider_than_one_key_match_the_reference(values, blocks):
    # 2 bits per output: 31 outputs per int64 key, so ell = 40 needs two;
    # 4 bits: 15 per key, three keys
    rng = random.Random(len(values))
    functions, points = random_class(rng, values, 45, 300)
    for mode in ("heuristic", "exact"):
        report = empirical_growth(functions, points, 40, mode=mode, restarts=60, seed=2,
                                  cap=2)
        assert report == reference_empirical_growth(functions, points, 40, mode=mode,
                                                    restarts=60, seed=2, cap=2)
    wide = empirical_growth(functions, points[:40], 40)
    assert wide.exact and wide == reference_empirical_growth(functions, points[:40], 40)


def test_outputs_equal_across_types_share_a_pattern():
    points = ["u", "v"]
    functions = [lambda x: 1, lambda x: True, lambda x: 1.0 if x == "u" else 0,
                 lambda x: False if x == "u" else 0]
    assert pattern_count(functions, points) == reference_pattern_count(functions, points) == 3
    for ell in (1, 2, 3):
        assert empirical_growth(functions, points, ell) == \
            reference_empirical_growth(functions, points, ell)
    assert vc_dimension(functions, points) == reference_vc_dimension(functions, points)


def test_growth_proposition_rows_are_unchanged(monkeypatch):
    inner = [lambda w: w, lambda w: 1 - w, lambda w: 0, lambda w: 1]
    string_universe = [s for length in range(1, 4)
                       for s in itertools.product(POINTS2, repeat=length)]
    string_functions = [lambda s: sum(x[0] for x in s) % 2,
                        lambda s: int(any(x[0] for x in s)),
                        lambda s: s[-1][0]]

    def rows():
        return verify_growth_propositions(TABLES2, inner, POINTS2, [0, 1], string_functions,
                                          string_universe, outputs=(0, 1))

    got = rows()
    # each class's outputs are read once and handed to the searches; the
    # references are handed the functions that those outputs were read from
    read, functions_of = complexity.class_outputs, {}

    def recorded(functions, points):
        table = read(functions, points)
        functions_of[id(table)] = list(functions)
        return table

    def on_functions(reference):
        return lambda table, *args, **kwargs: reference(functions_of[id(table)], *args, **kwargs)

    monkeypatch.setattr(complexity, "class_outputs", recorded)
    monkeypatch.setattr(complexity, "empirical_growth", on_functions(reference_empirical_growth))
    monkeypatch.setattr(complexity, "vc_dimension", on_functions(reference_vc_dimension))
    assert got == rows()
    assert len(functions_of) == 8  # one read per class


# ---------------------------------------------------------------------------
# Work done: function calls and memory.
# ---------------------------------------------------------------------------


def test_heuristic_search_calls_functions_only_at_drawn_points():
    points = list(range(50))
    calls = []
    functions = [lambda x, j=j: calls.append((j, x)) or (x * j) % 3 for j in range(6)]
    report = empirical_growth(functions, points, 3, mode="heuristic", restarts=4, seed=9)
    rng = random.Random(9)
    drawn = {rng.choice(range(50)) for _ in range(4 * 3)}
    assert len(drawn) < 50
    assert sorted(calls) == sorted((j, x) for j in range(6) for x in drawn)
    assert report == reference_empirical_growth(functions, points, 3, mode="heuristic",
                                                restarts=4, seed=9)


def test_exact_search_at_ell_zero_calls_no_function():
    calls = []
    functions = [lambda x: calls.append(x) or 0]
    assert empirical_growth(functions, [1, 2, 3], 0) == GrowthReport(0, 1, (), True)
    assert calls == []


def test_search_over_a_large_class_stays_within_its_blocks():
    # 20,000 members over 14 points: every subset of 3 is scored (no sample
    # reaches 8 patterns), yet the keys of all 364 subsets at once would
    # take 364 x 20,000 int64 = 58 MB
    functions = [lambda x, j=j % 15: int(x == j) for j in range(20_000)]
    points = list(range(14))
    tracemalloc.start()
    try:
        report = empirical_growth(functions, points, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == GrowthReport(3, 4, (0, 1, 2), True)
    assert peak < 8 * 2**20, peak


def scored_rows(monkeypatch) -> collections.Counter:
    """Per sample width, the samples passed to ``_pattern_counts`` from now on."""
    rows, score = collections.Counter(), complexity._pattern_counts

    def counted(matrix, n_values, block):
        rows[block.shape[1]] += len(block)
        return score(matrix, n_values, block)

    monkeypatch.setattr(complexity, "_pattern_counts", counted)
    return rows


@pytest.mark.parametrize("copies", [1, 2])
def test_vc_search_stops_at_a_triple_whose_pairs_are_all_shattered(monkeypatch, copies):
    # the even-parity tables on three points shatter every pair, but not the
    # triple; with the class listed twice its 8 members admit a triple, the
    # one clique of the shattered pairs, which is scored and fails
    tables = ["000", "011", "101", "110"] * copies
    functions = [lambda x, t=t: int(t[x]) for t in tables]
    rows = scored_rows(monkeypatch)
    report = vc_dimension(functions, [0, 1, 2])
    assert report == DimensionReport(2, (0, 1), True) == \
        reference_vc_dimension(functions, [0, 1, 2])
    assert rows == ({1: 3, 2: 3} if copies == 1 else {1: 3, 2: 3, 3: 1})


def test_vc_search_scores_only_cliques_of_shattered_pairs_on_the_family(monkeypatch):
    # the d=2 family's 68 members on its 14 strings of at most 3 letters:
    # every pair is scored, then only the 32 of 364 triples and the 5 of
    # 1,001 quadruples whose pairs are all shattered
    family = SequenceTaskFamily(2)
    letters = list(family.external.letters())
    universe = [s for n in range(1, 4) for s in itertools.product(letters, repeat=n)]
    members = list(family)
    rows = scored_rows(monkeypatch)
    report = vc_dimension(members, universe)
    assert rows == {1: 14, 2: 91, 3: 32, 4: 5}
    assert report == reference_vc_dimension(members, universe)
    assert report == DimensionReport(3, tuple(universe[2:5]), True)


def test_cliques_come_in_combinations_order():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(0, 9)
        edges = {pair for pair in itertools.combinations(range(n), 2) if rng.random() < 0.6}
        later = [{j for i2, j in edges if i2 == i} for i in range(n)]
        for size in range(2, n + 2):
            expected = [c for c in itertools.combinations(range(n), size)
                        if all(pair in edges for pair in itertools.combinations(c, 2))]
            assert list(complexity._cliques(later, size)) == expected
