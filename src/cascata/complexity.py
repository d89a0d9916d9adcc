"""Bound calculators and the brute-force growth/dimension searches that
certify them empirically.

Cardinality bounds multiply the per-part choices of an automaton (projection,
input function, core, output function); growth bounds multiply per-part
growths, with input/output functions charged on letter samples of size
(sample size x maximum string length).  The sample sizes carry explicit
constants (``sample_bound_finite``, ``sample_bound_dimension``), which are
instantiations, not claims carried by the bound statements.  Logs are base 2
throughout; the natural log appears only inside those sample sizes.

The searches, ``empirical_growth`` and ``vc_dimension`` (which
``graph_dimension`` and ``class_dimension`` run), read a class once into its
output table (``class_outputs``) and score candidate samples against it in
blocks (``_scored_blocks``, ``_pattern_counts``).  Each search also takes
that table in place of the functions, so several searches read a class once.
``verify_growth_propositions`` checks the growth bounds on small classes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .alphabets import letter_reader, projection_count
from .automata import _frozen, packed_keys
from .errors import CapExceededError

DEFAULT_SEARCH_CAP = 2_000_000

#: multiplier for the dimension-based sample size; an instantiation of an
#: asymptotic bound, not a guaranteed constant.
DIMENSION_SAMPLE_CONSTANT = 8


@dataclass(frozen=True)
class ComponentClassSpec:
    """Sizes (and optionally dimensions) of the choice sets for one
    component: projections are ``binomial(arity, degree)`` many; input
    functions, cores and output functions are counted directly.

    ``input_dim`` / ``output_dim`` default to the log2-cardinality of the
    finite class when unset, which upper-bounds the true dimension.
    """

    arity: int
    degree: int
    n_input_fns: int
    n_cores: int
    n_output_fns: int
    internal_size: int
    output_size: int
    input_dim: float | None = None
    output_dim: float | None = None

    def __post_init__(self):
        for label, n in (
            ("n_input_fns", self.n_input_fns),
            ("n_cores", self.n_cores),
            ("n_output_fns", self.n_output_fns),
            ("internal_size", self.internal_size),
            ("output_size", self.output_size),
        ):
            if n < 1:
                raise ValueError(f"{label} must be positive, got {n}")

    @property
    def n_projections(self) -> int:
        return projection_count(self.arity, self.degree)

    @property
    def resolved_input_dim(self) -> float:
        return self.input_dim if self.input_dim is not None else math.log2(self.n_input_fns)

    @property
    def resolved_output_dim(self) -> float:
        return self.output_dim if self.output_dim is not None else math.log2(self.n_output_fns)

    def capacity(self) -> float:
        """log2 of the projection and core choices plus the input/output
        function dimensions; the exponent the dimension bounds run on."""
        return (
            math.log2(self.n_projections)
            + math.log2(self.n_cores)
            + self.resolved_input_dim
            + self.resolved_output_dim
        )


@dataclass(frozen=True)
class ClassDescriptor:
    components: tuple[ComponentClassSpec, ...]
    max_len: int
    epsilon: float = 0.1
    eta: float = 0.1

    def __post_init__(self):
        if not self.components:
            raise ValueError("descriptor needs at least one component")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        for label, v in (("epsilon", self.epsilon), ("eta", self.eta)):
            if not 0 < v < 1:
                raise ValueError(f"{label} must lie in (0, 1), got {v}")

    @property
    def depth(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# Cardinality and sample-size bounds for finite classes.
# ---------------------------------------------------------------------------


def cardinality_bound_automata(spec: ComponentClassSpec) -> int:
    return spec.n_projections * spec.n_input_fns * spec.n_cores * spec.n_output_fns


def cardinality_bound_cascade(desc: ClassDescriptor) -> int:
    return math.prod(cardinality_bound_automata(c) for c in desc.components)


def sample_bound_finite(cardinality: int, epsilon: float, eta: float) -> int:
    """Sample size sufficient for a finite class under 0-1 loss:
    ceil(ln(2|F|/eta) / (2 eps^2)), the two-sided Hoeffding instantiation of
    the log-cardinality bound."""
    if cardinality < 1:
        raise ValueError("cardinality must be at least 1")
    # the log of the exact int: 2|F| / eta overflows a float past about 10^308
    return math.ceil((math.log(2 * cardinality) - math.log(eta)) / (2 * epsilon**2))


# ---------------------------------------------------------------------------
# Growth and dimension bounds.
# ---------------------------------------------------------------------------


def haussler_growth_bound(dim: float, n_points: int, n_outputs: int) -> float:
    """(e * n * |Y|) ** dim, the dimension-to-growth chain."""
    return (math.e * n_points * n_outputs) ** dim


def _finite_growth(n_functions: int, n_points: int, n_outputs: int) -> int:
    """Trivially valid growth bound for a finite class: patterns cannot
    outnumber the functions or the output tuples.  With two or more outputs
    and at least ``n_functions.bit_length()`` points the output tuples
    number at least ``2 ** bit_length > n_functions``, so their count is
    not computed."""
    if n_outputs >= 2 and n_points >= n_functions.bit_length():
        return n_functions
    return min(n_functions, n_outputs**n_points)


def growth_bound_automata(spec: ComponentClassSpec, ell: int, max_len: int,
                          input_growth=None, output_growth=None) -> float:
    """Growth bound for an automaton class at sample size ``ell``: the
    projection and core counts times the input-function growth on
    ell * max_len letters times the output-function growth on ell letters.

    ``input_growth`` / ``output_growth`` map a letter-sample size to a growth
    value (exact values may be supplied from the empirical machinery);
    defaults use the finite-class fallback.
    """
    if input_growth is None:
        input_growth = lambda n: _finite_growth(spec.n_input_fns, n, spec.internal_size)
    if output_growth is None:
        output_growth = lambda n: _finite_growth(spec.n_output_fns, n, spec.output_size)
    return (
        spec.n_projections
        * spec.n_cores
        * input_growth(ell * max_len)
        * output_growth(ell)
    )


def growth_bound_cascade(desc: ClassDescriptor, ell: int,
                         input_growths: Sequence | None = None,
                         output_growths: Sequence | None = None) -> float:
    """Product over the components of ``growth_bound_automata`` with
    ``ell * max_len`` letters per sample, so both the input and the output
    functions are charged on ell * max_len letters."""
    return math.prod(
        growth_bound_automata(spec, ell * desc.max_len, 1,
                              input_growths[i] if input_growths else None,
                              output_growths[i] if output_growths else None)
        for i, spec in enumerate(desc.components))


def dimension_bound_automata(spec: ComponentClassSpec, max_len: int) -> float:
    """2 w log2(w e M |internal| |output|) with w the component capacity;
    only valid when w >= 2."""
    w = spec.capacity()
    if w < 2:
        raise ValueError(f"dimension bound requires capacity w >= 2, got {w:.3f}")
    return 2 * w * math.log2(w * math.e * max_len * spec.internal_size * spec.output_size)


def dimension_bound_cascade(desc: ClassDescriptor) -> float:
    """Cascade form: 2 d w log2(d w e M |internal| |output|) where w and the
    alphabet sizes are maxima over the components (cardinality maxima)."""
    d = desc.depth
    w = max(c.capacity() for c in desc.components)
    pi = max(c.internal_size for c in desc.components)
    gamma = max(c.output_size for c in desc.components)
    if d * w < 2:
        raise ValueError(f"dimension bound requires d*w >= 2, got {d * w:.3f}")
    bound = 2 * d * w * math.log2(d * w * math.e * desc.max_len * pi * gamma)
    if not math.isfinite(bound):
        raise ValueError("dimension bound is not finite")
    return bound


def sample_bound_dimension(dim: float, n_outputs: int, epsilon: float, eta: float) -> int:
    """Bound-shaped sample size from a dimension:
    ceil(C (dim ln|Y| + ln(1/eta)) / eps^2) with C the documented
    instantiation ``DIMENSION_SAMPLE_CONSTANT``, not a guarantee."""
    if not dim >= 1:
        raise ValueError("dimension must be at least 1")
    bits = dim * math.log(n_outputs) + math.log(1 / eta)
    size = DIMENSION_SAMPLE_CONSTANT * bits / epsilon**2
    if not math.isfinite(size):
        raise ValueError("dimension sample size is not finite")
    return math.ceil(size)


# ---------------------------------------------------------------------------
# Empirical growth and dimension.
# ---------------------------------------------------------------------------


class GrowthReport(NamedTuple):
    sample_size: int
    count: int
    witness: tuple
    exact: bool


class DimensionReport(NamedTuple):
    value: int
    witness: tuple
    exact: bool


#: The most sample outputs (samples x members x sample width) one scoring
#: block gathers, unless a single sample has more: a search's working memory
#: stays near the output matrix's size however many samples it scores.
BLOCK_ENTRIES = 1 << 14


@dataclass(frozen=True, eq=False)
class ClassOutputs:
    """A class's outputs on points (``class_outputs``): the read-only
    members x points matrix of output codes, the values in code order, and
    the points.  The searches take it in place of the functions."""

    matrix: np.ndarray
    values: tuple
    points: tuple


def class_outputs(functions: Sequence, points: Sequence) -> ClassOutputs:
    """The class's outputs on the points: outputs are numbered by first
    occurrence, points outer and members inner, and outputs that compare
    equal (``1`` and ``True``) share a code.

    When every function runs a plain ``Cascade`` (itself, or its bound
    ``run`` or ``__call__``, as ``cascade._automaton`` decides for sampling
    and risk estimates too) and the cascades share one external alphabet
    and one depth, the members are stepped together, each distinct
    component prefix once (``cascade.stacked_output_matrix``).  Otherwise,
    or when a point is not a string of hashable letters, the outputs are
    read a point at a time: from the functions' definitions, each letter
    encoded once, when ``alphabets.letter_reader`` reads the list, else by
    calling each function once per point."""
    from .cascade import Cascade, _automaton, stacked_output_matrix  # cascade imports this module

    functions, points = list(functions), tuple(points)
    # the first function that runs no cascade ends the check
    cascades = list(itertools.takewhile(lambda a: isinstance(a, Cascade),
                                        map(_automaton, functions)))
    stacked = (stacked_output_matrix(cascades, points)
               if cascades and len(cascades) == len(functions) else None)
    if stacked is not None:
        return stacked
    outputs = letter_reader(functions) or (lambda x: [f(x) for f in functions])
    code: dict = {}
    matrix = np.empty((len(functions), len(points)), dtype=np.int64)
    for j, x in enumerate(points):
        matrix[:, j] = [code.setdefault(v, len(code)) for v in outputs(x)]
    return ClassOutputs(_frozen(matrix), tuple(code), points)


def _read(functions, universe: list) -> ClassOutputs:
    """``functions`` when it is a ``ClassOutputs``, whose points must equal
    the universe (else ``ValueError``), else ``class_outputs`` of it."""
    if not isinstance(functions, ClassOutputs):
        return class_outputs(functions, universe)
    if functions.points == tuple(universe):
        return functions
    raise ValueError("the class's outputs were read on other points than the universe")


def _pattern_counts(matrix: np.ndarray, n_values: int, block: np.ndarray) -> np.ndarray:
    """The number of distinct output rows of the class on each sample, a
    row of ``block`` holding a sample's columns of ``matrix``.  Each
    sample's outputs are packed into int64 keys as ``packed_keys`` does,
    sorted along the member axis and their boundaries counted."""
    n_members = len(matrix)
    if n_members == 0 or block.shape[1] == 0:
        return np.full(len(block), min(n_members, 1))
    by_point = matrix.T
    keys = packed_keys((by_point[column] for column in block.T), n_values)
    if len(keys) == 1:
        keys[0].sort(axis=1)
    else:
        order = np.lexsort(keys)
        keys = [np.take_along_axis(key, order, axis=1) for key in keys]
    changes = np.zeros((len(block), n_members - 1), dtype=bool)
    for key in keys:
        changes |= key[:, 1:] != key[:, :-1]
    return changes.sum(axis=1) + 1


def _scored_blocks(matrix: np.ndarray, n_values: int, samples: Iterable[tuple],
                   width: int) -> Iterator[tuple[list, np.ndarray]]:
    """The samples (tuples of ``width`` columns of ``matrix``) in blocks, in
    order, each with its pattern counts: a block holds as many samples as
    fit in ``BLOCK_ENTRIES`` outputs, at least one, and is scored only once
    asked for."""
    size = max(1, BLOCK_ENTRIES // max(1, len(matrix) * width))
    samples = iter(samples)
    while rows := list(itertools.islice(samples, size)):
        block = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                            count=len(rows) * width).reshape(len(rows), width)
        yield rows, _pattern_counts(matrix, n_values, block)


def _first_best(matrix: np.ndarray, n_values: int, samples: Iterable[tuple],
                width: int) -> tuple[int, tuple]:
    """The largest pattern count over the samples (tuples of ``width``
    columns of ``matrix``) and the first sample reaching it, or ``()`` when
    no count is positive.  Samples are scored in blocks (``_scored_blocks``)
    and only a strictly larger count replaces the best of earlier blocks.
    The search stops once a count reaches the ceiling
    ``min(members, n_values ** width)``, which no sample can pass."""
    ceiling = min(len(matrix), n_values**width)
    best, witness = 0, ()
    for rows, counts in _scored_blocks(matrix, n_values, samples, width):
        i = int(counts.argmax())
        if counts[i] > best:
            best, witness = int(counts[i]), rows[i]
        if best >= ceiling:
            break
    return best, witness


def exact_growth_fits(n_points: int, ell: int, cap: int = DEFAULT_SEARCH_CAP) -> bool:
    """Whether an exact growth search of size ``ell`` scores at most ``cap``
    subsets of ``n_points`` points; else ``empirical_growth`` draws them."""
    return math.comb(n_points, min(ell, n_points)) <= cap


def empirical_growth(functions: Sequence | ClassOutputs, universe: Sequence, ell: int,
                     mode: str = "exact", cap: int = DEFAULT_SEARCH_CAP,
                     restarts: int = 200, seed: int = 0,
                     draw_cap: int | None = None) -> GrowthReport:
    """Maximum pattern count over size-``ell`` samples from the universe.

    The count on a sample depends only on its support set and never shrinks
    when the support grows, so exact mode iterates subsets of size
    min(ell, |universe|) instead of all multisets, in
    ``itertools.combinations`` order; the witness is the first subset with
    the maximum count, padded back to a size-``ell`` sample.  Past the cap,
    or in heuristic mode, ``restarts`` random samples (drawn first, from
    ``random.Random(seed)``) report a certified lower bound with the first
    sample reaching it.  Heuristic mode needs a non-empty universe once
    ``ell`` is positive (else ``ValueError``), and its ``restarts * ell``
    draws may not pass ``draw_cap`` when one is given (else
    ``CapExceededError``, before any draw).

    The class's outputs are read once (``class_outputs``), members x the
    points a sample can use (all of the universe in exact mode, the drawn
    points in heuristic mode), and the samples are scored against them in
    blocks (see ``_first_best``).  Given the class's outputs on the
    universe in place of the functions, the search reads those columns.
    """
    universe = list(universe)
    support = min(ell, len(universe))
    if mode == "exact" and not exact_growth_fits(len(universe), ell, cap):
        mode = "heuristic"
    if mode == "exact":
        points, width = (universe if support else []), support
        columns = slice(len(points))
        samples = itertools.combinations(range(len(points)), support)
    elif mode == "heuristic":
        if ell and not universe:
            raise ValueError("heuristic growth search needs a non-empty universe")
        if draw_cap is not None and restarts * ell > draw_cap:
            raise CapExceededError("heuristic growth draws", restarts * ell, draw_cap)
        rng = random.Random(seed)
        positions = range(len(universe))
        drawn = [tuple(rng.choice(positions) for _ in range(ell)) for _ in range(restarts)]
        needed = list(dict.fromkeys(itertools.chain.from_iterable(drawn)))
        column = {i: j for j, i in enumerate(needed)}
        points, width, columns = [universe[i] for i in needed], ell, needed
        samples = [tuple(map(column.__getitem__, sample)) for sample in drawn]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    given = isinstance(functions, ClassOutputs)
    table = _read(functions, universe) if given else class_outputs(functions, points)
    matrix = table.matrix[:, columns] if given else table.matrix
    best, witness = _first_best(matrix, len(table.values), samples, width)
    witness = tuple(points[j] for j in witness)
    if mode == "heuristic":
        return GrowthReport(ell, best, witness, False)
    witness = witness + (witness[0],) * (ell - len(witness)) if witness else ()
    return GrowthReport(ell, best, witness, True)


def _cliques(later: list[set], size: int) -> Iterator[tuple]:
    """The ``size``-cliques of the graph whose edges join each point ``i``
    to the points of ``later[i]``, all greater than ``i``, as ascending
    tuples in ``itertools.combinations`` order."""

    def grow(clique: tuple, candidates: list) -> Iterator[tuple]:
        if len(clique) == size:
            yield clique
            return
        for n, j in enumerate(candidates):
            if len(candidates) - n < size - len(clique):
                return
            yield from grow((*clique, j), [k for k in candidates[n + 1:] if k in later[j]])

    return grow((), list(range(len(later))))


def vc_dimension(functions: Sequence | ClassOutputs, universe: Sequence,
                 cap: int = DEFAULT_SEARCH_CAP) -> DimensionReport:
    """Largest sample size from the universe on which the class realizes all
    binary patterns, by exhaustive subset search.

    Outputs must take at most two values.  The class's outputs are read once
    (``class_outputs``, or given in place of the functions), members x
    universe points, and candidate sets are scored against them in blocks,
    in ``itertools.combinations`` order;
    at each size the first shattered one is the witness.  Every subset of a
    shattered set is shattered, so a set can be shattered only if each of
    its pairs is: size 2 scores every pair, and each larger size scores
    only the cliques of the shattered pairs' graph, which keeps the first
    shattered set first.  If the subset search at some size would exceed
    the cap (subsets times members, counted over all subsets), the best
    size found so far is returned flagged as a lower bound.
    """
    universe = list(universe)
    table = _read(functions, universe)
    matrix, outputs = table.matrix, table.values
    if len(outputs) > 2:
        raise ValueError(f"vc dimension needs binary outputs, saw {sorted(map(repr, outputs))}")
    best = DimensionReport(0, (), True)
    for h in range(1, len(universe) + 1):
        if 2**h > len(matrix):
            return best
        if math.comb(len(universe), h) * len(matrix) > cap:
            return DimensionReport(best.value, best.witness, False)
        if h == 2:
            pairs = itertools.combinations(range(len(universe)), 2)
            shattered = [pair for rows, counts in _scored_blocks(matrix, len(outputs), pairs, 2)
                         for pair, count in zip(rows, counts.tolist()) if count == 4]
            if not shattered:
                return best
            found, later = shattered[0], [set() for _ in universe]
            for i, j in shattered:
                later[i].add(j)
        else:
            candidates = (itertools.combinations(range(len(universe)), h) if h == 1
                          else _cliques(later, h))
            count, found = _first_best(matrix, len(outputs), candidates, h)
            if count < 2**h:
                return best
        best = DimensionReport(h, tuple(universe[i] for i in found), True)
    return best


def binarize(functions: Sequence, outputs: Sequence):
    """Indicator functions on (point, output) pairs: 1 when the function
    maps the point to that output."""
    return [
        (lambda xy, f=f: 1 if f(xy[0]) == xy[1] else 0)
        for f in functions
    ]


def _binarized(table: ClassOutputs, outputs: Sequence) -> ClassOutputs:
    """``binarize``'s class on the (point, output) pairs, points outer, read
    from ``table``: each output value is compared once with each output,
    and each indicator is its own code."""
    hits = np.array([[1 if v == y else 0 for y in outputs] for v in table.values],
                    dtype=np.int64).reshape(len(table.values), len(outputs))
    matrix = hits[table.matrix].reshape(len(table.matrix), len(table.points) * len(outputs))
    return ClassOutputs(_frozen(matrix), (0, 1), tuple(itertools.product(table.points, outputs)))


def graph_dimension(functions: Sequence | ClassOutputs, universe: Sequence, outputs: Sequence,
                    cap: int = DEFAULT_SEARCH_CAP) -> DimensionReport:
    """VC dimension of the binarized class over (point, output) pairs
    (``_binarized``)."""
    binarized = _binarized(_read(functions, list(universe)), outputs)
    return vc_dimension(binarized, binarized.points, cap)


def class_dimension(functions: Sequence | ClassOutputs, universe: Sequence, outputs: Sequence,
                    cap: int = DEFAULT_SEARCH_CAP) -> DimensionReport:
    """VC dimension for binary outputs, graph dimension otherwise."""
    if len(set(outputs)) <= 2:
        return vc_dimension(functions, universe, cap)
    return graph_dimension(functions, universe, outputs, cap)


# ---------------------------------------------------------------------------
# Growth propositions, verified exactly on supplied small classes.
# ---------------------------------------------------------------------------


class PropositionCheck(NamedTuple):
    name: str
    sample_size: int
    measured: float
    bound: float
    ok: bool


def verify_growth_propositions(
    outer: Sequence, inner: Sequence, outer_universe: Sequence,
    mid_universe: Sequence, string_functions: Sequence,
    string_universe: Sequence, outputs: Sequence,
    ells: Iterable[int] = (1, 2, 3),
) -> list[PropositionCheck]:
    """Check the growth inequalities exactly on small concrete classes.

    ``outer``: functions X -> W over ``outer_universe``;
    ``inner``: functions W -> Y over ``mid_universe`` (the outer range);
    ``string_functions``: string functions over ``string_universe``, whose
    strings must use letters from ``outer_universe`` and should be
    prefix-closed so the prefix-map comparison samples from the same pool;
    ``outputs``: output values of ``outer`` (for binarization).
    Violations come back as failed rows; every row carries the measured
    value and its bound.  Each class's outputs are read once
    (``class_outputs``), for every ell.
    """
    outer = list(outer)
    inner = list(inner)
    string_functions = list(string_functions)
    string_universe = [tuple(s) for s in string_universe]
    max_len = max(len(s) for s in string_universe)

    composed = [(lambda x, f=f, g=g: g(f(x))) for f in outer for g in inner]
    crossed = [(lambda x, f=f, h=h: (f(x), h(x))) for f in outer for h in composed]
    starred = [(lambda s, f=f: f(s[-1])) for f in outer]
    barred = [(lambda s, g=g: tuple(g(s[: i + 1]) for i in range(len(s))))
              for g in string_functions]
    pairs = [(x, y) for x in outer_universe for y in outputs]
    tables = [class_outputs(functions, universe) for functions, universe in (
        (outer, outer_universe), (inner, mid_universe), (composed, outer_universe),
        (crossed, outer_universe), (binarize(outer, outputs), pairs),
        (starred, string_universe), (barred, string_universe),
        (string_functions, string_universe))]
    dim = class_dimension(tables[0], outer_universe, outputs)

    checks = []
    for ell in ells:
        g_outer, g_inner, g_comp, g_cross, g_bin, g_star, g_bar, g_string = (
            empirical_growth(table, table.points, n, mode="exact").count
            for table, n in zip(tables, [ell] * 7 + [ell * max_len]))
        for name, measured, bound in (
                ("composition", g_comp, g_outer * g_inner),
                ("cross_product", g_cross, g_outer * g_comp),
                ("binarization", g_bin, g_outer),
                ("last_letter_lift", g_star, g_outer),
                ("prefix_map", g_bar, g_string),
                ("dimension_chain", g_outer,
                 haussler_growth_bound(dim.value, ell, len(set(outputs))))):
            checks.append(PropositionCheck(name, ell, measured, bound, measured <= bound))
    return checks
