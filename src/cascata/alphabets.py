"""Factored alphabets, projections, and enumerable finite function classes.

Letters are plain tuples with one entry per coordinate of an owning
:class:`FactoredAlphabet`.  Everything here is immutable after construction
and safe to share across threads.

Numbering: letters, the product classes here (``TableClass``,
``ThresholdClass``) and cascade classes are all numbered in mixed radix, one
digit per position, with the last position varying fastest.  A letter's
digits are its value codes (``FactoredAlphabet.encode``: each value's
position in its coordinate's ``values``), and a letter's index is the sum of
its codes times the coordinates' ``place_values``; a class's digits are its
per-position choices, which ``mixed_radix_digits`` decodes from a member's
index.  Every finite class names its members by index through
``member(i)``, and iteration follows the index (``NumberedClass``).  No
other module numbers letters or members by hand.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

from .errors import ArityMismatchError, CapExceededError, UnknownLetterError

Value = str | int
Letter = tuple

DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class Coordinate:
    """One named finite domain of a factored alphabet."""

    name: str
    values: tuple[Value, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"coordinate {self.name!r} has an empty domain")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"coordinate {self.name!r} has duplicate values")

    @property
    def is_boolean(self) -> bool:
        return set(self.values) == {0, 1}


@dataclass(frozen=True)
class FactoredAlphabet:
    """An ordered product of named finite domains.

    The arity is the number of coordinates; a letter is a tuple holding one
    value per coordinate.
    """

    coords: tuple[Coordinate, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise ValueError("a factored alphabet needs at least one coordinate")
        names = [c.name for c in self.coords]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate coordinate names: {names}")
        # the memos of project and extend: one alphabet per key
        object.__setattr__(self, "_projections", {})
        object.__setattr__(self, "_extensions", {})

    @staticmethod
    def of(*coords: tuple[str, tuple | list]) -> "FactoredAlphabet":
        return FactoredAlphabet(tuple(Coordinate(n, tuple(vs)) for n, vs in coords))

    @staticmethod
    def single(name: str, values) -> "FactoredAlphabet":
        return FactoredAlphabet.of((name, tuple(values)))

    @property
    def arity(self) -> int:
        return len(self.coords)

    @property
    def n_letters(self) -> int:
        return math.prod(len(c.values) for c in self.coords)

    def letters(self) -> Iterator[Letter]:
        """All letters in canonical (product) order."""
        return itertools.product(*(c.values for c in self.coords))

    @cached_property
    def _codes(self) -> tuple[dict, ...]:
        return tuple({v: i for i, v in enumerate(c.values)} for c in self.coords)

    @cached_property
    def place_values(self) -> tuple[int, ...]:
        """Per coordinate, the product of the value counts of the coordinates
        after it; a letter's index is the sum of its codes times these."""
        counts = [len(c.values) for c in self.coords]
        return tuple(math.prod(counts[i + 1:]) for i in range(len(counts)))

    @cached_property
    def places(self) -> tuple[dict, ...]:
        """Per coordinate, value -> its code times the coordinate's place
        value; a letter's index is the sum over its coordinates."""
        return tuple({v: i * weight for i, v in enumerate(c.values)}
                     for c, weight in zip(self.coords, self.place_values))

    def _look_up(self, tables, letter, where: str) -> list:
        """``tables[i][letter[i]]`` per coordinate i; raises what ``check`` raises."""
        try:
            if isinstance(letter, tuple) and len(letter) == len(tables):
                return list(map(operator.getitem, tables, letter))
        except (KeyError, TypeError):
            pass
        self.check(letter, where)
        raise UnknownLetterError(letter, where=where)

    def encode(self, letter, where="") -> list:
        """The letter's value codes, one per coordinate, in a fresh list."""
        return self._look_up(self._codes, letter, where)

    def index(self, letter, where="") -> int:
        """The letter's position in ``letters()``."""
        return sum(self._look_up(self.places, letter, where))

    def check(self, letter, where="") -> Letter:
        if not isinstance(letter, tuple) or len(letter) != self.arity:
            actual = len(letter) if isinstance(letter, tuple) else type(letter).__name__
            raise ArityMismatchError(self.arity, actual, where)
        for i, (v, coord) in enumerate(zip(letter, self.coords)):
            if v not in coord.values:
                raise UnknownLetterError(v, position=i, where=where or coord.name)
        return letter

    def __contains__(self, letter) -> bool:
        try:
            self.check(letter)
        except (ArityMismatchError, UnknownLetterError):
            return False
        return True

    def project(self, indices) -> "FactoredAlphabet":
        """Sub-alphabet at the given 1-based coordinate indices.  Each
        alphabet builds a projection once and hands out the same object
        after, so its caches (``places``) are shared by every caller."""
        idx = tuple(sorted(set(indices)))
        if idx not in self._projections:
            if not idx:
                raise ValueError("cannot build an alphabet over zero coordinates")
            if idx[0] < 1 or idx[-1] > self.arity:
                raise ValueError(f"indices {list(idx)} out of range [1, {self.arity}]")
            projected = FactoredAlphabet(tuple(self.coords[i - 1] for i in idx))
            self._projections.setdefault(idx, projected)  # racing threads get the first
        return self._projections[idx]

    def extend(self, name: str, values) -> "FactoredAlphabet":
        """Alphabet with one coordinate appended (cascade chaining).  Like
        ``project``, each alphabet builds an extension once and hands out the
        same object after, so every cascade chained from one external
        alphabet (``build_chained``, class members, spec files) holds the same
        alphabets and shares their caches.  Values that are equal but of
        different types (``1`` and ``True``) make different extensions."""
        values = tuple(values)
        key = (name, values, tuple(map(type, values)))
        if key not in self._extensions:
            extended = FactoredAlphabet(self.coords + (Coordinate(name, values),))
            self._extensions.setdefault(key, extended)  # racing threads get the first
        return self._extensions[key]


@dataclass(frozen=True)
class Projection:
    """Selection of coordinates J from tuples of a given arity.

    Indices are 1-based and kept sorted; applying the projection returns the
    selected values in ascending index order.
    """

    source_arity: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(set(self.indices)))
        object.__setattr__(self, "indices", idx)
        if idx and (idx[0] < 1 or idx[-1] > self.source_arity):
            raise ValueError(
                f"projection indices {idx} out of range [1, {self.source_arity}]"
            )

    @property
    def degree(self) -> int:
        return len(self.indices)

    def __call__(self, letter: Letter) -> Letter:
        if not isinstance(letter, tuple) or len(letter) != self.source_arity:
            actual = len(letter) if isinstance(letter, tuple) else type(letter).__name__
            raise ArityMismatchError(self.source_arity, actual, "projection")
        return tuple(letter[i - 1] for i in self.indices)


def projection_count(arity: int, degree: int) -> int:
    """Number of distinct projections of the given degree: binomial(a, m)."""
    if degree < 0 or degree > arity:
        raise ValueError(f"degree {degree} not in [0, {arity}]")
    return math.comb(arity, degree)


# ---------------------------------------------------------------------------
# Boolean view of letters, used by the monotone-DNF classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanView:
    """Propositional encoding of the letters of a factored alphabet.

    A coordinate whose domain is {0, 1} contributes one variable named after
    the coordinate.  Any other coordinate is expanded one-hot, one variable
    per domain value, named ``coord=value``.
    """

    signature: FactoredAlphabet

    @cached_property
    def variables(self) -> tuple[str, ...]:
        names = []
        for coord in self.signature.coords:
            if coord.is_boolean:
                names.append(coord.name)
            else:
                names.extend(f"{coord.name}={v}" for v in coord.values)
        return tuple(names)

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], ...]:
        """Per coordinate, the variable bits each value code sets."""
        masks, bit = [], 1
        for coord in self.signature.coords:
            hot = (1,) if coord.is_boolean else coord.values  # values with a variable
            masks.append(tuple(bit << hot.index(v) if v in hot else 0 for v in coord.values))
            bit <<= len(hot)
        return tuple(masks)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def encode(self, letter: Letter) -> int:
        codes = self.signature.encode(letter, "boolean view")
        return sum(masks[c] for masks, c in zip(self._masks, codes))

    def bit_of(self, variable_name: str) -> int:
        try:
            return self.variables.index(variable_name)
        except ValueError:
            raise UnknownLetterError(variable_name, where="boolean view variables")


# ---------------------------------------------------------------------------
# Concrete finite functions on letters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableFunction:
    """A total function on a finite signature: ``values[i]`` is its value on
    the i-th letter of ``signature.letters()``."""

    signature: FactoredAlphabet
    values: tuple[Value, ...]

    def __post_init__(self):
        if len(self.values) != self.signature.n_letters:
            raise ValueError(f"need one value per letter, got {len(self.values)} values")

    def __call__(self, letter: Letter) -> Value:
        return self.values[self.signature.index(letter, "table function")]


@dataclass(frozen=True)
class MonotoneDnf:
    """A monotone DNF over the boolean view of a signature.

    Terms are bitmasks over the view's variables; the function is true on a
    letter when some term's variables are all on.  The empty term (mask 0)
    makes the function constantly true.
    """

    view: BooleanView
    terms: tuple[int, ...]
    on_true: Value = 1
    on_false: Value = 0

    def __call__(self, letter: Letter) -> Value:
        return self.at(self.view.encode(letter))

    def at(self, mask: int) -> Value:
        """The value on a letter whose boolean-view mask is ``mask``."""
        return self.on_true if any(term & mask == term for term in self.terms) else self.on_false

    def term_names(self) -> tuple[tuple[str, ...], ...]:
        names = self.view.variables
        return tuple(
            tuple(names[b] for b in range(len(names)) if term >> b & 1)
            for term in self.terms
        )


def letter_values(functions: Sequence, letter: Letter) -> list:
    """``[f(letter) for f in functions]`` with the letter encoded once, for
    ``TableFunction`` over one signature or ``MonotoneDnf`` over one boolean
    view (``letter_reader``): a table function's value at the letter's
    index, a monotone DNF's at the letter's mask (``MonotoneDnf.at``).  A
    letter the signature or view rejects raises what calling the first
    function raises."""
    first = functions[0]
    if isinstance(first, TableFunction):
        i = first.signature.index(letter, "table function")
        return [f.values[i] for f in functions]
    mask = first.view.encode(letter)
    return [f.at(mask) for f in functions]


def letter_reader(functions: Sequence) -> Callable[[Letter], list] | None:
    """``letter_values`` on ``functions`` when they are all ``TableFunction``
    over one signature or all ``MonotoneDnf`` over one boolean view; None
    for any other list, whose functions must be called."""
    kind = type(functions[0]) if functions else None
    domain = {TableFunction: "signature", MonotoneDnf: "view"}.get(kind)
    if domain and all(type(f) is kind and getattr(f, domain) == getattr(functions[0], domain)
                      for f in functions):
        return partial(letter_values, functions)
    return None


@dataclass(frozen=True)
class ThresholdConjunction:
    """Conjunction of per-coordinate lower bounds over integer domains.

    ``None`` means the coordinate is unconstrained.
    """

    signature: FactoredAlphabet
    thresholds: tuple[int | None, ...]
    on_true: Value = 1
    on_false: Value = 0

    def __call__(self, letter: Letter) -> Value:
        self.signature.check(letter, "threshold conjunction")
        ok = all(t is None or v >= t for v, t in zip(letter, self.thresholds))
        return self.on_true if ok else self.on_false


# ---------------------------------------------------------------------------
# Enumerable function classes.
# ---------------------------------------------------------------------------


def mixed_radix_digits(index: int, radices: Sequence[int]) -> list[int]:
    """The digits of ``index`` in the mixed radix ``radices``, most
    significant first, so the last digit varies fastest; an index outside
    ``[0, prod(radices))`` is an ``IndexError``."""
    if index < 0:
        raise IndexError(index)
    rest, digits = index, []
    for base in reversed(radices):
        rest, digit = divmod(rest, base)
        digits.append(digit)
    if rest:
        raise IndexError(index)
    digits.reverse()
    return digits


class NumberedClass:
    """A finite class whose members are ``member(0)`` .. ``member(cardinality
    - 1)``; iteration yields them in that order."""

    def __iter__(self) -> Iterator:
        return map(self.member, range(self.cardinality))


@dataclass(frozen=True)
class TableClass(NumberedClass):
    """All total functions from a signature into a fixed output alphabet.
    A member's digits are its outputs on the letters, in letter order."""

    signature: FactoredAlphabet
    outputs: tuple[Value, ...]

    def __post_init__(self):
        if not self.outputs or len(set(self.outputs)) != len(self.outputs):
            raise ValueError("outputs must be non-empty and duplicate-free")

    @property
    def cardinality(self) -> int:
        return len(self.outputs) ** self.signature.n_letters

    def member(self, index: int) -> TableFunction:
        digits = mixed_radix_digits(index, (len(self.outputs),) * self.signature.n_letters)
        return TableFunction(self.signature, tuple(self.outputs[d] for d in digits))


def _incomparable_pair_count(n: int) -> int:
    """Unordered pairs of distinct non-empty subsets of [n], neither
    containing the other."""
    total = (2**n - 1) * (2**n - 2) // 2
    comparable = 3**n - 2 ** (n + 1) + 1
    return total - comparable


@dataclass(frozen=True)
class MonotoneDnfClass(NumberedClass):
    """Monotone DNFs with at most ``max_terms`` terms over a signature's
    boolean view.

    Canonical form: the constant-true function is the single empty term; any
    other member is an antichain of 1..max_terms non-empty terms (no term
    contained in another).  Members are numbered constant true first, then
    the single terms, then the two-term antichains, terms ordered by their
    variable lists.  Members are pairwise distinct as functions on the
    full boolean assignment space; on one-hot expanded coordinates only the
    one-hot patterns are realizable letters, so distinct members can coincide
    there.  Closed-form counting is implemented for max_terms in {1, 2}.
    """

    signature: FactoredAlphabet
    max_terms: int
    outputs: tuple[Value, Value] = (1, 0)

    def __post_init__(self):
        if self.max_terms not in (1, 2):
            raise ValueError(
                "antichain counting beyond 2 terms is not supported; "
                f"got max_terms={self.max_terms}"
            )

    @cached_property
    def view(self) -> BooleanView:
        return BooleanView(self.signature)

    @property
    def n_variables(self) -> int:
        return self.view.n_variables

    @cached_property
    def cardinality(self) -> int:
        n = self.n_variables
        count = 2**n  # constant true + single non-empty terms
        if self.max_terms == 2:
            count += _incomparable_pair_count(n)
        return count

    @staticmethod
    def _term_key(term: int) -> tuple[int, ...]:
        return tuple(b for b in range(term.bit_length()) if term >> b & 1)

    @cached_property
    def _single_terms(self) -> tuple[int, ...]:
        """The non-empty terms in ``_term_key`` order, built without a key
        per term: the terms over variables b..n-1 are {b}, then {b} joined
        to each term over b+1..n-1, then those terms themselves."""
        terms = []
        for b in reversed(range(self.n_variables)):
            bit = 1 << b
            terms = [bit, *[t | bit for t in terms], *terms]
        return tuple(terms)

    @cached_property
    def _term_pairs(self) -> tuple[tuple[int, int], ...]:
        singles = self._single_terms
        pairs = []
        for i, t1 in enumerate(singles):
            for t2 in singles[i + 1 :]:
                if t1 & t2 != t1 and t1 & t2 != t2:
                    pairs.append((t1, t2))
        return tuple(pairs)

    def _make(self, terms: tuple[int, ...]) -> MonotoneDnf:
        return MonotoneDnf(self.view, terms, self.outputs[0], self.outputs[1])

    def member(self, index: int) -> MonotoneDnf:
        if not 0 <= index < self.cardinality:
            raise IndexError(index)
        if index == 0:
            return self._make((0,))
        index -= 1
        singles = self._single_terms
        if index < len(singles):
            return self._make((singles[index],))
        return self._make(self._term_pairs[index - len(singles)])

    def from_term_names(self, term_names) -> MonotoneDnf:
        """Build a member from variable-name terms; [] means constant true."""
        terms = []
        for names in term_names:
            mask = 0
            for name in names:
                mask |= 1 << self.view.bit_of(name)
            terms.append(mask)
        if terms == [0]:
            return self._make((0,))
        if not terms or any(t == 0 for t in terms):
            raise ValueError("terms must be non-empty (lone [] means constant true)")
        if len(terms) > self.max_terms:
            raise ValueError(f"more than {self.max_terms} terms")
        if len(terms) == 2:
            a, b = terms
            if a & b in (a, b):
                raise ValueError("terms must form an antichain")
            terms = sorted(terms, key=self._term_key)
        return self._make(tuple(terms))


@dataclass(frozen=True)
class ThresholdClass(NumberedClass):
    """All threshold conjunctions over integer coordinates.

    Per coordinate the choices are "unconstrained" plus every domain value
    above the minimum; the at-least-minimum test is extensionally the same as
    unconstrained and is not listed twice, keeping members pairwise distinct.
    A member's digits are its choices, one per coordinate.
    """

    signature: FactoredAlphabet
    outputs: tuple[Value, Value] = (1, 0)

    def __post_init__(self):
        for coord in self.signature.coords:
            if not all(isinstance(v, int) for v in coord.values):
                raise ValueError(
                    f"threshold class needs integer domains; {coord.name!r} is not"
                )

    @cached_property
    def _choices(self) -> tuple[tuple[int | None, ...], ...]:
        return tuple(
            (None,) + tuple(sorted(c.values)[1:]) for c in self.signature.coords
        )

    @property
    def cardinality(self) -> int:
        return math.prod(len(ch) for ch in self._choices)

    def member(self, index: int) -> ThresholdConjunction:
        digits = mixed_radix_digits(index, [len(ch) for ch in self._choices])
        return ThresholdConjunction(
            self.signature, tuple(ch[d] for ch, d in zip(self._choices, digits)),
            self.outputs[0], self.outputs[1]
        )


def enumerate_class(cls: NumberedClass, cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield every member of a finite class (of functions or of cascades) in
    index order; errors out instead of starting an enumeration that cannot
    finish under the cap."""
    size = cls.cardinality
    if size > cap:
        raise CapExceededError("class enumeration", size, cap)
    return iter(cls)
