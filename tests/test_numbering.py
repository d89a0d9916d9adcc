"""Every finite class numbers its members in mixed radix, last position
fastest, and iterates in index order.  The reference orders are written out
here, independently of ``mixed_radix_digits``: ``itertools.product`` for
the table and threshold classes and the cascade classes, antichain order for
monotone DNFs."""

import itertools
import random

import pytest

from cascata.alphabets import (
    FactoredAlphabet,
    MonotoneDnf,
    MonotoneDnfClass,
    TableClass,
    TableFunction,
    ThresholdClass,
    ThresholdConjunction,
)
from cascata.crafting import SequenceTaskFamily
from cascata.specfile import cascade_to_spec, class_from_spec


def random_signature(rng: random.Random, integer: bool, coords: int = 3) -> FactoredAlphabet:
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, coords))]
    return FactoredAlphabet.of(*(
        (f"c{i}", tuple(rng.sample(range(-2, 6), size)) if integer
         else tuple(f"v{i}{j}" for j in range(size)))
        for i, size in enumerate(sizes)))


def table_reference(cls: TableClass) -> list:
    return [TableFunction(cls.signature, values)
            for values in itertools.product(cls.outputs, repeat=cls.signature.n_letters)]


def threshold_reference(cls: ThresholdClass) -> list:
    choices = [(None,) + tuple(sorted(c.values)[1:]) for c in cls.signature.coords]
    return [ThresholdConjunction(cls.signature, thresholds, *cls.outputs)
            for thresholds in itertools.product(*choices)]


def dnf_reference(cls: MonotoneDnfClass) -> list:
    """Constant true, then single terms, then two-term antichains; terms in
    the order of their sorted variable lists."""
    n = cls.n_variables
    terms = sorted(range(1, 2**n), key=lambda t: [b for b in range(n) if t >> b & 1])
    members = [(0,)] + [(t,) for t in terms]
    if cls.max_terms == 2:
        members += [(a, b) for i, a in enumerate(terms) for b in terms[i + 1:]
                    if a & b not in (a, b)]
    return [MonotoneDnf(cls.view, m, *cls.outputs) for m in members]


def reference(cls) -> list:
    if isinstance(cls, TableClass):
        return table_reference(cls)
    if isinstance(cls, ThresholdClass):
        return threshold_reference(cls)
    return dnf_reference(cls)


def indexed(cls) -> list:
    return [cls.member(i) for i in range(cls.cardinality)]


@pytest.mark.parametrize("seed", range(12))
def test_function_classes_are_numbered_like_the_reference(seed):
    rng = random.Random(4100 + seed)
    boolean = FactoredAlphabet.of(*((f"b{i}", (0, 1)) for i in range(rng.randint(1, 3))))
    classes = [
        TableClass(random_signature(rng, False, 2), tuple(range(rng.randint(2, 3)))),
        ThresholdClass(random_signature(rng, True), ("hi", "lo")),
        MonotoneDnfClass(random_signature(rng, False, 2), rng.randint(1, 2)),
        MonotoneDnfClass(boolean, 2),
    ]
    for cls in classes:
        expected = reference(cls)
        assert len(expected) == cls.cardinality
        assert indexed(cls) == expected
        assert list(cls) == expected
        for bad in (-1, cls.cardinality):
            with pytest.raises(IndexError):
                cls.member(bad)


def cascade_reference(cls) -> list:
    choices = itertools.product(*(reference(c) for c in cls.input_classes))
    return [cascade_to_spec(cls.build(fns)) for fns in choices]


CLASS_SPEC = {
    "alphabet": [{"name": "event", "values": ["a", "b"]}, {"name": "n", "values": [0, 1, 2]}],
    "components": [
        {"name": "k1", "dependencies": [2], "core": "flipflop_wo",
         "input_class": {"kind": "threshold", "on_true": "set", "on_false": "read"},
         "output_fn": "state"},
        {"name": "k2", "dependencies": [1, 3], "core": "flipflop",
         "input_class": {"kind": "table", "outputs": ["set", "read"]},
         "output_fn": "next_state"},
        {"name": "k3", "dependencies": [1, 4], "core": "flipflop_wo",
         "input_class": {"kind": "mono_dnf", "max_terms": 1,
                         "on_true": "set", "on_false": "read"},
         "output_fn": "state"},
    ],
}


@pytest.mark.parametrize("cls", [SequenceTaskFamily(2), class_from_spec(CLASS_SPEC)],
                         ids=["family-d2", "class-spec"])
def test_cascade_classes_are_numbered_like_the_product(cls):
    expected = cascade_reference(cls)
    assert len(expected) == cls.cardinality
    assert [cascade_to_spec(m) for m in indexed(cls)] == expected
    assert [cascade_to_spec(m) for m in cls] == expected
