import ast
import hashlib
import itertools
import json
import random
import sys
import threading
from pathlib import Path

import pytest

import cascata
from cascata.alphabets import Coordinate, FactoredAlphabet, TableClass, mixed_radix_digits
from cascata.automata import ComponentAutomaton
from cascata.cascade import Cascade, CascadeClass, ClassPart, build_chained, chain_alphabet
from cascata.crafting import (
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
)
from cascata.errors import CapExceededError, EmptyInputError
from cascata.primes import make_flipflop
from cascata.specfile import cascade_from_spec, cascade_to_spec, class_from_spec

from helpers import (exhaustive_strings, random_cascade, random_component, random_external,
                     string_sweep)
from test_cli_fuzz import CLASS_SPEC as STEEL_CLASS_SPEC
from test_numbering import CLASS_SPEC as MIXED_CLASS_SPEC
from test_specfile_cli import _family_d2_class_spec


def test_depth_one_cascade_matches_induced_automaton():
    rng = random.Random(1)
    for _ in range(15):
        comp = random_component(rng, random_external(rng), name="solo")
        cascade = Cascade([comp])
        induced = comp.induce()
        for s in string_sweep(list(comp.alphabet.letters()), 4, 60, rng):
            assert cascade.run(s) == induced.run(s)


def test_step_reports_one_output_per_component():
    c = build_flipflop_task_cascade()
    result = c.step(c.initial_state(), ("wood",))
    assert len(result.component_outputs) == c.depth
    assert result.output == result.component_outputs[-1]


def test_step_outputs_use_pre_update_states():
    # a watcher that sets on 'x', and a follower that reads the watcher's
    # output coordinate; on the first 'x' the follower must still see 0
    external = FactoredAlphabet.single("event", ("x", "y"))
    watcher = ComponentAutomaton(
        external, (1,), lambda v: "set" if v[0] == "x" else "read",
        make_flipflop(with_reset=False), output_fn="state", name="watch",
    )
    follower = ComponentAutomaton(
        chain_alphabet(external, [watcher]), (2,),
        lambda v: "set" if v[0] == 1 else "read",
        make_flipflop(with_reset=False), output_fn="state", name="follow",
    )
    c = Cascade([watcher, follower])
    first = c.step(c.initial_state(), ("x",))
    assert first.component_outputs == (0, 0)
    assert first.state == (1, 0)
    second = c.step(first.state, ("y",))
    assert second.component_outputs == (1, 0)
    assert second.state == (1, 1)


def test_counter_scenario_first_wood_step():
    c = build_counter_task_cascade()
    result = c.step(c.initial_state(), ("wood",))
    # wood counter increments, everything else stays put
    assert result.state == (1, 0, 0, 0, 0)
    assert result.output == 0


def test_run_rejects_empty_string():
    with pytest.raises(EmptyInputError):
        build_flipflop_task_cascade().run(())


def test_flatten_equivalence_randomized():
    rng = random.Random(2)
    for _ in range(60):
        c = random_cascade(rng)
        flat = c.flatten()
        for s in string_sweep(list(c.external.letters()), 6, 250, rng):
            assert c.run(s) == flat.run(s)


def test_flatten_unpruned_covers_the_product():
    c = build_flipflop_task_cascade()
    assert c.flatten(prune=False).n_states == c.product_size() == 32


def test_flatten_product_cap():
    c = build_counter_task_cascade()
    with pytest.raises(CapExceededError) as err:
        c.flatten(cap=10_000)
    assert err.value.size == 16384


def test_is_simple_examples():
    assert build_flipflop_task_cascade().is_simple()
    rng = random.Random(3)
    solo = Cascade([random_component(rng, random_external(rng), name="solo")])
    assert solo.is_simple()  # vacuous for depth 1


def test_is_simple_rejects_constant_first_output():
    external = FactoredAlphabet.single("event", ("x", "y"))
    const = ComponentAutomaton(
        external, (1,), lambda v: "read", make_flipflop(with_reset=False),
        output_fn=lambda q, v: 0, outputs=(0, 1), name="const",
    )
    second = ComponentAutomaton(
        chain_alphabet(external, [const]), (1,), lambda v: "read",
        make_flipflop(with_reset=False), output_fn="state", name="tail",
    )
    assert not Cascade([const, second]).is_simple()


def test_arity_chaining_is_validated():
    external = FactoredAlphabet.single("event", ("x", "y"))
    a = ComponentAutomaton(external, (1,), lambda v: "read",
                           make_flipflop(), output_fn="state", name="a")
    b_alphabet = external.extend("not_a", (0, 1, 2))
    with pytest.raises(ValueError):
        b = ComponentAutomaton(b_alphabet, (1,), lambda v: "read",
                               make_flipflop(), output_fn="state", name="b")
        Cascade([a, b])


def test_build_chained_constructs_a_valid_cascade():
    from cascata.cascade import build_chained

    external = FactoredAlphabet.single("event", ("x", "y"))
    cascade = build_chained(external, [
        {"name": "watch", "dependencies": (1,),
         "input_fn": lambda v: "set" if v[0] == "x" else "read",
         "core": make_flipflop(with_reset=False)},
        {"name": "goal", "dependencies": (1, 2),
         "input_fn": lambda v: "set" if (v[0] == "y" and v[1]) else "read",
         "core": make_flipflop(with_reset=False),
         "output_fn": "next_state"},
    ])
    assert cascade.depth == 2
    assert cascade.run((("x",), ("y",))) == 1
    assert cascade.run((("y",), ("x",))) == 0


def test_structural_arity_invariant():
    rng = random.Random(4)
    for _ in range(20):
        c = random_cascade(rng, max_d=3)
        base = c.external.arity
        for i, comp in enumerate(c.components):
            assert comp.alphabet.arity == base + i


def test_class_members_share_their_chained_and_projected_alphabets():
    family = SequenceTaskFamily(3)
    first, other = family.member(0), family.member(12345)
    for a, b in zip(first.components, other.components):
        assert a.alphabet is b.alphabet and a.projected is b.projected
    # a member built through build_chained, with alphabets of its own, is the same cascade
    alone = build_chained(family.external, [dict(p._asdict(), input_fn=p.input_class.member(d))
                                            for p, d in zip(family.parts, (3, 1, 20))])
    member = family.member((3 * family._radices[1] + 1) * family._radices[2] + 20)
    assert cascade_to_spec(member) == cascade_to_spec(alone)


def test_class_part_with_a_callable_output_fn_needs_its_outputs():
    external = FactoredAlphabet.single("event", ("x", "y"))
    inputs = TableClass(external, ("set", "read"))
    core = make_flipflop(with_reset=False)
    goal_inputs = TableClass(external.extend("watch", (0, 1)), ("set", "read"))
    parts = [ClassPart("watch", (1,), inputs, core, lambda q, x: q),
             ClassPart("goal", (1, 2), goal_inputs, core)]
    with pytest.raises(ValueError, match="'watch'.*needs its values in outputs"):
        CascadeClass(external, parts).member(0)
    parts[0] = parts[0]._replace(outputs=(0, 1))
    assert CascadeClass(external, parts).member(0).depth == 2


def test_class_part_with_a_final_callable_output_fn_needs_its_outputs():
    external = FactoredAlphabet.single("event", ("x", "y"))
    core = make_flipflop(with_reset=False)
    parts = [ClassPart("watch", (1,), TableClass(external, ("set", "read")), core),
             ClassPart("goal", (1, 2), TableClass(external.extend("watch", (0, 1)),
                                                  ("set", "read")), core, lambda q, x: q)]
    with pytest.raises(ValueError, match="'goal'.*needs its values in outputs"):
        CascadeClass(external, parts)
    parts[1] = parts[1]._replace(outputs=(0, 1))
    assert CascadeClass(external, parts).descriptor(2).components[1].output_size == 2


# ---------------------------------------------------------------------------
# Class members equal the cascades that chaining their parts makes.
# ---------------------------------------------------------------------------


def reference_build(cls: CascadeClass, input_fns) -> Cascade:
    """A member as ``CascadeClass.build`` made it before it called
    ``build_chained``: the class chains each part's input alphabet from the
    earlier parts' output values itself, here into alphabet objects of the
    reference's own."""
    alphabets = [cls.external]
    for p, outputs in zip(cls.parts[:-1], cls.part_outputs):
        coords = alphabets[-1].coords + (Coordinate(p.name, tuple(outputs)),)
        alphabets.append(FactoredAlphabet(coords))
    return Cascade(
        ComponentAutomaton(alphabet, p.dependencies, fn, p.core, output_fn=p.output_fn,
                           outputs=p.outputs, name=p.name)
        for p, alphabet, fn in zip(cls.parts, alphabets, input_fns, strict=True))


def _input_fns(cls: CascadeClass, index: int) -> list:
    digits = mixed_radix_digits(index, cls._radices)
    return [p.input_class.member(d) for p, d in zip(cls.parts, digits)]


@pytest.mark.parametrize("cls, n_members", [
    (SequenceTaskFamily(2), None),
    (SequenceTaskFamily(3), 300),
    (class_from_spec(MIXED_CLASS_SPEC), None),
    (class_from_spec(STEEL_CLASS_SPEC), None),
    (class_from_spec(_family_d2_class_spec()), None),
], ids=["family-d2", "family-d3", "table-threshold-dnf", "steel-dnf", "family-d2-spec"])
def test_members_equal_the_reference_build(cls, n_members):
    indices = range(cls.cardinality)
    if n_members is not None:
        indices = sorted(random.Random(14).sample(indices, n_members))
    for index in indices:
        member, reference = cls.member(index), reference_build(cls, _input_fns(cls, index))
        assert cascade_to_spec(member) == cascade_to_spec(reference)
        for mine, theirs in zip(member.components, reference.components, strict=True):
            assert (mine.next_array.tolist(), mine.out_array.tolist(), mine.outputs) == (
                theirs.next_array.tolist(), theirs.out_array.tolist(), theirs.outputs)


def _signature(fn):
    """The alphabet an input function of a spec file is defined over."""
    return fn.view.signature if hasattr(fn, "view") else fn.signature


def test_members_build_chained_and_spec_files_share_alphabets():
    family = SequenceTaskFamily(3)
    member, other = family.member(4321), family.member(17)
    alone = build_chained(family.external, [dict(p._asdict(), input_fn=c.input_fn)
                                            for p, c in zip(family.parts, member.components)])
    for mine, theirs, built in zip(member.components, other.components, alone.components,
                                   strict=True):
        assert mine.alphabet is theirs.alphabet is built.alphabet
        assert mine.projected is theirs.projected is built.projected
    # a spec file starts from an external alphabet of its own; the parser
    # chains it once, and the cascade holds the parser's alphabets
    parsed = cascade_from_spec(cascade_to_spec(member))
    assert cascade_to_spec(parsed) == cascade_to_spec(member)
    for i, (mine, comp) in enumerate(zip(member.components, parsed.components, strict=True)):
        assert comp.alphabet == mine.alphabet and comp.projected == mine.projected
        assert comp.alphabet is chain_alphabet(parsed.external, parsed.components[:i])
        assert comp.projected is _signature(comp.input_fn)


# ---------------------------------------------------------------------------
# Iteration builds each part's component once per choice of that part.
# ---------------------------------------------------------------------------

TABLE_CLASS_SPEC = {
    "alphabet": [{"name": "event", "values": ["a", "b"]}],
    "components": [
        {"name": "k1", "dependencies": [1], "core": "flipflop_wo",
         "input_class": {"kind": "table", "outputs": ["set", "read"]}, "output_fn": "state"},
        {"name": "k2", "dependencies": [1, 2], "core": "flipflop",
         "input_class": {"kind": "table", "outputs": ["set", "reset", "read"]},
         "output_fn": "next_state"},
    ],
}
THRESHOLD_CLASS_SPEC = {
    "alphabet": [{"name": "n", "values": [0, 1, 2]}, {"name": "m", "values": [0, 1]}],
    "components": [
        {"name": "k1", "dependencies": [1], "core": "flipflop_wo",
         "input_class": {"kind": "threshold", "on_true": "set", "on_false": "read"},
         "output_fn": "state"},
        {"name": "k2", "dependencies": [1, 2, 3], "core": "counter:3",
         "input_class": {"kind": "threshold", "on_true": "inc", "on_false": "read"},
         "output_fn": "state"},
        {"name": "k3", "dependencies": [4], "core": "flipflop_wo",
         "input_class": {"kind": "threshold", "on_true": "set", "on_false": "read"},
         "output_fn": "next_state"},
    ],
}
ITERATED_CLASSES = {
    "family-d2": SequenceTaskFamily(2),
    "table": class_from_spec(TABLE_CLASS_SPEC),
    "threshold": class_from_spec(THRESHOLD_CLASS_SPEC),
}


@pytest.mark.parametrize("name", ITERATED_CLASSES)
def test_iterated_members_equal_indexed_members(name):
    cls = ITERATED_CLASSES[name]
    members = list(cls)
    assert len(members) == cls.cardinality
    strings = list(exhaustive_strings(list(cls.external.letters()), 3))
    for index, member in enumerate(members):
        indexed = cls.member(index)
        assert cascade_to_spec(member) == cascade_to_spec(indexed)
        assert [member.run(s) for s in strings] == [indexed.run(s) for s in strings]
        for mine, theirs in zip(member.components, indexed.components, strict=True):
            assert mine.alphabet is theirs.alphabet and mine.projected is theirs.projected


@pytest.mark.parametrize("name", ITERATED_CLASSES)
def test_iterated_members_share_the_components_of_their_choices(name):
    cls = ITERATED_CLASSES[name]
    members = list(cls)
    digits = [mixed_radix_digits(i, cls._radices) for i in range(len(members))]
    for i, j in itertools.combinations(range(len(members)), 2):
        for part, (a, b) in enumerate(zip(members[i].components, members[j].components)):
            assert (a is b) == (digits[i][part] == digits[j][part])


def _counting_constructions(monkeypatch) -> list:
    """Every ``ComponentAutomaton`` constructed from now on, in order."""
    built, init = [], ComponentAutomaton.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ComponentAutomaton, "__init__", counted)
    return built


@pytest.mark.parametrize("d, n_members, n_built", [
    (2, 68, 4 + 17),  # 4 watchers, 17 goals
    (3, 20_288, 8 + 8 + 317),  # 8 watchers per watcher part, 317 goals
])
def test_family_iteration_builds_each_part_choice_once(monkeypatch, d, n_members, n_built):
    family, built = SequenceTaskFamily(d), _counting_constructions(monkeypatch)
    assert len(list(family)) == n_members == family.cardinality
    assert len(built) == n_built == sum(family._radices)


# ---------------------------------------------------------------------------
# Indexed and iterated members share one component per (part, choice).
# ---------------------------------------------------------------------------

SEEDED_CLASS_MEMBERS = 2_000  # the most members a seeded class spec may have
CORE_LETTERS = {"flipflop": ("set", "reset", "read"), "flipflop_wo": ("set", "read"),
                "counter:2": ("inc", "read"), "counter:3": ("inc", "read")}
INPUT_KINDS = ("table", "threshold", "mono_dnf")


def _seeded_class_spec(seed: int, n_parts: int) -> dict:
    """A class spec of ``n_parts`` parts over one or two small external
    coordinates; part i's input class is of kind ``INPUT_KINDS[(seed + i) %
    3]``, so every kind occurs among two consecutive seeds.  Specs are
    drawn until one has at most ``SEEDED_CLASS_MEMBERS`` members."""
    rng = random.Random(seed)
    while True:
        alphabet = [{"name": "x", "values": [0, 1, 2]}]
        if rng.random() < 0.5:
            alphabet.append({"name": "y", "values": [0, 1]})
        components = []
        for i in range(n_parts):
            arity = len(alphabet) + i
            core = rng.choice(sorted(CORE_LETTERS))
            on = rng.sample(CORE_LETTERS[core], 2)
            kind = INPUT_KINDS[(seed + i) % 3]
            input_class = ({"kind": "table", "outputs": on} if kind == "table" else
                           {"kind": kind, "on_true": on[0], "on_false": on[1]})
            if kind == "mono_dnf":
                input_class["max_terms"] = rng.randint(1, 2)
            components.append({
                "name": f"k{i + 1}", "core": core, "input_class": input_class,
                # every part after the first reads the one before it
                "dependencies": sorted({arity, *rng.sample(range(1, arity + 1), 1)}
                                       if i else rng.sample(range(1, arity + 1), 1)),
                "output_fn": rng.choice(["state", "next_state"])})
        spec = {"alphabet": alphabet, "components": components}
        if class_from_spec(spec).cardinality <= SEEDED_CLASS_MEMBERS:
            return spec


SEEDED_SPECS = [(seed, n_parts) for n_parts in (2, 3) for seed in range(4)]


def spec_hash(cascade: Cascade) -> str:
    """The sha256 of ``cascade``'s spec file, keys sorted."""
    text = json.dumps(cascade_to_spec(cascade), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_seeded_class_specs_cover_every_input_kind():
    kinds = {c["input_class"]["kind"] for seed, n_parts in SEEDED_SPECS
             for c in _seeded_class_spec(seed, n_parts)["components"]}
    assert kinds == set(INPUT_KINDS)


@pytest.mark.parametrize("seed, n_parts", SEEDED_SPECS)
def test_indexed_and_iterated_members_hold_the_same_components(seed, n_parts):
    cls = class_from_spec(_seeded_class_spec(seed, n_parts))
    indices = sorted(random.Random(seed).sample(range(cls.cardinality),
                                                min(cls.cardinality, 40)))
    indexed = {i: cls.member(i) for i in indices}  # indexed first, then iterated
    members = list(cls)
    assert len(members) == cls.cardinality
    for i, member in enumerate(members):
        again = cls.member(i)
        for k, comp in enumerate(member.components):
            assert again.components[k] is comp
            if i in indexed:
                assert indexed[i].components[k] is comp
        assert spec_hash(again) == spec_hash(member)
    # the same members as build_chained makes from the members' input functions
    for i in indices:
        alone = cls.build([comp.input_fn for comp in members[i].components])
        assert spec_hash(alone) == spec_hash(members[i])


@pytest.mark.parametrize("seed, n_parts", SEEDED_SPECS)
def test_members_build_each_requested_part_choice_once(monkeypatch, seed, n_parts):
    cls = class_from_spec(_seeded_class_spec(seed, n_parts))
    built = _counting_constructions(monkeypatch)
    rng, requested = random.Random(seed), set()
    for index in rng.choices(range(cls.cardinality), k=30):
        cls.member(index)
        requested |= set(enumerate(mixed_radix_digits(index, cls._radices)))
        assert len(built) == len(requested)
    list(cls)
    list(cls)
    assert len(built) == sum(cls._radices)


@pytest.mark.parametrize("d", [4, 5])
def test_a_family_member_builds_only_its_own_components(monkeypatch, d):
    family = SequenceTaskFamily(d)
    built = _counting_constructions(monkeypatch)
    index = family.cardinality // 3
    first = family.member(index)
    assert len(built) == d
    # a member that differs only in its goal choice builds that goal alone
    other = family.member(index + 1 if (index + 1) % family._radices[-1] else index - 1)
    assert len(built) == d + 1
    shared = [a is b for a, b in zip(first.components, other.components)]
    assert shared == [True] * (d - 1) + [False]
    assert all(a is b for a, b in zip(family.member(index).components, first.components))
    assert len(built) == d + 1


def test_threads_racing_on_one_class_get_the_same_members():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            family = SequenceTaskFamily(3)
            indices = [4432, 4433, 12345, 20287]
            barrier, seen = threading.Barrier(6), []

            def race():
                barrier.wait()
                seen.append([family.member(i).components for i in indices])

            threads = [threading.Thread(target=race) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and len(seen) == 6
            for members in seen:
                assert all(a is b for mine, first in zip(members, seen[0])
                           for a, b in zip(mine, first, strict=True))
            # the components every thread got are the ones the class kept
            assert all(a is b for i, first in zip(indices, seen[0])
                       for a, b in zip(family.member(i).components, first, strict=True))
    finally:
        sys.setswitchinterval(interval)


def test_members_are_not_assembled_by_build_chained(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("build_chained called")

    family = SequenceTaskFamily(3)
    monkeypatch.setattr(cascata.cascade, "build_chained", refused)
    assert family.member(4432).depth == 3
    assert len(list(SequenceTaskFamily(2))) == 68
    with pytest.raises(AssertionError, match="build_chained called"):
        family.sequence_target()


@pytest.mark.parametrize("n_fns", [0, 2, 4])
def test_build_needs_one_input_function_per_part(n_fns):
    family = SequenceTaskFamily(3)
    fns = [comp.input_fn for comp in family.sequence_target().components]
    with pytest.raises(ValueError):
        family.build((fns * 2)[:n_fns])


def test_no_module_of_the_library_holds_global_state():
    # caches live on the objects they serve (a class's components, a
    # component's wiring, a cascade's levels), never in module globals
    sources = sorted(Path(cascata.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    statements = [(path.name, node.lineno) for path in sources
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Global)]
    assert statements == []
