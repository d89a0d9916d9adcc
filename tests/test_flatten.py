"""``Cascade.flatten`` against a reference flatten, and pinned CLI output.

The reference below is the list-based breadth-first flatten that
``Cascade.flatten`` had before it gathered the product table in one numpy
pass: it steps every product state on every letter through
``Cascade._advance`` and numbers new states as a FIFO search meets them.
Both must give the same states, tables and initial state, with and without
pruning.  The sha256 digests pin what ``cascata flatten`` and ``cascata
minimize`` wrote for the scenarios under the reference.
"""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from cascata.alphabets import FactoredAlphabet, TableClass, TableFunction
from cascata.automata import ComponentAutomaton, FlatAutomaton
from cascata.cascade import Cascade
from cascata.cli import main
from cascata.crafting import (
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
)
from cascata.errors import CapExceededError
from cascata.primes import make_counter, make_flipflop
from cascata.specfile import cascade_to_spec

from helpers import cascade_with_counter, random_cascade


def reference_flatten(cascade: Cascade, prune: bool = True) -> FlatAutomaton:
    """The product automaton by a FIFO search over tuples of component state
    numbers (every product state, in product order, without ``prune``)."""
    letters = tuple(cascade.external.letters())
    letter_codes = [cascade.external.encode(a) for a in letters]
    init = tuple(c.core.initial_index for c in cascade.components)
    order = [init] if prune else list(
        itertools.product(*(range(c.core.n_states) for c in cascade.components)))
    number = {st: i for i, st in enumerate(order)}
    delta, out = [], []
    for st in order:  # with prune the list grows while it is walked: BFS
        drow, orow = [], []
        for external in letter_codes:
            codes = list(external)
            nxt = cascade._advance(st, codes)
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            drow.append(number[nxt])
            orow.append(codes[-1])
        delta.append(drow)
        out.append(orow)
    states = [tuple(c.core.states[q] for c, q in zip(cascade.components, st)) for st in order]
    return FlatAutomaton.from_tables(letters, states, delta, number[init], out,
                                     cascade.components[-1].outputs, cascade.external)


def assert_same_flatten(cascade: Cascade, what=None):
    for prune in (True, False):
        flat, ref = cascade.flatten(prune=prune), reference_flatten(cascade, prune)
        assert flat.states == ref.states, (what, prune)
        assert flat.delta_array.tolist() == ref.delta_array.tolist(), (what, prune)
        assert flat.out_array.tolist() == ref.out_array.tolist(), (what, prune)
        assert flat.core.initial_index == ref.core.initial_index, (what, prune)
        assert (flat.alphabet, flat.outputs) == (ref.alphabet, ref.outputs), (what, prune)
        assert flat.delta_array.dtype == flat.out_array.dtype == np.int64, (what, prune)


@pytest.mark.parametrize("block", range(4))
def test_flatten_matches_the_reference_on_random_cascades(block):
    # 4 x 40 cascades of up to four components over up to three coordinates
    for seed in range(block * 40, block * 40 + 40):
        rng = random.Random(seed)
        cascade = random_cascade(rng, max_d=4, max_arity=3, cores=rng.choice(
            ["random", "flipflop"]), simple=rng.random() < 0.3)
        assert_same_flatten(cascade, seed)


def test_flatten_matches_the_reference_on_cascades_with_a_counter():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        assert_same_flatten(cascade_with_counter(rng, modulus=rng.randint(2, 9), max_d=4), seed)


def test_flatten_matches_the_reference_on_family_members():
    family = SequenceTaskFamily(3)
    for index in range(0, family.cardinality, 97):
        assert_same_flatten(family.member(index), index)


def test_flatten_of_one_state_products_and_one_letter():
    one = FactoredAlphabet.single("x", ("only",))
    core = make_counter(2, initial=1)
    comp = ComponentAutomaton(one, (1,), lambda x: "read", core, output_fn="next_state")
    assert_same_flatten(Cascade([comp]))
    flat = Cascade([comp]).flatten()
    assert flat.states == ((1,),) and flat.delta_array.tolist() == [[0]]


def test_flatten_checks_the_cap_before_building():
    cascade = build_counter_task_cascade()
    with pytest.raises(CapExceededError):
        cascade.flatten(cap=cascade.product_size() - 1)
    assert cascade.flatten(cap=cascade.product_size()).n_states == 16384


def test_table_input_functions_are_read_like_called_ones():
    """A ``TableFunction`` over the projected alphabet is read positionally;
    one over a signature that lists the values in another order is not the
    same signature, so it is called per letter."""
    alphabet = FactoredAlphabet.of(("x", ("a", "b", "c")), ("y", (0, 1)))
    core = make_flipflop(with_reset=True)
    reordered = FactoredAlphabet.of(("x", ("c", "a", "b")), ("y", (1, 0)))
    for signature in (alphabet, reordered):
        for index in range(0, TableClass(signature, core.alphabet).cardinality, 37):
            fn = TableClass(signature, core.alphabet).member(index)
            assert isinstance(fn, TableFunction)
            read = ComponentAutomaton(alphabet, (1, 2), fn, core, output_fn="next_state")
            called = ComponentAutomaton(alphabet, (1, 2), lambda x, fn=fn: fn(x), core,
                                        output_fn="next_state")
            assert (read.next_array.tolist(), read.out_array.tolist()) == (
                called.next_array.tolist(), called.out_array.tolist())
            assert [read.input_fn(x) for x in alphabet.letters()] == [
                fn(x) for x in alphabet.letters()]


# sha256 of what ``cascata flatten`` / ``cascata minimize`` wrote for each
# scenario spec (``cascade_to_spec`` as JSON) before flatten was vectorized
SCENARIOS = {
    "flipflop": build_flipflop_task_cascade,
    "counter-2": lambda: build_counter_task_cascade(2, 1, 1, 1),
    "counter-4": lambda: build_counter_task_cascade(4, 3, 1, 2),
    "counter-16": build_counter_task_cascade,
}
COMMANDS = {
    "flatten-json": ["flatten"],
    "flatten-dot": ["flatten", "--format", "dot"],
    "flatten-no-prune-json": ["flatten", "--no-prune"],
    "flatten-no-prune-dot": ["flatten", "--no-prune", "--format", "dot"],
    "minimize-json": ["minimize"],
}
CLI_SHA256 = {
    "flipflop": {
        "flatten-json": "db3a5c47b53efe2ea6c6186c7fb7ddfb36fd2c0d6de0395e4fbdb8bdb4c674d1",
        "flatten-dot": "0ed70a74d9f0e980e8f64df2a2cae0ed0a548a840ddd33b1cad2b2a7987cfd59",
        "flatten-no-prune-json":
            "2df96f85360655e05b0fa65f821be30f3be7d3c4be0d5c7f9505f719309a85dd",
        "flatten-no-prune-dot":
            "821978b4effe979786d5331bcb53cc59f1095058cebd55b2338335e2f6aecd0a",
        "minimize-json": "c18624ea1d7c52f1625563cc2cce813f7098e9aaf403d457d5ff7806043f2053",
    },
    "counter-2": {
        "flatten-json": "18373a92fd6faf2b3347ed65328902aee6ce545852657bbd22ca3bd9eba40977",
        "flatten-dot": "234df3cd59afb92dd09b173c5b46d40636b036f8ebf02471041a5348003ccc5d",
        "flatten-no-prune-json":
            "e774c2644978cc46057cc836ca0ca75c4908178dfd1693380033794106d40642",
        "flatten-no-prune-dot":
            "93f80f840b62a5580a5c3b1837d1e6acf0bc349a8488be7730e25242e515fca0",
        "minimize-json": "438ae71365b12e59c037fa025582957304d71f3f8156ba0900b2bbed1ba33e70",
    },
    "counter-4": {
        "flatten-json": "2dfdd32b8e4a39668414d54a40d27c0c713eb8023a7fb3c36a7c82cd9a5ea3ab",
        "flatten-dot": "50ce3af48ef1e8e77a2e2d94d0441f196ba6f229748dcb7b8292a34da3cf7cf0",
        "flatten-no-prune-json":
            "d92011b70c721f3452ebb085d1d856241edc8f8cf269c5e381f7c4dbd9c34cb0",
        "flatten-no-prune-dot":
            "ef0278ce38fbc3f810e086387b5cb7207d55172d8bdae8a55cb82a75873401ed",
        "minimize-json": "3f04195879af6f7f033b2b96456ccb1847b00bbe04e50916b0353268de571665",
    },
    "counter-16": {
        "flatten-json": "15631e50a33f1361a61796feed2fe57359701960a1d668fbb03715c6f1f6a9b5",
        "flatten-dot": "826b356e85284508cb0f34c5bb0cc07a5de79218ac3131ded750c3eeecc39761",
        "flatten-no-prune-json":
            "c3113ec329c05de5b9b9ea125068164c75ef2197ffe328557f56c4e76970eeb7",
        "flatten-no-prune-dot":
            "38fd2b78e54aeb9634253c590645ffc0c87514d0f2d53b53d7c2065bf669c897",
        "minimize-json": "dfb1f56ba5cac442569e8404bd16e110103b0e3f6796bda4f7ea39c668f5054f",
    },
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_cli_flatten_and_minimize_output_is_pinned(scenario, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(cascade_to_spec(SCENARIOS[scenario]()), indent=2))
    for name, args in COMMANDS.items():
        out = tmp_path / name
        assert main([args[0], str(spec), *args[1:], "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == CLI_SHA256[scenario][name], name
