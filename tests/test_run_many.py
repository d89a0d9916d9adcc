"""``run_many``, which steps many strings together, against per-string
``run``, and how ``draw_sample`` and ``estimate_risk`` use it."""

import random
import tracemalloc

import numpy as np
import pytest

from cascata.automata import FlatAutomaton, letter_positions
from cascata import cascade as cascade_module
from cascata.cascade import Cascade, stacked_output_matrix
from cascata.crafting import SequenceTaskFamily
from cascata.errors import EmptyInputError
from cascata.learner import StringDistribution, _automaton, draw_sample, estimate_risk
from cascata.specfile import cascade_from_spec

from helpers import cascade_with_counter, million_state_counter_spec, random_cascade


def _outputs_match_run(automaton, dist, n, seed):
    """Draw n strings from ``dist`` and check ``run_many`` on them against
    ``run``; returns the strings."""
    codes, lengths = dist.draw(n, random.Random(seed))
    strings = dist.strings(codes, lengths)
    outputs = automaton.run_many(dist.alphabet, codes, lengths)
    assert [automaton.outputs[o] for o in outputs.tolist()] == [automaton.run(s) for s in strings]
    return strings


@pytest.mark.parametrize("seed", range(40))
def test_run_many_matches_run_on_random_cascades_and_their_flattenings(seed):
    rng = random.Random(seed)
    cascade = random_cascade(rng) if seed % 4 else cascade_with_counter(rng)
    letters = tuple(cascade.external.letters())
    flat = cascade.flatten()
    for max_len in (1, 7):
        dist = StringDistribution(letters, max_len)
        strings = _outputs_match_run(cascade, dist, 300, seed)
        assert _outputs_match_run(flat, dist, 300, seed) == strings
        assert {len(s) for s in strings} >= {1, max_len}
    # a one-letter alphabet, and letters of weight 0, in another order
    for dist in (StringDistribution(letters[-1:], 9),
                 StringDistribution(letters[::-1], 6, tuple(i % 2 for i in range(len(letters))))):
        strings = _outputs_match_run(cascade, dist, 100, seed)
        assert _outputs_match_run(flat, dist, 100, seed) == strings


def _batch(rng, total, weights):
    """Strings of 1..7 letters, ``total`` letters in all, drawn as codes
    with ``weights``; returns the codes and the lengths."""
    lengths, left = [], total
    while left:
        lengths.append(min(rng.randint(1, 7), left))
        left -= lengths[-1]
    codes = rng.choices(range(len(weights)), weights, k=total)
    return np.array(codes, dtype=np.intp), np.array(lengths, dtype=np.intp)


def _tables_built(monkeypatch) -> list:
    """Records, from now on, the letter count of every product table that
    ``Cascade._product_tables`` builds."""
    built, tables = [], Cascade._product_tables

    def recorded(self, letter_codes):
        built.append(len(letter_codes))
        return tables(self, letter_codes)

    monkeypatch.setattr(Cascade, "_product_tables", recorded)
    return built


def _kernel_calls(monkeypatch) -> list:
    """Records, from now on, the string count of every call to the level
    kernel, ``cascade._step_levels``, on which ``stacked_output_matrix``
    steps class members."""
    calls, kernel = [], cascade_module._step_levels

    def recorded(levels, externals, codes, lengths):
        calls.append(len(lengths))
        return kernel(levels, externals, codes, lengths)

    monkeypatch.setattr(cascade_module, "_step_levels", recorded)
    return calls


def _run_many_matches(cascade, flat, letters, codes, lengths):
    """``run_many`` on the strings, against ``run`` and the flattening's
    ``run_many``; returns the output codes."""
    outputs = cascade.run_many(letters, codes, lengths)
    ends = np.cumsum(lengths).tolist()
    strings = [tuple(letters[c] for c in codes[end - n:end].tolist())
               for end, n in zip(ends, lengths.tolist())]
    assert [cascade.outputs[o] for o in outputs.tolist()] == [cascade.run(s) for s in strings]
    assert outputs.tolist() == flat.run_many(letters, codes, lengths).tolist()
    return outputs


@pytest.mark.parametrize("seed", range(40))
def test_both_run_many_paths_match_run_and_the_flattening(seed, monkeypatch):
    # a batch with exactly as many letters as the product table over its
    # letters has entries is stepped on the table; the same strings with
    # one more letter listed, and a batch of one letter fewer, on the level
    # kernel that the certification searches step class members on
    rng = random.Random(seed)
    cascade = random_cascade(rng) if seed % 4 else cascade_with_counter(rng)
    flat = cascade.flatten()
    letters = tuple(cascade.external.letters())
    built, stepped_on = _tables_built(monkeypatch), _kernel_calls(monkeypatch)
    for letters, weights in [(letters, [1] * len(letters)),
                             (letters[::-1], [i % 2 for i in range(len(letters))]),
                             (letters[-1:], [1])]:
        boundary = cascade.product_size() * len(letters)
        codes, lengths = _batch(rng, boundary, weights)
        tabled = _run_many_matches(cascade, flat, letters, codes, lengths)
        assert built == [len(letters)] and not stepped_on
        stepped = _run_many_matches(cascade, flat, letters + letters[:1], codes, lengths)
        assert tabled.tolist() == stepped.tolist()
        fewer = _batch(rng, boundary - 1, weights)
        _run_many_matches(cascade, flat, letters, *fewer)
        assert built.pop() == len(letters) and not built
        assert stepped_on == [len(lengths), len(fewer[1])]
        stepped_on.clear()
    assert stacked_output_matrix([cascade], [letters * 2]) is not None
    assert stepped_on == [1]


def test_run_many_on_no_strings_and_no_letters_builds_an_empty_table(monkeypatch):
    cascade = SequenceTaskFamily(2).sequence_target()
    flat = cascade.flatten()
    built = _tables_built(monkeypatch)
    empty = np.zeros(0, dtype=np.intp)
    for letters in [(), tuple(cascade.external.letters())]:
        assert cascade.run_many(letters, empty, empty).tolist() == []
        assert flat.run_many(letters, empty, empty).tolist() == []
    assert built == [0]


@pytest.mark.parametrize("seed", range(12))
def test_both_run_many_paths_raise_run_errors_for_the_first_string_with_a_rejected_letter(
        seed, monkeypatch):
    rng = random.Random(seed)
    cascade = random_cascade(rng) if seed % 3 else cascade_with_counter(rng)
    bad = rng.choice([("zz",) * cascade.external.arity, "x", [1]])
    letters = (*cascade.external.letters(), bad)
    built = _tables_built(monkeypatch)
    codes, lengths = _batch(rng, cascade.product_size() * len(letters), [1] * len(letters))
    codes[rng.randrange(len(codes))] = len(letters) - 1  # at least one string holds it
    ends = np.cumsum(lengths).tolist()
    first = next(s for s, end in enumerate(ends)
                 if len(letters) - 1 in codes[end - lengths[s]:end].tolist())
    string = tuple(letters[c] for c in codes[ends[first] - lengths[first]:ends[first]].tolist())
    with pytest.raises(Exception) as expected:
        cascade.run(string)
    for listed in (letters, letters + letters[:1]):
        with pytest.raises(type(expected.value)) as raised:
            cascade.run_many(listed, codes, lengths)
        assert str(raised.value) == str(expected.value)
    assert built == []  # the letters are checked before a path is chosen


def test_run_many_on_a_million_state_counter_builds_no_product_table(monkeypatch):
    # the product table over two letters would have 2,000,000 entries, far
    # more than the batch's letters, so the strings are stepped through the
    # level kernel; its one level reads the component's own tables, copied
    # and scaled nowhere, and numbers no producer classes, since it has no
    # children
    cascade = cascade_from_spec(million_state_counter_spec())

    def refused(self, letter_codes):
        raise AssertionError("built a product table")

    monkeypatch.setattr(Cascade, "_product_tables", refused)
    letters = (("idle",), ("tick",))
    codes, lengths = np.array([1, 1, 1, 0, 0, 1, 1, 0]), np.array([4, 1, 3])
    tracemalloc.start()
    try:
        for _ in range(2):  # the first call builds the levels, the second reads them
            tracemalloc.reset_peak()
            outputs = cascade.run_many(letters, codes, lengths)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
            assert [cascade.outputs[o] for o in outputs.tolist()] == [3, 0, 2]
    finally:
        tracemalloc.stop()


def _int64_positions(lengths):
    """``letter_positions`` with the lengths sorted as int64."""
    order = np.argsort(-lengths.astype(np.int64), kind="stable")
    starts = (np.cumsum(lengths) - lengths)[order]
    running = (len(lengths) - np.cumsum(np.bincount(lengths))).tolist()
    for t in range(len(running) - 1):
        yield starts[:running[t]] + t, order[running[t + 1]:running[t]]


@pytest.mark.parametrize("top", [1, 255, 256, 65_535, 65_536])
def test_letter_positions_match_the_int64_sort(top):
    # the longest length sets the sort's dtype: uint8 up to 255, then
    # uint16 up to 65,535, then uint32; half the lengths repeat a few values
    rng = np.random.default_rng(top)
    lengths = np.concatenate([rng.integers(1, top + 1, size=150),
                              rng.choice([1, top // 2 + 1, top], size=150), [top]])
    rng.shuffle(lengths)
    schedule = list(letter_positions(lengths))
    reference = list(_int64_positions(lengths))
    assert len(schedule) == len(reference) == top
    for (index, ending), (ref_index, ref_ending) in zip(schedule, reference):
        assert np.array_equal(index, ref_index) and np.array_equal(ending, ref_ending)


def test_run_many_on_no_strings_returns_nothing():
    cascade = SequenceTaskFamily(2).sequence_target()
    dist = StringDistribution(tuple(cascade.external.letters()), 4)
    codes, lengths = dist.draw(0, random.Random(1))
    assert cascade.run_many(dist.alphabet, codes, lengths).tolist() == []
    assert cascade.flatten().run_many(dist.alphabet, codes, lengths).tolist() == []


@pytest.mark.parametrize("flatten", [False, True])
def test_run_many_raises_on_an_empty_string_as_run_does(flatten):
    automaton = SequenceTaskFamily(2).sequence_target()
    if flatten:
        automaton = automaton.flatten()
    letters = tuple(automaton.external.letters() if not flatten else automaton.alphabet)
    with pytest.raises(EmptyInputError) as empty:
        automaton.run(())
    with pytest.raises(EmptyInputError) as batched:
        automaton.run_many(letters, np.array([0, 1, 0]), np.array([2, 0, 1]))
    assert str(batched.value) == str(empty.value)


def _parity(outputs, flip=False):
    """A flat automaton over a, b whose output is the parity of its a's,
    coded 0 for even (1 with ``flip``), valued by ``outputs``."""
    delta = [[1, 0], [0, 1]]  # rows: states 0, 1; columns: a, b
    out = [[c ^ flip for c in row] for row in delta]
    return FlatAutomaton.from_tables(("a", "b"), (0, 1), delta, 0, out, outputs)


@pytest.mark.parametrize("outputs, flip, risk", [
    ((0, 1), False, 0.0),
    ((True, False), False, 1.0),  # codes agree everywhere, values nowhere
    ((1.0, False), True, 0.0),  # codes agree nowhere, values everywhere
    ((False, 1.0), True, 1.0),
])
def test_estimate_risk_compares_output_values_not_codes(outputs, flip, risk):
    dist = StringDistribution(("a", "b"), 6)
    target, fn = _parity((0, 1)), _parity(outputs, flip)
    batched = estimate_risk(fn, target, dist, 500, seed=3)
    assert batched == estimate_risk(lambda s: fn(s), lambda s: target(s), dist, 500, seed=3)
    assert batched.mean == risk
    sample = draw_sample(dist, fn, 200, seed=4)
    assert sample == draw_sample(dist, lambda s: fn(s), 200, seed=4)
    assert [type(y) for y in sample.labels] == [type(fn(s)) for s in sample.strings]


def _same_error(batched, looped):
    """Run both and check that they raise one error, of one type and
    message; returns it."""
    with pytest.raises(Exception) as one:
        batched()
    with pytest.raises(Exception) as other:
        looped()
    assert type(one.value) is type(other.value)
    assert str(one.value) == str(other.value)
    return one.value


def test_letters_outside_a_cascade_raise_run_errors_for_the_first_string_holding_one():
    target = SequenceTaskFamily(3).sequence_target()
    letters = tuple(target.external.letters())
    for bad in [(("e9",), ("e8",)), (("e1", "x"), "e2"), ([1], ("e7",))]:
        dist = StringDistribution(letters + bad, 5)
        messages = set()
        for seed in range(8):
            error = _same_error(lambda: draw_sample(dist, target, 30, seed),
                                lambda: draw_sample(dist, lambda s: target.run(s), 30, seed))
            messages.add(str(error))
        assert len(messages) == 2  # either bad letter can come first


def test_letters_outside_a_flat_automaton_raise_run_errors_for_the_first_string_holding_one():
    flat = _parity((0, 1))
    dist = StringDistribution(("a", "b", "c", "d"), 5)
    messages = set()
    for seed in range(12):
        error = _same_error(lambda: draw_sample(dist, flat, 20, seed),
                            lambda: draw_sample(dist, lambda s: flat.run(s), 20, seed))
        messages.add(str(error))
    assert len(messages) > 2  # the letter and its position vary with the string


def test_estimate_risk_checks_the_target_before_the_function():
    # each lacks a letter: the target's is found first, over all strings
    dist = StringDistribution(("a", "b", "c", "d"), 4)
    full = FlatAutomaton.from_tables("abcd", (0,), [[0, 0, 0, 0]], 0, [[0, 1, 0, 1]], (0, 1))
    no_c, no_d = full.restrict("abd"), full.restrict("abc")
    for fn, target in [(no_c, no_d), (no_d, no_c), (no_c, full), (full, no_d)]:
        for seed in range(5):
            looped = (lambda s: fn(s)), (lambda s: target(s))
            _same_error(lambda: estimate_risk(fn, target, dist, 50, seed),
                        lambda: estimate_risk(*looped, dist, 50, seed))


def test_only_automata_and_their_bound_run_are_batched():
    cascade = SequenceTaskFamily(2).sequence_target()
    flat = cascade.flatten()

    class Overriding(Cascade):
        def run(self, string):
            return super().run(string)

    overriding = Overriding(cascade.components)
    for fn in (cascade, cascade.run, cascade.__call__, flat, flat.run, flat.__call__):
        assert _automaton(fn) is getattr(fn, "__self__", fn)
    for fn in (lambda s: cascade(s), cascade.step, flat.output, overriding, overriding.run, len, 3):
        assert _automaton(fn) is None
