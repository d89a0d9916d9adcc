import hashlib
import math
import random

import numpy as np
import pytest

from cascata.crafting import SequenceTaskFamily
from cascata.errors import ArityMismatchError, UnknownLetterError
from cascata.learner import (
    LabeledSample,
    StringDistribution,
    class_min_risk,
    draw_sample,
    empirical_risk,
    erm_select,
    estimate_risk,
    learning_curve,
    zero_one_loss,
)
from cascata.learner import _untempered

from helpers import family_error_counts

DIST = StringDistribution(("a", "b"), max_len=4)


def count_a(s):
    return sum(1 for x in s if x == "a")


def test_draw_sample_is_reproducible():
    one = draw_sample(DIST, count_a, 50, seed=9)
    two = draw_sample(DIST, count_a, 50, seed=9)
    assert one == two
    assert draw_sample(DIST, count_a, 50, seed=10) != one


def test_draw_sample_constant_target():
    sample = draw_sample(DIST, lambda s: 0, 30, seed=1)
    assert set(sample.labels) == {0}


def test_sample_rejects_empty_strings():
    with pytest.raises(ValueError):
        LabeledSample(((("a",), 1), ((), 0)))


def test_empirical_risk_hand_cases():
    sample = LabeledSample(tuple((("a",) * (i + 1), 1) for i in range(4)))
    assert empirical_risk(lambda s: 1, sample) == 0.0
    assert empirical_risk(lambda s: 0, sample) == 1.0
    assert empirical_risk(lambda s: int(len(s) > 1), sample) == 0.25


def test_erm_realizable_target_reaches_zero_risk():
    fns = [lambda s: 0, lambda s: len(s) % 2, count_a]
    sample = draw_sample(DIST, count_a, 60, seed=3)
    chosen = erm_select(fns, sample)
    assert chosen.index == 2
    assert chosen.empirical_risk == 0.0


def test_erm_singleton_class():
    sample = draw_sample(DIST, count_a, 10, seed=4)
    chosen = erm_select([lambda s: 7], sample)
    assert chosen.index == 0


def test_erm_breaks_ties_canonically_and_counts_them():
    sample = LabeledSample(((("a",), 0),))
    chosen = erm_select([lambda s: 0, lambda s: 0, lambda s: 1], sample)
    assert chosen.index == 0
    assert chosen.tie_count == 2


def test_erm_definition_holds_on_random_instances():
    rng = random.Random(5)
    fns = [lambda s, k=k: (len(s) + k) % 3 for k in range(5)]
    for trial in range(10):
        sample = draw_sample(DIST, lambda s: rng.randrange(3), 20, seed=trial)
        chosen = erm_select(fns, sample)
        risks = [empirical_risk(f, sample) for f in fns]
        assert chosen.empirical_risk == min(risks)


def test_erm_fast_path_matches_generic_enumeration():
    fam = SequenceTaskFamily(2)
    dist = StringDistribution(tuple(fam.external.letters()), max_len=5)
    sample = draw_sample(dist, fam.sequence_target(), 40, seed=6)
    fast = erm_select(fam, sample)
    generic = erm_select(list(fam), sample)
    assert fast.index == generic.index
    assert fast.empirical_risk == generic.empirical_risk
    assert fast.tie_count == generic.tie_count


@pytest.mark.parametrize("letter", [("zz",), "e1", ("e1", "e2"), ["e1"]])
def test_erm_fast_and_generic_paths_reject_a_letter_outside_the_family_alike(letter):
    fam = SequenceTaskFamily(2)
    sample = LabeledSample((((("e1",), ("e2",)), 1), ((("e2",), letter), 0)))
    with pytest.raises((UnknownLetterError, ArityMismatchError)) as generic:
        erm_select(list(fam), sample)
    with pytest.raises(type(generic.value)) as fast:
        erm_select(fam, sample)
    assert str(fast.value) == str(generic.value)
    if letter == ("zz",):
        assert type(generic.value) is UnknownLetterError


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("letter", [["e1"], ("zz",)])
def test_erm_raises_what_the_first_member_raises_on_a_hand_built_sample(d, letter):
    """A letter that no member reads, unhashable or outside the family, in
    the second string of a sample built by hand: the family's ``erm``
    raises the error, type and message, that ``member(0).run`` raises on
    that string."""
    fam = SequenceTaskFamily(d)
    bad = (("e2",), letter, ("e1",))
    sample = LabeledSample((((("e1",), ("e2",)), 1), (bad, 0), ((("e1",),), 1)))
    with pytest.raises((UnknownLetterError, ArityMismatchError)) as expected:
        fam.member(0).run(bad)
    with pytest.raises(type(expected.value)) as got:
        erm_select(fam, sample)
    assert str(got.value) == str(expected.value)


def test_erm_rejects_an_empty_sample_on_both_paths():
    fam = SequenceTaskFamily(2)
    for functions in (fam, list(fam)):
        with pytest.raises(ValueError, match="empty sample"):
            erm_select(functions, LabeledSample(()))


def _noisy_family_sample(fam, n, seed, flip=0.1, max_len=5):
    dist = StringDistribution(tuple(fam.external.letters()), max_len=max_len)
    clean = draw_sample(dist, fam.sequence_target(), n, seed=seed)
    rng = random.Random(seed + 1)
    return LabeledSample(tuple((s, int(y) ^ (rng.random() < flip)) for s, y in clean.entries))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 65])
def test_erm_fast_path_matches_generic_enumeration_across_word_boundaries(n):
    fam = SequenceTaskFamily(2)
    sample = _noisy_family_sample(fam, n, seed=100 + n)
    fast = erm_select(fam, sample)
    generic = erm_select(list(fam), sample)
    assert (fast.index, fast.empirical_risk, fast.tie_count) == \
        (generic.index, generic.empirical_risk, generic.tie_count)


@pytest.mark.parametrize("label", [True, False, 1, 0])
def test_erm_fast_path_matches_generic_enumeration_on_constant_labels(label):
    fam = SequenceTaskFamily(2)
    strings = _noisy_family_sample(fam, 20, seed=7).strings
    sample = LabeledSample(tuple((s, label) for s in strings))
    fast = erm_select(fam, sample)
    generic = erm_select(list(fam), sample)
    assert (fast.index, fast.empirical_risk, fast.tie_count) == \
        (generic.index, generic.empirical_risk, generic.tie_count)


def test_erm_fast_path_at_depth_three_selects_the_first_minimizer():
    fam = SequenceTaskFamily(3)
    sample = _noisy_family_sample(fam, 300, seed=8, flip=0.05, max_len=8)
    chosen = erm_select(fam, sample)
    assert empirical_risk(chosen.function, sample) == chosen.empirical_risk
    probe = random.Random(9).sample(range(fam.cardinality), 150)
    for i in probe:
        risk = empirical_risk(fam.member(i), sample)
        assert risk >= chosen.empirical_risk
        if i < chosen.index:
            assert risk > chosen.empirical_risk


def _erm_outcome(functions, sample):
    chosen = erm_select(functions, sample)
    return chosen.index, chosen.empirical_risk, chosen.tie_count


def _family_distributions(fam, max_len):
    """The family's letters in its order, reversed, and rotated with
    weights that give one letter none, beside a letter outside the family
    that is never drawn."""
    letters = tuple(fam.external.letters())
    rotated = letters[1:] + letters[:1]
    return [StringDistribution(letters, max_len),
            StringDistribution(letters[::-1], max_len),
            StringDistribution(rotated + (("zz",),), max_len,
                               (0.0, *range(2, len(letters) + 1), 0.0))]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_erm_on_drawn_codes_matches_erm_on_the_strings(d, seed):
    fam = SequenceTaskFamily(d)
    for dist in _family_distributions(fam, 6):
        # a member of the family, labelled through run_many, and a target
        # outside it, called per string
        for target in (fam.sequence_target(), lambda s: int(len(s) % 3 == 0)):
            sample = draw_sample(dist, target, 120, seed=seed)
            copy = LabeledSample(sample.entries)
            assert sample.drawn is not None and copy.drawn is None
            assert copy == sample and hash(copy) == hash(sample) and repr(copy) == repr(sample)
            drawn = _erm_outcome(fam, sample)
            assert drawn == _erm_outcome(fam, copy)
            if d == 2:
                assert drawn == _erm_outcome(list(fam), sample)


def test_erm_on_float_labels_matches_the_generic_loop():
    fam = SequenceTaskFamily(2)
    sample = _noisy_family_sample(fam, 60, seed=11, flip=0.2)
    floats = LabeledSample(tuple((s, float(y)) for s, y in sample.entries))
    assert set(floats.labels) == {0.0, 1.0}
    assert _erm_outcome(fam, floats) == _erm_outcome(list(fam), floats)


@pytest.mark.parametrize("outside", [(("zz",),), ("e1",), (("zz",), "e2")])
def test_erm_on_drawn_codes_rejects_a_letter_outside_the_family_as_on_the_strings(outside):
    fam = SequenceTaskFamily(2)
    dist = StringDistribution((*outside, *fam.external.letters()), 5)
    sample = draw_sample(dist, lambda s: 0, 50, seed=12)
    assert set(outside) & {x for s in sample.strings for x in s}
    with pytest.raises((UnknownLetterError, ArityMismatchError)) as strings:
        erm_select(fam, LabeledSample(sample.entries))
    with pytest.raises(type(strings.value)) as drawn:
        erm_select(fam, sample)
    assert str(drawn.value) == str(strings.value)


def test_estimate_risk_of_target_is_zero():
    est = estimate_risk(count_a, count_a, DIST, 500, seed=7)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_estimate_risk_closed_form_toy():
    # single-letter alphabet: lengths are uniform on 1..4, so disagreeing
    # exactly on length-2 strings gives true risk 1/4
    dist = StringDistribution(("a",), max_len=4)
    target = lambda s: 0
    f = lambda s: int(len(s) == 2)
    est = estimate_risk(f, target, dist, 4000, seed=8)
    assert abs(est.mean - 0.25) <= 3 * est.stderr + 1e-12


def test_estimate_risk_stderr_scales_with_samples():
    dist = StringDistribution(("a",), max_len=4)
    f = lambda s: int(len(s) == 2)
    small = estimate_risk(f, lambda s: 0, dist, 400, seed=9)
    large = estimate_risk(f, lambda s: 0, dist, 6400, seed=9)
    assert large.stderr < small.stderr
    assert large.stderr == pytest.approx(
        math.sqrt(large.mean * (1 - large.mean) / 6400)
    )


def test_class_min_risk_realizable_is_zero():
    fns = [lambda s: 1, count_a]
    assert class_min_risk(fns, count_a, DIST, 300, seed=10) == 0.0


def test_learning_curve_improves():
    fns = [lambda s, k=k: int(len(s) >= k) for k in range(1, 5)]
    target = fns[2]
    points = learning_curve(fns, target, DIST, sample_sizes=(2, 40), trials=12,
                            epsilon=0.1, seed=11, n_mc=800, baseline_risk=0.0)
    assert points[-1].successes >= points[0].successes - 1  # improving within noise
    assert points[-1].successes >= 10


@pytest.mark.parametrize("weights", [None, ()])
def test_string_distribution_needs_a_letter(weights):
    with pytest.raises(ValueError, match="at least one letter"):
        StringDistribution((), max_len=3, letter_weights=weights)


@pytest.mark.parametrize("trials", [0, -1])
def test_learning_curve_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        learning_curve([count_a], count_a, DIST, sample_sizes=(2,), trials=trials,
                       epsilon=0.1, baseline_risk=0.0)


def test_zero_one_loss_is_symmetric_binary():
    assert zero_one_loss(1, 1) == 0
    assert zero_one_loss(0, 1) == 1 == zero_one_loss(1, 0)


def test_sample_label_frequency_matches_independent_oracle():
    # labels drawn through the cascade target agree in frequency with the
    # rule oracle applied to an independently generated pool
    from cascata.crafting import (
        build_flipflop_task_cascade,
        datalog_oracle,
        trace_alphabet,
    )

    target = build_flipflop_task_cascade()
    dist = StringDistribution(tuple(trace_alphabet().letters()), max_len=10)
    sample = draw_sample(dist, target, 3000, seed=21)
    freq = sum(sample.labels) / len(sample)

    rng = random.Random(22)
    pool = dist.sample_many(3000, rng)
    oracle_freq = sum(int(datalog_oracle(t)[-1]) for t in pool) / len(pool)
    sigma = math.sqrt(oracle_freq * (1 - oracle_freq) / len(pool))
    assert abs(freq - oracle_freq) <= 3 * math.sqrt(2) * sigma


def _per_letter_sample(dist, rng):
    # one draw for the length, then one call per letter
    length = rng.choices(range(1, dist.max_len + 1))[0]
    return tuple(rng.choices(dist.alphabet, weights=dist.letter_weights)[0]
                 for _ in range(length))


@pytest.mark.parametrize("weights", [None, (0.5, 3.0, 0.0, 1.5)])
def test_sample_many_matches_a_per_letter_reference(weights):
    dist = StringDistribution(("a", "b", "c", "d"), max_len=7, letter_weights=weights)
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        assert dist.sample_many(5, rng) == [_per_letter_sample(dist, ref) for _ in range(5)]
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()  # both consumed the same stream


@pytest.mark.parametrize("alphabet, max_len, weights", [
    (("a",), 5, None),
    (("a",), 5, (2.5,)),
    (("a", "b", "c"), 1, None),
    (("a", "b", "c"), 1, (0.2, 0.3, 0.5)),
    (("a", "b", "c", "d", "e"), 6, (0.0, 1.0, 2.0, 1.0, 0.0)),
    (("a", "b", "c"), 4, (0.1, 0.7, 0.15)),
], ids=["one_letter", "one_letter_weighted", "max_len_1", "max_len_1_weighted",
        "zero_weights_at_both_ends", "floats_not_summing_to_1"])
def test_sample_many_matches_the_per_letter_reference_on_edge_distributions(
        alphabet, max_len, weights):
    dist = StringDistribution(alphabet, max_len=max_len, letter_weights=weights)
    for seed in range(100):
        rng, ref = random.Random(seed), random.Random(seed)
        assert dist.sample_many(5, rng) == [_per_letter_sample(dist, ref) for _ in range(5)]
        assert rng.getstate() == ref.getstate()
        assert rng.random() == ref.random()


def _warmed(seed):
    """Two generators at one state: fresh, or partway through a key, at an
    even or an odd number of its 32-bit outputs, or at its start."""
    rng, ref = random.Random(seed), random.Random(seed)
    for r in (rng, ref):
        r.getrandbits(32 * (seed % 2))
        for _ in range(seed % 3 * 150):
            r.random()
        if seed % 7 == 6:
            version, internal, gauss_next = r.getstate()
            r.setstate((version, (*internal[:-1], 0), gauss_next))
    return rng, ref


@pytest.mark.parametrize("weights", [None, (0.5, 3.0, 0.0)])
@pytest.mark.parametrize("n", [0, 1, 2, 9, 300])
def test_every_draw_leaves_the_generator_where_the_reference_does(n, weights):
    dist = StringDistribution(("a", "b", "c"), max_len=8, letter_weights=weights)
    for seed in range(30):
        rng, ref = _warmed(seed)
        for _ in range(3):
            assert dist.sample_many(n, rng) == [_per_letter_sample(dist, ref) for _ in range(n)]
            assert rng.getstate() == ref.getstate()


def test_draws_larger_than_the_first_block_match_the_reference():
    # the first block holds as many values as n strings take on average,
    # ceil(n * (max_len + 3) / 2); a string takes its length value and one
    # value per letter
    dist = StringDistribution(("a", "b", "c"), max_len=8)
    larger = 0
    for seed in range(100):
        for n in (1, 2, 40):
            rng, ref = _warmed(seed)
            expected = [_per_letter_sample(dist, ref) for _ in range(n)]
            assert dist.sample_many(n, rng) == expected
            assert rng.getstate() == ref.getstate()
            larger += sum(len(s) + 1 for s in expected) > -(-n * 11 // 2)
    assert larger >= 100


def test_draws_over_many_keys_match_the_reference():
    # long strings: the last value used lies keys (624 outputs each) before
    # the end of the first block, or in its last key, or past it
    dist = StringDistribution(("a", "b"), max_len=400)
    for seed in range(40):
        rng, ref = _warmed(seed)
        expected = [_per_letter_sample(dist, ref) for _ in range(25)]
        assert dist.sample_many(25, rng) == expected
        assert rng.getstate() == ref.getstate()


def _tempered(word):
    # CPython's genrand_uint32 output for the state word ``word``
    word ^= word >> 11
    word ^= (word << 7) & 0x9D2C5680
    word ^= (word << 15) & 0xEFC60000
    return word ^ (word >> 18)


def test_untempering_inverts_the_tempering():
    words = [random.Random(seed).getrandbits(32) for seed in range(2000)]
    words += [0, 1, 2**31, 2**32 - 1]
    outputs = np.array([_tempered(w) for w in words], dtype=np.uint32)
    assert _untempered(outputs).tolist() == words


class _Scripted(random.Random):
    """A generator whose ``random`` returns the given values in turn."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("weights, letters", [
    # running sums 1, 1, 2, 2, 4: values at and just below each tie
    ((1.0, 0.0, 1.0, 0.0, 2.0), (0.25, 0.2499999999999999, 0.5, 0.4999999999999999, 0.75, 0.0,
                                 0.9999999999999999)),
    # running sums 2**60, 2**60 + 1, 2**61 + 1, which floats round down
    ((2**60, 1, 2**60), (0.5, 0.4999999999999999, 0.5000000000000001, 0.0, 0.75)),
])
def test_weighted_letters_at_tied_and_rounded_running_sums_match_bisect(weights, letters):
    dist = StringDistribution("abcde"[:len(weights)], max_len=len(letters), letter_weights=weights)
    values = (0.9999999999999999, *letters)  # the longest string, then its letters
    assert dist.sample_many(1, _Scripted(values)) == [_per_letter_sample(dist, _Scripted(values))]


def test_generators_whose_state_is_not_read_are_called_once_per_value():
    dist = StringDistribution(("a", "b", "c"), max_len=5, letter_weights=(1.0, 0.0, 2.0))
    # a subclass that keeps random.Random's methods is read like random.Random
    class Plain(random.Random):
        pass

    rng, ref = Plain(4), random.Random(4)
    assert dist.sample_many(50, rng) == [_per_letter_sample(dist, ref) for _ in range(50)]
    assert rng.getstate() == ref.getstate()
    # one that overrides random is called once per value, and only then
    values = [random.Random(5).random() for _ in range(400)]
    rng, ref = _Scripted(values), _Scripted(values)
    assert dist.sample_many(50, rng) == [_per_letter_sample(dist, ref) for _ in range(50)]
    assert next(rng.values) == next(ref.values)
    # random.SystemRandom has no state to read: it is called once per value
    strings = dist.sample_many(200, random.SystemRandom())
    assert len(strings) == 200
    assert all(1 <= len(s) <= 5 and set(s) <= {"a", "c"} for s in strings)


def test_criterion_8_trials_are_pinned():
    # the 100 trials' (chosen member, risk estimate) pairs, hashed when
    # strings were drawn one value at a time and scored one string at a time
    fam = SequenceTaskFamily(3)
    dist = StringDistribution(tuple(fam.external.letters()), max_len=8)
    target = fam.sequence_target()
    pairs = []
    for trial in range(100):
        chosen = erm_select(fam, draw_sample(dist, target, 646, seed=8000 + trial))
        pairs.append((chosen.index, estimate_risk(chosen.function, target, dist, 2500,
                                                  seed=9000 + trial).mean))
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "020230dbc7cc583240f0f950665a702ad63edf43ce9f50b036d8356411e2a3c8"


@pytest.mark.parametrize("weights", [
    (1.0, -0.5), (1.0, math.inf), (math.nan, 1.0), (0.0, 0.0), (1e308, 1e308), (1.0,),
])
def test_string_distribution_rejects_negative_non_finite_or_zero_sum_weights(weights):
    with pytest.raises(ValueError):
        StringDistribution(("a", "b"), max_len=3, letter_weights=weights)
    # zero weights are fine while one is positive
    StringDistribution(("a", "b"), max_len=3, letter_weights=(0.0, 3))


def test_erm_select_matches_the_full_vector_reduction_on_criterion_8_seeds():
    fam = SequenceTaskFamily(3)
    dist = StringDistribution(tuple(fam.external.letters()), max_len=8)
    target = fam.sequence_target()
    outcomes = set()
    for trial in range(100):
        sample = draw_sample(dist, target, 646, seed=8000 + trial)
        counts = family_error_counts(fam, sample.strings, sample.labels)
        best = int(counts.min())
        chosen = erm_select(fam, sample)
        assert (chosen.index, chosen.empirical_risk, chosen.tie_count) == \
            (int(counts.argmin()), best / 646, int((counts == best).sum()))
        outcomes.add((chosen.index, chosen.empirical_risk, chosen.tie_count))
    # the realizable target's first zero-risk member, tied with one other
    assert outcomes == {(4432, 0.0, 2)}


def _parity_target(s):
    # in neither class below: length parity flipped by a leading b
    return int((len(s) % 2 == 0) != (s[0] == "b"))


def test_estimate_risk_and_class_min_risk_match_the_direct_formulas():
    dist = StringDistribution(("a", "b"), max_len=6, letter_weights=(2.0, 1.0))
    fns = [lambda s, k=k: int(len(s) >= k) for k in range(1, 7)] + [count_a]
    for seed in range(5):
        pool = dist.sample_many(700, random.Random(seed))
        risks = [sum(zero_one_loss(f(s), _parity_target(s)) for s in pool) / 700 for f in fns]
        for f, risk in zip(fns, risks):
            est = estimate_risk(f, _parity_target, dist, 700, seed=seed)
            assert est == (risk, math.sqrt(risk * (1 - risk) / 700), 700)
        assert class_min_risk(fns, _parity_target, dist, 700, seed=seed) == min(risks) > 0


def test_class_min_risk_family_kernel_matches_generic_loop():
    fam = SequenceTaskFamily(2)
    dist = StringDistribution(tuple(fam.external.letters()), max_len=6)
    target = lambda s: int(len(s) % 3 == 0)  # not a member of the family
    for seed in range(3):
        fast = class_min_risk(fam, target, dist, 400, seed=seed)
        assert fast == class_min_risk(list(fam), target, dist, 400, seed=seed) > 0
