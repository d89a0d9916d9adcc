import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from cascata.crafting import (
    EVENTS,
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    counting_oracle,
    datalog_oracle,
    generate_traces,
    task_label,
    trace_from_words,
    trace_words,
)
from cascata.learner import LabeledSample, StringDistribution

from helpers import family_error_counts, family_events, family_kernel_rows, goal_images


def words(*ws):
    return trace_from_words(ws)


# ---------------------------------------------------------------------------
# Rule oracle.
# ---------------------------------------------------------------------------


def test_oracle_steel_then_factory():
    assert datalog_oracle(words("steel", "factory")) == (False, True)


def test_oracle_factory_before_steel_never_fires():
    assert datalog_oracle(words("factory", "steel")) == (False, False)


def test_oracle_three_materials_then_factory():
    trace = words("wood", "iron", "fire", "factory")
    assert datalog_oracle(trace) == (False, False, False, True)


def test_oracle_same_step_factory_does_not_count():
    # the goal needs the materials at the previous step
    assert datalog_oracle(words("steel")) == (False,)
    assert datalog_oracle(words("factory")) == (False,)


def test_oracle_completion_persists():
    trace = words("steel", "factory", "blank", "wood")
    assert datalog_oracle(trace) == (False, True, True, True)


def test_counting_oracle_thresholds():
    trace = words(*(["wood"] * 13 + ["iron"] * 5 + ["fire", "factory"]))
    assert counting_oracle(trace)[-1] is True
    short = words(*(["wood"] * 12 + ["iron"] * 5 + ["fire", "factory"]))
    assert counting_oracle(short)[-1] is False
    steel = words(*(["steel"] * 7 + ["factory"]))
    assert counting_oracle(steel)[-1] is True


# ---------------------------------------------------------------------------
# Flip-flop scenario cascade.
# ---------------------------------------------------------------------------


def test_flipflop_cascade_is_simple():
    assert build_flipflop_task_cascade().is_simple()


def test_flipflop_cascade_agrees_with_oracle_on_short_traces():
    c = build_flipflop_task_cascade()
    for length in (1, 2, 3):
        for ws in itertools.product(EVENTS, repeat=length):
            trace = trace_from_words(ws)
            assert c.run(trace) == int(datalog_oracle(trace)[-1]), ws


def test_flipflop_cascade_output_is_monotone_along_extensions():
    c = build_flipflop_task_cascade()
    rng = random.Random(1)
    for trace in generate_traces(100, 8, seed=2):
        if c.run(trace) == 1:
            extension = trace + tuple((rng.choice(EVENTS),) for _ in range(3))
            assert c.run(extension) == 1


def test_flipflop_cascade_flattens_to_aperiodic_automaton():
    minimized = build_flipflop_task_cascade().flatten().minimize()
    assert minimized.is_aperiodic()


# ---------------------------------------------------------------------------
# Counter scenario cascade.
# ---------------------------------------------------------------------------


def test_counter_cascade_product_size():
    assert build_counter_task_cascade().product_size() == 16 * 16 * 2 * 16 * 2 == 16384


def test_counter_cascade_rejects_thresholds_the_counters_cannot_reach():
    # modulus 2 with the default thresholds 13/5/7: the goal could never fire
    with pytest.raises(ValueError):
        build_counter_task_cascade(2)
    for thresholds in ((16, 5, 7), (13, 16, 7), (13, 5, 16)):
        with pytest.raises(ValueError):
            build_counter_task_cascade(16, *thresholds)
    assert build_counter_task_cascade(16, 15, 15, 15).product_size() == 16384
    assert build_counter_task_cascade(2, 1, 1, 1).product_size() == 32


def test_counter_cascade_threshold_traces():
    c = build_counter_task_cascade()
    done = words(*(["wood"] * 13 + ["iron"] * 5 + ["fire", "factory"]))
    assert c.run(done) == 1
    underfull = words(*(["wood"] * 12 + ["iron"] * 5 + ["fire", "factory"]))
    assert c.run(underfull) == 0


def test_counter_cascade_wraps_like_the_modulus():
    c = build_counter_task_cascade()
    # 16 + 13 woods behave like 13: the count wraps and lands back on 13
    wrapped = words(*(["wood"] * 29 + ["iron"] * 5 + ["fire", "factory"]))
    assert c.run(wrapped) == 1
    # 17 woods behave like 1: more wood breaks completion (not monotone)
    overshoot = words(*(["wood"] * 17 + ["iron"] * 5 + ["fire", "factory"]))
    assert c.run(overshoot) == 0


def test_counter_cascade_agrees_with_counting_oracle_below_the_modulus():
    c = build_counter_task_cascade()
    rng = random.Random(3)
    checked = 0
    for trace in generate_traces(400, 12, seed=4):
        ws = trace_words(trace)
        if max(ws.count(e) for e in ("wood", "iron", "steel")) >= 16:
            continue
        checked += 1
        assert c.run(trace) == int(counting_oracle(trace)[-1]), ws
    assert checked > 300


# ---------------------------------------------------------------------------
# The enumerable family.
# ---------------------------------------------------------------------------


def test_family_cardinalities():
    fam = SequenceTaskFamily(3)
    assert fam.watcher_class.cardinality == 8
    assert fam.goal_class.cardinality == 317
    assert fam.cardinality == 8 * 8 * 317


def test_family_depth_two_descriptor_product():
    from cascata.complexity import cardinality_bound_cascade

    fam = SequenceTaskFamily(2)
    # fixed full/singleton dependency sets make the bound an exact product
    assert cardinality_bound_cascade(fam.descriptor(max_len=3)) == \
        fam.watcher_class.cardinality * fam.goal_class.cardinality == fam.cardinality


def test_family_log_cardinality_below_linear_budget():
    for d in range(2, 7):
        fam = SequenceTaskFamily(d)
        assert math.log2(fam.watcher_class.cardinality) < 4 * d
        assert math.log2(fam.goal_class.cardinality) < 4 * d


def test_family_member_indexing_matches_iteration():
    fam = SequenceTaskFamily(2)
    by_iter = list(fam)
    probe = random.Random(5).sample(range(fam.cardinality), 12)
    strings = [
        s for length in (1, 2, 3)
        for s in itertools.product(fam.external.letters(), repeat=length)
    ]
    for i in probe:
        direct = fam.member(i)
        other = by_iter[i]
        assert all(direct.run(s) == other.run(s) for s in strings)


def _direct_errors(fam, index, strings, labels):
    member = fam.member(index)
    return sum(1 for s, y in zip(strings, labels) if member.run(s) != y)


def _sequence_strings(fam, n, max_len, seed):
    rng = random.Random(seed)
    letters = list(fam.external.letters())
    return [tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
            for _ in range(n)]


def _erm(fam, strings, labels):
    return fam.erm(LabeledSample(tuple(zip(strings, labels))))


def _assert_rows_match_their_members(fam, strings, labels, probe=None, seed=0):
    """Each of the kernel's orbit rows equals the error counts of its
    orbit's representative members, ``first_members[c] * n_goals + g``, run
    one string at a time: every cell, or ``probe`` seeded cells and the
    first cell at the minimum."""
    rows = family_kernel_rows(fam, strings, labels)
    firsts, n_goals = fam._combinations.first_members, fam.goal_class.cardinality
    assert rows.shape == (len(firsts), n_goals)
    cells = list(np.ndindex(rows.shape))
    if probe is not None:
        argmin = np.unravel_index(rows.argmin(), rows.shape)
        cells = random.Random(seed).sample(cells, probe) + [argmin]
    for c, g in cells:
        member = int(firsts[c]) * n_goals + int(g)
        assert rows[c, g] == _direct_errors(fam, member, strings, labels), (c, g)


def test_family_error_counts_match_direct_evaluation():
    fam = SequenceTaskFamily(2)
    strings = _sequence_strings(fam, 30, 5, seed=6)
    labels = [fam.sequence_target().run(s) for s in strings]
    _assert_rows_match_their_members(fam, strings, labels)


def test_family_error_counts_match_direct_evaluation_at_depth_three():
    fam = SequenceTaskFamily(3)
    strings = _sequence_strings(fam, 646, 8, seed=31)
    target = fam.sequence_target()
    noise = random.Random(32)
    # flip a few labels so the counts spread over many values
    labels = [int(target.run(s)) ^ (noise.random() < 0.05) for s in strings]
    _assert_rows_match_their_members(fam, strings, labels, probe=200, seed=33)


@pytest.mark.parametrize("case", [
    "size1", "size7", "size8", "size9", "size63", "size64", "size65",
    "length_one", "all_positive", "all_negative", "duplicates", "bool_labels",
    "float_labels",
])
def test_family_error_counts_edge_samples_at_depth_two(case):
    fam = SequenceTaskFamily(2)
    strings = _sequence_strings(fam, 65, 5, seed=41)
    target = fam.sequence_target()
    labels = [int(target.run(s)) for s in strings]
    if case.startswith("size"):
        n = int(case[4:])
        strings, labels = strings[:n], labels[:n]
    elif case == "length_one":
        strings = [s[:1] for s in strings]
        labels = [int(target.run(s)) for s in strings]
    elif case in ("all_positive", "all_negative"):
        labels = [int(case == "all_positive")] * len(strings)
    elif case == "duplicates":
        strings, labels = strings[:5] * 4, labels[:5] * 4
    elif case == "bool_labels":
        labels = [bool(y) for y in labels]
    else:
        labels = [float(y) for y in labels]
    _assert_rows_match_their_members(fam, strings, labels)


def test_family_error_counts_edge_samples_at_depth_three():
    fam = SequenceTaskFamily(3)
    strings = _sequence_strings(fam, 9, 4, seed=51)
    labels = [True, False] * 4 + [True]
    for sample, ys in ((strings, labels), (strings[:1], labels[:1]),
                       ([s[:1] for s in strings], [int(y) for y in labels])):
        _assert_rows_match_their_members(fam, sample, ys, probe=100, seed=52)


def test_family_error_counts_match_direct_evaluation_at_depth_four():
    # 128 goal assignments: the assignment bitsets span two uint64 words
    fam = SequenceTaskFamily(4)
    strings = _sequence_strings(fam, 10, 6, seed=61)
    labels = [int(fam.sequence_target().run(s)) for s in strings]
    _assert_rows_match_their_members(fam, strings, labels, probe=60, seed=62)


def test_family_error_counts_rejects_labels_that_are_not_binary():
    fam = SequenceTaskFamily(2)
    strings = _sequence_strings(fam, 3, 3, seed=71)
    with pytest.raises(ValueError):
        family_kernel_rows(fam, strings, [0, 1, 2])
    with pytest.raises(ValueError):
        family_kernel_rows(fam, strings, [0, 1])
    with pytest.raises(ValueError):
        _erm(fam, strings, [0, 1, 2])
    # a label is 0 or 1 when it == 0 or 1, as zero_one_loss compares it
    for bad in (1.5, 0.5, None, "x", math.nan):
        with pytest.raises(ValueError, match="one 0/1 label per string"):
            family_kernel_rows(fam, strings, [0, bad, 1])
        with pytest.raises(ValueError, match="one 0/1 label per string"):
            _erm(fam, strings, [bad, 0, 1])


def test_family_kernel_reads_float_labels_as_the_generic_loop_does():
    fam = SequenceTaskFamily(2)
    strings = _sequence_strings(fam, 40, 5, seed=72)
    noise = random.Random(73)
    labels = [float(fam.sequence_target().run(s) ^ (noise.random() < 0.2)) for s in strings]
    assert set(labels) == {0.0, 1.0}
    members = list(fam)
    generic = [sum(member.run(s) != y for s, y in zip(strings, labels)) for member in members]
    assert family_error_counts(fam, strings, labels).tolist() == generic
    best = min(generic)
    assert _erm(fam, strings, labels) == (best, generic.index(best), generic.count(best))


def test_family_profiles_match_unique_rows_at_depth_eight():
    # 257 profile values take 9 bits, so 7 events to a key and two keys;
    # the strings use few letters, so equal profiles meet in both keys
    fam = SequenceTaskFamily(8)
    rng = random.Random(75)
    letters = list(fam.external.letters())
    strings = [tuple(rng.choice(letters[:2] + letters[-2:]) for _ in range(rng.randint(1, 4)))
               for _ in range(400)]
    strings += [tuple(rng.choice(letters) for _ in range(rng.randint(1, 12)))
                for _ in range(200)]
    rows = []
    for s in strings:
        events = [letters.index(x) for x in s]
        last = {e: t for t, e in enumerate(events)}
        rows.append([sum({1 << e for e in events[:last[e]]}) if e in last else 256
                     for e in range(8)])
    rows = np.array(rows)
    profiles, which = fam._profiles(*family_events(fam, strings))
    assert np.array_equal(profiles[which], rows)
    unique = np.unique(rows, axis=0)
    assert len(profiles) == len(unique) < len(strings)
    assert np.array_equal(np.unique(profiles, axis=0), unique)
    profiles, which = fam._profiles(*family_events(fam, []))
    assert profiles.shape == (0, 8) and len(which) == 0


def _full_vector_reduction(counts):
    best = int(counts.min())
    return best, int(counts.argmin()), int((counts == best).sum())


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("case", ["noisy", "all_positive", "all_negative", "single",
                                  "duplicates"])
def test_family_erm_is_the_reduction_of_error_counts(d, case):
    fam = SequenceTaskFamily(d)
    strings = _sequence_strings(fam, 60, 7, seed=81 + d)
    target = fam.sequence_target()
    noise = random.Random(82 + d)
    labels = [int(target.run(s)) ^ (noise.random() < 0.1) for s in strings]
    if case in ("all_positive", "all_negative"):
        labels = [int(case == "all_positive")] * len(strings)
    elif case == "single":
        strings, labels = strings[:1], labels[:1]
    elif case == "duplicates":
        strings, labels = strings[:4] * 5, labels[:4] * 5
    counts = family_error_counts(fam, strings, labels)
    erm = _erm(fam, strings, labels)
    assert erm == _full_vector_reduction(counts)
    if case == "all_negative":
        # a never-firing goal ties under every watcher combination
        tied = (counts == erm[0]).nonzero()[0]
        combos = np.unique(tied // fam.goal_class.cardinality)
        assert len(combos) == fam.watcher_class.cardinality ** (d - 1)


@pytest.mark.parametrize("d", [3, 4])
def test_family_members_compute_alike_under_permuting_the_watchers(d):
    """Moving every watcher j to place perm[j], and the goal's watcher bits
    with it (``goal_images``), gives a member that computes the same
    function, so an orbit's members share their error counts: the premise
    of scoring one representative per orbit.  Seeded members are run on
    seeded strings under every permutation; left unrelabelled, the goal
    computes another function."""
    fam = SequenceTaskFamily(d)
    k, n_watchers, n_goals = d - 1, fam.watcher_class.cardinality, fam.goal_class.cardinality
    dist = StringDistribution(tuple(fam.external.letters()), 7)
    codes, lengths = dist.draw(300, random.Random(95 + d))
    perms = list(itertools.permutations(range(k)))
    images = goal_images(fam, perms)

    def outputs(watchers, goal):
        index = 0
        for w in watchers:
            index = index * n_watchers + w
        return fam.member(index * n_goals + goal).run_many(dist.alphabet, codes, lengths)

    rng = random.Random(96 + d)
    unrelabelled = 0
    for _ in range({3: 40, 4: 20}[d]):
        watchers = [rng.randrange(n_watchers) for _ in range(k)]
        goal = rng.randrange(n_goals)
        expected = outputs(watchers, goal)
        for perm in perms:
            moved = [0] * k
            for j, w in enumerate(watchers):
                moved[perm[j]] = w
            assert np.array_equal(outputs(moved, images[perm][goal]), expected), \
                (watchers, goal, perm)
            unrelabelled += not np.array_equal(outputs(moved, goal), expected)
    assert unrelabelled > 0
    assert fam._combinations.weights.sum() == n_watchers ** k


def test_family_erm_work_counts_distinct_watcher_combinations():
    # 5 of a watcher's 8 tables are distinct at d=3, 6 of 16 at d=4 and 7
    # of 32 at d=5; the kernel scores one combination per multiset of them
    fam = SequenceTaskFamily(3)
    assert fam.erm_work == math.comb(5 + 1, 2) * fam.goal_class.cardinality == 4755
    fam = SequenceTaskFamily(4)
    assert fam.erm_work == math.comb(6 + 2, 3) * fam.goal_class.cardinality == 347_032
    assert fam.erm_work < fam.cardinality
    fam = SequenceTaskFamily(5)
    assert fam.erm_work == math.comb(7 + 3, 4) * fam.goal_class.cardinality == 23_552_970


@pytest.mark.parametrize("d, letters", [(2, None), (2, (0, 1)), (3, None), (4, None),
                                        (5, None)])
def test_family_erm_work_is_counted_without_building_the_kernel_tables(d, letters):
    fam = SequenceTaskFamily(d, letters)
    work = fam.erm_work
    assert "_combinations" not in vars(fam) and "_goal_terms" not in vars(fam)
    assert work == len(fam._combinations.weights) * len(fam._goal_terms[0])


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_family_goal_terms_match_the_members(d):
    """The first and last terms of the goals, read from the goal class's
    term lists, equal those read from every member in turn."""
    fam = SequenceTaskFamily(d)
    goals = list(fam.goal_class)
    first, last = fam._goal_terms
    assert first.tolist() == [g.terms[0] for g in goals]
    assert last.tolist() == [g.terms[-1] for g in goals]


@pytest.mark.parametrize("d, letters", [*((d, None) for d in range(2, 9)),
                                        (3, ("x", 7, True))])
def test_family_watcher_truth_matches_the_member_calls(d, letters):
    """The truth table read from the watchers' term masks equals the one
    got by calling every watcher member on every event."""
    fam = SequenceTaskFamily(d, letters)
    calls = [[fn((ev,)) == "set" for ev in fam.letters] for fn in fam.watcher_class]
    assert fam._watcher_truth.dtype == bool
    assert fam._watcher_truth.tolist() == calls


@pytest.mark.parametrize("d, letters", [*((d, None) for d in range(2, 7)),
                                        (3, ("x", 7, True))])
def test_family_tables_are_the_distinct_watcher_truth_rows(d, letters):
    """Grouping the watchers by their events packed as bits gives the
    distinct rows of the truth table, in order of their smallest watcher,
    with how many watchers share each."""
    fam = SequenceTaskFamily(d, letters)
    _, first, counts = np.unique(fam._watcher_truth, axis=0, return_index=True,
                                 return_counts=True)
    order = np.argsort(first)
    got_first, got_counts = fam._tables
    assert got_first.tolist() == first[order].tolist()
    assert got_counts.tolist() == counts[order].tolist()
    assert got_counts.sum() == len(fam._watcher_truth)


def test_family_erm_memory_does_not_grow_with_the_class():
    # |F| = 2.5e7 at d=4: a vector of one count per member alone is 203 MB
    fam = SequenceTaskFamily(4)
    strings = _sequence_strings(fam, 646, 8, seed=91)
    noise = random.Random(92)
    labels = [int(fam.sequence_target().run(s)) ^ (noise.random() < 0.05) for s in strings]
    sample = LabeledSample(tuple(zip(strings, labels)))
    tracemalloc.start()
    try:
        fam.erm(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20, peak


def test_family_contains_the_scenario_cascade_at_depth_five():
    fam = SequenceTaskFamily(5)
    watcher_fns = [
        fam.watcher_class.from_term_names([[f"event={ev}"]])
        for ev in ("wood", "iron", "fire", "steel")
    ]
    goal = fam.goal_class.from_term_names([
        ["event=factory", "task1", "task2", "task3"],
        ["event=factory", "task4"],
    ])
    member = fam.build([*watcher_fns, goal]).flatten()
    scenario = build_flipflop_task_cascade().flatten().restrict(
        [(ev,) for ev in fam.letters]
    )
    assert member.equivalent(scenario).equivalent


def test_family_target_is_realizable():
    # two alternative groups: {task1} or {task2}, then the goal event
    fam = SequenceTaskFamily(3)
    target = fam.sequence_target()
    assert target.run((("e1",), ("e2",), ("e3",))) == 1
    assert target.run((("e2",), ("e3",))) == 1
    assert target.run((("e1",), ("e3",))) == 1
    assert target.run((("e3",), ("e3",))) == 0
    assert target.run((("e3",),)) == 0


# ---------------------------------------------------------------------------
# Trace generation.
# ---------------------------------------------------------------------------


def test_generate_traces_all_blank_weights():
    weights = {e: 0.0 for e in EVENTS}
    weights["blank"] = 1.0
    traces = generate_traces(50, 6, seed=7, weights=weights)
    assert all(set(trace_words(t)) == {"blank"} for t in traces)
    assert all(task_label(t) == 0 for t in traces)


def test_generate_traces_deterministic_under_seed():
    assert generate_traces(20, 8, seed=8) == generate_traces(20, 8, seed=8)
    assert generate_traces(20, 8, seed=8) != generate_traces(20, 8, seed=9)


def test_generate_traces_rejects_bad_weights():
    with pytest.raises(ValueError):
        generate_traces(5, 5, weights={"blank": 1.0})
    bad = {e: 0.5 for e in EVENTS}
    with pytest.raises(ValueError):
        generate_traces(5, 5, weights=bad)


def test_default_weights_make_positives_reachable():
    traces = generate_traces(2000, 10, seed=10)
    positives = sum(task_label(t) for t in traces)
    assert positives >= 0.01 * len(traces)
