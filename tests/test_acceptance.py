"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Randomized sweeps are seeded and deterministic.
"""

import itertools
import math
import random
import time

import numpy as np

from cascata.alphabets import FactoredAlphabet, TableClass
from cascata.automata import ComponentAutomaton, Semiautomaton
from cascata.complexity import (
    class_dimension,
    dimension_bound_automata,
    dimension_bound_cascade,
    empirical_growth,
    growth_bound_automata,
    growth_bound_cascade,
    sample_bound_finite,
    vc_dimension,
    verify_growth_propositions,
)
from cascata.crafting import (
    EVENTS,
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    datalog_oracle,
    generate_traces,
)
from cascata.functional import cascade_function
from cascata.learner import StringDistribution, draw_sample, erm_select, estimate_risk
from cascata.primes import make_counter, make_flipflop, validate_prime_identities

from helpers import cascade_with_counter, random_cascade, string_sweep

# frozen during development: minimized state count of the counter scenario,
# certified by behavior-signature counting (see criterion 5)
COUNTER_SCENARIO_MIN_STATES = 8193


def report(name, ok, detail=""):
    print(f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_prime_identities():
    t0 = time.time()
    ok = True
    for with_reset in (True, False):
        for init in (0, 1):
            ok &= validate_prime_identities(make_flipflop(with_reset, init), "flipflop").ok
    for n in (2, 3, 5, 7, 16):
        ok &= validate_prime_identities(make_counter(n), "counter").ok
    elapsed = time.time() - t0
    report("1 prime identities", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_flattening_equivalence():
    # strings of length <= 6: exhaustive whenever the alphabet keeps that
    # below the per-cascade budget, exhaustive short strings plus random
    # longer ones otherwise (the exhaustive sweep over 9-letter alphabets
    # would not fit the time limit)
    rng = random.Random(20)
    t0 = time.time()
    mismatches = 0
    checked = 0
    for _ in range(500):
        c = random_cascade(rng, max_d=3, max_arity=2, max_domain=3)
        flat = c.flatten()
        for s in string_sweep(list(c.external.letters()), 6, 250, rng):
            checked += 1
            if c.run(s) != flat.run(s):
                mismatches += 1
    elapsed = time.time() - t0
    report("2 flattening equivalence", mismatches == 0 and elapsed < 60,
           f"500 cascades, {checked} strings, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_3_functional_oracles():
    rng = random.Random(30)
    t0 = time.time()
    mismatches = 0
    checked = 0
    for _ in range(500):
        c = random_cascade(rng, max_d=3, max_arity=2, max_domain=3)
        tree = cascade_function(c)
        for s in string_sweep(list(c.external.letters()), 6, 150, rng):
            checked += 1
            if tree(s) != c.run(s):
                mismatches += 1
    elapsed = time.time() - t0
    report("3 functional-description oracles", mismatches == 0 and elapsed < 60,
           f"500 cascades, {checked} strings, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_4_aperiodicity():
    rng = random.Random(40)
    t0 = time.time()
    flipflop_ok = 0
    for _ in range(200):
        c = random_cascade(rng, max_d=4, cores="flipflop", simple=True)
        flipflop_ok += c.is_simple() and c.flatten().is_aperiodic()
    counter_ok = 0
    for _ in range(25):
        c = cascade_with_counter(rng, modulus=5, max_d=3)
        counter_ok += not c.flatten().is_aperiodic()
    elapsed = time.time() - t0
    report("4 aperiodicity of flip-flop cascades",
           flipflop_ok == 200 and counter_ok == 25 and elapsed < 120,
           f"{flipflop_ok}/200 aperiodic, {counter_ok}/25 counter witnesses, {elapsed:.1f}s")


def test_criterion_5_counter_scenario_state_count():
    t0 = time.time()
    cascade = build_counter_task_cascade()
    product = cascade.product_size()
    flat = cascade.flatten()
    minimized = flat.minimize()
    count = minimized.n_states

    # behavioral check: minimization preserved the function (exact product walk)
    preserved = minimized.equivalent(flat).equivalent

    # independent certificate: pairwise-distinguishable states counted by
    # behavior signatures over every joint shift of the four materials
    letters = list(minimized.alphabet)
    lidx = {a: i for i, a in enumerate(letters)}
    idx = {q: i for i, q in enumerate(minimized.states)}
    delta = np.array(
        [[idx[minimized.core.step(q, a)] for a in letters]
         for q in minimized.states], dtype=np.int64)
    out = np.array(
        [[minimized.output(q, a) for a in letters]
         for q in minimized.states], dtype=np.int8)
    wood, iron, fire, steel, factory = (
        lidx[(e,)] for e in ("wood", "iron", "fire", "steel", "factory"))
    columns = []
    va = np.arange(minimized.n_states)
    for _ in range(16):
        vab = va.copy()
        for _ in range(16):
            for use_fire in (False, True):
                v = delta[vab, fire] if use_fire else vab
                vk = v.copy()
                for _ in range(16):
                    columns.append(out[vk, factory])
                    vk = delta[vk, steel]
            vab = delta[vab, iron]
        va = delta[va, wood]
    signatures = np.stack(columns, axis=1)
    distinct = len({row.tobytes() for row in signatures})

    elapsed = time.time() - t0
    ok = (product == 16384 and count == COUNTER_SCENARIO_MIN_STATES
          and count > 700 and preserved and distinct == count and elapsed < 120)
    report("5 counter-scenario state count", ok,
           f"product {product}, minimized {count} (frozen {COUNTER_SCENARIO_MIN_STATES}), "
           f"distinct behaviors {distinct}, preserved={preserved}, {elapsed:.1f}s")


def test_criterion_6_scenario_oracle_agreement():
    t0 = time.time()
    cascade = build_flipflop_task_cascade()
    mismatches = 0
    exhaustive = 0
    for length in range(1, 5):
        for ws in itertools.product(EVENTS, repeat=length):
            trace = tuple((w,) for w in ws)
            exhaustive += 1
            if cascade.run(trace) != int(datalog_oracle(trace)[-1]):
                mismatches += 1
    randoms = generate_traces(10_000, 20, seed=60)
    for trace in randoms:
        if cascade.run(trace) != int(datalog_oracle(trace)[-1]):
            mismatches += 1
    elapsed = time.time() - t0
    report("6 scenario oracle agreement", mismatches == 0 and elapsed < 60,
           f"{exhaustive} exhaustive (len<=4) + {len(randoms)} random (len<=20), "
           f"{mismatches} mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 7: growth and dimension bounds hold empirically.
# ---------------------------------------------------------------------------


def _strings_over(letters, max_len):
    return [s for L in range(1, max_len + 1)
            for s in itertools.product(letters, repeat=L)]


def _exact_letter_growth(functions, letters):
    fns = list(functions)
    return lambda n: empirical_growth(fns, letters, n, mode="exact").count


def _check_family_d2():
    fam = SequenceTaskFamily(2)
    members = list(fam)
    max_len = 3
    universe = _strings_over(list(fam.external.letters()), max_len)
    watcher_letters = list(fam.external.letters())
    goal_letters = list(fam.goal_class.signature.letters())
    desc = fam.descriptor(max_len)
    growths = [_exact_letter_growth(fam.watcher_class, watcher_letters),
               _exact_letter_growth(fam.goal_class, goal_letters)]
    ones = [lambda n: 1, lambda n: 1]
    rows = []
    for ell in (1, 2, 3):
        measured = empirical_growth(members, universe, ell, mode="exact").count
        bound = growth_bound_cascade(desc, ell, input_growths=growths,
                                     output_growths=ones)
        rows.append((f"family-d2 ell={ell}", measured, bound, measured <= bound))
    # dimension: capacities from empirical input-class dimensions
    h_watch = class_dimension(list(fam.watcher_class), watcher_letters,
                              ("set", "read")).value
    h_goal = class_dimension(list(fam.goal_class), goal_letters,
                             ("set", "read")).value
    desc_dim = fam.descriptor(max_len, watcher_dim=h_watch, goal_dim=h_goal)
    w = max(c.capacity() for c in desc_dim.components)
    if w >= 2:
        bound = dimension_bound_cascade(desc_dim)
        measured = vc_dimension(members, universe).value
        rows.append((f"family-d2 dimension (w={w:.2f})", measured, bound,
                     measured <= bound))
    return rows


def _check_single_component_class():
    external = FactoredAlphabet.single("e", ("a", "b"))
    phi_class = TableClass(external, ("set", "read"))
    members = [
        ComponentAutomaton(external, (1,), phi, make_flipflop(with_reset=False),
                           output_fn="state").induce()
        for phi in phi_class
    ]
    letters = list(external.letters())
    max_len = 3
    universe = _strings_over(letters, max_len)
    from cascata.complexity import ComponentClassSpec

    spec = ComponentClassSpec(arity=1, degree=1, n_input_fns=4, n_cores=1,
                              n_output_fns=1, internal_size=2, output_size=2)
    rows = []
    growth = _exact_letter_growth(phi_class, letters)
    for ell in (1, 2, 3):
        measured = empirical_growth(members, universe, ell, mode="exact").count
        bound = growth_bound_automata(spec, ell, max_len, input_growth=growth,
                                      output_growth=lambda n: 1)
        rows.append((f"watcher-class ell={ell}", measured, bound, measured <= bound))
    h = class_dimension(list(phi_class), letters, ("set", "read")).value
    spec_dim = ComponentClassSpec(arity=1, degree=1, n_input_fns=4, n_cores=1,
                                  n_output_fns=1, internal_size=2, output_size=2,
                                  input_dim=float(h), output_dim=0.0)
    if spec_dim.capacity() >= 2:
        measured = vc_dimension(members, universe).value
        bound = dimension_bound_automata(spec_dim, max_len)
        rows.append((f"watcher-class dimension (w={spec_dim.capacity():.1f})",
                     measured, bound, measured <= bound))
    return rows


def _check_projection_and_core_choices():
    external = FactoredAlphabet.of(("x", (0, 1)), ("y", (0, 1)))
    toggle = Semiautomaton(("set", "read"), (0, 1),
                           {(0, "set"): 1, (1, "set"): 0,
                            (0, "read"): 0, (1, "read"): 1}, 0)
    cores = [make_flipflop(with_reset=False), toggle]
    members = []
    n_phi = None
    for deps in ((1,), (2,)):
        phi_class = TableClass(external.project(deps), ("set", "read"))
        n_phi = phi_class.cardinality
        for phi in phi_class:
            for core in cores:
                members.append(
                    ComponentAutomaton(external, deps, phi, core,
                                       output_fn="state").induce()
                )
    letters = list(external.letters())
    max_len = 2
    universe = _strings_over(letters, max_len)
    from cascata.complexity import ComponentClassSpec

    spec = ComponentClassSpec(arity=2, degree=1, n_input_fns=n_phi, n_cores=2,
                              n_output_fns=1, internal_size=2, output_size=2)
    single = FactoredAlphabet.single("p", (0, 1))
    phi_growth = _exact_letter_growth(TableClass(single, ("set", "read")),
                                      list(single.letters()))
    rows = []
    for ell in (1, 2, 3):
        measured = empirical_growth(members, universe, ell, mode="exact").count
        bound = growth_bound_automata(spec, ell, max_len, input_growth=phi_growth,
                                      output_growth=lambda n: 1)
        rows.append((f"projection-core-class ell={ell}", measured, bound,
                     measured <= bound))
    spec_dim = ComponentClassSpec(arity=2, degree=1, n_input_fns=n_phi, n_cores=2,
                                  n_output_fns=1, internal_size=2, output_size=2,
                                  input_dim=2.0, output_dim=0.0)
    measured = vc_dimension(members, universe).value
    bound = dimension_bound_automata(spec_dim, max_len)
    rows.append((f"projection-core-class dimension (w={spec_dim.capacity():.1f})",
                 measured, bound, measured <= bound))
    return rows


def test_criterion_7_growth_and_dimension_bounds():
    t0 = time.time()
    rows = []
    rows += _check_family_d2()
    rows += _check_single_component_class()
    rows += _check_projection_and_core_choices()

    # the six growth propositions, exactly, on tiny concrete classes
    points = [(0,), (1,)]
    tables = list(TableClass(FactoredAlphabet.of(("p", (0, 1))), (0, 1)))
    inner = [lambda w: w, lambda w: 1 - w, lambda w: 0, lambda w: 1]
    string_universe = _strings_over(points, 3)
    string_functions = [
        lambda s: sum(x[0] for x in s) % 2,
        lambda s: int(any(x[0] for x in s)),
        lambda s: s[-1][0],
    ]
    checks = verify_growth_propositions(tables, inner, points, [0, 1],
                                        string_functions, string_universe,
                                        outputs=(0, 1))
    assert {c.name for c in checks} == {
        "composition", "cross_product", "binarization", "last_letter_lift",
        "prefix_map", "dimension_chain"}
    rows += [(f"proposition {c.name} ell={c.sample_size}", c.measured, c.bound, c.ok)
             for c in checks]

    elapsed = time.time() - t0
    failures = [r for r in rows if not r[3]]
    for name, measured, bound, ok in rows:
        print(f"    {name}: measured {measured} <= bound {bound:.6g}: "
              f"{'ok' if ok else 'VIOLATION'}")
    report("7 growth/dimension bounds", not failures and elapsed < 600,
           f"{len(rows)} checks, {len(failures)} violations, {elapsed:.1f}s")


def test_criterion_8_finite_class_learning():
    t0 = time.time()
    epsilon = eta = 0.1
    fam = SequenceTaskFamily(3)
    ell = sample_bound_finite(fam.cardinality, epsilon, eta)
    target = fam.sequence_target()
    dist = StringDistribution(tuple(fam.external.letters()), max_len=8)
    trials = 100
    successes = 0
    worst = 0.0
    for trial in range(trials):
        sample = draw_sample(dist, target, ell, seed=8000 + trial)
        chosen = erm_select(fam, sample)
        est = estimate_risk(chosen.function, target, dist, 2500,
                            seed=9000 + trial)
        # realizable target: the class minimum risk is exactly zero
        gap = est.mean
        worst = max(worst, gap)
        if gap <= epsilon:
            successes += 1
    elapsed = time.time() - t0
    report("8 finite-class learning", successes >= 90 and elapsed < 900,
           f"|class|={fam.cardinality}, sample size {ell}, "
           f"{successes}/{trials} trials with gap <= {epsilon} "
           f"(worst gap {worst:.4f}), {elapsed:.1f}s")


def test_criterion_9_family_scaling_shape():
    t0 = time.time()
    log_ok = True
    for d in range(2, 7):
        fam = SequenceTaskFamily(d)
        log_ok &= math.log2(fam.watcher_class.cardinality) < 4 * d
        log_ok &= math.log2(fam.goal_class.cardinality) < 4 * d

    # quadratic shape: doubling d must not grow the bound by more than the
    # quadratic factor 4 (slack 0.25 pinned here)
    ratio_ok = True
    ratios = []
    for d in (2, 3, 4):
        small = sample_bound_finite(SequenceTaskFamily(d).cardinality, 0.1, 0.1)
        big = sample_bound_finite(SequenceTaskFamily(2 * d).cardinality, 0.1, 0.1)
        ratios.append(big / small)
        ratio_ok &= big / small <= 4 * 1.25
    elapsed = time.time() - t0
    report("9 family scaling shape", log_ok and ratio_ok and elapsed < 120,
           f"log2 budgets hold on d=2..6; bound ratios {['%.2f' % r for r in ratios]} "
           f"<= 5.0, {elapsed:.1f}s")
