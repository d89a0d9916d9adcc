"""Seeded timings of the learning layers: drawing strings, labelling them,
Monte-Carlo risk and one learning-curve point, on the d=3, d=4 and d=5
sequence-task families.

    python3 scripts/bench_learning.py OUT.json --label change
    python3 scripts/bench_learning.py OUT.json --label parent --src ../parent/src

Per family (strings of 1..8 letters, uniform over the family's events, and
the family's ``sequence_target``), it times:

- ``sample_many``: 2,500 strings;
- ``run_many``: the target's ``Cascade.run_many`` on 2,500 strings, drawn
  as ``sample_many`` draws them, as letter codes;
- ``draw_sample``: the finite-class sample size for epsilon = eta = 0.1,
  labelled by the target;
- ``estimate_risk``: 2,500 strings, the ERM winner of that sample against
  the target;
- ``erm_select``: the family's ERM on a sample drawn as ``draw_sample``
  draws it, with 10% of its labels flipped (seeded by the sample's seed);
  each call's (errors, index, ties) is kept under ``erm_select_results``, so
  two labels' results can be compared;
- ``learning_curve``: one point at that sample size, 2,500 Monte-Carlo
  strings and a realizable baseline, over 5, 2 and 1 trials at d = 3, 4, 5.

Under ``counter16`` it times ``Cascade.run_many`` past its table rule, on
the modulus-16 counter scenario (16,384 product states over 6 letters,
more entries than the batches have letters): 50 and 2,000 strings of 1..20
letters, uniform over its letters, given as letter codes.

Each of the first five, and each ``counter16`` row, is the median of
``REPEATS`` calls on the seeds from ``SEED`` on (``erm_select`` of
``ERM_REPEATS[d]`` calls); the curve point is timed once, on ``SEED``.
The results go into OUT.json under the label (``benchlib.main``).  Only
cascata's public learning API is called, so the script runs against older
sources (``--src``) too.
"""

from __future__ import annotations

import random
import statistics
import sys

from benchlib import main, timed

SEED = 0
REPEATS = 30
TRIALS = {3: 5, 4: 2, 5: 1}  # learning-curve trials per family
#: ``erm_select`` calls per family: one call took about 12 s at d = 5 before
#: the kernel scored one watcher combination per orbit
ERM_REPEATS = {3: REPEATS, 4: REPEATS, 5: 3}
FLIPPED = 0.1  # the share of labels flipped in the ``erm_select`` samples


def flipped(sample, seed: int):
    """``sample`` with each label flipped with probability ``FLIPPED``, its
    drawn codes kept."""
    from cascata.learner import LabeledSample

    rng = random.Random(seed)
    labels = [int(y) ^ (rng.random() < FLIPPED) for y in sample.labels]
    return LabeledSample(tuple(zip(sample.strings, labels)), sample.drawn)


def bench_family(d: int) -> dict:
    from cascata.complexity import sample_bound_finite
    from cascata.crafting import SequenceTaskFamily
    from cascata.learner import (StringDistribution, draw_sample, erm_select, estimate_risk,
                                 learning_curve)

    family = SequenceTaskFamily(d)
    target = family.sequence_target()
    dist = StringDistribution(tuple(family.external.letters()), max_len=8)
    ell = sample_bound_finite(family.cardinality, 0.1, 0.1)
    winner = erm_select(family, draw_sample(dist, target, ell, seed=SEED)).function
    seeds = range(SEED, SEED + REPEATS)
    times = {
        "sample_many_s": [timed(dist.sample_many, 2500, random.Random(s))[1] for s in seeds],
        "run_many_s": [timed(target.run_many, dist.alphabet, *dist.draw(2500, random.Random(s)))[1]
                       for s in seeds],
        "draw_sample_s": [timed(draw_sample, dist, target, ell, seed=s)[1] for s in seeds],
        "estimate_risk_s": [timed(estimate_risk, winner, target, dist, 2500, seed=s)[1]
                            for s in seeds],
    }
    samples = [flipped(draw_sample(dist, target, ell, seed=s), s)
               for s in seeds[:ERM_REPEATS[d]]]
    chosen, times["erm_select_s"] = zip(*(timed(erm_select, family, sample)
                                          for sample in samples))
    result = {name: statistics.median(values) for name, values in times.items()}
    result["erm_select_results"] = [[round(c.empirical_risk * ell), c.index, c.tie_count]
                                    for c in chosen]
    points, result["learning_curve_point_s"] = timed(
        learning_curve, family, target, dist, [ell], TRIALS[d], 0.1, seed=SEED, n_mc=2500,
        baseline_risk=0.0)
    result.update(sample_size=ell, curve_trials=TRIALS[d], curve_successes=points[0].successes,
                  curve_mean_gap=points[0].mean_gap)
    return result


def bench_counter() -> dict:
    from cascata.crafting import build_counter_task_cascade
    from cascata.learner import StringDistribution

    cascade = build_counter_task_cascade(16)
    dist = StringDistribution(tuple(cascade.external.letters()), max_len=20)
    result = {"product_states": cascade.product_size()}
    for n in (50, 2000):
        batches = [dist.draw(n, random.Random(s)) for s in range(SEED, SEED + REPEATS)]
        assert all(cascade.product_size() * len(dist.alphabet) > len(codes)
                   for codes, _ in batches)  # past the table rule
        result[f"run_many_{n}_s"] = statistics.median(
            timed(cascade.run_many, dist.alphabet, codes, lengths)[1] for codes, lengths in batches)
    return result


def measure() -> dict:
    return {"seed": SEED, "repeats": REPEATS, **{f"d{d}": bench_family(d) for d in TRIALS},
            "counter16": bench_counter()}


if __name__ == "__main__":
    sys.exit(main(__doc__, measure))
