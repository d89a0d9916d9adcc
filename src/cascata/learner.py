"""Statistical-learning harness: i.i.d. sampling, empirical risk
minimization over enumerable classes, Monte-Carlo risk estimation, and
sample-size experiments.

Every stochastic operation takes a seed and replays bit-identically under
it.  Loss is 0-1 throughout.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np


def zero_one_loss(a, b) -> int:
    return 0 if a == b else 1


@dataclass(frozen=True)
class LabeledSample:
    entries: tuple[tuple[tuple, object], ...]

    def __post_init__(self):
        for s, _ in self.entries:
            if len(s) == 0:
                raise ValueError("sample strings must be non-empty")

    @property
    def strings(self) -> tuple[tuple, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def labels(self) -> tuple:
        return tuple(y for _, y in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class StringDistribution:
    """Strings drawn as: a length uniform over 1..max_len, then i.i.d.
    letters from ``letter_weights`` (uniform by default)."""

    alphabet: tuple
    max_len: int
    letter_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        if self.letter_weights is not None and len(self.letter_weights) != len(self.alphabet):
            raise ValueError("letter_weights must match the alphabet")

    def sample(self, rng: random.Random) -> tuple:
        length = rng.choices(range(1, self.max_len + 1))[0]
        return tuple(rng.choices(self.alphabet, weights=self.letter_weights, k=length))

    def sample_many(self, n: int, rng: random.Random) -> list[tuple]:
        return [self.sample(rng) for _ in range(n)]


def draw_sample(dist: StringDistribution, target: Callable, n: int,
                seed: int = 0) -> LabeledSample:
    """n i.i.d. strings labelled by the target function."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = random.Random(seed)
    strings = dist.sample_many(n, rng)
    return LabeledSample(tuple((s, target(s)) for s in strings))


def empirical_risk(fn: Callable, sample: LabeledSample) -> float:
    errors = sum(zero_one_loss(fn(s), y) for s, y in sample.entries)
    return errors / len(sample)


class ErmResult(NamedTuple):
    index: int
    function: object
    empirical_risk: float
    tie_count: int


def erm_select(functions, sample: LabeledSample) -> ErmResult:
    """The empirical-risk minimizer over an enumerable class.

    Ties break to the earliest member in iteration order, which for a
    finite class is index order, so the reported index names
    ``functions.member(index)``; the number of tied minimizers is reported.
    A class object exposing ``error_counts(strings, labels)`` (and
    ``member``) is scored through that fast path instead of one-by-one
    evaluation.  An empty sample is a ``ValueError``.
    """
    if len(sample) == 0:
        raise ValueError("cannot select on an empty sample")
    if hasattr(functions, "error_counts"):
        counts = np.asarray(functions.error_counts(list(sample.strings), list(sample.labels)))
        best = int(counts.min())
        index = int(counts.argmin())
        ties = int((counts == best).sum())
        return ErmResult(index, functions.member(index), best / len(sample), ties)
    best_index, best_fn, best_risk = -1, None, None
    ties = 0
    for i, fn in enumerate(functions):
        risk = empirical_risk(fn, sample)
        if best_risk is None or risk < best_risk:
            best_index, best_fn, best_risk = i, fn, risk
            ties = 1
        elif risk == best_risk:
            ties += 1
    if best_fn is None:
        raise ValueError("cannot select from an empty class")
    return ErmResult(best_index, best_fn, best_risk, ties)


class RiskEstimate(NamedTuple):
    mean: float
    stderr: float
    n: int


def estimate_risk(fn: Callable, target: Callable, dist: StringDistribution,
                  n_mc: int, seed: int = 0) -> RiskEstimate:
    """Monte-Carlo estimate of the true risk against the target."""
    mean = empirical_risk(fn, draw_sample(dist, target, n_mc, seed))
    return RiskEstimate(mean, math.sqrt(mean * (1 - mean) / n_mc), n_mc)


def class_min_risk(functions, target: Callable, dist: StringDistribution,
                   n_mc: int, seed: int = 0) -> float:
    """Exhaustive Monte-Carlo minimum risk over an enumerable class, sharing
    one string pool across members so comparisons are paired."""
    return erm_select(functions, draw_sample(dist, target, n_mc, seed)).empirical_risk


class CurvePoint(NamedTuple):
    sample_size: int
    trials: int
    successes: int
    mean_gap: float


def learning_curve(functions, target: Callable, dist: StringDistribution,
                   sample_sizes: Sequence[int], trials: int, epsilon: float,
                   seed: int = 0, n_mc: int = 2000,
                   baseline_risk: float | None = None) -> list[CurvePoint]:
    """Fraction of trials whose selected function lands within epsilon of the
    class-minimum risk, per sample size.

    ``baseline_risk`` is the minimum true risk over the class; pass 0.0 for a
    realizable target (the target's own risk is identically zero), otherwise
    it is estimated exhaustively once.
    """
    if baseline_risk is None:
        baseline_risk = class_min_risk(functions, target, dist, n_mc, seed=seed ^ 0x5EED)
    points = []
    for ell in sample_sizes:
        successes = 0
        gaps = []
        for t in range(trials):
            trial_seed = seed + 1_000_003 * t + 17 * ell
            sample = draw_sample(dist, target, ell, seed=trial_seed)
            chosen = erm_select(functions, sample)
            est = estimate_risk(chosen.function, target, dist, n_mc, seed=trial_seed ^ 0xA5A5)
            gap = max(0.0, est.mean - baseline_risk)
            gaps.append(gap)
            if gap <= epsilon:
                successes += 1
        points.append(CurvePoint(ell, trials, successes, sum(gaps) / len(gaps)))
    return points


def curve_to_csv(points: Sequence[CurvePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["sample_size", "trials", "successes", "mean_gap"])
    for p in points:
        writer.writerow([p.sample_size, p.trials, p.successes, f"{p.mean_gap:.6f}"])
    return buf.getvalue()
