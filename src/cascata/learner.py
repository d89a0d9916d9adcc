"""Statistical-learning harness: i.i.d. sampling, empirical risk
minimization over enumerable classes, Monte-Carlo risk estimation, and
sample-size experiments.

Every stochastic operation takes a seed and replays bit-identically under
it.  Loss is 0-1 throughout.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import random
from bisect import bisect
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence


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
    letters from ``letter_weights`` (uniform by default).  Weights must be
    finite and at least 0, with a positive sum."""

    alphabet: tuple
    max_len: int
    letter_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.alphabet:
            raise ValueError("the alphabet must hold at least one letter")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")
        weights = self.letter_weights
        if weights is None:
            return
        if len(weights) != len(self.alphabet):
            raise ValueError("letter_weights must match the alphabet")
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError("letter weights must be finite and at least 0")
        # the running sums and their total as random.choices forms them
        cumulative = list(itertools.accumulate(weights))
        total = cumulative[-1] + 0.0 if cumulative else 0.0
        if not 0 < total < math.inf:
            raise ValueError("letter weights must have a positive, finite sum")
        object.__setattr__(self, "_cumulative", (cumulative, total))

    def sample_many(self, n: int, rng: random.Random) -> list[tuple]:
        """n strings drawn straight from ``rng.random``, as ``random.choices``
        draws them: the length is ``floor(random() * max_len) + 1``, a letter
        ``floor(random() * k)`` or, with weights, a bisection of
        ``random() * total`` into the running sums.  The strings and the
        state left in ``rng`` are those of one ``choices`` call for the
        length and one for the letters of each string."""
        draw, floor, alphabet, max_len = rng.random, math.floor, self.alphabet, self.max_len
        strings = []
        if self.letter_weights is None:
            k = len(alphabet)
            for _ in range(n):
                length = floor(draw() * max_len) + 1
                strings.append(tuple([alphabet[floor(draw() * k)] for _ in range(length)]))
        else:
            cumulative, total = self._cumulative
            hi = len(alphabet) - 1
            for _ in range(n):
                length = floor(draw() * max_len) + 1
                strings.append(tuple([alphabet[bisect(cumulative, draw() * total, 0, hi)]
                                      for _ in range(length)]))
        return strings


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
    A class object exposing ``erm(strings, labels)`` (and ``member``) is
    scored through that kernel instead of one-by-one evaluation: it returns
    the fewest errors, the first member index with that many and the number
    of members with that many, as the generic loop finds them.  An empty
    sample is a ``ValueError``.
    """
    if len(sample) == 0:
        raise ValueError("cannot select on an empty sample")
    if hasattr(functions, "erm"):
        best, index, ties = functions.erm(list(sample.strings), list(sample.labels))
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
    it is estimated exhaustively once.  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
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
