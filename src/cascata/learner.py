"""Statistical-learning harness: i.i.d. sampling, empirical risk
minimization over enumerable classes, Monte-Carlo risk estimation, and
sample-size experiments.

Every stochastic operation takes a seed and replays bit-identically under
it.  Loss is 0-1 throughout.  Strings are drawn in bulk as letter codes
(``StringDistribution.draw``); ``draw_sample`` and ``estimate_risk`` score
them without building a string when the function runs an automaton, and
``erm_select`` hands a whole sample to a class's ERM kernel when the class
has one.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cascade import _automaton


def zero_one_loss(a, b) -> int:
    return 0 if a == b else 1


@dataclass(frozen=True)
class LabeledSample:
    """Labelled strings.  ``drawn``, which ``draw_sample`` fills, holds
    the same strings as they were drawn: the distribution's alphabet, every
    letter's position in it (all strings' letters in order, an int array)
    and each string's length.  It takes no part in equality, hashing or
    repr."""

    entries: tuple[tuple[tuple, object], ...]
    drawn: tuple[tuple, np.ndarray, np.ndarray] | None = field(
        default=None, compare=False, repr=False)

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
        # each running sum as the least float at least as large: a float is
        # at least the sum exactly when it is at least that float
        sums = np.array([math.nextafter(float(c), math.inf) if float(c) < c else float(c)
                         for c in cumulative])
        object.__setattr__(self, "_cumulative", (sums, total))

    def draw(self, n: int, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
        """n strings drawn from ``rng.random`` as ``random.choices`` draws
        them, as int arrays: every letter's position in ``alphabet``, all
        strings' letters in draw order, and each string's length.  The
        length is ``floor(random() * max_len) + 1``, a letter
        ``floor(random() * k)`` or, with weights, a bisection of
        ``random() * total`` into the running sums; the state left in
        ``rng`` is that of one ``choices`` call for the length and one for
        the letters of each string.  The values come from
        ``_drawn_values``."""
        values, starts = _drawn_values(rng, n, self.max_len)
        lengths = (values[starts] * self.max_len).astype(np.intp) + 1
        letters = values[~starts]
        if self.letter_weights is None:
            return (letters * len(self.alphabet)).astype(np.intp), lengths
        sums, total = self._cumulative
        codes = np.searchsorted(sums, letters * total, "right")
        return np.minimum(codes, len(self.alphabet) - 1), lengths

    def strings(self, codes: np.ndarray, lengths: np.ndarray) -> list[tuple]:
        """The strings that ``draw`` returned as ``codes`` and ``lengths``,
        as tuples of letters."""
        alphabet = np.empty(len(self.alphabet), dtype=object)
        for i, a in enumerate(self.alphabet):  # a letter may be a tuple
            alphabet[i] = a
        letters = alphabet[codes].tolist()
        ends = list(itertools.accumulate(lengths.tolist()))
        return [tuple(letters[start:end]) for start, end in zip([0, *ends], ends)]

    def sample_many(self, n: int, rng: random.Random) -> list[tuple]:
        """n strings drawn as ``draw`` draws them, as tuples of letters."""
        return self.strings(*self.draw(n, rng))


def _doubles(words: np.ndarray) -> np.ndarray:
    """``random()`` of CPython's Mersenne Twister from consecutive pairs of
    its 32-bit outputs: 53 bits, 27 from the first and 26 from the second."""
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _untempered(outputs: np.ndarray) -> np.ndarray:
    """The Mersenne Twister state words whose outputs are ``outputs``
    (uint32): its tempering's four steps undone, last first."""
    y = outputs ^ (outputs >> 18)
    x = y
    for _ in range(2):
        x = y ^ ((x << 15) & 0xEFC60000)
    y = x
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def _drawn_values(rng: random.Random, n: int, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of ``rng.random()`` that drawing n strings of 1..max_len
    letters takes (each string's length value, then one per letter), as a
    float array, and a bool array marking the length values, where the
    strings start.  ``rng`` is left where drawing them one by one would
    leave it.

    A plain ``random.Random`` (one whose ``random``, ``getrandbits``,
    ``getstate`` and ``setstate`` are ``random.Random``'s) hands out its
    32-bit outputs in blocks through ``getrandbits``, and ``random()`` takes
    two of them.  A first block holds as many values as n strings take on
    average and a second, when they need more, as many as the rest can
    take.  Each length value gives the position of the next one.  ``rng``
    is then set to the state after the last value used: the outputs of its
    key, untempered, and how many of them are used.  (Setting it back and
    handing out two outputs per value used reaches the same state, but
    generates every output a second time.)  Any other generator,
    such as ``random.SystemRandom``, is called once per value."""
    cls = type(rng)
    if not all(getattr(cls, name) is getattr(random.Random, name)
               for name in ("random", "getrandbits", "getstate", "setstate")):
        draw, values, starts = rng.random, [], []
        for _ in range(n):
            values.append(draw())
            length = math.floor(values[-1] * max_len) + 1
            values.extend([draw() for _ in range(length)])
            starts.extend([True] + [False] * length)
        return np.array(values, dtype=np.float64), np.array(starts, dtype=bool)
    if n == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    version, internal, gauss_next = rng.getstate()
    used = internal[-1]  # outputs of the current key already handed out
    words, blocks, starts = [], [], bytearray()
    want = -(-n * (max_len + 3) // 2)  # 1 + (max_len + 1) / 2 values per string
    end = size = done = 0
    while True:
        words.append(np.frombuffer(rng.getrandbits(64 * want).to_bytes(8 * want, "little"),
                                   dtype="<u4"))
        blocks.append(_doubles(words[-1]))
        # from a length value, the position of the next one
        hop = memoryview(np.arange(size + 2, size + want + 2)
                         + (blocks[-1] * max_len).astype(np.intp))
        base, size = size, size + want
        starts += bytes(want)
        for done in range(done, n):
            if end >= size:
                break
            starts[end] = 1
            end = hop[end - base]
        else:
            done = n
        if done == n and end <= size:
            break
        want = max(end - size, 0) + (n - done) * (max_len + 1)
    # the last output used, counted from the start of the key in ``internal``;
    # every 624 outputs the key is made anew
    twists, index = divmod(used + 2 * end - 1, 624)
    if twists == 0:
        key = internal[:-1]
    elif twists == (used + 2 * size - 1) // 624:  # the key that rng holds now
        key = rng.getstate()[1][:-1]
    else:
        start = 624 * twists - used
        key = _untempered(np.concatenate(words)[start:start + 624]).tolist()
    rng.setstate((version, (*key, index + 1), gauss_next))
    return np.concatenate(blocks)[:end], np.frombuffer(starts, dtype=bool)[:end]


def _draw(dist: StringDistribution, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    if n < 1:
        raise ValueError("sample size must be at least 1")
    return dist.draw(n, random.Random(seed))


def draw_sample(dist: StringDistribution, target: Callable, n: int,
                seed: int = 0) -> LabeledSample:
    """n i.i.d. strings labelled by the target function.  When the target
    runs an automaton (``cascade._automaton``) the drawn codes are stepped
    together through its ``run_many``; any other callable is called once
    per string.  The codes stay on the sample (``LabeledSample.drawn``)."""
    codes, lengths = _draw(dist, n, seed)
    strings = dist.strings(codes, lengths)
    automaton = _automaton(target)
    if automaton is None:
        labels = [target(s) for s in strings]
    else:
        labels = map(automaton.outputs.__getitem__,
                     automaton.run_many(dist.alphabet, codes, lengths).tolist())
    return LabeledSample(tuple(zip(strings, labels)), (dist.alphabet, codes, lengths))


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
    A class object exposing ``erm(sample)`` (and ``member``) is scored
    through that kernel instead of one-by-one evaluation: it returns the
    fewest errors, the first member index with that many and the number of
    members with that many, as the generic loop finds them.  An empty
    sample is a ``ValueError``.
    """
    if len(sample) == 0:
        raise ValueError("cannot select on an empty sample")
    if hasattr(functions, "erm"):
        best, index, ties = functions.erm(sample)
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
    """Monte-Carlo estimate of the true risk against the target, on the
    strings of ``draw_sample``.  When both run automata, their ``run_many``
    output codes are compared, each distinct pair of codes once, by
    ``zero_one_loss`` on the values; otherwise ``fn`` is called on each
    string."""
    mine, theirs = _automaton(fn), _automaton(target)
    if mine is None or theirs is None:
        mean = empirical_risk(fn, draw_sample(dist, target, n_mc, seed))
    else:
        codes, lengths = _draw(dist, n_mc, seed)
        labels = theirs.run_many(dist.alphabet, codes, lengths)
        width = len(theirs.outputs)
        pairs, counts = np.unique(mine.run_many(dist.alphabet, codes, lengths) * width + labels,
                                  return_counts=True)
        mean = sum(count * zero_one_loss(mine.outputs[pair // width], theirs.outputs[pair % width])
                   for pair, count in zip(pairs.tolist(), counts.tolist())) / n_mc
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

