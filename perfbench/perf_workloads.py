"""The benchmark's workloads and the loop that measures them.

Each workload has a ``setup`` (inputs from the seed, plus what the timed
loop needs), a ``prepare`` that computes reference answers outside every
timer, and a ``round`` of whole operations that returns its own timings.
Every call into cascata goes through a tracer (see ``perf_trace``); a
failed check fails its operation in the ``Tally``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
import traceback
from statistics import median
from types import SimpleNamespace

import numpy as np

from cascata.complexity import (
    class_dimension,
    dimension_bound_cascade,
    empirical_growth,
    growth_bound_cascade,
    sample_bound_finite,
    vc_dimension,
)
from cascata.crafting import (
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    counting_oracle,
    datalog_oracle,
    generate_traces,
)
from cascata.functional import cascade_function
from cascata.learner import StringDistribution, draw_sample, erm_select, estimate_risk
from cascata.specfile import cascade_from_spec, cascade_to_spec

import perf_checks as checks
from perf_sampler import REFERENCE_S, reference_loop
from perf_trace import NullTracer, Tracer

NULL = NullTracer()
#: set-up runs at least SETUP_REPEATS times and, while it is cheap, until
#: SETUP_SECONDS have passed (at most SETUP_MAX_REPEATS times)
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 200
SIDE_ROUNDS = 8
SAMPLER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_sampler.py")


class Tally:
    """Operations attempted and failed.  An operation fails when it raises
    or when one of its checks rejects its output; ``wrong`` counts the
    latter."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, what: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.wrong += 1
            for failure in failures:
                print(f"check failed: {what}: {failure}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


class Workload:
    """A seeded workload: ``setup`` builds its inputs and what its rounds
    need, ``prepare`` computes reference answers outside every timer,
    ``round`` runs whole operations, checks them and returns its timings
    (one value per metric in ``home``), ``finish`` makes run-level checks."""

    home: tuple = ()
    #: rounds of many seconds, through which probes at the edges cannot
    #: follow the host's speed: a sampling process follows it instead when
    #: the workload runs as itself
    long_rounds = False

    def prepare(self, ctx):
        pass

    def finish(self, ctx, tally):
        pass


def _spec_text(cascade) -> str:
    return json.dumps(cascade_to_spec(cascade))


def _parse(tr, text):
    return tr.call("specfile.cascade_from_spec", lambda: cascade_from_spec(json.loads(text)))


# ---------------------------------------------------------------------------
# counter-compile: the path behind ``cascata minimize`` on the counter spec.
# ---------------------------------------------------------------------------


class CounterCompile(Workload):
    home = ("compile_s",)
    long_rounds = True

    def __init__(self, modulus=16, thresholds=(13, 5, 7), n_traces=2000):
        self.modulus = modulus
        self.thresholds = thresholds
        self.n_traces = n_traces

    def setup(self, seed, tr):
        spec = _spec_text(build_counter_task_cascade(self.modulus, *self.thresholds))
        # length below the modulus keeps every per-material count below it
        traces = tr.call("crafting.generate_traces", generate_traces,
                         self.n_traces, self.modulus - 1, seed=seed)
        return SimpleNamespace(spec=spec, traces=traces)

    def prepare(self, ctx):
        ctx.want = [int(counting_oracle(t, *self.thresholds)[-1]) for t in ctx.traces]

    def round(self, ctx, tr, index, tally):
        start = time.perf_counter()
        cascade = _parse(tr, ctx.spec)
        flat = tr.call("cascade.flatten", cascade.flatten)
        tr.count("cascade.flatten_states", flat.n_states)
        minimized = tr.call("automata.minimize", flat.minimize)
        tr.count("automata.minimize_states", minimized.n_states)
        equivalent = tr.call("automata.equivalent", minimized.equivalent, flat).equivalent
        text = tr.call("automata.to_dict", lambda: json.dumps(minimized.to_dict()))
        tr.count("automata.json_bytes", len(text))
        compile_s = time.perf_counter() - start

        def check():
            data = json.loads(text)
            tally.record("counter compile", checks.check_compile(
                self.modulus, cascade.product_size(), flat.n_states,
                minimized.n_states, data, equivalent))
            delta, out, letter_index = checks.tables(data)
            for trace, want in zip(ctx.traces, ctx.want):
                got = checks.table_output(delta, out, letter_index, data["initial"], trace)
                tally.record("minimized automaton vs counting oracle",
                             [] if got == want else [f"{got} != {want} on {trace}"])

        tr.call("bench.check", check)
        return {"compile_s": compile_s}


# ---------------------------------------------------------------------------
# trace-run: the path behind ``cascata run``, plus the flattened flip-flop.
# ---------------------------------------------------------------------------


class TraceRun(Workload):
    home = ("run_letters_per_s", "flat_run_letters_per_s")

    def __init__(self, n_traces=2000, max_len=20, flat_passes=10, modulus=16,
                 thresholds=(13, 5, 7)):
        self.n_traces = n_traces
        self.max_len = max_len
        self.flat_passes = flat_passes
        self.modulus = modulus
        self.thresholds = thresholds

    def setup(self, seed, tr):
        flipflop_spec = _spec_text(build_flipflop_task_cascade())
        counter_spec = _spec_text(build_counter_task_cascade(self.modulus, *self.thresholds))
        traces = tr.call("crafting.generate_traces", generate_traces,
                         self.n_traces, self.max_len, seed=seed)
        flipflop = _parse(tr, flipflop_spec)
        counter = _parse(tr, counter_spec)
        flat = tr.call("cascade.flatten", flipflop.flatten)
        tr.count("cascade.flatten_states", flat.n_states)
        return SimpleNamespace(traces=traces, flipflop=flipflop, counter=counter, flat=flat,
                               letters=sum(len(t) for t in traces))

    def prepare(self, ctx):
        ctx.want_flipflop = [int(datalog_oracle(t)[-1]) for t in ctx.traces]
        ctx.want_counter = [int(counting_oracle(t, *self.thresholds)[-1])
                            if checks.counts_below(t, self.modulus) else None
                            for t in ctx.traces]

    def round(self, ctx, tr, index, tally):
        flipflop_run = tr.wrap("cascade.run", ctx.flipflop.run, "cascade.run_letters")
        counter_run = tr.wrap("cascade.run", ctx.counter.run, "cascade.run_letters")
        flat_run = tr.wrap("automata.flat_run", ctx.flat.run, "automata.flat_run_letters")
        start = time.perf_counter()
        flipflop_out = [flipflop_run(t) for t in ctx.traces]
        counter_out = [counter_run(t) for t in ctx.traces]
        run_s = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(self.flat_passes):
            flat_out = [flat_run(t) for t in ctx.traces]
        flat_s = time.perf_counter() - start

        def check():
            for i, trace in enumerate(ctx.traces):
                tally.record("flip-flop cascade vs datalog oracle",
                             [] if flipflop_out[i] == ctx.want_flipflop[i] else [str(trace)])
                want = ctx.want_counter[i]
                tally.record("counter cascade vs counting oracle",
                             [] if want is None or counter_out[i] == want else [str(trace)])
                tally.record("flat automaton vs flip-flop cascade",
                             [] if flat_out[i] == flipflop_out[i] else [str(trace)])

        tr.call("bench.check", check)
        return {"run_letters_per_s": 2 * ctx.letters / run_s,
                "flat_run_letters_per_s": self.flat_passes * ctx.letters / flat_s}


# ---------------------------------------------------------------------------
# erm-d3: trials of the finite-class learning experiment.
# ---------------------------------------------------------------------------


class ErmTrials(Workload):
    home = ("erm_trial_s",)
    epsilon = eta = 0.1

    def __init__(self, d=3, max_len=8, n_mc=2500):
        self.d = d
        self.max_len = max_len
        self.n_mc = n_mc
        # the target's rule: the last event after an earlier other event
        self.rule = lambda s: checks.sequence_rule(
            s, last=f"e{d}", earlier=tuple(f"e{i}" for i in range(1, d)))

    def setup(self, seed, tr):
        family = SequenceTaskFamily(self.d)
        ell = sample_bound_finite(family.cardinality, self.epsilon, self.eta)
        dist = StringDistribution(tuple(family.external.letters()), max_len=self.max_len)
        return SimpleNamespace(seed=seed, family=family, target=family.sequence_target(),
                               ell=ell, dist=dist, gaps=[])

    def round(self, ctx, tr, index, tally):
        sample_seed = ctx.seed * 1_000_003 + index
        risk_seed = sample_seed ^ 0xA5A5
        target = tr.wrap("cascade.run", ctx.target.run, "cascade.run_letters")
        start = time.perf_counter()
        sample = tr.call("learner.draw_sample", draw_sample, ctx.dist, target, ctx.ell,
                         seed=sample_seed)
        chosen = tr.call("learner.erm_select", erm_select, ctx.family, sample)
        tr.count("learner.erm_select_members", ctx.family.cardinality)
        winner = tr.wrap("cascade.run", chosen.function.run, "cascade.run_letters")
        est = tr.call("learner.estimate_risk", estimate_risk, winner, target, ctx.dist,
                      self.n_mc, seed=risk_seed)
        tr.count("learner.estimate_risk_strings", self.n_mc)
        trial_s = time.perf_counter() - start

        def check():
            entries = sample.entries
            pool = ctx.dist.sample_many(self.n_mc, random.Random(risk_seed))
            run = chosen.function.run
            failures = checks.check_labels(entries, self.rule)
            failures += checks.check_winner(chosen.empirical_risk,
                                            [run(s) for s, _ in entries], entries)
            failures += checks.check_risk(est.mean, [run(s) for s in pool], pool, self.rule)
            tally.record("erm trial", failures)
            # realizable target: the class minimum risk is exactly zero
            ctx.gaps.append(est.mean)

        tr.call("bench.check", check)
        return {"erm_trial_s": trial_s}

    def finish(self, ctx, tally):
        tally.record("erm trials within epsilon",
                     checks.check_success_rate(ctx.gaps, self.epsilon))


# ---------------------------------------------------------------------------
# certify-d2: brute-force certification of the growth and dimension bounds.
# ---------------------------------------------------------------------------


def _strings_over(letters, max_len):
    return [s for n in range(1, max_len + 1) for s in itertools.product(letters, repeat=n)]


class Certify(Workload):
    """Exhaustive over the d=2 family and all strings up to ``max_len``; the
    inputs do not depend on the seed."""

    home = ("certify_s",)
    long_rounds = True
    binary = ("set", "read")

    def __init__(self, max_len=3, ells=(1, 2, 3), counter_modulus=2):
        self.max_len = max_len
        self.ells = ells
        self.counter_modulus = counter_modulus

    def setup(self, seed, tr):
        family = SequenceTaskFamily(2)
        watcher_letters = list(family.external.letters())
        m = self.counter_modulus
        # thresholds inside the modulus, so the goal can fire
        counter = build_counter_task_cascade(m, m - 1, m - 1, m - 1)
        return SimpleNamespace(
            family=family,
            universe=_strings_over(watcher_letters, self.max_len),
            watcher_letters=watcher_letters,
            goal_letters=list(family.goal_class.signature.letters()),
            monoid_inputs=(("flip-flop scenario", True, build_flipflop_task_cascade().flatten()),
                           (f"counter scenario mod {m}", False, counter.flatten())),
        )

    def _growth(self, tr, functions, universe, ell):
        tr.count("complexity.empirical_growth_subsets",
                 math.comb(len(universe), min(ell, len(universe))))
        return tr.call("complexity.empirical_growth", empirical_growth, functions, universe,
                       ell, mode="exact")

    def round(self, ctx, tr, index, tally):
        fam = ctx.family
        start = time.perf_counter()
        members = tr.call("crafting.enumerate_members", list, fam)
        functions = [tr.wrap("cascade.run", m, "cascade.run_letters") for m in members]
        watchers = list(fam.watcher_class)
        goals = list(fam.goal_class)
        input_growths = [
            lambda n: self._growth(tr, watchers, ctx.watcher_letters, n).count,
            lambda n: self._growth(tr, goals, ctx.goal_letters, n).count,
        ]
        desc = fam.descriptor(self.max_len)
        growth = []
        for ell in self.ells:
            report = self._growth(tr, functions, ctx.universe, ell)
            bound = growth_bound_cascade(desc, ell, input_growths=input_growths,
                                         output_growths=[lambda n: 1, lambda n: 1])
            growth.append((report, bound))
        h_watch = tr.call("complexity.class_dimension", class_dimension, watchers,
                          ctx.watcher_letters, self.binary)
        h_goal = tr.call("complexity.class_dimension", class_dimension, goals,
                         ctx.goal_letters, self.binary)
        desc_dim = fam.descriptor(self.max_len, watcher_dim=h_watch.value,
                                  goal_dim=h_goal.value)
        capacity = max(c.capacity() for c in desc_dim.components)
        dim_bound = dimension_bound_cascade(desc_dim) if capacity >= 2 else None
        vc = tr.call("complexity.vc_dimension", vc_dimension, functions, ctx.universe)
        monoids = []
        for name, flipflop, flat in ctx.monoid_inputs:
            elements = tr.call("automata.transition_monoid", flat.core.transition_monoid)
            tr.count("automata.transition_monoid_size", len(elements))
            monoids.append((name, flipflop, flat.n_states, elements))
        certify_s = time.perf_counter() - start

        def check():
            oracles = [cascade_function(m) for m in members]
            for report, bound in growth:
                recount = len({tuple(f(x) for x in report.witness) for f in oracles})
                tally.record(f"growth at ell={report.sample_size}", checks.check_growth(
                    report.sample_size, report.count, bound, len(members), report.exact,
                    recount))
            tally.record("watcher class dimension",
                         checks.check_dimension(h_watch.value, None, h_watch.exact, "watcher"))
            tally.record("goal class dimension",
                         checks.check_dimension(h_goal.value, None, h_goal.exact, "goal"))
            tally.record("family vc dimension",
                         checks.check_dimension(vc.value, dim_bound, vc.exact, "vc dimension"))
            for name, flipflop, n_states, elements in monoids:
                verdict = checks.monoid_is_aperiodic(elements, n_states)
                tally.record(f"aperiodicity of {name}",
                             checks.check_aperiodicity(name, flipflop, verdict))

        tr.call("bench.check", check)
        return {"certify_s": certify_s}


WORKLOADS = {
    "counter-compile": CounterCompile,
    "trace-run": TraceRun,
    "erm-d3": ErmTrials,
    "certify-d2": Certify,
}


def side_stages(workload):
    """Small fixed instances of the other workloads' operations, timed
    alongside ``workload`` so that each run reports every end-to-end
    metric."""
    sides = (
        CounterCompile(modulus=4, thresholds=(3, 1, 2), n_traces=200),
        TraceRun(n_traces=300, modulus=4, thresholds=(3, 1, 2)),
        ErmTrials(d=2, n_mc=500),
        Certify(max_len=2, ells=(1, 2)),
    )
    return [side for side in sides if not set(side.home) & set(workload.home)]


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

#: seconds between two samples of the sampling process
SAMPLE_INTERVAL = 0.1
#: seconds the sampling process may take to stop once told to
SAMPLER_STOP_S = 30


def host_slowdown() -> float:
    """How much slower than REFERENCE_S the host runs the reference loop
    now (median of three)."""
    return sorted(reference_loop() for _ in range(3))[1] / REFERENCE_S


def _scaled(name: str, value: float, slowdown: float) -> float:
    """A measured time or rate scaled to the reference core speed."""
    return value * slowdown if name.endswith("_per_s") else value / slowdown


def _stop_sampler(process) -> list:
    """Close the sampler's input, wait until it has ended, and return its
    samples; a sampler that does not stop in time is killed."""
    try:
        out, _ = process.communicate(timeout=SAMPLER_STOP_S)
    except BaseException:
        process.kill()
        process.wait()
        raise
    lines = out.splitlines()
    return json.loads(lines[-1]) if process.returncode == 0 and lines else []


def timed(fn, *args, sample=False):
    """``fn(*args)``, its wall time, and the host slowdown over it: the
    mean of the probes just before and just after it and, with ``sample``,
    of the samples a separate process (``perf_sampler``) takes every
    SAMPLE_INTERVAL seconds while it runs.  Sampling pins both processes to
    one CPU, so the samples see the speed the measured code runs at; the
    measured code loses about 1% of that CPU to them, alike on every
    commit.  The sampling process has ended when this returns or raises."""
    affinity = os.sched_getaffinity(0)
    samples = []
    process = None
    try:
        if sample:
            cpu = min(affinity)
            os.sched_setaffinity(0, {cpu})
            process = subprocess.Popen(
                [sys.executable, SAMPLER, str(cpu), str(SAMPLE_INTERVAL)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            process.stdout.readline()
        samples.append(host_slowdown())
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        samples.append(host_slowdown())
    finally:
        if process is not None:
            samples += _stop_sampler(process)
        os.sched_setaffinity(0, affinity)
    return result, seconds, sum(samples) / len(samples)


def _round(workload, ctx, tr, index, tally):
    """One round; an exception fails it as one operation and yields None."""
    try:
        return workload.round(ctx, tr, index, tally)
    except Exception:
        tally.error(f"{type(workload).__name__} round {index}")
        return None


def _values(workload, rounds):
    done = [r for r in rounds if r is not None]
    if not done:
        raise RuntimeError(f"every round of {type(workload).__name__} failed")
    return {m: [r[m] for r in done] for m in workload.home}


def measure(workload, sides, seed, tally, seconds):
    """Untraced.  The workload is set up several times (see SETUP_REPEATS),
    each side stage once.  Then each iteration runs one round of the
    workload and one of every side stage, until ``seconds`` have passed (at
    least one iteration); side stages then run alone until each has
    SIDE_ROUNDS.  Returns the median set-up time and every metric's
    per-round values, scaled to the reference core speed (see
    ``Workload.long_rounds``), and the median slowdown."""

    def setups():
        times = []
        while len(times) < SETUP_REPEATS or (
                sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
            start = time.perf_counter()
            ctx = workload.setup(seed, NULL)
            times.append(time.perf_counter() - start)
        return ctx, median(times)

    (ctx, setup_s), _, slowdown = timed(setups)
    slowdowns = [slowdown]
    setup_s /= slowdown
    stages = [(workload, ctx, [])]
    for side in sides:
        stages.append((side, side.setup(seed, NULL), []))
    for stage, stage_ctx, _ in stages:
        stage.prepare(stage_ctx)

    def scaled_round(stage, stage_ctx, results):
        result, _, slowdown = timed(_round, stage, stage_ctx, NULL, len(results), tally,
                                    sample=stage is workload and workload.long_rounds)
        slowdowns.append(slowdown)
        results.append(None if result is None else
                       {name: _scaled(name, v, slowdown) for name, v in result.items()})

    start = time.perf_counter()
    while not stages[0][2] or time.perf_counter() - start < seconds:
        for stage, stage_ctx, results in stages:
            scaled_round(stage, stage_ctx, results)
    for stage, stage_ctx, results in stages[1:]:
        while len(results) < SIDE_ROUNDS:
            scaled_round(stage, stage_ctx, results)
    values = {}
    for stage, stage_ctx, results in stages:
        stage.finish(stage_ctx, tally)
        values.update(_values(stage, results))
    return setup_s, values, median(slowdowns)


def measure_traced(workload, seed, tally, seconds):
    """Traced: one traced set-up, then pairs of rounds on the same inputs,
    untraced then traced, until ``seconds`` have passed.  Returns the
    per-layer metrics, the tracing overhead and the round time no span
    covers (both medians per round), scaled like ``measure`` scales them,
    and the number of traced rounds."""
    tracer = Tracer()
    overhead, unspanned = [], []
    ctx, _, tracer.slowdown["setup"] = timed(workload.setup, seed, tracer)
    workload.prepare(ctx)
    sample = workload.long_rounds
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        _, plain, plain_slowdown = timed(_round, workload, ctx, NULL, index, tally,
                                         sample=sample)
        tracer.phase = f"round{index}"
        _, traced, slowdown = timed(_round, workload, ctx, tracer, index, tally, sample=sample)
        tracer.slowdown[tracer.phase] = slowdown
        overhead.append(traced / slowdown - plain / plain_slowdown)
        unspanned.append((traced - tracer.root_seconds(tracer.phase)) / slowdown)
        index += 1
    workload.finish(ctx, tally)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = median(overhead)
    metrics["trace.unspanned_s"] = median(unspanned)
    return metrics, {"traced_rounds": index}
