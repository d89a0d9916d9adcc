"""Self-tests for the benchmark's checks: each must accept cascata's real
answer on a small instance and reject a deliberately wrong one, so that no
check passes vacuously.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import perf_checks as checks
import perf_workloads as workloads
from perf_trace import Tracer

from cascata.crafting import (
    SequenceTaskFamily,
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    counting_oracle,
    generate_traces,
)
from cascata.learner import StringDistribution, draw_sample


def _compiled_counter(modulus=3, thresholds=(2, 1, 2)):
    cascade = build_counter_task_cascade(modulus, *thresholds)
    flat = cascade.flatten()
    minimized = flat.minimize()
    data = json.loads(json.dumps(minimized.to_dict()))
    return cascade, flat, minimized, data


def test_compile_check_rejects_minimized_count_off_by_one():
    cascade, flat, minimized, data = _compiled_counter()
    args = (3, cascade.product_size(), flat.n_states)
    assert checks.check_compile(*args, minimized.n_states, data, True) == []
    assert checks.check_compile(*args, minimized.n_states + 1, data, True)
    assert checks.check_compile(*args, minimized.n_states - 1, data, True)
    assert checks.check_compile(*args, minimized.n_states, data, False)


def test_compile_check_rejects_unminimized_tables():
    cascade, flat, _, _ = _compiled_counter()
    data = json.loads(json.dumps(flat.to_dict()))
    # the flat automaton's own count matches its tables, but not its behaviours
    assert checks.check_compile(3, cascade.product_size(), flat.n_states,
                                flat.n_states, data, True)


def test_table_walk_matches_counting_oracle_and_sees_a_flipped_output():
    _, _, minimized, data = _compiled_counter()
    delta, out, letter_index = checks.tables(data)
    traces = generate_traces(200, 2, seed=5)
    for trace in traces:
        got = checks.table_output(delta, out, letter_index, data["initial"], trace)
        assert got == int(counting_oracle(trace, 2, 1, 2)[-1]) == minimized.run(trace)
    q = data["initial"]
    factory = letter_index["factory"]
    out[q, factory] ^= 1
    flipped = (("factory",),)
    assert checks.table_output(delta, out, letter_index, q, flipped) != minimized.run(flipped)


def test_counts_below_modulus():
    trace = tuple((w,) for w in ["wood"] * 3 + ["iron"])
    assert checks.counts_below(trace, 4)
    assert not checks.counts_below(trace, 3)


def _labelled_sample(n=300, seed=3):
    fam = SequenceTaskFamily(3)
    dist = StringDistribution(tuple(fam.external.letters()), max_len=8)
    return draw_sample(dist, fam.sequence_target(), n, seed=seed).entries


def test_label_check_rejects_one_flipped_label():
    entries = _labelled_sample()
    assert checks.check_labels(entries) == []
    flipped = list(entries)
    s, y = flipped[7]
    flipped[7] = (s, 1 - y)
    assert checks.check_labels(flipped)


def test_winner_check_rejects_one_wrong_output_or_nonzero_risk():
    entries = _labelled_sample()
    outputs = [y for _, y in entries]
    assert checks.check_winner(0.0, outputs, entries) == []
    outputs[0] = 1 - outputs[0]
    assert checks.check_winner(0.0, outputs, entries)
    assert checks.check_winner(1 / len(entries), [y for _, y in entries], entries)


def test_risk_check_rejects_a_miscount():
    pool = [s for s, _ in _labelled_sample()]
    outputs = [checks.sequence_rule(s) for s in pool]
    outputs[3] = 1 - outputs[3]
    assert checks.check_risk(1 / len(pool), outputs, pool) == []
    assert checks.check_risk(0.0, outputs, pool)


def test_success_rate_needs_nine_tenths_within_epsilon():
    assert checks.check_success_rate([0.0] * 9 + [0.2], 0.1) == []
    assert checks.check_success_rate([0.0] * 8 + [0.1, 0.3], 0.1) == []
    assert checks.check_success_rate([0.0] * 8 + [0.2, 0.3], 0.1)


def test_growth_check_rejects_count_above_bound():
    assert checks.check_growth(2, 4, 4.0, 68, True, 4) == []
    assert checks.check_growth(2, 4, 3.5, 68, True, 4)
    assert checks.check_growth(2, 5, 100.0, 68, True, 5)      # above 2^ell
    assert checks.check_growth(3, 8, 100.0, 6, True, 8)       # above |F|
    assert checks.check_growth(2, 4, 4.0, 68, False, 4)       # heuristic fallback
    assert checks.check_growth(2, 4, 4.0, 68, True, 3)        # recount differs


def test_dimension_check_rejects_value_above_bound_or_capped_search():
    assert checks.check_dimension(2, 3.0, True, "vc") == []
    assert checks.check_dimension(4, 3.0, True, "vc")
    assert checks.check_dimension(2, None, False, "vc")


def test_aperiodicity_check_rejects_non_aperiodic_flipflop_verdict():
    flat = build_flipflop_task_cascade().flatten()
    verdict = checks.monoid_is_aperiodic(flat.core.transition_monoid(), flat.n_states)
    assert verdict
    assert checks.check_aperiodicity("flip-flop", True, verdict) == []
    assert checks.check_aperiodicity("flip-flop", True, False)
    assert checks.check_aperiodicity("counter", False, True)


def test_monoid_aperiodicity_sees_a_permutation():
    swap = (1, 0, 2)
    assert not checks.monoid_is_aperiodic([(0, 1, 2), swap], 3)
    assert checks.monoid_is_aperiodic([(0, 1, 2), (0, 0, 2)], 3)
    counter = build_counter_task_cascade(2, 1, 1, 1).flatten()
    assert not checks.monoid_is_aperiodic(counter.core.transition_monoid(), counter.n_states)


def test_tracer_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.phase = "round0"
    run = tracer.wrap("inner", len, "letters")
    tracer.call("outer", lambda: [run("abc") for _ in range(3)])
    spans = {name: (start, end) for name, start, end, _, _ in tracer.spans}
    assert tracer.spans[0][3] == -1 and all(s[3] == 0 for s in tracer.spans[1:])
    metrics = tracer.layer_metrics()
    inner = sum(end - start for name, start, end, _, _ in tracer.spans if name == "inner")
    outer = spans["outer"][1] - spans["outer"][0]
    assert abs(metrics["outer_s"] - (outer - inner)) < 1e-9
    assert metrics["letters"] == 9
    assert abs(tracer.root_seconds("round0") - outer) < 1e-12


def test_scaling_divides_times_and_multiplies_rates_by_the_slowdown():
    assert workloads._scaled("compile_s", 3.0, 1.5) == 2.0
    assert workloads._scaled("run_letters_per_s", 100.0, 1.5) == 150.0
    assert workloads.host_slowdown() > 0
