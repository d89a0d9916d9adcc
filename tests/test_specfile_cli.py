import gc
import hashlib
import json
import math
import re
import time
import tracemalloc
from decimal import Decimal

import pytest

from cascata import cli as cli_module
from cascata.alphabets import FactoredAlphabet, TableFunction
from cascata.automata import ComponentAutomaton, Semiautomaton
from cascata.cascade import Cascade, build_chained
from cascata.cli import main
from cascata.complexity import cardinality_bound_cascade, growth_bound_cascade
from cascata.crafting import (
    build_counter_task_cascade,
    build_flipflop_task_cascade,
    generate_traces,
    task_label,
    trace_words,
)
from cascata.errors import SpecFileError
from cascata.primes import make_counter, make_flipflop
from cascata.specfile import (
    cascade_from_spec,
    cascade_to_spec,
    descriptor_from_spec,
    learn_config_from_spec,
)

from helpers import family_error_counts, run_cli, start_cli


def roundtrip(cascade):
    return cascade_from_spec(json.loads(json.dumps(cascade_to_spec(cascade))))


def test_spec_round_trip_flipflop_scenario():
    original = build_flipflop_task_cascade()
    back = roundtrip(original)
    assert back.flatten().equivalent(original.flatten()).equivalent


def test_spec_round_trip_counter_scenario_behavior_spotcheck():
    original = build_counter_task_cascade()
    back = roundtrip(original)
    for trace in generate_traces(60, 10, seed=1):
        assert back.run(trace) == original.run(trace)


def test_spec_serialization_recognizes_prime_cores():
    spec = cascade_to_spec(build_counter_task_cascade())
    cores = [c["core"] for c in spec["components"]]
    assert cores == ["counter:16", "counter:16", "flipflop_wo", "counter:16",
                     "flipflop_wo"]


def test_spec_round_trip_one_state_inc_read_core():
    # {inc, read} over one state is no counter (a counter needs two states),
    # so it must serialize as an explicit table that parses back
    external = FactoredAlphabet.single("event", ("x", "y"))
    core = Semiautomaton(("inc", "read"), (0,), {(0, "inc"): 0, (0, "read"): 0}, 0)
    solo = ComponentAutomaton(external, (1,), lambda v: "inc" if v[0] == "x" else "read",
                              core, output_fn=lambda q, v: int(v[0] == "x"),
                              outputs=(0, 1), name="solo")
    original = Cascade([solo])
    assert cascade_to_spec(original)["components"][0]["core"]["kind"] == "table"
    back = roundtrip(original)
    assert back.flatten().equivalent(original.flatten()).equivalent


def test_spec_rejects_unknown_fields():
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["bogus"] = 1
    with pytest.raises(SpecFileError):
        cascade_from_spec(spec)
    spec.pop("bogus")
    spec["components"][0]["mystery"] = True
    with pytest.raises(SpecFileError):
        cascade_from_spec(spec)


def test_spec_rejects_bad_dependencies():
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["dependencies"] = [0]
    with pytest.raises(SpecFileError):
        cascade_from_spec(spec)
    spec["components"][0]["dependencies"] = [7]
    with pytest.raises(SpecFileError):
        cascade_from_spec(spec)


def _tabled_spec():
    """One flip-flop over {a, b} with an input table and an output table."""
    return {"alphabet": [{"name": "x", "values": ["a", "b"]}],
            "components": [{"name": "solo", "dependencies": [1], "core": "flipflop_wo",
                            "input_fn": {"kind": "table",
                                         "entries": [[["a"], "set"], [["b"], "read"]]},
                            "output_fn": {"kind": "table", "entries": [
                                [q, [x], 0] for q in (0, 1) for x in ("a", "b")]}}]}


def test_spec_tables_parse_to_their_entries():
    solo = cascade_from_spec(_tabled_spec()).components[0]
    assert [solo.input_fn((x,)) for x in ("a", "b")] == ["set", "read"]
    assert solo.theta(1, ("b",)) == 0 and solo.outputs == (0,)


def _last_component(name=None, output_fn=None, outputs=None):
    spec = _tabled_spec()
    solo = spec["components"][0]
    solo["name"] = name or solo["name"]
    solo["output_fn"] = output_fn or solo["output_fn"]
    if outputs is not None:
        solo["output_fn"]["outputs"] = outputs
    return spec


@pytest.mark.parametrize("spec, message", [
    (_last_component(name="x"), "duplicate coordinate names: ['x', 'x']"),
    (_last_component(name="x", output_fn="state"), "duplicate coordinate names: ['x', 'x']"),
    (_last_component(outputs=[0, 0]), "coordinate 'solo' has duplicate values"),
    (_last_component(outputs=[0, 1, True]), "coordinate 'solo' has duplicate values"),
])
def test_spec_checks_the_last_components_outputs_as_an_alphabet_would(spec, message):
    # nothing reads the last component's outputs, but they are checked alike
    with pytest.raises(SpecFileError) as err:
        cascade_from_spec(spec)
    assert str(err.value) == f"[components[0]] {message}"


def _paired_spec():
    """One flip-flop over two coordinates, x in {a, b} and y in {0, 1}, with
    an input table and an output table."""
    letters = [[x, y] for x in ("a", "b") for y in (0, 1)]
    return {"alphabet": [{"name": "x", "values": ["a", "b"]}, {"name": "y", "values": [0, 1]}],
            "components": [{"name": "pair", "dependencies": [1, 2], "core": "flipflop_wo",
                            "input_fn": {"kind": "table",
                                         "entries": [[v, "set" if v[1] else "read"]
                                                     for v in letters]},
                            "output_fn": {"kind": "table", "entries": [
                                [q, v, q] for q in (0, 1) for v in letters]}}]}


# (spec, function, rows inserted in turn as (position, row), the row the
# error names, its message); a position of None appends the row
_BAD_ROWS = [
    (_tabled_spec, "input_fn", [(None, [["a"], "set"])], 2,      # a second row for a letter
     "a second entry for [['a']]"),
    (_tabled_spec, "input_fn", [(None, [["a"], "read"])], 2,     # a conflicting one
     "a second entry for [['a']]"),
    (_tabled_spec, "input_fn", [(None, [["c"], "read"])], 2,     # a letter not in the signature
     "['c'] is not a projected letter"),
    (_tabled_spec, "input_fn", [(None, [["a", "b"], "read"])], 2,  # a letter of the wrong arity
     "['a', 'b'] is not a projected letter"),
    (_tabled_spec, "output_fn", [(None, [0, ["a"], 0])], 4,      # a second row for a state and letter
     "a second entry for [0, ['a']]"),
    (_tabled_spec, "output_fn", [(None, [0, ["a"], 1])], 4,      # a conflicting one
     "a second entry for [0, ['a']]"),
    (_tabled_spec, "output_fn", [(None, [1, ["c"], 0])], 4,      # a letter not in the signature
     "['c'] is not a projected letter"),
    (_tabled_spec, "output_fn", [(None, [2, ["a"], 0])], 4,      # a state that is not a core state
     "2 is not a core state"),
    (_tabled_spec, "input_fn", [(1, [["c"], "read"])], 1,        # a bad row in the middle
     "['c'] is not a projected letter"),
    (_tabled_spec, "output_fn", [(2, [0, ["b"], 0])], 2,         # a second row in the middle
     "a second entry for [0, ['b']]"),
    (_tabled_spec, "input_fn", [(1, [["a"], "set"]), (None, [["c"], "read"])], 1,  # two bad rows
     "a second entry for [['a']]"),
    (_tabled_spec, "output_fn", [(1, [1, ["c"], 0]), (3, [2, ["a"], 0])], 1,      # two bad rows
     "['c'] is not a projected letter"),
    (_tabled_spec, "output_fn", [(0, [2, ["c"], 0])], 0,         # a bad state and letter: the letter
     "['c'] is not a projected letter"),
    (_tabled_spec, "output_fn", [(3, [[0], ["a"], 0])], 3,       # an unhashable state: no row named
     "unhashable type: 'list'"),
    (_paired_spec, "input_fn", [(2, [["a", 2], "read"])], 2,     # two coordinates: a bad value
     "['a', 2] is not a projected letter"),
    (_paired_spec, "input_fn", [(1, [["b", 1], "set"])], 4,      # two coordinates: a second row
     "a second entry for [['b', 1]]"),
    (_paired_spec, "input_fn", [(0, [[1, "a"], "set"]), (2, [["a"], "set"])], 0,  # two bad rows
     "[1, 'a'] is not a projected letter"),
    (_paired_spec, "output_fn", [(5, [1, ["a", [0]], 0])], 5,    # an unhashable value
     "['a', [0]] is not a projected letter"),
    (_paired_spec, "output_fn", [(None, [1, ["b", 0], 1])], 8,
     "a second entry for [1, ['b', 0]]"),
]


@pytest.mark.parametrize("spec, fn, inserted, named, message", _BAD_ROWS,
                         ids=[f"{case[1]}-row{i}" for i, case in enumerate(_BAD_ROWS)])
def test_spec_rejects_malformed_table_rows_naming_the_row(spec, fn, inserted, named, message):
    spec = spec()
    entries = spec["components"][0][fn]["entries"]
    for at, row in inserted:
        entries.insert(len(entries) if at is None else at, row)
    with pytest.raises(SpecFileError) as err:
        cascade_from_spec(spec)
    where = f"components[0].{fn}.entries" + ("" if "unhashable" in message else f"[{named}]")
    assert err.value.field == where
    assert str(err.value) == f"[{where}] {message}"


def test_spec_rejects_tables_with_a_missing_entry():
    spec = _tabled_spec()
    spec["components"][0]["output_fn"]["entries"].pop(2)
    with pytest.raises(SpecFileError, match=r"no entry for state 1 and letter \['a'\]"):
        cascade_from_spec(spec)
    spec = _tabled_spec()
    spec["components"][0]["input_fn"]["entries"].pop(0)
    with pytest.raises(SpecFileError, match=r"no entry for \['a'\]"):
        cascade_from_spec(spec)


@pytest.mark.parametrize("build", [build_flipflop_task_cascade, build_counter_task_cascade])
def test_spec_round_trip_is_byte_identical(build):
    text = json.dumps(cascade_to_spec(build()))
    again = json.dumps(cascade_to_spec(cascade_from_spec(json.loads(text))))
    # digests, so that a failure is not reported as a diff of two 8 MB texts
    assert _sha256(again) == _sha256(text)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_parsed_counter_spec_retains_under_five_megabytes():
    text = json.dumps(cascade_to_spec(build_counter_task_cascade()))
    gc.collect()
    tracemalloc.start()
    try:
        cascade = cascade_from_spec(json.loads(text))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cascade.depth == 5 and retained < 5_000_000


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------


@pytest.fixture
def flipflop_spec(tmp_path):
    path = tmp_path / "flipflop.json"
    path.write_text(json.dumps(cascade_to_spec(build_flipflop_task_cascade())))
    return str(path)


def test_cli_run(flipflop_spec, tmp_path, capsys):
    traces = tmp_path / "t.traces"
    traces.write_text("steel factory\nwood iron factory\n\nwood iron fire factory\n")
    assert main(["run", flipflop_spec, str(traces)]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines() == ["1", "0", "1"]
    assert "line 3" in out.err


def test_cli_flatten_and_minimize(flipflop_spec, tmp_path, capsys):
    out = tmp_path / "auto.json"
    assert main(["flatten", flipflop_spec, "--no-prune", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["states"]) == 32
    assert main(["flatten", flipflop_spec, "--out", str(out)]) == 0
    reachable = len(json.loads(out.read_text())["states"])
    assert reachable < 32
    assert main(["minimize", flipflop_spec, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["states"]) <= reachable
    err = capsys.readouterr().err
    assert "states:" in err


def test_cli_flatten_dot_and_text(flipflop_spec, capsys):
    assert main(["flatten", flipflop_spec, "--format", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out
    assert main(["flatten", flipflop_spec, "--no-prune", "--format", "text"]) == 0
    assert "states: 32" in capsys.readouterr().out


def test_cli_minimize_takes_no_no_prune_flag(flipflop_spec, capsys):
    # minimize starts from the reachable states, so the flag could change nothing
    with pytest.raises(SystemExit) as err:
        main(["minimize", flipflop_spec, "--no-prune"])
    assert err.value.code == 2
    assert "--no-prune" in capsys.readouterr().err


def test_cli_equiv_self_and_counterexample(flipflop_spec, tmp_path, capsys):
    assert main(["equiv", flipflop_spec, flipflop_spec]) == 0
    assert "equivalent" in capsys.readouterr().out
    code = main(["equiv", flipflop_spec, _corrupted_flipflop_spec(tmp_path)])
    assert code == 4
    assert "counterexample" in capsys.readouterr().out


def test_cli_aperiodic(flipflop_spec, capsys):
    assert main(["aperiodic", flipflop_spec]) == 0
    out = capsys.readouterr().out
    assert out.startswith("aperiodic")
    assert "monoid size" in out


def test_cli_aperiodic_builds_the_monoid_once(flipflop_spec, monkeypatch, capsys):
    calls = []
    build = Semiautomaton.transition_monoid

    def counted(self, *args, **kwargs):
        calls.append(self)
        return build(self, *args, **kwargs)

    monkeypatch.setattr(Semiautomaton, "transition_monoid", counted)
    assert main(["aperiodic", flipflop_spec]) == 0
    assert capsys.readouterr().out == "aperiodic; monoid size: 77\n"
    assert len(calls) == 1


def test_cli_aperiodic_on_the_modulus_2_counter_is_not_aperiodic(tmp_path, capsys):
    spec = tmp_path / "counter2.json"
    spec.write_text(json.dumps(cascade_to_spec(build_counter_task_cascade(2, 1, 1, 1))))
    assert main(["aperiodic", str(spec)]) == 0
    assert capsys.readouterr().out == "not aperiodic; monoid size: 1536\n"


def test_cli_aperiodic_cap_bounds_memory_on_the_counter_scenario(tmp_path):
    spec = tmp_path / "counter.json"
    spec.write_text(json.dumps(cascade_to_spec(build_counter_task_cascade())))
    done = run_cli(["aperiodic", spec], timeout=120, memory_bytes=1536 * 2**20)
    # 16,384 flattened states: the default cap admits six elements
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr and "transition monoid" in done.stderr


@pytest.mark.parametrize("command", ["scenario", "bounds"])
def test_cli_stdout_closed_after_the_first_line_is_no_traceback(tmp_path, command):
    # both outputs exceed a pipe's buffer, so the writer is still writing
    # when the pipe closes
    if command == "scenario":
        args = ["scenario", "counter"]  # about 8 MB of JSON
    else:
        family = tmp_path / "d5.json"
        family.write_text(json.dumps({"family": "sequence_tasks", "d": 5}))
        args = ["bounds", family, "--ell", *range(1, 2501)]  # about 90 kB
    child = start_cli(args)
    assert child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=120) == 0, stderr
    assert "Traceback" not in stderr and "Broken pipe" not in stderr, stderr


def _one_component_spec(tmp_path, values):
    spec = cascade_to_spec(build_chained(
        FactoredAlphabet.single("event", values),
        [dict(name="k", dependencies=(1,), core=make_flipflop(), input_fn=lambda x: "set")]))
    path = tmp_path / f"spec{len(values)}.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("values, max_len, exhaustive", [
    (("a", "b"), 8, 2 + 4 + 8 + 16 + 32 + 64 + 128),  # 510 with length 8
    (("a",), 800, 500),
])
def test_cli_check_counts_its_exhaustive_budget_in_total(tmp_path, capsys, values, max_len,
                                                         exhaustive):
    spec = _one_component_spec(tmp_path, values)
    # one sample asked for: the exhaustive strings alone exceed it, so none is drawn
    assert main(["check", spec, "--max-len", str(max_len), "--samples", "1"]) == 0
    assert capsys.readouterr().out == \
        f"compositional function agrees with the cascade on {exhaustive} strings\n"


def test_cli_check_oracle_agreement(flipflop_spec, capsys):
    assert main(["check", flipflop_spec, "--samples", "80", "--max-len", "5"]) == 0
    assert "agrees" in capsys.readouterr().out


def test_cli_missing_input_files_exit_2(flipflop_spec, tmp_path, capsys):
    missing = str(tmp_path / "missing.traces")
    assert main(["run", flipflop_spec, missing]) == 2
    assert "missing.traces" in capsys.readouterr().err
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    classspec = tmp_path / "class.json"
    classspec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    traces = tmp_path / "x.traces"
    traces.write_text("e1 e2\n")
    labels = tmp_path / "x.labels"
    labels.write_text("1\n")
    for pair in ((missing, str(labels)), (str(traces), str(tmp_path / "missing.labels"))):
        assert main(["learn", str(config), str(classspec),
                     "--traces", pair[0], "--labels", pair[1]]) == 2
        assert "missing" in capsys.readouterr().err
    # the same traces and labels, all present, are accepted
    assert main(["learn", str(config), str(classspec),
                 "--traces", str(traces), "--labels", str(labels)]) == 0


def test_cli_cap_exit_code(flipflop_spec):
    assert main(["flatten", flipflop_spec, "--cap", "4"]) == 3


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cli_cap_below_one_exit_2(flipflop_spec, capsys, monkeypatch, cap):
    _rejected(["flatten", flipflop_spec, "--cap", cap], capsys, "--cap")
    for value in (cap, "many"):
        monkeypatch.setenv("CASCATA_CAP", value)
        _rejected(["flatten", flipflop_spec], capsys, "CASCATA_CAP")
    monkeypatch.setenv("CASCATA_CAP", "4")
    assert main(["flatten", flipflop_spec]) == 3


def test_cli_check_stays_within_max_len(flipflop_spec, capsys, monkeypatch):
    import cascata.functional

    lengths = set()
    build = cascata.functional.cascade_function

    def recording(cascade):
        tree = build(cascade)
        return lambda s: lengths.add(len(s)) or tree(s)

    monkeypatch.setattr(cascata.functional, "cascade_function", recording)
    # the flip-flop scenario has 6 letters: 6 + 36 + 216 strings up to length 3
    assert main(["check", flipflop_spec, "--max-len", "3"]) == 0
    assert capsys.readouterr().out == \
        "compositional function agrees with the cascade on 258 strings\n"
    assert lengths == {1, 2, 3}
    lengths.clear()
    assert main(["check", flipflop_spec, "--max-len", "5", "--samples", "300"]) == 0
    assert lengths == {1, 2, 3, 4, 5}
    _rejected(["check", flipflop_spec, "--max-len", "0"], capsys, "--max-len")


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_check_rejects_a_sample_count_below_one(flipflop_spec, capsys, samples):
    _rejected(["check", flipflop_spec, "--samples", samples], capsys, "--samples")


def _corrupted_flipflop_spec(tmp_path) -> str:
    """The flip-flop scenario, but steel alone no longer enables the factory."""
    spec = cascade_to_spec(build_flipflop_task_cascade())
    goal = spec["components"][-1]
    goal["input_fn"]["entries"] = [
        [vals, "read" if (vals[0] == "factory" and vals[4] == 1 and vals[1] == 0) else out]
        for vals, out in goal["input_fn"]["entries"]
    ]
    return _write(tmp_path, "other.json", spec)


@pytest.mark.parametrize("argv, code, line", [
    (["equiv", "{spec}", "{spec}"], 0, "equivalent"),
    (["equiv", "{spec}", "{other}"], 4, "not equivalent; counterexample: "),
    (["aperiodic", "{spec}"], 0, "aperiodic; monoid size: 77"),
    (["check", "{spec}", "--max-len", "3"], 0,
     "compositional function agrees with the cascade on 258 strings"),
])
def test_cli_result_lines_go_to_the_out_file(flipflop_spec, tmp_path, capsys, argv, code, line):
    files = {"spec": flipflop_spec, "other": _corrupted_flipflop_spec(tmp_path)}
    out = tmp_path / "result.txt"
    assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith(line) and out.read_text().count("\n") == 1


def test_cli_check_mismatch_line_goes_to_the_out_file(flipflop_spec, tmp_path, capsys,
                                                      monkeypatch):
    import cascata.functional

    monkeypatch.setattr(cascata.functional, "cascade_function", lambda cascade: lambda s: None)
    out = tmp_path / "result.txt"
    assert main(["check", flipflop_spec, "--out", str(out)]) == 4
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("mismatch on: ")


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["flatten", str(bad)]) == 2
    missing_field = tmp_path / "missing.json"
    missing_field.write_text(json.dumps({"alphabet": []}))
    assert main(["flatten", str(missing_field)]) == 2


def _cli_rejects_spec(tmp_path, capsys, spec, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["flatten", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"[{field}]" in err and "Traceback" not in err


def test_cli_alphabet_values_not_a_list_exit_2(tmp_path, capsys):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["alphabet"][0]["values"] = 5
    _cli_rejects_spec(tmp_path, capsys, spec, "alphabet[0].values")


def test_cli_core_kind_not_a_string_exit_2(tmp_path, capsys):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["core"] = {"kind": 7}
    _cli_rejects_spec(tmp_path, capsys, spec, "components[0].core.kind")


def test_cli_bool_dependency_exit_2(tmp_path, capsys):
    # a bool is never taken for a number, so true is not coordinate 1
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["dependencies"] = [True]
    _cli_rejects_spec(tmp_path, capsys, spec, "components[0].dependencies")


def test_cli_spec_nested_too_deeply_exit_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["flatten", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: nested too deeply" in err and "Traceback" not in err, err


@pytest.mark.parametrize("initial", [True, False, 1.0, "1"])
def test_cli_prime_core_initial_must_be_a_state_number(tmp_path, capsys, initial):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["core"] = {"kind": "flipflop_wo", "initial": initial}
    _cli_rejects_spec(tmp_path, capsys, spec, "components[0].core")
    spec["components"][0]["core"] = {"kind": "counter:3", "initial": initial}
    spec["components"][0]["input_fn"] = {"kind": "mono_dnf", "terms": [["event=wood"]],
                                         "on_true": "inc", "on_false": "read"}
    path, traces = tmp_path / "counter.json", tmp_path / "t.traces"
    path.write_text(json.dumps(spec))
    traces.write_text("wood\n")
    assert main(["run", str(path), str(traces)]) == 2
    err = capsys.readouterr().err
    assert "[components[0].core]" in err and repr(initial) in err


@pytest.mark.parametrize("modulus", [1_000_001, 1_000_000_000])
def test_cli_counter_core_above_the_product_cap_fails_fast(tmp_path, modulus):
    # a valid spec but for the modulus; run does not flatten, so only the
    # parse-time bound stops the core from being built
    spec = cascade_to_spec(build_chained(
        FactoredAlphabet.single("event", ("tick", "idle")),
        [dict(name="k", dependencies=(1,), core=make_counter(3),
              input_fn=lambda x: "inc" if x == ("tick",) else "read")]))
    spec["components"][0]["core"] = f"counter:{modulus}"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    traces = tmp_path / "big.traces"
    traces.write_text("tick tick idle\n")
    start = time.perf_counter()
    done = run_cli(["run", path, traces], timeout=60, memory_bytes=1536 * 2**20)
    assert time.perf_counter() - start < 10
    assert done.returncode == 2, done.stderr
    assert "[components[0].core.kind]" in done.stderr and "Traceback" not in done.stderr


def test_cli_equiv_of_a_large_counter_with_itself_is_quick(tmp_path):
    # 'state' output gives each side 10^5 outputs; the search meets 10^5
    # output pairs, one per layer, and must not compare all 10^10
    spec = cascade_to_spec(build_chained(
        FactoredAlphabet.single("event", ("tick", "idle")),
        [dict(name="k", dependencies=(1,), core=make_counter(3),
              input_fn=lambda x: "inc" if x == ("tick",) else "read")]))
    spec["components"][0]["core"] = "counter:100000"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    done = run_cli(["equiv", path, path], timeout=60, memory_bytes=1536 * 2**20)
    assert time.perf_counter() - start < 20
    assert done.returncode == 0, done.stderr
    assert done.stdout == "equivalent\n"


def test_cli_flatten_caps_the_external_alphabet(tmp_path):
    # two product states, but 10^7 letters: flatten stops before listing them
    external = FactoredAlphabet.of(*((f"c{i}", tuple(f"v{j}" for j in range(10)))
                                     for i in range(7)))
    spec = cascade_to_spec(build_chained(external, [dict(
        name="k", dependencies=(1,), core=make_flipflop(with_reset=False),
        input_fn=lambda x: "set" if x == ("v0",) else "read")]))
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    done = run_cli(["flatten", path], timeout=60, memory_bytes=1536 * 2**20)
    assert done.returncode == 3, done.stderr
    assert "cascade alphabet exceeds cap: 10000000 > 1000000" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_flatten_caps_states_times_letters(tmp_path):
    # 1,000 states and 10^6 letters each pass their own cap, but their
    # product is a table of 10^9 entries
    external = FactoredAlphabet.of(*((f"c{i}", tuple(f"v{j}" for j in range(10)))
                                     for i in range(6)))
    spec = cascade_to_spec(build_chained(external, [dict(
        name="k", dependencies=(1,), core=make_counter(3),
        input_fn=lambda x: "inc" if x == ("v0",) else "read")]))
    spec["components"][0]["core"] = "counter:1000"
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(spec))
    done = run_cli(["flatten", path], timeout=60, memory_bytes=1536 * 2**20)
    assert done.returncode == 3, done.stderr
    assert "cascade table entries exceeds cap: 1000000000 > 8388608" in done.stderr
    assert "Traceback" not in done.stderr


def test_cli_one_element_table_entry_exit_2(tmp_path, capsys):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["input_fn"]["entries"][0] = [["wood"]]
    _cli_rejects_spec(tmp_path, capsys, spec, "components[0].input_fn.entries[0]")


def _table_core(**fields):
    core = {"kind": "table", "letters": ["set", "read"], "states": [0, 1],
            "initial": 0, "transitions": [[0, "set", 1]]}
    return dict(core, **fields)


_WRITE_ONCE_ROWS = [[0, "set", 1], [0, "read", 0], [1, "set", 1], [1, "read", 1]]


@pytest.mark.parametrize("row", [[0, "read", 1], [1, "set", 0], [2, "set", 0],
                                 [0, "reset", 0]])
def test_cli_table_core_takes_one_row_per_state_and_letter(tmp_path, capsys, row):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["core"] = _table_core(transitions=_WRITE_ONCE_ROWS)
    path = tmp_path / "good.json"
    path.write_text(json.dumps(spec))
    assert main(["flatten", str(path)]) == 0
    capsys.readouterr()
    spec["components"][0]["core"]["transitions"] = _WRITE_ONCE_ROWS + [row]
    _cli_rejects_spec(tmp_path, capsys, spec, "components[0].core.transitions[4]")


@pytest.mark.parametrize("field, component", [
    ("components[0].name", {"name": ["wood"]}),
    ("components[0].input_fn.entries", {"input_fn": {"kind": "table", "entries": "rows"}}),
    ("components[0].input_fn.entries[1]",
     {"input_fn": {"kind": "table", "entries": [[["wood"], "set"], ["wood", "read"]]}}),
    ("components[0].input_fn.terms", {"input_fn": {"kind": "mono_dnf", "terms": 1}}),
    ("components[0].input_fn.terms[0]", {"input_fn": {"kind": "mono_dnf", "terms": ["x"]}}),
    ("components[0].input_fn.thresholds", {"input_fn": {"kind": "threshold", "thresholds": [1]}}),
    ("components[0].core.transitions[0]", {"core": _table_core(transitions=[[0, "set"]])}),
    ("components[0].core.letters", {"core": _table_core(letters="set")}),
    ("components[0].core", {"core": _table_core(states=[[0], [1]])}),
    ("components[0].output_fn.entries[0]",
     {"output_fn": {"kind": "table", "entries": [[0, "wood"]]}}),
    ("components[0].output_fn.entries",
     {"output_fn": {"kind": "table", "entries": [[[0], ["wood"], 1]]}}),
    ("components[0].output_fn.outputs",
     {"output_fn": {"kind": "table", "entries": [], "outputs": 2}}),
])
def test_cli_mistyped_spec_fields_exit_2(tmp_path, capsys, field, component):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0].update(component)
    _cli_rejects_spec(tmp_path, capsys, spec, field)


@pytest.mark.parametrize("field, value", [("name", 3), ("values", [["wood"], "iron"])])
def test_cli_mistyped_alphabet_fields_exit_2(tmp_path, capsys, field, value):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["alphabet"][0][field] = value
    _cli_rejects_spec(tmp_path, capsys, spec, f"alphabet[0].{field}")


def test_cli_bounds_family(tmp_path, capsys):
    desc = tmp_path / "family.json"
    desc.write_text(json.dumps({"family": "sequence_tasks", "d": 5, "max_len": 8}))
    assert main(["bounds", str(desc), "--baseline-letters", "6",
                 "--baseline-states", "32"]) == 0
    out = capsys.readouterr().out
    assert "cardinality_bound" in out
    assert "sample_size_finite" in out
    assert "log2_input_class[5]" in out
    assert "all_acceptors_baseline" in out


def _bounds_rows(capsys) -> dict:
    """The ``bounds`` text table read back as quantity -> value."""
    return dict(line.split()[:2] for line in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("d", [3, 5])
def test_cli_bounds_family_sample_sizes(tmp_path, capsys, d):
    desc = tmp_path / "family.json"
    desc.write_text(json.dumps({"family": "sequence_tasks", "d": d}))
    assert main(["bounds", str(desc)]) == 0
    assert _bounds_rows(capsys)["sample_size_finite"] == {3: "646", 5: "1425"}[d]


@pytest.mark.parametrize("d", [31, 40])
def test_cli_bounds_family_past_the_float_range(tmp_path, capsys, d):
    # |F| is about 10^517 at d = 40 and the ell = 3 growth bound 10^335:
    # both are read as exact ints, never as floats
    desc = tmp_path / "family.json"
    desc.write_text(json.dumps({"family": "sequence_tasks", "d": d}))
    assert main(["bounds", str(desc)]) == 0
    rows = _bounds_rows(capsys)
    names = ["cardinality_bound", "cardinality_enumerated",
             *(f"log2_input_class[{i}]" for i in range(1, d + 1)), "sample_size_finite",
             "growth_bound(ell=1)", "growth_bound(ell=2)", "growth_bound(ell=3)",
             "dimension_bound", "sample_size_dimension"]
    assert list(rows) == names
    descriptor, fam = descriptor_from_spec({"family": "sequence_tasks", "d": d})
    eps2 = 2 * 0.1**2
    ln_card = math.log(fam.cardinality)
    assert int(rows["sample_size_finite"]) == math.ceil((ln_card + math.log(20)) / eps2)
    for ell in (1, 2, 3):
        exact = growth_bound_cascade(descriptor, ell)
        assert abs(Decimal(rows[f"growth_bound(ell={ell})"]) - exact) <= exact * Decimal("1e-5")
    assert rows["growth_bound(ell=3)"] == ("2.45458e+256" if d == 31 else "1.98784e+335")


@pytest.mark.parametrize("d", [100, 130, 300])
def test_cli_bounds_family_past_the_int_string_limit(tmp_path, capsys, d):
    # |F| has about 5,200 digits at d = 130, more than str() converts: such
    # an int is rounded as the growth bounds are, and a shorter one is exact
    desc = tmp_path / "family.json"
    desc.write_text(json.dumps({"family": "sequence_tasks", "d": d}))
    assert main(["bounds", str(desc)]) == 0
    rows = _bounds_rows(capsys)
    descriptor, fam = descriptor_from_spec({"family": "sequence_tasks", "d": d})
    for name, exact in (("cardinality_bound", cardinality_bound_cascade(descriptor)),
                        ("cardinality_enumerated", fam.cardinality)):
        if d == 100:
            assert rows[name] == str(exact)
        else:
            assert re.fullmatch(r"\d\.\d{5}e\+\d+", rows[name])
            assert abs(Decimal(rows[name]) - exact) <= exact * Decimal("1e-5")
    if d == 130:
        assert (rows["cardinality_bound"], rows["cardinality_enumerated"]) == (
            "4.00207e+5421", "8.04517e+5203")


def test_cli_bounds_at_a_huge_ell_is_the_cardinality(tmp_path, capsys):
    # the finite-class growth is min(|F|, |Y| ** points): past log2 |F|
    # points it is |F|, and |Y| ** 10^9 is never computed
    desc = tmp_path / "family.json"
    desc.write_text(json.dumps({"family": "sequence_tasks", "d": 3}))
    start = time.perf_counter()
    assert main(["bounds", str(desc), "--ell", "1000000000"]) == 0
    assert time.perf_counter() - start < 5
    rows = _bounds_rows(capsys)
    assert rows["growth_bound(ell=1000000000)"] == rows["cardinality_bound"] == "40576"


def test_cli_bounds_csv_components(tmp_path, capsys):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({
        "components": [{"arity": 2, "degree": 1, "n_input_fns": 4, "n_cores": 1,
                        "n_output_fns": 1, "internal_size": 2, "output_size": 2,
                        "input_dim": 2.0}],
        "max_len": 4,
    }))
    assert main(["bounds", str(desc), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "quantity,value,note"
    assert any(line.startswith("dimension_bound,") for line in lines)


def _component_descriptor(**fields) -> dict:
    return {"components": [{"arity": 1, "degree": 1, "n_input_fns": 8, "n_cores": 1,
                            "n_output_fns": 1, "internal_size": 2, "output_size": 2,
                            **fields}], "max_len": 4}


@pytest.mark.parametrize("key", ["input_dim", "output_dim"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1, -0.5])
def test_cli_bounds_rejects_a_non_finite_or_negative_dimension(tmp_path, capsys, key, value):
    path = _write(tmp_path, "desc.json", _component_descriptor(**{key: value}))
    _rejected(["bounds", path], capsys, f"components[0].{key}")


@pytest.mark.parametrize("fields, epsilon, reason", [
    ({"input_dim": 1e306}, 0.1, "dimension bound is not finite"),
    ({"input_dim": 1e308, "output_dim": 1e308}, 0.1, "dimension bound is not finite"),
    ({"input_dim": 1e303}, 0.001, "dimension sample size is not finite"),
])
def test_cli_bounds_prints_one_dimension_row_when_a_bound_overflows(
        tmp_path, capsys, fields, epsilon, reason):
    descriptor = {**_component_descriptor(**fields), "epsilon": epsilon}
    assert main(["bounds", _write(tmp_path, "desc.json", descriptor)]) == 0
    captured = capsys.readouterr()
    rows = [line.split(None, 1) for line in captured.out.splitlines()]
    assert [rest for q, rest in rows if q.startswith(("dimension", "sample_size_dim"))] == [
        f"n/a  [{reason}]"]
    assert captured.err == ""


def test_cli_bounds_takes_dimensions_of_zero(tmp_path, capsys):
    path = _write(tmp_path, "desc.json", _component_descriptor(input_dim=0, output_dim=0.0))
    assert main(["bounds", path]) == 0
    assert _bounds_rows(capsys)["dimension_bound"] == "n/a"


def test_cli_growth_family(tmp_path, capsys):
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    assert main(["growth", str(spec), "--ell", "1", "2", "--max-len", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ell  patterns  bound  verdict", "1  2  16  ok", "2  4  36  ok"]


@pytest.mark.parametrize("args, lines", [
    (["--ell", "1", "2", "3"], ["1  2  24  ok", "2  4  36  ok", "3  8  36  ok"]),
    (["--ell", "2", "--mode", "heuristic"], ["2  4 (lower bound)  36  ok"]),
])
def test_cli_growth_family_on_the_certified_universe(tmp_path, capsys, args, lines):
    # the d=2 family on its 14 strings of 1..3 letters, as certify-d2 reads it
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    assert main(["growth", str(spec), "--max-len", "3", *args]) == 0
    assert capsys.readouterr().out.splitlines() == ["ell  patterns  bound  verdict", *lines]


@pytest.mark.parametrize("args, read", [
    (["--max-len", "3", "--ell", "1", "2", "3"], [2, 4, 14]),
    (["--max-len", "3", "--ell", "2", "--mode", "heuristic"], [2, 4]),
    # 2,046 strings: the exact search at ell = 3 would score 1.4e9 subsets,
    # so it draws its samples, and the members are read only at them
    (["--max-len", "10", "--ell", "3"], [2, 4]),
])
def test_cli_growth_reads_each_class_once_unless_its_searches_draw(tmp_path, capsys,
                                                                    monkeypatch, args, read):
    # the input classes' letters (2 watcher, 4 goal letters), then the
    # members' strings, each read once for every ell
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    reads, class_outputs = [], cli_module.class_outputs
    monkeypatch.setattr(cli_module, "class_outputs",
                        lambda functions, points: reads.append(len(points))
                        or class_outputs(functions, points))
    assert main(["growth", str(spec), *args]) == 0
    assert reads == read
    rows = capsys.readouterr().out.splitlines()[1:]
    assert rows and all(row.endswith("  ok") for row in rows)


@pytest.mark.parametrize("mode", ["exact", "heuristic"])
def test_cli_growth_on_more_letters_than_the_universe_holds(tmp_path, capsys, mode):
    # 70 x 70 = 4,900 letters: not even the strings of length 1 fit in the
    # 4,000-string universe, so there is nothing to search
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps({
        "alphabet": [{"name": "a", "values": list(range(70))},
                     {"name": "b", "values": list(range(70))}],
        "components": [{"name": "k", "dependencies": [1, 2], "core": "flipflop_wo",
                        "input_class": {"kind": "threshold", "on_true": "set",
                                        "on_false": "read"}}]}))
    assert main(["growth", str(spec), "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 4900 letters: even the strings of length 1 exceed "
                            "the growth universe of 4000 strings\n")


def test_cli_growth_heuristic_draws_count_against_the_cap(tmp_path, capsys):
    # 200 restarts of 10^8 draws each: refused before any is drawn
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    start = time.perf_counter()
    assert main(["growth", str(spec), "--mode", "heuristic", "--ell", "100000000"]) == 3
    assert time.perf_counter() - start < 5
    assert "heuristic growth draws exceeds cap: 20000000000 > 200000" in capsys.readouterr().err
    assert main(["growth", str(spec), "--mode", "heuristic", "--ell", "3",
                 "--cap", "599"]) == 3
    assert main(["growth", str(spec), "--mode", "heuristic", "--ell", "3",
                 "--cap", "600"]) == 0


def test_cli_learn_with_target(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 3, "epsilon": 0.1, "eta": 0.1,
                                  "max_len": 5, "n": 120, "n_mc": 400,
                                  "min_risk": 0.0}))
    classspec = tmp_path / "class.json"
    classspec.write_text(json.dumps({"family": "sequence_tasks", "d": 2}))
    from cascata.crafting import SequenceTaskFamily

    target = tmp_path / "target.json"
    target.write_text(json.dumps(cascade_to_spec(SequenceTaskFamily(2).sequence_target())))
    winner = tmp_path / "winner.json"
    assert main(["learn", str(config), str(classspec), "--target", str(target),
                 "--out", str(winner)]) == 0
    out = capsys.readouterr().out
    assert "empirical risk: 0.0" in out
    assert "risk gap vs class minimum" in out
    learned = cascade_from_spec(json.loads(winner.read_text()))
    assert learned.depth == 2


def test_cli_learn_at_depth_four_picks_the_full_vector_argmin(tmp_path, capsys):
    # |F| = 2.5e7 members, but the kernel computes 347,032 error counts,
    # within the default cap
    from cascata.crafting import SequenceTaskFamily
    from cascata.learner import StringDistribution, draw_sample

    family = SequenceTaskFamily(4)
    config = _write(tmp_path, "config.json", {"seed": 5, "max_len": 6, "n": 400, "n_mc": 300})
    classspec = _write(tmp_path, "class.json", {"family": "sequence_tasks", "d": 4})
    target = _write(tmp_path, "target.json", cascade_to_spec(family.sequence_target()))
    argv = ["learn", config, classspec, "--target", target]
    assert main(argv + ["--cap", "347031"]) == 3
    assert "ERM error counts exceeds cap: 347032 > 347031" in capsys.readouterr().err
    assert main(argv) == 0
    out = capsys.readouterr().out
    dist = StringDistribution(tuple(family.external.letters()), 6)
    spec = json.loads((tmp_path / "target.json").read_text())
    sample = draw_sample(dist, cascade_from_spec(spec), 400, seed=5)
    counts = family_error_counts(family, sample.strings, sample.labels)
    assert f"chosen member: {int(counts.argmin())}\n" in out
    assert f"({int((counts == counts.min()).sum())} tied)" in out


def test_cli_learn_at_depth_five_exceeds_the_default_cap_before_building_tables(
        tmp_path, capsys, monkeypatch):
    from cascata.crafting import SequenceTaskFamily

    def unbuilt(self):
        raise AssertionError("the cap check built a kernel table")

    for table in ("_combinations", "_contains_words", "_goal_terms"):
        monkeypatch.setattr(SequenceTaskFamily, table, property(unbuilt))
    config = _write(tmp_path, "config.json", {"seed": 5, "max_len": 6, "n": 400, "n_mc": 300})
    classspec = _write(tmp_path, "class.json", {"family": "sequence_tasks", "d": 5})
    target = _write(tmp_path, "target.json",
                    cascade_to_spec(SequenceTaskFamily(5).sequence_target()))
    assert main(["learn", config, classspec, "--target", target]) == 3
    assert "ERM error counts exceeds cap: 23552970 > 500000" in capsys.readouterr().err


def test_cli_learn_cap_counts_kernel_work_or_members(tmp_path, capsys):
    config = _write(tmp_path, "config.json", {"seed": 1, "n": 50, "n_mc": 50})
    traces = _write(tmp_path, "x.traces", "e1 e2 e3\ne3\n")
    labels = _write(tmp_path, "x.labels", "1\n0\n")
    # d=3 has 20,288 members; its kernel computes 4,755 error counts
    d3 = _write(tmp_path, "d3.json", {"family": "sequence_tasks", "d": 3})
    assert main(["learn", config, d3, "--traces", traces, "--labels", labels,
                 "--cap", "4755"]) == 0
    assert main(["learn", config, d3, "--traces", traces, "--labels", labels,
                 "--cap", "4754"]) == 3
    assert "ERM error counts exceeds cap: 4755 > 4754" in capsys.readouterr().err
    # a class spec has no kernel: the cap counts its 68 members
    argv = _learn_files(tmp_path)
    assert main(argv + ["--cap", "68"]) == 0
    assert main(argv + ["--cap", "67"]) == 3
    assert "class enumeration exceeds cap: 68 > 67" in capsys.readouterr().err


def test_cli_learn_from_trace_files(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}))
    classspec = tmp_path / "class.json"
    classspec.write_text(json.dumps({
        "alphabet": [{"name": "event", "values": ["blank", "steel", "factory"]}],
        "components": [
            {"name": "steel", "dependencies": [1], "core": "flipflop_wo",
             "input_class": {"kind": "mono_dnf", "max_terms": 1,
                             "on_true": "set", "on_false": "read"},
             "output_fn": "state"},
            {"name": "goal", "dependencies": [1, 2], "core": "flipflop_wo",
             "input_class": {"kind": "mono_dnf", "max_terms": 1,
                             "on_true": "set", "on_false": "read"},
             "output_fn": "next_state"},
        ],
    }))
    weights = {"blank": 0.4, "steel": 0.3, "factory": 0.3,
               "wood": 0.0, "iron": 0.0, "fire": 0.0}
    traces = generate_traces(150, 8, seed=2, weights=weights)
    trace_path = tmp_path / "x.traces"
    trace_path.write_text("\n".join(" ".join(trace_words(t)) for t in traces))
    labels_path = tmp_path / "x.labels"
    labels_path.write_text("\n".join(str(task_label(t)) for t in traces))
    assert main(["learn", str(config), str(classspec),
                 "--traces", str(trace_path), "--labels", str(labels_path)]) == 0
    out = capsys.readouterr().out
    assert "chosen member" in out
    assert "empirical risk: 0.0" in out  # the rule task is realizable here


def test_cli_scenario_artifacts(tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert main(["scenario", "counter", "--out", str(out)]) == 0
    assert cascade_from_spec(json.loads(out.read_text())).product_size() == 16384
    base = tmp_path / "run1"
    assert main(["scenario", "traces", "--n", "40", "--max-len", "6",
                 "--seed", "5", "--out", str(base)]) == 0
    lines = (tmp_path / "run1.traces").read_text().splitlines()
    labels = (tmp_path / "run1.labels").read_text().splitlines()
    assert len(lines) == len(labels) == 40
    assert set(labels) <= {"0", "1"}


# ---------------------------------------------------------------------------
# Class specs, descriptors, configs and label files.
# ---------------------------------------------------------------------------


def _family_d2_class_spec():
    """The d=2 sequence-task family spelled out as a class spec."""
    dnf = {"kind": "mono_dnf", "on_true": "set", "on_false": "read"}
    return {
        "alphabet": [{"name": "event", "values": ["e1", "e2"]}],
        "components": [
            {"name": "task1", "dependencies": [1], "core": "flipflop_wo",
             "input_class": dict(dnf, max_terms=1), "output_fn": "state"},
            {"name": "goal", "dependencies": [1, 2], "core": "flipflop_wo",
             "input_class": dict(dnf, max_terms=2), "output_fn": "next_state"},
        ],
    }


def test_class_spec_of_the_d2_family_matches_the_family():
    from cascata.crafting import SequenceTaskFamily
    from cascata.specfile import class_from_spec

    family = SequenceTaskFamily(2)
    spelled = class_from_spec(_family_d2_class_spec())
    assert spelled.cardinality == family.cardinality == 68
    assert [cascade_to_spec(m) for m in spelled] == [cascade_to_spec(m) for m in family]
    assert [cascade_to_spec(spelled.member(i)) for i in range(68)] == \
        [cascade_to_spec(family.member(i)) for i in range(68)]
    assert spelled.descriptor(3) == family.descriptor(3)
    assert spelled.descriptor(5, 0.2, 0.05, [1.0, 2.5]) == \
        family.descriptor(5, 0.2, 0.05, watcher_dim=1.0, goal_dim=2.5)


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return str(path)


def _rejected(argv, capsys, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"[{field}]" in err and "Traceback" not in err, err


def _learn_files(tmp_path, config=None, classspec=None):
    traces = _write(tmp_path, "x.traces", "e1 e2\ne2\n")
    labels = _write(tmp_path, "x.labels", "1\n0\n")
    return ["learn", _write(tmp_path, "config.json", config or {"seed": 1}),
            _write(tmp_path, "class.json", classspec or _family_d2_class_spec()),
            "--traces", traces, "--labels", labels]


@pytest.mark.parametrize("field, change", [
    ("components[0].input_class", {"input_class": {"kind": "table"}}),
    ("components[0].dependencies", {"dependencies": 5}),
    ("components[0].name", {"name": ["task1"]}),
    ("components[0].core.kind", {"core": {"kind": 7}}),
    ("components[0].core.kind", {"core": "steel"}),
    ("components[0].input_class", {"input_class": {"kind": "mono_dnf", "bogus": 1}}),
    ("components[0]", {"outputs": [0, 1]}),
    ("components[0].input_class", {"input_class": {"kind": "table", "outputs": ["on", "off"]}}),
])
def test_cli_mistyped_class_spec_fields_exit_2(tmp_path, capsys, field, change):
    spec = _family_d2_class_spec()
    spec["components"][0].update(change)
    _rejected(_learn_files(tmp_path, classspec=spec), capsys, field)


@pytest.mark.parametrize("field, change", [("d", {"d": [1]}), ("letters", {"letters": 5})])
def test_cli_mistyped_family_fields_exit_2(tmp_path, capsys, field, change):
    spec = dict({"family": "sequence_tasks", "d": 2}, **change)
    _rejected(_learn_files(tmp_path, classspec=spec), capsys, field)


def test_cli_class_spec_accepts_an_output_table(tmp_path, capsys):
    spec = _family_d2_class_spec()
    # the watcher outputs its state under other names
    spec["components"][0]["output_fn"] = {
        "kind": "table", "outputs": ["off", "on"],
        "entries": [[q, [e], ["off", "on"][q]] for q in (0, 1) for e in ("e1", "e2")]}
    spec["components"][1]["input_class"]["max_terms"] = 1
    assert main(_learn_files(tmp_path, classspec=spec)) == 0
    assert "class size: 64" in capsys.readouterr().out


@pytest.mark.parametrize("field, value", [
    ("n_mc", "5"), ("epsilon", "0.1"), ("max_len", "8"), ("letter_weights", 5),
    ("seed", [1]), ("n", 0), ("n", -3), ("n_mc", 0), ("letter_weights[0]", [-1, 2]),
    ("letter_weights", [0, 0]), ("letter_weights", [0.0]),
])
def test_cli_mistyped_learn_config_exit_2(tmp_path, capsys, field, value):
    key = field.split("[")[0]
    _rejected(_learn_files(tmp_path, config={key: value}), capsys, field)


@pytest.mark.parametrize("min_risk", [-3, -0.01, 1.5, math.inf, math.nan])
def test_cli_learn_rejects_a_min_risk_outside_the_unit_interval(tmp_path, capsys, min_risk):
    from cascata.crafting import SequenceTaskFamily

    argv = _learn_files(tmp_path, config={"min_risk": min_risk})
    target = cascade_to_spec(SequenceTaskFamily(2).sequence_target())
    argv = argv[:3] + ["--target", _write(tmp_path, "target.json", target)]
    _rejected(argv, capsys, "min_risk")


@pytest.mark.parametrize("min_risk", [0, 0.25, 1])
def test_learn_config_takes_a_min_risk_in_the_unit_interval(min_risk):
    assert learn_config_from_spec({"min_risk": min_risk})["min_risk"] == min_risk


@pytest.mark.parametrize("mode", ["target", "traces"])
def test_cli_learn_rejects_letter_weights_for_another_alphabet(tmp_path, capsys, mode):
    from cascata.crafting import SequenceTaskFamily

    argv = _learn_files(tmp_path, config={"letter_weights": [1, 2, 3]})
    if mode == "target":
        target = cascade_to_spec(SequenceTaskFamily(2).sequence_target())
        argv = argv[:3] + ["--target", _write(tmp_path, "target.json", target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "[letter_weights]" in err and "3 weights for 2 letters" in err, err


@pytest.mark.parametrize("argv, flag", [
    (["growth", "family.json", "--max-len", "0"], "--max-len"),
    (["scenario", "traces", "--n", "0"], "--n"),
    (["scenario", "traces", "--n", "-2"], "--n"),
    (["scenario", "traces", "--max-len", "0"], "--max-len"),
    (["growth", "family.json", "--ell", "1", "0"], "--ell"),
    (["growth", "family.json", "--ell", "-1"], "--ell"),
    (["bounds", "family.json", "--ell", "-2"], "--ell"),
    (["scenario", "family", "--d", "0"], "--d"),
    (["scenario", "family", "--d", "1"], "--d"),
    (["bounds", "family.json", "--baseline-letters", "0", "--baseline-states", "4"],
     "--baseline-letters"),
    (["bounds", "family.json", "--baseline-letters", "2", "--baseline-states", "-3"],
     "--baseline-states"),
    (["bounds", "family.json", "--baseline-letters", "6"], "--baseline-letters"),
    (["bounds", "family.json", "--baseline-states", "32"], "--baseline-states"),
])
def test_cli_count_flags_below_one_exit_2(tmp_path, capsys, argv, flag):
    _write(tmp_path, "family.json", {"family": "sequence_tasks", "d": 2})
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    _rejected(argv + ["--out", str(tmp_path / "run")], capsys, flag)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["family.json"]


@pytest.mark.parametrize("field, descriptor", [
    ("descriptor", {"max_len": 4}),
    ("components[0]", {"components": [5]}),
    ("components[0].arity", {"components": [{
        "arity": "2", "degree": 1, "n_input_fns": 4, "n_cores": 1, "n_output_fns": 1,
        "internal_size": 2, "output_size": 2}]}),
    ("max_len", {"family": "sequence_tasks", "d": 2, "max_len": "8"}),
])
def test_cli_mistyped_descriptor_exit_2(tmp_path, capsys, field, descriptor):
    _rejected(["bounds", _write(tmp_path, "desc.json", descriptor)], capsys, field)


def test_cli_learn_skips_blank_trace_and_label_lines(tmp_path, capsys):
    argv = _learn_files(tmp_path)
    assert main(argv) == 0
    plain = capsys.readouterr()
    _write(tmp_path, "x.traces", "\ne1 e2\n  \ne2\n")
    _write(tmp_path, "x.labels", "1\n\n0\n\n")
    assert main(argv) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("d", [7, 9, 12, 16])
def test_cli_learn_cap_check_builds_no_kernel_table(tmp_path, d):
    # the check counts the kernel's work: the tables it counts would take
    # 3.6 GiB at d = 7 and far more past it.  It reads the watcher truth
    # table, 65,536 watchers by 16 events at d = 16, from the terms' masks
    argv = ["learn", _write(tmp_path, "config.json", {}),
            _write(tmp_path, "family.json", {"family": "sequence_tasks", "d": d}),
            "--traces", _write(tmp_path, "x.traces", ""),
            "--labels", _write(tmp_path, "x.labels", "")]
    done = run_cli(argv, timeout=30, memory_bytes=1536 * 2**20)
    assert done.returncode == 3, done.stderr
    assert "ERM error counts exceeds cap" in done.stderr


@pytest.mark.parametrize("traces, labels", [("", ""), ("\n  \n", "\n")])
def test_cli_learn_rejects_a_sample_with_no_traces(tmp_path, capsys, traces, labels):
    argv = _learn_files(tmp_path)
    _write(tmp_path, "x.traces", traces)
    _write(tmp_path, "x.labels", labels)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "x.traces: no traces" in err and "Traceback" not in err, err


def test_cli_run_malformed_trace_names_file_and_line(flipflop_spec, tmp_path, capsys):
    traces = _write(tmp_path, "t.traces", "steel factory\n\nwood zinc\n")
    assert main(["run", flipflop_spec, traces]) == 2
    err = capsys.readouterr().err
    assert "t.traces: line 3" in err and "'zinc'" in err


def _int_and_str_spec(path) -> str:
    """A one-flip-flop cascade spec over a coordinate ``x`` listing both
    ``1`` and ``"1"``: the letter ``(1,)`` sets the flip-flop, ``("1",)``
    and ``(2,)`` read it, and the output is the next state."""
    external = FactoredAlphabet.single("x", (1, "1", 2))
    comp = ComponentAutomaton(external, (1,), TableFunction(external, ("set", "read", "read")),
                              make_flipflop(with_reset=False), output_fn="next_state", name="k")
    path.write_text(json.dumps(cascade_to_spec(Cascade([comp]))))
    return str(path)


AMBIGUOUS_TOKEN = "line 2: value '1' is ambiguous in coordinate 'x': it names each of 1, '1'"


def test_cli_run_rejects_a_token_that_names_two_values(tmp_path, capsys):
    spec = _int_and_str_spec(tmp_path / "spec.json")
    assert main(["run", spec, _write(tmp_path, "t.traces", "2\n")]) == 0
    assert capsys.readouterr().out.splitlines() == ["0"]
    assert main(["run", spec, _write(tmp_path, "t.traces", "2\n2 1\n")]) == 2
    err = capsys.readouterr().err
    assert f"t.traces: {AMBIGUOUS_TOKEN}" in err and "Traceback" not in err, err


def test_cli_learn_rejects_a_trace_token_that_names_two_values(tmp_path, capsys):
    classspec = {
        "alphabet": [{"name": "x", "values": [1, "1", 2]}],
        "components": [{"name": "k", "dependencies": [1], "core": "flipflop_wo",
                        "input_class": {"kind": "table", "outputs": ["set", "read"]},
                        "output_fn": "next_state"}],
    }
    argv = _learn_files(tmp_path, classspec=classspec)
    _write(tmp_path, "x.traces", "2\n2\n")
    assert main(argv) == 0
    capsys.readouterr()
    _write(tmp_path, "x.traces", "2\n1 2\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"x.traces: {AMBIGUOUS_TOKEN}" in err and "Traceback" not in err, err


@pytest.mark.parametrize("classspec", [None, {"family": "sequence_tasks", "d": 2}])
@pytest.mark.parametrize("label", ["2", "-1"])
def test_cli_learn_rejects_a_label_the_class_cannot_output(tmp_path, capsys, classspec,
                                                           label):
    argv = _learn_files(tmp_path, classspec=classspec)
    _write(tmp_path, "x.labels", f"1\n\n{label}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"x.labels: line 3: label {label!r} is not an output of the class" in err, err
    assert "Traceback" not in err


def test_cli_malformed_trace_or_label_names_file_and_line(tmp_path, capsys):
    argv = _learn_files(tmp_path)
    _write(tmp_path, "x.labels", "1\n\nyes\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "x.labels: line 3" in err and "'yes'" in err
    _write(tmp_path, "x.traces", "e1\n\ne3 e2\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "x.traces: line 3" in err and "'e3'" in err


@pytest.mark.parametrize("argv", [
    ["run", "spec.json", "t.traces"],
    ["check", "spec.json"],
    ["bounds", "family.json"],
    ["scenario", "flipflop"],
], ids=lambda argv: argv[0])
def test_cli_cap_is_rejected_where_it_bounds_no_work(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--cap", "5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --cap 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["flatten", "s"], ["minimize", "s"], ["equiv", "s", "t"], ["aperiodic", "s"],
    ["growth", "c"], ["learn", "config", "c"],
], ids=lambda argv: argv[0])
def test_cli_cap_is_taken_where_it_bounds_work(argv):
    from cascata.cli import build_parser

    assert build_parser().parse_args([*argv, "--cap", "5"]).cap == 5


def test_cli_flipflop_scenario_output_is_pinned(capsys):
    # sha256 of ``cascata scenario flipflop`` before both scenario builders
    # shared one goal rule
    import hashlib

    assert main(["scenario", "flipflop"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "fcd3019d39d50431032899298c3e30b932b661dfc916ce3e038b698641b4059d"


def test_cli_dot_escapes_quotes_and_backslashes_in_labels(tmp_path, capsys):
    import re

    states, letters = ['o"n', "of\\f"], ['a\\b', 'q"', "plain"]
    spec = {"alphabet": [{"name": "x", "values": letters}],
            "components": [{"name": "quoted", "dependencies": [1],
                            "input_fn": {"kind": "table", "entries": [
                                [[x], "set" if x == "plain" else "read"] for x in letters]},
                            "core": {"kind": "table", "letters": ["set", "read"],
                                     "states": states, "initial": states[1],
                                     "transitions": [[q, a, states[0] if a == "set" else q]
                                                     for q in states for a in ("set", "read")]}}]}
    path = tmp_path / "q.json"
    path.write_text(json.dumps(spec))
    flat = cascade_from_spec(spec).flatten()
    assert main(["flatten", str(path), "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    quoted = r'"((?:[^"\\]|\\.)*)"'  # a DOT string: no bare quote, backslashes paired
    labels = []
    for line in lines[3:-1]:
        match = re.fullmatch(rf'  (?:q\d+ \[shape=\w+, |q\d+ -> q\d+ \[)label={quoted}\];',
                             line) or re.fullmatch(r"  __start -> q\d+;", line)
        assert match, line
        if match.groups():
            labels.append(re.sub(r"\\(.)", r"\1", match[1]))
    assert labels[:flat.n_states] == [str(q) for q in flat.states]
    assert labels[flat.n_states:] == [
        f"{a} / {flat.outputs[o]}" for row in flat.out_array.tolist()
        for a, o in zip(flat.alphabet, row)]
    assert any('"' in label for label in labels) and any("\\" in label for label in labels)
