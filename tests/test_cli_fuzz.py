"""Mutated input files never crash the CLI: on a mutation of a valid
cascade spec (with table or monotone-DNF input functions), class spec,
family, learning config, bound descriptor, trace or label file (or of both
the trace and the label file, either of which may end up empty), ``main``
exits with a documented code (0 ok, 2 parse error, 3 cap exceeded,
4 verification failure) and prints no traceback."""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from cascata.cli import main
from cascata.crafting import build_flipflop_task_cascade
from cascata.specfile import cascade_to_spec, class_from_spec

FLIPFLOP = cascade_to_spec(build_flipflop_task_cascade())
CLASS_SPEC = {
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
}
TARGET = cascade_to_spec(class_from_spec(CLASS_SPEC).member(21))
FAMILY = {"family": "sequence_tasks", "d": 2, "letters": ["steel", "factory"],
          "max_len": 4, "epsilon": 0.1, "eta": 0.1}
CONFIG = {"seed": 1, "epsilon": 0.1, "eta": 0.1, "max_len": 4, "n": 20, "n_mc": 40,
          "min_risk": 0.0, "letter_weights": [0.4, 0.3, 0.3]}
DESCRIPTOR = {"components": [{"arity": 1, "degree": 1, "n_input_fns": 8, "n_cores": 1,
                              "n_output_fns": 1, "internal_size": 2, "output_size": 2,
                              "input_dim": 2.0}], "max_len": 4, "epsilon": 0.1}
TRACES = "steel factory\nblank steel\nfactory\n"
LABELS = "1\n0\n0\n"

#: replacement values: every JSON type, and words the files use
VALUES = [None, True, False, 0, 1, 2, -1, 7, 1.5, "", "x", "set", "steel", "state",
          "table", "mono_dnf", "threshold", "counter:3", [], [1], ["x"], [[]], [[1], 2],
          {}, {"kind": "table"}]
TOKENS = ["", "x", "1", "0", "-1", "yes", "steel", "factory", "blank,1", ",", "wood"]


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _value(data):
    return copy.deepcopy(data.draw(st.sampled_from(VALUES)))


def _mutate_json(data, doc):
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return _value(data)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[path[-1]] = _value(data)
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[data.draw(st.sampled_from(["kind", "outputs", "extra"]))] = \
                _value(data)
        else:
            parent.append(_value(data))
    return doc


def _mutate_text(data, text):
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete", "empty"]))
        if op == "empty":  # no line left, or blank ones only
            return "\n" * data.draw(st.integers(0, 2))
        if op == "insert" or i == len(lines):
            lines.insert(i, " ".join(data.draw(st.lists(st.sampled_from(TOKENS),
                                                        max_size=3))))
        elif op == "delete":
            del lines[i]
        else:
            words = lines[i].split() or [""]
            words[data.draw(st.integers(0, len(words) - 1))] = \
                data.draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


#: which file is mutated, and the command run on it; "sample" mutates both
#: the trace and the label file
SCENARIOS = ["spec", "target", "class", "family", "config", "descriptor", "traces",
             "labels", "sample"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cli_survives_mutated_input_files(data):
    which = data.draw(st.sampled_from(SCENARIOS))
    files = {"spec": FLIPFLOP, "class": CLASS_SPEC, "family": FAMILY, "config": CONFIG,
             "descriptor": DESCRIPTOR, "target": TARGET, "traces": TRACES,
             "labels": LABELS}
    for name in ("traces", "labels") if which == "sample" else (which,):
        mutate = _mutate_text if name in ("traces", "labels") else _mutate_json
        files[name] = mutate(data, files[name])
    with tempfile.TemporaryDirectory() as tmp:
        path = {}
        for name, content in files.items():
            path[name] = os.path.join(tmp, name)
            with open(path[name], "w") as f:
                f.write(content if isinstance(content, str) else json.dumps(content))
        learn = ["learn", path["config"], path["class"],
                 "--traces", path["traces"], "--labels", path["labels"]]
        argv = {
            "spec": ["run", path["spec"], path["traces"]],
            "class": learn,
            "family": ["bounds", path["family"]],
            "target": ["learn", path["config"], path["class"], "--target", path["target"]],
            "config": ["learn", path["config"], path["class"], "--target", path["target"]],
            "descriptor": ["bounds", path["descriptor"], "--ell", "1", "2"],
            "traces": learn,
            "labels": learn,
            "sample": learn,
        }[which]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
