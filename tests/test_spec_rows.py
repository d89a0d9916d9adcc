"""The spec parser's bulk check of table rows against the row-by-row loop.

``specfile._rows`` checks a whole table on its distinct types and lengths
and walks it row by row only when that check fails.  The reference below
is the loop alone, as ``_rows`` was before: both must accept the same
tables and name the same first bad row with the same message.
"""

import random
from collections import OrderedDict

import pytest

from cascata.crafting import build_flipflop_task_cascade
from cascata.errors import SpecFileError
from cascata.specfile import _rows, cascade_from_spec, cascade_to_spec

FIELDS = [("values", "output"), ("state", "values", "output"),
          ("state", "letter", "next_state")]


def reference_rows(data, fields, where):
    size = len(fields)
    at = fields.index("values") if "values" in fields else None
    if not isinstance(data, list):
        raise SpecFileError(f"expected list, got {type(data).__name__}", where)
    for k, row in enumerate(data):
        if (not isinstance(row, list) or len(row) != size
                or at is not None and not isinstance(row[at], list)
                or fields[-1] == "output" and isinstance(row[-1], (list, dict))):
            raise SpecFileError(f"expected [{', '.join(fields)}], got {row!r}",
                                f"{where}[{k}]")
    return data


class Row(list):
    pass


def _good_row(rng, fields):
    row = []
    for field in fields:
        if field == "values":
            row.append([rng.choice(["a", "b", 0, 1, True]) for _ in range(rng.randint(0, 3))])
        else:
            row.append(rng.choice(["a", 0, 1.5, None, True, "set"]))
    return Row(row) if rng.random() < 0.05 else row


def _bad_rows(fields):
    """Rows the loop rejects for these fields, one per kind of fault."""
    good = ["a" if f != "values" else ["a"] for f in fields]
    bad = [good[:-1], good + [0], [], tuple(good), "row", None, 3, {"state": 0},
           OrderedDict(enumerate(good))]
    if "values" in fields:
        at = fields.index("values")
        bad += [good[:at] + [value] + good[at + 1:] for value in ("a", ("a",), 1, None, {"a": 1})]
    if fields[-1] == "output":
        bad += [good[:-1] + [value] for value in ([1], {"a": 1}, OrderedDict(), Row())]
    return bad


def _outcome(check, table, fields):
    try:
        return "ok", check(table, fields, "t.entries") is table
    except SpecFileError as e:
        return e.field, str(e)


@pytest.mark.parametrize("fields", FIELDS)
def test_rows_names_the_same_first_bad_row_as_the_loop(fields):
    rng = random.Random(len(fields) * 7 + len(fields[0]))
    cases = 0
    for bad in _bad_rows(fields):
        for n in (0, 1, 5, 40):
            for where in {0, n // 2, n}:  # first, middle, last
                table = [_good_row(rng, fields) for _ in range(n)]
                table.insert(where, bad)
                if rng.random() < 0.3:  # a second bad row after the first
                    table.insert(rng.randint(where + 1, len(table)), rng.choice(_bad_rows(fields)))
                want = _outcome(reference_rows, table, fields)
                assert want[0] == f"t.entries[{where}]"
                assert _outcome(_rows, table, fields) == want, (bad, n, where)
                cases += 1
    assert cases >= 80


@pytest.mark.parametrize("fields", FIELDS)
def test_rows_accepts_what_the_loop_accepts(fields):
    rng = random.Random(99)
    for n in (0, 1, 3, 50):
        table = [_good_row(rng, fields) for _ in range(n)]
        assert _outcome(_rows, table, fields) == _outcome(reference_rows, table, fields) == (
            "ok", True)
    for data in ("rows", None, {"a": 1}, (1, 2)):
        assert _outcome(_rows, data, fields) == _outcome(reference_rows, data, fields)


@pytest.mark.parametrize("value", ["nope", 2, None, [1], {"a": 1}])
def test_an_input_value_that_is_no_core_letter_is_named(value):
    # unhashable values included: no core letter can equal one
    spec = cascade_to_spec(build_flipflop_task_cascade())
    spec["components"][0]["input_fn"] = {"kind": "mono_dnf", "terms": [["event=wood"]],
                                         "on_true": "set", "on_false": value}
    with pytest.raises(SpecFileError) as info:
        cascade_from_spec(spec)
    assert str(info.value) == (f"[components[0].input_fn] {value!r} "
                               "is not a letter of the core")


@pytest.mark.parametrize("strays", [("nope", "other"), ("other", "nope"), (2, None)])
def test_the_first_stray_value_of_a_table_input_fn_is_named(strays):
    spec = cascade_to_spec(build_flipflop_task_cascade())
    comp = build_flipflop_task_cascade().components[0]
    entries = [[list(x), comp.input_fn(x)] for x in comp.projected.letters()]
    entries[1][1], entries[3][1], entries[4][1] = strays[0], strays[1], strays[0]
    spec["components"][0]["input_fn"] = {"kind": "table", "entries": entries}
    with pytest.raises(SpecFileError) as info:
        cascade_from_spec(spec)
    assert str(info.value) == (f"[components[0].input_fn] {strays[0]!r} "
                               "is not a letter of the core")
