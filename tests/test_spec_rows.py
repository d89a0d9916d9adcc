"""The spec parser's table readers against the numpy and row-by-row code
they replaced.

``specfile._rows`` checks a whole table on its distinct types and lengths
and walks it row by row only when that check fails.  ``reference_rows`` is
the loop alone, as ``_rows`` was before: both must accept the same tables
and name the same first bad row with the same message.

``specfile._table_values`` reads a table written in slot order by position
and walks any other table row by row.  ``reference_table_values`` sums each
row's slot from numpy code columns and finds a second row for a slot with
``np.minimum.at``, as ``_table_values`` did before: on seeded random tables,
in order, shuffled and with faults inserted, both must give the same values
or the same error, naming the same field.
"""

import itertools
import json
import operator
import random
from collections import OrderedDict

import numpy as np
import pytest

from cascata.alphabets import FactoredAlphabet
from cascata.automata import Semiautomaton
from cascata.crafting import build_counter_task_cascade, build_flipflop_task_cascade
from cascata.errors import CascataError, SpecFileError
from cascata.specfile import _rows, _table_values, cascade_from_spec, cascade_to_spec

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


_MISSING = object()


def _codes(index, key, items):
    """``index.get(key(item), -1)`` per item, and -1 for an unhashable key."""
    codes = []
    for item in items:
        try:
            codes.append(index.get(key(item), -1))
        except TypeError:
            codes.append(-1)
    return np.array(codes, dtype=np.int64)


def _reject_row(row, k, signature, where, core):
    try:
        q = core.state_index.get(row[0], -1) if core else 0
        signature.index(tuple(row[-2]))
    except TypeError as e:  # an unhashable state
        raise SpecFileError(str(e), where)
    except CascataError:
        raise SpecFileError(f"{row[-2]!r} is not a projected letter", f"{where}[{k}]")
    raise SpecFileError(f"{row[0]!r} is not a core state" if q < 0 else
                        f"a second entry for {row[:-1]!r}", f"{where}[{k}]")


def reference_table_values(rows, signature, where, core=None):
    n, arity = signature.n_letters, signature.arity
    size = n * (core.n_states if core else 1)
    letters = [row[-2] for row in rows]
    bad = np.fromiter(map(len, letters), np.int64, len(rows)) != arity
    letters = [(_MISSING,) * arity if wrong else x for x, wrong in zip(letters, bad)]
    slot = np.zeros(len(rows), dtype=np.int64)
    columns = [(place, operator.itemgetter(i), letters)
               for i, place in enumerate(signature.places)]
    if core:
        columns.append(({q: i * n for i, q in enumerate(core.states)},
                        operator.itemgetter(0), rows))
    for column in columns:
        codes = _codes(*column)
        bad |= codes < 0
        slot += codes
    ok = np.flatnonzero(~bad)
    first = np.full(size, len(rows))  # per slot, the first good row that fills it
    np.minimum.at(first, slot[ok], ok)
    bad[ok[first[slot[ok]] != ok]] = True  # a second row for a filled slot
    if bad.any():
        k = int(bad.argmax())
        _reject_row(rows[k], k, signature, where, core)
    if len(rows) < size:
        q, i = divmod(int((first == len(rows)).argmax()), n)
        x = list(next(itertools.islice(signature.letters(), i, None)))
        state = f"state {core.states[q]!r} and letter " if core else ""
        raise SpecFileError(f"no entry for {state}{x!r}", where)
    return [rows[k][-1] for k in first.tolist()]


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


VALUES = ["a", "b", "set", 0, 1, 2.5, None]
OUTPUTS = ["set", "read", 0, 1, None]


def _random_table(rng, with_core):
    """A random signature, core (or None) and their total table in slot
    order."""
    signature = FactoredAlphabet.of(*((f"c{i}", rng.sample(VALUES, rng.randint(1, 3)))
                                      for i in range(rng.randint(1, 3))))
    core = None
    if with_core:
        states = rng.sample([0, 1, "q", 2.5, "r"], rng.randint(1, 3))
        core = Semiautomaton(("x",), states, {(q, "x"): q for q in states}, states[0])
    rows = [[q, list(x), rng.choice(OUTPUTS)]
            for q in (core.states if core else [None]) for x in signature.letters()]
    return signature, core, rows if core else [row[1:] for row in rows]


def _fault(rng, table, signature, core):
    """One or two kinds of fault, and a copy of a random row changed to hold
    them all; "missing" stands alone, for a removed row."""
    kinds = ["duplicate", "conflict", "stray", "arity", "unhashable", "missing"]
    kinds = rng.sample(kinds + (["state", "unhashable state"] if core else []),
                       rng.choice([1, 1, 2]))
    if "missing" in kinds:
        return ["missing"], None
    row = list(rng.choice(table))
    letter = list(row[-2])
    for kind in kinds:
        at = rng.randrange(max(1, min(len(letter), signature.arity)))
        if kind == "conflict":
            row[-1] = rng.choice([v for v in OUTPUTS if v != row[-1]])
        elif kind == "stray" and letter:
            domain = signature.coords[at].values
            letter[at] = rng.choice([v for v in VALUES + ["zz"] if v not in domain])
        elif kind == "arity":
            letter = letter[:-1] if rng.random() < 0.5 else letter + [letter[0]]
        elif kind == "unhashable" and letter:
            letter[at] = [letter[at]]
        elif kind == "state":
            row[0] = rng.choice([v for v in (0, 1, "q", "zz") if v not in core.states])
        elif kind == "unhashable state":
            row[0] = [row[0]]
    row[-2] = letter
    return kinds, row


def _values_or_error(read, rows, signature, core):
    try:
        return read(rows, signature, "t.entries", core)
    except SpecFileError as e:
        return e.field, str(e)


@pytest.mark.parametrize("with_core", [False, True], ids=["input", "output"])
def test_table_values_match_the_numpy_reference(with_core):
    rng = random.Random(19 + with_core)
    kinds, errors = set(), 0
    for _ in range(300):
        signature, core, table = _random_table(rng, with_core)
        rows = rng.sample(table, len(table)) if rng.random() < 0.5 else table[:]
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            faults, row = _fault(rng, table, signature, core)
            kinds.update(faults)
            if row is not None:
                rows.insert(rng.randint(0, len(rows)), row)
            elif rows:
                del rows[rng.randrange(len(rows))]
        want = _values_or_error(reference_table_values, rows, signature, core)
        assert _values_or_error(_table_values, rows, signature, core) == want, rows
        errors += isinstance(want, tuple)
    assert len(kinds) == (8 if with_core else 6) and 100 <= errors <= 250


@pytest.mark.parametrize("with_core", [False, True], ids=["input", "output"])
def test_table_values_are_the_outputs_in_slot_order_whatever_the_row_order(with_core):
    rng = random.Random(7)
    for _ in range(50):
        signature, core, rows = _random_table(rng, with_core)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        values = [row[-1] for row in rows]
        assert _table_values(rows, signature, "t", core) == values
        assert _table_values(shuffled, signature, "t", core) == values
        assert reference_table_values(shuffled, signature, "t", core) == values


def test_a_shuffled_counter_spec_reads_as_the_ordered_one():
    spec = cascade_to_spec(build_counter_task_cascade())
    text = json.dumps(spec)
    rng = random.Random(5)
    for comp in spec["components"]:
        for fn in (comp["input_fn"], comp["output_fn"]):
            if isinstance(fn, dict) and fn["kind"] == "table":
                rng.shuffle(fn["entries"])
    assert len(spec["components"][-1]["input_fn"]["entries"]) == 49152
    assert json.dumps(spec) != text
    same = json.dumps(cascade_to_spec(cascade_from_spec(spec))) == text
    assert same  # a bare flag: a diff of the two 8 MB texts would take minutes
