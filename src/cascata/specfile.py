"""Strict JSON input files: cascade specs, class specs, bound descriptors
and learning configs.  Unknown fields are rejected, a null stands for a
field's default only where that default is null, and every error is a
``SpecFileError`` naming the offending field's path.

Cascade spec::

    {"alphabet": [{"name": ..., "values": [...]}, ...],
     "components": [{"name": ..., "dependencies": [1, ...],
                     "input_fn": <fn>, "core": <core>,
                     "output_fn": "state" | "next_state" | <table>}, ...]}

Component i reads the alphabet extended by one coordinate per earlier
component, named after it and holding its outputs; ``dependencies`` are
1-based indices into that alphabet.  Function descriptors:
``{"kind": "table", "entries": [[[...values], out], ...]}``,
``{"kind": "mono_dnf", "terms": [[var, ...], ...],
"on_true": .., "on_false": ..}`` (a lone empty term means constant true;
variables are coordinate names, or ``coord=value`` for one-hot expanded
coordinates), and ``{"kind": "threshold", "thresholds": {coord: int},
"on_true": .., "on_false": ..}`` over integer coordinates; ``on_true`` and
``on_false`` default to 1 and 0.  Every value a function can return must be
a letter of the core.  Cores: ``"flipflop"``, ``"flipflop_wo"``,
``"counter:N"`` (2 <= N <= ``DEFAULT_PRODUCT_CAP``), each optionally as
``{"kind": ..., "initial": q}``, or an
explicit ``{"kind": "table", "letters": [...], "states": [...], "initial": q,
"transitions": [[q, letter, q2], ...]}`` with one row per state and letter.
An output table is ``{"kind": "table", "entries": [[state, [...values],
out], ...], "outputs": [...]}``; ``outputs`` defaults to the values the
entries use.
Input and output tables hold exactly one entry per letter (per state and
letter) of the projected alphabet, and nothing else.

Class spec: a cascade spec whose components carry an ``input_class``
instead of an ``input_fn``; the class holds one cascade per choice of input
functions, numbered with the last component's choice varying fastest.
Input classes: ``{"kind": "mono_dnf", "max_terms": 1 | 2, "on_true": ..,
"on_false": ..}`` (``max_terms`` defaults to 1), ``{"kind": "threshold",
"on_true": .., "on_false": ..}`` over integer coordinates, and
``{"kind": "table", "outputs": [...]}`` (every function into ``outputs``).
Alternatively ``{"family": "sequence_tasks", "d": N, "letters": [...]}``
names the built-in task family (``letters`` optional).

Bound descriptor: a family as above, or ``{"components": [{"arity": ..,
"degree": .., "n_input_fns": .., "n_cores": .., "n_output_fns": ..,
"internal_size": .., "output_size": .., "input_dim": .., "output_dim": ..},
...]}`` (integers; the dimensions are optional finite numbers, at least 0);
either form takes an optional ``max_len`` (default 8), ``epsilon`` and
``eta`` (default 0.1).

Learning config: optional ``seed`` (0), ``epsilon``, ``eta`` (0.1, each in
(0, 1)), ``max_len`` (8, at least 1), ``n`` (null: the finite-class bound;
else at least 1), ``n_mc`` (2000, at least 1), ``min_risk`` (null; else in
[0, 1]) and ``letter_weights`` (null: uniform; else one weight per letter,
each at least 0, with a positive sum).
"""

from __future__ import annotations

import itertools
import math
import operator

from .alphabets import (
    Coordinate,
    FactoredAlphabet,
    MonotoneDnf,
    MonotoneDnfClass,
    TableClass,
    TableFunction,
    ThresholdClass,
    ThresholdConjunction,
)
from .automata import Semiautomaton, output_values
from .cascade import DEFAULT_PRODUCT_CAP, Cascade, CascadeClass, ClassPart, build_chained
from .complexity import ClassDescriptor, ComponentClassSpec
from .crafting import SequenceTaskFamily
from .errors import CascataError, SpecFileError
from .primes import make_counter, make_flipflop, validate_prime_identities

_NUMBER = (int, float)


def _require_keys(obj: dict, required: set, optional: set, where: str):
    if not isinstance(obj, dict):
        raise SpecFileError(f"expected an object, got {type(obj).__name__}", where)
    missing = required - set(obj)
    if missing:
        raise SpecFileError(f"missing fields {sorted(missing)}", where)
    unknown = set(obj) - required - optional
    if unknown:
        raise SpecFileError(f"unknown fields {sorted(unknown)}", where)


def _require_type(value, kind, where: str):
    """``value`` if it is an instance of ``kind`` (a type, or ``_NUMBER``);
    a bool is never taken for a number."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = "number" if kind == _NUMBER else kind.__name__
        raise SpecFileError(f"expected {name}, got {type(value).__name__}", where)
    return value


def _scalars(values, where: str) -> tuple:
    if any(isinstance(v, (list, dict)) for v in _require_type(values, list, where)):
        raise SpecFileError("values must be scalars", where)
    return tuple(values)


def _field(data: dict, key: str, kind, default, where: str = ""):
    """``data[key]`` checked against ``kind``, or ``default`` when the key
    is absent (or null, where the default is null)."""
    if key not in data or data[key] is None and default is None:
        return default
    return _require_type(data[key], kind, f"{where}.{key}" if where else key)


def _types(rows, at=None) -> set:
    """The distinct types of the rows, or of their fields at ``at``."""
    return set(map(type, rows if at is None else map(operator.itemgetter(at), rows)))


def _rows(data, fields: tuple[str, ...], where: str) -> list:
    """A list of table rows, each a list of the named fields; a field
    called ``values`` must itself be a list and an ``output`` a scalar.

    The whole table is checked at once, on its distinct types and lengths;
    only a table that fails is walked row by row, to name its first bad
    row."""
    size = len(fields)
    at = fields.index("values") if "values" in fields else None
    rows = _require_type(data, list, where)
    if (all(issubclass(t, list) for t in _types(rows)) and set(map(len, rows)) <= {size}
            and (at is None or all(issubclass(t, list) for t in _types(rows, at)))
            and (fields[-1] != "output"
                 or not any(issubclass(t, (list, dict)) for t in _types(rows, -1)))):
        return rows
    for k, row in enumerate(rows):
        if (not isinstance(row, list) or len(row) != size
                or at is not None and not isinstance(row[at], list)
                or fields[-1] == "output" and isinstance(row[-1], (list, dict))):
            raise SpecFileError(f"expected [{', '.join(fields)}], got {row!r}",
                                f"{where}[{k}]")
    return rows


def _table_values(rows, signature: FactoredAlphabet, where: str, core=None) -> list:
    """The outputs of rows ``[values, output]`` in the order of
    ``signature.letters()``, or of rows ``[state, values, output]`` by core
    state and then letter; one row per letter (per state and letter).

    A table written in that order, as ``cascade_to_spec`` writes it, is read
    by position: as many rows as slots, each naming its own slot.  Any other
    table is walked row by row, and the first row without a slot of its own
    is the one reported, or else the first slot without a row."""
    n, states = signature.n_letters, core.states if core else (None,)
    size = n * len(states)
    keys = zip(map(operator.itemgetter(0), rows) if core else itertools.repeat(None),
               map(tuple, map(operator.itemgetter(-2), rows)))
    slots = ((q, x) for q in states for x in signature.letters())
    if len(rows) == size and all(map(operator.eq, keys, slots)):
        return [row[-1] for row in rows]
    index = {x: i for i, x in enumerate(signature.letters())}
    first = [None] * size  # per slot, the row that fills it
    for k, row in enumerate(rows):
        try:
            q = core.state_index.get(row[0], -1) if core else 0
        except TypeError as e:  # an unhashable state
            raise SpecFileError(str(e), where)
        try:
            i = index[tuple(row[-2])]
        except (KeyError, TypeError):  # no letter, or an unhashable value
            raise SpecFileError(f"{row[-2]!r} is not a projected letter",
                                f"{where}[{k}]") from None
        if q < 0:
            raise SpecFileError(f"{row[0]!r} is not a core state", f"{where}[{k}]")
        if first[q * n + i] is not None:
            raise SpecFileError(f"a second entry for {row[:-1]!r}", f"{where}[{k}]")
        first[q * n + i] = k
    if None in first:
        q, i = divmod(first.index(None), n)
        x = list(next(itertools.islice(signature.letters(), i, None)))
        state = f"state {core.states[q]!r} and letter " if core else ""
        raise SpecFileError(f"no entry for {state}{x!r}", where)
    return [rows[k][-1] for k in first]


def _parse_alphabet(data, where="alphabet") -> FactoredAlphabet:
    if not isinstance(data, list) or not data:
        raise SpecFileError("alphabet must be a non-empty list of coordinates", where)
    coords = []
    for i, c in enumerate(data):
        _require_keys(c, {"name", "values"}, set(), f"{where}[{i}]")
        coords.append((_require_type(c["name"], str, f"{where}[{i}].name"),
                       _scalars(c["values"], f"{where}[{i}].values")))
    try:
        return FactoredAlphabet.of(*coords)
    except ValueError as e:
        raise SpecFileError(str(e), where)


def _parse_core(data, where: str) -> Semiautomaton:
    if isinstance(data, str):
        data = {"kind": data}
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFileError("core must be a kind string or an object with 'kind'", where)
    kind = _require_type(data["kind"], str, f"{where}.kind")
    try:
        if kind in ("flipflop", "flipflop_wo") or kind.startswith("counter:"):
            _require_keys(data, {"kind"}, {"initial"}, where)
            initial = data.get("initial", 0)
            if kind in ("flipflop", "flipflop_wo"):
                return make_flipflop(with_reset=kind == "flipflop", initial=initial)
            try:
                modulus = int(kind.split(":", 1)[1])
            except ValueError:
                raise SpecFileError(f"bad counter kind {kind!r}", f"{where}.kind")
            if modulus > DEFAULT_PRODUCT_CAP:  # bounds what make_counter itself builds
                raise SpecFileError(f"counter modulus {modulus} exceeds the product cap "
                                    f"{DEFAULT_PRODUCT_CAP}", f"{where}.kind")
            return make_counter(modulus, initial=initial)
        if kind == "table":
            _require_keys(data, {"kind", "letters", "states", "initial", "transitions"},
                          set(), where)
            rows = _rows(data["transitions"], ("state", "letter", "next_state"),
                         f"{where}.transitions")
            letters = tuple(_require_type(data["letters"], list, f"{where}.letters"))
            states = tuple(_require_type(data["states"], list, f"{where}.states"))
            state_set, letter_set, transitions = set(states), set(letters), {}
            for k, (q, a, q2) in enumerate(rows):
                problem = (f"{q!r} is not a state" if q not in state_set
                           else f"{a!r} is not a letter" if a not in letter_set
                           else f"a second row for {[q, a]!r}" if (q, a) in transitions
                           else None)
                if problem:
                    raise SpecFileError(problem, f"{where}.transitions[{k}]")
                transitions[q, a] = q2
            return Semiautomaton(letters, states, transitions, data["initial"])
    except (TypeError, ValueError) as e:
        raise SpecFileError(str(e), where)
    raise SpecFileError(f"unknown core kind {kind!r}", f"{where}.kind")


def _on(data) -> tuple:
    """The (on_true, on_false) outputs of a boolean function or class."""
    return data.get("on_true", 1), data.get("on_false", 0)


def _parse_input_fn(data, signature: FactoredAlphabet, where: str):
    """An input function and the values it can return."""
    _require_keys(data, {"kind"},
                  {"entries", "terms", "thresholds", "on_true", "on_false"}, where)
    kind = data["kind"]
    if kind == "table":
        if "entries" not in data:
            raise SpecFileError("table needs 'entries'", where)
        rows = _rows(data["entries"], ("values", "output"), f"{where}.entries")
        fn = TableFunction(signature, tuple(_table_values(rows, signature, f"{where}.entries")))
        return fn, tuple(dict.fromkeys(fn.values))
    if kind == "mono_dnf":
        if "terms" not in data:
            raise SpecFileError("mono_dnf needs 'terms'", where)
        terms = _require_type(data["terms"], list, f"{where}.terms")
        for i, names in enumerate(terms):
            _require_type(names, list, f"{where}.terms[{i}]")
        k = 1 if terms == [[]] else max(1, min(2, len(terms)))
        try:
            return MonotoneDnfClass(signature, k, _on(data)).from_term_names(terms), _on(data)
        except (CascataError, ValueError) as e:
            raise SpecFileError(str(e), where)
    if kind == "threshold":
        if "thresholds" not in data:
            raise SpecFileError("threshold needs 'thresholds'", where)
        names = [c.name for c in signature.coords]
        thresholds = _require_type(data["thresholds"], dict, f"{where}.thresholds")
        unknown = set(thresholds) - set(names)
        if unknown:
            raise SpecFileError(f"threshold names {sorted(unknown)} not in {names}", where)
        for coord in signature.coords:
            if thresholds.get(coord.name) is not None:
                where_t = f"{where}.thresholds.{coord.name}"
                _require_type(thresholds[coord.name], int, where_t)
                if not all(isinstance(v, int) for v in coord.values):
                    raise SpecFileError("a threshold needs an integer coordinate", where_t)
        return ThresholdConjunction(signature, tuple(thresholds.get(n) for n in names),
                                    *_on(data)), _on(data)
    raise SpecFileError(f"unknown function kind {kind!r}", where)


def _parse_input_class(data, signature: FactoredAlphabet, where: str):
    """An enumerable input-function class and the values its members can
    return."""
    kinds = {"mono_dnf": {"max_terms", "on_true", "on_false"},
             "threshold": {"on_true", "on_false"}, "table": {"outputs"}}
    kind = data.get("kind") if isinstance(data, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecFileError(f"input_class kind must be one of {sorted(kinds)}", where)
    _require_keys(data, {"kind"} | ({"outputs"} if kind == "table" else set()),
                  kinds[kind], where)
    outputs = (_scalars(data["outputs"], f"{where}.outputs") if kind == "table"
               else _scalars(list(_on(data)), where))
    try:
        if kind == "mono_dnf":
            cls = MonotoneDnfClass(signature, _field(data, "max_terms", int, 1, where),
                                   outputs=outputs)
        elif kind == "threshold":
            cls = ThresholdClass(signature, outputs=outputs)
        else:
            cls = TableClass(signature, outputs)
    except ValueError as e:
        raise SpecFileError(str(e), where)
    return cls, outputs


def _parse_output_fn(data, core: Semiautomaton, signature: FactoredAlphabet, where: str):
    """The output function and its outputs."""
    if isinstance(data, str):
        try:
            return data, output_values(data, core)
        except ValueError as e:
            raise SpecFileError(str(e), where)
    _require_keys(data, {"kind", "entries"}, {"outputs"}, where)
    if data["kind"] != "table":
        raise SpecFileError(f"unknown output_fn kind {data['kind']!r}", where)
    rows = _rows(data["entries"], ("state", "values", "output"), f"{where}.entries")
    outputs = _scalars(data["outputs"], f"{where}.outputs") if "outputs" in data else None
    slots = _table_values(rows, signature, f"{where}.entries", core)
    values = set(slots)
    if outputs is None:
        outputs = tuple(sorted(values, key=repr))
    elif values - set(outputs):
        raise SpecFileError(f"entries use {sorted(values - set(outputs), key=repr)} "
                            "outside the outputs", f"{where}.outputs")
    n = signature.n_letters
    fns = {q: TableFunction(signature, tuple(slots[i * n:(i + 1) * n]))
           for i, q in enumerate(core.states)}
    return (lambda q, x: fns[q](x)), outputs


def _check_last_outputs(alphabet: FactoredAlphabet, name: str, outputs, core) -> None:
    """Raise what ``alphabet.extend(name, outputs)`` would, without building
    that extension.  A core's states are a checked domain already, so one of
    them stands in for all."""
    domain = outputs[:1] if outputs is core.states else outputs
    FactoredAlphabet(alphabet.coords + (Coordinate(name, domain),))


def _parse_components(data, fn_field: str):
    """The external alphabet and the components of a cascade spec
    (``fn_field`` "input_fn") or a class spec ("input_class"), each as the
    fields of a ``build_chained`` spec or a ``ClassPart``."""
    _require_keys(data, {"alphabet", "components"}, set(), "spec")
    external = _parse_alphabet(data["alphabet"])
    if not isinstance(data["components"], list) or not data["components"]:
        raise SpecFileError("components must be a non-empty list", "components")
    parse_fn = _parse_input_fn if fn_field == "input_fn" else _parse_input_class
    alphabet, parts = external, []
    for i, comp in enumerate(data["components"]):
        where = f"components[{i}]"
        _require_keys(comp, {"name", "dependencies", fn_field, "core"}, {"output_fn"}, where)
        name = _require_type(comp["name"], str, f"{where}.name")
        deps = comp["dependencies"]
        if (not isinstance(deps, list) or not deps
                or any(type(j) is not int or j < 1 or j > alphabet.arity for j in deps)):
            raise SpecFileError(f"dependencies must be 1-based indices within "
                                f"[1, {alphabet.arity}]", f"{where}.dependencies")
        signature = alphabet.project(deps)
        fn, values = parse_fn(comp[fn_field], signature, f"{where}.{fn_field}")
        core = _parse_core(comp["core"], f"{where}.core")
        # an unhashable value cannot be a letter: the core's letters are dict keys
        strays = [v for v in values
                  if getattr(v, "__hash__", None) is None or v not in core.letter_index]
        if strays:
            raise SpecFileError(f"{strays[0]!r} is not a letter of the core",
                                f"{where}.{fn_field}")
        output_fn, outputs = _parse_output_fn(comp.get("output_fn", "state"), core,
                                              signature, f"{where}.output_fn")
        try:
            if i + 1 < len(data["components"]):
                alphabet = alphabet.extend(name, outputs)
            else:  # nothing reads the last outputs: check them as extend would
                _check_last_outputs(alphabet, name, outputs, core)
        except ValueError as e:
            raise SpecFileError(str(e), where)
        parts.append({"name": name, "dependencies": tuple(deps), fn_field: fn,
                      "core": core, "output_fn": output_fn, "outputs": outputs})
    return external, parts


def cascade_from_spec(data: dict) -> Cascade:
    return build_chained(*_parse_components(data, "input_fn"))


def _parse_family(data, optional: set = frozenset()) -> SequenceTaskFamily:
    _require_keys(data, {"family", "d"}, {"letters"} | optional, "spec")
    if data["family"] != "sequence_tasks":
        raise SpecFileError(f"unknown family {data['family']!r}", "family")
    d = _require_type(data["d"], int, "d")
    letters = _scalars(data["letters"], "letters") if "letters" in data else None
    try:
        return SequenceTaskFamily(d, letters)
    except ValueError as e:
        raise SpecFileError(str(e), "spec")


def class_from_spec(data: dict) -> CascadeClass:
    if isinstance(data, dict) and "family" in data:
        return _parse_family(data)
    external, parts = _parse_components(data, "input_class")
    return CascadeClass(external, [ClassPart(**part) for part in parts])


def _bound_params(data: dict) -> tuple[int, float, float]:
    """``max_len``, ``epsilon`` and ``eta`` of a descriptor or config."""
    max_len = _field(data, "max_len", int, 8)
    if max_len < 1:
        raise SpecFileError("max_len must be at least 1", "max_len")
    params = [max_len]
    for key in ("epsilon", "eta"):
        params.append(_field(data, key, _NUMBER, 0.1))
        if not 0 < params[-1] < 1:
            raise SpecFileError(f"{key} must lie in (0, 1)", key)
    return tuple(params)


_COMPONENT_SIZES = ("arity", "degree", "n_input_fns", "n_cores", "n_output_fns",
                   "internal_size", "output_size")


def descriptor_from_spec(data: dict) -> tuple[ClassDescriptor, CascadeClass | None]:
    """A bound descriptor and, when it names a family, the family."""
    if isinstance(data, dict) and "family" in data:
        family = _parse_family(data, {"max_len", "epsilon", "eta"})
        return family.descriptor(*_bound_params(data)), family
    _require_keys(data, {"components"}, {"max_len", "epsilon", "eta"}, "descriptor")
    if not isinstance(data["components"], list) or not data["components"]:
        raise SpecFileError("components must be a non-empty list", "components")
    specs = []
    for i, comp in enumerate(data["components"]):
        where = f"components[{i}]"
        _require_keys(comp, set(_COMPONENT_SIZES), {"input_dim", "output_dim"}, where)
        sizes = {k: _require_type(comp[k], int, f"{where}.{k}") for k in _COMPONENT_SIZES}
        if not 0 <= sizes["degree"] <= sizes["arity"]:
            raise SpecFileError("degree must lie in [0, arity]", f"{where}.degree")
        dims = {k: _field(comp, k, _NUMBER, None, where) for k in ("input_dim", "output_dim")}
        for k, dim in dims.items():
            if dim is not None and not 0 <= dim < math.inf:
                raise SpecFileError(f"{k} must be finite and at least 0", f"{where}.{k}")
        try:
            specs.append(ComponentClassSpec(**sizes, **dims))
        except ValueError as e:
            raise SpecFileError(str(e), where)
    return ClassDescriptor(tuple(specs), *_bound_params(data)), None


def learn_config_from_spec(data: dict) -> dict:
    """The ``learn`` config with every default filled in."""
    _require_keys(data, set(), {"seed", "epsilon", "eta", "max_len", "n", "n_mc",
                                "min_risk", "letter_weights"}, "config")
    max_len, epsilon, eta = _bound_params(data)
    weights = _field(data, "letter_weights", list, None)
    for i, w in enumerate(weights or ()):
        if not 0 <= _require_type(w, _NUMBER, f"letter_weights[{i}]") < math.inf:
            raise SpecFileError("a weight must be finite and at least 0", f"letter_weights[{i}]")
    if weights is not None and not sum(weights) > 0:
        raise SpecFileError("weights must have a positive sum", "letter_weights")
    sizes = {"n": _field(data, "n", int, None), "n_mc": _field(data, "n_mc", int, 2000)}
    for key, size in sizes.items():
        if size is not None and size < 1:
            raise SpecFileError("must be at least 1", key)
    min_risk = _field(data, "min_risk", _NUMBER, None)
    if min_risk is not None and not 0 <= min_risk <= 1:
        raise SpecFileError("min_risk must lie in [0, 1]", "min_risk")
    return {"seed": _field(data, "seed", int, 0), "epsilon": epsilon, "eta": eta,
            "max_len": max_len, **sizes, "min_risk": min_risk, "letter_weights": weights}


def _serialize_core(core: Semiautomaton):
    """A prime core by name, any other core as a table of its labels."""
    labels = core.state_labels()
    initial = labels[core.initial_index]
    counter = "inc" in core.alphabet  # only such a core can be a counter, no other a flip-flop
    if validate_prime_identities(core, "counter" if counter else "flipflop").ok:
        kind = (f"counter:{core.n_states}" if counter
                else "flipflop" if "reset" in core.alphabet else "flipflop_wo")
        return kind if initial == 0 else {"kind": kind, "initial": initial}
    return {
        "kind": "table",
        "letters": list(core.alphabet),
        "states": list(labels),
        "initial": initial,
        "transitions": [[q, a, labels[t]] for q, row in zip(labels, core.delta_array.tolist())
                        for a, t in zip(core.alphabet, row)],
    }


def _serialize_input_fn(fn, signature: FactoredAlphabet):
    if isinstance(fn, MonotoneDnf):
        body = {"kind": "mono_dnf", "terms": [list(t) for t in fn.term_names()]}
    elif isinstance(fn, ThresholdConjunction):
        names = [c.name for c in signature.coords]
        body = {"kind": "threshold",
                "thresholds": {n: t for n, t in zip(names, fn.thresholds) if t is not None}}
    else:
        return {"kind": "table", "entries": [[list(x), fn(x)] for x in signature.letters()]}
    return {**body, "on_true": fn.on_true, "on_false": fn.on_false}


def cascade_to_spec(cascade: Cascade) -> dict:
    external = cascade.external
    components = []
    for comp in cascade.components:
        entry = {
            "name": comp.name,
            "dependencies": list(comp.dependencies.indices),
            "input_fn": _serialize_input_fn(comp.input_fn, comp.projected),
            "core": _serialize_core(comp.core),
        }
        if comp.output_kind != "table":
            entry["output_fn"] = comp.output_kind
        else:
            entry["output_fn"] = {
                "kind": "table",
                "entries": [[q, list(x), comp.theta(q, x)]
                            for q in comp.core.states
                            for x in comp.projected.letters()],
                "outputs": list(comp.outputs),
            }
        components.append(entry)
    return {
        "alphabet": [{"name": c.name, "values": list(c.values)} for c in external.coords],
        "components": components,
    }
