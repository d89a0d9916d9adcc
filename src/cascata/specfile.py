"""Cascade spec files: a strict JSON-compatible description of a cascade.

Top level::

    {"alphabet": [{"name": ..., "values": [...]}, ...],
     "components": [{"name": ..., "dependencies": [1, ...],
                     "input_fn": <fn>, "core": <core>,
                     "output_fn": "state" | "next_state" | <fn>}, ...]}

Function descriptors: ``{"kind": "table", "entries": [[[...values], out]]}``,
``{"kind": "mono_dnf", "terms": [[var, ...], ...], "on_true": .., "on_false": ..}``
(a lone empty term means constant true; variables are coordinate names, or
``coord=value`` for one-hot expanded coordinates), and
``{"kind": "threshold", "thresholds": {coord: value}, "on_true": .., "on_false": ..}``.
Cores: ``"flipflop"``, ``"flipflop_wo"``, ``"counter:N"``, each optionally as
``{"kind": ..., "initial": q}``, or an explicit
``{"kind": "table", "letters": [...], "states": [...], "initial": q,
"transitions": [[q, letter, q2], ...]}``.  Unknown fields are rejected.

Output-function tables use entries ``[[state, [...values], out], ...]``.
"""

from __future__ import annotations

from .alphabets import (
    FactoredAlphabet,
    MonotoneDnf,
    MonotoneDnfClass,
    TableFunction,
    ThresholdConjunction,
)
from .automata import ComponentAutomaton, Semiautomaton
from .cascade import Cascade, chain_alphabet
from .errors import SpecFileError
from .primes import make_counter, make_flipflop, validate_prime_identities


def _require_keys(obj: dict, required: set, optional: set, where: str):
    if not isinstance(obj, dict):
        raise SpecFileError(f"expected an object, got {type(obj).__name__}", where)
    missing = required - set(obj)
    if missing:
        raise SpecFileError(f"missing fields {sorted(missing)}", where)
    unknown = set(obj) - required - optional
    if unknown:
        raise SpecFileError(f"unknown fields {sorted(unknown)}", where)


def _require_type(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise SpecFileError(f"expected {kind.__name__}, got {type(value).__name__}", where)
    return value


def _rows(data, fields: tuple[str, ...], where: str) -> list:
    """A list of table rows, each a list of the named fields; a field
    called ``values`` must itself be a list."""
    size = len(fields)
    at = fields.index("values") if "values" in fields else None
    for k, row in enumerate(_require_type(data, list, where)):
        if (not isinstance(row, list) or len(row) != size
                or at is not None and not isinstance(row[at], list)):
            raise SpecFileError(f"expected [{', '.join(fields)}], got {row!r}",
                                f"{where}[{k}]")
    return data


def _parse_alphabet(data, where="alphabet") -> FactoredAlphabet:
    if not isinstance(data, list) or not data:
        raise SpecFileError("alphabet must be a non-empty list of coordinates", where)
    coords = []
    for i, c in enumerate(data):
        _require_keys(c, {"name", "values"}, set(), f"{where}[{i}]")
        name = _require_type(c["name"], str, f"{where}[{i}].name")
        values = _require_type(c["values"], list, f"{where}[{i}].values")
        if any(isinstance(v, (list, dict)) for v in values):
            raise SpecFileError("values must be scalars", f"{where}[{i}].values")
        coords.append((name, tuple(values)))
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
    if kind in ("flipflop", "flipflop_wo") or kind.startswith("counter:"):
        _require_keys(data, {"kind"}, {"initial"}, where)
        initial = data.get("initial", 0)
        if kind == "flipflop":
            return make_flipflop(with_reset=True, initial=initial)
        if kind == "flipflop_wo":
            return make_flipflop(with_reset=False, initial=initial)
        try:
            modulus = int(kind.split(":", 1)[1])
        except ValueError:
            raise SpecFileError(f"bad counter kind {kind!r}", where)
        return make_counter(modulus, initial=initial)
    if kind == "table":
        _require_keys(data, {"kind", "letters", "states", "initial", "transitions"},
                      set(), where)
        rows = _rows(data["transitions"], ("state", "letter", "next_state"),
                     f"{where}.transitions")
        letters = tuple(_require_type(data["letters"], list, f"{where}.letters"))
        states = tuple(_require_type(data["states"], list, f"{where}.states"))
        try:
            return Semiautomaton(letters, states, {(q, a): q2 for q, a, q2 in rows},
                                 data["initial"])
        except (TypeError, ValueError) as e:
            raise SpecFileError(str(e), where)
    raise SpecFileError(f"unknown core kind {kind!r}", where)


def _parse_input_fn(data, signature: FactoredAlphabet, where: str):
    _require_keys(data, {"kind"},
                  {"entries", "terms", "thresholds", "on_true", "on_false"}, where)
    kind = data["kind"]
    if kind == "table":
        if "entries" not in data:
            raise SpecFileError("table needs 'entries'", where)
        rows = _rows(data["entries"], ("values", "output"), f"{where}.entries")
        # a list comprehension builds large tables faster than a generator
        return TableFunction(signature, tuple([(tuple(vals), out) for vals, out in rows]))
    if kind == "mono_dnf":
        if "terms" not in data:
            raise SpecFileError("mono_dnf needs 'terms'", where)
        terms = _require_type(data["terms"], list, f"{where}.terms")
        for i, names in enumerate(terms):
            _require_type(names, list, f"{where}.terms[{i}]")
        k = 1 if terms == [[]] else max(1, min(2, len(terms)))
        cls = MonotoneDnfClass(signature, k,
                               outputs=(data.get("on_true", 1), data.get("on_false", 0)))
        try:
            return cls.from_term_names(terms)
        except ValueError as e:
            raise SpecFileError(str(e), where)
    if kind == "threshold":
        if "thresholds" not in data:
            raise SpecFileError("threshold needs 'thresholds'", where)
        names = [c.name for c in signature.coords]
        thresholds = _require_type(data["thresholds"], dict, f"{where}.thresholds")
        unknown = set(thresholds) - set(names)
        if unknown:
            raise SpecFileError(f"threshold names {sorted(unknown)} not in {names}", where)
        return ThresholdConjunction(signature, tuple(thresholds.get(n) for n in names),
                                    data.get("on_true", 1), data.get("on_false", 0))
    raise SpecFileError(f"unknown function kind {kind!r}", where)


def _parse_output_fn(data, where: str):
    if isinstance(data, str):
        if data in ("state", "next_state"):
            return data, None
        raise SpecFileError(f"unknown output_fn {data!r}", where)
    _require_keys(data, {"kind", "entries"}, {"outputs"}, where)
    if data["kind"] != "table":
        raise SpecFileError(f"unknown output_fn kind {data['kind']!r}", where)
    rows = _rows(data["entries"], ("state", "values", "output"), f"{where}.entries")
    try:
        table = {(q, tuple(vals)): out for q, vals, out in rows}
    except TypeError as e:
        raise SpecFileError(str(e), f"{where}.entries")

    def theta(q, x):
        try:
            return table[(q, x)]
        except KeyError:
            raise SpecFileError(f"output table misses ({q!r}, {x!r})", where)

    outputs = None
    if "outputs" in data:
        outputs = tuple(_require_type(data["outputs"], list, f"{where}.outputs"))
    return theta, outputs


def cascade_from_spec(data: dict) -> Cascade:
    _require_keys(data, {"alphabet", "components"}, set(), "spec")
    external = _parse_alphabet(data["alphabet"])
    if not isinstance(data["components"], list) or not data["components"]:
        raise SpecFileError("components must be a non-empty list", "components")
    built: list[ComponentAutomaton] = []
    for i, comp in enumerate(data["components"]):
        where = f"components[{i}]"
        _require_keys(comp, {"name", "dependencies", "input_fn", "core"},
                      {"output_fn"}, where)
        _require_type(comp["name"], str, f"{where}.name")
        alphabet = chain_alphabet(external, built)
        deps = comp["dependencies"]
        if (not isinstance(deps, list) or not deps
                or any(not isinstance(j, int) or j < 1 or j > alphabet.arity for j in deps)):
            raise SpecFileError(
                f"dependencies must be 1-based indices within [1, {alphabet.arity}]", where
            )
        signature = alphabet.project(deps)
        input_fn = _parse_input_fn(comp["input_fn"], signature, f"{where}.input_fn")
        core = _parse_core(comp["core"], f"{where}.core")
        output_fn, outputs = _parse_output_fn(comp.get("output_fn", "state"),
                                              f"{where}.output_fn")
        try:
            built.append(ComponentAutomaton(alphabet, deps, input_fn, core,
                                            output_fn=output_fn, outputs=outputs,
                                            name=comp["name"]))
        except Exception as e:
            raise SpecFileError(str(e), where)
    try:
        return Cascade(built)
    except ValueError as e:
        raise SpecFileError(str(e), "components")


def _serialize_core(core: Semiautomaton):
    kind = None
    if validate_prime_identities(core, "flipflop").ok:
        kind = "flipflop" if "reset" in core.alphabet else "flipflop_wo"
    elif validate_prime_identities(core, "counter").ok:
        kind = f"counter:{len(core.states)}"
    if kind is not None:
        return kind if core.initial == 0 else {"kind": kind, "initial": core.initial}
    return {
        "kind": "table",
        "letters": list(core.alphabet),
        "states": list(core.states),
        "initial": core.initial,
        "transitions": [[q, a, core.step(q, a)] for q in core.states for a in core.alphabet],
    }


def _serialize_input_fn(fn, signature: FactoredAlphabet):
    if isinstance(fn, MonotoneDnf):
        return {
            "kind": "mono_dnf",
            "terms": [list(t) for t in fn.term_names()],
            "on_true": fn.on_true,
            "on_false": fn.on_false,
        }
    if isinstance(fn, ThresholdConjunction):
        names = [c.name for c in signature.coords]
        return {
            "kind": "threshold",
            "thresholds": {n: t for n, t in zip(names, fn.thresholds) if t is not None},
            "on_true": fn.on_true,
            "on_false": fn.on_false,
        }
    return {
        "kind": "table",
        "entries": [[list(x), fn(x)] for x in signature.letters()],
    }


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
        if comp.output_kind in ("state", "next_state"):
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
