"""Command-line surface.

Commands: run, flatten, minimize, equiv, aperiodic, check, bounds, growth,
learn, scenario (``equiv`` is exact, with letters paired in sorted order).
Exit codes: 0 success, 2 parse/validation error, 3 cap exceeded, 4
verification failure (inequivalent automata, oracle mismatch).
The environment variable ``CASCATA_CAP`` overrides the default size caps;
``--cap`` overrides both.  Only the commands whose work a cap bounds take
``--cap``: flatten, minimize, equiv, aperiodic, growth and learn.  Only
``flatten`` takes ``--no-prune``, which keeps the product states unreachable
from the initial one; ``minimize`` starts from the reachable states.  A
cascade from a spec file or a scenario is chained by
``cascade.build_chained``; a class member (``learn``) is assembled from its
class's components (``CascadeClass.member``).  When the reader of stdout
goes away (``cascata bounds ... | head -1``), the rest of the output is
dropped and the exit code is 0, with no traceback.

Trace files hold one trace per line: space-separated letters, each letter a
comma-separated list of coordinate values, each written as its ``str``.  A
token that is the ``str`` of two values of its coordinate (``1`` and
``"1"``) is an error.  Label files hold one integer per line, an output
value of the class's last component.  ``--out`` sends a command's result to
a file instead of stdout (``learn``'s report stays).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from decimal import Decimal

from . import crafting
from .alphabets import FactoredAlphabet, enumerate_class
from .automata import DEFAULT_MONOID_CAP, is_aperiodic_monoid
from .cascade import DEFAULT_PRODUCT_CAP
from .complexity import (
    cardinality_bound_cascade,
    class_outputs,
    dimension_bound_cascade,
    empirical_growth,
    exact_growth_fits,
    growth_bound_cascade,
    sample_bound_dimension,
    sample_bound_finite,
)
from .errors import CapExceededError, CascataError, SpecFileError
from .learner import (
    LabeledSample,
    StringDistribution,
    class_min_risk,
    draw_sample,
    erm_select,
    estimate_risk,
)
from .specfile import (
    cascade_from_spec,
    cascade_to_spec,
    class_from_spec,
    descriptor_from_spec,
    learn_config_from_spec,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_VERIFY = 4

#: The most strings ``growth`` searches over: all strings up to ``--max-len``
#: while they fit, shorter ones otherwise.
GROWTH_UNIVERSE_CAP = 4000


def _open(path: str, mode: str = "r"):
    """Open a file named on the command line; a file that cannot be opened
    is a parse error (exit 2), not a traceback."""
    try:
        return open(path, mode)
    except OSError as e:
        raise SpecFileError(f"cannot open {path}: {e.strerror or e}")


def _load_json(path: str) -> dict:
    try:
        with _open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise SpecFileError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    except RecursionError:
        raise SpecFileError(f"{path}: nested too deeply to parse")


def _emit(text: str, out: str | None):
    if out:
        with _open(out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cap(args, default: int) -> int:
    """``--cap``, else ``CASCATA_CAP``, else ``default``; a cap that is set
    must be a positive integer."""
    if getattr(args, "cap", None) is not None:
        cap, name = args.cap, "--cap"
    elif os.environ.get("CASCATA_CAP"):
        cap, name = os.environ["CASCATA_CAP"], "CASCATA_CAP"
    else:
        return default
    if not str(cap).strip().isdecimal() or int(cap) < 1:
        raise SpecFileError(f"must be a positive integer, got {cap!r}", name)
    return int(cap)


def _general(value) -> str:
    """``f"{value:.6g}"``, also for an int too large for a float, which is
    rounded exactly instead."""
    try:
        return f"{value:.6g}"
    except OverflowError:
        return f"{Decimal(value):.6g}"


def _integer(value: int) -> str:
    """``str(value)``, or ``_general``'s form past ``str``'s digit limit."""
    try:
        return str(value)
    except ValueError:
        return _general(value)


def _at_least_one(value: int, flag: str, least: int = 1) -> None:
    """A count given on the command line must be at least 1 (or ``least``)."""
    if value < least:
        raise SpecFileError(f"must be at least {least}, got {value}", flag)


def _parse_letter(token: str, alphabet: FactoredAlphabet, where: str):
    """A letter of a trace file; ``where`` names the file and line."""
    parts = token.split(",")
    if len(parts) != alphabet.arity:
        raise SpecFileError(
            f"{where}: letter {token!r} has {len(parts)} coordinates, "
            f"expected {alphabet.arity}"
        )
    letter = []
    for part, coord in zip(parts, alphabet.coords):
        matches = [v for v in coord.values if str(v) == part]
        if not matches:
            raise SpecFileError(
                f"{where}: value {part!r} not in coordinate {coord.name!r}"
            )
        if len(matches) > 1:
            raise SpecFileError(
                f"{where}: value {part!r} is ambiguous in coordinate {coord.name!r}: "
                f"it names each of {', '.join(map(repr, matches))}"
            )
        letter.append(matches[0])
    return tuple(letter)


def _format_letter(letter) -> str:
    return ",".join(str(v) for v in letter)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cascade = cascade_from_spec(_load_json(args.spec))
    outputs = []
    for line_no, trace in _read_traces(args.traces, cascade.external):
        if not trace:
            print(f"line {line_no}: empty trace has no output", file=sys.stderr)
            continue
        outputs.append(str(cascade.run(trace)))
    _emit("\n".join(outputs), args.out)
    return EXIT_OK


def _flat_for(args, minimize: bool):
    cascade = cascade_from_spec(_load_json(args.spec))
    auto = cascade.flatten(cap=_cap(args, DEFAULT_PRODUCT_CAP),
                           prune=not getattr(args, "no_prune", False))
    return auto.minimize() if minimize else auto


def _emit_automaton(auto, args) -> int:
    print(f"states: {auto.n_states}", file=sys.stderr)
    if args.format == "dot":
        _emit(auto.to_dot(), args.out)
    elif args.format == "text":
        lines = [f"states: {auto.n_states}",
                 "letters: " + " ".join(_format_letter(a) if isinstance(a, tuple) else str(a)
                                        for a in auto.alphabet)]
        for q, (drow, orow) in enumerate(zip(auto.delta_array.tolist(), auto.out_array.tolist())):
            for a, target, o in zip(auto.alphabet, drow, orow):
                tok = _format_letter(a) if isinstance(a, tuple) else str(a)
                lines.append(f"{q} --{tok}/{auto.outputs[o]}--> {target}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(auto.to_dict(), indent=2, default=str), args.out)
    return EXIT_OK


def cmd_flatten(args) -> int:
    return _emit_automaton(_flat_for(args, minimize=False), args)


def cmd_minimize(args) -> int:
    return _emit_automaton(_flat_for(args, minimize=True), args)


def cmd_equiv(args) -> int:
    a = cascade_from_spec(_load_json(args.spec)).flatten(cap=_cap(args, DEFAULT_PRODUCT_CAP))
    b = cascade_from_spec(_load_json(args.spec2)).flatten(cap=_cap(args, DEFAULT_PRODUCT_CAP))
    result = a.equivalent(b)
    if result.equivalent:
        _emit("equivalent", args.out)
        return EXIT_OK
    witness = " ".join(_format_letter(x) for x in result.counterexample)
    _emit(f"not equivalent; counterexample: {witness}", args.out)
    return EXIT_VERIFY


def cmd_aperiodic(args) -> int:
    cascade = cascade_from_spec(_load_json(args.spec))
    auto = cascade.flatten(cap=_cap(args, DEFAULT_PRODUCT_CAP))
    monoid = auto.core.transition_monoid(_cap(args, DEFAULT_MONOID_CAP))
    verdict = "aperiodic" if is_aperiodic_monoid(monoid) else "not aperiodic"
    _emit(f"{verdict}; monoid size: {len(monoid)}", args.out)
    return EXIT_OK


def _short_strings(letters: list, max_len: int, cap: int) -> list[tuple]:
    """Every string of length 1, 2, ... up to ``max_len``, stopping before
    the first length that would take the total past ``cap``."""
    strings = []
    for length in range(1, max_len + 1):
        if len(strings) + len(letters) ** length > cap:
            break
        strings.extend(itertools.product(letters, repeat=length))
    return strings


def cmd_check(args) -> int:
    """Compare the compositional string function against stepping the
    cascade, on exhaustive short strings plus seeded random longer ones."""
    import random as random_module

    from .functional import cascade_function

    _at_least_one(args.max_len, "--max-len")
    _at_least_one(args.samples, "--samples")
    cascade = cascade_from_spec(_load_json(args.spec))
    tree = cascade_function(cascade)
    letters = list(cascade.external.letters())
    rng = random_module.Random(args.seed)
    strings = _short_strings(letters, args.max_len, 500)
    # random strings only for the lengths not enumerated exhaustively
    length = len(strings[-1]) + 1 if strings else 1
    while length <= args.max_len and len(strings) < args.samples:
        n = rng.randint(length, args.max_len)
        strings.append(tuple(rng.choice(letters) for _ in range(n)))
    for s in strings:
        if tree(s) != cascade.run(s):
            witness = " ".join(_format_letter(x) for x in s)
            _emit(f"mismatch on: {witness}", args.out)
            return EXIT_VERIFY
    _emit(f"compositional function agrees with the cascade on {len(strings)} strings", args.out)
    return EXIT_OK


def cmd_bounds(args) -> int:
    for ell in args.ell:
        _at_least_one(ell, "--ell")
    k, n = args.baseline_letters, args.baseline_states
    for value, flag in ((k, "--baseline-letters"), (n, "--baseline-states")):
        if value is not None:
            _at_least_one(value, flag)
    if (k is None) != (n is None):
        raise SpecFileError("--baseline-letters and --baseline-states go together",
                            "--baseline-letters" if n is None else "--baseline-states")
    desc, fam = descriptor_from_spec(_load_json(args.descriptor))
    rows: list[tuple[str, str, str]] = []
    card = cardinality_bound_cascade(desc)
    enumerated = fam.cardinality if fam is not None else None
    rows.append(("cardinality_bound", _integer(card), "product of per-part choices"))
    if enumerated is not None:
        rows.append(("cardinality_enumerated", _integer(enumerated), "fixed dependency sets"))
    for i, c in enumerate(desc.components):
        rows.append((f"log2_input_class[{i + 1}]", f"{math.log2(c.n_input_fns):.3f}", ""))
    base = enumerated if enumerated is not None else card
    rows.append((
        "sample_size_finite", str(sample_bound_finite(base, desc.epsilon, desc.eta)),
        "instantiation ln(2|F|/eta)/(2 eps^2), not a stated constant",
    ))
    for ell in args.ell:
        rows.append((f"growth_bound(ell={ell})",
                     _general(growth_bound_cascade(desc, ell)), ""))
    try:
        dim = dimension_bound_cascade(desc)
        size = sample_bound_dimension(max(dim, 1.0), 2, desc.epsilon, desc.eta)
    except ValueError as e:
        rows.append(("dimension_bound", "n/a", str(e)))
    else:
        rows.append(("dimension_bound", f"{dim:.3f}", ""))
        rows.append(("sample_size_dimension", str(size),
                     "bound-shaped estimate, instantiation C=8"))
    if k is not None:
        rows.append((
            "all_acceptors_baseline",
            f"{k * n * math.log2(n):.1f}",
            f"k*n*log2(n) for k={k}, n={n}, displayed for comparison only",
        ))
    if args.format == "csv":
        text = "quantity,value,note\n" + "\n".join(
            f"{q},{v},\"{note}\"" for q, v, note in rows
        )
    else:
        width = max(len(q) for q, _, _ in rows)
        text = "\n".join(
            f"{q:<{width}}  {v}" + (f"  [{note}]" if note else "")
            for q, v, note in rows
        )
    _emit(text, args.out)
    return EXIT_OK


def _growth_search(functions: list, universe: list, sizes, mode: str, **kwargs):
    """The class's growth search on the universe, per sample size.  Its
    outputs are read once for every size when an exact search at one size
    reads them whole anyway; else a heuristic search reads only its draws."""
    whole = mode == "exact" and any(exact_growth_fits(len(universe), n) for n in sizes)
    table = class_outputs(functions, universe) if whole else functions
    return lambda n: empirical_growth(table, universe, n, mode=mode, **kwargs)


def cmd_growth(args) -> int:
    _at_least_one(args.max_len, "--max-len")
    for ell in args.ell:
        _at_least_one(ell, "--ell")
    cls = class_from_spec(_load_json(args.classspec))
    letters = list(cls.external.letters())
    universe = _short_strings(letters, args.max_len, GROWTH_UNIVERSE_CAP)
    if not universe:
        raise SpecFileError(f"{len(letters)} letters: even the strings of length 1 "
                            f"exceed the growth universe of {GROWTH_UNIVERSE_CAP} strings")
    cap = _cap(args, 200_000)
    members = list(enumerate_class(cls, cap))
    desc = cls.descriptor(args.max_len)
    sizes = [ell * args.max_len for ell in args.ell]  # an input class reads ell x max_len letters
    growths = [(lambda n, search=_growth_search(list(c), list(c.signature.letters()), sizes,
                                                "exact"): search(n).count)
               for c in cls.input_classes]
    ones = [(lambda n: 1)] * len(growths)
    search = _growth_search(members, universe, args.ell, args.mode, draw_cap=cap)
    lines = ["ell  patterns  bound  verdict"]
    for ell in args.ell:
        report = search(ell)
        bound = growth_bound_cascade(desc, ell, input_growths=growths,
                                     output_growths=ones)
        verdict = "ok" if report.count <= bound else "VIOLATION"
        exact = "" if report.exact else " (lower bound)"
        lines.append(f"{ell}  {report.count}{exact}  {_general(bound)}  {verdict}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _lines(path: str) -> list[tuple[int, str]]:
    """The lines of a file, stripped, with their 1-based line numbers."""
    with _open(path) as f:
        return [(n, line.strip()) for n, line in enumerate(f, start=1)]


def _read_traces(path: str, alphabet: FactoredAlphabet) -> list[tuple[int, tuple]]:
    """The traces of a trace file with their line numbers; a blank line
    gives the empty trace, which each command handles itself."""
    return [(n, tuple(_parse_letter(tok, alphabet, f"{path}: line {n}") for tok in line.split()))
            for n, line in _lines(path)]


def _label(path: str, line_no: int, text: str, values) -> int:
    try:
        label = int(text)
    except ValueError:
        raise SpecFileError(f"{path}: line {line_no}: label {text!r} is not an integer")
    if label not in values:
        raise SpecFileError(f"{path}: line {line_no}: label {text!r} is not an output "
                            "of the class's last component")
    return label


def _read_labeled(traces_path, labels_path, cls) -> LabeledSample:
    strings = [trace for _, trace in _read_traces(traces_path, cls.external) if trace]
    values = set(cls.part_outputs[-1])  # a last counter part may output many states
    labels = [_label(labels_path, n, line, values) for n, line in _lines(labels_path) if line]
    if not strings:
        raise SpecFileError(f"{traces_path}: no traces")
    if len(labels) != len(strings):
        raise SpecFileError(
            f"{len(strings)} traces but {len(labels)} labels"
        )
    return LabeledSample(tuple(zip(strings, labels)))


def cmd_learn(args) -> int:
    config = learn_config_from_spec(_load_json(args.config))
    seed, max_len, n_mc = config["seed"], config["max_len"], config["n_mc"]
    cls = class_from_spec(_load_json(args.classspec))
    # the cap bounds the work: the error counts a class's ERM kernel
    # computes, or every member the generic loop enumerates
    cap = _cap(args, 500_000)
    if hasattr(cls, "erm"):
        if cls.erm_work > cap:
            raise CapExceededError("ERM error counts", cls.erm_work, cap)
    elif cls.cardinality > cap:
        raise CapExceededError("class enumeration", cls.cardinality, cap)
    bound = sample_bound_finite(cls.cardinality, config["epsilon"], config["eta"])
    weights, n_letters = config["letter_weights"], cls.external.n_letters
    if weights is not None and len(weights) != n_letters:
        raise SpecFileError(f"need one weight per letter of the class alphabet: got "
                            f"{len(weights)} weights for {n_letters} letters",
                            "letter_weights")

    target = None
    if args.target:
        target = cascade_from_spec(_load_json(args.target))
        dist = StringDistribution(tuple(cls.external.letters()), max_len,
                                  tuple(weights) if weights else None)
        n = bound if config["n"] is None else config["n"]
        sample = draw_sample(dist, target, n, seed=seed)
    elif args.traces and args.labels:
        sample = _read_labeled(args.traces, args.labels, cls)
        n = len(sample)
    else:
        raise SpecFileError("learn needs either --target or --traces with --labels")

    chosen = erm_select(cls, sample)
    report = [
        f"class size: {cls.cardinality}",
        f"sample size: {n} (finite-class bound {bound}; "
        "instantiation ln(2|F|/eta)/(2 eps^2), not a stated constant)",
        f"chosen member: {chosen.index}",
        f"empirical risk: {chosen.empirical_risk:.6f} ({chosen.tie_count} tied)",
    ]
    if target is not None:
        est = estimate_risk(chosen.function, target, dist, n_mc, seed=seed ^ 0xA5A5)
        report.append(f"estimated true risk: {est.mean:.6f} +- {est.stderr:.6f}")
        min_risk = config["min_risk"]
        if min_risk is None and cls.cardinality <= 4000:
            min_risk = class_min_risk(cls, target, dist, n_mc, seed=seed ^ 0x5EED)
        if min_risk is not None:
            report.append(f"risk gap vs class minimum: {max(0.0, est.mean - min_risk):.6f}")
        else:
            report.append("risk gap vs class minimum: n/a (class too large; "
                          "set min_risk in the config, 0.0 for a realizable target)")
    print("\n".join(report))
    if args.out:
        _emit(json.dumps(cascade_to_spec(chosen.function), indent=2), args.out)
    return EXIT_OK


def cmd_scenario(args) -> int:
    builds = {"flipflop": crafting.build_flipflop_task_cascade,
              "counter": crafting.build_counter_task_cascade}
    if args.what in builds:
        _emit(json.dumps(cascade_to_spec(builds[args.what]()), indent=2), args.out)
    elif args.what == "family":
        _at_least_one(args.d, "--d", least=2)
        _emit(json.dumps({"family": "sequence_tasks", "d": args.d}, indent=2), args.out)
    elif args.what == "traces":
        _at_least_one(args.n, "--n")
        _at_least_one(args.max_len, "--max-len")
        traces = crafting.generate_traces(args.n, args.max_len, seed=args.seed)
        labels = [crafting.task_label(t) for t in traces]
        base = args.out or "scenario"
        with _open(f"{base}.traces", "w") as f:
            f.write("\n".join(" ".join(crafting.trace_words(t)) for t in traces) + "\n")
        with _open(f"{base}.labels", "w") as f:
            f.write("\n".join(str(y) for y in labels) + "\n")
        print(f"wrote {base}.traces and {base}.labels "
              f"({sum(labels)} positive of {len(labels)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cascata")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=("json", "dot", "text"), cap=True):
        p.add_argument("--out")
        if cap:  # only where a cap bounds the work
            p.add_argument("--cap", type=int)
        if fmt:
            p.add_argument("--format", choices=fmt, default=fmt[0])

    p = sub.add_parser("run", help="run a cascade on a trace file")
    p.add_argument("spec")
    p.add_argument("traces")
    common(p, fmt=None, cap=False)
    p.set_defaults(fn=cmd_run)

    for name, fn in (("flatten", cmd_flatten), ("minimize", cmd_minimize)):
        p = sub.add_parser(name, help=f"{name} a cascade spec")
        p.add_argument("spec")
        if name == "flatten":  # minimize starts from the reachable states anyway
            p.add_argument("--no-prune", action="store_true")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("equiv", help="compare two cascade specs")
    p.add_argument("spec")
    p.add_argument("spec2")
    common(p, fmt=None)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("aperiodic", help="aperiodicity of the flattened cascade")
    p.add_argument("spec")
    common(p, fmt=None)
    p.set_defaults(fn=cmd_aperiodic)

    p = sub.add_parser("check", help="compositional function vs cascade stepping")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--max-len", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    common(p, fmt=None, cap=False)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bounds", help="bound table for a class descriptor")
    p.add_argument("descriptor")
    p.add_argument("--ell", type=int, nargs="*", default=[1, 2, 3])
    p.add_argument("--baseline-letters", type=int)
    p.add_argument("--baseline-states", type=int)
    common(p, fmt=("text", "csv"), cap=False)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("growth", help="empirical growth of an enumerable class")
    p.add_argument("classspec")
    p.add_argument("--ell", type=int, nargs="*", default=[1, 2])
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    common(p, fmt=None)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("learn", help="empirical risk minimization over a class")
    p.add_argument("config")
    p.add_argument("classspec")
    p.add_argument("--traces")
    p.add_argument("--labels")
    p.add_argument("--target")
    common(p, fmt=None)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("scenario", help="built-in crafting scenario artifacts")
    p.add_argument("what", choices=("flipflop", "counter", "family", "traces"))
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--max-len", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    common(p, fmt=None, cap=False)
    p.set_defaults(fn=cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here rather than at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (``| head``): point stdout at the null
        # device so that the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except (SpecFileError, CascataError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
