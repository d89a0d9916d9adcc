"""Paired runs of one bench script, or of one perfbench workload, on two
cascata source trees, with an A/A control.

    python3 scripts/benchpair.py OUT.json scripts/bench_certify.py \
        --a HEAD~1 --b src --label certify-pairs
    python3 scripts/benchpair.py OUT.json perfbench/run.py --workload counter-compile \
        --a HEAD~1 --b src --label counter-compile-pairs

``--a`` and ``--b`` each name a source tree: a directory as given (``src``
is the working tree, uncommitted changes included), or else a git ref of
this repository, whose ``src`` is exported with ``git archive`` into a
temporary directory, with no network.  Each run is a fresh process.  Over
``PAIRS`` pairs the trees run in the order A B, B A, A B, ..., so neither
side always runs first; then tree A runs twice more, the A/A pair, which
shows how far two runs of one tree drift apart.

A bench script is run as given, from the working tree, on both trees; it
is any script that takes ``OUT.json --label L --src SRC``
(``benchlib.main``).  Its measured figures are the numbers under keys
ending in ``_s`` (seconds) or ``_mb`` (megabytes), at any depth of its
results; lower is better for both.

With ``--workload``, the bench is perfbench's ``run.py``.  Each tree gets a
temporary directory that holds a copy of the bench's directory and of the
``BENCHMARK.json`` beside it, from the working tree, and the tree's
``src``, since ``run.py`` imports cascata from the ``src`` beside it; the
working ``perfbench/`` is only read.  Pair i runs ``run.py --workload W
--seed SEED+i --seconds S --trace 0`` on both trees, where S is
``BENCHMARK.json``'s ``run_seconds``, the A/A pair on seed SEED+PAIRS, and
each run's last line, a JSON object, is read.  The measured
figures are its end-to-end metrics, better as ``BENCHMARK.json`` says;
``correct`` and ``failed`` are its other values.

For every measured figure OUT.json gets under the label: each tree's median
and quartiles over its paired runs; how many pairs B won (did better than
A in the same pair; ties count for neither); B's median relative to A's;
the A/A spread, the second A/A run relative to the first; and the A side's
spread, its quartile range relative to its median, which a single A/A pair
can miss when a slow spell of the shared host lands on one of its runs.
Every other value (reports, counts) should be the same in every run of both
trees: the first A run's values are kept, and the keys of any value that
differs in some run are listed under ``values_differ``.  The results go in
through ``benchlib.add``.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from benchlib import ROOT, add

#: A/B pairs per comparison, the fewest in which a gain can be seen to win
#: nine pairs of ten.
PAIRS = 10


def flattened(results: dict, prefix: str = "") -> dict:
    """The results' leaves under dotted keys."""
    leaves = {}
    for key, value in results.items():
        if isinstance(value, dict):
            leaves.update(flattened(value, f"{prefix}{key}."))
        else:
            leaves[f"{prefix}{key}"] = value
    return leaves


def source_tree(spec: str, into: Path) -> Path:
    """The source tree that ``spec`` names: a directory itself, else the
    ``src`` of the git ref ``spec``, exported under ``into``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    archive = subprocess.run(["git", "archive", "--format=tar", spec, "src"], cwd=ROOT,
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"{spec!r} is neither a directory nor a git ref with a src tree: "
                         f"{archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def perfbench_tree(bench: Path, src: Path, into: Path) -> Path:
    """A directory holding copies of the bench's directory and of the
    ``BENCHMARK.json`` beside it, and ``src``; returns the copied bench."""
    into.mkdir(parents=True)
    shutil.copytree(bench.parent, into / bench.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(bench.parent.parent / "BENCHMARK.json", into / "BENCHMARK.json")
    shutil.copytree(src, into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / bench.parent.name / bench.name


def run_script(bench: Path, src: Path, workdir: Path) -> dict:
    """One run of the bench script on the tree, in a fresh process."""
    out = workdir / "run.json"
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(bench), str(out), "--label", "run", "--src", str(src)],
                   check=True, stdout=subprocess.DEVNULL)
    return flattened(json.loads(out.read_text())["run"])


def run_workload(bench: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run of the workload: its metrics' values, ``correct``
    and ``failed``."""
    done = subprocess.run([sys.executable, str(bench), "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive")[::2]


def summary(a: list, b: list, aa: tuple, higher_is_better: bool) -> dict:
    """One figure's medians, quartiles, B's wins, the A/A spread and the A
    side's spread."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    a_quartiles = quartiles(a)
    return {"a_median": a_median, "a_quartiles": a_quartiles,
            "b_median": b_median, "b_quartiles": quartiles(b),
            "b_wins": sum(y > x if higher_is_better else y < x for x, y in zip(a, b)),
            "b_relative": b_median / a_median - 1 if a_median else None,
            "aa_spread": aa[1] / aa[0] - 1 if aa[0] else None,
            "a_spread": (a_quartiles[1] - a_quartiles[0]) / a_median if a_median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to add the results to")
    parser.add_argument("bench", type=Path,
                        help="the bench script to run, or perfbench's run.py with --workload")
    parser.add_argument("--a", required=True,
                        help="source tree A (the baseline): a directory or a git ref")
    parser.add_argument("--b", required=True, help="source tree B: a directory or a git ref")
    parser.add_argument("--label", required=True, help="name the results go under")
    parser.add_argument("--workload", help="the perfbench workload to run")
    parser.add_argument("--seed", type=int, default=1, help="the first perfbench seed")
    args = parser.parse_args(argv)
    bench = args.bench.resolve()
    if args.workload:
        config = json.loads((bench.parent.parent / "BENCHMARK.json").read_text())
        higher = {m["name"] for m in config["end_to_end"] if m["better"] == "higher"}
        measured = {m["name"] for m in config["end_to_end"]}
    else:
        higher = set()
    runs: dict = {"a": [], "b": []}
    order = []
    with tempfile.TemporaryDirectory() as workdir:
        trees = {side: source_tree(spec, Path(workdir) / side)
                 for side, spec in (("a", args.a), ("b", args.b))}
        if args.workload:
            copies = {side: perfbench_tree(bench, tree, Path(workdir) / f"perfbench-{side}")
                      for side, tree in trees.items()}

            def run(side: str, seed: int) -> dict:
                return run_workload(copies[side], args.workload, seed, config["run_seconds"])
        else:
            def run(side: str, seed: int) -> dict:
                return run_script(bench, trees[side], Path(workdir))
        for i in range(PAIRS):
            for side in ("ab" if i % 2 == 0 else "ba"):
                runs[side].append(run(side, args.seed + i))
                order.append(side)
            print(f"pair {i + 1} of {PAIRS} done", file=sys.stderr)
        aa = [run("a", args.seed + PAIRS) for _ in range(2)]
    first = runs["a"][0]
    if not args.workload:
        measured = {key for key, value in first.items()
                    if key.endswith(("_s", "_mb")) and isinstance(value, (int, float))
                    and not isinstance(value, bool)}
    values = {key: value for key, value in first.items() if key not in measured}
    differ = sorted({key for r in runs["a"] + runs["b"] + aa
                     for key in set(r) | set(first) if r.get(key) != first.get(key)
                     and key not in measured})
    results = {"bench": args.bench.name, "pairs": PAIRS,
               "order": "".join(order).upper() + " AA",
               "times": {key: summary([r[key] for r in runs["a"]], [r[key] for r in runs["b"]],
                                      (aa[0][key], aa[1][key]), key in higher)
                         for key in sorted(measured)},
               "values": values, "values_differ": differ}
    if args.workload:
        results.update(workload=args.workload, seeds=[args.seed, args.seed + PAIRS],
                       seconds=config["run_seconds"])
    added = add(args.out, args.label, results)
    print(json.dumps({key: added[key] for key in ("order", "times", "values_differ")}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
