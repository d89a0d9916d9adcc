"""Paired runs of one bench script on two cascata source trees, with an A/A
control.

    python3 scripts/benchpair.py OUT.json scripts/bench_certify.py \
        --a HEAD~1 --b src --label certify-pairs

``--a`` and ``--b`` each name a source tree: a directory as given (``src``
is the working tree, uncommitted changes included), or else a git ref of
this repository, whose ``src`` is exported with ``git archive`` into a
temporary directory, with no network.  The bench script itself is run as
given, from the working tree, on both trees; it is any script that takes
``OUT.json --label L --src SRC`` (``benchlib.main``).  Each run is a fresh
process.  Over ``PAIRS`` pairs the trees run in the order A B, B A, A B,
..., so neither side always runs first; then tree A runs twice more, the
A/A pair, which shows how far two runs of one tree drift apart.

For every time the script reports (a number under a key ending in ``_s``,
at any depth of its results; lower is better), OUT.json gets under the
label: each tree's median and quartiles over its paired runs, in seconds;
how many pairs B won (took less time than A in the same pair; ties count
for neither); B's median relative to A's; and the A/A spread, the second
A/A run relative to the first.  Every other value (reports, counts) should
be the same in every run of both trees: the first A run's values are kept,
and the keys of any value that differs in some run are listed under
``values_differ``.  The results go in through ``benchlib.add``.
"""

from __future__ import annotations

import argparse
import io
import json
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


def run(bench: Path, src: Path, workdir: Path) -> dict:
    """One run of the bench script on the tree, in a fresh process."""
    out = workdir / "run.json"
    out.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(bench), str(out), "--label", "run", "--src", str(src)],
                   check=True, stdout=subprocess.DEVNULL)
    return flattened(json.loads(out.read_text())["run"])


def is_time(key: str, value) -> bool:
    return key.endswith("_s") and isinstance(value, (int, float)) and not isinstance(value, bool)


def quartiles(times: list) -> list:
    return statistics.quantiles(times, n=4, method="inclusive")[::2]


def summary(a: list, b: list, aa: tuple) -> dict:
    """One time's medians, quartiles, B's wins and the A/A spread."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    return {"a_median": a_median, "a_quartiles": quartiles(a),
            "b_median": b_median, "b_quartiles": quartiles(b),
            "b_wins": sum(y < x for x, y in zip(a, b)),
            "b_relative": b_median / a_median - 1 if a_median else None,
            "aa_spread": aa[1] / aa[0] - 1 if aa[0] else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to add the results to")
    parser.add_argument("bench", type=Path, help="the bench script to run")
    parser.add_argument("--a", required=True,
                        help="source tree A (the baseline): a directory or a git ref")
    parser.add_argument("--b", required=True, help="source tree B: a directory or a git ref")
    parser.add_argument("--label", required=True, help="name the results go under")
    args = parser.parse_args(argv)
    runs: dict = {"a": [], "b": []}
    order = []
    with tempfile.TemporaryDirectory() as workdir:
        trees = {side: source_tree(spec, Path(workdir) / side)
                 for side, spec in (("a", args.a), ("b", args.b))}
        for i in range(PAIRS):
            for side in ("ab" if i % 2 == 0 else "ba"):
                runs[side].append(run(args.bench, trees[side], Path(workdir)))
                order.append(side)
            print(f"pair {i + 1} of {PAIRS} done", file=sys.stderr)
        aa = [run(args.bench, trees["a"], Path(workdir)) for _ in range(2)]
    first = runs["a"][0]
    times = [key for key, value in first.items() if is_time(key, value)]
    values = {key: value for key, value in first.items() if key not in times}
    differ = sorted({key for r in runs["a"] + runs["b"] + aa
                     for key in set(r) | set(first) if r.get(key) != first.get(key)
                     and key not in times})
    results = {"bench": args.bench.name, "pairs": PAIRS,
               "order": "".join(order).upper() + " AA",
               "times": {key: summary([r[key] for r in runs["a"]], [r[key] for r in runs["b"]],
                                      (aa[0][key], aa[1][key]))
                         for key in times},
               "values": values, "values_differ": differ}
    added = add(args.out, args.label, results)
    print(json.dumps({key: added[key] for key in ("order", "times", "values_differ")}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
