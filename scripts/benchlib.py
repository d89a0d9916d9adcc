"""What the bench scripts share: a timer, their command line (``OUT.json``,
``--label``, ``--src``) and adding one label's results to ``OUT.json``
(``add``, which the paired runner ``benchpair.py`` uses too)."""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed(fn, *args, **kwargs) -> tuple[object, float]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def add(out: Path, label: str, results: dict) -> dict:
    """Add ``results`` to OUT.json under the label, beside those of other
    labels, after the Python and numpy versions and the CPU count; return
    what was added."""
    import numpy

    bench = json.loads(out.read_text()) if out.exists() else {}
    bench[label] = {"python": platform.python_version(), "numpy": numpy.__version__,
                    "nproc": len(os.sched_getaffinity(0)), **results}
    out.write_text(json.dumps(bench, indent=2) + "\n")
    return bench[label]


def main(doc: str, measure, argv=None) -> int:
    """Read the command line, put the ``--src`` tree first on ``sys.path``,
    add ``measure()``'s results to OUT.json under the label and print
    them."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to add the results to")
    parser.add_argument("--label", required=True, help="name the results go under")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the cascata source tree to time (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps({args.label: add(args.out, args.label, measure())}, indent=2))
    return 0
