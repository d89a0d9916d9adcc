"""Benchmark for cascata: four seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py                    # every workload, one fresh process each
    python3 perfbench/run.py --workload trace-run --seed 3 --seconds 10 --trace 0

The workloads, the metrics, their units and the run length are read from
BENCHMARK.json beside the ``perfbench`` directory, and cascata is imported
from the ``src`` directory there.  A single-workload run prints the
environment, the seed, the operation counts and each metric with its unit,
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark also runs in exported trees that have no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit()}


def import_cascata() -> None:
    """Import cascata from this tree's ``src``, never from elsewhere."""
    if not (SRC / "cascata" / "__init__.py").is_file():
        raise ImportError(f"no cascata sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cascata

    if SRC not in Path(cascata.__file__).resolve().parents:
        raise ImportError(f"cascata was imported from {cascata.__file__}, not {SRC}")


def run_one(config: dict, name: str, seed: int, seconds: int, trace: bool) -> int:
    import resource

    import perf_workloads as wl

    tally = wl.Tally()
    workload = wl.WORKLOADS[name]()
    slowdown = None
    if trace:
        wanted = config["per_layer"]
        metrics, samples = wl.measure_traced(workload, seed, tally, seconds)
        unknown = set(metrics) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError(f"traced metrics missing from BENCHMARK.json: {sorted(unknown)}")
    else:
        wanted = config["end_to_end"]
        setup_s, values, slowdown = wl.measure(workload, wl.side_stages(workload), seed, tally,
                                               seconds)
        samples = {name: len(v) for name, v in values.items()}
        metrics = {name: median(v) for name, v in values.items()}
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("env " + json.dumps(environment()))
    print("workload " + json.dumps({"name": name, "seed": seed, "seconds": seconds,
                                    "trace": int(trace), "attempted": tally.attempted,
                                    "failed": tally.failed, "samples": samples,
                                    "host_slowdown": slowdown}))
    result = {}
    for m in wanted:
        value = float(metrics.get(m["name"], 0.0))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


def run_all(config: dict, seed: int, seconds: int, trace: bool) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    status = 0
    for w in config["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {w['name']}: {w['why']}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"] or result["failed"]:
            print(f"== {w['name']} FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.dont_write_bytecode = True
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in config["workloads"]],
                        help="one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_cascata()
    except ImportError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(config, args.seed, args.seconds, bool(args.trace))
    return run_one(config, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
