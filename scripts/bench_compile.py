"""Timings of the compile path behind ``cascata minimize``: reading the
counter spec, flattening, minimizing, the equivalence check and
serialization, at moduli 16, 40 and 62.

    python3 scripts/bench_compile.py OUT.json --label change
    python3 scripts/bench_compile.py OUT.json --label parent --src ../parent/src

Per modulus, the counter scenario (``build_counter_task_cascade`` with the
thresholds in ``MODULI``) is written as a spec with ``cascade_to_spec`` and
its JSON text parsed once with ``json.loads``; then it times:

- ``cascade_from_spec`` on the parsed spec;
- ``flatten`` of that cascade;
- ``minimize`` of the flat automaton;
- ``equivalent``: the minimal automaton against the flat one, as
  perfbench's counter-compile round checks it;
- ``to_dict`` of the minimal automaton.

Each row is the median of ``REPEATS[modulus]`` calls, each after
``gc.collect()``, and the stages of one repeat run in the order above, on
a spec parsed afresh; the parsed spec and the cascade are dropped once
read, and ``to_dict``'s result at once.  The flat and minimal state counts
(16,384 → 8,193, 256,000 → 128,001 and 953,312 → 476,657) and the
equivalence verdict are kept beside the times, so two labels' results can
be compared.  ``minimize_traced_peak_mb`` is the most memory one more,
untimed ``minimize`` call held at once beyond its input, as
``tracemalloc`` counts it (numpy's arrays included), and ``peak_rss_mb``
the process's peak resident set after the modulus: at 62 about 1.4 GB,
which the parsed spec and ``to_dict``'s 5.7 million tuples set.
The results go into OUT.json under the label (``benchlib.main``).  Only
cascata's public API is called, so the script runs against older sources
(``--src``) too.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import tracemalloc

from benchlib import main, timed

#: modulus -> the (wood, iron, steel) thresholds of its counter scenario
MODULI = {16: (13, 5, 7), 40: (37, 29, 31), 62: (37, 29, 31)}
REPEATS = {16: 9, 40: 3, 62: 1}


def bench_modulus(modulus: int) -> dict:
    from cascata.crafting import build_counter_task_cascade
    from cascata.specfile import cascade_from_spec, cascade_to_spec

    text = json.dumps(cascade_to_spec(build_counter_task_cascade(modulus, *MODULI[modulus])))
    times: dict = {"cascade_from_spec_s": [], "flatten_s": [], "minimize_s": [],
                   "equivalent_s": [], "to_dict_s": []}

    def stage(name, fn, *args):
        gc.collect()
        result, seconds = timed(fn, *args)
        times[name].append(seconds)
        return result

    for _ in range(REPEATS[modulus]):
        spec = json.loads(text)
        cascade = stage("cascade_from_spec_s", cascade_from_spec, spec)
        del spec
        flat = stage("flatten_s", cascade.flatten)
        del cascade
        minimal = stage("minimize_s", flat.minimize)
        verdict = stage("equivalent_s", minimal.equivalent, flat)
        stage("to_dict_s", minimal.to_dict)
    gc.collect()
    tracemalloc.start()
    flat.minimize()
    minimize_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"flat_states": flat.n_states, "minimal_states": minimal.n_states,
            "equivalent": bool(verdict),
            **{name: statistics.median(values) for name, values in times.items()},
            "minimize_traced_peak_mb": minimize_peak / 2**20,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure() -> dict:
    return {"repeats": REPEATS, **{f"modulus_{m}": bench_modulus(m) for m in MODULI}}


if __name__ == "__main__":
    sys.exit(main(__doc__, measure))
