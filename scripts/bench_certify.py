"""Timings of the certification layers: iterating the sequence-task
families, the growth and VC searches on the d=2 and d=3 families, and the
searches of one certify-d2 round.

    python3 scripts/bench_certify.py OUT.json --label change
    python3 scripts/bench_certify.py OUT.json --label parent --src ../parent/src

It times:

- ``iterate``: ``list(SequenceTaskFamily(d))`` for d = 2 and 3, on a fresh
  family per call, so that every call builds the components, with the
  number of distinct component objects its members hold, which is the
  number of components built;
- ``member``: ``SequenceTaskFamily(d).member(i)`` for d = 3 and 4 at a
  fixed index (``MEMBER_INDEX``): the first call on each of
  ``MEMBER_FRESH`` fresh families, then ``MEMBER_REPEATS`` calls on one
  family, with the number of distinct component objects that those calls'
  members hold, which is the number of components they built;
- ``vc_dimension``: the d=2 family's 68 members on its 14 strings of 1..3
  letters, as the certify-d2 round searches them;
- ``empirical_growth``: the same members and strings, exact, at
  ell = 1, 2, 3;
- the same two searches on the d=3 family's 20,288 members and its 39
  strings of 1..3 letters: ``empirical_growth`` at ell = 1, where reading
  the output matrix is nearly all the work, and ``vc_dimension`` under the
  default cap, which stops after size 1;
- ``round_d2``: the searches of one certify-d2 round, in its order, on one
  iterated d=2 member list: per ell = 1, 2, 3, ``empirical_growth``
  on the members, then on the watcher and goal classes' members over their
  letters at ell x 3 points (the round's input growths); then
  ``class_dimension`` of the watcher and goal classes and ``vc_dimension``
  on the members.

Every input is fixed and the searches are exhaustive, so nothing is drawn.
Each time is the median of ``ITERATE_REPEATS[d]`` calls for the iteration,
``SEARCH_REPEATS[d]`` for the searches, ``ROUND_REPEATS`` for the round and
``MEMBER_FRESH`` or ``MEMBER_REPEATS`` for the member rows.
A d=2 row's call takes 0.4-3 ms on a shared 2-CPU host, so its calls are
enough to span at least about 0.1 s of one process, and a d=3 row's calls
span at least about 0.5 s: a median of fewer drifts from process to
process by more than most changes move it.  Each search call and each
round runs on a new ``list(family)`` of one family, and so reads its
members' outputs afresh, as the certify-d2 round does.  Every report is
kept beside its time, so two labels' reports can be compared.
The results go into OUT.json under the label (``benchlib.main``).  Only
cascata's public API is called, so the script runs against older sources
(``--src``) too.
"""

from __future__ import annotations

import itertools
import statistics
import sys

from benchlib import main, timed

ITERATE_REPEATS = {2: 300, 3: 10}
SEARCH_REPEATS = {2: 300, 3: 8}
ROUND_REPEATS = 80
MEMBER_INDEX = {3: 4432, 4: 12_345_678}
MEMBER_FRESH = 200
MEMBER_REPEATS = 2000
ELLS = {2: (1, 2, 3), 3: (1,)}
MAX_LEN = 3


def bench_iterate(d: int) -> dict:
    from cascata.crafting import SequenceTaskFamily

    runs = [timed(lambda: list(SequenceTaskFamily(d))) for _ in range(ITERATE_REPEATS[d])]
    members = runs[0][0]
    return {"members": len(members),
            "components_built": len({id(c) for m in members for c in m.components}),
            "iterate_s": statistics.median(t for _, t in runs)}


def bench_member(d: int) -> dict:
    from cascata.crafting import SequenceTaskFamily

    index = MEMBER_INDEX[d]
    first = [timed(SequenceTaskFamily(d).member, index)[1] for _ in range(MEMBER_FRESH)]
    family = SequenceTaskFamily(d)
    runs = [timed(family.member, index) for _ in range(MEMBER_REPEATS)]
    return {"index": index, "first_s": statistics.median(first),
            "repeat_s": statistics.median(t for _, t in runs),
            "components_built": len({id(c) for m, _ in runs for c in m.components})}


def bench_searches(d: int) -> dict:
    from cascata.complexity import empirical_growth, vc_dimension
    from cascata.crafting import SequenceTaskFamily

    family = SequenceTaskFamily(d)
    letters = list(family.external.letters())
    universe = [s for n in range(1, MAX_LEN + 1) for s in itertools.product(letters, repeat=n)]
    searches = {"vc_dimension": lambda members: vc_dimension(members, universe)}
    for ell in ELLS[d]:
        searches[f"empirical_growth_ell{ell}"] = (
            lambda members, ell=ell: empirical_growth(members, universe, ell, mode="exact"))
    result = {"universe": len(universe)}
    for name, search in searches.items():
        runs = [timed(search, list(family)) for _ in range(SEARCH_REPEATS[d])]
        result[f"{name}_s"] = statistics.median(t for _, t in runs)
        result[f"{name}_report"] = runs[0][0]._asdict()
    return result


def bench_round() -> dict:
    from cascata.complexity import class_dimension, empirical_growth, vc_dimension
    from cascata.crafting import SequenceTaskFamily

    family = SequenceTaskFamily(2)
    letters = list(family.external.letters())
    goal_letters = list(family.goal_class.signature.letters())
    universe = [s for n in range(1, MAX_LEN + 1) for s in itertools.product(letters, repeat=n)]
    outputs = ("set", "read")

    def certify_round(members) -> dict:
        watchers, goals = list(family.watcher_class), list(family.goal_class)
        reports = {}
        for ell in ELLS[2]:
            reports[f"growth_ell{ell}"] = empirical_growth(members, universe, ell, mode="exact")
            n = ell * MAX_LEN
            reports[f"watcher_growth_{n}"] = empirical_growth(watchers, letters, n, mode="exact")
            reports[f"goal_growth_{n}"] = empirical_growth(goals, goal_letters, n, mode="exact")
        reports["watcher_dimension"] = class_dimension(watchers, letters, outputs)
        reports["goal_dimension"] = class_dimension(goals, goal_letters, outputs)
        reports["vc_dimension"] = vc_dimension(members, universe)
        return reports

    runs = [timed(certify_round, list(family)) for _ in range(ROUND_REPEATS)]
    return {"round_s": statistics.median(t for _, t in runs),
            **{f"{name}_report": report._asdict() for name, report in runs[0][0].items()}}


def measure() -> dict:
    return {"iterate_repeats": ITERATE_REPEATS, "search_repeats": SEARCH_REPEATS,
            "round_repeats": ROUND_REPEATS,
            **{f"iterate_d{d}": bench_iterate(d) for d in ITERATE_REPEATS},
            "member_fresh": MEMBER_FRESH, "member_repeats": MEMBER_REPEATS,
            **{f"member_d{d}": bench_member(d) for d in MEMBER_INDEX},
            **{f"search_d{d}": bench_searches(d) for d in SEARCH_REPEATS},
            "round_d2": bench_round()}


if __name__ == "__main__":
    sys.exit(main(__doc__, measure))
