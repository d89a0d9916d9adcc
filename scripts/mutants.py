"""Mutation checks: each mutant in ``MUTANTS`` swaps one text of one source
file for another, and the tests it names must then fail.

    python3 scripts/mutants.py

A mutant is applied in a temporary full copy of the repository's ``src``,
``tests`` and ``pyproject.toml``, and its tests run there under pytest.  A
whole copy is needed: pytest's ``pythonpath = ["src"]`` comes ahead of
``PYTHONPATH``, so a mutated ``src`` handed to the repository's own tests
through ``PYTHONPATH`` would not be the code under test.  Each run records
which ``cascata`` its pytest session imported and checks that it is the
copy's.  A mutant is killed when its tests fail, and survives when they
pass.  The exit code is 0 when every mutant run is killed, 1 when one
survives, and 2 when a mutant cannot be applied (its old text does not
occur exactly once), the session imported another ``cascata``, or pytest
ended in an error.  A survivor is a finding to report, not an entry to
drop.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in ``file``
    new: str
    tests: tuple  # pytest arguments, relative to the repository root


MUTANTS = (
    Mutant("member-cache-keyed-by-choice-alone", "src/cascata/cascade.py",
           "built = self._built[part]", "built = self._built[0]",
           ("tests/test_cascade.py",)),
    Mutant("member-cache-last-writer-wins", "src/cascata/cascade.py",
           "comp = built.setdefault(choice, _part_component(",
           "comp = built[choice] = (_part_component(",
           ("tests/test_cascade.py::test_threads_racing_on_one_class_get_the_same_members",)),
    Mutant("iteration-builds-its-own-components", "src/cascata/cascade.py",
           "[self._component(part, choice) for choice in range(radix)]",
           "[_part_component(self._alphabets[part], self._specs[part],"
           " self._specs[part][\"input_class\"].member(choice)) for choice in range(radix)]",
           ("tests/test_cascade.py",)),
    Mutant("automaton-accepts-an-overriding-subclass", "src/cascata/cascade.py",
           "if (type(owner) is Cascade or type(owner) is FlatAutomaton) and fn == owner.run:",
           "if isinstance(owner, (Cascade, FlatAutomaton)) and fn == owner.run:",
           ("tests/test_run_many.py::test_only_automata_and_their_bound_run_are_batched",)),
    Mutant("trace-token-takes-the-first-match", "src/cascata/cli.py",
           "matches = [v for v in coord.values if str(v) == part]",
           "matches = [v for v in coord.values if str(v) == part][:1]",
           ("tests/test_specfile_cli.py::test_cli_run_rejects_a_token_that_names_two_values",
            "tests/test_specfile_cli.py::"
            "test_cli_learn_rejects_a_trace_token_that_names_two_values")),
    Mutant("chained-coordinate-in-any-order", "src/cascata/cascade.py",
           "if tuple(extra.values) != prev.outputs:",
           "if set(extra.values) != set(prev.outputs):",
           ("tests/test_stepping.py",)),
    Mutant("place-values-reversed", "src/cascata/alphabets.py",
           "for i in range(len(counts)))", "for i in reversed(range(len(counts))))",
           ("tests/test_wiring_weights.py",)),
    Mutant("wiring-weights-reversed", "src/cascata/cascade.py",
           "zip(comp.dependencies.indices, comp.projected.place_values)",
           "zip(comp.dependencies.indices, reversed(comp.projected.place_values))",
           ("tests/test_wiring_weights.py",)),
    Mutant("chained-weight-of-the-coordinate-before", "src/cascata/cascade.py",
           "weights[row_wiring, j], ancestors[j - base]",
           "weights[row_wiring, j - 1], ancestors[j - base]",
           ("tests/test_stacked_outputs.py",)),
    Mutant("product-tables-read-external-coordinates-only", "src/cascata/cascade.py",
           "for code, weight in zip(codes, wiring.weights):",
           "for code, weight in zip(codes[:len(letter_codes.T)], wiring.weights):",
           ("tests/test_flatten.py",)),
    Mutant("dnf-term-hit-on-overlap", "src/cascata/alphabets.py",
           "any(term & mask == term for term in self.terms)",
           "any(term & mask for term in self.terms)",
           ("tests/test_letter_reader.py",)),
    Mutant("table-reader-reads-the-first-member", "src/cascata/alphabets.py",
           "return [f.values[i] for f in functions]",
           "return [first.values[i] for f in functions]",
           ("tests/test_letter_reader.py",)),
    Mutant("minimize-rekeys-changed-states-as-whole-blocks", "src/cascata/automata.py",
           "keep = size[home] == 0", "keep = size[home] >= 0",
           ("tests/test_minimize.py",)),
    Mutant("equivalent-takes-a-partner-mismatch-as-seen", "src/cascata/automata.py",
           "unseen = partner[to_major] != to_minor", "unseen = partner[to_major] < 0",
           ("tests/test_equivalence.py",)),
    Mutant("slot-order-skips-the-last-coordinate", "src/cascata/specfile.py",
           "all(map(operator.eq, map(tuple, values), letters))",
           "all(map(operator.eq, (tuple(v[:-1]) for v in values),"
           " (letter[:-1] for letter in letters)))",
           ("tests/test_spec_rows.py",)),
)

# A pytest plugin, written into the copy, that records where the session's
# ``cascata`` comes from.
PROBE = '''
def pytest_sessionstart(session):
    import os
    import cascata
    with open(os.path.join(os.path.dirname(__file__), "imported.txt"), "w") as f:
        f.write(os.path.dirname(os.path.realpath(cascata.__file__)))
'''


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    return (root / mutant.file).read_text().count(mutant.old)


def run(mutant: Mutant) -> tuple[str, str]:
    """("killed" | "survived" | "error", what pytest or the check said)."""
    with tempfile.TemporaryDirectory(prefix="cascata-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if occurrences(mutant, copy) != 1:
            return "error", f"{mutant.file}: the old text does not occur exactly once"
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        (copy / "mutant_probe.py").write_text(PROBE)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-p", "mutant_probe", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
        imported = copy / "imported.txt"
        expected = os.path.realpath(copy / "src" / "cascata")
        if not imported.exists() or imported.read_text() != expected:
            found = imported.read_text() if imported.exists() else "nothing"
            return "error", f"the tests imported cascata from {found}, not {expected}"
        tail = (done.stdout.strip().splitlines() or [""])[-1]
        if done.returncode == 1:
            return "killed", tail
        if done.returncode == 0:
            return "survived", tail
        return "error", f"pytest exited {done.returncode}: {tail}\n{done.stderr[-2000:]}"


def main() -> int:
    verdicts = []
    for m in MUTANTS:
        verdict, detail = run(m)
        verdicts.append(verdict)
        print(f"{verdict:8} {m.name}: {detail}", flush=True)
    return 2 if "error" in verdicts else 1 if "survived" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
