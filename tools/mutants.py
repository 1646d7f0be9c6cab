"""Run a fixed list of reviewed source mutants against the tests meant to
kill them.

    python3 tools/mutants.py

Each mutant replaces one exact piece of text in one file of `src/augrank`.
For each, the repository is copied to a temporary directory, the mutant is
applied to the copy and the mutant's test files are run there with
`pytest -x`. A mutant is killed when the tests fail (or time out) and
survives when they pass. A survivor named in ALLOWED, with the reason it
behaves as the original code does, is reported as equivalent. First the
union of the mutants' test files runs on an unmutated copy, which must
pass, so that a kill is the mutant's doing.

Exit status: 0 when every mutant is killed or equivalent; 1 when a mutant
survives that ALLOWED does not name; 2 when the unmutated tests fail,
pytest exits other than by passing or failing, or a mutant's text does
not occur exactly once in its file (the list must follow the code).

It imports only the standard library and runs pytest in a subprocess;
pytest collects `tests/` alone, so this is not part of the tier-1 suite. A change that claims bit-exactness adds the mutant its
new test kills. Mutation analysis: DeMillo, Lipton & Sayward (1978); Jia &
Harman, IEEE TSE (2011).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per test run; a mutant that loops forever is killed by it


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "prune-margin-one",
        "src/augrank/index.py",
        "_PRUNE_MARGIN = 1.0 - 1e-9",
        "_PRUNE_MARGIN = 1.0",
        ("tests/test_index.py",),
    ),
    Mutant(
        "nl-expansion-strict-bound",
        "src/augrank/augment.py",
        "if len(words) <= max_words:",
        "if len(words) < max_words:",
        ("tests/test_augment.py",),
    ),
    Mutant(
        "record-eq-compares-caches",
        "src/augrank/corpus_io.py",
        'return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")',
        "return tuple(getattr(self, name) for name in self.__slots__)",
        ("tests/test_corpus_io.py", "tests/test_index.py"),
    ),
    Mutant(
        "record-eq-skips-last-slot",
        "src/augrank/corpus_io.py",
        "return self._values() == other._values()",
        "return self._values()[:-1] == other._values()[:-1]",
        ("tests/test_corpus_io.py",),
    ),
    Mutant(
        "marker-strict-p01",
        "src/augrank/evaluation.py",
        'marker = "p01" if p <= 0.01 else',
        'marker = "p01" if p < 0.01 else',
        ("tests/test_evaluation.py",),
    ),
)

# Survivors that behave as the original code does, each with the reason.
ALLOWED = {
    "marker-strict-p01": "it differs only at a p of exactly 0.01, which no test input "
    "gives, so no test can tell it from the original",
}


def _copy_repository(target: Path) -> Path:
    copy = target / "repo"
    shutil.copytree(
        ROOT, copy,
        ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_work", ".hypothesis", ".pytest_cache"
        ),
    )
    return copy


def _run_tests(copy: Path, tests: tuple[str, ...]) -> str:
    """"passed" or "failed" when pytest ran `tests` in `copy` (a time-out
    counts as failed), else how pytest exited."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "failed"
    return {0: "passed", 1: "failed"}.get(result.returncode, f"pytest exit {result.returncode}")


def _apply(copy: Path, mutant: Mutant) -> bool:
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return True


def main() -> int:
    every_test = tuple(sorted({test for mutant in MUTANTS for test in mutant.tests}))
    with tempfile.TemporaryDirectory(prefix="augrank-mutants-") as scratch:
        outcome = _run_tests(_copy_repository(Path(scratch) / "clean"), every_test)
        if outcome != "passed":
            print(f"the unmutated tests did not pass ({outcome}): {' '.join(every_test)}")
            return 2
        status = 0
        for i, mutant in enumerate(MUTANTS):
            copy = _copy_repository(Path(scratch) / str(i))
            if not _apply(copy, mutant):
                print(f"stale     {mutant.name}: its text does not occur once in {mutant.path}")
                status = 2
                continue
            started = time.perf_counter()
            outcome = _run_tests(copy, mutant.tests)
            took = f"{time.perf_counter() - started:.1f} s"
            if outcome == "failed":
                print(f"killed    {mutant.name} ({took})")
            elif outcome != "passed":
                print(f"error     {mutant.name}: {outcome}")
                status = 2
            elif mutant.name in ALLOWED:
                print(f"equivalent {mutant.name} ({took}): {ALLOWED[mutant.name]}")
            else:
                print(f"SURVIVED  {mutant.name} ({took}): {mutant.path}: {mutant.new}")
                status = max(status, 1)
            shutil.rmtree(copy)
    return status


if __name__ == "__main__":
    sys.exit(main())
