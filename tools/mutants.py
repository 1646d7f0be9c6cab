"""Run a fixed list of reviewed source mutants against the tests meant to
kill them.

    python3 tools/mutants.py

Each mutant replaces one exact piece of text in one file of `src/augrank`.
For each, the repository is copied to a temporary directory, the mutant is
applied to the copy and the mutant's tests (files, or single tests by
their pytest node ids) are run there with `pytest -x`. A mutant is killed
when the tests fail (or time out) and survives when they pass. A survivor
named in ALLOWED, with the reason it behaves as the original code does,
is reported as equivalent. First the union of the mutants' tests runs on
an unmutated copy, which must pass, so that a kill is the mutant's doing.

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
    tests: tuple[str, ...]  # test files or pytest node ids


_CLI = "tests/test_cli.py"
_CORPUS_IO = "tests/test_corpus_io.py"
_EVALUATION = "tests/test_evaluation.py"
_RERANK = "tests/test_rerank.py"


MUTANTS = (
    Mutant(
        "prune-margin-one",
        "src/augrank/index.py",
        "_PRUNE_MARGIN = 1.0 - 1e-9",
        "_PRUNE_MARGIN = 1.0",
        ("tests/test_index.py",),
    ),
    # A repeated query term counted once, in each phase that adds it.
    Mutant(
        "impact-multiplicity-dropped-admitting",
        "src/augrank/index.py",
        "get(pid, 0.0) + m * impact",
        "get(pid, 0.0) + impact",
        ("tests/test_index.py",),
    ),
    Mutant(
        "impact-multiplicity-dropped-held",
        "src/augrank/index.py",
        "scores[pid] += times * impacts[pid]",
        "scores[pid] += impacts[pid]",
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
    # The record layer checks a valid file or list in bulk; each bulk check
    # has a mutant, killed by the named test.
    Mutant(
        "ranked-list-nan-pass-dropped",
        "src/augrank/corpus_io.py",
        "math.isnan(sum(scores))",
        "False",
        (f"{_CORPUS_IO}::TestRankedListInvariants::test_nan_score",),
    ),
    Mutant(
        "ranked-list-order-ascending",
        "src/augrank/corpus_io.py",
        "sorted(scores, reverse=True) != scores",
        "sorted(scores) != scores",
        (f"{_CORPUS_IO}::TestRankedListInvariants::test_unsorted_entries",),
    ),
    Mutant(
        "ranked-list-repeat-pass-dropped",
        "src/augrank/corpus_io.py",
        "len(scores) != len(entries)",
        "False",
        (f"{_CORPUS_IO}::TestRankedListInvariants::test_duplicate_passage",),
    ),
    Mutant(
        "ranked-list-entry-loop-always",
        "src/augrank/corpus_io.py",
        "len(scores) != len(entries)",
        "True",
        (f"{_CORPUS_IO}::TestRankedListInvariants::test_a_valid_list_is_checked_without_the_entry_loop",),
    ),
    Mutant(
        "run-rank-sort-dropped",
        "src/augrank/corpus_io.py",
        "        rows.sort(key=_rank)\n",
        "",
        (f"{_CORPUS_IO}::TestParseRun::test_tie_broken_by_given_rank_not_by_file_order",),
    ),
    Mutant(
        "run-numbers-with-underscore",
        "src/augrank/corpus_io.py",
        'if not numbers.isascii() or "_" in numbers:',
        "if not numbers.isascii():",
        (f"{_CORPUS_IO}::TestParseRun::test_rank_must_be_plain_ascii_at_its_line",),
    ),
    Mutant(
        "run-infinite-score-read",
        "src/augrank/corpus_io.py",
        "            if not math.isfinite(score):\n                raise ValueError(score_str)\n",
        "",
        (f"{_CORPUS_IO}::TestParseRun::test_infinite_score_rejected_at_its_line",),
    ),
    Mutant(
        "record-trailing-data-accepted",
        "src/augrank/corpus_io.py",
        "if end != len(line):",
        "if end < 0:",
        (f"{_CORPUS_IO}::TestLoadCorpus::test_a_line_that_is_not_one_json_value_is_refused",),
    ),
    # Each refusal or waste check below has a mutant, killed by the named test.
    Mutant(
        "fuse-eager-empty-default",
        "src/augrank/cli.py",
        "dense.get(qid) or RankedList(qid, ())",
        "dense.get(qid, RankedList(qid, ()))",
        (f"{_CLI}::TestFuseCommand::test_an_empty_list_is_built_only_for_a_query_one_run_lacks",),
    ),
    Mutant(
        "config-self-key-crashes",
        "src/augrank/cli.py",
        "def __init__(self, /, **values: object):",
        "def __init__(self, **values: object):",
        (f"{_CLI}::TestPipeline::test_unknown_or_missing_config_field_is_a_validation_error",),
    ),
    Mutant(
        "per-query-repeat-accepted",
        "src/augrank/cli.py",
        "if qid in per_query:",
        "if False:",
        (f"{_CLI}::TestEvalAndCompareCommands::"
         "test_repeated_per_query_report_row_is_a_conflict_at_its_line",),
    ),
    Mutant(
        "expansion-repeat-accepted",
        "src/augrank/augment.py",
        "if qid in expansions:",
        "if False:",
        ("tests/test_augment.py::TestExpansionFile::"
         "test_repeated_query_is_a_conflict_at_its_line",),
    ),
    Mutant(
        "snippet-rank-zero-accepted",
        "src/augrank/corpus_io.py",
        "rank < 1",
        "rank < 0",
        (f"{_CLI}::TestExitCodes::test_loader_errors_name_the_file",),
    ),
    # A compensated sum at each float-sum site; the pinned bits kill it, as
    # they would the builtin `sum` of Python 3.12 and later.
    Mutant(
        "report-mean-fsum",
        "src/augrank/evaluation.py",
        "{t: _left_sum(row[t] for row in rows)",
        "{t: math.fsum(row[t] for row in rows)",
        (f"{_EVALUATION}::TestLeftToRightSums::test_report_mean",),
    ),
    Mutant(
        "ndcg-fsum",
        "src/augrank/evaluation.py",
        "    idcg = _left_sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))\n"
        "    if idcg == 0.0:\n        return 0.0\n    dcg = _left_sum(\n",
        "    idcg = math.fsum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))\n"
        "    if idcg == 0.0:\n        return 0.0\n    dcg = math.fsum(\n",
        (f"{_EVALUATION}::TestLeftToRightSums::test_ndcg",),
    ),
    Mutant(
        "t-test-fsum",
        "src/augrank/evaluation.py",
        "mean = _left_sum(diffs) / n\n    variance = _left_sum(",
        "mean = math.fsum(diffs) / n\n    variance = math.fsum(",
        (f"{_EVALUATION}::TestLeftToRightSums::test_paired_t_test",),
    ),
    # Each tie-break reversed: the scores keep their order, ties do not.
    Mutant(
        "bm25-ties-by-descending-id",
        "src/augrank/index.py",
        "sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))",
        "sorted(exact.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)",
        ("tests/test_index.py",),
    ),
    Mutant(
        "rerank-ties-by-descending-rank",
        "src/augrank/rerank.py",
        "key=lambda i: (-scores[i], i)",
        "key=lambda i: (-scores[i], -i)",
        ("tests/test_rerank.py",),
    ),
    Mutant(
        "fuse-ties-by-descending-id",
        "src/augrank/index.py",
        "fused.sort(key=lambda e: (-e[1], e[0]))",
        "fused.sort(key=lambda e: (e[1], e[0]), reverse=True)",
        ("tests/test_index.py",),
    ),
    # Each metric's cutoff one rank too deep.
    Mutant(
        "success-cutoff-k-plus-one",
        "src/augrank/evaluation.py",
        "for pid, _ in ranked.entries[:k]) else 0.0",
        "for pid, _ in ranked.entries[: k + 1]) else 0.0",
        (_EVALUATION,),
    ),
    Mutant(
        "mrr-cutoff-k-plus-one",
        "src/augrank/evaluation.py",
        "enumerate(ranked.entries[:k], start=1):",
        "enumerate(ranked.entries[: k + 1], start=1):",
        (_EVALUATION,),
    ),
    Mutant(
        "ndcg-cutoff-k-plus-one",
        "src/augrank/evaluation.py",
        "enumerate(ranked.entries[:k], start=1)\n",
        "enumerate(ranked.entries[: k + 1], start=1)\n",
        (_EVALUATION,),
    ),
    # The remote scorer's transport: each rule of when a connection is
    # reused, a reply is final, or a request is sent again.
    Mutant(
        "transport-retry-on-new-connection",
        "src/augrank/_http.py",
        "if not reused:\n                raise",
        "if False:\n                raise",
        (f"{_RERANK}::TestRemoteConnection::test_hangup_on_a_new_connection_names_the_batch",),
    ),
    Mutant(
        "transport-every-1xx-interim",
        "src/augrank/_http.py",
        "if status != 100:",
        "if status >= 200:",
        (f"{_RERANK}::TestWireFormat::test_switching_protocols_is_a_status_error",),
    ),
    Mutant(
        "transport-http10-kept-open",
        "src/augrank/_http.py",
        'keep = b"keep-alive" in connection',
        'keep = True or b"keep-alive" in connection',
        (f"{_RERANK}::TestWireFormat::test_connection_stays_open_only_when_the_reply_allows",),
    ),
    # Re-ranker inputs are escaped once per call into pieces that the
    # request bodies and inputs.jsonl share: each memo key, the one (UTF-8)
    # form of a piece and the refusal of text UTF-8 cannot hold.
    Mutant(
        "document-ascii-form",
        "src/augrank/rerank.py",
        "document = _json_string(item.document, item.query_id)[1:-1]",
        "document = json.dumps(item.document)[1:-1]",
        (f"{_RERANK}::TestRendering::test_request_bodies_are_json_dumps_of_the_sequences",
         f"{_CLI}::TestRerankInputsFile::test_remote_bodies_and_lines_are_json_dumps"),
    ),
    Mutant(
        "lone-surrogate-unchecked",
        "src/augrank/rerank.py",
        "if _holds_lone_surrogate(text):",
        "if False:",
        (f"{_RERANK}::TestRendering::test_lone_surrogate_is_refused_before_any_request_or_line",),
    ),
    Mutant(
        "document-memo-by-passage-id",
        "src/augrank/rerank.py",
        "documents.get(item.document)\n        if document is None:\n"
        "            document = _json_string(item.document, item.query_id)[1:-1]\n"
        "            documents[item.document]",
        "documents.get(item.passage_id)\n        if document is None:\n"
        "            document = _json_string(item.document, item.query_id)[1:-1]\n"
        "            documents[item.passage_id]",
        (f"{_RERANK}::TestRendering::test_one_passage_id_with_two_documents_renders_each",),
    ),
    Mutant(
        "head-memo-without-description",
        "src/augrank/rerank.py",
        "head_key = (item.query, item.description)",
        "head_key = item.query",
        (f"{_RERANK}::TestRendering::test_one_query_text_with_two_descriptions_renders_each",),
    ),
    Mutant(
        "pieces-escaped-again",
        "src/augrank/rerank.py",
        "        if item._escaped is not None:\n            continue\n",
        "",
        (f"{_CLI}::TestRerankInputsFile::"
         "test_each_distinct_head_and_document_escaped_once_per_call",),
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
