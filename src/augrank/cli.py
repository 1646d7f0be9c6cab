"""Command-line entry point and the end-to-end experiment pipeline.

Subcommands: `index search`, `fuse`, `expand`, `rerank`, `trainset build`,
`eval`, `compare`, and `pipeline run --config <file>`; a stage run alone
takes the pipeline's code path (`index search` builds from `--corpus`).
Exit codes: 0 success, 1 usage error, 2 data error, 3 transport error.

`pipeline run` is driven by a flat JSON key-value config, checked in full
when it loads: `ExperimentConfig` takes its fields by name and checks each
value, as it does for a library caller; the loader reads only the file's
spellings (aliases, a comma-separated metric list). Six keys also take a flag
(--mode, --scorer, --scorer-address, --k for rerank_depth, --output-dir,
--baseline-run). It stages its artifacts in the output directory:
expansions.jsonl, inputs.jsonl, reranked.run, metrics.tsv, per_query.tsv,
and compare.tsv when a baseline run is configured. A successful run removes
an earlier run's expansions.jsonl or compare.tsv that it did not write
itself (mode `none`, or no baseline run). The core pipeline is
randomness-free: rerunning one config reproduces every artifact
byte-for-byte with the baseline scorer. Judged queries that got no
candidates are left out of the run and the means, and queries of a
supplied run that the query file lacks are left out of the run, as in
`rerank`; each kind is named in one stderr line, as `index search` names
queries without hits and `eval` judged queries missing from the run. A
supplied run's passage that the corpus lacks is a parse error naming the
run file and the first such line, raised by `parse_run` as it reads the run.

`ExperimentConfig` holds every retrieval, expansion, fusion, depth and
scorer default; the flags take theirs from it, and a subcommand checks its
settings by the config's rule (`_check_settings`) before it reads input.

`eval --metrics` and the `metrics` config key take the metric tokens that
`evaluation.metric_tokens` canonicalizes and checks, and default to
`ExperimentConfig.metrics`. A parse or duplicate-key error in an input
file names the file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from functools import cache, partial

from .augment import (
    Expansion,
    ExpansionMode,
    augment_query,
    load_expansions,
    write_expansions,
)
from .corpus_io import (
    Passage,
    Qrels,
    Query,
    RankedList,
    SnippetSource,
    _holds_lone_surrogate,
    _iter_lines,
    check_run_token,
    load_corpus,
    load_queries,
    load_snippet_cache,
    load_triples,
    parse_qrels,
    parse_run,
    plain_number,
    write_run,
)
from .errors import (
    ConflictError,
    ParseError,
    ToolkitError,
    TransportError,
    ValidationError,
    count_and_ids,
)
from .evaluation import (
    MetricReport,
    TTestResult,
    compare_runs,
    evaluate_run,
    metric_tokens,
)
from .index import (
    InvertedIndex,
    bm25_search,
    build_index,
    corpus_lm,
    fuse_runs,
)
from .index import estimate_corpus_lm  # noqa: F401  (not called; bench/traced_pipeline.py wraps it here)
from .rerank import (
    ScorerEndpoint,
    ScorerKind,
    head_inputs,
    input_records,
    rerank_topk,
    score_heads,
)
from .rerank import build_augmented_input, build_input  # noqa: F401  (not called; bench/traced_pipeline.py wraps them here)
from .trainset import balance_upsample, render_training_sequences

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only: importing typing slows every start-up
    from typing import TextIO, TypeVar

    T = TypeVar("T")

_MODE_ALIASES = {
    "none": "none",
    "nl": ExpansionMode.NATURAL_LANGUAGE.value,
    "natural_language": ExpansionMode.NATURAL_LANGUAGE.value,
    "terms": ExpansionMode.TOPICAL_TERMS.value,
    "topical_terms": ExpansionMode.TOPICAL_TERMS.value,
}
_SOURCE_ALIASES = {
    "serp": SnippetSource.WEB_SERP,
    "web_serp": SnippetSource.WEB_SERP,
    "wiki": SnippetSource.WIKI,
}
_SCORER_ALIASES = {"baseline": ScorerKind("lexical_baseline")} | {k.value: k for k in ScorerKind}


class UsageError(Exception):
    """Bad command-line flags; exits 1 (a config fault is a ValidationError, exit 2)."""


class StageError(ToolkitError):
    """Wraps a failure with the name of the pipeline stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def write_metric_report(report: MetricReport, out: TextIO) -> None:
    for token, mean in report.aggregate.items():
        out.write(f"{token}\t{mean:.4f}\n")
    out.write(f"queries\t{report.query_count}\n")
    out.write(f"unjudged\t{len(report.unjudged_query_ids)}\n")


def write_per_query_report(report: MetricReport, out: TextIO) -> None:
    tokens = list(report.aggregate)
    out.write("query_id\t" + "\t".join(tokens) + "\n")
    for qid in sorted(report.per_query):
        values = report.per_query[qid]
        out.write(qid + "\t" + "\t".join(f"{values[t]:.6f}" for t in tokens) + "\n")


def load_per_query_report(stream: Iterable[str] | str) -> MetricReport:
    """Read a per-query TSV back into a MetricReport (means recomputed).
    The header's metric tokens are read by `metric_tokens`, so a
    repeated, unknown or blank token is a ParseError at the header line.
    Each value is read by `plain_number`, as run scores are; a repeated
    query id is a ConflictError at its line."""
    rows = _iter_lines(stream)
    first = next(rows, None)
    if first is None:
        raise ParseError("empty per-query report")
    header = first[1].split("\t")
    if header[0] != "query_id":
        raise ParseError(f"bad per-query report header: {first[1]!r}", first[0])
    try:
        tokens = metric_tokens(header[1:])
    except ValidationError as exc:
        raise ParseError(f"per-query report header: {exc}", first[0]) from None
    if len(tokens) != len(header) - 1:
        raise ParseError(f"blank metric token in per-query report header: {first[1]!r}", first[0])
    per_query: dict[str, dict[str, float]] = {}
    for line_no, row in rows:
        cells = row.split("\t")
        if len(cells) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(cells)}", line_no)
        qid = cells[0]
        if qid in per_query:
            raise ConflictError(f"duplicate query id {qid!r}", line_no)
        try:
            values = [plain_number(float, v) for v in cells[1:]]
        except ValueError:
            raise ParseError(f"non-numeric metric value in row {row!r}", line_no) from None
        if not all(map(math.isfinite, values)):
            raise ParseError(f"non-finite metric value in row {row!r}", line_no)
        per_query[qid] = dict(zip(tokens, values))
    if not per_query:
        raise ParseError("per-query report has no data rows")
    return MetricReport(per_query)


def write_comparison(rows: Sequence[tuple[str, TTestResult]], out: TextIO) -> None:
    out.write("metric\tt\tdf\tp\tmean_diff\tmarker\n")
    for metric, result in rows:
        out.write(
            f"{metric}\t{result.t_statistic:.4f}\t{result.degrees_of_freedom}\t"
            f"{result.p_value:.6g}\t{result.mean_difference:.4f}\t{result.marker}\n"
        )


def _check_settings(**values: float) -> None:
    """The range rule of the config keys and numeric flags, by name:
    `fusion_alpha` is finite and >= 0, any other value >= 1."""
    for name, value in values.items():
        if name == "fusion_alpha" and not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"fusion alpha must be finite and >= 0, got {value!r}")
        if name != "fusion_alpha" and value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


class ExperimentConfig:
    """Everything `pipeline run` needs, loaded from a flat JSON object whose
    keys are these field names: the annotated names, taken by name only.
    A field with a class attribute is optional, and the attribute is its
    default: the one place a retrieval, expansion, fusion, depth, scorer or
    metric default is written; batch size and timeout are `ScorerEndpoint`'s.
    Every value is checked here, whatever the mode, and a fault is a
    ValidationError: an unknown or missing field, a value of the wrong type
    for its annotation (`_CONFIG_TYPES`), or one out of range. `mode`,
    `source` and `scorer` are taken by value, not by the file's spellings;
    `source` is kept as its SnippetSource, `metrics` as its `metric_tokens`,
    and `scorer` as the ScorerKind of `endpoint`, which is built once."""

    corpus: str
    queries: str
    qrels: str
    output_dir: str
    snippet_cache: str | None = None
    initial_run: str | None = None
    dense_run: str | None = None
    baseline_run: str | None = None
    fusion_alpha: float = 1.3
    mode: str = "none"
    max_snippets: int = 5
    source: SnippetSource = SnippetSource.WEB_SERP
    skip_direct_answers: bool = True
    max_words: int = 64
    max_terms: int = 64
    scorer: ScorerKind = _SCORER_ALIASES["baseline"]
    scorer_address: str | None = None
    batch_size: int = ScorerEndpoint.batch_size
    timeout: float = ScorerEndpoint.timeout
    rerank_depth: int = 100
    metrics: tuple[str, ...] = ("s@1", "s@5", "s@10", "s@20", "mrr@10", "ndcg@10", "map")
    run_tag: str = "augrank"

    def __init__(self, /, **values: object):
        fields = ExperimentConfig.__annotations__
        for name in values:
            if name not in fields:
                raise ValidationError(f"unknown key {name!r}")
        missing = [n for n in fields if n not in values and not hasattr(ExperimentConfig, n)]
        if missing:
            raise ValidationError(f"missing required keys: {', '.join(missing)}")
        for name, raw in values.items():
            try:
                setattr(self, name, _config_value(fields[name], raw))
            except ValueError as exc:
                raise ValidationError(f"{name} {exc}, got {raw!r}") from None
        self.metrics = metric_tokens(self.metrics)
        if self.mode not in ("none", *(m.value for m in ExpansionMode)):
            raise ValidationError(f"unknown expansion mode {self.mode!r}")
        if self.source not in tuple(SnippetSource):
            raise ValidationError(f"unknown snippet source {self.source!r}")
        self.source = SnippetSource(self.source)
        ints = {name: getattr(self, name) for name, kind in fields.items() if kind == "int"}
        _check_settings(fusion_alpha=self.fusion_alpha, **ints)
        check_run_token(self.run_tag, "run tag")
        if not self.output_dir or "\0" in self.output_dir:  # no directory has either name
            raise ValidationError(f"output_dir must name a directory, got {self.output_dir!r}")
        self.endpoint = ScorerEndpoint(
            self.scorer, self.scorer_address, self.batch_size, self.timeout
        )
        self.scorer = self.endpoint.kind


_INPUT_PATHS = (
    "corpus", "queries", "qrels", "snippet_cache", "initial_run", "dense_run", "baseline_run"
)
# The files `run_pipeline` writes into the output directory, in the order it
# names them.
_ARTIFACTS = (
    "expansions.jsonl", "inputs.jsonl", "reranked.run", "metrics.tsv", "per_query.tsv",
    "compare.tsv",
)


# What each ExperimentConfig field accepts, by its annotation, and how to say
# it. Numeric fields also take numeric strings, read by `plain_number`, and
# integral floats, but never booleans. The metric list holds strings only; a
# bare string is left for `metric_tokens` to refuse. The enum-valued fields
# take a string, which the constructor reads by value.
_CONFIG_TYPES: dict[str, tuple[type | tuple[type, ...], str]] = {
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string"),
    "SnippetSource": (str, "a string"),
    "ScorerKind": (str, "a string"),
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": (float, "a finite number"),
    "tuple[str, ...]": ((list, tuple, str), "a list of strings"),
}


def _config_value(annotation: str, raw: object) -> object:
    """`raw` as a value of a field with this annotation, or ValueError."""
    kind, what = _CONFIG_TYPES[annotation]
    if kind in (int, float):
        value = math.nan
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            with contextlib.suppress(OverflowError, ValueError):
                value = plain_number(float, raw) if isinstance(raw, str) else float(raw)
        if math.isfinite(value) and (kind is float or value.is_integer()):
            return kind(raw) if isinstance(raw, int) else kind(value)
    elif isinstance(raw, kind):
        if not isinstance(raw, (list, tuple)) or all(isinstance(t, str) for t in raw):
            return raw
    raise ValueError(f"must be {what}")


def load_experiment_config(path: str, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    """The ExperimentConfig of a flat JSON config file with CLI overrides
    applied; `ExperimentConfig` checks every key and value. Here only the
    file's spellings are read: a string with a lone surrogate is refused,
    `mode`, `source` and `scorer` take their aliases in any case, and
    `metrics` also takes a comma-separated string. Every input path must
    exist and must not be one of the artifacts the run writes into its
    output directory, which would be overwritten while it is read (or
    before), and the nearest existing path at or above `output_dir` must
    be a directory. Each fault is named after `config <path>: `."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ParseError(f"config {path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError:
            raise ParseError(f"config {path}: {_not_utf8(path)}") from None
    if not isinstance(data, dict):
        raise ParseError(f"config {path}: expected a JSON object")
    fields = ExperimentConfig.__annotations__
    for key, raw in data.items():
        if key in fields and isinstance(raw, str) and _holds_lone_surrogate(raw):
            raise ParseError(f"config {path}: {key} holds a lone surrogate")
    values = dict(data)
    values.update((key, raw) for key, raw in (overrides or {}).items() if raw is not None)
    for key, aliases in (
        ("mode", _MODE_ALIASES), ("source", _SOURCE_ALIASES), ("scorer", _SCORER_ALIASES)
    ):
        if isinstance(values.get(key), str):
            values[key] = aliases.get(values[key].lower(), values[key])
    if isinstance(values.get("metrics"), str):
        values["metrics"] = values["metrics"].split(",")
    try:
        cfg = ExperimentConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"config {path}: {exc}") from None
    existing = cfg.output_dir
    while existing and not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing or "."):
        raise ValidationError(f"config {path}: output_dir {cfg.output_dir!r} is not a directory")
    artifacts = {os.path.realpath(os.path.join(cfg.output_dir, name)) for name in _ARTIFACTS}
    for name in _INPUT_PATHS:
        value = getattr(cfg, name)
        if value is not None and not os.path.exists(value):
            raise ValidationError(f"config {path}: {name} {value!r} does not exist")
        if value is not None and os.path.realpath(value) in artifacts:
            raise ValidationError(f"config {path}: {name} {value!r} is one of the run's artifacts")
    return cfg


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except (ToolkitError, OSError) as exc:
        raise StageError(name, exc) from exc


# ---------------------------------------------------------------------------
# Stages shared by `pipeline run` and the subcommands


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _not_utf8(path: str) -> str:
    """Names the first line of the file at `path` that is not UTF-8. Reads
    the file again in binary, so call it only after decoding failed."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()  # the line ends text mode splits on
    for line_no, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"line {line_no}: not UTF-8 text ({exc.reason})"
    return "not UTF-8 text"


def _load(loader: Callable[[TextIO], T], path: str) -> T:
    """`loader` applied to the file at `path`; a parse or duplicate-key
    error, or text that is not UTF-8, names the file in front of its line."""
    with open(path, encoding="utf-8") as handle:
        try:
            return loader(handle)
        except (ParseError, ConflictError) as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        except UnicodeDecodeError:
            raise ParseError(f"{path}: {_not_utf8(path)}") from None


def _by_id(items):
    return {item.id: item for item in items}


def _read_run(path: str, corpus: Mapping[str, Passage] | None = None) -> dict[str, RankedList]:
    """The run at `path` by query id; given `corpus`, `parse_run` refuses a
    passage it lacks. `parse_run` is looked up when the run is read, so a
    wrapper on this module's name (bench/traced_pipeline.py) sees it."""
    return {ranked.query_id: ranked for ranked in _load(lambda h: parse_run(h, corpus), path)}


def _search(index: InvertedIndex, queries: Iterable[Query], k: int) -> dict[str, RankedList]:
    """BM25 top-k per query; a query with no hits gets no list."""
    lists = {}
    for query in queries:
        ranked = bm25_search(index, query, k)
        if ranked.entries:
            lists[query.id] = ranked
    return lists


def _warn_queries(query_ids: Sequence[str], what: str) -> None:
    """One stderr line: `what`, then the count and the first few ids."""
    if query_ids:
        print(f"warning: {what}: {count_and_ids(query_ids)}", file=sys.stderr)


def _warn_run_queries_missing(run: Mapping[str, RankedList], queries: Sequence[Query]) -> None:
    """Name the run's queries that the query file lacks: `_rerank` walks
    the query file, so it leaves them out."""
    query_ids = {q.id for q in queries}
    missing = [qid for qid in run if qid not in query_ids]
    _warn_queries(missing, "run queries missing from the query file, left out of the run")


def _fuse(
    dense: Mapping[str, RankedList], sparse: Mapping[str, RankedList], alpha: float
) -> dict[str, RankedList]:
    """dense + alpha * sparse for every query in either run, by query id."""
    return {
        qid: fuse_runs(
            dense.get(qid) or RankedList(qid, ()), sparse.get(qid) or RankedList(qid, ()), alpha
        )
        for qid in sorted(set(dense) | set(sparse))
    }


def _expand(
    queries: Sequence[Query], expand: Callable[[Query], Expansion], out_path: str | None
) -> dict[str, Expansion]:
    """Expand every query by `expand`, in query order, and write the
    expansions to `out_path` (stdout when None)."""
    expansions = [expand(query) for query in queries]
    with _open_out(out_path) as out:
        write_expansions(expansions, out)
    return {expansion.query_id: expansion for expansion in expansions}


def _rerank(
    queries: Iterable[Query],
    initial: Mapping[str, RankedList],
    corpus: Mapping[str, Passage],
    expansions: Mapping[str, Expansion],
    endpoint: ScorerEndpoint,
    k: int,
    tag: str,
    out_path: str | None,
    inputs_out: TextIO | None = None,
) -> list[RankedList]:
    """Rerank the top k of each query's initial list, in query order, and
    write the run with `tag` to `out_path` (stdout when None). Every head
    is scored in one `score_heads` call before any query is reranked; a
    query's scores depend only on its own candidates in the call. With
    `inputs_out`, each query's scorer inputs are also written there, in
    one write once it has been reranked, as one `input_records` call
    renders all the inputs that were scored."""
    heads = []
    for query in queries:
        ranked = initial.get(query.id)
        if ranked is not None and ranked.entries:
            expansion, depth = expansions.get(query.id), min(k, len(ranked.entries))
            inputs = head_inputs(ranked, corpus, query, expansion, depth)
            heads.append((query, ranked, expansion, depth, inputs))
    scores = score_heads([inputs for *_, inputs in heads], endpoint)
    if inputs_out is not None:
        lines = input_records([item for *_, inputs in heads for item in inputs])
        start = 0
    reranked = []
    for (query, ranked, expansion, depth, inputs), head_scores in zip(heads, scores):
        reranked.append(
            rerank_topk(ranked, corpus, query, expansion, endpoint, depth, head_scores)
        )
        if inputs_out is not None:
            inputs_out.write("".join(lines[start : start + len(inputs)]))
            start += len(inputs)
    with _open_out(out_path) as out:
        write_run(reranked, tag, out)
    return reranked


def _evaluate(
    lists: Sequence[RankedList],
    qrels: Qrels,
    metrics: Sequence[str],
    out_path: str | None,
    per_query_path: str | None,
) -> MetricReport:
    """Evaluate a run, write the aggregate report to `out_path` (stdout
    when None) and, given `per_query_path`, the per-query report there."""
    report = evaluate_run(lists, qrels, metrics)
    with _open_out(out_path) as out:
        write_metric_report(report, out)
    if per_query_path:
        with _open_out(per_query_path) as out:
            write_per_query_report(report, out)
    return report


def run_pipeline(cfg: ExperimentConfig) -> MetricReport:
    """index -> initial ranking -> (fusion) -> expansion -> rerank -> eval
    -> (compare). Returns the treatment metric report; artifacts land in
    cfg.output_dir."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    expansions_path, inputs_path, run_path, metrics_path, per_query_path, compare_path = (
        os.path.join(cfg.output_dir, name) for name in _ARTIFACTS
    )

    with _stage("load"):
        passages = _load(load_corpus, cfg.corpus)
        corpus = _by_id(passages)
        queries = _load(load_queries, cfg.queries)
        qrels = _load(parse_qrels, cfg.qrels)
        cache = _load(load_snippet_cache, cfg.snippet_cache) if cfg.snippet_cache else {}

    with _stage("index"):
        index = build_index(passages) if cfg.initial_run is None else None
        lm = corpus_lm(passages) if cfg.mode == ExpansionMode.TOPICAL_TERMS.value else None

    with _stage("initial"):
        if cfg.initial_run:
            initial = _read_run(cfg.initial_run, corpus)
        else:
            initial = _search(index, queries, cfg.rerank_depth)

    with _stage("fuse"):
        if cfg.dense_run:
            initial = _fuse(_read_run(cfg.dense_run, corpus), initial, cfg.fusion_alpha)
    _warn_run_queries_missing(initial, queries)

    with _stage("expand"):
        expansions: dict[str, Expansion] = {}
        if cfg.mode != "none":
            expand = partial(
                augment_query, cache=cache, mode=ExpansionMode(cfg.mode), lm=lm, source=cfg.source,
                max_snippets=cfg.max_snippets, skip_direct_answers=cfg.skip_direct_answers,
                max_words=cfg.max_words, max_terms=cfg.max_terms,
            )
            expansions = _expand(queries, expand, expansions_path)

    with _stage("rerank"):
        with open(inputs_path, "w", encoding="utf-8") as inputs_out:
            reranked = _rerank(
                queries, initial, corpus, expansions, cfg.endpoint, cfg.rerank_depth,
                cfg.run_tag, run_path, inputs_out,
            )

    ranked_ids = {ranked.query_id for ranked in reranked}
    _warn_queries(
        [q.id for q in queries if q.id in qrels and q.id not in ranked_ids],
        "judged queries without candidates, left out of the metrics",
    )
    with _stage("eval"):
        report = _evaluate(reranked, qrels, cfg.metrics, metrics_path, per_query_path)

    with _stage("compare"):
        if cfg.baseline_run:
            baseline = evaluate_run(_load(parse_run, cfg.baseline_run), qrels, cfg.metrics)
            rows = [(token, compare_runs(baseline, report, token)) for token in cfg.metrics]
            with _open_out(compare_path) as out:
                write_comparison(rows, out)

    # Every artifact left in the directory is this run's: an earlier run's
    # expansions or comparison that this run did not overwrite is removed.
    with _stage("clean"):
        for path, written in ((expansions_path, cfg.mode != "none"), (compare_path, cfg.baseline_run)):
            if not written:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
    return report


# ---------------------------------------------------------------------------
# argparse wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _number_flag(cast: Callable[[str], T]) -> Callable[[str], T]:
    """An argparse `type` reading a flag by `plain_number`; it keeps the name
    of `cast`, which argparse's `invalid int value` message shows."""
    read = partial(plain_number, cast)
    read.__name__ = cast.__name__
    return read


_int_flag, _float_flag = _number_flag(int), _number_flag(float)


def _cmd_index_search(args) -> None:
    _check_settings(k=args.k)
    index = build_index(_load(load_corpus, args.corpus))
    queries = _load(load_queries, args.queries)
    lists = _search(index, queries, args.k)
    with _open_out(args.out) as out:
        write_run(list(lists.values()), args.tag, out)
    _warn_queries([q.id for q in queries if q.id not in lists], "queries without hits")


def _cmd_fuse(args) -> None:
    _check_settings(fusion_alpha=args.alpha)
    fused = _fuse(_read_run(args.dense), _read_run(args.sparse), args.alpha)
    with _open_out(args.out) as out:
        write_run(list(fused.values()), args.tag, out)


def _cmd_expand(args) -> None:
    _check_settings(
        max_snippets=args.max_snippets, max_words=args.max_words, max_terms=args.max_terms
    )
    mode = ExpansionMode(_MODE_ALIASES[args.mode])
    topical = mode is ExpansionMode.TOPICAL_TERMS
    if topical and not args.corpus:
        raise ValidationError("--mode terms requires --corpus")
    queries = _load(load_queries, args.queries)
    cache = _load(load_snippet_cache, args.snippets)
    lm = corpus_lm(_load(load_corpus, args.corpus)) if topical else None
    expand = partial(
        augment_query, cache=cache, mode=mode, lm=lm, source=_SOURCE_ALIASES[args.source],
        max_snippets=args.max_snippets, skip_direct_answers=not args.keep_direct_answers,
        max_words=args.max_words, max_terms=args.max_terms,
    )
    _expand(queries, expand, args.out)


def _cmd_rerank(args) -> None:
    _check_settings(k=args.k)
    endpoint = ScorerEndpoint(
        _SCORER_ALIASES[args.scorer], args.address, args.batch_size, args.timeout
    )
    corpus = _by_id(_load(load_corpus, args.corpus))
    run = _read_run(args.run, corpus)
    queries = _load(load_queries, args.queries)
    expansions: dict[str, Expansion] = {}
    if args.expansions and args.expansions != "none":
        expansions = _load(load_expansions, args.expansions)
    _warn_run_queries_missing(run, queries)
    _rerank(queries, run, corpus, expansions, endpoint, args.k, args.tag, args.out)


def _cmd_trainset_build(args) -> None:
    triples = _load(load_triples, args.triples)
    corpus = _by_id(_load(load_corpus, args.corpus))
    queries = _by_id(_load(load_queries, args.queries))
    examples = balance_upsample(triples) if args.balance else triples
    expansions = _load(load_expansions, args.expansions) if args.expansions else None
    sequences = render_training_sequences(examples, queries, corpus, expansions)
    with _open_out(args.out) as out:
        for sequence in sequences:
            out.write(sequence + "\n")


def _cmd_eval(args) -> None:
    metrics = metric_tokens(args.metrics.split(","))
    lists = _load(parse_run, args.run)
    qrels = _load(parse_qrels, args.qrels)
    run_ids = {ranked.query_id for ranked in lists}
    _warn_queries(
        [qid for qid in qrels if qid not in run_ids],
        "judged queries missing from the run, left out of the metrics",
    )
    _evaluate(lists, qrels, metrics, args.out, args.per_query)


def _cmd_compare(args) -> None:
    baseline = _load(load_per_query_report, args.baseline)
    treatment = _load(load_per_query_report, args.treatment)
    (metric,) = metric_tokens((args.metric,))
    result = compare_runs(baseline, treatment, metric)
    with _open_out(args.out) as out:
        write_comparison([(metric, result)], out)


# The config keys `pipeline run` also takes as flags; each flag's dest is its key.
_PIPELINE_FLAGS = ("mode", "scorer", "scorer_address", "rerank_depth", "output_dir", "baseline_run")


def _cmd_pipeline_run(args) -> None:
    cfg = load_experiment_config(args.config, {key: getattr(args, key) for key in _PIPELINE_FLAGS})
    report = run_pipeline(cfg)
    write_metric_report(report, sys.stdout)
    print(f"artifacts written to {cfg.output_dir}")


@cache  # built once per process; parsing leaves the tree as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="augrank", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    index_parser = commands.add_parser("index", help="BM25 search over a corpus")
    index_commands = index_parser.add_subparsers(
        dest="index_command", required=True, parser_class=_Parser
    )
    search_parser = index_commands.add_parser("search", help="BM25 top-k search")
    search_parser.add_argument("--corpus", required=True)
    search_parser.add_argument("--queries", required=True)
    search_parser.add_argument("--k", type=_int_flag, default=ExperimentConfig.rerank_depth)
    search_parser.add_argument("--tag", default="bm25")
    search_parser.add_argument("--out")
    search_parser.set_defaults(handler=_cmd_index_search)

    fuse_parser = commands.add_parser("fuse", help="linear sparse/dense run fusion")
    fuse_parser.add_argument("--dense", required=True)
    fuse_parser.add_argument("--sparse", required=True)
    fuse_parser.add_argument("--alpha", type=_float_flag, default=ExperimentConfig.fusion_alpha)
    fuse_parser.add_argument("--tag", default="hybrid")
    fuse_parser.add_argument("--out")
    fuse_parser.set_defaults(handler=_cmd_fuse)

    expand_parser = commands.add_parser("expand", help="build query expansions")
    expand_parser.add_argument("--queries", required=True)
    expand_parser.add_argument("--snippets", required=True, help="snippet cache file")
    # Alias-valued flags take their alias table's spellings in any case, as
    # the config does; enum-valued defaults are given by value.
    expand_parser.add_argument(
        "--mode", required=True, type=str.lower,
        choices=[name for name, mode in _MODE_ALIASES.items() if mode != "none"],
    )
    expand_parser.add_argument(
        "--source", default=ExperimentConfig.source.value, type=str.lower, choices=_SOURCE_ALIASES
    )
    expand_parser.add_argument("--max-words", type=_int_flag, default=ExperimentConfig.max_words)
    expand_parser.add_argument("--max-terms", type=_int_flag, default=ExperimentConfig.max_terms)
    expand_parser.add_argument(
        "--max-snippets", type=_int_flag, default=ExperimentConfig.max_snippets
    )
    expand_parser.add_argument("--keep-direct-answers", action="store_true")
    expand_parser.add_argument("--corpus", help="corpus for the language model (terms mode)")
    expand_parser.add_argument("--out")
    expand_parser.set_defaults(handler=_cmd_expand)

    rerank_parser = commands.add_parser("rerank", help="rescore an initial run")
    rerank_parser.add_argument("--run", required=True, help="initial run file")
    rerank_parser.add_argument("--corpus", required=True)
    rerank_parser.add_argument("--queries", required=True)
    rerank_parser.add_argument("--expansions", default="none", help="expansion file or 'none'")
    rerank_parser.add_argument(
        "--scorer", default=ExperimentConfig.scorer.value, type=str.lower, choices=_SCORER_ALIASES
    )
    rerank_parser.add_argument("--address", help="remote scorer base URL")
    rerank_parser.add_argument("--batch-size", type=_int_flag, default=ScorerEndpoint.batch_size)
    rerank_parser.add_argument("--timeout", type=_float_flag, default=ScorerEndpoint.timeout)
    rerank_parser.add_argument("--k", type=_int_flag, default=ExperimentConfig.rerank_depth)
    rerank_parser.add_argument("--tag", default=ExperimentConfig.run_tag)
    rerank_parser.add_argument("--out")
    rerank_parser.set_defaults(handler=_cmd_rerank)

    trainset_parser = commands.add_parser("trainset", help="training sequence tooling")
    trainset_commands = trainset_parser.add_subparsers(
        dest="trainset_command", required=True, parser_class=_Parser
    )
    tbuild = trainset_commands.add_parser("build", help="render training sequences")
    tbuild.add_argument("--triples", required=True)
    tbuild.add_argument("--corpus", required=True)
    tbuild.add_argument("--queries", required=True)
    tbuild.add_argument("--expansions")
    tbuild.add_argument("--balance", action="store_true")
    tbuild.add_argument("--out")
    tbuild.set_defaults(handler=_cmd_trainset_build)

    eval_parser = commands.add_parser("eval", help="evaluate a run against qrels")
    eval_parser.add_argument("--run", required=True)
    eval_parser.add_argument("--qrels", required=True)
    eval_parser.add_argument("--metrics", default=",".join(ExperimentConfig.metrics))
    eval_parser.add_argument("--per-query", help="also write a per-query TSV here")
    eval_parser.add_argument("--out")
    eval_parser.set_defaults(handler=_cmd_eval)

    compare_parser = commands.add_parser("compare", help="paired t-test between two reports")
    compare_parser.add_argument("--baseline", required=True, help="per-query report TSV")
    compare_parser.add_argument("--treatment", required=True, help="per-query report TSV")
    compare_parser.add_argument("--metric", required=True)
    compare_parser.add_argument("--out")
    compare_parser.set_defaults(handler=_cmd_compare)

    pipeline_parser = commands.add_parser("pipeline", help="run the full experiment pipeline")
    pipeline_commands = pipeline_parser.add_subparsers(
        dest="pipeline_command", required=True, parser_class=_Parser
    )
    prun = pipeline_commands.add_parser("run", help="run a declarative experiment config")
    prun.add_argument("--config", required=True)
    prun.add_argument("--mode", type=str.lower, choices=_MODE_ALIASES)
    prun.add_argument("--scorer", type=str.lower, choices=_SCORER_ALIASES)
    prun.add_argument("--scorer-address")
    prun.add_argument("--k", type=_int_flag, dest="rerank_depth")
    prun.add_argument("--output-dir")
    prun.add_argument("--baseline-run")
    prun.set_defaults(handler=_cmd_pipeline_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.handler(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc.cause, TransportError) else 2
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
