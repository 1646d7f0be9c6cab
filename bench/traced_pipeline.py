"""Run `augrank pipeline run` unchanged, with spans recorded around the
calls that cross a layer boundary.

Usage (with augrank importable, e.g. PYTHONPATH=src):

    python3 bench/traced_pipeline.py --config CFG --output-dir DIR --trace-out SPANS.json

Wrappers are installed at run time on the module attributes that callers
look up (`augrank.cli.bm25_search`, `augrank.rerank.score_batch`, ...);
augrank's source is not modified. Each span records its name, start, end,
parent span and query id; spans stay in memory and are written to
SPANS.json after the pipeline returns, together with counters taken from
the wrapped calls' arguments and results. If an index was built, the
traced process then times saving and reloading it (`augrank index build`
and `index search` persistence), outside the pipeline.

A wrapped name that no longer exists stops the run with exit code 4, so a
layer never silently reads zero. The exceptions are the three internals of
the string-parsing lexical scorer (`split_input`, `bm25_score`, the batch
`build_index`), which a structured scorer is expected to remove: their
absence is listed in the output and their metrics read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter

import augrank.augment
import augrank.cli
import augrank.index
import augrank.rerank

# (module, attribute, span name, required). Span names are
# "<layer>.<function>[@<caller>]"; the layer is the module the code lives in.
WRAPS = (
    (augrank.cli, "run_pipeline", "cli.run_pipeline", True),
    (augrank.cli, "load_corpus", "corpus_io.load_corpus", True),
    (augrank.cli, "load_queries", "corpus_io.load_queries", True),
    (augrank.cli, "parse_qrels", "corpus_io.parse_qrels", True),
    (augrank.cli, "load_snippet_cache", "corpus_io.load_snippet_cache", True),
    (augrank.cli, "parse_run", "corpus_io.parse_run", True),
    (augrank.cli, "write_run", "corpus_io.write_run", True),
    (augrank.cli, "build_index", "index.build_index", True),
    (augrank.cli, "estimate_corpus_lm", "index.estimate_corpus_lm", True),
    (augrank.cli, "bm25_search", "index.bm25_search", True),
    (augrank.cli, "fuse_runs", "index.fuse_runs", True),
    (augrank.cli, "augment_query", "augment.augment_query", True),
    (augrank.cli, "write_expansions", "augment.write_expansions", True),
    (augrank.cli, "build_input", "rerank.build_input@cli", True),
    (augrank.cli, "build_augmented_input", "rerank.build_augmented_input@cli", True),
    (augrank.cli, "rerank_topk", "rerank.rerank_topk", True),
    (augrank.cli, "evaluate_run", "evaluation.evaluate_run", True),
    (augrank.cli, "compare_runs", "evaluation.compare_runs", True),
    (augrank.rerank, "score_batch", "rerank.score_batch", True),
    (augrank.rerank, "build_input", "rerank.build_input@rerank", True),
    (augrank.rerank, "build_augmented_input", "rerank.build_augmented_input@rerank", True),
    (augrank.rerank, "split_input", "rerank.split_input", False),
    (augrank.rerank, "bm25_score", "index.bm25_score", False),
    (augrank.rerank, "build_index", "index.build_index@rerank", False),
    (augrank.index, "tokenize", "index.tokenize", True),
    (augrank.augment, "topical_term_weights", "augment.topical_term_weights", True),
    (augrank.index, "save_index", "index.save_index", True),
    (augrank.index, "load_index", "index.load_index", True),
)

EXIT_MISSING_NAME = 4


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index or -1, query id]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.built_index = None

    def wrap(self, module, attr: str, name: str, required: bool) -> None:
        original = getattr(module, attr, None)
        if original is None:
            if required:
                raise LookupError(
                    f"traced_pipeline: {module.__name__}.{attr} no longer exists; "
                    "update bench/traced_pipeline.py"
                )
            self.absent.append(f"{module.__name__}.{attr}")
            print(f"traced_pipeline: {module.__name__}.{attr} is absent; {name} reads 0", file=sys.stderr)
            return
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        query_id = _QUERY_ARG.get(name)
        after = getattr(self, "_after_" + name.replace(".", "_").replace("@", "_"), None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if query_id is not None:
                qid = query_id(args, kwargs)
            else:
                qid = spans[parent][4] if parent >= 0 else None
            span = [name_id, 0.0, 0.0, parent, qid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    # Counters taken at the boundaries, outside the timed span.

    def _after_index_build_index(self, args, kwargs, index):
        self.built_index = index
        self.counters["index.postings"] += sum(len(p) for p in index.postings.values())

    def _after_index_bm25_search(self, args, kwargs, result):
        index, query = _arg(args, kwargs, 0, "index"), _arg(args, kwargs, 1, "query")
        self.counters["index.bm25_search.postings_offered"] += sum(
            len(index.postings.get(term, ())) for term in _tokenize(query.text)
        )

    def _after_augment_augment_query(self, args, kwargs, expansion):
        self.counters["augment.expansions"] += 1
        self.counters["augment.fallbacks"] += int(expansion.fallback)

    def _after_rerank_rerank_topk(self, args, kwargs, result):
        self.counters["rerank.candidates"] += _arg(args, kwargs, 5, "k")
        self.counters["rerank.remote_topk_calls"] += int(
            _arg(args, kwargs, 4, "endpoint").kind is augrank.rerank.ScorerKind.REMOTE
        )

    def dump(self, path: str, pipeline_end: float, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                    "absent": self.absent,
                    "pipeline_end": pipeline_end,
                    "exit_code": exit_code,
                },
                handle,
                separators=(",", ":"),
            )


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


_QUERY_ARG = {
    "index.bm25_search": lambda args, kwargs: _arg(args, kwargs, 1, "query").id,
    "augment.augment_query": lambda args, kwargs: _arg(args, kwargs, 0, "query").id,
    "rerank.rerank_topk": lambda args, kwargs: _arg(args, kwargs, 2, "query").id,
}
_tokenize = augrank.index.tokenize


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the pipeline with layer spans recorded.")
    parser.add_argument("--config", required=True)
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    for module, attr, name, required in WRAPS:
        try:
            tracer.wrap(module, attr, name, required)
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return EXIT_MISSING_NAME
    code = augrank.cli.main(["pipeline", "run", "--config", args.config, "--output-dir", args.output_dir])
    pipeline_end = time.perf_counter()
    if code == 0 and tracer.built_index is not None:
        artifact = os.path.join(os.path.dirname(os.path.abspath(args.trace_out)), "index.artifact")
        with open(artifact, "w", encoding="utf-8") as handle:
            augrank.index.save_index(tracer.built_index, handle)
        tracer.counters["index.artifact_bytes"] = os.path.getsize(artifact)
        with open(artifact, encoding="utf-8") as handle:
            augrank.index.load_index(handle)
        os.remove(artifact)
    tracer.dump(args.trace_out, pipeline_end, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
