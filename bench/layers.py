"""Per-layer metrics from one traced pipeline run.

Layers are augrank's modules: corpus_io, index, augment, rerank,
evaluation and cli (orchestration in `run_pipeline`). `trainset` is on no
pipeline path and `errors` does no work, so neither is measured.

Each row of PER_LAYER names a metric, its unit, the end-to-end metric it
should move, and the workloads where it does work; on the others it reads
0 (for example `index.bm25_search.*` outside bm25_first_stage). A span's
self time is its duration minus its child spans' durations; spans nest
strictly because the pipeline is single-threaded. Layer self times cover
the `run_pipeline` span only, not the index persistence timed after it.
`cli.startup_s` is what the process does before that span starts:
interpreter start, imports and reading the arguments and config.
"""

from __future__ import annotations

import statistics

ALL = "all"
BM25 = "bm25_first_stage"
NL = "rerank_nl_deep"
REMOTE = "remote_terms"

# (name, unit, end-to-end metric it should move, workloads it is measured on)
PER_LAYER = (
    ("index.build_index_s", "s", "setup_s, peak_rss_mb", (BM25, REMOTE)),
    ("index.postings", "count", "setup_s, peak_rss_mb", (BM25, REMOTE)),
    ("index.tokenize_s", "s", "setup_s", (BM25, REMOTE)),
    ("index.bm25_search.calls", "count", "pipeline_s", (BM25,)),
    ("index.bm25_search.p50_ms", "ms", "pipeline_s", (BM25,)),
    ("index.bm25_search.tail_ms", "ms", "pipeline_s", (BM25,)),
    ("index.bm25_search.tail_pct", "%", "pipeline_s", (BM25,)),
    ("index.bm25_search.postings_offered", "count", "pipeline_s", (BM25,)),
    ("index.bm25_search.ns_per_posting", "ns", "pipeline_s", (BM25,)),
    ("index.fuse_runs_s", "s", "pipeline_s", (BM25,)),
    ("index.save_index_s", "s", "index persistence", (BM25, REMOTE)),
    ("index.load_index_s", "s", "index persistence", (BM25, REMOTE)),
    ("index.artifact_mb", "MB", "index persistence", (BM25, REMOTE)),
    ("index.estimate_corpus_lm_s", "s", "pipeline_s", (REMOTE,)),
    ("augment.augment_query_s", "s", "pipeline_s", (NL, REMOTE)),
    ("augment.topical_term_weights_s", "s", "pipeline_s", (REMOTE,)),
    ("augment.fallback_share", "ratio", "pipeline_s", (NL, REMOTE)),
    ("rerank.rerank_topk.calls", "count", "pipeline_s", (ALL,)),
    ("rerank.rerank_topk.p50_ms", "ms", "pipeline_s", (ALL,)),
    ("rerank.rerank_topk.tail_ms", "ms", "pipeline_s", (ALL,)),
    ("rerank.rerank_topk.tail_pct", "%", "pipeline_s", (ALL,)),
    ("rerank.candidates", "count", "pipeline_s", (ALL,)),
    ("rerank.score_batch_s", "s", "pipeline_s", (ALL,)),
    ("rerank.split_input_s", "s", "pipeline_s", (BM25, NL)),
    ("rerank.lexical.us_per_candidate", "us", "pipeline_s", (BM25, NL)),
    ("rerank.render_s", "s", "pipeline_s", (ALL,)),
    ("rerank.render_calls_per_candidate", "ratio", "pipeline_s", (ALL,)),
    ("rerank.remote.requests", "count", "pipeline_s", (REMOTE,)),
    ("rerank.remote.failed_requests", "count", "failed queries", (REMOTE,)),
    ("rerank.remote.connections", "count", "pipeline_s", (REMOTE,)),
    ("rerank.remote.bytes_sent", "bytes", "pipeline_s", (REMOTE,)),
    ("rerank.remote.server_busy_s", "s", "pipeline_s", (REMOTE,)),
    ("rerank.remote.wait_s", "s", "pipeline_s", (REMOTE,)),
    ("corpus_io.load_s", "s", "setup_s, pipeline_s", (ALL,)),
    ("corpus_io.write_run_s", "s", "pipeline_s", (ALL,)),
    ("evaluation.evaluate_run_s", "s", "pipeline_s", (ALL,)),
    ("evaluation.compare_runs_s", "s", "pipeline_s", (ALL,)),
    ("corpus_io.self_s", "s", "pipeline_s", (ALL,)),
    ("index.self_s", "s", "pipeline_s, setup_s", (ALL,)),
    ("augment.self_s", "s", "pipeline_s", (NL, REMOTE)),
    ("rerank.self_s", "s", "pipeline_s", (ALL,)),
    ("evaluation.self_s", "s", "pipeline_s", (ALL,)),
    ("cli.self_s", "s", "pipeline_s", (ALL,)),
    ("cli.startup_s", "s", "pipeline_s", (ALL,)),
    ("trace.overhead_s", "s", "pipeline_s (traced minus untraced)", (ALL,)),
)
UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
LAYERS = ("corpus_io", "index", "augment", "rerank", "evaluation", "cli")


def tail_percentile(count: int) -> float:
    """The highest of the usual percentiles with at least ten samples
    beyond it (50 when there are fewer than 20 samples)."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _latency(prefix: str, durations: list[float]) -> dict[str, float]:
    pct = tail_percentile(len(durations))
    return {
        f"{prefix}.calls": len(durations),
        f"{prefix}.p50_ms": percentile(durations, 50.0) * 1e3,
        f"{prefix}.tail_ms": percentile(durations, pct) * 1e3,
        f"{prefix}.tail_pct": pct if durations else 0.0,
    }


def from_trace(trace: dict, server: dict | None, process_start: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s).

    `server` holds the benchmark scorer's counter deltas over the run, or
    None when the workload does not use it; `process_start` is the
    perf_counter reading just before the process was started.
    """
    names = trace["names"]
    spans = trace["spans"]
    counters = trace["counters"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    total: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    in_pipeline = [False] * len(spans)
    tokenize_in_build = render_s = render_calls = 0.0
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        duration = end - start
        total[name] = total.get(name, 0.0) + duration
        durations.setdefault(name, []).append(duration)
        in_pipeline[i] = name == "cli.run_pipeline" or (parent >= 0 and in_pipeline[parent])
        if in_pipeline[i]:
            self_by_layer[name.split(".", 1)[0]] += duration - child_time[i]
        parent_name = names[spans[parent][0]] if parent >= 0 else ""
        if name == "index.tokenize" and parent_name == "index.build_index":
            tokenize_in_build += duration
        if name.startswith("rerank.build_") and not parent_name.startswith("rerank.build_"):
            render_s += duration
            render_calls += 1

    def seconds(*span_names: str) -> float:
        return sum(total.get(n, 0.0) for n in span_names)

    candidates = counters.get("rerank.candidates", 0)
    remote = counters.get("rerank.remote_topk_calls", 0) > 0
    score_batch_s = seconds("rerank.score_batch")
    offered = counters.get("index.bm25_search.postings_offered", 0)
    expansions = counters.get("augment.expansions", 0)
    server = server or {}
    metrics = {
        "index.build_index_s": seconds("index.build_index"),
        "index.postings": counters.get("index.postings", 0),
        "index.tokenize_s": tokenize_in_build,
        **_latency("index.bm25_search", durations.get("index.bm25_search", [])),
        "index.bm25_search.postings_offered": offered,
        "index.bm25_search.ns_per_posting": seconds("index.bm25_search") * 1e9 / offered if offered else 0.0,
        "index.fuse_runs_s": seconds("index.fuse_runs"),
        "index.save_index_s": seconds("index.save_index"),
        "index.load_index_s": seconds("index.load_index"),
        "index.artifact_mb": counters.get("index.artifact_bytes", 0) / 1e6,
        "index.estimate_corpus_lm_s": seconds("index.estimate_corpus_lm"),
        "augment.augment_query_s": seconds("augment.augment_query"),
        "augment.topical_term_weights_s": seconds("augment.topical_term_weights"),
        "augment.fallback_share": counters.get("augment.fallbacks", 0) / expansions if expansions else 0.0,
        **_latency("rerank.rerank_topk", durations.get("rerank.rerank_topk", [])),
        "rerank.candidates": candidates,
        "rerank.score_batch_s": score_batch_s,
        "rerank.split_input_s": seconds("rerank.split_input"),
        "rerank.lexical.us_per_candidate": score_batch_s * 1e6 / candidates if candidates and not remote else 0.0,
        "rerank.render_s": render_s,
        "rerank.render_calls_per_candidate": render_calls / candidates if candidates else 0.0,
        "rerank.remote.requests": server.get("requests", 0),
        "rerank.remote.failed_requests": server.get("failed_requests", 0),
        "rerank.remote.connections": server.get("connections", 0),
        "rerank.remote.bytes_sent": server.get("bytes_received", 0),
        "rerank.remote.server_busy_s": server.get("busy_s", 0.0),
        "rerank.remote.wait_s": score_batch_s - server.get("busy_s", 0.0) if remote else 0.0,
        "corpus_io.load_s": seconds(
            "corpus_io.load_corpus",
            "corpus_io.load_queries",
            "corpus_io.parse_qrels",
            "corpus_io.load_snippet_cache",
            "corpus_io.parse_run",
        ),
        "corpus_io.write_run_s": seconds("corpus_io.write_run"),
        "evaluation.evaluate_run_s": seconds("evaluation.evaluate_run"),
        "evaluation.compare_runs_s": seconds("evaluation.compare_runs"),
    }
    for layer, value in self_by_layer.items():
        metrics[f"{layer}.self_s"] = value
    pipeline_start = next(start for name_id, start, *_ in spans if names[name_id] == "cli.run_pipeline")
    metrics["cli.startup_s"] = pipeline_start - process_start
    return metrics


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
