"""bench/traced_pipeline.py wraps augrank names at run time and stops a
traced benchmark run with exit 4 when one is missing, and
bench/setup_probe.py imports augrank names to time the set-up. These checks
catch a rename or a moved argument in the test suite instead."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from augrank.augment import augment_query
from augrank.corpus_io import Passage, Query
from augrank.index import bm25_search, build_index, tokenize
from augrank.rerank import rerank_topk

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("traced_pipeline")


def test_setup_probe_imports_resolve():
    # Every name the probe imports from augrank must exist; a missing one
    # is an ImportError here.
    assert callable(load_bench_module("setup_probe").set_up)


def test_every_required_wrapped_name_exists():
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, required in load_tracer().WRAPS
        if required and not hasattr(module, attr)
    ]
    assert missing == []


def test_no_optional_wrapped_name_exists():
    # An optional wrap switches on silently when its name appears: a
    # `build_index` in rerank would replace the tracer's built index with
    # the last batch's and inflate index.postings, with no exit 4.
    present = [
        f"{module.__name__}.{attr}"
        for module, attr, _, required in load_tracer().WRAPS
        if not required and hasattr(module, attr)
    ]
    assert present == []


def test_rerank_topk_arguments_sit_where_the_tracer_reads_them():
    # _QUERY_ARG reads `query` at position 2; _after_rerank_rerank_topk reads
    # `endpoint` at 4 and `k` at 5.
    params = list(inspect.signature(rerank_topk).parameters)
    assert (params[2], params[4], params[5]) == ("query", "endpoint", "k")


def test_bm25_search_and_augment_query_arguments_sit_where_the_tracer_reads_them():
    # _after_index_bm25_search reads `index` at 0 and `query` at 1;
    # _QUERY_ARG reads bm25_search's `query` at 1 and augment_query's at 0.
    bm25_params = list(inspect.signature(bm25_search).parameters)
    assert bm25_params[:2] == ["index", "query"]
    assert list(inspect.signature(augment_query).parameters)[0] == "query"


def test_index_counters_match_counts_from_the_tokens():
    passages = [
        Passage("d1", None, "apple apple banana"),
        Passage("d2", None, "banana cherry"),
        Passage("d3", None, "cherry cherry cherry apple date"),
    ]
    query = Query("q1", "apple cherry apple zebra")
    index = build_index(passages)
    tracer = load_tracer().Tracer()
    tracer._after_index_build_index((passages,), {}, index)
    tracer._after_index_bm25_search((index, query, 10), {}, None)

    # Independent counts: distinct terms per passage, df summed over the
    # query's token stream (repeats included, unseen terms 0).
    term_sets = [set(tokenize(p.text)) for p in passages]
    distinct_terms = sum(len(terms) for terms in term_sets)
    offered = sum(sum(t in terms for terms in term_sets) for t in tokenize(query.text))
    assert (distinct_terms, offered) == (7, 6)
    assert tracer.counters["index.postings"] == distinct_terms
    assert tracer.counters["index.bm25_search.postings_offered"] == offered


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def test_every_wrapped_name_records_a_span(tmp_path):
    # The tracer wraps names on augrank.cli's module globals; if a stage
    # stopped calling through them, its spans would read 0 and the traced
    # run would still exit 0. q3 has no snippets, so its expansion is the
    # empty fallback and rerank's build_input is called.
    corpus = write_lines(tmp_path / "corpus.jsonl", [
        json.dumps({"id": f"d{i}{kind}", "text": f"shared topic{i} {kind} words"})
        for i in (1, 2, 3) for kind in ("rel", "a", "b")
    ])
    inputs = {
        "corpus": corpus,
        "queries": write_lines(tmp_path / "queries.jsonl", [
            json.dumps({"id": f"q{i}", "text": f"shared topic{i}"}) for i in (1, 2, 3)
        ]),
        "qrels": write_lines(tmp_path / "qrels.txt", [f"q{i} 0 d{i}rel 1" for i in (1, 2, 3)]),
        "snippet_cache": write_lines(tmp_path / "snippets.jsonl", [
            json.dumps({"query_id": f"q{i}", "rank": 1, "kind": "organic",
                        "text": f"topic{i} rel explanation", "source": "web_serp"})
            for i in (1, 2)
        ]),
    }
    dense = write_lines(tmp_path / "dense.run", [
        f"q{i} Q0 d{i}{kind} {rank} {1.0 / rank} dense"
        for i in (1, 2, 3) for rank, kind in enumerate(("a", "rel"), start=1)
    ])
    baseline = write_lines(tmp_path / "baseline.run", [
        f"q{i} Q0 d{i}a 1 1.0 base" for i in (1, 2, 3)
    ])
    configs = {
        "nl": dict(inputs, mode="nl", dense_run=dense, baseline_run=baseline),
        "terms": dict(inputs, mode="terms"),
    }
    recorded, wrapped = set(), set()
    for name, config in configs.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(dict(config, output_dir=str(tmp_path / name))))
        spans_path = tmp_path / f"{name}_spans.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH")])
        ))
        completed = subprocess.run(
            [sys.executable, str(BENCH / "traced_pipeline.py"), "--config", str(config_path),
             "--output-dir", str(tmp_path / name), "--trace-out", str(spans_path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        trace = json.loads(spans_path.read_text())
        wrapped.update(trace["names"])
        names = [trace["names"][span[0]] for span in trace["spans"]]
        recorded.update(names)
        # The run is scored in one call, not one per query.
        assert names.count("rerank.score_batch") == 1, name
    # The dead wraps: nothing in the pipeline calls these names.
    assert wrapped - recorded == {
        "index.estimate_corpus_lm", "rerank.build_input@cli", "rerank.build_augmented_input@cli",
    }
