"""`pipeline run` against bench/reference.py, which restates the pipeline's
arithmetic and formatting without importing augrank: every artifact of a
small random experiment must be byte-identical to the reference's.

The draws reach what the benchmark's generated inputs never do: words that
tokenize or case-fold unusually, template labels inside text, tabs and runs
of spaces, punctuation-only words, duplicate passage texts, queries without BM25 hits,
queries whose snippets are missing, empty or punctuation-only, initial and
dense runs with tied scores, every expansion mode at depths 1, 2, 5 and
100, and the remote scorer as well as the lexical one."""

import json
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from augrank.cli import StageError, load_experiment_config, run_pipeline

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen  # noqa: E402
import reference  # noqa: E402

# The pipeline's refusals that the reference meets as a ZeroDivisionError:
# no judged query to average over, or fewer than two shared queries for
# the paired t-test.
BOTH_REFUSE = (
    "no run query appears in the qrels",
    "at least 2 are required",
)

WORDS = ["apple", "banana", "cherry", "İstanbul", "straße", "STRASSE", "a_b", "ǅ", "ﬁ",
         "T5-xl", "naïve", "Document:", "Relevant:", "Query:", "x9"]
PUNCTUATION = ["...", "!?", "--", "(", "—", "_"]
BLANKS = ["\t", " "]  # " " joins its neighbours with three spaces
VOCABULARY = WORDS + PUNCTUATION + BLANKS
HITLESS = "zebra"  # a query word that no passage holds
# Snippets not drawn from the passages: words the corpus lacks, and case
# and spacing that tokenize folds away.
EXTRA_SNIPPETS = ["zebra apple", "ZEBRA  Zebra straße", "İSTANBUL\tstrasse x9 x9"]
SCORES = ("2.0", "1.5", "1.5", "1.0", "0.25")  # repeats tie


# Every passage holds a token: the reference divides by the mean passage
# length of the corpus and of each reranked head.
passage_words = st.tuples(
    st.sampled_from(WORDS), st.lists(st.sampled_from(VOCABULARY), max_size=6)
).map(lambda drawn: [drawn[0], *drawn[1]])
# A run's lines as (query index, passage index, score); a repeated pair
# keeps its first line.
run_lines = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 11), st.sampled_from(SCORES)), max_size=12
)


@st.composite
def experiments(draw):
    pool = draw(st.lists(passage_words, min_size=1, max_size=3))
    passages = [
        (f"d{i}", " ".join(pool[choice % len(pool)]))
        for i, choice in enumerate(draw(st.lists(st.integers(0, 2), min_size=2, max_size=12)))
    ]
    # Query words are indices into the passages' words; an index past them
    # picks a word that no passage holds, or a punctuation-only one. Blanks
    # are left out: a query of blanks is refused when the queries load.
    known = [word for words in pool for word in words if word not in BLANKS]
    known += [HITLESS, "...", "!?"]
    queries = [
        (f"q{i}", " ".join(known[pick] for pick in picks))
        for i, picks in enumerate(draw(st.lists(
            st.lists(st.integers(0, len(known) - 1), min_size=1, max_size=3),
            min_size=2, max_size=4,
        )))
    ]
    picks = draw(st.lists(st.integers(0, 11), min_size=len(queries), max_size=len(queries)))
    qrels = {qid: passages[pick % len(passages)][0] for (qid, _), pick in zip(queries, picks)}
    if draw(st.booleans()):
        del qrels["q0"]  # an unjudged query
    snippet_texts = [" ".join(words) for words in pool] + EXTRA_SNIPPETS
    snippet_list = st.one_of(
        st.none(),  # missing from the cache
        st.just([]),  # listed, but nothing in the file
        st.lists(st.sampled_from(PUNCTUATION), min_size=1, max_size=2),
        st.lists(st.sampled_from(snippet_texts), min_size=1, max_size=6),
    )
    drawn_snippets = draw(st.lists(snippet_list, min_size=len(queries), max_size=len(queries)))
    snippets = {qid: drawn for (qid, _), drawn in zip(queries, drawn_snippets) if drawn is not None}

    def run(lines):
        entries = {}
        for query, passage, score in lines:
            qid, pid = queries[query % len(queries)][0], passages[passage % len(passages)][0]
            ranked = entries.setdefault(qid, [])
            if pid not in (seen for seen, _ in ranked):
                ranked.append((pid, score))
        return entries

    initial, dense, baseline = (run(draw(run_lines)) if draw(st.booleans()) else {}
                                for _ in range(3))
    config = {
        "mode": draw(st.sampled_from(("nl", "terms", "none"))),
        "rerank_depth": draw(st.sampled_from((5, 2, 100, 1))),
        "max_words": draw(st.sampled_from((3, 64))),
        "max_terms": draw(st.sampled_from((2, 64))),
    }
    if draw(st.booleans()):
        config.update(scorer="remote", batch_size=draw(st.sampled_from((2, 32))))
    return gen.Inputs(passages, queries, qrels, snippets, initial, dense, baseline, {}), config


def write_experiment(inputs, directory):
    """Write `inputs` as bench/gen.py writes its files, and return the
    config keys that name them."""

    def write(name, lines):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        inputs.paths[name] = path
        return path

    def jsonl(records):
        return [json.dumps(record, ensure_ascii=False) + "\n" for record in records]

    def trec(run, tag):
        return [
            f"{qid} Q0 {pid} {rank} {score} {tag}\n"
            for qid, entries in run.items()
            for rank, (pid, score) in enumerate(entries, start=1)
        ]

    paths = {
        "corpus": write("corpus.jsonl", jsonl({"id": pid, "text": text}
                                              for pid, text in inputs.passages)),
        "queries": write("queries.jsonl", jsonl({"id": qid, "text": text}
                                                for qid, text in inputs.queries)),
        "qrels": write("qrels.txt", [f"{qid} 0 {pid} 1\n" for qid, pid in inputs.qrels.items()]),
        "snippet_cache": write("snippets.jsonl", jsonl(
            {"query_id": qid, "rank": rank, "kind": "organic", "text": text,
             "source": "web_serp"}
            for qid, texts in inputs.snippets.items()
            for rank, text in enumerate(texts, start=1)
        )),
    }
    for key, name, run in (("initial_run", "initial.run", inputs.initial),
                           ("dense_run", "dense.run", inputs.dense),
                           ("baseline_run", "baseline.run", inputs.baseline)):
        if run:
            paths[key] = write(name, trec(run, key))
    return paths


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiments())
def test_pipeline_artifacts_equal_the_reference(scorer_server, experiment):
    inputs, config = experiment
    scorer_server.score_fn = reference.remote_score
    with tempfile.TemporaryDirectory() as directory:
        cfg = dict(write_experiment(inputs, directory), **config)
        cfg["output_dir"] = out = os.path.join(directory, "out")
        if cfg.get("scorer") == "remote":
            cfg["scorer_address"] = scorer_server.address
        config_path = os.path.join(directory, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(cfg, handle)
        try:
            expected, _ = reference.artifacts(inputs, cfg)
        except ZeroDivisionError:
            expected = None
        try:
            run_pipeline(load_experiment_config(config_path))
        except StageError as exc:
            refusal = str(exc.cause)
            assert expected is None and refusal.endswith(BOTH_REFUSE), refusal
            return
        assert expected is not None, "the pipeline ran where the reference refused"
        assert sorted(os.listdir(out)) == sorted(expected)
        for name, text in expected.items():
            with open(os.path.join(out, name), encoding="utf-8", newline="") as handle:
                assert handle.read() == text, name
