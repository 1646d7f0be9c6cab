"""`pipeline run` against bench/reference.py, which restates the pipeline's
arithmetic and formatting without importing augrank: every artifact of a
small random experiment must be byte-identical to the reference's.

The draws reach what the benchmark's generated inputs never do: words that
tokenize or case-fold unusually, template labels inside text, tabs and runs
of spaces, punctuation-only words, duplicate passage texts, queries without BM25 hits,
queries whose snippets are missing, empty or punctuation-only, initial and
dense runs with tied scores, every expansion mode at depths 1, 2, 5 and
100, and the remote scorer as well as the lexical one.

On the same draws, the stage subcommands chained by their files (`expand`
-> `rerank` -> `eval`) must write the pipeline's artifacts byte for byte,
each side taking its own defaults for the keys a draw leaves at theirs."""

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from augrank.cli import ExperimentConfig, StageError, load_experiment_config, main, run_pipeline

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
# and spacing that tokenize folds away. Each holds four or more distinct
# terms, so a terms-mode expansion can exceed a small `max_terms`.
EXTRA_SNIPPETS = ["zebra apple okapi yak", "ZEBRA  Zebra straße ibis emu",
                  "İSTANBUL\tstrasse x9 x9 gnu kudu"]
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


# The chain takes a supplied initial run and no dense run: the pipeline
# searches and fuses in memory, where `index search` and `fuse` would hand
# on a run file of 4-decimal scores. The baseline comparison is left out
# too: `compare` reads the rounded `per_query.tsv`.
chain_experiments = experiments().filter(lambda drawn: drawn[0].initial).map(
    lambda drawn: (dataclasses.replace(drawn[0], dense={}, baseline={}), drawn[1])
)
# Each config key a draw may set, by the subcommand and the flag that set
# it in the chain.
CHAIN_FLAGS = {
    "expand": {"max_words": "--max-words", "max_terms": "--max-terms"},
    "rerank": {"rerank_depth": "--k", "scorer": "--scorer", "scorer_address": "--address",
               "batch_size": "--batch-size"},
}
CHAIN_ARTIFACTS = ("expansions.jsonl", "reranked.run", "metrics.tsv", "per_query.tsv")


def chain_flags(command, config):
    return [arg for key, flag in CHAIN_FLAGS[command].items() if key in config
            for arg in (flag, str(config[key]))]


def read_bytes(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


# Terms mode at every default, with more snippet terms than a drifted
# `--max-terms` default would keep: the random draws seldom hold one.
TERMS_AT_DEFAULTS = (
    gen.Inputs(
        passages=[("d0", "apple banana"), ("d1", "cherry x9")],
        queries=[("q0", "apple"), ("q1", "cherry")],
        qrels={"q0": "d0", "q1": "d1"},
        snippets={"q0": EXTRA_SNIPPETS[:2], "q1": ["cherry x9"]},
        initial={"q0": [("d0", "2.0"), ("d1", "1.0")], "q1": [("d1", "1.0")]},
        dense={}, baseline={}, paths={},
    ),
    {"mode": "terms"},
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chain_experiments)
@example(TERMS_AT_DEFAULTS)
def test_stage_subcommands_chain_to_the_pipeline_artifacts(scorer_server, experiment):
    inputs, config = experiment
    scorer_server.score_fn = reference.remote_score
    with tempfile.TemporaryDirectory() as directory:
        paths = write_experiment(inputs, directory)
        # A key at its default is left out of the config and its flag off the
        # chain, so each side reads the default it has of its own.
        config = {key: value for key, value in config.items()
                  if value != getattr(ExperimentConfig, key)}
        if config.get("scorer") == "remote":
            config["scorer_address"] = scorer_server.address
        pipeline_out, chain_out = (os.path.join(directory, name) for name in ("pipeline", "chain"))
        config_path = os.path.join(directory, "config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(dict(paths, output_dir=pipeline_out, **config), handle)

        os.mkdir(chain_out)
        chain, expansions = [], "none"
        if config.get("mode", "none") != "none":
            expansions = os.path.join(chain_out, "expansions.jsonl")
            chain.append(["expand", "--queries", paths["queries"],
                          "--snippets", paths["snippet_cache"], "--mode", config["mode"],
                          "--corpus", paths["corpus"], "--out", expansions,
                          *chain_flags("expand", config)])
        reranked = os.path.join(chain_out, "reranked.run")
        chain.append(["rerank", "--run", paths["initial_run"], "--corpus", paths["corpus"],
                      "--queries", paths["queries"], "--expansions", expansions,
                      "--out", reranked,
                      *chain_flags("rerank", config)])
        chain.append(["eval", "--run", reranked, "--qrels", paths["qrels"],
                      "--out", os.path.join(chain_out, "metrics.tsv"),
                      "--per-query", os.path.join(chain_out, "per_query.tsv")])
        for argv in chain:
            code = main(argv)
            if code:
                break
        assert code == main(["pipeline", "run", "--config", config_path])
        for name in CHAIN_ARTIFACTS:
            chained = read_bytes(os.path.join(chain_out, name))
            assert chained == read_bytes(os.path.join(pipeline_out, name)), name
