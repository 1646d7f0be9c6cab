import _thread
import io
import json
import math
import os
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import augrank.cli as cli_module
import augrank.index as index_module
import augrank.rerank as rerank_module
from augrank.augment import Expansion, ExpansionMode, load_expansions
from augrank.cli import (
    _CONFIG_TYPES,
    ExperimentConfig,
    _rerank,
    load_experiment_config,
    load_per_query_report,
    main,
    run_pipeline,
)
from augrank.corpus_io import (
    Passage,
    Query,
    RankedList,
    SnippetSource,
    load_corpus,
    load_queries,
    parse_run,
    write_run,
)
from augrank.errors import ConflictError, ParseError, ValidationError
from augrank.evaluation import evaluate_run, metric_tokens
from augrank.index import build_index
from augrank.rerank import ScorerEndpoint, ScorerKind, build_augmented_input, rerank_topk


def write_jsonl(path: Path, records):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records))


@pytest.fixture
def workspace(tmp_path):
    """Three queries over a 9-passage corpus; snippets disambiguate q1/q2."""
    corpus = []
    for i in (1, 2, 3):
        corpus.append({"id": f"d{i}rel", "text": f"shared topic{i} plus special marker{i} context{i} words"})
        corpus.append({"id": f"d{i}a", "text": f"shared topic{i} filler alpha"})
        corpus.append({"id": f"d{i}b", "text": f"shared topic{i} filler beta"})
    write_jsonl(tmp_path / "corpus.jsonl", corpus)
    write_jsonl(
        tmp_path / "queries.jsonl",
        [{"id": f"q{i}", "text": f"shared topic{i}"} for i in (1, 2, 3)],
    )
    (tmp_path / "qrels.txt").write_text(
        "q1 0 d1rel 1\nq2 0 d2rel 1\nq3 0 d3rel 1\n"
    )
    write_jsonl(
        tmp_path / "snippets.jsonl",
        [
            {"query_id": f"q{i}", "rank": r, "kind": "organic",
             "text": f"marker{i} context{i} explanation", "source": "web_serp"}
            for i in (1, 2)
            for r in (1, 2)
        ],
    )
    return tmp_path


def make_config(tmp_path, out_name, **extra):
    config = {
        "corpus": str(tmp_path / "corpus.jsonl"),
        "queries": str(tmp_path / "queries.jsonl"),
        "qrels": str(tmp_path / "qrels.txt"),
        "snippet_cache": str(tmp_path / "snippets.jsonl"),
        "output_dir": str(tmp_path / out_name),
        "mode": "none",
    }
    config.update(extra)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(config))
    return path


def no_index(passages):
    raise AssertionError("build_index called")


def run_tags(text: str) -> list[str]:
    """The tag column of every line of a run file."""
    return [line.split()[5] for line in text.splitlines()]


def read_metric(path: Path, token: str) -> float:
    for line in path.read_text().splitlines():
        name, value = line.split("\t")
        if name == token:
            return float(value)
    raise KeyError(token)


class TestMetricTokens:
    def test_default_tokens(self):
        default = ("s@1", "s@5", "s@10", "s@20", "mrr@10", "ndcg@10", "map")
        assert ExperimentConfig.metrics == metric_tokens(default) == default

    def test_unknown_token(self):
        with pytest.raises(ValidationError, match="'precision@5'"):
            metric_tokens(("precision@5",))

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="'s@0'"):
            metric_tokens(("s@0",))

    def test_tokens_canonicalized(self):
        assert metric_tokens(("S@01", "MRR@5", " Map", "")) == ("s@1", "mrr@5", "map")
        with pytest.raises(ValidationError, match="^no metrics requested$"):
            metric_tokens(("", " ", ""))

    @pytest.mark.parametrize("token", ["s@1_0", "ndcg@\uff15", "mrr@\u0661\u0660"])
    def test_cutoff_must_be_plain_ascii(self, token):
        # int() would read `1_0` as 10 and `５` as 5.
        with pytest.raises(ValidationError, match=f"^unknown metric token {token!r}$"):
            metric_tokens((token,))

    def test_bare_string_rejected(self):
        message = "^expected a sequence of metric tokens, got the string 'mrr@10'$"
        with pytest.raises(ValidationError, match=message):
            metric_tokens("mrr@10")
        with pytest.raises(ValidationError, match=message):
            evaluate_run([], {}, "mrr@10")
        with pytest.raises(ValidationError, match=message):
            ExperimentConfig(corpus="c", queries="q", qrels="r", output_dir="out", metrics="mrr@10")

    @pytest.mark.parametrize(
        "tokens, named",
        [(["s@1", "S@1"], "S@1"), (["s@1", "s@01"], "s@01"), (["map", "map"], "map")],
    )
    def test_repeated_token_or_second_cutoff_rejected(self, tokens, named):
        with pytest.raises(ValidationError, match=repr(named)):
            metric_tokens(tokens)


class TestIndexCommands:
    def test_build_then_search(self, workspace, monkeypatch):
        built = []
        monkeypatch.setattr("augrank.cli.build_index", lambda p: built.append(p) or build_index(p))
        run_path = workspace / "bm25.run"
        assert main(["index", "search", "--corpus", str(workspace / "corpus.jsonl"),
                     "--queries", str(workspace / "queries.jsonl"),
                     "--k", "10", "--out", str(run_path)]) == 0
        assert [len(passages) for passages in built] == [9]  # in process, from the corpus
        lists = parse_run(run_path.read_text())
        assert {r.query_id for r in lists} == {"q1", "q2", "q3"}
        assert set(run_tags(run_path.read_text())) == {"bm25"}

    def test_search_names_queries_without_hits_on_stderr(self, workspace, capsys):
        queries = [{"id": f"q{i}", "text": "zebra"} for i in range(7)]
        write_jsonl(workspace / "queries.jsonl", queries + [{"id": "q7", "text": "shared"}])
        assert main(["index", "search", "--corpus", str(workspace / "corpus.jsonl"),
                     "--queries", str(workspace / "queries.jsonl")]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: queries without hits: 7 (q0, q1, q2, q3, q4, ...)\n"
        assert {r.query_id for r in parse_run(captured.out)} == {"q7"}

    @pytest.mark.parametrize(
        "argv, named",
        [(["index", "build", "--corpus", "c.jsonl", "--out", "c.idx"], "invalid choice: 'build'"),
         (["index", "search", "--corpus", "c.jsonl", "--index", "c.idx", "--queries", "q.jsonl"],
          "unrecognized arguments: --index c.idx")],
        ids=["build", "search --index"],
    )
    def test_index_artifact_commands_are_gone(self, argv, named, capsys):
        assert main(argv) == 1
        assert named in capsys.readouterr().err


class TestFuseCommand:
    def test_fuse_two_runs(self, workspace):
        dense = workspace / "dense.run"
        sparse = workspace / "sparse.run"
        dense.write_text("q1 Q0 a 1 1.0 dense\n")
        sparse.write_text("q1 Q0 a 1 2.0 sparse\n")
        out = workspace / "fused.run"
        assert main(["fuse", "--dense", str(dense), "--sparse", str(sparse),
                     "--alpha", "1.3", "--out", str(out)]) == 0
        (fused,) = parse_run(out.read_text())
        assert fused.entries[0][1] == pytest.approx(3.6, abs=1e-4)
        assert run_tags(out.read_text()) == ["hybrid"]

    def test_an_empty_list_is_built_only_for_a_query_one_run_lacks(self, monkeypatch):
        dense = {qid: RankedList(qid, (("a", 1.0),)) for qid in ("q1", "q2")}
        sparse = {qid: RankedList(qid, (("b", 2.0),)) for qid in ("q1", "q2", "q3")}
        built = []
        monkeypatch.setattr(
            cli_module, "RankedList", lambda *args: built.append(args) or RankedList(*args)
        )
        cli_module._fuse(dense, {qid: sparse[qid] for qid in dense}, 1.0)
        assert built == []
        fused = cli_module._fuse(dense, sparse, 1.0)
        assert built == [("q3", ())]
        assert fused["q3"] == RankedList("q3", (("b", 2.0),))


class TestExpandCommand:
    def test_natural_language(self, workspace):
        out = workspace / "expansions.jsonl"
        assert main(["expand", "--queries", str(workspace / "queries.jsonl"),
                     "--snippets", str(workspace / "snippets.jsonl"),
                     "--mode", "nl", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_qid = {r["query_id"]: r for r in records}
        assert "marker1" in by_qid["q1"]["text"]
        assert by_qid["q3"]["text"] == ""  # uncached -> fallback record

    @pytest.mark.parametrize(
        "mode, source", [("natural_language", "web_serp"), ("NL", "SERP"), ("Natural_Language", "Wiki")]
    )
    def test_mode_and_source_take_every_alias_in_any_case(self, workspace, mode, source):
        argv = ["expand", "--queries", str(workspace / "queries.jsonl"),
                "--snippets", str(workspace / "snippets.jsonl"), "--out"]
        expected, got = workspace / "expected.jsonl", workspace / "got.jsonl"
        canonical_source = "wiki" if source.lower() == "wiki" else "serp"
        assert main(argv + [str(expected), "--mode", "nl", "--source", canonical_source]) == 0
        assert main(argv + [str(got), "--mode", mode, "--source", source]) == 0
        assert got.read_bytes() == expected.read_bytes()

    def test_mode_none_is_a_usage_error(self, workspace):
        assert main(["expand", "--queries", str(workspace / "queries.jsonl"),
                     "--snippets", str(workspace / "snippets.jsonl"), "--mode", "none"]) == 1

    def test_terms_requires_corpus(self, workspace, capsys):
        code = main(["expand", "--queries", str(workspace / "queries.jsonl"),
                     "--snippets", str(workspace / "snippets.jsonl"),
                     "--mode", "terms"])
        assert code == 2
        assert capsys.readouterr().err == "error: --mode terms requires --corpus\n"

    def test_index_flag_is_a_usage_error(self, workspace):
        # The terms-mode LM comes from --corpus only; there is no --index.
        assert main(["expand", "--queries", str(workspace / "queries.jsonl"),
                     "--snippets", str(workspace / "snippets.jsonl"),
                     "--mode", "terms", "--index", str(workspace / "corpus.idx")]) == 1

    def test_terms_with_corpus(self, workspace, monkeypatch):
        monkeypatch.setattr("augrank.cli.build_index", no_index)  # counted from tokens
        out = workspace / "term_expansions.jsonl"
        assert main(["expand", "--queries", str(workspace / "queries.jsonl"),
                     "--snippets", str(workspace / "snippets.jsonl"),
                     "--mode", "terms", "--corpus", str(workspace / "corpus.jsonl"),
                     "--max-terms", "4", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        by_qid = {r["query_id"]: r for r in records}
        terms = by_qid["q1"]["text"].split()
        assert 0 < len(terms) <= 4
        assert "marker1" in terms


class TestRerankCommand:
    def argv(self, workspace):
        run = workspace / "initial.run"
        run.write_text("q1 Q0 d1a 1 2.0 init\nq1 Q0 d1rel 2 1.0 init\n")
        return ["rerank", "--run", str(run), "--corpus", str(workspace / "corpus.jsonl"),
                "--queries", str(workspace / "queries.jsonl")]

    @pytest.mark.parametrize("scorer", ["lexical_baseline", "BASELINE", "Lexical_Baseline"])
    def test_scorer_takes_every_alias_in_any_case(self, workspace, capsys, scorer):
        argv = self.argv(workspace)
        assert main(argv + ["--scorer", "baseline"]) == 0
        expected = capsys.readouterr().out
        assert main(argv + ["--scorer", scorer]) == 0
        assert capsys.readouterr().out == expected

    def test_default_tag_on_every_line(self, workspace, capsys):
        assert main(self.argv(workspace)) == 0
        assert run_tags(capsys.readouterr().out) == ["augrank", "augrank"]

    def test_run_of_no_listed_query_scores_nothing_and_writes_no_line(
        self, workspace, capsys
    ):
        argv = self.argv(workspace)
        (workspace / "initial.run").write_text("q9 Q0 d1a 1 2.0 init\n")
        assert main(argv) == 0
        assert capsys.readouterr().out == ""

    def test_reranks_in_query_file_order(self, workspace, capsys):
        argv = self.argv(workspace)
        (workspace / "initial.run").write_text("q2 Q0 d2a 1 2.0 init\nq1 Q0 d1a 1 2.0 init\n")
        assert main(argv) == 0
        assert [ranked.query_id for ranked in parse_run(capsys.readouterr().out)] == ["q1", "q2"]

    def test_run_queries_missing_from_query_file_left_out_as_the_pipeline_does(
        self, workspace, capsys
    ):
        argv = self.argv(workspace)
        assert main(argv) == 0
        clean = capsys.readouterr()
        run = workspace / "initial.run"
        run.write_text("q9 Q0 d1a 1 5.0 init\n" + run.read_text() + "q8 Q0 d2a 1 1.0 init\n")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == clean.out
        assert captured.err == (
            "warning: run queries missing from the query file, left out of the run: 2 (q9, q8)\n"
        )

    def test_unparseable_address_is_a_data_error(self, workspace, capsys):
        assert main(self.argv(workspace) + ["--scorer", "remote", "--address", "http://[::1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'http://[::1'" in captured.err and "Traceback" not in captured.err


class TestTrainsetCommand:
    def test_build_with_balance(self, workspace):
        triples = workspace / "triples.jsonl"
        write_jsonl(
            triples,
            [
                {"query_id": "q1", "passage_id": "d1rel", "label": "relevant"},
                {"query_id": "q1", "passage_id": "d1a", "label": "not_relevant"},
                {"query_id": "q2", "passage_id": "d2a", "label": "not_relevant"},
                {"query_id": "q3", "passage_id": "d3b", "label": "not_relevant"},
            ],
        )
        out = workspace / "train.txt"
        assert main(["trainset", "build", "--triples", str(triples),
                     "--corpus", str(workspace / "corpus.jsonl"),
                     "--queries", str(workspace / "queries.jsonl"),
                     "--balance", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # 1 pos upsampled to 3, plus 3 neg
        assert sum(line.endswith("Relevant: true") for line in lines) == 3
        assert all(line.startswith("Query: ") for line in lines)

    @pytest.mark.parametrize("text", ["first line\nsecond line", "first line\r\nsecond line",
                                      "first line\u2028second line"])
    def test_line_break_in_a_sequence_is_a_data_error(self, workspace, capsys, text):
        corpus = workspace / "broken_corpus.jsonl"
        write_jsonl(corpus, [{"id": "d1", "text": text}, {"id": "d2", "text": "one line"}])
        triples = workspace / "triples.jsonl"
        write_jsonl(triples, [{"query_id": "q1", "passage_id": "d2", "label": "relevant"},
                              {"query_id": "q1", "passage_id": "d1", "label": "not_relevant"}])
        out = workspace / "train.txt"
        assert main(["trainset", "build", "--triples", str(triples), "--corpus", str(corpus),
                     "--queries", str(workspace / "queries.jsonl"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'q1'" in err and "'d1'" in err and "Traceback" not in err
        assert not out.exists()


class TestEvalAndCompareCommands:
    def test_eval_reports_values(self, workspace, capsys):
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 2.0 t\nq1 Q0 d1a 2 1.0 t\nq2 Q0 d2a 1 1.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metrics", "s@1,mrr@10"]) == 0
        output = capsys.readouterr().out
        assert "s@1\t0.5000" in output
        assert "queries\t2" in output

    def test_eval_canonical_token(self, workspace, capsys):
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 2.0 t\nq2 Q0 d2a 1 1.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metrics", "S@01"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "s@1\t0.5000"

    def test_eval_reports_every_cutoff_of_one_metric(self, workspace, capsys):
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1a 1 2.0 t\nq1 Q0 d1rel 2 1.0 t\nq2 Q0 d2rel 1 1.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metrics", "mrr@2,mrr@1,ndcg@1"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "mrr@2\t0.7500", "mrr@1\t0.5000", "ndcg@1\t0.5000"
        ]

    def test_eval_names_judged_queries_missing_from_run_on_stderr(self, workspace, capsys):
        (workspace / "qrels2.txt").write_text("q1 0 d1rel 1\nq2 0 d2rel 1\n")
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 2.0 t\n")
        args = ["eval", "--run", str(run), "--qrels", str(workspace / "qrels2.txt"),
                "--metrics", "s@1"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == "s@1\t1.0000\nqueries\t1\nunjudged\t0\n"
        assert captured.err == (
            "warning: judged queries missing from the run, left out of the metrics: 1 (q2)\n"
        )
        aggregate, per_query = workspace / "agg.tsv", workspace / "pq.tsv"
        assert main(args + ["--out", str(aggregate), "--per-query", str(per_query)]) == 0
        assert capsys.readouterr().out == ""
        assert aggregate.read_text() == "s@1\t1.0000\nqueries\t1\nunjudged\t0\n"
        assert per_query.read_text() == "query_id\ts@1\nq1\t1.000000\n"

    @pytest.mark.parametrize("metrics, named", [("s@1,S@1", "S@1")])
    def test_eval_rejects_conflicting_tokens(self, workspace, capsys, metrics, named):
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 2.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metrics", metrics]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(named) in captured.err

    @pytest.mark.parametrize("metrics", ["s@1_0", "ndcg@\uff15"])
    def test_eval_rejects_a_cutoff_that_is_not_plain_ascii(self, workspace, capsys, metrics):
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 2.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                     "--metrics", metrics]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: unknown metric token {metrics!r}\n" == captured.err

    def per_query_reports(self, workspace):
        base_run = workspace / "base.run"
        treat_run = workspace / "treat.run"
        base_run.write_text(
            "q1 Q0 d1a 1 2.0 t\nq1 Q0 d1rel 2 1.0 t\n"
            "q2 Q0 d2a 1 2.0 t\nq2 Q0 d2rel 2 1.0 t\n"
            "q3 Q0 d3b 1 2.0 t\nq3 Q0 d3rel 2 1.0 t\n"
        )
        treat_run.write_text(
            "q1 Q0 d1rel 1 2.0 t\nq1 Q0 d1a 2 1.0 t\n"
            "q2 Q0 d2rel 1 2.0 t\nq2 Q0 d2a 2 1.0 t\n"
            "q3 Q0 d3rel 1 2.0 t\nq3 Q0 d3b 2 1.0 t\n"
        )
        base_pq = workspace / "base_pq.tsv"
        treat_pq = workspace / "treat_pq.tsv"
        for run, pq in ((base_run, base_pq), (treat_run, treat_pq)):
            assert main(["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt"),
                         "--per-query", str(pq), "--out", str(workspace / "agg.tsv")]) == 0
        return base_pq, treat_pq

    def test_compare_between_per_query_reports(self, workspace, capsys):
        base_pq, treat_pq = self.per_query_reports(workspace)
        assert main(["compare", "--baseline", str(base_pq), "--treatment", str(treat_pq),
                     "--metric", "s@1"]) == 0
        output = capsys.readouterr().out
        row = output.splitlines()[1].split("\t")
        assert row[0] == "s@1"
        assert row[5] == "p01"  # uniform +1 uplift -> zero variance branch
        report = load_per_query_report(base_pq.read_text())
        assert report.query_count == 3

    @pytest.mark.parametrize("value", ["0_0", "\uff10.5", "0.\u0665"])
    def test_per_query_value_must_be_plain_ascii_at_its_line(self, value):
        with pytest.raises(ParseError, match=r"^line 3: non-numeric metric value"):
            load_per_query_report(f"query_id\ts@1\nq1\t1.0\nq2\t{value}\n")
        report = load_per_query_report("query_id\ts@1\nq1\t+1e0\nq2\t0\n")
        assert report.per_query == {"q1": {"s@1": 1.0}, "q2": {"s@1": 0.0}}

    def test_repeated_per_query_report_row_is_a_conflict_at_its_line(self):
        with pytest.raises(ConflictError, match=r"^line 3: duplicate query id 'q1'$"):
            load_per_query_report("query_id\ts@1\nq1\t1.0\nq1\t0.0\n")

    def test_compare_canonicalizes_the_metric_token(self, workspace, capsys):
        base_pq, treat_pq = self.per_query_reports(workspace)
        argv = ["compare", "--baseline", str(base_pq), "--treatment", str(treat_pq), "--metric"]
        assert main(argv + ["s@1"]) == 0
        canonical = capsys.readouterr().out
        assert main(argv + [" S@01 "]) == 0
        assert capsys.readouterr().out == canonical

    @pytest.mark.parametrize("token", ["p@5", "s@1,map", "S@0"])
    def test_compare_rejects_a_bad_metric_token(self, workspace, capsys, token):
        base_pq, treat_pq = self.per_query_reports(workspace)
        assert main(["compare", "--baseline", str(base_pq), "--treatment", str(treat_pq),
                     "--metric", token]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(token) in captured.err and "Traceback" not in captured.err


# Characters JSON must escape or that are whitespace only outside ASCII:
# quote, backslash, control characters, DEL, NEL, U+2028/U+2029, and a
# non-BMP character; ids take those that a run column can hold.
_ID_PIECES = ['"', "\\", "\x00", "\x01", "\x7f", "\U0001f600", "é", "Document:", "d", "1"]
_TEXT_PIECES = _ID_PIECES + [
    "\x1f", "\x85", "\u2028", "\u2029", "\t", "\n", " ", "Query:", " Description: ", "Relevant:"
]
_ids = st.lists(st.sampled_from(_ID_PIECES), min_size=1, max_size=4).map("".join)
_texts = st.lists(
    st.sampled_from(_TEXT_PIECES) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    max_size=8,
).map("".join)


class CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestRerankInputsFile:
    BASELINE = ScorerEndpoint(ScorerKind.LEXICAL_BASELINE)

    # Each query has its own template head: no expansion, the empty
    # fallback (both the plain head) or a description.
    _queries = st.lists(
        st.tuples(_ids, _texts, st.one_of(st.none(), st.just(""), _texts)),
        min_size=1, max_size=3, unique_by=lambda q: q[0],
    )

    _passages = st.lists(st.tuples(_ids, _texts), min_size=1, max_size=4,
                         unique_by=lambda p: p[0])

    @staticmethod
    def drawn_run(drawn, passages):
        """The queries, corpus, initial run and expansions of a drawn run;
        every query's initial list holds the whole corpus."""
        queries = [Query(qid, text) for qid, text, _ in drawn]
        corpus = {pid: Passage(pid, None, doc) for pid, doc in passages}
        initial = {
            q.id: RankedList(q.id, tuple((pid, -float(i)) for i, pid in enumerate(corpus)))
            for q in queries
        }
        expansions = {
            qid: Expansion(qid, ExpansionMode.NATURAL_LANGUAGE, description)
            for qid, _, description in drawn if description is not None
        }
        return queries, corpus, initial, expansions

    @staticmethod
    def json_lines(inputs):
        return "".join(
            json.dumps(
                {"query_id": item.query_id, "passage_id": item.passage_id,
                 "sequence": item.sequence},
                ensure_ascii=False,
            ) + "\n"
            for item in inputs
        )

    @given(_queries, _passages, st.integers(1, 4))
    def test_every_line_is_json_dumps_of_its_record(self, drawn, passages, k):
        queries, corpus, initial, expansions = self.drawn_run(drawn, passages)
        inputs_out = io.StringIO()
        _rerank(queries, initial, corpus, expansions, self.BASELINE, k, "t", os.devnull,
                inputs_out)
        assert inputs_out.getvalue() == self.json_lines(
            build_augmented_input(q, expansions.get(q.id), corpus[pid])
            for q in queries
            for pid, _ in initial[q.id].entries[:k]
        )

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_queries, _passages, st.integers(1, 4), st.integers(1, 3))
    @example(
        [("q1", "é\x7f", None), ("q2", "é\x7f", "\u2028")], [("d1", "\U0001f600"), ("d2", "x")],
        2, 3,
    )
    def test_remote_bodies_and_lines_are_json_dumps(
        self, scorer_server, drawn, passages, k, batch_size
    ):
        queries, corpus, initial, expansions = self.drawn_run(drawn, passages)
        scorer_server.bodies.clear()
        endpoint = ScorerEndpoint(ScorerKind.REMOTE, scorer_server.address, batch_size=batch_size)
        inputs_out = io.StringIO()
        _rerank(queries, initial, corpus, expansions, endpoint, k, "t", os.devnull, inputs_out)
        inputs = [
            build_augmented_input(q, expansions.get(q.id), corpus[pid])
            for q in queries
            for pid, _ in initial[q.id].entries[:k]
        ]
        assert scorer_server.bodies == [
            json.dumps(
                {"inputs": [item.sequence for item in inputs[i : i + batch_size]]},
                ensure_ascii=False,
            ).encode()
            for i in range(0, len(inputs), batch_size)
        ]
        assert inputs_out.getvalue() == self.json_lines(inputs)

    @pytest.mark.parametrize("scorer", ["lexical_baseline", "remote"])
    def test_each_distinct_head_and_document_escaped_once_per_call(
        self, monkeypatch, request, scorer
    ):
        # Two queries with one text and no expansion share a head, a third
        # with an expansion has its own, and all three hold one document.
        address = request.getfixturevalue("scorer_server").address if scorer == "remote" else None
        escaped = []
        encode = rerank_module.encode_json_string

        def counting_encode(text):
            escaped.append(text)
            return encode(text)

        monkeypatch.setattr(rerank_module, "encode_json_string", counting_encode)
        queries = [Query("q1", "apple"), Query("q2", "apple"), Query("q3", "apple")]
        corpus = {"d1": Passage("d1", None, "apple pie"), "d2": Passage("d2", None, "tart")}
        initial = {
            "q1": RankedList("q1", (("d1", 2.0), ("d2", 1.0))),
            "q2": RankedList("q2", (("d2", 2.0), ("d1", 1.0))),
            "q3": RankedList("q3", (("d1", 1.0),)),
        }
        expansions = {"q3": Expansion("q3", ExpansionMode.NATURAL_LANGUAGE, "crumble")}
        inputs_out = io.StringIO()
        _rerank(queries, initial, corpus, expansions, ScorerEndpoint(scorer, address), 2, "t",
                os.devnull, inputs_out)
        heads = [rerank_module.template_head("apple", d) for d in (None, "crumble")]
        # Each line escapes its own ids; every head and document is escaped
        # once for the whole call.
        ids = {"q1", "q2", "q3", "d1", "d2"}
        assert sorted(t for t in escaped if t not in ids) == sorted([*heads, "apple pie", "tart"])
        assert inputs_out.getvalue() == self.json_lines(
            build_augmented_input(q, expansions.get(q.id), corpus[pid])
            for q in queries
            for pid, _ in initial[q.id].entries[:2]
        )

    def test_template_built_once_per_reranked_query(self, monkeypatch):
        # inputs.jsonl is written from the inputs that were scored: every
        # RerankInput built in augrank.cli and augrank.rerank together is
        # one candidate of one reranked query, so the builds sum the depths.
        calls = []
        init = rerank_module.RerankInput.__init__

        def counting_init(self, query_id, *args):
            calls.append(query_id)
            init(self, query_id, *args)

        monkeypatch.setattr(rerank_module.RerankInput, "__init__", counting_init)
        queries = [Query("q1", "apple"), Query("q2", "no run"), Query("q3", "pie")]
        corpus = {pid: Passage(pid, None, f"apple pie {pid}") for pid in ("d1", "d2", "d3")}
        entries = (("d1", 3.0), ("d2", 2.0), ("d3", 1.0))
        initial = {"q1": RankedList("q1", entries), "q3": RankedList("q3", entries[:2])}
        expansions = {"q3": Expansion("q3", ExpansionMode.NATURAL_LANGUAGE, "tart")}
        inputs_out = io.StringIO()
        _rerank(queries, initial, corpus, expansions, self.BASELINE, 3, "t", os.devnull,
                inputs_out)
        assert calls == ["q1"] * 3 + ["q3"] * 2
        assert len(inputs_out.getvalue().splitlines()) == 5

    def test_one_write_per_reranked_query(self):
        queries = [Query("q1", "apple"), Query("q2", "no run"), Query("q3", "pie")]
        corpus = {pid: Passage(pid, None, f"apple pie {pid}") for pid in ("d1", "d2", "d3")}
        entries = (("d1", 3.0), ("d2", 2.0), ("d3", 1.0))
        initial = {qid: RankedList(qid, entries) for qid in ("q1", "q3")}
        inputs_out = CountingStream()
        _rerank(queries, initial, corpus, {}, self.BASELINE, 3, "t", os.devnull, inputs_out)
        assert inputs_out.writes == 2
        assert len(inputs_out.getvalue().splitlines()) == 6


class TestPipeline:
    def test_mode_none_matches_direct_rerank(self, workspace, capsys):
        config = make_config(workspace, "out_none")
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        out_dir = workspace / "out_none"
        assert (out_dir / "reranked.run").exists()
        assert (out_dir / "metrics.tsv").exists()
        assert (out_dir / "per_query.tsv").exists()
        assert not (out_dir / "expansions.jsonl").exists()
        # ablation identity: no Description segment in any input
        inputs = [json.loads(l) for l in (out_dir / "inputs.jsonl").read_text().splitlines()]
        assert all("Description:" not in r["sequence"] for r in inputs)

    def test_every_run_line_ends_in_run_tag(self, workspace):
        for out_name, extra, tag in (("tag_default", {}, "augrank"),
                                     ("tag_set", {"run_tag": "exp-1", "mode": "nl"}, "exp-1")):
            config = make_config(workspace, out_name, **extra)
            assert main(["pipeline", "run", "--config", str(config)]) == 0
            lines = (workspace / out_name / "reranked.run").read_text().splitlines()
            assert lines and all(line.endswith(" " + tag) for line in lines)

    def test_reruns_are_byte_identical(self, workspace):
        first = make_config(workspace, "det_a", mode="nl")
        second = make_config(workspace, "det_b", mode="nl")
        assert main(["pipeline", "run", "--config", str(first)]) == 0
        assert main(["pipeline", "run", "--config", str(second)]) == 0
        for name in ("reranked.run", "metrics.tsv", "per_query.tsv",
                     "expansions.jsonl", "inputs.jsonl"):
            a = (workspace / "det_a" / name).read_bytes()
            b = (workspace / "det_b" / name).read_bytes()
            assert a == b, name

    def test_augmentation_improves_and_compares(self, workspace):
        baseline_cfg = make_config(workspace, "out_base")
        assert main(["pipeline", "run", "--config", str(baseline_cfg)]) == 0
        augmented_cfg = make_config(
            workspace,
            "out_aug",
            mode="nl",
            baseline_run=str(workspace / "out_base" / "reranked.run"),
        )
        assert main(["pipeline", "run", "--config", str(augmented_cfg)]) == 0
        base_s1 = read_metric(workspace / "out_base" / "metrics.tsv", "s@1")
        aug_s1 = read_metric(workspace / "out_aug" / "metrics.tsv", "s@1")
        assert aug_s1 > base_s1
        compare_lines = (workspace / "out_aug" / "compare.tsv").read_text().splitlines()
        assert compare_lines[0].startswith("metric\t")
        assert any(line.startswith("s@1\t") for line in compare_lines[1:])

    def test_rerun_leaves_none_of_the_earlier_runs_artifacts(self, workspace):
        # An nl run with a baseline, then a run in mode none without one,
        # into the same directory: it holds what a fresh none run writes.
        assert main(["pipeline", "run", "--config", str(make_config(workspace, "base"))]) == 0
        baseline = str(workspace / "base" / "reranked.run")
        nl_cfg = make_config(workspace, "out", mode="nl", baseline_run=baseline)
        assert main(["pipeline", "run", "--config", str(nl_cfg)]) == 0
        out = workspace / "out"
        assert (out / "expansions.jsonl").exists() and (out / "compare.tsv").exists()
        assert main(["pipeline", "run", "--config", str(make_config(workspace, "out"))]) == 0
        assert main(["pipeline", "run", "--config", str(make_config(workspace, "fresh"))]) == 0
        written = {path.name: path.read_bytes() for path in out.iterdir()}
        assert written == {path.name: path.read_bytes() for path in (workspace / "fresh").iterdir()}
        assert sorted(written) == ["inputs.jsonl", "metrics.tsv", "per_query.tsv", "reranked.run"]

    def test_earlier_artifact_that_cannot_be_removed_names_the_clean_stage(
        self, workspace, capsys
    ):
        # compare.tsv is a directory here, which os.remove cannot remove.
        (workspace / "out" / "compare.tsv").mkdir(parents=True)
        assert main(["pipeline", "run", "--config", str(make_config(workspace, "out"))]) == 2
        assert "error: pipeline stage 'clean' failed: " in capsys.readouterr().err

    def test_baseline_run_that_the_run_would_overwrite_is_refused(self, workspace, capsys):
        assert main(["pipeline", "run", "--config", str(make_config(workspace, "out_b"))]) == 0
        baseline = workspace / "o3" / "reranked.run"
        baseline.parent.mkdir()
        baseline.write_bytes((workspace / "out_b" / "reranked.run").read_bytes())
        before = baseline.read_bytes()
        argv = ["pipeline", "run", "--mode", "nl", "--output-dir", str(workspace / "o3"),
                "--baseline-run", str(baseline), "--config", str(make_config(workspace, "out_c"))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"baseline_run {str(baseline)!r} is one of the run's artifacts" in err
        assert baseline.read_bytes() == before
        assert os.listdir(workspace / "o3") == ["reranked.run"]

    @pytest.mark.parametrize("output_dir", ["", "out\0x"], ids=["empty", "nul"])
    def test_output_dir_that_names_no_directory_is_refused(self, workspace, capsys, output_dir):
        config = make_config(workspace, "out_nul", output_dir=output_dir)
        before = sorted(os.listdir(workspace))
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config {config}: output_dir must name a directory, got {output_dir!r}" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(workspace)) == before

    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under_file"])
    def test_output_dir_at_or_under_an_existing_file_is_refused(self, workspace, capsys, under):
        output_dir = str(workspace / "qrels.txt" / under)
        config = make_config(workspace, "out_file", output_dir=output_dir)
        before = sorted(os.listdir(workspace))
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config {config}: output_dir {output_dir!r} is not a directory\n"
        assert sorted(os.listdir(workspace)) == before

    def test_input_reaching_an_artifact_by_a_symlink_is_refused_in_any_mode(
        self, workspace, capsys
    ):
        # Mode none writes no expansions.jsonl, but the path is refused all the same.
        (workspace / "o4").mkdir()
        (workspace / "o4" / "expansions.jsonl").write_bytes(
            (workspace / "snippets.jsonl").read_bytes()
        )
        (workspace / "alias").symlink_to(workspace / "o4")
        cache = str(workspace / "alias" / "expansions.jsonl")
        config = make_config(workspace, "o4", snippet_cache=cache)
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        assert f"snippet_cache {cache!r} is one of the run's artifacts" in capsys.readouterr().err
        assert os.listdir(workspace / "o4") == ["expansions.jsonl"]

    def test_judged_queries_without_candidates_named_on_stderr(self, workspace, capsys):
        queries = [{"id": "q1", "text": "shared topic1"}, {"id": "q2", "text": "zebra"},
                   {"id": "q3", "text": "yak"}, {"id": "q4", "text": "gnu"}]
        write_jsonl(workspace / "queries.jsonl", queries)  # q4 is not judged
        config = make_config(workspace, "out_drop")
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: judged queries without candidates, left out of the metrics: 2 (q2, q3)\n"
        )
        assert "queries\t1\n" in captured.out
        run = parse_run((workspace / "out_drop" / "reranked.run").read_text())
        assert [ranked.query_id for ranked in run] == ["q1"]

    def test_all_fallback_expansions_equal_mode_none(self, workspace):
        empty_cache = workspace / "empty_snippets.jsonl"
        empty_cache.write_text("")
        plain_cfg = make_config(workspace, "fb_none")
        fallback_cfg = make_config(
            workspace, "fb_nl", mode="nl", snippet_cache=str(empty_cache)
        )
        assert main(["pipeline", "run", "--config", str(plain_cfg)]) == 0
        assert main(["pipeline", "run", "--config", str(fallback_cfg)]) == 0
        for name in ("reranked.run", "metrics.tsv", "per_query.tsv", "inputs.jsonl"):
            plain = (workspace / "fb_none" / name).read_bytes()
            fallback = (workspace / "fb_nl" / name).read_bytes()
            assert plain == fallback, name

    def test_cli_override_beats_config(self, workspace):
        config = make_config(workspace, "out_override")
        assert main(["pipeline", "run", "--config", str(config),
                     "--mode", "nl", "--output-dir", str(workspace / "out_override2")]) == 0
        assert (workspace / "out_override2" / "expansions.jsonl").exists()

    def test_initial_run_and_fusion_inputs(self, workspace):
        # supply the initial ranking and a dense run from files
        initial = workspace / "initial.run"
        initial.write_text(
            "q1 Q0 d1a 1 3.0 init\nq1 Q0 d1rel 2 2.0 init\nq1 Q0 d1b 3 1.0 init\n"
            "q2 Q0 d2a 1 3.0 init\nq2 Q0 d2rel 2 2.0 init\n"
            "q3 Q0 d3rel 1 3.0 init\n"
        )
        dense = workspace / "dense.run"
        dense.write_text("q1 Q0 d1rel 1 9.0 dense\nq2 Q0 d2rel 1 9.0 dense\n")
        config = make_config(
            workspace, "out_fused",
            initial_run=str(initial), dense_run=str(dense), fusion_alpha="1.3",
        )
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        assert (workspace / "out_fused" / "reranked.run").exists()

    def test_terms_with_initial_run_builds_no_index(self, workspace, monkeypatch):
        monkeypatch.setattr("augrank.cli.build_index", no_index)
        initial = workspace / "initial.run"
        initial.write_text("".join(
            f"q{i} Q0 d{i}{suffix} {r} {3 - r}.0 init\n"
            for i in (1, 2, 3) for r, suffix in enumerate(("a", "rel", "b"), start=1)
        ))
        config = make_config(workspace, "out_terms_initial", mode="terms",
                             initial_run=str(initial))
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        records = [json.loads(line) for line in
                   (workspace / "out_terms_initial" / "expansions.jsonl").read_text().splitlines()]
        assert "marker1" in records[0]["text"].split()

    def test_length_norms_built_once_across_every_search(self, workspace, monkeypatch):
        searched, tables = [], []

        def recording_search(index, query, k):
            searched.append(index)
            return search(index, query, k)

        def recording_norms(index):
            table = length_norms(index)
            tables.append((index, table))
            return table

        search, length_norms = cli_module.bm25_search, index_module._length_norms
        monkeypatch.setattr(cli_module, "bm25_search", recording_search)
        monkeypatch.setattr(index_module, "_length_norms", recording_norms)
        config = make_config(workspace, "out_norms")
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        assert len(searched) == 3 and all(index is searched[0] for index in searched)
        read = [table for index, table in tables if index is searched[0]]
        assert len(read) > 1 and all(table is read[0] for table in read)

    def test_run_queries_missing_from_query_file_named_on_stderr(self, workspace, capsys):
        lines = "".join(
            f"q{i} Q0 d{i}{suffix} {r} {3 - r}.0 init\n"
            for i in (1, 2, 3) for r, suffix in enumerate(("a", "rel", "b"), start=1)
        )
        clean, extra = workspace / "clean.run", workspace / "extra.run"
        clean.write_text(lines)
        extra.write_text(lines + "q9 Q0 d1a 1 1.0 init\n")
        dense = workspace / "dense.run"
        dense.write_text("q1 Q0 d1rel 1 9.0 dense\nq8 Q0 d2a 1 9.0 dense\n")

        def run(initial, dense_run=None):
            config = make_config(workspace, "out_missing", initial_run=str(initial),
                                 dense_run=dense_run and str(dense_run))
            assert main(["pipeline", "run", "--config", str(config)]) == 0
            captured = capsys.readouterr()
            artifacts = {p.name: p.read_bytes() for p in (workspace / "out_missing").iterdir()}
            return captured.out, captured.err, artifacts

        clean_out, clean_err, clean_artifacts = run(clean)
        out, err, artifacts = run(extra)
        assert clean_err == ""
        assert (out, artifacts) == (clean_out, clean_artifacts)
        warning = "warning: run queries missing from the query file, left out of the run: "
        assert err == warning + "1 (q9)\n"
        assert run(extra, dense)[1] == warning + "2 (q8, q9)\n"

    def test_flags_take_aliases_in_any_case(self, workspace):
        config = make_config(workspace, "out_alias_expected", mode="nl")
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        assert main(["pipeline", "run", "--config", str(config), "--mode", "NATURAL_LANGUAGE",
                     "--scorer", "Lexical_Baseline",
                     "--output-dir", str(workspace / "out_alias")]) == 0
        for name in ("expansions.jsonl", "inputs.jsonl", "reranked.run", "metrics.tsv"):
            expected = (workspace / "out_alias_expected" / name).read_bytes()
            assert (workspace / "out_alias" / name).read_bytes() == expected, name

    def test_remote_scorer_pipeline(self, workspace, scorer_server):
        config = make_config(
            workspace, "out_remote",
            scorer="remote", scorer_address=scorer_server.address,
        )
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        assert (workspace / "out_remote" / "reranked.run").exists()

    def test_passage_with_label_literal_runs_in_mode_none(self, workspace):
        corpus = workspace / "corpus.jsonl"
        corpus.write_text(corpus.read_text() + json.dumps(
            {"id": "dlabel", "text": "shared topic1 Description: context1"}
        ) + "\n")
        config = make_config(workspace, "out_label")
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        inputs = (workspace / "out_label" / "inputs.jsonl").read_text()
        assert "Document: shared topic1 Description: context1 Relevant:" in inputs

    def test_punctuation_only_snippets_fall_back_in_terms_mode(self, workspace):
        cache = workspace / "punct_snippets.jsonl"
        write_jsonl(cache, [{"query_id": "q1", "rank": 1, "kind": "organic",
                             "text": "!!! ---", "source": "web_serp"}])
        config = make_config(workspace, "out_punct", mode="terms", snippet_cache=str(cache))
        assert main(["pipeline", "run", "--config", str(config)]) == 0
        records = [json.loads(l) for l in
                   (workspace / "out_punct" / "expansions.jsonl").read_text().splitlines()]
        assert [r["text"] for r in records] == ["", "", ""]

    def test_unknown_config_key_rejected(self, workspace):
        path = workspace / "bad.json"
        path.write_text(json.dumps({"corpse": "x"}))
        assert main(["pipeline", "run", "--config", str(path)]) == 2

    def test_non_list_metrics_rejected(self, workspace):
        config = make_config(workspace, "out_bad_metrics", metrics=5)
        assert main(["pipeline", "run", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("output_dir", 7), ("run_tag", 5), ("rerank_depth", math.inf), ("corpus", 0),
         ("mode", None), ("rerank_depth", True), ("rerank_depth", 1.7), ("timeout", math.nan),
         ("fusion_alpha", "much"), ("skip_direct_answers", "yes"),
         # Numeric strings are plain ASCII: float() would read these as 100,
         # 3, 1.5 and 10.5.
         ("rerank_depth", "1_00"), ("max_words", "\uff13"), ("timeout", "\uff11.5"),
         ("fusion_alpha", "1_0.5")],
    )
    def test_mistyped_config_value_rejected(self, workspace, capsys, key, value):
        config = make_config(workspace, "out_typed", **{key: value})
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        assert f": {key} must be" in capsys.readouterr().err
        assert not (workspace / "out_typed").exists()

    @pytest.mark.parametrize(
        "extra, named",
        [({"batch_size": 0}, "batch_size must be >= 1, got 0"),
         ({"scorer": "remote"}, "remote scorer requires an http(s) address, got None"),
         ({"mode": "nl", "max_words": 0}, "max_words must be >= 1, got 0"),
         ({"mode": "terms", "max_terms": 0}, "max_terms must be >= 1, got 0"),
         ({"fusion_alpha": -1}, "fusion alpha must be finite and >= 0, got -1"),
         ({"max_snippets": 0}, "max_snippets must be >= 1, got 0"),
         ({"mode": "fancy"}, "unknown expansion mode 'fancy'"),
         ({"metrics": "s@0"}, "metric token 's@0': cutoff must be >= 1"),
         ({"scorer": "remote", "scorer_address": "http:///score"},
          "remote scorer address needs a host and a port in 1..65535, got 'http:///score'"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:abc"},
          "remote scorer address needs a host and a port in 1..65535, "
          "got 'http://127.0.0.1:abc'"),
         ({"scorer": "remote", "scorer_address": "http://[::1"},
          "remote scorer address 'http://[::1': Invalid IPv6 URL"),
         ({"run_tag": "a b"}, "run tag 'a b' is not a single non-empty token"),
         ({"run_tag": ""}, "run tag '' is not a single non-empty token"),
         # Ranges are checked whatever the mode, although mode none expands nothing.
         ({"mode": "none", "max_words": 0}, "max_words must be >= 1, got 0"),
         # "/score" appended after a query string or a fragment would not
         # extend the path: "/?k=1/score" and "/#frag/score" post to "/".
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:8000/?k=1"},
          "remote scorer address must not have a query string or a fragment, "
          "got 'http://127.0.0.1:8000/?k=1'"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:8000/#frag"},
          "remote scorer address must not have a query string or a fragment, "
          "got 'http://127.0.0.1:8000/#frag'"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:8000?"},
          "remote scorer address must not have a query string or a fragment, "
          "got 'http://127.0.0.1:8000?'"),
         ({"timeout": 1e10}, f"timeout must be at most {_thread.TIMEOUT_MAX}, got 10000000000.0"),
         # Addresses no request could be sent to: the host is looked up as
         # IDNA and the path sent as ASCII, with no space or control character.
         ({"scorer": "remote", "scorer_address": "http://a..b:1"},
          "remote scorer address 'http://a..b:1': encoding with 'idna' codec failed"),
         ({"scorer": "remote", "scorer_address": f"http://{'a' * 64}.example:1"},
          f"remote scorer address 'http://{'a' * 64}.example:1': encoding with 'idna' codec failed"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:9/\u00fc"},
          "remote scorer address must have an ASCII path and no space or control character, "
          "got 'http://127.0.0.1:9/\u00fc'"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:9/a b"},
          "remote scorer address must have an ASCII path and no space or control character, "
          "got 'http://127.0.0.1:9/a b'"),
         ({"scorer": "remote", "scorer_address": "http://127.0.0.1:9/a\tb"},
          "remote scorer address must have an ASCII path and no space or control character, "
          "got 'http://127.0.0.1:9/a\\tb'")],
    )
    def test_bad_stage_value_rejected_before_output(self, workspace, capsys, extra, named):
        config = make_config(workspace, "out_stage", **extra)
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        assert f"config {config}: {named}" in capsys.readouterr().err
        assert not (workspace / "out_stage").exists()

    def test_unsendable_scorer_address_flag_rejected_before_output(self, workspace, capsys):
        # A byte that is not UTF-8 reaches argv as a lone surrogate.
        config = make_config(workspace, "out_flag")
        address = "http://h\udcff.example:1"
        argv = ["pipeline", "run", "--config", str(config), "--scorer", "remote",
                "--scorer-address", address]
        assert main(argv) == 2
        named = f"config {config}: remote scorer address {address!r}: encoding with 'idna' codec"
        assert named in capsys.readouterr().err
        assert not (workspace / "out_flag").exists()

    def test_numeric_strings_and_integral_floats_accepted(self, workspace):
        config = make_config(workspace, "out_numeric", rerank_depth="5", max_words=3.0,
                             timeout="2.5", dense_run=None)
        cfg = load_experiment_config(str(config))
        assert (cfg.rerank_depth, cfg.max_words, cfg.timeout, cfg.dense_run) == (5, 3, 2.5, None)
        assert type(cfg.rerank_depth) is int and type(cfg.max_words) is int

    def test_every_config_field_has_a_type_check(self):
        assert set(ExperimentConfig.__annotations__.values()) <= set(_CONFIG_TYPES)

    def test_config_fields_taken_by_name(self):
        cfg = ExperimentConfig(corpus="c", queries="q", qrels="r", output_dir="out", rerank_depth=5)
        assert (cfg.corpus, cfg.qrels, cfg.output_dir, cfg.rerank_depth) == ("c", "r", "out", 5)
        assert (cfg.max_words, cfg.dense_run) == (ExperimentConfig.max_words, None)

    @pytest.mark.parametrize(
        "values, named",
        [
            ({"corpus": "c", "queries": "q", "qrels": "r", "output_dir": "out", "colour": "red"},
             "^unknown key 'colour'$"),
            # A key named like the constructor's own parameter is just unknown.
            ({"corpus": "c", "queries": "q", "qrels": "r", "output_dir": "out", "self": "x"},
             "^unknown key 'self'$"),
            ({"corpus": "c"}, "^missing required keys: queries, qrels, output_dir$"),
        ],
        ids=["unknown", "self", "missing"],
    )
    def test_unknown_or_missing_config_field_is_a_validation_error(self, values, named):
        with pytest.raises(ValidationError, match=named):
            ExperimentConfig(**values)

    def test_config_takes_the_expansion_mode_by_value_not_by_alias(self):
        required = {"corpus": "c", "queries": "q", "qrels": "r", "output_dir": "out"}
        with pytest.raises(ValidationError, match="^unknown expansion mode 'nl'$"):
            ExperimentConfig(**required, mode="nl")
        assert ExperimentConfig(**required, mode="natural_language").mode == "natural_language"

    # One value of the wrong type per annotation in _CONFIG_TYPES.
    @pytest.mark.parametrize(
        "key, value",
        [("corpus", 5), ("dense_run", 5), ("source", 5), ("scorer", None),
         ("skip_direct_answers", "yes"), ("max_words", "5x"), ("fusion_alpha", "x"),
         ("metrics", ["s@1", 1])],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_mistyped_value_is_a_validation_error_naming_its_field(self, key, value):
        required = {"corpus": "c", "queries": "q", "qrels": "r", "output_dir": "out"}
        named = rf"^{key} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValidationError, match=named):
            ExperimentConfig(**required | {key: value})

    def test_config_takes_source_and_scorer_by_value_not_by_alias(self):
        required = {"corpus": "c", "queries": "q", "qrels": "r", "output_dir": "out"}
        cfg = ExperimentConfig(**required, source="wiki", scorer="remote",
                               scorer_address="http://127.0.0.1:1")
        assert cfg.source is SnippetSource.WIKI
        assert cfg.scorer is cfg.endpoint.kind is ScorerKind.REMOTE
        with pytest.raises(ValidationError, match="^unknown snippet source 'serp'$"):
            ExperimentConfig(**required, source="serp")
        with pytest.raises(ValidationError, match="^unknown scorer 'baseline'$"):
            ExperimentConfig(**required, scorer="baseline")

    def test_missing_path_rejected(self, workspace):
        config = make_config(workspace, "out_missing", corpus=str(workspace / "nope.jsonl"))
        assert main(["pipeline", "run", "--config", str(config)]) == 2

    def test_run_pipeline_returns_report(self, workspace):
        config = make_config(workspace, "out_api", mode="terms")
        cfg = load_experiment_config(str(config))
        report = run_pipeline(cfg)
        assert report.query_count == 3
        assert set(report.aggregate) >= {"s@1", "mrr@10", "ndcg@10", "map"}


class TestRemoteRunScoring:
    """A run is scored in one `score_batch` call, with the scores of one
    call per query. On the remote scorer its candidates go in `batch_size`
    chunks, in run order, over one keep-alive connection."""

    DEPTH, BATCH = 5, 4  # 3 queries x 5 candidates: 4 requests, not 3 x 2

    def initial_run(self, workspace):
        run = workspace / "initial.run"
        run.write_text("".join(
            f"q{i} Q0 {pid} {rank} {10 - rank}.0 init\n"
            for i in (1, 2, 3)
            for rank, pid in enumerate(
                (f"d{i}a", f"d{i}rel", f"d{i}b", f"d{i % 3 + 1}a", f"d{i % 3 + 1}b"), start=1
            )
        ))
        return run

    def run_pipeline(self, workspace, scorer_server, scorer="remote"):
        config = make_config(
            workspace, "out_run", mode="nl", initial_run=str(self.initial_run(workspace)),
            scorer=scorer, scorer_address=scorer_server.address,
            batch_size=self.BATCH, rerank_depth=self.DEPTH,
        )
        return main(["pipeline", "run", "--config", str(config)]), workspace / "out_run"

    def per_query(self, workspace, scorer_server, expansions, scorer="remote"):
        """reranked.run and inputs.jsonl from one `rerank_topk` call per
        query, each scoring its own head."""
        endpoint = ScorerEndpoint(
            ScorerKind(scorer), scorer_server.address, batch_size=self.BATCH
        )
        corpus = {p.id: p for p in load_corpus((workspace / "corpus.jsonl").read_text())}
        queries = load_queries((workspace / "queries.jsonl").read_text())
        initial = {r.query_id: r for r in parse_run((workspace / "initial.run").read_text())}
        lists = [
            rerank_topk(initial[q.id], corpus, q, expansions.get(q.id), endpoint, self.DEPTH)
            for q in queries
        ]
        run = io.StringIO()
        write_run(lists, ExperimentConfig.run_tag, run)
        inputs = "".join(
            json.dumps(
                {"query_id": q.id, "passage_id": pid,
                 "sequence": build_augmented_input(q, expansions.get(q.id), corpus[pid]).sequence},
                ensure_ascii=False,
            ) + "\n"
            for q in queries
            for pid, _ in initial[q.id].entries[:self.DEPTH]
        )
        return run.getvalue(), inputs

    # Each d<i>a and d<i>b is in two queries' heads, so lexical statistics
    # over the whole run would differ from per-query ones.
    @pytest.mark.parametrize("scorer", ["remote", "lexical_baseline"])
    def test_pipeline_scores_the_run_in_one_call(
        self, workspace, scorer_server, monkeypatch, scorer
    ):
        scorer_server.connection_mode = "keep_alive"
        calls = []
        score_batch = rerank_module.score_batch
        monkeypatch.setattr(
            rerank_module, "score_batch",
            lambda inputs, endpoint: calls.append(len(inputs)) or score_batch(inputs, endpoint),
        )
        code, out = self.run_pipeline(workspace, scorer_server, scorer)
        assert code == 0
        assert calls == [3 * self.DEPTH]
        if scorer == "remote":
            assert (scorer_server.request_count, scorer_server.connection_count) == (4, 1)
        expansions = load_expansions((out / "expansions.jsonl").read_text())
        run, inputs = self.per_query(workspace, scorer_server, expansions, scorer)
        assert (out / "reranked.run").read_text() == run
        assert (out / "inputs.jsonl").read_text() == inputs

    def test_rerank_subcommand_scores_the_run_in_batches(self, workspace, scorer_server, capsys):
        scorer_server.connection_mode = "keep_alive"
        argv = ["rerank", "--run", str(self.initial_run(workspace)),
                "--corpus", str(workspace / "corpus.jsonl"),
                "--queries", str(workspace / "queries.jsonl"),
                "--scorer", "remote", "--address", scorer_server.address,
                "--batch-size", str(self.BATCH), "--k", str(self.DEPTH),
                "--tag", ExperimentConfig.run_tag]
        assert main(argv) == 0
        assert (scorer_server.request_count, scorer_server.connection_count) == (4, 1)
        run, _ = self.per_query(workspace, scorer_server, {})
        assert capsys.readouterr().out == run

    def test_failed_batch_names_the_queries_it_held(self, workspace, scorer_server, capsys):
        scorer_server.connection_mode = "keep_alive"
        scorer_server.fail_from_request = 2  # candidates 4-7: q1's last, q2's first three
        code, out = self.run_pipeline(workspace, scorer_server)
        assert code == 3
        assert "scorer returned HTTP 500; queries in the failed batch: 2 (q1, q2)\n" in (
            capsys.readouterr().err
        )
        # The run is scored before any query's inputs are written.
        assert (out / "inputs.jsonl").read_text() == ""


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["rerank"]) == 1  # missing required flags

    @pytest.mark.parametrize("value", ["1_0", "\uff12"])
    @pytest.mark.parametrize(
        "argv, flag, kind",
        [(["index", "search", "--corpus", "C", "--queries", "Q"], "--k", "int"),
         (["fuse", "--dense", "R", "--sparse", "R"], "--alpha", "float"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "nl"], "--max-words", "int"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "nl"], "--max-terms", "int"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "nl"],
          "--max-snippets", "int"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q"], "--batch-size", "int"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q"], "--timeout", "float"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q"], "--k", "int"),
         (["pipeline", "run", "--config", "X"], "--k", "int")],
    )
    def test_numeric_flag_must_be_plain_ascii(self, workspace, capsys, argv, flag, kind, value):
        # int() and float() would read `1_0` as 10 and `２` as 2.
        files = {"C": "corpus.jsonl", "Q": "queries.jsonl", "S": "snippets.jsonl",
                 "R": "good.run", "X": "config.json"}
        (workspace / "good.run").write_text("q1 Q0 d1rel 1 1.0 t\n")
        make_config(workspace, "config")
        argv = [str(workspace / files[a]) if a in files else a for a in argv]
        assert main(argv + [flag, value, "--out" if argv[0] != "pipeline" else "--output-dir",
                            str(workspace / "out_flag")]) == 1
        assert f"argument {flag}: invalid {kind} value: {value!r}\n" in capsys.readouterr().err
        assert not (workspace / "out_flag").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [(["index", "search", "--corpus", "C", "--queries", "Q", "--k", "0"],
          "k must be >= 1, got 0"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q", "--k", "-3"],
          "k must be >= 1, got -3"),
         (["fuse", "--dense", "R", "--sparse", "R", "--alpha", "-1"],
          "fusion alpha must be finite and >= 0, got -1.0"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "nl", "--max-words", "0"],
          "max_words must be >= 1, got 0"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "terms", "--max-terms", "0"],
          "max_terms must be >= 1, got 0"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "nl", "--max-snippets", "0"],
          "max_snippets must be >= 1, got 0"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q", "--batch-size", "0"],
          "batch_size must be >= 1, got 0"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q", "--timeout", "0"],
          "timeout must be finite and positive, got 0.0"),
         (["rerank", "--run", "R", "--corpus", "C", "--queries", "Q", "--scorer", "remote",
           "--address", "http://127.0.0.1:1", "--timeout", "1e10"],
          f"timeout must be at most {_thread.TIMEOUT_MAX}, got 10000000000.0"),
         (["expand", "--queries", "Q", "--snippets", "S", "--mode", "terms"],
          "--mode terms requires --corpus")],
        ids=["index search --k", "rerank --k", "fuse --alpha", "expand --max-words",
             "expand --max-terms", "expand --max-snippets", "rerank --batch-size",
             "rerank --timeout", "rerank --timeout too long", "expand --mode terms"],
    )
    def test_bad_setting_refused_before_any_input_is_read(
        self, tmp_path, capsys, argv, named
    ):
        # No input file exists, so reading any of them would fail first.
        argv = [str(tmp_path / a) if a in ("C", "Q", "R", "S") else a for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {named}\n"

    def test_rerank_k_below_one_refused_when_no_run_query_is_in_the_query_file(
        self, workspace, capsys
    ):
        run = workspace / "other_queries.run"
        run.write_text("q9 Q0 d1rel 1 1.0 t\n")
        assert main(["rerank", "--run", str(run), "--corpus", str(workspace / "corpus.jsonl"),
                     "--queries", str(workspace / "queries.jsonl"), "--k", "0"]) == 2
        assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"

    def test_unknown_subcommand_is_one(self):
        assert main(["frobnicate"]) == 1

    def test_data_error_is_two(self, workspace):
        bad = workspace / "bad_qrels.txt"
        bad.write_text("q1 0 d1 not_a_grade\n")
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 1.0 t\n")
        assert main(["eval", "--run", str(run), "--qrels", str(bad)]) == 2

    def test_loader_errors_name_the_file(self, workspace, capsys):
        corpus = workspace / "null_text.jsonl"
        corpus.write_text('{"id": "d1", "text": null}\n')
        queries = workspace / "dup_queries.jsonl"
        queries.write_text('{"id": "q1", "text": "a"}\n{"id": "q1", "text": "b"}\n')
        run = workspace / "bad_score.run"
        run.write_text("q1 Q0 d1 1 x t\n")
        inf_run = workspace / "inf_score.run"
        inf_run.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 -inf t\n")
        good_run = workspace / "good.run"
        good_run.write_text("q1 Q0 d1rel 1 1.0 t\n")
        dup_qrels = workspace / "dup.qrels"
        dup_qrels.write_text("q1 0 d1rel 1\nq1 0 d1rel 1\n")
        nan_report = workspace / "nan_pq.tsv"
        nan_report.write_text("query_id\ts@1\n\nq1\t1.0\nq2\tnan\n")  # a blank line 2
        inf_report = workspace / "inf_pq.tsv"
        inf_report.write_text("query_id\ts@1\tmap\nq1\t-inf\t0.5\nq2\t1.0\t0.5\n")
        # Python reads `1_0` as 10 and `４.5` as 4.5; trec_eval reads 1 and 0.
        wide_qrels = workspace / "wide.qrels"
        wide_qrels.write_text("q1 0 d1rel 1\nq2 0 d2rel 1_0\n")
        wide_rank, wide_score, wide_digit = (
            workspace / f"{name}.run" for name in ("wide_rank", "wide_score", "wide_digit")
        )
        wide_rank.write_text("q1 Q0 d1rel 1 2.0 t\nq1 Q0 d1a 1_0 1.0 t\n")
        wide_score.write_text("q1 Q0 d1rel 1 2.0 t\nq1 Q0 d1a 2 1_000.5 t\n")
        wide_digit.write_text("q1 Q0 d1rel 1 2.0 t\nq1 Q0 d1a 2 \uff14.5 t\n", encoding="utf-8")
        wide_report = workspace / "wide_pq.tsv"
        wide_report.write_text("query_id\ts@1\nq1\t1.0\nq2\t0_0\n")
        # Nesting past the recursion limit, and a grade no float holds.
        nested_corpus = workspace / "nested.jsonl"
        nested_corpus.write_text('{"id": "d1", "text": "a"}\n{"id": "d2", "text": ' + "[" * 10**5)
        nested_config = workspace / "nested.json"
        nested_config.write_text("[" * 10**5)
        huge_qrels = workspace / "huge.qrels"
        huge_qrels.write_text("q1 0 d1rel 1\nq2 0 d2rel " + "9" * 400 + "\n")
        report_cases = []
        for i, (text, message) in enumerate([
            ("", "empty per-query report"),
            ("qid\ts@1\nq1\t1.0\n", "line 1: bad per-query report header"),
            ("query_id\ts@1\t\tmap\nq1\t1.0\t0.0\t0.5\n",
             "line 1: blank metric token in per-query report header"),
            ("query_id\ts@1\nq1\t1.0\t2.0\n", "line 2: expected 2 columns, got 3"),
            ("query_id\ts@1\nq1\t1.0\nq1\t0.0\n", "line 3: duplicate query id 'q1'"),
            ("query_id\ts@1\n", "per-query report has no data rows"),
        ]):
            report = workspace / f"bad_{i}_pq.tsv"
            report.write_text(text)
            report_cases.append((["compare", "--baseline", str(report), "--treatment",
                                  str(inf_report), "--metric", "s@1"], f"{report}: {message}"))
        bogus_mode, repeated_expansion = (
            workspace / f"{name}.jsonl" for name in ("bogus_mode", "repeated_expansion")
        )
        write_jsonl(bogus_mode, [{"query_id": "q1", "mode": "bogus", "text": "a"}])
        write_jsonl(repeated_expansion, [{"query_id": "q1", "mode": "natural_language", "text": t}
                                         for t in ("a", "b")])
        empty_text = workspace / "empty_text.jsonl"
        write_jsonl(empty_text, [{"id": "d1", "text": ""}])
        rank_zero = workspace / "rank_zero.jsonl"
        write_jsonl(rank_zero, [{"query_id": "q1", "rank": 0, "kind": "organic", "text": "a",
                                 "source": "web_serp"}])
        list_config = workspace / "list_config.json"
        list_config.write_text("[]")
        partial_config = workspace / "partial_config.json"
        partial_config.write_text(json.dumps({"corpus": str(workspace / "corpus.jsonl")}))
        self_config = make_config(workspace, "out_self", self="x")
        rerank = ["rerank", "--run", str(good_run), "--corpus", str(workspace / "corpus.jsonl"),
                  "--queries", str(workspace / "queries.jsonl"), "--expansions"]
        cases = [
            (["index", "search", "--corpus", str(corpus),
              "--queries", str(workspace / "queries.jsonl")],
             f"{corpus}: line 1: field 'text' must be a string"),
            (["pipeline", "run", "--config",
              str(make_config(workspace, "out_dup", queries=str(queries)))],
             f"{queries}: line 2: duplicate query id 'q1'"),
            (["eval", "--run", str(run), "--qrels", str(workspace / "qrels.txt")],
             f"{run}: line 1: non-numeric score 'x'"),
            (["eval", "--run", str(inf_run), "--qrels", str(workspace / "qrels.txt")],
             f"{inf_run}: line 2: NaN or infinite score '-inf'"),
            (["eval", "--run", str(good_run), "--qrels", str(dup_qrels)],
             f"{dup_qrels}: line 2: duplicate judgment for (q1, d1rel)"),
            (["compare", "--baseline", str(nan_report), "--treatment", str(inf_report),
              "--metric", "s@1"],
             f"{nan_report}: line 4: non-finite metric value"),
            (["compare", "--baseline", str(inf_report), "--treatment", str(nan_report),
              "--metric", "s@1"],
             f"{inf_report}: line 2: non-finite metric value"),
            (["eval", "--run", str(good_run), "--qrels", str(wide_qrels)],
             f"{wide_qrels}: line 2: non-integer grade '1_0'"),
            (["eval", "--run", str(wide_rank), "--qrels", str(workspace / "qrels.txt")],
             f"{wide_rank}: line 2: non-integer rank '1_0'"),
            (["eval", "--run", str(wide_score), "--qrels", str(workspace / "qrels.txt")],
             f"{wide_score}: line 2: non-numeric score '1_000.5'"),
            (["eval", "--run", str(wide_digit), "--qrels", str(workspace / "qrels.txt")],
             f"{wide_digit}: line 2: non-numeric score '\uff14.5'"),
            (["compare", "--baseline", str(wide_report), "--treatment", str(nan_report),
              "--metric", "s@1"],
             f"{wide_report}: line 3: non-numeric metric value"),
            (["index", "search", "--corpus", str(nested_corpus),
              "--queries", str(workspace / "queries.jsonl")],
             f"{nested_corpus}: line 2: invalid JSON record: maximum recursion depth"),
            (["pipeline", "run", "--config", str(nested_config)],
             f"config {nested_config}: invalid JSON: maximum recursion depth"),
            (["eval", "--run", str(good_run), "--qrels", str(huge_qrels)],
             f"{huge_qrels}: line 2: grade '{'9' * 400}' is above {2**63 - 1}"),
            *report_cases,
            ([*rerank, str(bogus_mode)], f"{bogus_mode}: line 1: unknown expansion mode 'bogus'"),
            ([*rerank, str(repeated_expansion)],
             f"{repeated_expansion}: line 2: duplicate expansion for query 'q1'"),
            (["index", "search", "--corpus", str(empty_text),
              "--queries", str(workspace / "queries.jsonl")],
             f"{empty_text}: line 1: empty text for passage 'd1'"),
            (["expand", "--queries", str(workspace / "queries.jsonl"), "--snippets", str(rank_zero),
              "--mode", "nl"],
             f"{rank_zero}: line 1: rank must be >= 1, got 0"),
            (["pipeline", "run", "--config", str(list_config)],
             f"config {list_config}: expected a JSON object"),
            (["pipeline", "run", "--config", str(partial_config)],
             f"config {partial_config}: missing required keys: queries, qrels, output_dir"),
            (["pipeline", "run", "--config", str(self_config)],
             f"config {self_config}: unknown key 'self'"),
        ]
        for argv, message in cases:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "header, named", [("query_id\ts@1\ts@1", "'s@1'"), ("query_id\ts@1\tbogus", "'bogus'")]
    )
    def test_bad_per_query_report_header_names_the_file_and_token(
        self, workspace, capsys, header, named
    ):
        # A repeated column would otherwise be read last-wins.
        bad = workspace / "bad_header_pq.tsv"
        bad.write_text(f"{header}\nq1\t1.0\t0.0\nq2\t0.0\t1.0\n")
        good = workspace / "good_pq.tsv"
        good.write_text("query_id\ts@1\nq1\t1.0\nq2\t0.0\n")
        assert main(["compare", "--baseline", str(bad), "--treatment", str(good),
                     "--metric", "s@1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad}: line 1: " in captured.err and named in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, record, line, what",
        [("queries", {"id": "q 1", "text": "shared topic1"}, 4, "query id"),
         ("corpus", {"id": "d 1", "text": "shared topic1 marker1"}, 10, "passage id")],
    )
    def test_id_a_run_cannot_hold_names_the_file_and_line(
        self, workspace, capsys, name, record, line, what
    ):
        path = workspace / f"{name}.jsonl"
        path.write_text(path.read_text() + json.dumps(record) + "\n")
        config = make_config(workspace, "out_ids", mode="nl")
        assert main(["pipeline", "run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: line {line}: {what} {record['id']!r} is not a single non-empty token" in err
        assert not any((workspace / "out_ids").iterdir())

    def test_undecodable_input_names_the_file_and_line(self, workspace, capsys):
        corpus = workspace / "raw_ff_corpus.jsonl"
        corpus.write_bytes(b'{"id": "d1", "text": "a"}\r\n{"id": "d2", "text": "b\xff"}\n')
        qrels = workspace / "raw_fe_qrels.txt"
        qrels.write_bytes(b"q1 0 d1rel 1\n\nq2 0 d2rel\xfe 1\n")  # a blank line 2
        run = workspace / "toy.run"
        run.write_text("q1 Q0 d1rel 1 1.0 t\n")
        config = make_config(workspace, "out_raw_config")
        config.write_bytes(config.read_bytes()[:-1] + b', "run_tag": "\xff"}')
        surrogate_corpus = workspace / "surrogate_corpus.jsonl"
        surrogate_corpus.write_text(
            '{"id": "d1", "text": "shared topic1"}\n{"id": "d2", "text": "x \\ud800"}\n'
        )
        surrogate_config = make_config(workspace, "out_surrogate_config")
        surrogate_config.write_text(surrogate_config.read_text()[:-1] + ', "run_tag": "\\ud800"}')
        surrogate_snippets = workspace / "surrogate_snippets.jsonl"
        surrogate_snippets.write_text(
            '{"query_id": "q1", "rank": 1, "kind": "organic", "text": "\\udc80 y", '
            '"source": "web_serp"}\n'
        )
        cases = [
            (["pipeline", "run", "--config",
              str(make_config(workspace, "out_raw", corpus=str(corpus)))],
             f"{corpus}: line 2: not UTF-8 text"),
            (["eval", "--run", str(run), "--qrels", str(qrels)],
             f"{qrels}: line 3: not UTF-8 text"),
            (["pipeline", "run", "--config", str(config)],
             f"config {config}: line 1: not UTF-8 text"),
            (["pipeline", "run", "--config",
              str(make_config(workspace, "out_surrogate", corpus=str(surrogate_corpus)))],
             f"{surrogate_corpus}: line 2: field 'text' holds a lone surrogate"),
            (["pipeline", "run", "--config", str(surrogate_config)],
             f"config {surrogate_config}: run_tag holds a lone surrogate"),
            (["expand", "--queries", str(workspace / "queries.jsonl"),
              "--snippets", str(surrogate_snippets), "--mode", "nl",
              "--out", str(workspace / "surrogate_expansions.jsonl")],
             f"{surrogate_snippets}: line 1: field 'text' holds a lone surrogate"),
        ]
        for argv, message in cases:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and "Traceback" not in err
        for out in ("out_raw", "out_surrogate"):
            assert not any((workspace / out).iterdir())
        assert not (workspace / "out_raw_config").exists()
        assert not (workspace / "out_surrogate_config").exists()
        assert not (workspace / "surrogate_expansions.jsonl").exists()

    @pytest.mark.parametrize(
        "command, key, depth",
        [("pipeline", "initial_run", 5), ("pipeline", "initial_run", 1),
         ("pipeline", "dense_run", 1), ("rerank", None, 1)],
    )
    def test_run_passage_missing_from_corpus_names_the_run_file(
        self, workspace, capsys, command, key, depth
    ):
        # At depth 1 the unknown passage lies below the reranked head.
        run = workspace / "init.run"
        run.write_text("q1 Q0 d1a 1 2.0 x\nq1 Q0 d3 2 1.0 x\n")
        out = workspace / "out_unknown"
        if command == "pipeline":
            argv = ["pipeline", "run", "--k", str(depth), "--config",
                    str(make_config(workspace, "out_unknown", mode="nl", **{key: str(run)}))]
        else:
            argv = ["rerank", "--run", str(run), "--corpus", str(workspace / "corpus.jsonl"),
                    "--queries", str(workspace / "queries.jsonl"), "--k", str(depth),
                    "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{run}: line 2: passage 'd3' of query 'q1' is not in the corpus" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "text",
        [  # Two unknown passages: the first in file order, not in score order.
         "q1 Q0 d1a 1 3.0 x\nq1 Q0 d8 3 1.0 x\nq1 Q0 d9 2 2.0 x\n",
         # An unknown passage before a malformed line.
         "q1 Q0 d1a 1 3.0 x\nq1 Q0 d8 2 2.0 x\nq1 Q0 d1b 3 1.0 x\n\nq1 Q0 d2a 4 x x\n"],
    )
    @pytest.mark.parametrize("key", ["initial_run", "dense_run", None])
    def test_first_bad_run_line_in_file_order_is_named(self, workspace, capsys, text, key):
        run = workspace / "init.run"
        run.write_text(text)
        if key is None:
            argv = ["rerank", "--run", str(run), "--corpus", str(workspace / "corpus.jsonl"),
                    "--queries", str(workspace / "queries.jsonl"), "--out", os.devnull]
        else:
            argv = ["pipeline", "run", "--config",
                    str(make_config(workspace, "out_order", **{key: str(run)}))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{run}: line 2: passage 'd8' of query 'q1' is not in the corpus\n" in err
        assert "Traceback" not in err

    def test_transport_error_is_three(self, workspace, capsys):
        config = make_config(
            workspace, "out_dead",
            scorer="remote", scorer_address="http://127.0.0.1:1",
        )
        assert main(["pipeline", "run", "--config", str(config)]) == 3
        assert capsys.readouterr().err.startswith("error: pipeline stage 'rerank' failed: ")
        # Outside a stage, as `rerank` runs, `main` maps TransportError itself.
        run = workspace / "good.run"
        run.write_text("q1 Q0 d1rel 1 1.0 t\n")
        assert main(["rerank", "--run", str(run), "--corpus", str(workspace / "corpus.jsonl"),
                     "--queries", str(workspace / "queries.jsonl"),
                     "--scorer", "remote", "--address", "http://127.0.0.1:1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pipeline stage" not in err
