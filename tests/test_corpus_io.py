import io
import json
import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from augrank import corpus_io
from augrank.augment import Expansion, ExpansionMode, load_expansions
from augrank.cli import load_per_query_report
from augrank.corpus_io import (
    Passage,
    Query,
    RankedList,
    Snippet,
    SnippetSource,
    TrainingExample,
    check_run_token,
    load_corpus,
    load_queries,
    load_snippet_cache,
    load_triples,
    parse_qrels,
    parse_run,
    write_run,
)
from augrank.errors import ConflictError, ParseError, ValidationError
from augrank.evaluation import MetricReport, TTestResult
from augrank.index import CorpusLanguageModel, InvertedIndex, bm25_search, build_index
from augrank.rerank import RerankInput

from oracles import (
    parse_record_oracle,
    parse_run_oracle,
    ranked_list_oracle,
)

# Every code point for which str.isspace() is true, among them the
# separators \x1c-\x1f, NEL, NBSP and the line/paragraph separators.
UNICODE_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


class TestParseQrels:
    def test_single_line(self):
        qrels = parse_qrels("q1 0 d7 2\n")
        assert qrels == {"q1": {"d7": 2}}

    def test_empty_input(self):
        assert parse_qrels("") == {}

    def test_duplicate_judgment_is_conflict(self):
        with pytest.raises(ConflictError, match=r"^line 3: duplicate judgment for \(q1, d7\)$"):
            parse_qrels("q1 0 d7 2\n\nq1 0 d7 1\n")

    def test_wrong_field_count_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels("q1 0 d7 2\nq1 0 d7\n")

    def test_non_integer_grade(self):
        with pytest.raises(ParseError, match="grade"):
            parse_qrels("q1 0 d7 x\n")

    def test_negative_grade(self):
        with pytest.raises(ParseError, match="negative"):
            parse_qrels("q1 0 d7 -1\n")

    def test_grade_too_large_for_a_float_sum_is_refused_at_its_line(self):
        top = 2**63 - 1
        assert parse_qrels(f"q1 0 d7 {top}\n") == {"q1": {"d7": top}}
        with pytest.raises(ParseError, match=rf"^line 2: grade '{top + 1}' is above {top}$"):
            parse_qrels(f"q1 0 d1 1\nq1 0 d7 {top + 1}\n")

    @pytest.mark.parametrize("grade", ["1_0", "\uff12", "\u0661"])
    def test_grade_must_be_plain_ascii_at_its_line(self, grade):
        # int() would read these as 10, 2 and 1; trec_eval's atoi does not.
        with pytest.raises(ParseError, match=rf"^line 2: non-integer grade '{grade}'$"):
            parse_qrels(f"q1 0 d1 1\nq1 0 d7 {grade}\n")
        assert parse_qrels("q1 0 d7 +1\n") == {"q1": {"d7": 1}}

    def test_blank_lines_skipped(self):
        qrels = parse_qrels("\nq1 0 d7 2\n\n")
        assert qrels["q1"]["d7"] == 2

    @given(
        st.dictionaries(
            st.tuples(st.sampled_from("abcd"), st.integers(0, 30)),
            st.integers(0, 3),
            min_size=1,
            max_size=25,
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, judgments, rng):
        lines = [f"q{q} 0 d{d} {g}" for (q, d), g in judgments.items()]
        shuffled = list(lines)
        rng.shuffle(shuffled)
        assert parse_qrels(lines) == parse_qrels(shuffled)


class TestParseRun:
    def test_already_sorted(self):
        lists = parse_run("q1 Q0 d1 1 9.5 bm25\nq1 Q0 d2 2 8.0 bm25\n")
        assert len(lists) == 1
        assert lists[0].query_id == "q1"
        assert [pid for pid, _ in lists[0].entries] == ["d1", "d2"]

    def test_resorts_by_score(self):
        lists = parse_run("q1 Q0 dlow 1 8.0 t\nq1 Q0 dhigh 2 9.5 t\n")
        assert [pid for pid, _ in lists[0].entries] == ["dhigh", "dlow"]

    def test_interleaved_qids_regrouped(self):
        # six-line fixture; expectation regrouped by hand
        text = (
            "q1 Q0 a 1 3.0 t\n"
            "q2 Q0 x 1 5.0 t\n"
            "q1 Q0 b 2 2.0 t\n"
            "q2 Q0 y 2 4.0 t\n"
            "q1 Q0 c 3 1.0 t\n"
            "q2 Q0 z 3 3.0 t\n"
        )
        lists = parse_run(text)
        assert [r.query_id for r in lists] == ["q1", "q2"]
        assert [pid for pid, _ in lists[0].entries] == ["a", "b", "c"]
        assert [pid for pid, _ in lists[1].entries] == ["x", "y", "z"]

    def test_tie_broken_by_given_rank(self):
        lists = parse_run("q1 Q0 zz 1 5.0 t\nq1 Q0 aa 2 5.0 t\n")
        assert [pid for pid, _ in lists[0].entries] == ["zz", "aa"]

    def test_tie_broken_by_given_rank_not_by_file_order(self):
        text = "q1 Q0 c 3 5.0 t\nq1 Q0 top 9 7.0 t\nq1 Q0 a 1 5.0 t\nq1 Q0 b 2 -0.0 t\n"
        text += "q1 Q0 z 1 0.0 t\n"
        lists = parse_run(text)
        assert [pid for pid, _ in lists[0].entries] == ["top", "a", "c", "z", "b"]

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="score"):
            parse_run("q1 Q0 d1 1 high t\n")

    def test_non_integer_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_run("q1 Q0 d1 first 9.0 t\n")

    @pytest.mark.parametrize("rank", ["1_0", "\uff11", "\u0967"])
    def test_rank_must_be_plain_ascii_at_its_line(self, rank):
        with pytest.raises(ParseError, match=rf"^line 2: non-integer rank '{rank}'$"):
            parse_run(f"q1 Q0 d1 1 9.0 t\nq1 Q0 d2 {rank} 8.0 t\n")

    @pytest.mark.parametrize("score", ["1_000.5", "\uff14.5", "4.\u0665", "1e1_0"])
    def test_score_must_be_plain_ascii_at_its_line(self, score):
        # float() would read `1_000.5` as 1000.5 and `４.5` as 4.5.
        with pytest.raises(ParseError, match=rf"^line 2: non-numeric score '{score}'$"):
            parse_run(f"q1 Q0 d1 1 9.0 t\nq1 Q0 d2 2 {score} t\n")
        lists = parse_run("q1 Q0 d1 +1 1e3 t\nq1 Q0 d2 2 +4.5 t\n")
        assert lists[0].entries == (("d1", 1000.0), ("d2", 4.5))

    def test_nan_score_rejected(self):
        with pytest.raises(ParseError, match="NaN"):
            parse_run("q1 Q0 d1 1 nan t\n")

    @pytest.mark.parametrize("score", ["inf", "-inf", "1e999", "-Infinity"])
    def test_infinite_score_rejected_at_its_line(self, score):
        with pytest.raises(ParseError, match=rf"^line 2: NaN or infinite score '{score}'"):
            parse_run(f"q1 Q0 d1 1 9.0 t\nq1 Q0 d2 2 {score} t\n")

    def test_duplicate_docid_is_conflict(self):
        with pytest.raises(ConflictError):
            parse_run("q1 Q0 d1 1 9.0 t\nq1 Q0 d1 2 8.0 t\n")

    def test_tag_column_is_not_read(self):
        # Mixed tags within and across queries parse to the same lists as one tag.
        one_tag = "q1 Q0 a 1 3.0 t\nq1 Q0 b 2 2.0 t\nq2 Q0 c 1 1.0 t\n"
        mixed = "q1 Q0 a 1 3.0 bm25\nq1 Q0 b 2 2.0 dense\nq2 Q0 c 1 1.0 x\n"
        assert parse_run(mixed) == parse_run(one_tag)

    def test_missing_tag_column_rejected(self):
        with pytest.raises(ParseError, match="expected 6 fields"):
            parse_run("q1 Q0 d1 1 9.0\n")

    def test_passage_missing_from_given_ids_refused_at_its_line(self):
        text = "q1 Q0 d1 1 9.0 t\nq1 Q0 d3 2 8.0 t\nq2 Q0 d4 1 7.0 t\n"
        with pytest.raises(
            ParseError, match=r"^line 2: passage 'd3' of query 'q1' is not in the corpus$"
        ):
            parse_run(text, {"d1", "d2"})
        # The line's own checks come first.
        with pytest.raises(ParseError, match=r"^line 2: non-numeric score 'x'$"):
            parse_run("q1 Q0 d1 1 9.0 t\nq1 Q0 d3 2 x t\n", {"d1"})

    def test_passage_ids_not_checked_without_given_ids(self):
        text = "q1 Q0 d1 1 9.0 t\nq1 Q0 d3 2 8.0 t\n"
        assert parse_run(text) == parse_run(text, {"d1", "d3"})
        assert [pid for pid, _ in parse_run(text)[0].entries] == ["d1", "d3"]


class TestWriteRun:
    def test_single_entry_golden(self):
        out = io.StringIO()
        write_run([RankedList("q1", (("d1", 9.5),))], "tag", out)
        assert out.getvalue() == "q1 Q0 d1 1 9.5000 tag\n"

    def test_empty_sequence(self):
        out = io.StringIO()
        write_run([], "t", out)
        assert out.getvalue() == ""

    def test_rank_column_numbers_entries(self):
        out = io.StringIO()
        write_run([RankedList("q1", (("a", 3.0), ("b", 2.0), ("c", 1.0)))], "t", out)
        ranks = [line.split()[3] for line in out.getvalue().splitlines()]
        assert ranks == ["1", "2", "3"]

    def test_tag_on_every_line(self):
        lists = [RankedList("q1", (("a", 2.0), ("b", 1.0))), RankedList("q2", (("c", 1.0),))]
        out = io.StringIO()
        write_run(lists, "mytag", out)
        lines = out.getvalue().splitlines()
        assert len(lines) == 3
        assert [line.split()[5] for line in lines] == ["mytag"] * 3

    def test_whitespace_docid_rejected(self):
        out = io.StringIO()
        with pytest.raises(ValidationError):
            write_run([RankedList("q1", (("d 1", 1.0),))], "t", out)

    def test_empty_tag_rejected(self):
        out = io.StringIO()
        with pytest.raises(ValidationError):
            write_run([RankedList("q1", (("d1", 1.0),))], "", out)

    def test_bad_tag_rejected_before_any_line(self):
        # The tag is checked once, before the first list: with no lists too.
        with pytest.raises(ValidationError, match="run tag 'a b'"):
            write_run([], "a b", io.StringIO())
        out = io.StringIO()
        with pytest.raises(ValidationError):
            write_run([RankedList("q1", (("d1", 1.0),))], "a\tb", out)
        assert out.getvalue() == ""

    def test_whitespace_query_id_rejected_before_its_lines(self):
        lists = [RankedList("q1", (("d1", 1.0),)), RankedList("q 2", (("d1", 1.0),))]
        out = io.StringIO()
        with pytest.raises(ValidationError, match="query id 'q 2'"):
            write_run(lists, "t", out)
        assert out.getvalue() == "q1 Q0 d1 1 1.0000 t\n"

    @given(
        st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                         min_size=1),
                st.lists(st.floats(allow_nan=False), max_size=6),
            ),
            max_size=4,
        ),
        st.from_regex(r"[a-z0-9_-]{1,6}", fullmatch=True),
    )
    def test_output_equals_one_f_string_per_line(self, drawn, tag):
        lists = [
            RankedList(qid, tuple((f"d{i}", s) for i, s in enumerate(sorted(scores, reverse=True))))
            for qid, scores in drawn
        ]
        out = io.StringIO()
        write_run(lists, tag, out)
        assert out.getvalue() == "".join(
            f"{ranked.query_id} Q0 {pid} {rank} {score:.4f} {tag}\n"
            for ranked in lists
            for rank, (pid, score) in enumerate(ranked.entries, start=1)
        )

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 50),
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=30,
            unique_by=lambda e: e[0],
        )
    )
    def test_round_trip_preserves_order_and_scores(self, raw):
        entries = sorted(((f"d{i}", s) for i, s in raw), key=lambda e: (-e[1], e[0]))
        original = RankedList("q1", tuple(entries))
        out = io.StringIO()
        write_run([original], "t", out)
        (parsed,) = parse_run(out.getvalue())
        assert [pid for pid, _ in parsed.entries] == [pid for pid, _ in original.entries]
        for (_, got), (_, expect) in zip(parsed.entries, original.entries):
            assert math.isclose(got, expect, abs_tol=1e-4)

    @given(
        st.dictionaries(
            st.from_regex(r"q[0-9]{1,3}", fullmatch=True),
            st.lists(st.integers(-10**8, 10**8), min_size=1, max_size=10),
            min_size=1,
            max_size=5,
        ),
        st.from_regex(r"[a-z]{1,6}", fullmatch=True),
    )
    def test_round_trip_keeps_entries_at_four_decimals(self, runs, tag):
        lists = []
        for qid, scaled in runs.items():
            scores = sorted((n / 10_000 for n in scaled), reverse=True)
            entries = tuple((f"d{i}", score) for i, score in enumerate(scores))
            lists.append(RankedList(qid, entries))
        out = io.StringIO()
        write_run(lists, tag, out)
        assert parse_run(out.getvalue()) == lists


class TestCheckRunToken:
    @pytest.mark.parametrize("space", UNICODE_WHITESPACE)
    def test_every_unicode_whitespace_character_rejected(self, space):
        for value in (space, f"a{space}b", f"{space}ab", f"ab{space}"):
            with pytest.raises(ValidationError, match="not a single non-empty token"):
                check_run_token(value, "docid")

    def test_empty_string_rejected(self):
        with pytest.raises(ValidationError, match="docid '' is not"):
            check_run_token("", "docid")

    @given(st.text(st.one_of(st.sampled_from(UNICODE_WHITESPACE), st.characters())))
    def test_agrees_with_isspace(self, value):
        bad = not value or any(c.isspace() for c in value)
        try:
            check_run_token(value, "docid")
        except ValidationError:
            assert bad
        else:
            assert not bad


class TestRankedListInvariants:
    def test_nan_score(self):
        with pytest.raises(ValidationError):
            RankedList("q", (("d", float("nan")),))

    def test_unsorted_entries(self):
        with pytest.raises(ValidationError):
            RankedList("q", (("a", 1.0), ("b", 2.0)))

    def test_duplicate_passage(self):
        with pytest.raises(ConflictError):
            RankedList("q", (("a", 2.0), ("a", 1.0)))

    def test_ties_are_legal(self):
        RankedList("q", (("a", 1.0), ("b", 1.0)))

    def test_a_valid_list_is_checked_without_the_entry_loop(self, monkeypatch):
        # The loop runs only to name the entry that a bulk check refused
        # (or to clear a list that holds both infinities, whose sum is NaN).
        def loop(query_id, entries):
            raise AssertionError(f"entry loop ran for {entries}")

        monkeypatch.setattr(corpus_io, "_refuse_entries", loop)
        for entries in [(), (("a", 2.0), ("b", 2.0), ("c", 0.0), ("d", -0.0)),
                        (("a", math.inf), ("b", 1)), (("a", 1.0), ("b", -math.inf))]:
            RankedList("q", entries)
        with pytest.raises(AssertionError):
            RankedList("q", (("a", math.nan),))

    def test_the_first_bad_entry_is_named(self):
        nan = math.nan
        with pytest.raises(ValidationError, match="^NaN score for passage 'b' in query 'q'$"):
            RankedList("q", (("a", 2.0), ("b", nan), ("a", 3.0)))
        with pytest.raises(ConflictError, match="^duplicate passage 'a' in query 'q'$"):
            RankedList("q", (("a", 2.0), ("a", 1.0), ("c", 3.0)))
        with pytest.raises(ValidationError, match="^entries not sorted by descending score"):
            RankedList("q", (("a", 2.0), ("c", 3.0), ("a", 1.0)))


# Each record type with two argument lists that differ in every position.
RECORD_ARGS = [
    (Query, ("q1", "apple pie"), ("q2", "pie")),
    (Passage, ("d1", None, "apple pie"), ("d2", "Title", "pie")),
    (Snippet, ("q1", 1, False, "apple", SnippetSource.WEB_SERP),
     ("q2", 2, True, "pie", SnippetSource.WIKI)),
    (TrainingExample, ("q1", "d1", True), ("q2", "d2", False)),
    (RankedList, ("q1", (("d1", 2.0), ("d2", 1.0))), ("q2", (("d1", 2.0),))),
    (Expansion, ("q1", ExpansionMode.NATURAL_LANGUAGE, "apple"),
     ("q2", ExpansionMode.TOPICAL_TERMS, "pie")),
    (RerankInput, ("q1", "d1", "apple", None, "apple pie"), ("q2", "d2", "pie", "tart", "pie")),
    (TTestResult, (1.5, 3, 0.2, 0.1, "none"), (-2.5, 4, 0.01, -0.3, "p05")),
    (MetricReport, ({"q1": {"map": 0.5}}, ()), ({"q2": {"map": 0.5}}, ("q3",))),
    (InvertedIndex, ({"a": {"d1": 1}}, {"d1": 1}), ({"a": {"d1": 2}}, {"d1": 2})),
    (CorpusLanguageModel, ({"a": 2, "b": 1},), ({"a": 1, "b": 2},)),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORD_ARGS]


class TestRecords:
    @pytest.mark.parametrize("cls, args, _", RECORD_ARGS, ids=RECORD_IDS)
    def test_equal_by_value(self, cls, args, _):
        first, second = cls(*args), cls(*args)
        assert first is not second and first == second and not first != second
        assert repr(first) == repr(second)

    @pytest.mark.parametrize("cls, args, other", RECORD_ARGS, ids=RECORD_IDS)
    def test_unequal_when_any_one_field_differs(self, cls, args, other):
        record = cls(*args)
        for i in range(len(args)):
            changed = cls(*args[:i], other[i], *args[i + 1:])
            assert record != changed and not record == changed, i

    def test_a_record_of_another_class_with_the_same_values_is_unequal(self):
        assert Query("q1", "apple") != TrainingExample("q1", "apple", True)
        assert Query("q1", "apple") != ("q1", "apple")

    def test_repr_names_every_field_in_order(self):
        assert repr(Query("q1", "apple")) == "Query(id='q1', text='apple')"
        assert repr(MetricReport({"q1": {"map": 0.5}})) == (
            "MetricReport(per_query={'q1': {'map': 0.5}}, unjudged_query_ids=(), "
            "aggregate={'map': 0.5}, query_count=1)"
        )

    def test_index_equality_and_repr_ignore_the_caches(self):
        passages = [Passage("d1", None, "apple pie"), Passage("d2", None, "pie")]
        searched, fresh = build_index(passages), build_index(passages)
        shown = repr(fresh)
        bm25_search(searched, Query("q1", "apple pie"), 2)
        assert searched._impacts and searched._norms and not fresh._impacts
        assert searched == fresh and repr(searched) == shown
        assert "_impacts" not in shown and "_norms" not in shown

    def test_fields_are_slots(self):
        for cls, args, _ in RECORD_ARGS:
            assert not hasattr(cls(*args), "__dict__"), cls.__name__


class TestLoadCorpus:
    def test_single_record(self):
        passages = load_corpus('{"id": "d1", "text": "hello world"}\n')
        assert passages == [Passage("d1", None, "hello world")]

    def test_title_is_optional(self):
        (p,) = load_corpus('{"id": "d1", "title": "T", "text": "body"}\n')
        assert p.title == "T"

    def test_null_title_reads_as_no_title(self):
        (p,) = load_corpus('{"id": "d1", "title": null, "text": "body"}\n')
        assert p.title is None

    def test_duplicate_id_is_conflict(self):
        lines = '{"id": "d1", "text": "a"}\n{"id": "d1", "text": "b"}\n'
        with pytest.raises(ConflictError):
            load_corpus(lines)

    def test_missing_text_field(self):
        with pytest.raises(ParseError, match="text"):
            load_corpus('{"id": "d1"}\n')

    def test_invalid_json_names_line(self):
        with pytest.raises(ParseError, match="line 1"):
            load_corpus("not json\n")

    @pytest.mark.parametrize(
        "line, error",
        [
            ('{"id": "d1", "text": "a"} x', "Extra data: line 1 column 27 (char 26)"),
            ('{"id": "d1", "text": "a"}{}', "Extra data: line 1 column 26 (char 25)"),
            ('\ufeff{"id": "d1", "text": "a"}', "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ],
    )
    def test_a_line_that_is_not_one_json_value_is_refused(self, line, error):
        text = '{"id": "d0", "text": "b"}\n' + line + "\n"
        with pytest.raises(ParseError, match="^line 2: invalid JSON record: " + re.escape(error)):
            load_corpus(text)

    @pytest.mark.parametrize("pid", ["", "d 1", "d\t1", "\u3000d1", "d1\x85"])
    def test_id_a_run_cannot_hold_rejected_naming_the_line(self, pid):
        lines = [json.dumps({"id": "d0", "text": "a"}), json.dumps({"id": pid, "text": "b"})]
        with pytest.raises(ParseError, match="^" + re.escape(f"line 2: passage id {pid!r} is not a single")):
            load_corpus(lines)

    def test_hundred_records_order_preserved(self):
        lines = [json.dumps({"id": f"d{i}", "text": f"passage number {i}"}) for i in range(100)]
        random.Random(7).shuffle(lines)
        expected_ids = [json.loads(line)["id"] for line in lines]
        passages = load_corpus(lines)
        assert len(passages) == 100
        assert [p.id for p in passages] == expected_ids


class TestLoadQueries:
    def test_basic(self):
        queries = load_queries('{"id": "q1", "text": "who am i"}\n')
        assert queries[0].id == "q1" and queries[0].text == "who am i"

    def test_blank_text_rejected(self):
        with pytest.raises(ParseError):
            load_queries('{"id": "q1", "text": "   "}\n')

    def test_duplicate_id(self):
        with pytest.raises(ConflictError):
            load_queries('{"id": "q1", "text": "a"}\n{"id": "q1", "text": "b"}\n')

    @pytest.mark.parametrize("qid", ["", "q 1", "q1\n", "\xa0q1", "q\u20281"])
    def test_id_a_run_cannot_hold_rejected_naming_the_line(self, qid):
        lines = [json.dumps({"id": "q0", "text": "a"}), json.dumps({"id": qid, "text": "b"})]
        with pytest.raises(ParseError, match="^" + re.escape(f"line 2: query id {qid!r} is not a single")):
            load_queries(lines)


def snippet_record(qid="q1", rank=1, kind="organic", text="some text", source="web_serp"):
    return json.dumps(
        {"query_id": qid, "rank": rank, "kind": kind, "text": text, "source": source}
    )


class TestLoadSnippetCache:
    def test_five_organic_ranked(self):
        lines = [snippet_record(rank=r, text=f"snippet {r}") for r in (3, 1, 5, 2, 4)]
        cache = load_snippet_cache(lines)
        assert [s.rank for s in cache["q1"]] == [1, 2, 3, 4, 5]
        assert not any(s.direct_answer for s in cache["q1"])

    def test_direct_answer_passes_through(self):
        cache = load_snippet_cache([snippet_record(kind="direct_answer")])
        assert cache["q1"][0].direct_answer is True

    def test_empty_stream(self):
        assert load_snippet_cache("") == {}

    def test_duplicate_rank_same_source_conflict(self):
        lines = [snippet_record(rank=1), snippet_record(rank=1, text="other")]
        with pytest.raises(ConflictError):
            load_snippet_cache(lines)

    def test_same_rank_different_source_allowed(self):
        lines = [snippet_record(rank=1), snippet_record(rank=1, source="wiki")]
        cache = load_snippet_cache(lines)
        assert len(cache["q1"]) == 2

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            load_snippet_cache([snippet_record(kind="advert")])

    def test_unknown_source(self):
        with pytest.raises(ParseError, match="source"):
            load_snippet_cache([snippet_record(source="usenet")])

    def test_rank_strictly_sorted_within_source(self):
        lines = [
            snippet_record(rank=r, source=src, text=f"{src} {r}")
            for src in ("web_serp", "wiki")
            for r in (2, 1, 3)
        ]
        cache = load_snippet_cache(lines)
        for source in SnippetSource:
            ranks = [s.rank for s in cache["q1"] if s.source is source]
            assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks)


_GOOD_SNIPPET = {"query_id": "q1", "rank": 1, "kind": "organic", "text": "t", "source": "wiki"}
_GOOD_TRIPLE = {"query_id": "q1", "passage_id": "d1", "label": "relevant"}


@pytest.mark.parametrize(
    "loader, good, field, value",
    [
        (load_corpus, {"id": "d0", "text": "a"}, "text", None),
        (load_corpus, {"id": "d0", "text": "a"}, "id", 7),
        (load_corpus, {"id": "d0", "text": "a"}, "title", 3),
        (load_queries, {"id": "q0", "text": "a"}, "id", None),
        (load_queries, {"id": "q0", "text": "a"}, "text", ["a"]),
        (load_snippet_cache, _GOOD_SNIPPET, "rank", True),
        (load_snippet_cache, _GOOD_SNIPPET, "rank", 2.7),
        (load_snippet_cache, _GOOD_SNIPPET, "rank", "2"),
        (load_snippet_cache, _GOOD_SNIPPET, "query_id", 1),
        (load_snippet_cache, _GOOD_SNIPPET, "kind", None),
        (load_snippet_cache, _GOOD_SNIPPET, "source", None),
        (load_snippet_cache, _GOOD_SNIPPET, "text", None),
        (load_triples, _GOOD_TRIPLE, "query_id", None),
        (load_triples, _GOOD_TRIPLE, "passage_id", 3),
        (load_triples, _GOOD_TRIPLE, "label", True),
    ],
)
def test_field_of_wrong_json_type_names_line_and_field(loader, good, field, value):
    bad = json.dumps(dict(good, **{field: value}))
    with pytest.raises(ParseError, match=rf"^line 2: field '{field}' must be "):
        loader(["", bad])


class TestLoadTriples:
    def test_basic(self):
        lines = [
            json.dumps({"query_id": "q1", "passage_id": "d1", "label": "relevant"}),
            json.dumps({"query_id": "q1", "passage_id": "d2", "label": "not_relevant"}),
        ]
        triples = load_triples(lines)
        assert [t.relevant for t in triples] == [True, False]

    def test_unknown_label(self):
        with pytest.raises(ParseError, match="label"):
            load_triples([json.dumps({"query_id": "q", "passage_id": "d", "label": "maybe"})])


# Each reader's three lines, the second holding the character that replaces
# `<c>`; the lines end in \r\n, \r and \n in turn.
_READER_LINES = {
    parse_qrels: ["q1 0 d1 1", "q2 0 d2<c>2", "q3 0 d3 0"],
    parse_run: ["q1 Q0 d1 1 2.0 t", "q1 Q0 d2 2 1.0<c>t", "q2 Q0 d1 1 0.5 t"],
    load_corpus: ['{"id": "d1", "text": "a"}', '{"id": "d2", "text": "a<c>b"}',
                  '{"id": "d3", "text": "c"}'],
    load_queries: ['{"id": "q1", "text": "a"}', '{"id": "q2", "text": "a<c>b"}',
                   '{"id": "q3", "text": "c"}'],
    load_snippet_cache: [
        f'{{"query_id": "q1", "rank": {rank}, "kind": "organic", "text": "a{text}b", '
        '"source": "wiki"}'
        for rank, text in ((1, ""), (2, "<c>"), (3, ""))
    ],
    load_triples: [
        f'{{"query_id": "q{mark}1", "passage_id": "d1", "label": "relevant"}}'
        for mark in ("", "<c>", "")
    ],
    load_expansions: [
        f'{{"query_id": "q{n}", "mode": "natural_language", "text": "a{text}b"}}'
        for n, text in ((1, ""), (2, "<c>"), (3, ""))
    ],
    load_per_query_report: ["query_id\ts@1", "q1\t1.0", "q2<c>x\t0.5"],
}


def _outcome(reader, source):
    try:
        return reader(source)
    except (ParseError, ConflictError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("reader", list(_READER_LINES), ids=lambda reader: reader.__name__)
@pytest.mark.parametrize("c", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                               "\u2029"])
def test_a_string_reads_as_the_same_text_in_a_file(tmp_path, reader, c):
    first, second, third = (line.replace("<c>", c) for line in _READER_LINES[reader])
    text = f"{first}\r\n{second}\r{third}\n"
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        from_file = _outcome(reader, handle)
    assert _outcome(reader, text) == from_file


# ---------------------------------------------------------------------------
# The readers and `RankedList` check a valid file or list in bulk and name a
# bad one's first error as the line-by-line oracles do.


def _result(fn, *args):
    """`fn(*args)`, or the class, message and line of the error it raised."""
    try:
        return fn(*args)
    except (ParseError, ConflictError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


_BAD_RANKS = ["1_0", "\uff14", "\u0967", "x", "1.5", "1e3"]
_BAD_SCORES = ["nan", "-NaN", "1e999", "-inf", "\uff14.5", "1_0.5", "high", "0x1p3"]
# One column made bad at one line: (column, value); a tag of "" or of two
# words makes 5 or 7 fields.
_RUN_EDITS = [(3, r) for r in _BAD_RANKS] + [(4, s) for s in _BAD_SCORES] + [(5, ""), (5, "t x")]


@st.composite
def _column_files(draw, row, edits):
    """Text of up to ten lines of `row`'s columns, sometimes with a blank
    line, and in half the files one of `edits` made at one line."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        lines.append([] if draw(st.integers(0, 9)) == 0 else draw(row))
    if any(lines) and draw(st.booleans()):
        column, value = draw(st.sampled_from(edits))
        draw(st.sampled_from([line for line in lines if line]))[column] = value
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(" ".join(line) for line in lines) + draw(st.sampled_from([end, ""]))


# Docids d57 to d60 are not in `_SOME_PASSAGES`; 60 docids make a repeat
# within a query occasional.
_SOME_PASSAGES = frozenset(f"d{i}" for i in range(1, 57))
_run_row = st.tuples(
    st.sampled_from(["q1", "q2", "q3"]),
    st.just("Q0"),
    st.integers(1, 60).map("d{}".format),
    st.sampled_from(["1", "2", "3", "+4", "0", "-1", "10"]),
    st.sampled_from(["1.0", "2.5", "0.0", "-0.0", "3", "1e3", "-7.25", "+4.5", "1e-320"]),
    st.just("t"),
).map(list)

# A JSON value of each type, a lone surrogate, and the types each field takes.
_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.just("a\ud800"), st.lists(st.integers(0, 1), max_size=2),
)
_good_values = {str: st.text(max_size=6), int: st.integers(-2, 5), type(None): st.none()}
_READER_FIELDS = [("id", "title", "text"), ("id", "text"),
                  ("query_id", "rank", "kind", "text", "source"),
                  ("query_id", "passage_id", "label"), ("query_id", "mode", "text")]
_LINE_EDITS = [
    lambda text: text + " x", lambda text: text + "{}", lambda text: text + "}",
    lambda text: "\ufeff" + text, lambda text: text[:-1], lambda text: "[" + text + "]",
    lambda text: "[" * 100_000, lambda text: "not json",
]


@st.composite
def _record_lines(draw):
    """A stripped JSONL line and the fields a reader checks in it: most
    fields hold their type, some another JSON value or nothing, and in a
    third of the lines the text is no longer one JSON object."""
    fields = draw(st.sampled_from(_READER_FIELDS))
    record = {}
    for key in fields + ("extra",):
        shape = draw(st.integers(0, 9))
        if shape < 7:
            types = corpus_io._FIELD_TYPES.get(key, (str,))
            record[key] = draw(st.one_of(*(_good_values[t] for t in types)))
        elif shape < 9:
            record[key] = draw(_json_values)
    keys = draw(st.permutations(list(record)))
    text = json.dumps({key: record[key] for key in keys}, ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 2)) == 0:
        text = draw(st.sampled_from(_LINE_EDITS))(text)
    return text.strip(), fields


class TestBulkChecksAgainstLineByLineOracles:
    @given(_column_files(_run_row, _RUN_EDITS), st.sampled_from([None, _SOME_PASSAGES]))
    def test_parse_run(self, text, passages):
        assert _result(parse_run, text, passages) == _result(parse_run_oracle, text, passages)

    @given(_record_lines(), st.integers(1, 10**6))
    def test_parse_record(self, drawn, line_no):
        line, fields = drawn
        expected = _result(parse_record_oracle, line, line_no, fields)
        assert _result(corpus_io._parse_record, line, line_no, fields) == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.sampled_from([math.nan, math.inf, -math.inf, 2.5, 1.0, 1, 0.0, -0.0, -3.0]),
            ),
            max_size=6,
        ),
        st.booleans(),
    )
    def test_ranked_list(self, entries, descending):
        # Half the lists are sorted, so that ties, repeats and NaN are met
        # in order and out of it.
        if descending:
            entries.sort(key=lambda entry: entry[1], reverse=True)
        entries = tuple(entries)
        assert _result(RankedList, "q", entries) == _result(ranked_list_oracle, "q", entries)
