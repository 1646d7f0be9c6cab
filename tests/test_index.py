import io
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augrank.corpus_io import Passage, Query, RankedList
from augrank.errors import ConflictError, ParseError, ValidationError
from augrank.index import (
    _TOKEN_RE,
    INDEX_MAGIC,
    _idf,
    _term_impacts,
    _tf_weight,
    CorpusLanguageModel,
    bm25_search,
    build_index,
    corpus_lm,
    estimate_corpus_lm,
    fuse_runs,
    load_index,
    save_index,
    tokenize,
)
from oracles import bm25_oracle, bm25_score, bm25_search_oracle


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_and_digit_boundaries(self):
        assert tokenize("T5-xl re-ranker") == ["t5", "xl", "re", "ranker"]

    def test_underscore_is_a_boundary(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_unicode(self):
        assert tokenize("Crème brûlée!") == ["crème", "brûlée"]

    @given(st.text(max_size=80))
    def test_idempotent_under_rejoin(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens
        assert all(tokens)

    @given(st.text())
    def test_equals_lowercased_matches(self, text):
        assert tokenize(text) == [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]

    def test_every_ascii_character_splits_as_the_pattern_does(self):
        # Includes the separators str.split() knows beyond " \t\n\r"
        # (\x0b, \x0c, \x1c-\x1f), "_", and DEL.
        for code in range(128):
            c = chr(code)
            for text in (c, "a" + c + "B", c + "Z9" + c):
                expected = [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]
                assert tokenize(text) == expected, repr(text)

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_ascii_text_equals_lowercased_matches(self, text):
        assert tokenize(text) == [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]

    def test_dotted_capital_i_is_lowercased_after_matching(self):
        # "İ".lower() is "i" plus a combining dot, which is not a word
        # character: lowercasing the text first would split the token.
        assert tokenize("İstanbul") == ["i\u0307stanbul"]
        assert tokenize("İstanbul".lower()) == ["i", "stanbul"]


def tiny_corpus():
    return [
        Passage("d1", None, "apple banana apple"),
        Passage("d2", None, "banana cherry"),
        Passage("d3", None, "cherry cherry cherry apple"),
    ]


class TestBuildIndex:
    def test_empty_corpus(self):
        index = build_index([])
        assert index.doc_count == 0
        assert index.total_tokens == 0
        assert index.avg_doc_length == 0.0

    def test_single_passage_counts(self):
        index = build_index([Passage("d1", None, "a a b")])
        assert index.postings["a"] == {"d1": 2}
        assert index.postings["b"] == {"d1": 1}
        assert index.doc_lengths["d1"] == 3

    def test_duplicate_id(self):
        with pytest.raises(ConflictError):
            build_index([Passage("d1", None, "a"), Passage("d1", None, "b")])

    def test_collection_frequency_matches_brute_recount(self):
        index = build_index(tiny_corpus())
        recount = Counter(t for p in tiny_corpus() for t in tokenize(p.text))
        assert index.collection_frequency == dict(recount)
        assert index.total_tokens == sum(recount.values())
        assert index.doc_count == 3

    def test_statistics_invariants(self):
        index = build_index(tiny_corpus())
        assert index.total_tokens == sum(index.doc_lengths.values())
        assert index.total_tokens == sum(index.collection_frequency.values())
        for postings in index.postings.values():
            for pid in postings:
                assert pid in index.doc_lengths


def bm25_scores(index, text):
    """Each passage's BM25 score for a query text, as `bm25_search` gives it
    (passages without a query term are absent)."""
    return dict(bm25_search(index, Query("q", text), index.doc_count).entries)


class TestBm25Score:
    def test_absent_term_contributes_zero(self):
        index = build_index(tiny_corpus())
        assert bm25_scores(index, "apple zebra") == bm25_scores(index, "apple")

    def test_empty_query(self):
        index = build_index(tiny_corpus())
        assert bm25_scores(index, "") == {}

    def test_hand_computed_single_term(self):
        # "apple" appears in d1 (tf 2, len 3) over a 3-doc corpus, df=2,
        # avgdl = (3 + 2 + 4)/3 = 3
        index = build_index(tiny_corpus())
        idf = math.log(1 + (3 - 2 + 0.5) / (2 + 0.5))
        norm = 1 - 0.4 + 0.4 * 3 / 3
        expected = idf * 2 * (0.9 + 1) / (2 + 0.9 * norm)
        assert math.isclose(bm25_scores(index, "apple")["d1"], expected, abs_tol=1e-9)

    def test_repeated_query_terms_accumulate(self):
        index = build_index(tiny_corpus())
        once = bm25_scores(index, "apple")["d1"]
        twice = bm25_scores(index, "apple apple")["d1"]
        assert math.isclose(twice, 2 * once)

    def test_matches_independent_oracle_on_random_corpora(self):
        rng = random.Random(13)
        vocab = ["red", "green", "blue", "cyan", "teal", "plum"]
        for _ in range(25):
            passages = [
                Passage(f"d{i}", None, " ".join(rng.choices(vocab, k=rng.randint(1, 12))))
                for i in range(rng.randint(1, 8))
            ]
            index = build_index(passages)
            doc_tokens = {p.id: tokenize(p.text) for p in passages}
            query = rng.choices(vocab, k=rng.randint(1, 4))
            scores = bm25_scores(index, " ".join(query))
            for p in passages:
                assert math.isclose(
                    scores.get(p.id, 0.0),
                    bm25_oracle(doc_tokens, query, p.id),
                    abs_tol=1e-12,
                )


class TestBm25Search:
    def test_best_doc_first(self):
        index = build_index(tiny_corpus())
        result = bm25_search(index, Query("q", "banana cherry"), 1)
        assert result.passage_ids() == ("d2",)

    def test_no_matching_terms(self):
        index = build_index(tiny_corpus())
        result = bm25_search(index, Query("q", "zebra"), 5)
        assert result.entries == ()

    def test_k_larger_than_matches(self):
        index = build_index(tiny_corpus())
        result = bm25_search(index, Query("q", "apple"), 10)
        assert len(result.entries) == 2  # d1 and d3 contain apple
        scores = {pid: bm25_score(index, tokenize("apple"), pid) for pid in ("d1", "d3")}
        expected = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
        assert result.entries == expected

    def test_tie_broken_by_ascending_passage_id(self):
        passages = [Passage(pid, None, "same text here") for pid in ("zz", "aa", "mm")]
        index = build_index(passages)
        result = bm25_search(index, Query("q", "same"), 3)
        assert result.passage_ids() == ("aa", "mm", "zz")

    def test_invalid_k(self):
        index = build_index(tiny_corpus())
        with pytest.raises(ValidationError):
            bm25_search(index, Query("q", "apple"), 0)

    def test_equals_exhaustive_scoring(self):
        rng = random.Random(99)
        vocab = ["ant", "bee", "cat", "dog", "eel", "fox", "gnu"]
        for _ in range(20):
            passages = [
                Passage(f"d{i:02d}", None, " ".join(rng.choices(vocab, k=rng.randint(1, 15))))
                for i in range(rng.randint(2, 12))
            ]
            index = build_index(passages)
            query = Query("q", " ".join(rng.choices(vocab, k=3)))
            terms = tokenize(query.text)
            exhaustive = sorted(
                (
                    (pid, bm25_score(index, terms, pid))
                    for pid in index.doc_lengths
                    if bm25_score(index, terms, pid) > 0
                ),
                key=lambda kv: (-kv[1], kv[0]),
            )
            for k in range(1, len(passages) + 2):
                assert bm25_search(index, query, k).entries == tuple(exhaustive[:k])


# Case variants share a token, "snake_case" and "x_1" split at the
# underscore, "straße" and "STRASSE" stay two tokens, and "İstanbul" keeps
# its combining dot inside one token.
SEARCH_WORDS = ["apple", "APPLE", "İstanbul", "straße", "STRASSE", "x_1", "42", "snake_case", "b"]


@st.composite
def corpus_and_queries(draw):
    vocab = draw(st.lists(st.sampled_from(SEARCH_WORDS), min_size=3, max_size=5, unique=True))
    word_lists = st.lists(st.sampled_from(vocab), max_size=8)
    texts = draw(st.lists(word_lists.map(" ".join), min_size=1, max_size=8))
    texts += draw(st.lists(st.sampled_from(texts), max_size=3))  # duplicate passages
    pids = draw(st.permutations([f"p{i}" for i in range(len(texts))]))
    query_words = st.lists(st.sampled_from(vocab + ["zebra", "_", "İ"]), max_size=6)
    queries = draw(st.lists(query_words.map(" ".join), min_size=1, max_size=4))
    return [Passage(pid, None, text) for pid, text in zip(pids, texts)], queries


class TestBm25SearchOracle:
    @given(corpus_and_queries(), st.data())
    def test_entries_bit_identical_to_uncached_search(self, drawn, data):
        passages, query_texts = drawn
        index = build_index(passages)
        before = io.StringIO()
        save_index(index, before)
        queries = [Query(f"q{i}", text) for i, text in enumerate(query_texts)]
        # Interleave queries and depths, so each term's impacts are read
        # both the first time (cold) and from the cache (warm).
        calls = [(q, k) for q in queries for k in range(1, len(passages) + 2)]
        for query, k in data.draw(st.permutations(calls)):
            got = bm25_search(index, query, k)
            expected = bm25_search_oracle(index, query, k)
            assert got == expected
            assert [s.hex() for _, s in got.entries] == [s.hex() for _, s in expected.entries]
        after = io.StringIO()
        save_index(index, after)
        assert after.getvalue() == before.getvalue()
        after.seek(0)
        loaded = load_index(after)
        assert loaded == index


class TestBm25SearchTies:
    def test_ties_at_the_kth_score_break_by_passage_id(self):
        # Duplicate texts tie: 4 x "apple pie", 3 x "apple", 2 x "pie pie",
        # then one passage without a query term. Ids are not in corpus order.
        texts = ["apple pie"] * 4 + ["apple"] * 3 + ["pie pie"] * 2 + ["zebra"]
        pids = ["p5", "p1", "p8", "p3", "p9", "p0", "p4", "p7", "p2", "p6"]
        index = build_index([Passage(pid, None, text) for pid, text in zip(pids, texts)])
        query = Query("q", "apple pie")
        full = bm25_search_oracle(index, query, len(pids)).entries
        # Nine hits; for k = 1, 2, 3 the k-th score is shared by passages
        # that do not fit in k, and from k = 9 on every hit fits.
        assert len(full) == 9
        assert full[0][1] == full[3][1] > full[4][1]
        for k in range(1, len(full) + 2):
            got = bm25_search(index, query, k)
            expected = bm25_search_oracle(index, query, k)
            assert got == expected
            assert [(pid, s.hex()) for pid, s in got.entries] == [
                (pid, s.hex()) for pid, s in expected.entries
            ]


@st.composite
def skewed_corpus_and_queries(draw):
    """30-150 passages over 20-40 words whose frequencies fall off as
    1/rank, up to a third of the texts repeated, and queries holding
    repeated and hitless terms: a shape on which bm25_search stops
    admitting passages after a few terms."""
    # A plain seeded Random: texts drawn word by word through Hypothesis
    # would cost about 0.1 s an example.
    rng = draw(st.randoms(use_true_random=True))
    vocab = [f"w{i}" for i in range(draw(st.integers(20, 40)))]
    weights = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    n = draw(st.integers(30, 150))
    texts = [" ".join(rng.choices(vocab, weights, k=rng.randint(1, 12))) for _ in range(n)]
    for i in rng.sample(range(n), draw(st.integers(0, n // 3))):
        texts[i] = rng.choice(texts)  # duplicate texts tie
    pids = [f"p{i:03d}" for i in range(n)]
    rng.shuffle(pids)
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        words = rng.sample(vocab, rng.randint(1, 5))
        words += rng.choices(words, k=draw(st.integers(0, 2)))  # repeated terms
        words += ["zebra"] * draw(st.integers(0, 1))  # a term without postings
        rng.shuffle(words)
        queries.append(" ".join(words))
    return [Passage(pid, None, text) for pid, text in zip(pids, texts)], queries


class TestBm25SearchPruning:
    @settings(max_examples=120, deadline=None)
    @given(skewed_corpus_and_queries(), st.data())
    def test_entries_bit_identical_to_uncached_search(self, drawn, data):
        passages, query_texts = drawn
        index = build_index(passages)
        ks = [1, 2, 3, 5, 10, len(passages) + 1]
        calls = [(Query(f"q{i}", text), k) for i, text in enumerate(query_texts) for k in ks]
        # Queries share terms, so interleaving reads impacts cold and warm.
        for query, k in data.draw(st.permutations(calls)):
            got = bm25_search(index, query, k)
            expected = bm25_search_oracle(index, query, k)
            assert [(pid, s.hex()) for pid, s in got.entries] == [
                (pid, s.hex()) for pid, s in expected.entries
            ]

    def test_tie_reached_after_the_stop_is_kept_by_passage_id(self):
        # "a1" and "a2" each occur once, in passages of the same length, so
        # they have the same impact a. "b1" is in d1, d2 (impact b) and x
        # (tf 4, impact above a), so the terms are visited b1, a1, a2. After
        # a1, d2's partial score a + b is the largest and the bound of a2
        # alone is a, below it: the search stops admitting passages. d1
        # then holds only b, and ties d2 at a + b through a2 alone, which is
        # visited after the stop. With the smaller id, d1 is the top 1.
        passages = [
            Passage("d1", None, "a2 b1 f g"),
            Passage("d2", None, "a1 b1 f g"),
            Passage("x", None, "b1 b1 b1 b1"),
        ] + [Passage(f"z{i:02d}", None, "f g h i") for i in range(17)]
        index = build_index(passages)
        query = Query("q", "a1 a2 b1")
        bound = {term: _term_impacts(index, term)[1] for term in ("a1", "a2", "b1")}
        assert bound["a1"] == bound["a2"] < bound["b1"]
        full = bm25_search_oracle(index, query, len(passages)).entries
        assert [pid for pid, _ in full] == ["d1", "d2", "x"] and full[0][1] == full[1][1]
        for k in range(1, 4):
            got = bm25_search(index, query, k)
            assert got == bm25_search_oracle(index, query, k)
            assert [s.hex() for _, s in got.entries] == [s.hex() for _, s in full[:k]]
        assert bm25_search(index, query, 1).passage_ids() == ("d1",)


@st.composite
def varied_length_corpus_and_queries(draw):
    """Up to 12 passages of 0-20 tokens over three words, so tfs above 1
    and many (length, average length) pairs occur, with empty and
    punctuation-only passages among them; queries may repeat a term or
    name one without postings."""
    words = st.sampled_from(["a", "b", "c"])
    text = st.one_of(st.sampled_from(["", "?!", "... --"]),
                     st.lists(words, min_size=1, max_size=20).map(" ".join))
    texts = draw(st.lists(text, min_size=1, max_size=12))
    query_words = st.lists(st.sampled_from(["a", "b", "c", "zebra"]), min_size=1, max_size=4)
    queries = draw(st.lists(query_words.map(" ".join), min_size=1, max_size=3))
    return [Passage(f"p{i:02d}", None, text) for i, text in enumerate(texts)], queries


class TestLengthNorms:
    """Impacts read each passage's length norm from a table built once per
    index; every float must be the one `_tf_weight` gives."""

    @given(varied_length_corpus_and_queries(), st.integers(1, 4))
    def test_impacts_and_pruned_search_bit_identical_to_tf_weight(self, drawn, k):
        passages, query_texts = drawn
        index = build_index(passages)
        for term, tfs in index.postings.items():
            idf = _idf(index, term)
            expected = [idf * _tf_weight(index, tf, index.doc_lengths[pid])
                        for pid, tf in tfs.items()]
            assert [x.hex() for x in _term_impacts(index, term)[0]] == [x.hex() for x in expected]
        for i, text in enumerate(query_texts):
            query = Query(f"q{i}", text)
            got = bm25_search(index, query, k)
            expected = bm25_search_oracle(index, query, k)
            assert [(pid, s.hex()) for pid, s in got.entries] == [
                (pid, s.hex()) for pid, s in expected.entries
            ]


class TestCorpusLanguageModel:
    def test_add_one_arithmetic(self):
        index = build_index([Passage("d1", None, "a a b")])
        lm = estimate_corpus_lm(index)
        assert math.isclose(lm.probability("a"), 0.6)
        assert math.isclose(lm.probability("b"), 0.4)

    def test_unseen_term(self):
        index = build_index([Passage("d1", None, "a a b")])
        lm = estimate_corpus_lm(index)
        assert math.isclose(lm.probability("c"), 0.2)

    def test_single_type_corpus(self):
        index = build_index([Passage("d1", None, "x")])
        lm = estimate_corpus_lm(index)
        assert lm.probability("x") == 1.0

    def test_empty_index_is_an_error(self):
        with pytest.raises(ValidationError):
            estimate_corpus_lm(build_index([]))

    def test_totals_derived_from_collection_frequency(self):
        lm = CorpusLanguageModel({"a": 2, "b": 1})
        assert (lm.total_tokens, lm.vocab_size) == (3, 2)
        index = build_index(tiny_corpus())
        assert estimate_corpus_lm(index).total_tokens == index.total_tokens
        with pytest.raises(ValidationError):
            CorpusLanguageModel({})

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=40))
    def test_strictly_positive_and_consistent(self, tokens):
        index = build_index([Passage("d1", None, " ".join(tokens))])
        lm = estimate_corpus_lm(index)
        vocab = set(tokens)
        assert lm.vocab_size == len(vocab)
        observed_mass = sum(lm.probability(t) for t in vocab)
        assert lm.probability("zzz") > 0
        # add-one over observed types: Σ (cf+1)/(total+V) = 1 exactly
        assert math.isclose(observed_mass, 1.0, rel_tol=1e-12)


# Texts whose tokens are easy to get wrong: a lowercase that grows ("İ"), a
# casefold the tokenizer must not apply ("straße" vs "STRASSE"), an
# underscore boundary, and punctuation-only passages.
_LM_TEXTS = st.lists(
    st.sampled_from(["İstanbul", "straße", "STRASSE", "x_1", "apple", "pie", "!", "... --"]),
    max_size=8,
).map(" ".join)


class TestCorpusLmFromTokens:
    @given(st.lists(_LM_TEXTS, min_size=1, max_size=6))
    def test_equals_the_index_estimate(self, texts):
        passages = [Passage(f"d{i}", None, text) for i, text in enumerate(texts)]
        if not any(tokenize(text) for text in texts):
            with pytest.raises(ValidationError):
                corpus_lm(passages)
            with pytest.raises(ValidationError):
                estimate_corpus_lm(build_index(passages))
            return
        got, want = corpus_lm(passages), estimate_corpus_lm(build_index(passages))
        assert list(got.collection_frequency.items()) == list(want.collection_frequency.items())
        assert (got.total_tokens, got.vocab_size) == (want.total_tokens, want.vocab_size)
        for term in [*want.collection_frequency, "unseen", "i", "strasse", "x_1"]:
            assert got.probability(term).hex() == want.probability(term).hex()


class TestFuseRuns:
    def test_alpha_zero_keeps_dense_order(self):
        dense = RankedList("q", (("a", 5.0), ("b", 3.0), ("c", 1.0)))
        sparse = RankedList("q", (("c", 9.0), ("a", 2.0)))
        fused = fuse_runs(dense, sparse, 0.0)
        restricted = [pid for pid in fused.passage_ids() if pid in {"a", "b", "c"}]
        assert restricted == ["a", "b", "c"]

    def test_single_doc_arithmetic(self):
        dense = RankedList("q", (("d1", 1.0),))
        sparse = RankedList("q", (("d1", 2.0),))
        fused = fuse_runs(dense, sparse, 1.3)
        assert math.isclose(fused.entries[0][1], 3.6, abs_tol=1e-12)

    def test_disjoint_singletons_fill_with_minimum(self):
        # by hand: a = 1.0 + 1.3*3.0 (sparse fill), b = 1.0 (dense fill) + 1.3*3.0
        dense = RankedList("q", (("a", 1.0),))
        sparse = RankedList("q", (("b", 3.0),))
        fused = fuse_runs(dense, sparse, 1.3)
        assert fused.passage_ids() == ("a", "b")  # tie resolved by passage id
        assert all(math.isclose(s, 1.0 + 1.3 * 3.0) for _, s in fused.entries)

    def test_query_id_mismatch(self):
        with pytest.raises(ValidationError):
            fuse_runs(
                RankedList("q1", (("a", 1.0),)),
                RankedList("q2", (("a", 1.0),)),
                1.0,
            )

    def test_monotone_in_sparse_score(self):
        dense = RankedList("q", (("a", 1.0), ("b", 1.0)))
        low = RankedList("q", (("a", 1.0), ("b", 0.5)))
        high = RankedList("q", (("b", 2.0), ("a", 1.0)))
        assert fuse_runs(dense, low, 1.3).passage_ids()[0] == "a"
        assert fuse_runs(dense, high, 1.3).passage_ids()[0] == "b"

    def test_negative_alpha_rejected(self):
        dense = RankedList("q", (("a", 1.0),))
        with pytest.raises(ValidationError):
            fuse_runs(dense, dense, -0.1)
        with pytest.raises(ValidationError):
            fuse_runs(dense, dense, float("inf"))


# An artifact as the previous format wrote it: statistics stored beside the
# postings. Its doc_count is wrong, which that format could not notice.
V1_PAYLOAD = {
    "postings": {"a": [["d1", 1]]},
    "doc_lengths": {"d1": 1},
    "doc_count": 7,
    "avg_doc_length": 1.0,
    "total_tokens": 1,
    "collection_frequency": {"a": 1},
}


class TestIndexPersistence:
    def test_round_trip(self):
        index = build_index(tiny_corpus())
        buffer = io.StringIO()
        save_index(index, buffer)
        buffer.seek(0)
        loaded = load_index(buffer)
        assert loaded.postings == index.postings
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.doc_count == index.doc_count
        assert loaded.avg_doc_length == index.avg_doc_length
        assert loaded.collection_frequency == index.collection_frequency
        query = Query("q", "apple cherry")
        assert bm25_search(loaded, query, 3).entries == bm25_search(index, query, 3).entries

    def test_artifact_text_is_pinned(self):
        index = build_index([Passage("d1", None, "Alpha beta alpha"), Passage("d2", None, "beta gamma")])
        buffer = io.StringIO()
        save_index(index, buffer)
        assert buffer.getvalue() == (
            "augrank-index/2\n"
            '{"postings":{"alpha":[["d1",2]],"beta":[["d1",1],["d2",1]],"gamma":[["d2",1]]},'
            '"doc_lengths":{"d1":3,"d2":2}}\n'
        )

    def test_magic_header_checked(self):
        with pytest.raises(ParseError, match="header.*; write it again with `save_index`$"):
            load_index(io.StringIO("something else\n{}"))

    @given(
        st.dictionaries(st.text(min_size=1, max_size=4), st.text(max_size=30), max_size=8),
        st.text(alphabet="abc xyz", min_size=1, max_size=12),
    )
    def test_round_trip_keeps_statistics_and_search(self, texts, query_text):
        index = build_index([Passage(pid, None, text) for pid, text in texts.items()])
        buffer = io.StringIO()
        save_index(index, buffer)
        buffer.seek(0)
        loaded = load_index(buffer)
        assert loaded == index  # postings, lengths and the statistics derived from them
        assert loaded.collection_frequency == index.collection_frequency
        query = Query("q", query_text)
        assert bm25_search(loaded, query, 5).entries == bm25_search(index, query, 5).entries

    @pytest.mark.parametrize(
        "header, payload, match",
        [
            ("augrank-index/1", V1_PAYLOAD, "header"),
            (INDEX_MAGIC, {"postings": {"a": [["d9", 1]]}, "doc_lengths": {"d1": 1}}, "unknown"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", 2]]}, "doc_lengths": {"d1": 3}}, "length"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", 0]]}, "doc_lengths": {"d1": 0}}, "tf 0"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", "1"]]}, "doc_lengths": {"d1": 1}}, "tf"),
            (INDEX_MAGIC, {"postings": {"a": []}, "doc_lengths": {}}, "no postings"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", 1], ["d1", 1]]}, "doc_lengths": {"d1": 2}},
             "twice"),
            (INDEX_MAGIC, {"postings": {}, "doc_lengths": [["d1", 1]]}, "corrupt"),
            (INDEX_MAGIC, {"postings": {"a": [["d1"]]}, "doc_lengths": {"d1": 1}}, "corrupt"),
            (INDEX_MAGIC, {"doc_lengths": {}}, "corrupt"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", 1]]}, "doc_lengths": {"d1": True}},
             "passage 'd1' has length True"),
            (INDEX_MAGIC, {"postings": {"a": [["d1", 1]]}, "doc_lengths": {"d1": 1.0}},
             "passage 'd1' has length 1.0"),
            (INDEX_MAGIC, {"postings": {"a": [["d\ud800", 1]]}, "doc_lengths": {"d\ud800": 1}},
             r"passage 'd\\ud800' holds a lone surrogate"),
        ],
    )
    def test_inconsistent_artifact_rejected(self, header, payload, match):
        with pytest.raises(ParseError, match=match):
            load_index(io.StringIO(header + "\n" + json.dumps(payload)))
