import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from augrank.augment import (
    Expansion,
    ExpansionMode,
    augment_query,
    load_expansions,
    natural_language_expansion,
    retrieve,
    topical_term_expansion,
    topical_term_weights,
    write_expansions,
)
from augrank.corpus_io import Passage, Query, Snippet, SnippetSource
from augrank.errors import ConflictError, ParseError, ValidationError
from augrank.index import corpus_lm, tokenize
from oracles import kl_weights_oracle

import io

ORGANIC = False  # Snippet.direct_answer
DIRECT = True
SERP = SnippetSource.WEB_SERP
WIKI = SnippetSource.WIKI


def snip(rank, text, direct_answer=ORGANIC, source=SERP, qid="q1"):
    return Snippet(qid, rank, direct_answer, text, source)


def lm_from(*texts):
    return corpus_lm(Passage(f"d{i}", None, t) for i, t in enumerate(texts))


# augment_query's settings at the pipeline's defaults, in each mode; the
# library functions have no defaults of their own.
SETTINGS = dict(source=SERP, max_snippets=5, skip_direct_answers=True, max_words=64, max_terms=64)
NL_CFG = dict(SETTINGS, mode=ExpansionMode.NATURAL_LANGUAGE)
TERMS_CFG = dict(SETTINGS, mode=ExpansionMode.TOPICAL_TERMS)


def retrieved(snippets, skip_direct_answers=True):
    """`retrieve` over a cache holding `snippets` for q1, keeping up to 10."""
    return retrieve(Query("q1", "x"), {"q1": snippets}, SERP, 10, skip_direct_answers)


class TestFilterSnippets:
    def test_all_organic_unchanged(self):
        snippets = [snip(1, "a"), snip(2, "b")]
        assert retrieved(snippets) == snippets

    def test_all_direct_answers_removed(self):
        snippets = [snip(1, "a", DIRECT), snip(2, "b", DIRECT)]
        assert retrieved(snippets) == []

    def test_mixed_keeps_organic_subsequence(self):
        snippets = [snip(1, "a"), snip(2, "b", DIRECT), snip(3, "c"), snip(4, "d", DIRECT)]
        kept = retrieved(snippets)
        assert [s.rank for s in kept] == [1, 3]

    def test_skip_disabled_keeps_everything(self):
        snippets = [snip(1, "a", DIRECT), snip(2, "b")]
        assert retrieved(snippets, skip_direct_answers=False) == snippets

    def test_idempotent(self):
        snippets = [snip(1, "a"), snip(2, "b", DIRECT), snip(3, "c")]
        once = retrieved(snippets)
        assert retrieved(once) == once


class TestRetrieve:
    def test_seven_cached_truncated_to_five(self):
        cache = {"q1": [snip(r, f"text {r}") for r in range(1, 8)]}
        result = retrieve(Query("q1", "x"), cache, SERP, 5, True)
        assert [s.rank for s in result] == [1, 2, 3, 4, 5]

    def test_uncached_query_is_empty(self):
        assert retrieve(Query("q9", "x"), {}, SERP, 5, True) == []

    def test_direct_answers_filtered_before_truncation(self):
        cache = {"q1": [snip(1, "da", DIRECT), snip(2, "a"), snip(3, "b"), snip(4, "c")]}
        result = retrieve(Query("q1", "x"), cache, SERP, 5, True)
        assert [s.rank for s in result] == [2, 3, 4]
        assert not any(s.direct_answer for s in result)

    def test_source_selected(self):
        cache = {"q1": [snip(1, "serp text"), snip(1, "wiki text", source=WIKI)]}
        serp = retrieve(Query("q1", "x"), cache, SERP, 5, True)
        wiki = retrieve(Query("q1", "x"), cache, WIKI, 5, True)
        assert [s.text for s in serp] == ["serp text"]
        assert [s.text for s in wiki] == ["wiki text"]


def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


class TestNaturalLanguageExpansion:
    def test_two_forty_word_snippets_truncate_to_64(self):
        first, second = words(40, "a"), words(40, "b")
        text = natural_language_expansion([snip(1, first), snip(2, second)], 64)
        expected = first + " " + " ".join(second.split()[:24])
        assert text == expected
        assert len(text.split()) == 64

    def test_short_snippet_verbatim(self):
        text = words(10)
        assert natural_language_expansion([snip(1, text)], 64) == text

    def test_exactly_max_words_verbatim(self):
        snippets = [snip(1, "a  b"), snip(2, "c")]
        assert natural_language_expansion(snippets, 3) == "a  b c"

    def test_empty_sequence_gives_empty_text(self):
        assert natural_language_expansion([], 64) == ""

    def test_casing_and_punctuation_preserved(self):
        text = natural_language_expansion([snip(1, "The T5-XL; works.")], 64)
        assert text == "The T5-XL; works."

    @given(
        st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=30), max_size=6),
        st.integers(1, 20),
    )
    def test_truncation_never_splits_words(self, snippet_words, max_words):
        snippets = [snip(i + 1, " ".join(ws)) for i, ws in enumerate(snippet_words)]
        out_words = natural_language_expansion(snippets, max_words).split()
        assert len(out_words) <= max_words
        all_words = [w for ws in snippet_words for w in ws]
        assert out_words == all_words[: len(out_words)]


class TestTopicalTermWeights:
    def test_equal_distributions_weigh_zero(self):
        # corpus "a b": P(a|C) = (1+1)/(2+2) = 0.5 and snippet "a b" has
        # P(a|A) = 0.5, so both weights are exactly 0
        lm = lm_from("a b")
        weights = topical_term_weights([snip(1, "a b")], lm)
        assert weights == [("a", 0.0), ("b", 0.0)]  # tie -> ascending term

    def test_hand_evaluated_weight(self):
        # corpus tokens "apple x y z": P(apple|C) = (1+1)/(4+4) = 0.25
        lm = lm_from("apple x y z")
        weights = topical_term_weights([snip(1, "apple apple banana")], lm)
        by_term = dict(weights)
        expected_apple = (2 / 3) * math.log2((2 / 3) / 0.25)
        assert math.isclose(by_term["apple"], expected_apple, abs_tol=1e-12)
        assert math.isclose(by_term["apple"], 0.9434, abs_tol=1e-4)

    def test_matches_brute_force_oracle(self):
        corpus_texts = ["red green blue", "green green yellow", "blue blue blue red"]
        lm = lm_from(*corpus_texts)
        snippets = [snip(1, "red shiny apple"), snip(2, "green apple pie recipe")]
        weights = topical_term_weights(snippets, lm)
        oracle = kl_weights_oracle(
            [tokenize(s.text) for s in snippets],
            [tokenize(t) for t in corpus_texts],
        )
        assert {term for term, _ in weights} == set(oracle)
        for term, weight in weights:
            assert math.isclose(weight, oracle[term], abs_tol=1e-12)

    def test_sorted_descending_with_term_tiebreak(self):
        lm = lm_from("filler words here")
        weights = topical_term_weights([snip(1, "zebra yak zebra yak unicorn")], lm)
        values = [weight for _, weight in weights]
        assert values == sorted(values, reverse=True)
        (first_term, first_weight), (second_term, second_weight) = weights[:2]
        assert first_term < second_term or first_weight > second_weight

    def test_negative_weights_retained(self):
        # "the" flooding the corpus makes P(the|C) > P(the|A)
        lm = lm_from("the the the the the the the the cat")
        weights = topical_term_weights([snip(1, "the rare pangolin")], lm)
        by_term = dict(weights)
        assert by_term["the"] < 0
        assert [term for term, _ in weights][-1] == "the"

    def test_no_tokens_is_an_error(self):
        lm = lm_from("a b c")
        with pytest.raises(ValidationError):
            topical_term_weights([snip(1, "!!! ...")], lm)


class TestTopicalTermExpansion:
    def test_caps_at_max_terms(self):
        lm = lm_from("common words only")
        text = " ".join(f"term{i}" for i in range(100))
        assert len(topical_term_expansion([snip(1, text)], lm, 64).split()) == 64

    def test_fewer_terms_than_cap(self):
        lm = lm_from("common words only")
        assert len(topical_term_expansion([snip(1, "alpha beta gamma")], lm, 64).split()) == 3

    def test_order_equals_oracle_sort(self):
        corpus_texts = ["one common phrase", "another common phrase"]
        lm = lm_from(*corpus_texts)
        snippets = [snip(1, "quantum common flux quantum"), snip(2, "flux capacitor common")]
        text = topical_term_expansion(snippets, lm, 64)
        oracle = kl_weights_oracle(
            [tokenize(s.text) for s in snippets], [tokenize(t) for t in corpus_texts]
        )
        expected = sorted(oracle, key=lambda t: (-oracle[t], t))
        assert text.split() == expected

    def test_terms_pairwise_distinct(self):
        lm = lm_from("x y z")
        terms = topical_term_expansion([snip(1, "dup dup dup other dup")], lm, 64).split()
        assert len(terms) == len(set(terms))

    def test_duplicating_snippets_changes_nothing(self):
        lm = lm_from("base corpus text")
        snippets = [snip(1, "solar panel output"), snip(2, "panel efficiency")]
        doubled = snippets + [snip(3, "solar panel output"), snip(4, "panel efficiency")]
        once = topical_term_weights(snippets, lm)
        twice = topical_term_weights(doubled, lm)
        assert [(term, round(weight, 12)) for term, weight in once] == [
            (term, round(weight, 12)) for term, weight in twice
        ]
        assert topical_term_expansion(snippets, lm, 64) == topical_term_expansion(doubled, lm, 64)


class TestAugmentQuery:
    def make_cache(self):
        return {"q1": [snip(r, f"snippet number {r} about topic") for r in range(1, 4)]}

    def test_natural_language_end_to_end(self):
        expansion = augment_query(Query("q1", "topic"), self.make_cache(), lm=None, **NL_CFG)
        assert expansion.query_id == "q1"
        assert 0 < len(expansion.text.split()) <= 64
        assert not expansion.fallback

    def test_uncached_query_falls_back(self):
        expansion = augment_query(Query("q9", "x"), self.make_cache(), lm=None, **NL_CFG)
        assert expansion == Expansion("q9", ExpansionMode.NATURAL_LANGUAGE, "")
        assert expansion.fallback

    @pytest.mark.parametrize("cfg", [NL_CFG, TERMS_CFG])
    def test_query_id_comes_from_the_query(self, cfg):
        # The snippets cached under q1 claim another query id; the expansion
        # still names q1, in both modes.
        cache = {"q1": [snip(1, "alpha beta", qid="other"), snip(2, "gamma", qid="")]}
        lm = lm_from("corpus background text")
        expansion = augment_query(Query("q1", "topic"), cache, lm=lm, **cfg)
        assert (expansion.query_id, expansion.mode) == ("q1", cfg["mode"])
        assert expansion.text

    def test_deterministic(self):
        args = (Query("q1", "topic"), self.make_cache(), ExpansionMode.NATURAL_LANGUAGE, None)
        assert augment_query(*args, **SETTINGS) == augment_query(*args, **SETTINGS)

    def test_topical_requires_language_model(self):
        with pytest.raises(ValidationError):
            augment_query(Query("q1", "x"), self.make_cache(), lm=None, **TERMS_CFG)

    def test_topical_requires_language_model_for_an_uncached_query_too(self):
        with pytest.raises(ValidationError, match="requires a corpus language model"):
            augment_query(Query("q9", "x"), self.make_cache(), lm=None, **TERMS_CFG)

    def test_topical_end_to_end(self):
        lm = lm_from("corpus background text")
        expansion = augment_query(Query("q1", "topic"), self.make_cache(), lm=lm, **TERMS_CFG)
        assert expansion.mode is ExpansionMode.TOPICAL_TERMS
        assert expansion.text


    def test_topical_punctuation_only_snippets_fall_back(self):
        lm = lm_from("corpus background text")
        cache = {"q1": [snip(1, "!!! ---"), snip(2, "...")]}
        expansion = augment_query(Query("q1", "topic"), cache, lm=lm, **TERMS_CFG)
        assert expansion == Expansion("q1", ExpansionMode.TOPICAL_TERMS, "")
        assert expansion.fallback


class TestExpansionFile:
    def test_round_trip(self):
        expansions = [
            augment_query(Query("q1", "x"), {"q1": [snip(1, "alpha beta")]}, lm=None, **NL_CFG),
            augment_query(Query("q2", "y"), {}, lm=None, **NL_CFG),
        ]
        buffer = io.StringIO()
        write_expansions(expansions, buffer)
        loaded = load_expansions(buffer.getvalue())
        assert loaded["q1"].text == "alpha beta"
        assert not loaded["q1"].fallback
        assert loaded["q2"].text == ""
        assert loaded["q2"].fallback

    @given(st.lists(st.tuples(
        st.text(st.sampled_from('"\\\x00\x7f\U0001f600q1'), min_size=1),
        st.sampled_from(list(ExpansionMode)),
        st.lists(st.sampled_from(['"', "\\", "\x1f", "\x85", "\u2028", "\u2029", "é", " ",
                                  "Document:"]) | st.characters(blacklist_categories=("Cs",)))
        .map("".join),
    )))
    def test_every_line_is_json_dumps_of_its_record(self, drawn):
        buffer = io.StringIO()
        write_expansions([Expansion(*fields) for fields in drawn], buffer)
        assert buffer.getvalue() == "".join(
            json.dumps({"query_id": qid, "mode": mode.value, "text": text}, ensure_ascii=False) + "\n"
            for qid, mode, text in drawn
        )

    @pytest.mark.parametrize("field, value", [("text", None), ("query_id", None), ("mode", 1)])
    def test_field_of_wrong_json_type_rejected(self, field, value):
        record = dict({"query_id": "q1", "mode": "natural_language", "text": "a"}, **{field: value})
        with pytest.raises(ParseError, match=rf"^line 1: field '{field}' must be a string"):
            load_expansions(json.dumps(record))

    def test_repeated_query_is_a_conflict_at_its_line(self):
        record = json.dumps({"query_id": "q1", "mode": "natural_language", "text": "a"})
        with pytest.raises(ConflictError, match=r"^line 2: duplicate expansion for query 'q1'$"):
            load_expansions(f"{record}\n{record}\n")
