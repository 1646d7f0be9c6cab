"""Query augmentation from cached retrieval results.

Two strategies build the augmenting string for a query:

- natural language expansion: concatenate snippet texts in rank order and
  truncate to the first `max_words` whitespace-delimited words (word
  counting uses surface words, not tokenizer output);
- topical term expansion: score every distinct snippet term t by
  w(t) = P(t|A) * log2(P(t|A) / P(t|C)), its contribution to the KL
  divergence between the snippet language model A and the corpus model C,
  and keep the top `max_terms` terms in descending-weight order.

Each strategy returns only the text. `augment_query` retrieves, picks the
strategy by the given mode and builds the one `Expansion`, with the
query's id and that mode, for every query, a fallback included. Each
setting is a plain argument with no default here; the defaults and their
checks are `cli.ExperimentConfig`'s.

P(t|A) is unsmoothed (only terms occurring in the snippets are candidates);
P(t|C) comes smoothed from the index module, so the ratio is always
defined. Terms with P(t|A) < P(t|C) get negative weights and rank last
rather than being clamped. No stopword removal is applied: near-corpus-
frequency terms suppress themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from enum import Enum
from typing import TextIO

from .corpus_io import (
    Query,
    Record,
    Snippet,
    SnippetSource,
    _iter_lines,
    _parse_record,
    encode_json_string,
)
from .errors import ParseError, ValidationError
from .index import CorpusLanguageModel, tokenize


class ExpansionMode(str, Enum):
    NATURAL_LANGUAGE = "natural_language"
    TOPICAL_TERMS = "topical_terms"


class Expansion(Record):
    """The augmenting string for one query."""

    __slots__ = ("query_id", "mode", "text")

    def __init__(self, query_id: str, mode: ExpansionMode, text: str):
        self.query_id = query_id
        self.mode = mode
        self.text = text

    @property
    def fallback(self) -> bool:
        """An empty expansion (nothing retrieved or nothing usable);
        downstream sequence building then reverts to the plain,
        non-augmented form."""
        return not self.text


def retrieve(
    query: Query,
    cache: Mapping[str, Sequence[Snippet]],
    source: SnippetSource,
    max_snippets: int,
    skip_direct_answers: bool,
) -> list[Snippet]:
    """The retrieval service: the query's cached snippets from `source` in
    rank order, without direct-answer snippets when `skip_direct_answers`
    (they leak answers), then the first `max_snippets` of them.

    An uncached query yields an empty list so the caller can fall back to
    the non-augmented sequence.
    """
    snippets = [s for s in cache.get(query.id, ()) if s.source is source]
    snippets.sort(key=lambda s: s.rank)
    if skip_direct_answers:
        snippets = [s for s in snippets if not s.direct_answer]
    return snippets[:max_snippets]


def natural_language_expansion(snippets: Sequence[Snippet], max_words: int) -> str:
    """Concatenate snippet texts with single spaces and truncate to the
    first `max_words` whitespace words, keeping casing and punctuation.

    Truncation never splits a word. When nothing is truncated the joined
    text is kept verbatim.
    """
    joined = " ".join(s.text for s in snippets)
    words = joined.split()
    if len(words) <= max_words:
        return joined
    return " ".join(words[:max_words])


def topical_term_weights(
    snippets: Sequence[Snippet], lm: CorpusLanguageModel
) -> list[tuple[str, float]]:
    """`(term, weight)` for every distinct term of the snippet text.

    A is the concatenation of all snippet token streams; for each term,
    P(t|A) = count(t)/|A| and w(t) = P(t|A) * log2(P(t|A)/P(t|C)). Sorted
    by weight descending, ties by ascending term.
    """
    tokens = [t for s in snippets for t in tokenize(s.text)]
    if not tokens:
        raise ValidationError("snippets contain no tokens; term distribution is undefined")
    total = len(tokens)
    weights = []
    for term, count in Counter(tokens).items():
        p_a = count / total
        weights.append((term, p_a * math.log2(p_a / lm.probability(term))))
    weights.sort(key=lambda term_weight: (-term_weight[1], term_weight[0]))
    return weights


def topical_term_expansion(
    snippets: Sequence[Snippet], lm: CorpusLanguageModel, max_terms: int
) -> str:
    """Space-joined top `max_terms` terms in descending-weight order.

    Snippets without a single token (punctuation only) give the empty
    text.
    """
    if not any(tokenize(s.text) for s in snippets):
        return ""
    weights = topical_term_weights(snippets, lm)
    return " ".join(term for term, _ in weights[:max_terms])


def augment_query(
    query: Query,
    cache: Mapping[str, Sequence[Snippet]],
    mode: ExpansionMode,
    lm: CorpusLanguageModel | None,
    *,
    source: SnippetSource,
    max_snippets: int,
    skip_direct_answers: bool,
    max_words: int,
    max_terms: int,
) -> Expansion:
    """Retrieve then expand by `mode` (topical terms need the corpus language
    model `lm`); the expansion carries `query.id` and `mode`. Empty retrieval
    (or an expansion that comes out empty) returns the empty fallback."""
    snippets = retrieve(query, cache, source, max_snippets, skip_direct_answers)
    if not snippets:
        text = ""
    elif mode is ExpansionMode.NATURAL_LANGUAGE:
        text = natural_language_expansion(snippets, max_words)
    elif lm is None:
        raise ValidationError("topical term expansion requires a corpus language model")
    else:
        text = topical_term_expansion(snippets, lm, max_terms)
    return Expansion(query.id, mode, text)


def write_expansions(expansions: Iterable[Expansion], out: TextIO) -> None:
    """One JSON record per line: {"query_id", "mode", "text"}, the line
    `json.dumps(record, ensure_ascii=False)` gives."""
    for item in expansions:
        out.write(
            f'{{"query_id": {encode_json_string(item.query_id)}, '
            f'"mode": {encode_json_string(item.mode.value)}, '
            f'"text": {encode_json_string(item.text)}}}\n'
        )


def load_expansions(stream: Iterable[str] | str) -> dict[str, Expansion]:
    """Load an expansion file keyed by query id; a record with empty text
    is a fallback."""
    expansions: dict[str, Expansion] = {}
    for line_no, line in _iter_lines(stream):
        record = _parse_record(line, line_no, ("query_id", "mode", "text"))
        qid, text = record["query_id"], record["text"]
        try:
            mode = ExpansionMode(record["mode"])
        except ValueError:
            raise ParseError(f"unknown expansion mode {record['mode']!r}", line_no) from None
        if qid in expansions:
            raise ParseError(f"duplicate expansion for query {qid!r}", line_no)
        expansions[qid] = Expansion(qid, mode, text)
    return expansions
