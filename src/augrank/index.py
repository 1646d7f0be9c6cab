"""Inverted index, BM25 initial ranking, corpus language model, and
sparse/dense run fusion.

BM25 uses k1=0.9, b=0.4 with idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5)),
the common passage-ranking defaults. `bm25_scores` scores every passage
holding a query term; `bm25_search` finds the same top k from fewer
postings by exact MaxScore pruning and rescores its survivors, so their
scores are the ones `bm25_scores` gives, bit for bit. The corpus language
model applies add-one smoothing over the observed vocabulary so that any
term, including unseen ones, has strictly positive probability. Ties
everywhere break by ascending passage id so results are reproducible
across platforms.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter, defaultdict
from collections.abc import Iterable, Mapping, Sequence

from .corpus_io import Passage, Query, RankedList, Record, _holds_lone_surrogate
from .errors import ConflictError, ParseError, ValidationError

TYPE_CHECKING = False
if TYPE_CHECKING:  # names for annotations only: importing typing slows every start-up
    from typing import TextIO

BM25_K1 = 0.9
BM25_B = 0.4

INDEX_MAGIC = "augrank-index/2"

# Runs of Unicode letters/digits; underscore and punctuation are boundaries.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# One byte table for ASCII text: each letter or digit to its lowercase form,
# every other ASCII code point to a space. Bytes 128-255 map to themselves;
# ASCII-encoded text holds none.
_ASCII_TABLE = bytes(
    ord(chr(c).lower()) if chr(c).isalnum() else ord(" ") for c in range(128)
) + bytes(range(128, 256))

TokenStream = list[str]


def tokenize(text: str) -> TokenStream:
    r"""Lowercased runs of Unicode letters and digits; underscore and
    punctuation are boundaries.

    "T5-xl re-ranker" -> ["t5", "xl", "re", "ranker"]

    Two paths give the same tokens. ASCII text goes through one 256-byte
    translation table, which lowercases A-Z and turns every other
    non-alphanumeric byte into a space, and the result is decoded and
    split: in ASCII `[^\W_]` is exactly `[A-Za-z0-9]`, and lowercasing
    maps only A-Z to a-z, so it moves no boundary and `split()` returns the
    maximal runs. Other text is matched first and each match lowercased,
    since there lowercasing can move a boundary: "İ".lower() appends a
    combining dot, which the pattern treats as a boundary.
    """
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TABLE).decode("ascii").split()
    return [t.lower() for t in _TOKEN_RE.findall(text)]


class InvertedIndex(Record):
    """Term -> {passage id: tf} postings, each term's passages in insertion
    order, and each passage's token count. Every other statistic is
    derived: the totals once at construction, `collection_frequency` on
    demand, each passage's BM25 length norm at the first impact computed,
    and each term's BM25 impacts the first time `bm25_scores` or
    `bm25_search` meets the term, as floats aligned with the term's
    postings, together with the largest of them (the term's MaxScore
    bound). The norms and impacts are a cache: never saved, not compared,
    and not shown."""

    __slots__ = (
        "postings", "doc_lengths", "doc_count", "total_tokens", "avg_doc_length",
        "_impacts", "_norms",
    )

    def __init__(self, postings: dict[str, dict[str, int]], doc_lengths: dict[str, int]):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_count = len(doc_lengths)
        self.total_tokens = sum(doc_lengths.values())
        self.avg_doc_length = self.total_tokens / self.doc_count if self.doc_count else 0.0
        self._impacts: dict[str, tuple[list[float], float]] = {}
        self._norms: dict[str, float] | None = None

    @property
    def collection_frequency(self) -> dict[str, int]:
        """Occurrences of each term across the corpus."""
        return {term: sum(tfs.values()) for term, tfs in self.postings.items()}


class CorpusLanguageModel(Record):
    """Smoothed unigram model over the indexed corpus.

    probability(t) = (cf(t) + 1) / (total_tokens + vocab_size), where
    total_tokens sums the collection frequencies and vocab_size counts the
    observed term types; unseen terms get cf = 0.
    """

    __slots__ = ("collection_frequency", "total_tokens", "vocab_size")

    def __init__(self, collection_frequency: Mapping[str, int]):
        self.collection_frequency = collection_frequency
        self.total_tokens = sum(collection_frequency.values())
        self.vocab_size = len(collection_frequency)
        if self.total_tokens <= 0:
            raise ValidationError("cannot estimate a language model from a corpus with no tokens")

    def probability(self, term: str) -> float:
        cf = self.collection_frequency.get(term, 0)
        return (cf + 1) / (self.total_tokens + self.vocab_size)


def build_index(passages: Sequence[Passage]) -> InvertedIndex:
    """Build an inverted index over passage texts (titles are not indexed)."""
    postings: defaultdict[str, dict[str, int]] = defaultdict(dict)
    doc_lengths: dict[str, int] = {}
    for passage in passages:
        if passage.id in doc_lengths:
            raise ConflictError(f"duplicate passage id {passage.id!r}")
        tokens = tokenize(passage.text)
        doc_lengths[passage.id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings[term][passage.id] = tf
    return InvertedIndex(dict(postings), doc_lengths)


def _idf(index: InvertedIndex, term: str) -> float:
    df = len(index.postings.get(term, ()))
    return math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))


def _length_norms(index: InvertedIndex) -> dict[str, float]:
    """`BM25_K1 * (1 - b + b * dl / avgdl)` of each passage, the length-only
    part of BM25's tf weight denominator; built at the first impact, not
    with the index (a corpus without tokens has an average length of 0),
    and cached on it."""
    if index._norms is None:
        avg = index.avg_doc_length
        index._norms = {
            pid: BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg)
            for pid, dl in index.doc_lengths.items()
        }
    return index._norms


def _impact(idf: float, tf: int, norm: float) -> float:
    """`idf` times BM25's tf weight `tf * (k1 + 1) / (tf + k1 * (1 - b + b *
    dl / avgdl))` for a passage whose `_length_norms` entry is `norm`; the
    operations run in the formula's order, so the impact is the float the
    formula gives."""
    return idf * (tf * (BM25_K1 + 1.0) / (tf + norm))


def _term_impacts(index: InvertedIndex, term: str) -> tuple[list[float], float]:
    """The BM25 contribution of each posting of `term`, aligned with
    `index.postings[term]`, and the largest of them; computed on first use
    and cached on the index."""
    cached = index._impacts.get(term)
    if cached is None:
        idf, norms = _idf(index, term), _length_norms(index)
        impacts = [
            _impact(idf, tf, norms[pid])
            for pid, tf in index.postings[term].items()
        ]
        cached = index._impacts[term] = (impacts, max(impacts))
    return cached


def bm25_scores(index: InvertedIndex, terms: Iterable[str]) -> dict[str, float]:
    """BM25 of every passage holding at least one of `terms`.

    Each term's per-passage contributions are computed once per index and
    reused by later calls; a passage's score adds them up in `terms` order,
    so a repeated term contributes once per occurrence.
    """
    scores: dict[str, float] = {}
    get = scores.get
    for term in terms:
        postings = index.postings.get(term)
        if postings is None:
            continue
        for pid, impact in zip(postings, _term_impacts(index, term)[0]):
            scores[pid] = get(pid, 0.0) + impact
    return scores


def _add_impacts(index: InvertedIndex, term: str, times: int, scores: dict[str, float]) -> None:
    """Add `times` times the impact of `term` to the score of each passage
    in `scores` that holds it. The impact is the one `_term_impacts`
    caches, so it is the same float."""
    tfs, idf, norms = index.postings[term], _idf(index, term), _length_norms(index)
    for pid in [pid for pid in scores if pid in tfs]:
        scores[pid] += times * _impact(idf, tfs[pid], norms[pid])


# Pruning compares partial scores, added in another order than the exact
# ones, with a threshold this much below the k-th partial score, so that
# their last-bit differences cannot drop a passage that reaches the top k.
_PRUNE_MARGIN = 1.0 - 1e-9


def bm25_search(index: InvertedIndex, query: Query, k: int) -> RankedList:
    """Top-k passages by BM25, score descending, ties by ascending passage id.

    A passage's score is the one `bm25_scores` gives it for the query's
    tokens, added in the same order, so only passages containing at least
    one query term are returned and the result may be shorter than k.

    The search is exact MaxScore (Turtle & Flood 1995). Each distinct query
    term's bound is its multiplicity times its largest impact. The terms
    are visited from the largest bound down, each adding its whole postings
    list to the passages' partial scores, until k passages are held and the
    bounds of the terms not yet visited sum to less than the threshold, the
    k-th partial score less a relative margin: from then on no passage not
    held can reach the top k. Each remaining term only updates the passages
    held, the threshold follows their k-th partial score, and a passage is
    dropped once its partial score plus the bounds still to come is below
    the threshold. The survivors are rescored exactly, sorted by score
    descending and passage id, and cut at k.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    postings = index.postings
    tokens = [term for term in tokenize(query.text) if term in postings]
    terms = sorted(
        ((m * _term_impacts(index, term)[1], term, m) for term, m in Counter(tokens).items()),
        key=lambda bound_term_m: bound_term_m[0],
        reverse=True,
    )
    # rests[i]: the sum of the bounds of the terms after terms[i].
    rests = [0.0] * len(terms)
    for i in range(len(terms) - 1, 0, -1):
        rests[i - 1] = rests[i] + terms[i][0]

    partial: dict[str, float] = {}
    get = partial.get
    admitting = True
    for (_, term, m), rest in zip(terms, rests):
        if admitting:
            impacts = _term_impacts(index, term)[0]
            if m > 1:
                impacts = [m * impact for impact in impacts]
            for pid, impact in zip(postings[term], impacts):
                partial[pid] = get(pid, 0.0) + impact
            if len(partial) < k:
                continue
        else:
            _add_impacts(index, term, m, partial)
        # The k passages with the largest partial scores are never dropped,
        # so the threshold only rises.
        threshold = heapq.nlargest(k, partial.values())[-1] * _PRUNE_MARGIN
        if rest < threshold:
            admitting = False
            partial = {pid: s for pid, s in partial.items() if s + rest >= threshold}

    exact = dict.fromkeys(partial, 0.0)
    for term in tokens:
        _add_impacts(index, term, 1, exact)
    scores = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))
    return RankedList(query.id, tuple(scores[:k]))


def estimate_corpus_lm(index: InvertedIndex) -> CorpusLanguageModel:
    """Add-one smoothed corpus language model from index statistics."""
    return CorpusLanguageModel(index.collection_frequency)


def corpus_lm(passages: Iterable[Passage]) -> CorpusLanguageModel:
    """The model `estimate_corpus_lm(build_index(passages))` returns, counted
    from the passages' tokens without building postings. Passage ids are
    not read, so pass each passage once (as `load_corpus` does)."""
    counts: Counter[str] = Counter()
    for passage in passages:
        counts.update(tokenize(passage.text))
    return CorpusLanguageModel(counts)


def fuse_runs(dense: RankedList, sparse: RankedList, alpha: float) -> RankedList:
    """Linear fusion over the union of both lists: dense + alpha * sparse.

    A passage missing from one list takes that list's minimum score
    (0.0 when the list is empty), so an unseen passage never outranks a
    seen one. Output sorted by fused score descending, ties by passage id.
    """
    if not math.isfinite(alpha) or alpha < 0:
        raise ValidationError(f"fusion alpha must be finite and >= 0, got {alpha!r}")
    if dense.query_id != sparse.query_id:
        raise ValidationError(
            f"query id mismatch: dense {dense.query_id!r} vs sparse {sparse.query_id!r}"
        )
    dense_scores = dict(dense.entries)
    sparse_scores = dict(sparse.entries)
    dense_fill = min(dense_scores.values()) if dense_scores else 0.0
    sparse_fill = min(sparse_scores.values()) if sparse_scores else 0.0
    fused = [
        (pid, dense_scores.get(pid, dense_fill) + alpha * sparse_scores.get(pid, sparse_fill))
        for pid in set(dense_scores) | set(sparse_scores)
    ]
    fused.sort(key=lambda e: (-e[1], e[0]))
    return RankedList(dense.query_id, tuple(fused))


# No command reads or writes the artifact; bench/traced_pipeline.py still times both calls.
def save_index(index: InvertedIndex, out: TextIO) -> None:
    """Persist an index as a magic header line followed by one JSON payload."""
    payload = {
        "postings": {t: list(tfs.items()) for t, tfs in index.postings.items()},
        "doc_lengths": index.doc_lengths,
    }
    # json.dumps runs the C encoder; json.dump would run the pure-Python one.
    out.write(INDEX_MAGIC + "\n" + json.dumps(payload, separators=(",", ":")) + "\n")


def load_index(stream: TextIO) -> InvertedIndex:
    """Read an artifact written by `save_index`. A term without postings or
    with a passage twice, a posting for a passage without a length, a tf or
    a length that is not an integer, a tf below 1, a negative length, a
    passage id holding a lone surrogate, or a passage whose tfs do not sum
    to its length is a ParseError."""
    header = stream.readline().rstrip("\n")
    if header != INDEX_MAGIC:
        raise ParseError(
            f"not an augrank index artifact (expected {INDEX_MAGIC!r} header, got {header!r}); "
            "write it again with `save_index`"
        )
    try:
        payload = json.load(stream)
        doc_lengths = payload["doc_lengths"]
        token_counts = dict.fromkeys(doc_lengths.keys(), 0)
        pairs = {t: [(pid, tf) for pid, tf in plist] for t, plist in payload["postings"].items()}
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"corrupt index payload: {exc}") from None
    for pid, length in doc_lengths.items():
        if type(length) is not int or length < 0:
            raise ParseError(f"corrupt index payload: passage {pid!r} has length {length!r}")
        if _holds_lone_surrogate(pid):
            raise ParseError(f"corrupt index payload: passage {pid!r} holds a lone surrogate")
    for term, plist in pairs.items():
        for pid, tf in plist:
            if not isinstance(pid, str) or pid not in token_counts:
                raise ParseError(f"corrupt index payload: {term!r} has unknown passage {pid!r}")
            if type(tf) is not int or tf < 1:
                raise ParseError(f"corrupt index payload: {term!r} has tf {tf!r} in {pid!r}")
            token_counts[pid] += tf
        if not plist or len({pid for pid, _ in plist}) < len(plist):
            raise ParseError(f"corrupt index payload: {term!r} has no postings or a passage twice")
    for pid, count in token_counts.items():
        if doc_lengths[pid] != count:
            raise ParseError(
                f"corrupt index payload: passage {pid!r} has length {doc_lengths[pid]!r} "
                f"but its postings hold {count} tokens"
            )
    return InvertedIndex({t: dict(plist) for t, plist in pairs.items()}, doc_lengths)
