"""Brute-force reference implementations used to cross-check the library.

Everything here is coded straight from the definitions with plain loops
and counting, deliberately avoiding the library's own code paths, so a
bug in the implementation cannot hide in its oracle. There are two groups
of exceptions, each the library's earlier version of a function, kept to
pin a faster rewrite:

- Bit for bit: `bm25_score`, which scored one passage against an index;
  `bm25_search_oracle`, the uncached `bm25_search`; and
  `lexical_baseline_scores_oracle`, the lexical re-ranker that built an
  index over each query's inputs and called `bm25_score` per candidate.
  All three share the per-posting arithmetic, `_tf_weight`, which lives
  here: the library writes BM25's tf weight once, in
  `augrank.index._term_impacts`, with each passage's length norm read
  from a table, and must give the same floats.
- Record for record and error for error: `parse_run_oracle`,
  `parse_record_oracle` and `ranked_list_oracle`, the record layer's
  readers and `RankedList`'s check as they checked every line and every
  entry on its own. The library checks a valid file or
  list in bulk and must return the same records, or raise the same
  exception with the same message at the same line.
"""

import json
import math
from collections import defaultdict

from augrank.corpus_io import (
    _FIELD_TYPES,
    _JSON_TYPE_NAMES,
    Passage,
    RankedList,
    _holds_lone_surrogate,
    _iter_lines,
    plain_number,
)
from augrank.errors import ConflictError, ParseError, UnknownIdError, ValidationError
from augrank.index import BM25_B, BM25_K1, _idf, build_index, tokenize


def _tf_weight(index, tf, doc_length):
    """BM25's tf weight as one formula."""
    norm = 1.0 - BM25_B + BM25_B * doc_length / index.avg_doc_length
    return tf * (BM25_K1 + 1.0) / (tf + BM25_K1 * norm)


def bm25_oracle(doc_tokens, query_tokens, passage_id, k1=0.9, b=0.4):
    """BM25 over a {pid: [token, ...]} collection by direct formula."""
    n_docs = len(doc_tokens)
    avgdl = sum(len(toks) for toks in doc_tokens.values()) / n_docs
    mine = doc_tokens[passage_id]
    score = 0.0
    for term in query_tokens:
        tf = mine.count(term)
        if tf == 0:
            continue
        df = sum(1 for toks in doc_tokens.values() if term in toks)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        norm = 1.0 - b + b * len(mine) / avgdl
        score += idf * tf * (k1 + 1.0) / (tf + k1 * norm)
    return score


def bm25_score(index, query_terms, passage_id):
    """BM25 score of one passage for a query token stream.

    Sums over the stream as given, so repeated query terms contribute
    repeatedly. Terms absent from the passage contribute 0.
    """
    if passage_id not in index.doc_lengths:
        raise UnknownIdError(f"passage {passage_id!r} not in index")
    doc_length = index.doc_lengths[passage_id]
    score = 0.0
    for term in query_terms:
        tf = index.postings.get(term, {}).get(passage_id, 0)
        if tf:
            score += _idf(index, term) * _tf_weight(index, tf, doc_length)
    return score


def bm25_search_oracle(index, query, k):
    """Top-k by BM25 with defaultdict accumulation and a full sort."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    scores = defaultdict(float)
    for term in tokenize(query.text):
        postings = index.postings.get(term)
        if not postings:
            continue
        idf = _idf(index, term)
        for pid, tf in postings.items():
            scores[pid] += idf * _tf_weight(index, tf, index.doc_lengths[pid])
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return RankedList(query.id, tuple(ranked))


def lexical_baseline_scores_oracle(inputs):
    """Lexical re-ranker scores, each query id's inputs on their own: via an
    index over that query's distinct passages (the first document seen for
    an id wins) and `bm25_score`."""
    scores = [None] * len(inputs)
    for query_id in {item.query_id for item in inputs}:
        positions = [i for i, item in enumerate(inputs) if item.query_id == query_id]
        documents = {}
        for i in positions:
            if inputs[i].passage_id not in documents:
                documents[inputs[i].passage_id] = Passage(
                    inputs[i].passage_id, None, inputs[i].document
                )
        batch_index = build_index(list(documents.values()))
        for i in positions:
            item = inputs[i]
            terms = tokenize(item.query)
            if item.description is not None:
                terms += tokenize(item.description)
            raw = bm25_score(batch_index, terms, item.passage_id)
            scores[i] = raw / (raw + 1.0)
    return scores


def kl_weights_oracle(snippet_token_lists, corpus_token_lists):
    """{term: P(t|A) * log2(P(t|A)/P(t|C))} with add-one smoothed P(t|C)."""
    corpus_tokens = [t for toks in corpus_token_lists for t in toks]
    total = len(corpus_tokens)
    vocab = len(set(corpus_tokens))
    snippet_tokens = [t for toks in snippet_token_lists for t in toks]
    size = len(snippet_tokens)
    weights = {}
    for term in set(snippet_tokens):
        p_a = snippet_tokens.count(term) / size
        p_c = (corpus_tokens.count(term) + 1) / (total + vocab)
        weights[term] = p_a * math.log2(p_a / p_c)
    return weights


def success_oracle(ranked_pids, judged, k, threshold=1):
    return 1.0 if any(judged.get(pid, 0) >= threshold for pid in ranked_pids[:k]) else 0.0


def mrr_oracle(ranked_pids, judged, k, threshold=1):
    for rank, pid in enumerate(ranked_pids[:k], start=1):
        if judged.get(pid, 0) >= threshold:
            return 1.0 / rank
    return 0.0


def ndcg_oracle(ranked_pids, judged, k):
    # Each gain is added left to right from 0.0, as on Python 3.11 and
    # earlier; the builtin `sum` of floats is compensated from 3.12 on.
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = 0.0
    for i, g in enumerate(ideal):
        idcg += g / math.log2(i + 2)
    if idcg == 0:
        return 0.0
    dcg = 0.0
    for i, pid in enumerate(ranked_pids[:k]):
        dcg += judged.get(pid, 0) / math.log2(i + 2)
    return dcg / idcg


def ap_oracle(ranked_pids, judged, threshold=1):
    total_relevant = sum(1 for g in judged.values() if g >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = 0
    acc = 0.0
    for rank, pid in enumerate(ranked_pids, start=1):
        if judged.get(pid, 0) >= threshold:
            hits += 1
            acc += hits / rank
    return acc / total_relevant


def t_two_tailed_p_oracle(t, df):
    """High-precision two-tailed Student-t p-value via mpmath."""
    import mpmath

    with mpmath.workdps(50):
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


def ranked_list_oracle(query_id, entries):
    """`RankedList(query_id, entries)`, checking entry by entry: the first
    NaN score, score above the one before it, or repeated passage id
    raises."""
    seen = set()
    prev = math.inf
    for pid, score in entries:
        if math.isnan(score):
            raise ValidationError(f"NaN score for passage {pid!r} in query {query_id!r}")
        if score > prev:
            raise ValidationError(f"entries not sorted by descending score in query {query_id!r}")
        prev = score
        if pid in seen:
            raise ConflictError(f"duplicate passage {pid!r} in query {query_id!r}")
        seen.add(pid)
    return RankedList(query_id, entries)


def parse_run_oracle(stream, passages=None):
    """`parse_run`, every check made on each line in turn, each query's rows
    sorted by the key (-score, rank)."""
    groups = {}
    seen = {}
    for line_no, line in _iter_lines(stream):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}: {line!r}", line_no)
        qid, _, docid, rank_str, score_str, _ = parts
        try:
            rank = plain_number(int, rank_str)
        except ValueError:
            raise ParseError(f"non-integer rank {rank_str!r}", line_no) from None
        try:
            score = plain_number(float, score_str)
        except ValueError:
            raise ParseError(f"non-numeric score {score_str!r}", line_no) from None
        if not math.isfinite(score):
            raise ParseError(f"NaN or infinite score {score_str!r} for docid {docid!r}", line_no)
        if docid in seen.setdefault(qid, set()):
            raise ConflictError(f"duplicate docid {docid!r} for query {qid!r}", line_no)
        seen[qid].add(docid)
        if passages is not None and docid not in passages:
            raise ParseError(f"passage {docid!r} of query {qid!r} is not in the corpus", line_no)
        groups.setdefault(qid, []).append((docid, rank, score))
    lists = []
    for qid, rows in groups.items():
        rows.sort(key=lambda r: (-r[2], r[1]))
        lists.append(ranked_list_oracle(qid, tuple((docid, score) for docid, _, score in rows)))
    return lists


def parse_record_oracle(line, line_no, fields):
    """`_parse_record` by `json.loads` of the whole line, then each named
    field's type and surrogate check in turn."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON record: {exc}", line_no) from None
    if not isinstance(record, dict):
        raise ParseError("record is not a JSON object", line_no)
    for key in fields:
        value = record.get(key)
        if type(value) not in _FIELD_TYPES[key]:
            if key not in record:
                raise ParseError(f"missing field {key!r}", line_no)
            expected = " or ".join(_JSON_TYPE_NAMES[t] for t in _FIELD_TYPES[key])
            raise ParseError(
                f"field {key!r} must be {expected}, got {json.dumps(value)}", line_no
            )
        if type(value) is str and _holds_lone_surrogate(value):
            raise ParseError(f"field {key!r} holds a lone surrogate", line_no)
    return record
