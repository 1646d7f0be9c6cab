"""Brute-force reference implementations used to cross-check the library.

Everything here is coded straight from the definitions with plain loops
and counting, deliberately avoiding the library's own code paths, so a
bug in the implementation cannot hide in its oracle. There are three
exceptions, each the library's earlier version of a function, kept to pin
a faster rewrite bit for bit: `bm25_score`, which scored one passage
against an index; `bm25_search_oracle`, the uncached `bm25_search`; and
`lexical_baseline_scores_oracle`, the lexical re-ranker that built an
index over each query's inputs and called `bm25_score` per candidate.
All three share the per-posting arithmetic and differ in everything
around it.
"""

import math
from collections import defaultdict

from augrank.corpus_io import Passage, RankedList
from augrank.errors import UnknownIdError, ValidationError
from augrank.index import _idf, _tf_weight, build_index, tokenize


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
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    if idcg == 0:
        return 0.0
    dcg = sum(
        judged.get(pid, 0) / math.log2(i + 2) for i, pid in enumerate(ranked_pids[:k])
    )
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
