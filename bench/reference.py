"""Reference artifacts for one generated experiment, computed without
importing augrank.

This restates the seed pipeline's arithmetic and formatting step by step
(BM25 with k1=0.9, b=0.4, linear fusion, NL and KL-term expansion, the two
scorer templates, the batch-local lexical baseline or the benchmark
scorer's crc32 score, Success/MRR/nDCG/MAP and the paired t-test with the
same continued fraction), so that a later, faster program must still write
byte-identical `expansions.jsonl`, `inputs.jsonl`, `reranked.run`,
`metrics.tsv`, `per_query.tsv` and `compare.tsv`. Floating-point
expressions keep the seed's operation order on purpose: reassociating any
of them changes last bits, and with them ties and rounding.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import zlib
from collections import Counter, defaultdict

from gen import Inputs

K1 = 0.9
B = 0.4
TAIL_STEP = 1e-6
METRICS = ("s@1", "s@5", "s@10", "s@20", "mrr@10", "ndcg@10", "map")
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    return [m.group(0).lower() for m in _TOKEN_RE.finditer(text)]


class Bm25Index:
    def __init__(self, docs: list[tuple[str, str]]):
        self.postings: dict[str, list[tuple[str, int]]] = defaultdict(list)
        self.tf: dict[str, Counter] = {}
        self.lengths: dict[str, int] = {}
        self.cf: Counter = Counter()
        for pid, text in docs:
            tokens = tokenize(text)
            self.lengths[pid] = len(tokens)
            counts = self.tf[pid] = Counter(tokens)
            for term, tf in counts.items():
                self.postings[term].append((pid, tf))
                self.cf[term] += tf
        self.total_tokens = sum(self.lengths.values())
        self.n = len(self.lengths)
        avg = self.total_tokens / self.n
        self.norm = {pid: 1.0 - B + B * length / avg for pid, length in self.lengths.items()}

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log(1.0 + (self.n - df + 0.5) / (df + 0.5))

    def weight(self, tf: int, pid: str) -> float:
        return tf * (K1 + 1.0) / (tf + K1 * self.norm[pid])

    def search(self, query: str, k: int) -> list[tuple[str, float]]:
        scores: defaultdict[str, float] = defaultdict(float)
        for term in tokenize(query):
            postings = self.postings.get(term)
            if not postings:
                continue
            idf = self.idf(term)
            for pid, tf in postings:
                scores[pid] += idf * self.weight(tf, pid)
        return heapq.nsmallest(k, scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def score(self, terms: list[str], pid: str) -> float:
        total = 0.0
        for term in terms:
            tf = self.tf[pid].get(term, 0)
            if tf:
                total += self.idf(term) * self.weight(tf, pid)
        return total


def parse_run(run: dict[str, list[tuple[str, str]]]) -> dict[str, list[tuple[str, float]]]:
    """Run entries as the pipeline reads them: score descending, ties by
    file rank."""
    parsed = {}
    for qid, entries in run.items():
        rows = [(pid, rank, float(score)) for rank, (pid, score) in enumerate(entries, start=1)]
        rows.sort(key=lambda r: (-r[2], r[1]))
        parsed[qid] = [(pid, score) for pid, _, score in rows]
    return parsed


def fuse(dense: list[tuple[str, float]], sparse: list[tuple[str, float]], alpha: float):
    d, s = dict(dense), dict(sparse)
    d_fill = min(d.values()) if d else 0.0
    s_fill = min(s.values()) if s else 0.0
    fused = [(pid, d.get(pid, d_fill) + alpha * s.get(pid, s_fill)) for pid in set(d) | set(s)]
    fused.sort(key=lambda e: (-e[1], e[0]))
    return fused


def nl_expansion(snippets: list[str], max_words: int) -> str:
    joined = " ".join(snippets)
    words = joined.split()
    return joined if len(words) <= max_words else " ".join(words[:max_words])


def kl_expansion(snippets: list[str], index: Bm25Index, max_terms: int) -> str:
    tokens = [t for s in snippets for t in tokenize(s)]
    total = len(tokens)
    denominator = index.total_tokens + len(index.cf)
    weights = []
    for term, count in Counter(tokens).items():
        p_a = count / total
        weights.append((-(p_a * math.log2(p_a / ((index.cf.get(term, 0) + 1) / denominator))), term))
    weights.sort()
    return " ".join(term for _, term in weights[:max_terms])


def render(query: str, expansion: str | None, document: str) -> str:
    if expansion:
        return f"Query: {query} Description: {expansion} Document: {document} Relevant:"
    return f"Query: {query} Document: {document} Relevant:"


def remote_score(sequence: str) -> float:
    return zlib.crc32(sequence.encode("utf-8")) / 0xFFFFFFFF


def lexical_scores(query: str, expansion: str | None, head: list[str], corpus: dict[str, str]):
    batch = Bm25Index([(pid, corpus[pid]) for pid in head])
    terms = tokenize(query if expansion is None else f"{query} {expansion}")
    scores = []
    for pid in head:
        raw = batch.score(terms, pid)
        scores.append(raw / (raw + 1.0))
    return scores


def query_metrics(ranking: list[str], relevant: str) -> dict[str, float]:
    values = {f"s@{k}": float(relevant in ranking[:k]) for k in (1, 5, 10, 20)}
    rank = ranking.index(relevant) + 1 if relevant in ranking else 0
    values["mrr@10"] = 1.0 / rank if 0 < rank <= 10 else 0.0
    values["ndcg@10"] = (1 / math.log2(rank + 1) if 0 < rank <= 10 else 0) / (1 / math.log2(2))
    values["map"] = 1 / rank if rank else 0.0
    return values


def evaluate(rankings: dict[str, list[str]], qrels: dict[str, str]) -> dict[str, dict[str, float]]:
    return {qid: query_metrics(ranking, qrels[qid]) for qid, ranking in rankings.items() if qid in qrels}


def _continued_fraction(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            d = tiny if abs(d) < tiny else d
            c = 1.0 + numerator / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def incomplete_beta(a: float, b: float, x: float) -> float:
    if x in (0.0, 1.0):
        return x
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _continued_fraction(a, b, x) / a
    return 1.0 - front * _continued_fraction(b, a, 1.0 - x) / b


def paired_t_test(baseline: dict[str, float], treatment: dict[str, float]):
    qids = sorted(baseline)
    n = len(qids)
    diffs = [treatment[q] - baseline[q] for q in qids]
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if variance == 0.0:
        t, p = (0.0, 1.0) if mean == 0.0 else (math.copysign(math.inf, mean), 0.0)
    else:
        t = mean / math.sqrt(variance / n)
        p = 0.0 if math.isinf(t) else min(max(incomplete_beta((n - 1) / 2.0, 0.5, (n - 1) / ((n - 1) + t * t)), 0.0), 1.0)
    marker = "p01" if p <= 0.01 else "p05" if p <= 0.05 else "none"
    return t, n - 1, p, mean, marker


def artifacts(inputs: Inputs, cfg: dict) -> tuple[dict[str, str], dict[str, str]]:
    """Expected artifact texts by file name, and the expected
    `reranked.run` lines of each query."""
    corpus = dict(inputs.passages)
    mode = cfg["mode"]
    depth = cfg["rerank_depth"]
    index = Bm25Index(inputs.passages) if "initial_run" not in cfg or mode == "terms" else None

    if "initial_run" in cfg:
        initial = parse_run(inputs.initial)
    else:
        initial = {qid: index.search(text, depth) for qid, text in inputs.queries}
        initial = {qid: ranked for qid, ranked in initial.items() if ranked}
    if "dense_run" in cfg:
        dense = parse_run(inputs.dense)
        initial = {
            qid: fuse(dense.get(qid, []), initial.get(qid, []), cfg.get("fusion_alpha", 1.3))
            for qid in sorted(set(dense) | set(initial))
        }

    texts: dict[str, str] = {}
    expansions: dict[str, str] = {}
    if mode != "none":
        for qid, _ in inputs.queries:
            snippets = inputs.snippets.get(qid, [])[: cfg.get("max_snippets", 5)]
            if mode == "nl":
                expansions[qid] = nl_expansion(snippets, cfg.get("max_words", 64)) if snippets else ""
            else:
                expansions[qid] = kl_expansion(snippets, index, cfg.get("max_terms", 64)) if snippets else ""
        mode_value = {"nl": "natural_language", "terms": "topical_terms"}[mode]
        texts["expansions.jsonl"] = "".join(
            json.dumps({"query_id": qid, "mode": mode_value, "text": expansions[qid]}, ensure_ascii=False) + "\n"
            for qid, _ in inputs.queries
        )

    input_lines: list[str] = []
    per_query: dict[str, str] = {}
    rankings: dict[str, list[str]] = {}
    remote = cfg.get("scorer") == "remote"
    for qid, query in inputs.queries:
        ranked = initial.get(qid)
        if not ranked:
            continue
        k = min(depth, len(ranked))
        head = [pid for pid, _ in ranked[:k]]
        expansion = expansions.get(qid) if mode != "none" else None
        sequences = [render(query, expansion, corpus[pid]) for pid in head]
        input_lines.extend(
            json.dumps({"query_id": qid, "passage_id": pid, "sequence": seq}, ensure_ascii=False) + "\n"
            for pid, seq in zip(head, sequences)
        )
        if remote:
            scores = [remote_score(seq) for seq in sequences]
        else:
            scores = lexical_scores(query, expansion or None, head, corpus)
        order = sorted(range(k), key=lambda i: (-scores[i], i))
        entries = [(head[i], scores[i]) for i in order]
        floor = entries[-1][1]
        entries += [(pid, floor - offset * TAIL_STEP) for offset, (pid, _) in enumerate(ranked[k:], start=1)]
        rankings[qid] = [pid for pid, _ in entries]
        per_query[qid] = "".join(
            f"{qid} Q0 {pid} {rank} {score:.4f} {cfg.get('run_tag', 'augrank')}\n"
            for rank, (pid, score) in enumerate(entries, start=1)
        )
    texts["inputs.jsonl"] = "".join(input_lines)
    texts["reranked.run"] = "".join(per_query.values())

    report = evaluate(rankings, inputs.qrels)
    judged = sorted(report)
    means = {m: sum(report[q][m] for q in judged) / len(judged) for m in METRICS}
    texts["metrics.tsv"] = (
        "".join(f"{m}\t{means[m]:.4f}\n" for m in METRICS)
        + f"queries\t{len(judged)}\nunjudged\t{len(rankings) - len(judged)}\n"
    )
    texts["per_query.tsv"] = "query_id\t" + "\t".join(METRICS) + "\n" + "".join(
        q + "\t" + "\t".join(f"{report[q][m]:.6f}" for m in METRICS) + "\n" for q in judged
    )
    if "baseline_run" in cfg:
        baseline = evaluate(
            {qid: [pid for pid, _ in ranked] for qid, ranked in parse_run(inputs.baseline).items()},
            inputs.qrels,
        )
        shared = set(baseline) & set(report)
        rows = ["metric\tt\tdf\tp\tmean_diff\tmarker\n"]
        for m in METRICS:
            t, df, p, mean, marker = paired_t_test(
                {q: baseline[q][m] for q in shared}, {q: report[q][m] for q in shared}
            )
            rows.append(f"{m}\t{t:.4f}\t{df}\t{p:.6g}\t{mean:.4f}\t{marker}\n")
        texts["compare.tsv"] = "".join(rows)
    return texts, per_query
