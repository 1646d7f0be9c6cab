"""Seeded synthetic experiment inputs for the benchmark.

Words come from a Zipf vocabulary of 30k pseudo-words (lowercase letters
only, so no text ever contains a template label such as `Document:`).
Passages have 60 words, queries 6 distinct words, every query has five
30-word organic web-SERP snippets and exactly one judged passage, which
contains all of its query's words. Runs (initial, dense, baseline) are
TREC 6-column files with strictly descending scores.

The same (workload, seed, sizes) always gives byte-identical files. Two
known seed defects are deliberately not exercised: no snippet is
punctuation-only (terms mode would abort) and every judged query has BM25
hits (the query would silently drop out of the means).
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
from dataclasses import dataclass

VOCAB_SIZE = 30_000
ZIPF_EXPONENT = 1.0
PASSAGE_WORDS = 60
QUERY_WORDS = 6
SNIPPETS_PER_QUERY = 5
SNIPPET_WORDS = 30
BASELINE_DEPTH = 20


@dataclass(frozen=True)
class Sizes:
    passages: int
    queries: int
    initial_depth: int = 0  # 0: no initial run, the pipeline searches BM25
    dense_depth: int = 0  # 0: no dense run to fuse


@dataclass
class Inputs:
    """The generated experiment, as written to disk.

    Run entries are (passage_id, score_text) in file order; score_text is
    the exact token written to the run file.
    """

    passages: list[tuple[str, str]]
    queries: list[tuple[str, str]]
    qrels: dict[str, str]
    snippets: dict[str, list[str]]
    initial: dict[str, list[tuple[str, str]]]
    dense: dict[str, list[tuple[str, str]]]
    baseline: dict[str, list[tuple[str, str]]]
    paths: dict[str, str]


def _vocabulary(rng: random.Random) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    seen: set[str] = set()
    words = []
    while len(words) < VOCAB_SIZE:
        word = "".join(rng.choices(letters, k=rng.randint(3, 9)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _ranked(rng: random.Random, pids: list[str], top: float) -> list[tuple[str, str]]:
    """Strictly descending scores: neighbours differ by at least top/(2n),
    so every 4-decimal score is distinct."""
    n = len(pids)
    return [(pid, f"{top * (n - r + rng.random() * 0.5) / n:.4f}") for r, pid in enumerate(pids)]


def _with_relevant(rng: random.Random, relevant: str, others: list[str], depth: int, include: bool) -> list[str]:
    pids = [p for p in others if p != relevant][: depth - 1 if include else depth]
    if include:
        pids.insert(rng.randrange(len(pids) + 1), relevant)
    return pids


def generate(workload: str, seed: int, sizes: Sizes, out_dir: str) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    vocab = _vocabulary(rng)
    cum: list[float] = list(itertools.accumulate(1.0 / (r ** ZIPF_EXPONENT) for r in range(1, VOCAB_SIZE + 1)))
    total = cum[-1]

    def zipf_words(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum, k=k)

    def distinct_zipf_words(k: int) -> list[str]:
        words: list[str] = []
        while len(words) < k:
            word = vocab[bisect.bisect_left(cum, rng.random() * total)]
            if word not in words:
                words.append(word)
        return words

    pids = [f"p{i:06d}" for i in range(sizes.passages)]
    flat = zipf_words(sizes.passages * PASSAGE_WORDS)
    texts = [flat[i * PASSAGE_WORDS : (i + 1) * PASSAGE_WORDS] for i in range(sizes.passages)]

    qids = [f"q{i:05d}" for i in range(sizes.queries)]
    relevant_idx = rng.sample(range(sizes.passages), sizes.queries)
    queries, qrels, snippets = [], {}, {}
    for qid, rel in zip(qids, relevant_idx):
        words = distinct_zipf_words(QUERY_WORDS)
        for pos, word in zip(rng.sample(range(PASSAGE_WORDS), QUERY_WORDS), words):
            texts[rel][pos] = word
        queries.append((qid, " ".join(words)))
        qrels[qid] = pids[rel]
    for (qid, query_text), rel in zip(queries, relevant_idx):
        qwords = query_text.split()
        snippet_texts = []
        for _ in range(SNIPPETS_PER_QUERY):
            words = rng.sample(qwords, 2) + rng.sample(texts[rel], 6) + zipf_words(SNIPPET_WORDS - 8)
            rng.shuffle(words)
            snippet_texts.append(" ".join(words))
        snippets[qid] = snippet_texts
    passages = [(pid, " ".join(words)) for pid, words in zip(pids, texts)]

    def candidates(qid: str, depth: int, include: bool, top: float) -> list[tuple[str, str]]:
        others = rng.sample(pids, min(depth + 1, len(pids)))
        return _ranked(rng, _with_relevant(rng, qrels[qid], others, depth, include), top)

    initial = {q: candidates(q, sizes.initial_depth, True, 30.0) for q in qids} if sizes.initial_depth else {}
    dense = {q: candidates(q, sizes.dense_depth, rng.random() < 0.7, 1.0) for q in qids} if sizes.dense_depth else {}
    baseline = {
        q: candidates(q, BASELINE_DEPTH, rng.random() < 0.6, 10.0) for q in qids
    }

    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def write(name: str, lines) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        paths[name] = path

    def jsonl(records) -> list[str]:
        return [json.dumps(r, ensure_ascii=False) + "\n" for r in records]

    def trec(run: dict[str, list[tuple[str, str]]], tag: str) -> list[str]:
        return [
            f"{qid} Q0 {pid} {rank} {score} {tag}\n"
            for qid, entries in run.items()
            for rank, (pid, score) in enumerate(entries, start=1)
        ]

    write("corpus.jsonl", jsonl({"id": pid, "text": text} for pid, text in passages))
    write("queries.jsonl", jsonl({"id": qid, "text": text} for qid, text in queries))
    write("qrels.txt", [f"{qid} 0 {pid} 1\n" for qid, pid in qrels.items()])
    write(
        "snippets.jsonl",
        jsonl(
            {"query_id": qid, "rank": rank, "kind": "organic", "text": text, "source": "web_serp"}
            for qid, texts_ in snippets.items()
            for rank, text in enumerate(texts_, start=1)
        ),
    )
    if initial:
        write("initial.run", trec(initial, "initial"))
    if dense:
        write("dense.run", trec(dense, "dense"))
    write("baseline.run", trec(baseline, "baseline"))
    return Inputs(passages, queries, qrels, snippets, initial, dense, baseline, paths)
