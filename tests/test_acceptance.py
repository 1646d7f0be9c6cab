"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -v -s for the full listing). Oracles are brute-force
reimplementations from tests/oracles.py plus scipy/mpmath."""

import json
import math
import random
import time
from collections import Counter

import pytest

from augrank.augment import (
    Expansion,
    ExpansionMode,
    natural_language_expansion,
    topical_term_expansion,
    topical_term_weights,
)
from augrank.cli import main
from augrank.corpus_io import Passage, Query, RankedList, Snippet, SnippetSource
from augrank.evaluation import (
    average_precision,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    success_at_k,
)
from augrank.index import (
    bm25_search,
    build_index,
    corpus_lm,
    fuse_runs,
    tokenize,
)
from augrank.rerank import build_augmented_input, build_input
from augrank.trainset import balance_upsample
from augrank.corpus_io import TrainingExample
from oracles import (
    ap_oracle,
    bm25_score,
    kl_weights_oracle,
    mrr_oracle,
    ndcg_oracle,
    success_oracle,
    t_two_tailed_p_oracle,
)

VOCAB = [f"term{i:02d}" for i in range(50)]


def _report(number, message):
    print(f"[criterion {number}] PASS - {message}")


def organic(qid, rank, text):
    return Snippet(qid, rank, False, text, SnippetSource.WEB_SERP)


def test_criterion_1_kl_weight_oracle_suite():
    """200 random snippet/corpus fixtures: w(t,A) matches brute force to 1e-12."""
    rng = random.Random(101)
    started = time.monotonic()
    checked = 0
    for _ in range(200):
        corpus_texts = [
            " ".join(rng.choices(VOCAB, k=rng.randint(1, 30)))
            for _ in range(rng.randint(1, 4))
        ]
        lm = corpus_lm(Passage(f"d{i}", None, t) for i, t in enumerate(corpus_texts))
        # snippets draw from the vocab plus out-of-corpus terms to exercise
        # the smoothed denominator
        snippet_vocab = VOCAB + ["novel1", "novel2", "novel3"]
        snippets = [
            organic("q", r + 1, " ".join(rng.choices(snippet_vocab, k=rng.randint(1, 25))))
            for r in range(rng.randint(1, 5))
        ]
        weights = topical_term_weights(snippets, lm)
        oracle = kl_weights_oracle(
            [tokenize(s.text) for s in snippets],
            [tokenize(t) for t in corpus_texts],
        )
        assert {term for term, _ in weights} == set(oracle)
        for term, weight in weights:
            assert math.isclose(weight, oracle[term], abs_tol=1e-12), term
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, f"{checked} term weights across 200 fixtures match the oracle "
               f"within 1e-12 in {elapsed:.2f}s")


def _random_eval_instance(rng):
    n_queries = rng.randint(1, 10)
    qrels = {}
    lists = []
    truth = {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        n_docs = rng.randint(1, 20)
        pids = [f"d{j}" for j in range(n_docs)]
        rng.shuffle(pids)
        judged = {}
        for pid in pids[: rng.randint(1, n_docs)]:
            judged[pid] = rng.choice([0, 0, 1, 1, 2, 3])
        qrels[qid] = judged
        scores = sorted((rng.random() for _ in pids), reverse=True)
        lists.append(RankedList(qid, tuple(zip(pids, scores))))
        truth[qid] = (pids, judged)
    return lists, qrels, truth


def test_criterion_2_metric_oracle_suite():
    """200 random (run, qrels) instances match brute-force metrics to 1e-10."""
    rng = random.Random(202)
    for _ in range(200):
        lists, qrels, truth = _random_eval_instance(rng)
        for ranked in lists:
            pids, judged = truth[ranked.query_id]
            for k in (1, 5, 10, 20):
                assert success_at_k(ranked, qrels, k) == pytest.approx(
                    success_oracle(pids, judged, k, 1), abs=1e-10)
                assert mrr_at_k(ranked, qrels, k) == pytest.approx(
                    mrr_oracle(pids, judged, k, 1), abs=1e-10)
                assert ndcg_at_k(ranked, qrels, k) == pytest.approx(
                    ndcg_oracle(pids, judged, k), abs=1e-10)
            for threshold in (1, 2):
                assert average_precision(ranked, qrels, threshold) == pytest.approx(
                    ap_oracle(pids, judged, threshold), abs=1e-10)

    # perfect rankings score exactly 1.0
    for trial in range(20):
        trial_rng = random.Random(300 + trial)
        grades = sorted(
            (trial_rng.choice([3, 2, 2, 1, 1, 0]) for _ in range(trial_rng.randint(2, 12))),
            reverse=True,
        )
        grades[0] = 3  # guarantee a graded-relevant doc
        qrels = {"q": {}}
        entries = []
        for j, grade in enumerate(grades):
            qrels["q"][f"d{j}"] = grade
            entries.append((f"d{j}", float(len(grades) - j)))
        perfect = RankedList("q", tuple(entries))
        k = len(grades)
        assert success_at_k(perfect, qrels, k) == 1.0
        assert mrr_at_k(perfect, qrels, k) == 1.0
        assert ndcg_at_k(perfect, qrels, k) == 1.0
        assert average_precision(perfect, qrels, 2) == 1.0

    # hand-derived nDCG fixture: ranked grades [3, 0, 1]
    qrels = {"q": {"a": 3, "b": 0, "c": 1}}
    fixture = RankedList("q", (("a", 3.0), ("b", 2.0), ("c", 1.0)))
    expected = 3.5 / (3.0 + 1.0 / math.log2(3))
    got = ndcg_at_k(fixture, qrels, 10)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(0.9639, abs=1e-4)
    _report(2, f"metrics match the oracle on 200 instances; perfect rankings "
               f"score 1.0; nDCG fixture = {got:.4f}")


def test_criterion_3_template_golden_suite():
    """The two sequence templates reproduce 10 golden strings byte-for-byte."""
    nl = ExpansionMode.NATURAL_LANGUAGE

    def exp(text, fallback=False):
        return Expansion("q", nl, text)

    plain_cases = [
        (Query("q", "who am i"), Passage("d", None, "a passage"),
         "Query: who am i Document: a passage Relevant:"),
        (Query("q", "what is bm25?"), Passage("d", None, "a scoring function."),
         "Query: what is bm25? Document: a scoring function. Relevant:"),
        (Query("q", ""), Passage("d", None, "doc only"),
         "Query:  Document: doc only Relevant:"),
        (Query("q", "Überraschung"), Passage("d", None, "crème brûlée"),
         "Query: Überraschung Document: crème brûlée Relevant:"),
        (Query("q", "multi word query"), Passage("d", None, "x"),
         "Query: multi word query Document: x Relevant:"),
    ]
    for query, passage, expected in plain_cases:
        assert build_input(query, passage).sequence == expected

    augmented_cases = [
        (Query("q", "who am i"), exp("some context"), Passage("d", None, "a passage"),
         "Query: who am i Description: some context Document: a passage Relevant:"),
        (Query("q", "q1"), exp("one two three"), Passage("d", None, "body text"),
         "Query: q1 Description: one two three Document: body text Relevant:"),
        (Query("q", "tail?"), exp("terms only"), Passage("d", None, "end."),
         "Query: tail? Description: terms only Document: end. Relevant:"),
        (Query("q", "x"), exp("ünïcode west"), Passage("d", None, "y"),
         "Query: x Description: ünïcode west Document: y Relevant:"),
    ]
    for query, expansion, passage, expected in augmented_cases:
        assert build_augmented_input(query, expansion, passage).sequence == expected

    # tenth golden: the empty-expansion fallback equals the plain template
    query, passage = Query("q", "who am i"), Passage("d", None, "a passage")
    fallback_sequence = build_augmented_input(query, exp("", fallback=True), passage).sequence
    assert fallback_sequence == "Query: who am i Document: a passage Relevant:"
    assert fallback_sequence == build_input(query, passage).sequence
    _report(3, "10 golden template fixtures byte-identical, fallback included")


def test_criterion_4_truncation_contract():
    """Random snippet sets: NL text <= 64 words, topical text <= 64 distinct terms."""
    rng = random.Random(404)
    max_words = max_terms = 64  # the pipeline's defaults
    lm = corpus_lm([Passage("d", None, " ".join(rng.choices(VOCAB, k=120)))])
    big_vocab = [f"w{i:03d}" for i in range(200)]
    for _ in range(300):
        snippets = [
            organic("q", r + 1, " ".join(rng.choices(big_vocab, k=rng.randint(5, 60))))
            for r in range(rng.randint(1, 5))
        ]
        nl_text = natural_language_expansion(snippets, max_words)
        assert len(nl_text.split()) <= 64
        term_text = topical_term_expansion(snippets, lm, max_terms)
        terms = term_text.split()
        assert len(terms) <= 64
        assert len(set(terms)) == len(terms)
    _report(4, "300 random snippet sets kept within 64 words / 64 distinct terms")


def test_criterion_5_paired_t_test_validation():
    """Known fixture, degenerate vectors, antisymmetry on 100 random pairs."""
    baseline = {f"q{i}": 0.0 for i in range(1, 6)}
    treatment = {f"q{i}": float(i) for i in range(1, 6)}
    result = paired_t_test(baseline, treatment)
    assert result.t_statistic == pytest.approx(4.2426, abs=1e-4)
    assert result.degrees_of_freedom == 4
    assert result.p_value == pytest.approx(0.0132, abs=1e-4)
    oracle_p = t_two_tailed_p_oracle(result.t_statistic, 4)
    assert result.p_value == pytest.approx(oracle_p, abs=1e-4)
    assert result.marker == "p05"

    zero = {f"q{i}": 0.25 for i in range(6)}
    degenerate = paired_t_test(zero, dict(zero))
    assert degenerate.p_value == 1.0
    assert degenerate.marker == "none"

    rng = random.Random(505)
    for _ in range(100):
        n = rng.randint(2, 30)
        a = {f"q{i}": rng.random() for i in range(n)}
        b = {f"q{i}": rng.random() for i in range(n)}
        forward = paired_t_test(a, b)
        backward = paired_t_test(b, a)
        assert forward.t_statistic == -backward.t_statistic
        assert forward.p_value == backward.p_value
    _report(5, f"t fixture = {result.t_statistic:.4f}, p = {result.p_value:.4f}; "
               f"antisymmetry held on 100 random pairs")


def test_criterion_6_bm25_search_oracle():
    """bm25_search equals exhaustive score-and-sort on 100 random corpora."""
    rng = random.Random(606)
    small_vocab = VOCAB[:12]
    for _ in range(100):
        passages = [
            Passage(f"d{i:02d}", None, " ".join(rng.choices(small_vocab, k=rng.randint(1, 18))))
            for i in range(rng.randint(1, 30))
        ]
        index = build_index(passages)
        query = Query("q", " ".join(rng.choices(small_vocab, k=rng.randint(1, 4))))
        terms = tokenize(query.text)
        scored = [(pid, bm25_score(index, terms, pid)) for pid in index.doc_lengths]
        exhaustive = sorted(
            [(pid, s) for pid, s in scored if s > 0], key=lambda kv: (-kv[1], kv[0])
        )
        for k in range(1, len(passages) + 2):
            assert bm25_search(index, query, k).entries == tuple(exhaustive[:k])

    # hand-computed fixture spelled out from the formula with k1=0.9, b=0.4
    passages = [
        Passage("d1", None, "apple pie recipe"),
        Passage("d2", None, "apple tart"),
        Passage("d3", None, "banana bread loaf pan"),
    ]
    index = build_index(passages)
    idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))
    avgdl = (3 + 2 + 4) / 3
    for pid, tf, length in (("d1", 1, 3), ("d2", 1, 2)):
        expected = idf * tf * (0.9 + 1.0) / (tf + 0.9 * (1 - 0.4 + 0.4 * length / avgdl))
        scores = dict(bm25_search(index, Query("q", "apple"), 10).entries)
        assert scores[pid] == pytest.approx(expected, abs=1e-9)
    result = bm25_search(index, Query("q", "apple"), 10)
    assert [pid for pid, _ in result.entries] == ["d2", "d1"]  # shorter matching doc wins
    _report(6, "search equals exhaustive scoring on 100 corpora at every k; "
               "hand fixture within 1e-9")


# --- criterion 7: constructed end-to-end uplift ---------------------------

N_QUERIES = 24
N_UNCACHED = 4


def _build_uplift_workspace(root):
    corpus, queries, qrels, snippets = [], [], [], []
    for i in range(N_QUERIES):
        qid = f"q{i:02d}"
        queries.append({"id": qid, "text": f"topic{i} angle{i}"})
        for j in range(1, 6):
            corpus.append(
                {"id": f"d{i:02d}x{j}", "text": f"topic{i} angle{i} generic filler item {j}"}
            )
        corpus.append(
            {
                "id": f"d{i:02d}rel",
                "text": f"topic{i} angle{i} marker{i} detail{i} clue{i} extra{i} trailing words",
            }
        )
        qrels.append(f"{qid} 0 d{i:02d}rel 1")
        if i < N_QUERIES - N_UNCACHED:  # leave some queries uncached
            for rank in (1, 2):
                snippets.append(
                    {
                        "query_id": qid,
                        "rank": rank,
                        "kind": "organic",
                        "text": f"marker{i} detail{i} clue{i} snippet text rank {rank}",
                        "source": "web_serp",
                    }
                )
    (root / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in corpus))
    (root / "queries.jsonl").write_text("".join(json.dumps(r) + "\n" for r in queries))
    (root / "qrels.txt").write_text("\n".join(qrels) + "\n")
    (root / "snippets.jsonl").write_text("".join(json.dumps(r) + "\n" for r in snippets))


def _pipeline_config(root, out_name, **extra):
    config = {
        "corpus": str(root / "corpus.jsonl"),
        "queries": str(root / "queries.jsonl"),
        "qrels": str(root / "qrels.txt"),
        "snippet_cache": str(root / "snippets.jsonl"),
        "output_dir": str(root / out_name),
        "mode": "none",
    }
    config.update(extra)
    path = root / f"{out_name}.json"
    path.write_text(json.dumps(config))
    return path


def _read_report(path):
    return dict(
        line.split("\t") for line in path.read_text().splitlines()
    )


def test_criterion_7_end_to_end_augmentation_uplift(tmp_path):
    """Both expansion modes lift S@1 by >= 0.3 over no augmentation with
    a significant paired t-test, inside 10 seconds."""
    started = time.monotonic()
    _build_uplift_workspace(tmp_path)

    baseline_cfg = _pipeline_config(tmp_path, "out_none")
    assert main(["pipeline", "run", "--config", str(baseline_cfg)]) == 0
    baseline_run = str(tmp_path / "out_none" / "reranked.run")
    baseline_s1 = float(_read_report(tmp_path / "out_none" / "metrics.tsv")["s@1"])

    uplifts = {}
    for mode in ("nl", "terms"):
        cfg = _pipeline_config(
            tmp_path, f"out_{mode}", mode=mode, baseline_run=baseline_run
        )
        assert main(["pipeline", "run", "--config", str(cfg)]) == 0
        s1 = float(_read_report(tmp_path / f"out_{mode}" / "metrics.tsv")["s@1"])
        uplifts[mode] = s1 - baseline_s1
        assert s1 >= baseline_s1 + 0.3, f"{mode}: S@1 {s1} vs baseline {baseline_s1}"

        compare_rows = (tmp_path / f"out_{mode}" / "compare.tsv").read_text().splitlines()
        header = compare_rows[0].split("\t")
        s1_row = next(r.split("\t") for r in compare_rows[1:] if r.startswith("s@1\t"))
        p_value = float(s1_row[header.index("p")])
        assert p_value <= 0.05, f"{mode}: p = {p_value}"

        # same verdict through the standalone compare command
        assert main([
            "compare",
            "--baseline", str(tmp_path / "out_none" / "per_query.tsv"),
            "--treatment", str(tmp_path / f"out_{mode}" / "per_query.tsv"),
            "--metric", "s@1",
            "--out", str(tmp_path / f"compare_{mode}.tsv"),
        ]) == 0
        standalone = (tmp_path / f"compare_{mode}.tsv").read_text().splitlines()[1].split("\t")
        assert float(standalone[3]) <= 0.05

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(7, f"S@1 uplift nl=+{uplifts['nl']:.4f}, terms=+{uplifts['terms']:.4f} "
               f"over {N_QUERIES} queries, p <= 0.05, in {elapsed:.2f}s")


def _examples(positives, negatives):
    examples = [
        TrainingExample(f"q{i}", f"d{i}", True) for i in range(positives)
    ]
    examples += [
        TrainingExample(f"q{positives + i}", f"d{positives + i}", False)
        for i in range(negatives)
    ]
    return tuple(examples)


def test_criterion_8_upsampling_contract():
    """(2 pos, 6 neg) -> multiplicities (3,3); (3 pos, 7 neg) -> (3,2,2)."""
    balanced = balance_upsample(_examples(2, 6))
    assert len(balanced) == 12
    multiplicities = Counter(e.query_id for e in balanced if e.relevant)
    assert sorted(multiplicities.values()) == [3, 3]

    balanced = balance_upsample(_examples(3, 7))
    assert len(balanced) == 14
    multiplicities = Counter(e.query_id for e in balanced if e.relevant)
    assert multiplicities == {"q0": 3, "q1": 2, "q2": 2}
    _report(8, "upsampling multiplicities (3,3) and (3,2,2) exact")


def test_criterion_9_fusion_contract():
    """alpha=0 preserves dense order on 100 random pairs; alpha=1.3 fixture."""
    rng = random.Random(909)
    for _ in range(100):
        pool = [f"d{i:02d}" for i in range(rng.randint(2, 20))]
        dense_pids = rng.sample(pool, rng.randint(1, len(pool)))
        sparse_pids = rng.sample(pool, rng.randint(1, len(pool)))
        dense = RankedList(
            "q",
            tuple(sorted(((p, rng.random()) for p in dense_pids), key=lambda e: -e[1])),
        )
        sparse = RankedList(
            "q",
            tuple(sorted(((p, rng.random()) for p in sparse_pids), key=lambda e: -e[1])),
        )
        fused = fuse_runs(dense, sparse, 0.0)
        dense_set = {pid for pid, _ in dense.entries}
        restricted = [pid for pid, _ in fused.entries if pid in dense_set]
        assert restricted == [pid for pid, _ in dense.entries]
        assert {pid for pid, _ in fused.entries} == dense_set | {pid for pid, _ in sparse.entries}

    dense = RankedList("q", (("d1", 1.0),))
    sparse = RankedList("q", (("d1", 2.0),))
    fused = fuse_runs(dense, sparse, 1.3)
    assert fused.entries[0][1] == pytest.approx(3.6, abs=1e-12)
    _report(9, "alpha=0 preserved dense order on 100 pairs; 1.0 + 1.3*2.0 = 3.6")
