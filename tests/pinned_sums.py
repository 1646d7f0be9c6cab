"""Metric inputs on which adding floats left to right and a compensated sum
(the builtin `sum` of Python 3.12 and later, or `math.fsum`) round
differently, and the `float.hex` that augrank gives for each.

`test_evaluation.py` pins these values. To check another interpreter,
which may have no pytest, run this file with the standard library alone:

    PYTHONPATH=src python3 tests/pinned_sums.py

It prints each value and exits 1 if one differs from its pin.
"""

from __future__ import annotations

import sys

from augrank.corpus_io import RankedList
from augrank.evaluation import MetricReport, ndcg_at_k, paired_t_test

# MRR@10 of twelve queries (reciprocal ranks, 0 for no hit); the report's
# mean adds them in query-id order.
MEAN_VALUES = [1, 1 / 5, 0, 0, 0, 1 / 10, 1 / 8, 0, 1 / 6, 1 / 10, 1 / 3, 1 / 6]
# The grades of one query's ranks 1..10, each passage judged: nDCG@10.
NDCG_GRADES = [0, 0, 0, 3, 3, 1, 2, 2, 2, 3]
# Per-query MRR@10 of a baseline and a treatment run over nine queries.
T_BASELINE = [1 / 8, 1 / 5, 1 / 10, 1 / 8, 1 / 7, 1 / 8, 1 / 3, 1, 0]
T_TREATMENT = [1, 1 / 2, 1 / 2, 1 / 2, 1 / 8, 1 / 3, 1 / 4, 1 / 5, 1 / 9]

PINNED = {
    "mean": "0x1.760b60b60b60cp-3",
    "ndcg": "0x1.3a9e9c998ac13p-1",
    "t_mean_difference": "0x1.375a921ae8cb1p-3",
    "t_statistic": "0x1.00fea5b35375cp+0",
}


def _query_ids(n: int) -> list[str]:
    return [f"q{i:02d}" for i in range(n)]  # sorted as listed


def computed() -> dict[str, str]:
    """The `float.hex` of each pinned value, as this interpreter computes it."""
    report = MetricReport(
        {qid: {"mrr@10": float(v)} for qid, v in zip(_query_ids(len(MEAN_VALUES)), MEAN_VALUES)}
    )
    pids = [f"d{rank}" for rank in range(1, len(NDCG_GRADES) + 1)]
    ranked = RankedList("q", tuple((pid, float(-rank)) for rank, pid in enumerate(pids)))
    ndcg = ndcg_at_k(ranked, {"q": dict(zip(pids, NDCG_GRADES))}, len(pids))
    qids = _query_ids(len(T_BASELINE))
    result = paired_t_test(
        {q: float(v) for q, v in zip(qids, T_BASELINE)},
        {q: float(v) for q, v in zip(qids, T_TREATMENT)},
    )
    return {
        "mean": report.aggregate["mrr@10"].hex(),
        "ndcg": ndcg.hex(),
        "t_mean_difference": result.mean_difference.hex(),
        "t_statistic": result.t_statistic.hex(),
    }


if __name__ == "__main__":
    got = computed()
    print(sys.version.split()[0])
    for name, bits in got.items():
        print(f"{name}\t{bits}\t{'ok' if bits == PINNED[name] else 'pinned ' + PINNED[name]}")
    sys.exit(got != PINNED)
