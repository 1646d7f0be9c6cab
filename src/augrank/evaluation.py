"""Ranking metrics (Success@k, MRR@k, nDCG@k, AP/MAP) and the two-tailed
paired t-test used to mark significance between runs.

Which metrics a report holds is a sequence of tokens `s@k`, `mrr@k`,
`ndcg@k` and `map`, which `metric_tokens` canonicalizes and checks, and
reported in the order given; any number of cutoffs of one metric may be
asked for. `evaluate_run` computes exactly those tokens. The default set
is `cli.ExperimentConfig.metrics`.

Judgments are the {query_id: {passage_id: grade}} mapping `parse_qrels`
returns; a passage that a query's grades lack counts as grade 0.

Conventions: nDCG uses linear gain grade/log2(rank+1) with the ideal DCG
computed from the query's judged grades sorted descending; Success and MRR
count grade >= 1 as relevant; AP binarizes at grade >= 2 for graded qrels
and at grade >= 1 for binary qrels. Per-query metrics return None for
queries absent from the qrels; aggregation excludes and reports those
instead of silently counting them as zeros. Aggregation sums in sorted
query-id order so floating-point results are reproducible.

The t-test p-value comes from the Student t distribution via the
regularized incomplete beta function I_x(df/2, 1/2) at x = df/(df + t^2),
evaluated with a Lentz-style continued fraction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from .corpus_io import Qrels, RankedList, Record, plain_number
from .errors import ConflictError, ValidationError


def metric_tokens(tokens: Iterable[str]) -> tuple[str, ...]:
    """The metrics to report, canonical and in the order given.

    A token is `s@k` (Success), `mrr@k`, `ndcg@k` or `map`, with k >= 1
    read by `plain_number`, as run ranks are. Tokens are canonicalized
    ("S@01" is "s@1") and blank ones dropped; a token may appear once, and
    one metric may be asked for at any number of cutoffs. A bare string is
    refused, not read as a sequence of one-character tokens.
    """
    if isinstance(tokens, str):
        raise ValidationError(f"expected a sequence of metric tokens, got the string {tokens!r}")
    canonical: list[str] = []
    for raw in tokens:
        token = raw.strip().lower()
        if not token:
            continue
        if token != "map":
            name, _, cutoff = token.partition("@")
            try:
                if name not in _CUTOFF_METRICS:
                    raise ValueError
                k = plain_number(int, cutoff)
            except ValueError:
                raise ValidationError(f"unknown metric token {raw!r}") from None
            if k < 1:
                raise ValidationError(f"metric token {raw!r}: cutoff must be >= 1")
            token = f"{name}@{k}"
        if token in canonical:
            raise ValidationError(f"duplicate metric token {raw!r}")
        canonical.append(token)
    if not canonical:
        raise ValidationError("no metrics requested")
    return tuple(canonical)


class MetricReport(Record):
    """Per-query metric values of one run's judged queries. The means
    (`aggregate`, in the rows' token order) and `query_count` are derived
    at construction; unjudged run queries are listed separately."""

    __slots__ = ("per_query", "unjudged_query_ids", "aggregate", "query_count")

    def __init__(
        self, per_query: dict[str, dict[str, float]], unjudged_query_ids: tuple[str, ...] = ()
    ):
        self.per_query = per_query
        self.unjudged_query_ids = unjudged_query_ids
        rows = [per_query[qid] for qid in sorted(per_query)]
        tokens = rows[0] if rows else ()
        self.aggregate = {t: sum(row[t] for row in rows) / len(rows) for t in tokens}
        self.query_count = len(rows)


class TTestResult(Record):
    __slots__ = ("t_statistic", "degrees_of_freedom", "p_value", "mean_difference", "marker")

    def __init__(
        self,
        t_statistic: float,
        degrees_of_freedom: int,
        p_value: float,
        mean_difference: float,
        marker: str,  # "p01", "p05" or "none", as compare.tsv prints it
    ):
        self.t_statistic = t_statistic
        self.degrees_of_freedom = degrees_of_freedom
        self.p_value = p_value
        self.mean_difference = mean_difference
        self.marker = marker


def success_at_k(ranked: RankedList, qrels: Qrels, k: int) -> float | None:
    """1.0 if any of the top-k passages has grade >= 1, else 0.0.

    Returns None (unjudged) when the query has no qrels entry at all.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if (judged := qrels.get(ranked.query_id)) is None:
        return None
    return 1.0 if any(judged.get(pid, 0) >= 1 for pid, _ in ranked.entries[:k]) else 0.0


def mrr_at_k(ranked: RankedList, qrels: Qrels, k: int) -> float | None:
    """Reciprocal rank of the first passage with grade >= 1 within the top
    k; 0.0 if there is none."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if (judged := qrels.get(ranked.query_id)) is None:
        return None
    for rank, (pid, _) in enumerate(ranked.entries[:k], start=1):
        if judged.get(pid, 0) >= 1:
            return 1.0 / rank
    return 0.0


def ndcg_at_k(ranked: RankedList, qrels: Qrels, k: int) -> float | None:
    """DCG@k / IDCG@k with linear gain grade/log2(rank+1).

    IDCG comes from all the query's judged grades sorted descending. 0.0
    when the query has no positively graded judgment.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if (judged := qrels.get(ranked.query_id)) is None:
        return None
    ideal = sorted(judged.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0.0:
        return 0.0
    dcg = sum(
        judged.get(pid, 0) / math.log2(rank + 1)
        for rank, (pid, _) in enumerate(ranked.entries[:k], start=1)
    )
    return dcg / idcg


def average_precision(ranked: RankedList, qrels: Qrels, threshold: int) -> float | None:
    """Mean of precision@i over the ranks i holding a relevant passage,
    normalized by the total number of judged-relevant passages R.

    0.0 when R = 0.
    """
    if (judged := qrels.get(ranked.query_id)) is None:
        return None
    total_relevant = sum(1 for g in judged.values() if g >= threshold)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, (pid, _) in enumerate(ranked.entries, start=1):
        if judged.get(pid, 0) >= threshold:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / total_relevant


_CUTOFF_METRICS = {"s": success_at_k, "mrr": mrr_at_k, "ndcg": ndcg_at_k}


def resolve_map_threshold(qrels: Qrels) -> int:
    """AP's relevance grade: 2 when any judgment is graded (max grade
    >= 2), else 1."""
    return 2 if any(g >= 2 for judged in qrels.values() for g in judged.values()) else 1


def _metric_value(token: str, ranked: RankedList, qrels: Qrels, map_threshold: int) -> float:
    """One judged query's value for a canonical metric token."""
    if token == "map":
        return average_precision(ranked, qrels, map_threshold)
    name, _, cutoff = token.partition("@")
    return _CUTOFF_METRICS[name](ranked, qrels, int(cutoff))


def evaluate_run(
    lists: Sequence[RankedList], qrels: Qrels, metrics: Iterable[str]
) -> MetricReport:
    """Per-query values and means over the judged queries of exactly the
    `metric_tokens` of `metrics`, in that order.

    Queries missing from the qrels are excluded from the means and reported
    in `unjudged_query_ids`. Raises when no run query is judged.
    """
    tokens = metric_tokens(metrics)
    seen: set[str] = set()
    for ranked in lists:
        if ranked.query_id in seen:
            raise ConflictError(f"run contains query {ranked.query_id!r} twice")
        seen.add(ranked.query_id)

    map_threshold = resolve_map_threshold(qrels)
    per_query: dict[str, dict[str, float]] = {}
    unjudged: list[str] = []
    for ranked in lists:
        if ranked.query_id not in qrels:
            unjudged.append(ranked.query_id)
            continue
        per_query[ranked.query_id] = {
            token: _metric_value(token, ranked, qrels, map_threshold) for token in tokens
        }
    if not per_query:
        raise ValidationError("no run query appears in the qrels")
    return MetricReport(per_query, tuple(unjudged))


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified
    Lentz's method)."""
    max_iterations = 300
    eps = 1e-15
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        # The even and the odd step of the fraction, each one Lentz update.
        for numerator in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + numerator * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + numerator / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_tailed_p(t: float, df: int) -> float:
    """Two-tailed p-value of a t statistic with df degrees of freedom."""
    if df < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return min(max(p, 0.0), 1.0)


def paired_t_test(
    baseline: Mapping[str, float], treatment: Mapping[str, float]
) -> TTestResult:
    """Two-tailed paired t-test over per-query values keyed by query id.

    Differences are treatment - baseline; the statistic uses the sample
    standard deviation (n-1 denominator). Zero-variance differences are
    decided directly: p=1.0 when all differences are zero, p=0.0 when all
    are the same nonzero value.
    """
    if set(baseline) != set(treatment):
        raise ValidationError("baseline and treatment must cover the same query set")
    n = len(baseline)
    if n < 2:
        raise ValidationError(f"paired t-test needs at least 2 queries, got {n}")
    qids = sorted(baseline)
    diffs = [treatment[qid] - baseline[qid] for qid in qids]
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if variance == 0.0:
        if mean == 0.0:
            t, p = 0.0, 1.0
        else:
            t, p = math.copysign(math.inf, mean), 0.0
    else:
        t = mean / math.sqrt(variance / n)
        p = student_t_two_tailed_p(t, df)
    marker = "p01" if p <= 0.01 else "p05" if p <= 0.05 else "none"
    return TTestResult(t, df, p, mean, marker)


def compare_runs(
    baseline_report: MetricReport, treatment_report: MetricReport, metric: str
) -> TTestResult:
    """Paired t-test over the shared queries' per-query values for one
    metric of two reports."""
    for report, name in ((baseline_report, "baseline"), (treatment_report, "treatment")):
        if metric not in report.aggregate:
            raise ValidationError(f"metric {metric!r} absent from the {name} report")
    shared = set(baseline_report.per_query) & set(treatment_report.per_query)
    if len(shared) < 2:
        raise ValidationError(
            f"reports share {len(shared)} queries; at least 2 are required"
        )
    baseline = {qid: baseline_report.per_query[qid][metric] for qid in shared}
    treatment = {qid: treatment_report.per_query[qid][metric] for qid in shared}
    return paired_t_test(baseline, treatment)
