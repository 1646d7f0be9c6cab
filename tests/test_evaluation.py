import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from augrank.cli import ExperimentConfig
from augrank.corpus_io import RankedList, parse_qrels
from augrank.errors import ConflictError, ValidationError
from augrank.evaluation import (
    MetricReport,
    average_precision,
    compare_runs,
    evaluate_run,
    metric_tokens,
    mrr_at_k,
    ndcg_at_k,
    paired_t_test,
    regularized_incomplete_beta,
    resolve_map_threshold,
    student_t_two_tailed_p,
    success_at_k,
)
from oracles import (
    ap_oracle,
    mrr_oracle,
    ndcg_oracle,
    success_oracle,
    t_two_tailed_p_oracle,
)
from pinned_sums import MEAN_VALUES, NDCG_GRADES, PINNED, T_BASELINE, T_TREATMENT, computed


METRICS = ExperimentConfig.metrics


def ranked(*pids, qid="q1"):
    n = len(pids)
    return RankedList(qid, tuple((pid, float(n - i)) for i, pid in enumerate(pids)))


def judged(qid="q1", **grades):
    return {qid: grades}


@st.composite
def judged_runs(draw):
    """(run, qrels): up to five judged queries, graded 0-3 or binary 0-1,
    each ranking a prefix of a shuffled passage pool, so it may hold
    unjudged passages and miss judged ones, plus one unjudged query at
    any place in the run."""
    grade = st.integers(0, draw(st.sampled_from([1, 3])))
    qrels, lists = {}, []
    for i in range(draw(st.integers(1, 5))):
        pool = [f"d{j}" for j in range(draw(st.integers(1, 15)))]
        judged_pids = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        qrels[f"q{i}"] = {pid: draw(grade) for pid in judged_pids}
        ranking = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
        lists.append(ranked(*ranking, qid=f"q{i}"))
    lists.insert(draw(st.integers(0, len(lists))), ranked("d0", "d1", qid="unjudged"))
    return lists, qrels


class TestSuccessAtK:
    def test_relevant_at_rank_one(self):
        assert success_at_k(ranked("rel", "x"), judged(rel=1), 1) == 1.0

    def test_no_relevant_anywhere(self):
        assert success_at_k(ranked("a", "b"), judged(rel=1), 10) == 0.0

    def test_relevant_at_rank_seven(self):
        pids = ["a", "b", "c", "d", "e", "f", "rel", "g"]
        run = ranked(*pids)
        qrels = judged(rel=1)
        assert success_at_k(run, qrels, 5) == 0.0
        assert success_at_k(run, qrels, 10) == 1.0

    def test_unjudged_query_signals_none(self):
        assert success_at_k(ranked("a", qid="other"), judged(rel=1), 5) is None

    def test_grade_zero_is_not_relevant(self):
        assert success_at_k(ranked("zero", "rel"), judged(zero=0, rel=1), 1) == 0.0
        assert success_at_k(ranked("zero", "rel"), judged(zero=0, rel=1), 2) == 1.0


class TestMrrAtK:
    def test_first_relevant_at_rank_three(self):
        assert mrr_at_k(ranked("a", "b", "rel"), judged(rel=1), 10) == pytest.approx(1 / 3)

    def test_relevant_beyond_cutoff(self):
        pids = [f"d{i}" for i in range(10)] + ["rel"]
        assert mrr_at_k(ranked(*pids), judged(rel=1), 10) == 0.0

    def test_five_query_mean_matches_oracle(self):
        rng = random.Random(3)
        total = 0.0
        values = []
        for i in range(5):
            pids = [f"d{j}" for j in range(8)]
            rng.shuffle(pids)
            qrels = judged(qid=f"q{i}", d3=1)
            run = ranked(*pids, qid=f"q{i}")
            value = mrr_at_k(run, qrels, 10)
            values.append(value)
            total += mrr_oracle(pids, {"d3": 1}, 10)
        assert sum(values) / 5 == pytest.approx(total / 5, abs=1e-12)


class TestNdcgAtK:
    def test_perfect_ordering_is_one(self):
        qrels = judged(a=3, b=2, c=1)
        assert ndcg_at_k(ranked("a", "b", "c"), qrels, 10) == pytest.approx(1.0)

    def test_hand_evaluated_fixture(self):
        # ranked grades [3, 0, 1]: DCG = 3 + 0 + 1/2, IDCG = 3 + 1/log2(3)
        qrels = judged(a=3, b=0, c=1)
        expected = 3.5 / (3 + 1 / math.log2(3))
        assert ndcg_at_k(ranked("a", "b", "c"), qrels, 10) == pytest.approx(expected, abs=1e-12)
        assert ndcg_at_k(ranked("a", "b", "c"), qrels, 10) == pytest.approx(0.9639, abs=1e-4)

    def test_all_grades_zero(self):
        qrels = judged(a=0, b=0)
        assert ndcg_at_k(ranked("a", "b"), qrels, 10) == 0.0

    def test_ideal_includes_unretrieved_judgments(self):
        # the judged-but-missed grade-3 doc caps attainable nDCG below 1
        qrels = judged(kept=1, missed=3)
        value = ndcg_at_k(ranked("kept"), qrels, 10)
        assert value == pytest.approx(1 / (3 + 1 / math.log2(3)))


class TestAveragePrecision:
    def test_relevant_at_one_and_three(self):
        qrels = judged(a=1, c=1)
        value = average_precision(ranked("a", "b", "c"), qrels, 1)
        assert value == pytest.approx((1.0 + 2 / 3) / 2)

    def test_single_relevant_at_rank_one(self):
        assert average_precision(ranked("a", "b"), judged(a=1), 1) == 1.0

    def test_no_relevant_judged(self):
        assert average_precision(ranked("a"), judged(a=0), 1) == 0.0

    def test_unretrieved_relevant_counts_in_denominator(self):
        qrels = judged(a=1, gone=1)
        assert average_precision(ranked("a"), qrels, 1) == pytest.approx(0.5)


class TestGuards:
    """The refusals and the unjudged result of each metric called on its
    own, and the edges of the t-test's special functions; `evaluate_run`
    and `paired_t_test` never reach them."""

    CUTOFF_METRICS = [success_at_k, mrr_at_k, ndcg_at_k]

    @pytest.mark.parametrize("metric", CUTOFF_METRICS)
    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_is_refused(self, metric, k):
        with pytest.raises(ValidationError, match=f"^k must be >= 1, got {k}$"):
            metric(ranked("d1"), judged(d1=1), k)

    @pytest.mark.parametrize("metric", CUTOFF_METRICS)
    def test_unjudged_query_is_none_at_any_cutoff(self, metric):
        assert metric(ranked("d1", qid="q2"), judged(d1=1), 1) is None

    def test_unjudged_query_has_no_average_precision(self):
        assert average_precision(ranked("d1", qid="q2"), judged(d1=1), 1) is None

    @pytest.mark.parametrize("x", [-0.1, 1.1, -math.inf, math.nan])
    def test_incomplete_beta_refuses_x_outside_the_unit_interval(self, x):
        with pytest.raises(ValidationError, match="^x must be in \\[0, 1\\]"):
            regularized_incomplete_beta(2.0, 0.5, x)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_incomplete_beta_at_the_ends_is_x(self, x):
        assert regularized_incomplete_beta(2.0, 0.5, x) == x

    @pytest.mark.parametrize("df", [0, -3])
    def test_t_p_value_needs_a_degree_of_freedom(self, df):
        with pytest.raises(ValidationError, match=f"^degrees of freedom must be >= 1, got {df}$"):
            student_t_two_tailed_p(1.0, df)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_has_p_zero(self, t):
        assert student_t_two_tailed_p(t, 3) == 0.0


class TestEvaluateRun:
    def test_perfect_single_query(self):
        qrels = judged(a=1)
        report = evaluate_run([ranked("a")], qrels, METRICS)
        assert all(v == 1.0 for v in report.aggregate.values())
        assert report.query_count == 1

    def test_mean_of_two_queries(self):
        qrels = parse_qrels("q1 0 hit 1\nq2 0 hit 1\n")
        lists = [ranked("hit", "x", qid="q1"), ranked("x", "hit", qid="q2")]
        report = evaluate_run(lists, qrels, METRICS)
        assert report.aggregate["s@1"] == pytest.approx(0.5)

    def test_report_derives_means_in_token_order(self):
        report = MetricReport({"q2": {"map": 0.5, "s@1": 0.0}, "q1": {"map": 0.25, "s@1": 1.0}})
        assert list(report.aggregate.items()) == [("map", 0.375), ("s@1", 0.5)]
        assert report.query_count == 2
        assert report.unjudged_query_ids == ()

    def test_ten_query_fixture_matches_oracle(self):
        rng = random.Random(11)
        qrels = {}
        lists = []
        oracle_pq = {}
        for i in range(10):
            qid = f"q{i}"
            pids = [f"d{j}" for j in range(rng.randint(3, 12))]
            rng.shuffle(pids)
            grades = {pid: rng.choice([0, 0, 1, 2, 3]) for pid in pids[: rng.randint(1, 5)]}
            qrels[qid] = grades
            lists.append(ranked(*pids, qid=qid))
            oracle_pq[qid] = (pids, grades)
        cfg = METRICS
        report = evaluate_run(lists, qrels, cfg)
        map_threshold = resolve_map_threshold(qrels)
        for qid, (pids, grades) in oracle_pq.items():
            got = report.per_query[qid]
            for k in (1, 5, 10, 20):
                assert got[f"s@{k}"] == pytest.approx(success_oracle(pids, grades, k), abs=1e-10)
            assert got["mrr@10"] == pytest.approx(mrr_oracle(pids, grades, 10), abs=1e-10)
            assert got["ndcg@10"] == pytest.approx(ndcg_oracle(pids, grades, 10), abs=1e-10)
            assert got["map"] == pytest.approx(
                ap_oracle(pids, grades, map_threshold), abs=1e-10
            )

    @given(judged_runs())
    def test_every_per_query_value_matches_the_oracles(self, drawn):
        lists, qrels = drawn
        cfg = ("s@1", "s@5", "mrr@10", "ndcg@3", "ndcg@10", "map")
        report = evaluate_run(lists, qrels, cfg)
        top_grade = max(g for judged in qrels.values() for g in judged.values())
        map_threshold = 2 if top_grade >= 2 else 1
        assert resolve_map_threshold(qrels) == map_threshold
        assert report.unjudged_query_ids == ("unjudged",)
        assert set(report.per_query) == set(qrels)
        for run in lists:
            if run.query_id == "unjudged":
                continue
            pids, judged = [pid for pid, _ in run.entries], qrels[run.query_id]
            assert report.per_query[run.query_id] == pytest.approx({
                "s@1": success_oracle(pids, judged, 1),
                "s@5": success_oracle(pids, judged, 5),
                "mrr@10": mrr_oracle(pids, judged, 10),
                "ndcg@3": ndcg_oracle(pids, judged, 3),
                "ndcg@10": ndcg_oracle(pids, judged, 10),
                "map": ap_oracle(pids, judged, map_threshold),
            }, abs=1e-12)

    def test_unjudged_queries_flagged_not_averaged(self):
        qrels = judged(a=1)
        report = evaluate_run([ranked("a"), ranked("a", qid="mystery")], qrels, METRICS)
        assert report.unjudged_query_ids == ("mystery",)
        assert report.query_count == 1
        assert report.aggregate["s@1"] == 1.0

    def test_no_overlap_with_qrels_is_error(self):
        with pytest.raises(ValidationError):
            evaluate_run([ranked("a", qid="unknown")], judged(a=1), METRICS)

    def test_duplicate_query_in_run_is_conflict(self):
        qrels = judged(a=1)
        with pytest.raises(ConflictError):
            evaluate_run([ranked("a"), ranked("a")], qrels, METRICS)

    def test_aggregate_permutation_invariant(self):
        qrels = parse_qrels("q1 0 a 1\nq2 0 b 2\nq3 0 c 1\n")
        lists = [ranked("a", "b", qid="q1"), ranked("b", "a", qid="q2"), ranked("x", "c", qid="q3")]
        forward = evaluate_run(lists, qrels, METRICS).aggregate
        backward = evaluate_run(list(reversed(lists)), qrels, METRICS).aggregate
        assert forward == backward

    def test_metrics_monotone_in_k(self):
        rng = random.Random(23)
        for _ in range(20):
            pids = [f"d{j}" for j in range(10)]
            rng.shuffle(pids)
            grades = {pid: rng.choice([0, 1, 2]) for pid in pids[:4]}
            qrels = {"q1": grades}
            run = ranked(*pids)
            for metric in (success_at_k, mrr_at_k):
                values = [metric(run, qrels, k) for k in range(1, 12)]
                assert values == sorted(values)
            # with the trec-style ideal truncated at k, nDCG@k is only
            # monotone once k covers every judged document and the
            # denominator stops growing
            judged_count = len(grades)
            ndcgs = [ndcg_at_k(run, qrels, k) for k in range(judged_count, 12)]
            assert ndcgs == sorted(ndcgs)

    def test_graded_qrels_binarize_map_at_two(self):
        qrels = judged(strong=2, weak=1)
        cfg = METRICS
        report = evaluate_run([ranked("weak", "strong")], qrels, cfg)
        # only "strong" counts for MAP: AP = (1/2)/1
        assert report.aggregate["map"] == pytest.approx(0.5)
        # but success@1 uses the binary threshold of 1
        assert report.aggregate["s@1"] == 1.0


class TestMetricConfig:
    @given(
        st.lists(
            st.one_of(
                st.just(("map", None)),
                st.tuples(st.sampled_from(["s", "mrr", "ndcg"]), st.integers(1, 30)),
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        st.randoms(use_true_random=False),
    )
    def test_tokens_canonicalize_in_order_and_name_the_report(self, metrics, rng):
        raw, canonical = [], []
        for name, k in metrics:
            token = name if k is None else f"{name}@{'0' * rng.randint(0, 2)}{k}"
            raw.append("".join(c.upper() if rng.random() < 0.5 else c for c in token))
            canonical.append(name if k is None else f"{name}@{k}")
        tokens = metric_tokens(raw)
        assert tokens == tuple(canonical)
        assert metric_tokens(tokens) == tokens
        qrels = parse_qrels("q1 0 a 1\nq2 0 c 2\n")
        report = evaluate_run([ranked("a", "b"), ranked("b", "c", qid="q2")], qrels, raw)
        assert tuple(report.aggregate) == tokens
        assert all(tuple(values) == tokens for values in report.per_query.values())


class TestIncompleteBeta:
    def test_against_mpmath_grid(self):
        import mpmath

        for a, b in ((0.5, 0.5), (2.0, 0.5), (5.0, 1.5), (10.0, 0.5)):
            for x in (0.0, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0):
                expect = float(mpmath.betainc(a, b, 0, x, regularized=True))
                assert regularized_incomplete_beta(a, b, x) == pytest.approx(expect, abs=1e-12)

    def test_p_value_matches_oracle(self):
        for t in (0.0, 0.5, 1.96, 4.2426, 12.0):
            for df in (1, 2, 4, 30, 200):
                assert student_t_two_tailed_p(t, df) == pytest.approx(
                    t_two_tailed_p_oracle(t, df), abs=1e-12
                )

    # Seeded (t, df) draws and their p as float.hex. Large |t| evaluates the
    # continued fraction at (a, b), small |t| at (b, a).
    PINNED_P = [
        (0.8113, 533, "0x1.ab93ae5b0e292p-2"),
        (2.7947, 2000, "0x1.57b1a81509ef3p-8"),
        (0.8109, 212, "0x1.ac5f5b1ca67ecp-2"),
        (-0.2048, 5, "0x1.b10d46d9d3464p-1"),
        (1.003, 876, "0x1.43b9a2c10312ap-2"),
        (0.1428, 2, "0x1.cc8ffc04b6b5ap-1"),
        (-0.5873, 390, "0x1.1d5bf14222f7ep-1"),
        (2.1154, 3, "0x1.fee068da9e511p-4"),
        (0.2479, 1760, "0x1.9bc56fcf48264p-1"),
        (-10.6557, 2000, "0x1.8a7b771177be8p-84"),
        (3.525, 1478, "0x1.c99a4bdc661fbp-12"),
        (3.3281, 49, "0x1.b482f21c61656p-10"),
        (-0.6865, 1413, "0x1.f854ac38c4f4ep-2"),
        (-0.7496, 2, "0x1.10378b8a5da3fp-1"),
        (0.8136, 353, "0x1.aa6aae4765990p-2"),
        (0.679, 29, "0x1.014a7a8c6b026p-1"),
        (-1.0223, 112, "0x1.3c41141c1af4ap-2"),
        (10.5139, 29, "0x1.6fff92ab45f22p-36"),
        (0.5906, 527, "0x1.1c2e6b2937610p-1"),
        (6.7477, 1, "0x1.7fa64a4aa4454p-4"),
    ]

    @pytest.mark.parametrize("t, df, expected", PINNED_P)
    def test_p_value_bits_are_pinned(self, t, df, expected):
        # compare.tsv prints p as `:.6g`; a tolerance would not guard its bytes.
        assert float.hex(student_t_two_tailed_p(t, df)) == expected


class TestPairedTTest:
    def test_all_zero_differences(self):
        values = {f"q{i}": 0.3 for i in range(5)}
        result = paired_t_test(values, dict(values))
        assert result.p_value == 1.0
        assert result.t_statistic == 0.0
        assert result.marker == "none"

    def test_spec_fixture_one_to_five(self):
        baseline = {f"q{i}": 0.0 for i in range(1, 6)}
        treatment = {f"q{i}": float(i) for i in range(1, 6)}
        result = paired_t_test(baseline, treatment)
        assert result.t_statistic == pytest.approx(4.2426, abs=1e-4)
        assert result.degrees_of_freedom == 4
        assert result.p_value == pytest.approx(0.0132, abs=1e-4)
        assert result.p_value == pytest.approx(
            t_two_tailed_p_oracle(result.t_statistic, 4), abs=1e-12
        )
        assert result.marker == "p05"

    def test_constant_nonzero_shift(self):
        baseline = {f"q{i}": 0.5 for i in range(4)}
        treatment = {qid: v + 0.1 for qid, v in baseline.items()}
        result = paired_t_test(baseline, treatment)
        assert result.p_value == 0.0
        assert math.isinf(result.t_statistic) and result.t_statistic > 0
        assert result.marker == "p01"

    def test_matches_scipy_on_random_vectors(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(3, 40)
            baseline = {f"q{i}": rng.random() for i in range(n)}
            treatment = {f"q{i}": rng.random() for i in range(n)}
            result = paired_t_test(baseline, treatment)
            qids = sorted(baseline)
            t_ref, p_ref = stats.ttest_rel(
                [treatment[q] for q in qids], [baseline[q] for q in qids]
            )
            assert result.t_statistic == pytest.approx(t_ref, abs=1e-9)
            assert result.p_value == pytest.approx(p_ref, abs=1e-9)

    def test_antisymmetry(self):
        rng = random.Random(29)
        baseline = {f"q{i}": rng.random() for i in range(10)}
        treatment = {f"q{i}": rng.random() for i in range(10)}
        forward = paired_t_test(baseline, treatment)
        backward = paired_t_test(treatment, baseline)
        assert forward.t_statistic == -backward.t_statistic
        assert forward.p_value == backward.p_value

    def test_mismatched_keys(self):
        with pytest.raises(ValidationError):
            paired_t_test({"a": 1.0, "b": 2.0}, {"a": 1.0, "c": 2.0})

    def test_too_few_pairs(self):
        with pytest.raises(ValidationError):
            paired_t_test({"a": 1.0}, {"a": 2.0})

    def test_insignificant_case_has_no_marker(self):
        baseline = {"a": 0.5, "b": 0.4, "c": 0.6, "d": 0.5}
        treatment = {"a": 0.4, "b": 0.6, "c": 0.5, "d": 0.5}
        result = paired_t_test(baseline, treatment)
        assert result.p_value > 0.05
        assert result.marker == "none"


class TestCompareRuns:
    def reports(self, uplift=0.0, n=20, seed=31):
        rng = random.Random(seed)
        qrels = {}
        base_lists, treat_lists = [], []
        for i in range(n):
            qid = f"q{i}"
            qrels[qid] = {"rel": 1}
            noise = rng.random()
            base_lists.append(ranked("x", "rel", "y", qid=qid) if noise > uplift else ranked("rel", "x", qid=qid))
            treat_lists.append(ranked("rel", "x", qid=qid))
        return evaluate_run(base_lists, qrels, METRICS), evaluate_run(treat_lists, qrels, METRICS)

    def test_identical_reports_p_one(self):
        report, _ = self.reports()
        result = compare_runs(report, report, "s@1")
        assert result.p_value == 1.0

    def test_uplift_matches_scipy_oracle(self):
        base, treat = self.reports(uplift=0.6)
        result = compare_runs(base, treat, "mrr@10")
        qids = sorted(base.per_query)
        t_ref, p_ref = stats.ttest_rel(
            [treat.per_query[q]["mrr@10"] for q in qids],
            [base.per_query[q]["mrr@10"] for q in qids],
        )
        assert result.t_statistic == pytest.approx(t_ref, abs=1e-6)
        assert result.p_value == pytest.approx(p_ref, abs=1e-6)

    def test_disjoint_query_sets_error(self):
        base, treat = self.reports()
        renamed = {f"other_{qid}": v for qid, v in treat.per_query.items()}
        treat.per_query = renamed
        with pytest.raises(ValidationError):
            compare_runs(base, treat, "s@1")

    def test_missing_metric_error(self):
        base, treat = self.reports()
        with pytest.raises(ValidationError, match="recall@5"):
            compare_runs(base, treat, "recall@5")


class TestLeftToRightSums:
    """Each float sum adds left to right, so a metric or a t-test gives the
    same bits on every Python. Each input here is one on which a compensated
    sum (`math.fsum`, or the builtin `sum` from Python 3.12 on) rounds
    differently."""

    def test_report_mean(self):
        compensated = math.fsum(MEAN_VALUES) / len(MEAN_VALUES)
        assert computed()["mean"] == PINNED["mean"] != compensated.hex()

    def test_ndcg(self):
        ideal = sorted(NDCG_GRADES, reverse=True)
        compensated = (
            math.fsum(g / math.log2(rank + 1) for rank, g in enumerate(NDCG_GRADES, start=1))
            / math.fsum(g / math.log2(rank + 1) for rank, g in enumerate(ideal, start=1))
        )
        assert computed()["ndcg"] == PINNED["ndcg"] != compensated.hex()

    def test_paired_t_test(self):
        diffs = [t - b for b, t in zip(T_BASELINE, T_TREATMENT)]
        n = len(diffs)
        mean = math.fsum(diffs) / n
        t = mean / math.sqrt(math.fsum((d - mean) ** 2 for d in diffs) / (n - 1) / n)
        got = computed()
        assert got["t_mean_difference"] == PINNED["t_mean_difference"] != mean.hex()
        assert got["t_statistic"] == PINNED["t_statistic"] != t.hex()
