"""Metric arithmetic, aggregation invariants, and baseline evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import evaluation as ev
from thrnn.data import DatasetSplit, Session, UserHistory
from thrnn.hawkes import FitConfig
from thrnn.point_process import QuadratureConfig

import oracles

DAY = 86400.0


class TestRankMetrics:
    def test_recall_examples(self):
        assert ev.recall_at_k([3, 1, 7], 5) == pytest.approx(2 / 3)
        assert ev.recall_at_k([3, 1, 7], 7) == 1.0
        assert ev.recall_at_k([10, 12], 5) == 0.0

    def test_mrr_examples(self):
        assert ev.mrr_at_k([3], 5) == pytest.approx(1 / 3)
        assert ev.mrr_at_k([1, 2], 1) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.recall_at_k([], 5)
        with pytest.raises(ValueError):
            ev.mrr_at_k([], 5)
        with pytest.raises(ValueError):
            ev.recall_at_k([0], 5)

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=30))
    @settings(max_examples=100, deadline=None)
    def test_mrr_bounded_by_recall(self, ranks, k):
        assert ev.mrr_at_k(ranks, k) <= ev.recall_at_k(ranks, k) + 1e-12

    def test_rank_of_target_ties(self):
        scores = np.array([2.0, 5.0, 5.0, 1.0])
        # only strictly greater scores rank above the target
        assert ev.rank_of_target(scores, 1) == 1
        assert ev.rank_of_target(scores, 2) == 1
        assert ev.rank_of_target(scores, 0) == 3
        assert ev.rank_of_target(scores, 3) == 4
        # a (rows, items) block ranks each row's own target by the same rule
        block = np.array([[2.0, 5.0, 5.0, 1.0], [0.0, -0.0, 0.0, -1.0],
                          [-0.0, 0.0, 3.0, 3.0], [2.0, 5.0, 5.0, 1.0],
                          [2.0 + 7.5, 5.0 + 7.5, 5.0 + 7.5, 1.0 + 7.5]])
        targets = np.array([2, 1, 0, 3, 2])
        got = ev.rank_of_target(block, targets)
        assert got.tolist() == [ev.rank_of_target(row, t) for row, t in zip(block, targets)]
        assert got.tolist() == [1, 1, 3, 4, 1]  # the shifted copy ranks as row 0

    def test_rank_invariant_under_monotone_shift(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=20)
        for t in range(20):
            base = ev.rank_of_target(scores, t)
            assert ev.rank_of_target(scores + 123.4, t) == base
            assert ev.rank_of_target(scores * 2.0, t) == base


class TestMaeByBucket:
    def test_single_bucket(self):
        rows, overall = ev.mae_by_bucket([1 * DAY, 2 * DAY], [1 * DAY, 4 * DAY], [0, 10])
        assert overall == pytest.approx(1.0)
        assert rows[0].mae_days == pytest.approx(1.0) and rows[0].count == 2

    def test_perfect_predictions(self):
        t = np.array([0.5, 3.3, 7.7]) * DAY
        rows, overall = ev.mae_by_bucket(t, t, np.arange(0, 11))
        assert overall == 0.0
        assert all(r.mae_days in (0.0, None) for r in rows)

    def test_empty_bucket_is_none_not_nan(self):
        rows, _ = ev.mae_by_bucket([0.5 * DAY], [0.5 * DAY], [0, 1, 2])
        assert rows[1].mae_days is None and rows[1].count == 0

    def test_overall_is_count_weighted_bucket_mean(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(0, 9, size=500) * DAY
        pred = target + rng.normal(scale=DAY, size=500)
        rows, overall = ev.mae_by_bucket(np.abs(pred), target, np.arange(0, 10))
        weighted = sum(r.mae_days * r.count for r in rows if r.count) / 500
        assert overall == pytest.approx(weighted, abs=1e-9)
        assert sum(r.count for r in rows) == 500

    def test_order_independence(self):
        rng = np.random.default_rng(2)
        target = rng.uniform(0, 9, size=300) * DAY
        pred = rng.uniform(0, 9, size=300) * DAY
        rows_a, overall_a = ev.mae_by_bucket(pred, target, np.arange(0, 10))
        perm = rng.permutation(300)
        rows_b, overall_b = ev.mae_by_bucket(pred[perm], target[perm], np.arange(0, 10))
        assert overall_a == overall_b
        assert [(r.mae_days, r.count) for r in rows_a] == [(r.mae_days, r.count) for r in rows_b]

    def test_last_bucket_open_ended(self):
        rows, _ = ev.mae_by_bucket([50 * DAY], [45 * DAY], [0, 1, 2])
        assert rows[-1].count == 1 and rows[-1].label == "[1,inf)"

    def test_constant_predictor_on_bimodal_gaps(self):
        # mixture 0.7 * 0.2d + 0.3 * 5d; the constant mean predictor's
        # per-bucket error is exactly the distance from bucket to mean
        target = np.array([0.2] * 70 + [5.0] * 30) * DAY
        mean = float(target.mean())
        pred = np.full_like(target, mean)
        rows, _ = ev.mae_by_bucket(pred, target, [0, 1, 5, 6])
        short, _, long_ = rows
        assert short.mae_days == pytest.approx(mean / DAY - 0.2, abs=1e-12)
        assert long_.mae_days == pytest.approx(5.0 - mean / DAY, abs=1e-12)
        assert long_.mae_days > short.mae_days

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ev.mae_by_bucket([1.0], [1.0, 2.0], [0, 1])


class TestReportIO:
    def test_roundtrip(self, tmp_path):
        report = ev.build_report("demo", [1, 3, 8], [2 * DAY, 0.5 * DAY],
                                 [1 * DAY, 0.5 * DAY])
        path = tmp_path / "report.jsonl"
        ev.save_report(report, str(path))
        back = oracles.load_report(str(path))
        assert back.model == "demo"
        assert back.recall == report.recall and back.mrr == report.mrr
        assert back.overall_mae_days == pytest.approx(report.overall_mae_days)
        assert [(r.low_days, r.count) for r in back.mae_buckets] == \
               [(r.low_days, r.count) for r in report.mae_buckets]

    def test_default_ks(self):
        report = ev.build_report("m", [1, 2, 15], [], [])
        assert sorted(report.recall) == [5, 10, 20]
        assert report.num_gap_events == 0

    def test_plot_data(self, tmp_path):
        report = ev.build_report("m", [], [1 * DAY], [3 * DAY])
        path = tmp_path / "plot.dat"
        ev.save_plot_data(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# model=m")
        assert len(lines[1:]) == len(ev.BUCKET_EDGES_DAYS) - 1


def _history(uid, idx, gaps_days, items=(0, 1, 2), t0=0.0):
    """Sessions separated by the given gaps (days); first gap is 0."""
    sessions = []
    t = t0
    for i, g in enumerate([0.0] + list(gaps_days)):
        t = t + g * DAY + (600.0 if i else 0.0)
        sessions.append(Session(items=list(items), start_time=t, end_time=t + 600.0,
                                gap_before=g * DAY, gap_masked=False))
        t = t + 600.0
    return sessions


def _mk_split(user_specs):
    """user_specs: list of (train_gaps_days, test_gaps_days)."""
    train, test = [], []
    for i, (tr_gaps, te_gaps) in enumerate(user_specs):
        sessions = _history(f"u{i}", i, list(tr_gaps) + list(te_gaps))
        n_train = len(tr_gaps) + 1
        train.append(UserHistory(f"u{i}", i, sessions[:n_train]))
        test.append(UserHistory(f"u{i}", i, sessions[n_train:]))
    n_items = 3
    return DatasetSplit(train=train, test=test,
                        item_vocabulary={f"i{k}": k for k in range(n_items)},
                        num_items=n_items, num_users=len(user_specs))


class TestBaselines:
    def test_mean_gap_exact(self):
        # user trains on gaps [1d, 1d] -> predicts 1d; test gap 2d -> MAE 1d
        split = _mk_split([((1.0, 1.0), (2.0,))])
        report = ev.mean_gap_report(split)
        assert report.overall_mae_days == pytest.approx(1.0)
        assert report.num_gap_events == 1

    def test_mean_gap_two_users(self):
        split = _mk_split([((1.0, 1.0), (2.0,)), ((3.0, 3.0), (3.0,))])
        report = ev.mean_gap_report(split)
        assert report.overall_mae_days == pytest.approx(0.5)  # (1 + 0) / 2

    def test_popularity_ranks(self):
        split = _mk_split([((1.0,), (1.0,))])
        # train items per session are (0,1,2) twice -> equal counts; make 1 dominant
        split.train[0].sessions[0].items = [1, 0, 1, 2, 1]
        report = ev.popularity_report(split)
        # test session (0,1,2): targets 1 then 2; counts are {0: 1, 1: 3, 2: 1},
        # so target 1 ranks first and target 2 ranks second (tie with item 0
        # does not push it down under the strictly-greater rule)
        assert report.num_rank_events == 2
        assert report.recall[5] == 1.0
        assert report.mrr[20] == pytest.approx((1.0 + 1 / 2) / 2)

    def test_iter_test_gaps_teacher_forcing(self):
        split = _mk_split([((1.0, 2.0), (3.0, 4.0))])
        rows = list(ev.iter_test_gaps(split))
        assert len(rows) == 2
        assert rows[0][1] == pytest.approx(3.0 * DAY)
        assert len(rows[0][2]) == 3  # three train events before first test session
        assert len(rows[1][2]) == 4  # previous test session joined the history

    def test_iter_test_gaps_skips_masked(self):
        split = _mk_split([((1.0, 1.0), (2.0, 3.0))])
        split.test[0].sessions[1].gap_masked = True
        split.test[0].sessions[1].gap_before = 0.0
        rows = list(ev.iter_test_gaps(split))
        assert len(rows) == 1

    def test_hawkes_report_runs(self):
        split = _mk_split([((1.0, 1.0, 2.0, 1.5), (1.0, 2.0)),
                           ((5.0, 4.0, 6.0), (5.0,))])
        q = QuadratureConfig(cutoff=60.0, num_points=512)
        short = ev.hawkes_report(split, FitConfig(window="last_k", last_k=15), q)
        long_ = ev.hawkes_report(split, FitConfig(), q)
        assert short.model == "hawkes_short" and long_.model == "hawkes_long"
        assert short.num_gap_events == 3
        assert 0 < short.overall_mae_days < 10

    def test_hawkes_fallback_single_train_session(self):
        split = _mk_split([((), (2.0, 2.0))])  # one train session only
        q = QuadratureConfig(cutoff=60.0, num_points=512)
        report = ev.hawkes_report(split, FitConfig(), q)
        assert report.num_gap_events == 2
        assert np.isfinite(report.overall_mae_days)
