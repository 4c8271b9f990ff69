"""Metric arithmetic, aggregation invariants, and baseline evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import evaluation as ev
from thrnn import hawkes as hk
from thrnn import model as md
from thrnn import point_process as pp
from thrnn import synthetic as sy
from thrnn.data import Session, UserHistory
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

    @pytest.mark.parametrize("rows", [0, 1, 7])
    def test_rank_block_is_the_row_rule_row_by_row(self, rows):
        # 40 scores drawn from 5 values: targets tie with about 7 others, and
        # a tie never pushes the target down, so each rank is 1 + the
        # strictly greater scores
        rng = np.random.default_rng(rows)
        block = rng.integers(0, 5, size=(rows, 40)).astype(np.float64)
        targets = rng.integers(0, 40, size=rows)
        got = ev.rank_of_target(block, targets)
        assert got.shape == (rows,) and got.dtype.kind == "i"
        assert got.tolist() == [ev.rank_of_target(row, t) for row, t in zip(block, targets)]
        assert got.tolist() == [1 + int((row > row[t]).sum()) for row, t in zip(block, targets)]

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
        assert rows[-1].count == 1 and oracles.bucket_label(rows[-1]) == "[1,inf)"

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


def _mk_histories(user_specs):
    """user_specs: list of (train_gaps_days, test_gaps_days)."""
    train, test = [], []
    for i, (tr_gaps, te_gaps) in enumerate(user_specs):
        sessions = _history(f"u{i}", i, list(tr_gaps) + list(te_gaps))
        n_train = len(tr_gaps) + 1
        train.append(UserHistory(f"u{i}", i, sessions[:n_train]))
        test.append(UserHistory(f"u{i}", i, sessions[n_train:]))
    return train, test


def _mk_split(user_specs):
    return oracles.split_from_histories(*_mk_histories(user_specs), [f"i{k}" for k in range(3)])


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
        train, test = _mk_histories([((1.0,), (1.0,))])
        # train items per session are (0,1,2) twice -> equal counts; make 1 dominant
        train[0].sessions[0].items = [1, 0, 1, 2, 1]
        split = oracles.split_from_histories(train, test, 3)
        report = ev.popularity_report(split)
        # test session (0,1,2): targets 1 then 2; counts are {0: 1, 1: 3, 2: 1},
        # so target 1 ranks first and target 2 ranks second (tie with item 0
        # does not push it down under the strictly-greater rule)
        assert report.num_rank_events == 2
        assert report.recall[5] == 1.0
        assert report.mrr[20] == pytest.approx((1.0 + 1 / 2) / 2)

    def test_iter_test_gaps_teacher_forcing(self):
        split = _mk_split([((1.0, 2.0), (3.0, 4.0))])
        rows = list(oracles.iter_test_gaps(split))
        assert len(rows) == 2
        assert rows[0][1] == pytest.approx(3.0 * DAY)
        assert len(rows[0][2]) == 3  # three train events before first test session
        assert len(rows[1][2]) == 4  # previous test session joined the history

    def test_iter_test_gaps_skips_masked(self):
        train, test = _mk_histories([((1.0, 1.0), (2.0, 3.0))])
        test[0].sessions[1].gap_masked = True
        test[0].sessions[1].gap_before = 0.0
        split = oracles.split_from_histories(train, test, 3)
        rows = list(oracles.iter_test_gaps(split))
        assert len(rows) == 1
        assert ev.mean_gap_report(split).num_gap_events == 1

    def test_hawkes_report_runs(self):
        split = _mk_split([((1.0, 1.0, 2.0, 1.5), (1.0, 2.0)),
                           ((5.0, 4.0, 6.0), (5.0,))])
        q = QuadratureConfig(cutoff=60.0)
        short = ev.hawkes_report(split, FitConfig(window="last_k", last_k=15), q)
        long_ = ev.hawkes_report(split, FitConfig(), q)
        assert short.model == "hawkes_short" and long_.model == "hawkes_long"
        assert short.num_gap_events == 3
        assert 0 < short.overall_mae_days < 10

    def test_hawkes_fallback_single_train_session(self):
        split = _mk_split([((), (2.0, 2.0))])  # one train session only
        q = QuadratureConfig(cutoff=60.0)
        report = ev.hawkes_report(split, FitConfig(), q)
        assert report.num_gap_events == 2
        assert np.isfinite(report.overall_mae_days)

    @pytest.mark.parametrize("train_gaps, rates", [((1.0, 1.0), [2.0, 1.0]),
                                                   ((0.0, 0.0), [1.0, 1.0])],
                             ids=["user-mean-0", "split-mean-0"])
    def test_hawkes_zero_mean_train_gap_falls_back(self, monkeypatch, train_gaps, rates):
        # split gaps may be 0: a user whose train gaps average 0 gets the
        # split's rate (here 1 / 0.5 days), a split whose do gets 1 per day
        split = _mk_split([((0.0, 0.0), (2.0,)), (train_gaps, (1.0,))])
        seen, real = [], ev.fit
        monkeypatch.setattr(ev, "fit", lambda h, cfg, r: seen.append(r) or real(h, cfg, r))
        q = QuadratureConfig(cutoff=60.0)
        assert np.isfinite(ev.hawkes_report(split, FitConfig(), q).overall_mae_days)
        assert seen == [rates]
        _assert_hawkes_matches_oracle(monkeypatch, split, FitConfig(), q)


def _scored(monkeypatch, module, report):
    """The (predicted, target) seconds that report() hands to
    module.build_report, and the report."""
    seen = []
    real = module.build_report

    def spy(name, ranks, pred_seconds, target_seconds):
        seen.append((np.asarray(pred_seconds, dtype=np.float64),
                     np.asarray(target_seconds, dtype=np.float64)))
        return real(name, ranks, pred_seconds, target_seconds)

    monkeypatch.setattr(module, "build_report", spy)
    out = report()
    monkeypatch.setattr(module, "build_report", real)
    return seen[0], out


def _assert_hawkes_matches_oracle(monkeypatch, split, cfg, q):
    """hawkes_report predicts every gap of the per-gap object walk in
    oracles to 1e-12 relative: the one-pass walk sums each prefix's
    quadrature in another order."""
    (pred, target), got = _scored(monkeypatch, ev, lambda: ev.hawkes_report(split, cfg, q))
    (want, want_target), ref = _scored(monkeypatch, oracles,
                                       lambda: oracles.hawkes_report(split, cfg, q))
    assert (got.model, got.num_gap_events) == (ref.model, ref.num_gap_events)
    np.testing.assert_array_equal(target, want_target)
    np.testing.assert_allclose(pred, want, rtol=1e-12, atol=0.0)


class TestColumnsMatchObjects:
    """The baselines read the split's columns; oracles keeps the versions
    that walked per-session objects."""

    @pytest.mark.parametrize("seed", range(12))
    def test_reports_match_object_reference(self, seed, monkeypatch):
        split = oracles.random_split(np.random.default_rng(seed))
        q = QuadratureConfig(cutoff=60.0)
        assert ev.mean_gap_report(split) == oracles.mean_gap_report(split)
        assert ev.popularity_report(split) == oracles.popularity_report(split)
        for cfg in (FitConfig(window="last_k", last_k=3), FitConfig()):
            _assert_hawkes_matches_oracle(monkeypatch, split, cfg, q)

    def test_random_splits_hold_the_odd_shapes(self):
        splits = [oracles.random_split(np.random.default_rng(seed)) for seed in range(12)]
        for split in splits:
            train, test = oracles.histories(split)
            assert not train[0].sessions  # a timeline that starts in test
            assert all(gap[0] != 1 for gap in oracles.iter_test_gaps(split))  # no test gap
            assert any(len(s.items) == 1 for s in train[2].sessions + test[2].sessions)
        # masked split halves in the test part
        assert sum((split.sessions.masked & ~split.is_train()).any() for split in splits) >= 6


class TestFirstSessionIsNoGapEvent:
    def test_part_starts_a_timeline(self):
        # train_fraction 0.1 leaves every 5-session user without a train
        # session: 250 test sessions, of which 50 begin a timeline and have
        # no gap to predict
        spec = sy.SynthSpec(num_users=50, sessions_per_user=5,
                            item_transition=np.full((4, 4), 1 / 3) - np.eye(4) / 3,
                            gap_mixture=[(1.0, 1.0)], train_fraction=0.1)
        split = sy.generate_corpus(spec, seed=0)
        assert not split.train_counts.any()
        q = QuadratureConfig(cutoff=60.0)
        assert ev.mean_gap_report(split).num_gap_events == 200
        assert ev.hawkes_report(split, FitConfig(), q).num_gap_events == 200
        cfg = md.ModelConfig(num_items=split.num_items, num_users=split.num_users,
                             hidden_dim=4, item_embedding_dim=3, user_embedding_dim=2,
                             gap_embedding_dim=2)
        report = md.evaluate(md.ModelParams.init(cfg, 0), cfg, split)
        assert report.num_gap_events == 200


class TestHawkesWalkIsLinear:
    """hawkes_report walks each user's timeline once, so the excitation
    events it visits grow linearly with the timeline; a walk per test gap
    over everything before it grows with the square. The same holds for the
    model's evaluate walk and for both models' return-time read-outs."""

    def test_excitation_events_grow_linearly(self, monkeypatch):
        visited = {}
        real = hk.excitation_state

        def counted(history, decay):
            visited[n] += len(history)
            return real(history, decay)

        q = QuadratureConfig(cutoff=60.0)
        cfg = FitConfig(window="last_k", last_k=15)
        for n in (50, 500, 2000):
            gaps = np.random.default_rng(n).exponential(1.0, n - 1)
            split = _mk_split([(gaps[:int(0.8 * n) - 1], gaps[int(0.8 * n) - 1:])])
            visited[n] = 0
            monkeypatch.setattr(hk, "excitation_state", counted)
            ev.hawkes_report(split, cfg, q)
            monkeypatch.setattr(hk, "excitation_state", real)
            assert visited[n] <= n
            _assert_hawkes_matches_oracle(monkeypatch, split, cfg, q)
        assert visited[2000] / visited[50] <= 2000 / 50

    @pytest.mark.parametrize("cfg", [FitConfig(window="last_k", last_k=15), FitConfig()],
                             ids=["last_k", "full"])
    def test_likelihood_cells_grow_linearly(self, cfg, monkeypatch):
        # the fit's likelihood reads a (rows, width) padded batch per call; its
        # cells per call grow with the window, never with the window squared,
        # and one fit makes at most MAX_ITERATIONS calls, not one per test gap
        cells, calls = {}, {}
        real = hk._nll_and_grads

        def counted(params, geometry):
            cells[n] += geometry[1].size  # the valid-event mask, (rows, width)
            calls[n] += 1
            return real(params, geometry)

        monkeypatch.setattr(hk, "_nll_and_grads", counted)
        for n in (50, 500, 2000):
            gaps = np.random.default_rng(n).exponential(1.0, n - 1)
            cells[n] = calls[n] = 0
            ev.hawkes_report(_mk_split([(gaps[:int(0.8 * n) - 1], gaps[int(0.8 * n) - 1:])]),
                             cfg, QuadratureConfig(cutoff=60.0))
            assert 0 < cells[n] <= calls[n] * n
            assert calls[n] <= hk.MAX_ITERATIONS
        per_call = {n: cells[n] / calls[n] for n in cells}
        assert per_call[2000] / per_call[50] <= 2000 / 50

    @pytest.mark.parametrize("seed", range(3))
    def test_one_read_out_per_report_over_the_scored_gaps(self, seed, monkeypatch):
        # a report integrates once, and only where it scores a gap
        rows, real = [], hk.truncated_mean

        def counted(compensator, cutoff):
            out = real(compensator, cutoff)
            rows.append(len(out))
            return out

        monkeypatch.setattr(hk, "truncated_mean", counted)
        split = oracles.random_split(np.random.default_rng(seed))
        for cfg in (FitConfig(window="last_k", last_k=3), FitConfig()):
            rows.clear()
            report = ev.hawkes_report(split, cfg, QuadratureConfig(cutoff=60.0))
            assert rows == [report.num_gap_events]

    def test_walk_ranks_and_quadrature_grow_linearly(self, monkeypatch):
        # per session, evaluate's walk steps each item once and each rep into
        # at most max_session_reps windows, and ranks each target once; the
        # model reads out each test gap once and the Hawkes baseline each
        # prefix once, on one rule of num_points + 1 nodes. A rep that steps
        # every later window, or a read-out per prefix, grows with the square
        work = {}
        real_cell, real_rank = md.gru_cell_np, md.rank_of_target

        def cell(x_rz, *args):
            work[n]["walk_rows"] += len(x_rz)
            return real_cell(x_rz, *args)

        def rank(scores, targets):
            work[n]["rank_rows"] += len(targets)
            return real_rank(scores, targets)

        def nodes(real):
            def counted(compensator, cutoff):
                def lam(t):
                    out = compensator(t)
                    work[n]["nodes"] += out.size
                    return out
                return real(lam, cutoff)
            return counted

        monkeypatch.setattr(md, "gru_cell_np", cell)
        monkeypatch.setattr(md, "rank_of_target", rank)
        monkeypatch.setattr(pp, "truncated_mean", nodes(pp.truncated_mean))
        monkeypatch.setattr(hk, "truncated_mean", nodes(hk.truncated_mean))
        cfg = md.ModelConfig(num_items=3, num_users=1, item_embedding_dim=4,
                             user_embedding_dim=2, gap_embedding_dim=2, hidden_dim=6)
        params = md.ModelParams.init(cfg, seed=0)
        for n in (50, 500, 2000):
            gaps = np.random.default_rng(n).exponential(1.0, n - 1)
            split = _mk_split([(gaps[:int(0.8 * n) - 1], gaps[int(0.8 * n) - 1:])])
            work[n] = {"walk_rows": 0, "rank_rows": 0, "nodes": 0}
            md.evaluate(params, cfg, split)
            ev.hawkes_report(split, FitConfig(window="last_k", last_k=15), pp.QUADRATURE)
            assert min(work[n].values()) > 0, work[n]
            assert work[n]["walk_rows"] <= n * (3 + cfg.max_session_reps)  # 3 items each
            assert work[n]["rank_rows"] <= n * 2
            assert work[n]["nodes"] <= (2 * n + 1) * (QuadratureConfig.num_points + 1)
