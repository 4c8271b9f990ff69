"""Model wiring: forward composition, loss assembly, gradients,
training behavior, and prediction contracts."""

import dataclasses
import itertools
import json
import re
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from thrnn import evaluation as ev
from thrnn import model as md
from thrnn import point_process as pp
from thrnn import synthetic as sy
from thrnn.autodiff import GRUWeights, Tape, gru_cell_np
from thrnn.data import Session, UserHistory
from thrnn.evaluation import mean_gap_report
from thrnn.model import (ModelConfig, ModelParams, TrainingDivergedError,
                         build_examples, evaluate, predict, train)

import oracles
from oracles import (TrainingExample, fd_gradient, log_density_from_s, rel_error,
                     session_table)

DAY = 86400.0


# (field, value, rule): values that would train wrongly or raise a TypeError
BAD_CONFIGS = [
    ("learning_rate", -0.01, "must be non-negative"),
    ("learning_rate", float("nan"), "must be a finite real number"),
    ("learning_rate_time", float("inf"), "must be a finite real number"),
    ("time_clip_norm", -1, "must be positive"),
    ("time_clip_norm", None, "must be a finite real number"),
    ("alpha_exp", 0.29, r"must lie in \[0\.3, 1\]"),  # the rule is a regex
    ("batch_size", "100", "must be an integer"),
    ("hidden_dim", 4.5, "must be an integer"),
    ("max_session_reps", True, "must be an integer"),
    ("dropout_rate", "0.1", "must be a finite real number"),
    # no float holds it
    pytest.param("alpha_exp", 10 ** 400, "must be a finite real number", id="alpha_exp-10**400"),
]


def _cfg(**kw):
    base = dict(num_items=6, num_users=3, item_embedding_dim=3,
                user_embedding_dim=2, gap_embedding_dim=2,
                hidden_dim=4, num_gap_buckets=3, batch_size=4)
    base.update(kw)
    return ModelConfig(**base)


def _rand_params(cfg, seed=0, with_time=True):
    p = ModelParams.init(cfg, seed)
    if with_time:
        rng = np.random.default_rng(seed + 1)
        p.time_v.value = rng.normal(0, 0.3, p.time_v.value.shape)
        p.time_b.value = np.array([0.2])
        p.time_w.value = np.asarray(0.3)
    return p


def _example(rng, cfg, n_hist, n_items, time_masked=False, gap=1.3, user=0):
    """An example and its history as (intra state, gap bucket) pairs."""
    hist = [(rng.normal(0, 0.5, cfg.hidden_dim), int(rng.integers(cfg.num_gap_buckets)))
            for _ in range(n_hist)]
    items = rng.integers(cfg.num_items, size=n_items + 1)
    return TrainingExample(user_index=user, slot=n_hist, row=n_hist,
                           inputs=items[:-1].astype(np.int64),
                           targets=items[1:].astype(np.int64),
                           gap_target=gap, time_masked=time_masked), hist


def _stack(cfg, parts):
    """((examples, batch index), history table) for (example, history)
    parts: each example's history rows, then its own row, which nothing
    reads."""
    batch, states, buckets = [], [], []
    for ex, hist in parts:
        states += [st for st, _ in hist] + [np.zeros(cfg.hidden_dim)]
        buckets += [b for _, b in hist] + [0]
        batch.append(dataclasses.replace(ex, row=len(states) - 1))
    return ((oracles.examples_of(batch), np.arange(len(batch))),
            (np.array(states), np.array(buckets, dtype=np.int64)))


def _sessions(rng, cfg, lengths, gap=5000.0):
    """One user's timeline of random items, one session per length."""
    return [Session(items=[int(i) for i in rng.integers(cfg.num_items, size=n)],
                    start_time=float(j * 10000), end_time=float(j * 10000 + 60),
                    gap_before=0.0 if j == 0 else gap)
            for j, n in enumerate(lengths)]


def _step(x, h, w):
    """One GRU step of the rows x from h, projecting x first; h is left as is."""
    step = w.step_form()
    xw, n = step.project(x), len(h[0])
    return gru_cell_np(xw[:, :2 * n], xw[:, 2 * n:], h, step, out=np.empty_like(h))


def _is_level(step, w):
    """Whether the step form `step` is that of the cell w."""
    return np.array_equal(step.u_c, w.u.value[:, 2 * len(step.u_c):])


def _step_scores(params, cfg, sessions, j, user=0):
    """Per-step item scores over session j: row t is what predict() scores
    after the first t + 1 items, given the full sessions before j."""
    rows = []
    for t in range(1, len(sessions[j].items)):
        prefix = dataclasses.replace(sessions[j], items=sessions[j].items[:t])
        pred = predict(UserHistory("u", user, sessions[:j] + [prefix]), params, cfg,
                       k=cfg.num_items)
        row = np.empty(cfg.num_items)
        row[pred.items] = pred.scores
        rows.append(row)
    return np.array(rows)


def _batch_losses(params, cfg, parts):
    """(joint loss, time nll, rec nll) as _forward_batch reports them."""
    batch, table = _stack(cfg, parts)
    loss, l_time, l_rec, _, _ = md._forward_batch(Tape(), params, cfg, *batch,
                                                  np.random.default_rng(0), table)
    return float(loss.value), l_time, l_rec


def _xent(scores, targets):
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return -np.mean(np.log(probs[np.arange(len(targets)), targets]))


class TestConfig:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            _cfg(item_embedding_dim=0)
        with pytest.raises(ValueError, match="positive"):
            _cfg(hidden_dim=0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha_exp"):
            _cfg(alpha_exp=0.0)
        with pytest.raises(ValueError, match="alpha_exp"):
            _cfg(alpha_exp=1.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            _cfg(loss_weight_time=-0.1)

    def test_rep_dim(self):
        assert _cfg().rep_dim == 4 + 2 + 2

    @pytest.mark.parametrize("field, value, rule", BAD_CONFIGS)
    def test_rejects_values_that_break_training_by_name(self, field, value, rule):
        with pytest.raises(ValueError, match=f"^{field} {rule}, got"):
            _cfg(**{field: value})

    def test_accepts_numpy_integers_and_zero_rates(self):
        cfg = _cfg(hidden_dim=np.int64(5), batch_size=np.int32(3), learning_rate=0.0,
                   learning_rate_time=0)
        assert cfg.hidden_dim == 5 and cfg.learning_rate_time == 0


class TestBuildExamples:
    def _split(self):
        sessions = [
            Session(items=[0, 1], start_time=0.0, end_time=30.0),
            Session(items=[1, 2, 0], start_time=100000.0, end_time=100060.0,
                    gap_before=DAY),
            Session(items=[2], start_time=200000.0, end_time=200000.0,
                    gap_before=DAY / 2),
            Session(items=[0], start_time=200001.0, end_time=200001.0,
                    gap_before=0.0, gap_masked=True),
        ]
        test = [Session(items=[1, 0], start_time=300000.0, end_time=300030.0,
                        gap_before=DAY)]
        return [UserHistory("u0", 0, sessions)], [UserHistory("u0", 0, test)]

    def test_masking_and_targets(self):
        cfg = _cfg(num_items=3, num_users=1)
        exs = oracles.example_objects(build_examples(
            oracles.split_from_histories(*self._split(), ["a", "b", "c"]), cfg))
        assert [e.slot for e in exs] == [0, 1, 2]  # masked single-item session dropped
        assert exs[0].time_masked  # no predecessor
        assert not exs[1].time_masked and exs[1].gap_target == pytest.approx(1.0)
        assert list(exs[1].inputs) == [1, 2] and list(exs[1].targets) == [2, 0]
        assert len(exs[2].inputs) == 0  # single item: return-time signal only

    @pytest.mark.parametrize("seed", range(12))
    def test_columns_match_object_reference(self, seed):
        split = oracles.random_split(np.random.default_rng(seed))
        cfg = _cfg(num_items=split.num_items, num_users=split.num_users)
        try:
            want = oracles.build_examples(split, cfg)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                build_examples(split, cfg)
            return
        got = oracles.example_objects(build_examples(split, cfg))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.user_index, g.slot, g.row, g.gap_target, g.time_masked) == \
                (w.user_index, w.slot, w.row, w.gap_target, w.time_masked)
            assert np.array_equal(g.inputs, w.inputs) and np.array_equal(g.targets, w.targets)

    def test_empty_split_rejected(self):
        train, test = self._split()
        train[0].sessions = [Session(items=[0], start_time=0, end_time=0)]
        split = oracles.split_from_histories(train, test, ["a", "b", "c"])
        with pytest.raises(ValueError, match="usable"):
            build_examples(split, _cfg(num_items=3, num_users=1))


class TestForward:
    def test_cold_start_zero_state(self):
        cfg = _cfg()
        params = _rand_params(cfg)
        sessions = _sessions(np.random.default_rng(0), cfg, [2])
        _, _, h_before, _ = md._hierarchy_walk(params, cfg, session_table([sessions], [0]))
        assert np.all(h_before[0] == 0.0)
        assert _step_scores(params, cfg, sessions, 0).shape == (1, cfg.num_items)

    def test_history_truncated_to_window(self):
        cfg = _cfg(max_session_reps=15)
        params = _rand_params(cfg)
        sessions = _sessions(np.random.default_rng(1), cfg, [2] * 20 + [3])
        intra_states, buckets, h_before, _ = md._hierarchy_walk(
            params, cfg, session_table([sessions], [0]))

        def unroll(slots):
            h = np.zeros((1, cfg.hidden_dim))
            for t in slots:
                rep = np.concatenate([intra_states[t],
                                      params.gap_emb.value[buckets[t]],
                                      params.user_emb.value[0]])[None, :]
                h = _step(rep, h, params.inter)
            return h

        # session 20 conditions on sessions 5..19 only
        h = unroll(range(5, 20))
        np.testing.assert_allclose(h_before[20], h[0], rtol=0, atol=1e-12)
        assert not np.allclose(h_before[20], unroll(range(20))[0])
        assert np.max(np.abs(h_before[20] - unroll(range(20))[0])) > 1e-6
        # predict's walk projects the t items of each prefix in one product
        # and steps through its rows, as here: BLAS rounds a one-row product
        # differently from a multi-row one
        want = []
        for t in range(1, len(sessions[20].items)):
            x, h = params.item_emb.value[sessions[20].items[:t]], h_before[20][None, :].copy()
            step = params.intra.step_form()
            xw, n = step.project(x), cfg.hidden_dim
            for i in range(t):
                gru_cell_np(xw[i:i + 1, :2 * n], xw[i:i + 1, 2 * n:], h, step)
            want.append(h[0] @ params.out_w.value + params.out_b.value)
        assert np.array_equal(_step_scores(params, cfg, sessions, 20), np.array(want))

    def test_matches_hand_rolled_trace(self):
        # step through the documented cell formulas with plain numpy over
        # two history sessions and compare the complete score trace of the
        # third
        cfg = _cfg(num_items=2, item_embedding_dim=2)
        params = _rand_params(cfg, seed=3)
        sessions = _sessions(np.random.default_rng(4), cfg, [2, 3, 4])
        bucket = cfg.gap_buckets

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def cell(x, h, w):
            (w_r, w_z, w_c), (u_r, u_z, u_c), (b_r, b_z, b_c) = (
                np.split(t.value, 3, axis=-1) for t in w.tensors())
            r = sig(x @ w_r + h @ u_r + b_r)
            z = sig(x @ w_z + h @ u_z + b_z)
            c = np.tanh(x @ w_c + (r * h) @ u_c + b_c)
            return (1 - z) * h + z * c

        def inter(reps):
            h = np.zeros(cfg.hidden_dim)
            for x in reps:
                h = cell(x, h, params.inter)
            return h

        reps = []
        for s in sessions[:2]:
            h = inter(reps)
            for item in s.items:
                h = cell(params.item_emb.value[item], h, params.intra)
            reps.append(np.concatenate([h, params.gap_emb.value[bucket(s.gap_before)],
                                        params.user_emb.value[1]]))
        h = inter(reps)
        expected = []
        for item in sessions[2].items[:-1]:
            h = cell(params.item_emb.value[item], h, params.intra)
            expected.append(h @ params.out_w.value + params.out_b.value)
        scores = _step_scores(params, cfg, sessions, 2, user=1)
        assert np.allclose(scores, np.array(expected), atol=1e-12)

    @pytest.mark.parametrize("reps", [1, 3, 4, 40])
    def test_ring_walk_matches_window_unrolls(self, reps, monkeypatch):
        # every window unrolled from scratch one row at a time, against the
        # walk that steps all in-flight windows together in row blocks and
        # each window that is a prefix of another as part of it; the users
        # have n = 0, 1, 7, 12 and 4 sessions, so reps 4 has n = R
        cfg = _cfg(num_users=5, max_session_reps=reps, batch_size=4)
        params = _rand_params(cfg, seed=6)
        rng = np.random.default_rng(7)
        counts = [0, 1, 7, 12, 4]
        lists = [_sessions(rng, cfg, rng.integers(1, 5, size=n)) for n in counts]
        bucket = cfg.gap_buckets
        refs = []
        for u, sessions in enumerate(lists):
            ref_h, ref_intra, reps_seen = [], [], []
            for j in range(len(sessions) + 1):
                h = np.zeros((1, cfg.hidden_dim))
                for x in reps_seen[max(0, j - reps):]:
                    h = _step(x[None, :], h, params.inter)
                ref_h.append(h[0])
                if j == len(sessions):
                    break
                for item in sessions[j].items:
                    h = _step(params.item_emb.value[[item]], h, params.intra)
                ref_intra.append(h[0])
                reps_seen.append(np.concatenate([
                    h[0], params.gap_emb.value[bucket(sessions[j].gap_before)],
                    params.user_emb.value[u]]))
            refs.append((ref_h, ref_intra))

        calls = []

        def counted(x_rz, x_c, h, step):
            calls.append((_is_level(step, params.inter), x_rz.shape[0]))
            return gru_cell_np(x_rz, x_c, h, step)

        monkeypatch.setattr(md, "gru_cell_np", counted)
        table = session_table(lists, range(5))
        intra_states, _, h_before, _ = md._hierarchy_walk(params, cfg, table)
        # user u, the b-th with sessions, has intra rows base[u] .. and
        # h_before rows base[u] + b ..; a user without sessions has neither
        b = np.cumsum(np.array(counts) > 0) - 1
        assert len(intra_states) == sum(counts)
        assert len(h_before) == sum(counts) + np.count_nonzero(counts)
        base = np.cumsum([0] + counts)
        for u, (ref_h, ref_intra) in enumerate(refs):
            if not counts[u]:
                continue
            got = (list(h_before[base[u] + b[u]:base[u + 1] + b[u] + 1])
                   + list(intra_states[base[u]:base[u + 1]]))
            for g, want in zip(got, ref_h + ref_intra, strict=True):
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)

        # windows 1 .. min(R, n) share one unroll and each later window is
        # stepped once per rep, in blocks of at most batch_size rows
        def inter_calls():
            rows = [n for is_inter, n in calls if is_inter]
            calls.clear()
            return rows

        live_items = sum(len(s.items) for sl in lists for s in sl)
        assert sum(n for is_inter, n in calls if not is_inter) == live_items
        inter_rows = inter_calls()
        assert sum(inter_rows) == sum(oracles.walk_inter_rows(n, reps, True) for n in counts)
        assert max(inter_rows) <= cfg.batch_size
        for u, n in enumerate(counts):  # the same rows with each user walked alone
            if n:
                md._hierarchy_walk(params, cfg, session_table([lists[u]], [u]))
                assert sum(inter_calls()) == oracles.walk_inter_rows(n, reps, True)

        # the history refresh's form: the same states, no inter states kept,
        # and no user's window after its last session stepped
        lean = md._hierarchy_walk(params, cfg, table, inter_rows=[])
        assert lean[2].shape == (0, cfg.hidden_dim) and np.array_equal(lean[0], intra_states)
        assert sum(inter_calls()) == sum(oracles.walk_inter_rows(n, reps, False) for n in counts)
        # chosen rows, in the order asked for, and nothing else allocated
        intra_rows, inter_rows = [5, 0, sum(counts) - 1], [len(h_before) - 1, 3, 0, 9]
        picked = md._hierarchy_walk(params, cfg, table, intra_rows=intra_rows,
                                    inter_rows=inter_rows)
        assert np.array_equal(picked[0], intra_states[intra_rows])
        assert np.array_equal(picked[2], h_before[inter_rows])
        assert np.array_equal(picked[1], lean[1])
        calls.clear()
        last = md._hierarchy_walk(params, cfg, table, intra_rows=[-1], inter_rows=[-1])
        assert np.array_equal(last[0], intra_states[-1:]) and np.array_equal(last[2], h_before[-1:])
        # only the last user's state after its last session is read
        assert sum(inter_calls()) == sum(oracles.walk_inter_rows(n, reps, u == len(counts) - 1)
                                         for u, n in enumerate(counts))

        # one user: one inter step per slot once a block holds every window
        calls.clear()
        one = dataclasses.replace(cfg, batch_size=reps)
        md._hierarchy_walk(params, one, session_table([lists[3]], [3]))
        assert sum(is_inter for is_inter, _ in calls) <= len(lists[3])

    def test_walk_projects_intra_steps_in_blocks(self, monkeypatch):
        # each intra step reads its rows of x·w + b from a block product of
        # consecutive steps, at most max(first-step rows, batch_size) rows
        cfg = _cfg(num_users=12, max_session_reps=4, batch_size=3)
        params = _rand_params(cfg, seed=8)
        rng = np.random.default_rng(9)
        lists = [_sessions(rng, cfg, rng.integers(1, 9, size=n))
                 for n in rng.integers(1, 26, size=cfg.num_users)]
        calls = []

        def spy(x_rz, x_c, h, step):
            calls.append((_is_level(step, params.intra), x_rz))
            return gru_cell_np(x_rz, x_c, h, step)

        def blocks(table, cfg):
            # per slot, its distinct projections: a slot's intra steps run
            # between the inter steps of the slots before and after it
            calls.clear()
            md._hierarchy_walk(params, cfg, table)
            per_slot = []
            for intra, steps in itertools.groupby(calls, key=lambda call: call[0]):
                if not intra:
                    continue
                steps, bases = list(steps), []
                cap = max(len(steps[0][1]), cfg.batch_size)
                for _, xw in steps:
                    assert xw.base is not None and len(xw.base) <= cap
                    if not any(xw.base is b for b in bases):
                        bases.append(xw.base)
                per_slot.append(len(bases))
            return per_slot

        monkeypatch.setattr(md, "gru_cell_np", spy)
        many = blocks(session_table(lists, range(cfg.num_users)), cfg)
        assert len(many) == max(len(sl) for sl in lists) and max(many) > 1
        # one user steps one row at a time: a session of up to batch_size
        # items is one product
        one = dataclasses.replace(cfg, batch_size=8)
        assert blocks(session_table([lists[0]], [0]), one) == [1] * len(lists[0])

    def test_step_form_once_per_level_per_walk(self, monkeypatch):
        # the walk builds each level's step form once, before its slot loop,
        # and a training batch once per taped unroll: never per slot or step
        built, real = [], GRUWeights.step_form
        monkeypatch.setattr(GRUWeights, "step_form",
                            lambda self: built.append(self) or real(self))
        steps, real_cell = [], md.gru_cell_np
        monkeypatch.setattr(md, "gru_cell_np",
                            lambda *a, **k: steps.append(1) or real_cell(*a, **k))
        cfg = _cfg(num_users=6, max_session_reps=3, batch_size=2)
        params = _rand_params(cfg, seed=10)
        rng = np.random.default_rng(11)
        lists = [_sessions(rng, cfg, rng.integers(1, 6, size=n)) for n in (3, 8, 5, 2, 7, 4)]
        md._hierarchy_walk(params, cfg, session_table(lists, range(cfg.num_users)))
        assert len(steps) > 8 * 2  # at least an intra and an inter call per slot
        assert [id(w) for w in built] == [id(params.intra), id(params.inter)]

        split = _tiny_corpus(users=12, sessions=6)
        cfg = _train_cfg(split, batch_size=16)
        built.clear()
        train(split, cfg, epochs=1, seed=0)
        batches = -(-len(md.build_examples(split, cfg)) // cfg.batch_size)
        # the refresh walk's two, then the inter and the intra unroll of each batch
        assert len(built) == 2 + 2 * batches


class TestJointLoss:
    def test_weighted_combination(self):
        cfg = _cfg(loss_weight_time=0.45, loss_weight_rec=0.45)
        params = _rand_params(cfg)
        rng = np.random.default_rng(5)
        ex, hist = _example(rng, cfg, n_hist=1, n_items=2, gap=0.8)
        ((state, bucket),) = hist
        x = np.concatenate([state, params.gap_emb.value[bucket],
                            params.user_emb.value[ex.user_index]])[None, :]
        h = _step(x, np.zeros((1, cfg.hidden_dim)), params.inter)
        s = float(h[0] @ params.time_v.value[:, 0] + params.time_b.value[0])
        l_time = -float(log_density_from_s(s, 0.8 ** cfg.alpha_exp,
                                           float(params.time_w.value)))
        scores = []
        for item in ex.inputs:
            h = _step(params.item_emb.value[[item]], h, params.intra)
            scores.append(h[0] @ params.out_w.value + params.out_b.value)
        l_rec = _xent(np.array(scores), ex.targets)

        loss, got_time, got_rec = _batch_losses(params, cfg, [(ex, hist)])
        assert got_time == pytest.approx(l_time, rel=1e-12)
        assert got_rec == pytest.approx(l_rec, rel=1e-12)
        assert loss == pytest.approx(0.45 * l_time + 0.45 * l_rec, rel=1e-12)

    def test_masked_gap_drops_time_term(self):
        cfg = _cfg()
        params = _rand_params(cfg)
        rng = np.random.default_rng(6)
        ex, hist = _example(rng, cfg, n_hist=1, n_items=2, time_masked=True)
        masked, l_time, _ = _batch_losses(params, cfg, [(ex, hist)])
        unmasked = dataclasses.replace(ex, time_masked=False)
        rec_only, *_ = _batch_losses(params, _cfg(loss_weight_time=0.0), [(unmasked, hist)])
        assert l_time == 0.0
        assert masked == pytest.approx(rec_only)

    def test_zero_time_weight_is_pure_recommendation(self):
        cfg = _cfg(loss_weight_time=0.0, loss_weight_rec=1.0)
        params = _rand_params(cfg)
        rng = np.random.default_rng(7)
        ex, hist = _example(rng, cfg, n_hist=0, n_items=3, gap=1.0)
        h = np.zeros((1, cfg.hidden_dim))
        scores = []
        for item in ex.inputs:
            h = _step(params.item_emb.value[[item]], h, params.intra)
            scores.append(h[0] @ params.out_w.value + params.out_b.value)
        loss, _, l_rec = _batch_losses(params, cfg, [(ex, hist)])
        want = _xent(np.array(scores), ex.targets)
        assert loss == pytest.approx(want)
        assert l_rec == pytest.approx(want)


class TestGradients:
    def _batch(self, cfg, rng):
        return _stack(cfg, [_example(rng, cfg, n_hist=2, n_items=3, gap=1.7, user=0),
                            _example(rng, cfg, n_hist=0, n_items=1, time_masked=True, user=1),
                            _example(rng, cfg, n_hist=1, n_items=0, gap=0.4, user=2)])

    def test_end_to_end_against_finite_differences(self):
        cfg = _cfg()
        params = _rand_params(cfg, seed=8)
        rng = np.random.default_rng(9)
        batch, table = self._batch(cfg, rng)

        def loss_value():
            tape = Tape()
            loss, *_ = md._forward_batch(tape, params, cfg, *batch,
                                         np.random.default_rng(0), table)
            return float(loss.value)

        tape = Tape()
        loss, *_ = md._forward_batch(tape, params, cfg, *batch,
                                     np.random.default_rng(0), table)
        for t in params.named().values():
            t.zero_grad()
        tape.backward(loss)
        for name, tensor in params.named().items():
            fd = fd_gradient(loss_value, tensor.value)
            got = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.value)
            assert rel_error(got, fd) < 1e-4, name

    def test_item_embeddings_only_learn_from_recommendation(self):
        cfg = _cfg(loss_weight_rec=0.0, loss_weight_time=0.45)
        params = _rand_params(cfg, seed=10)
        rng = np.random.default_rng(11)
        batch, table = self._batch(cfg, rng)
        tape = Tape()
        loss, *_ = md._forward_batch(tape, params, cfg, *batch,
                                     np.random.default_rng(0), table)
        for t in params.named().values():
            t.zero_grad()
        tape.backward(loss)
        assert np.all(params.item_emb.grad == 0.0)
        # the contextual embeddings keep learning through the time loss
        assert np.any(params.gap_emb.grad != 0.0)
        assert np.any(params.user_emb.grad != 0.0)

    def test_masked_gap_gives_time_head_zero_gradient(self):
        cfg = _cfg()
        params = _rand_params(cfg, seed=12)
        rng = np.random.default_rng(13)
        batch, table = _stack(cfg, [_example(rng, cfg, n_hist=2, n_items=2, time_masked=True),
                                    _example(rng, cfg, n_hist=1, n_items=3, time_masked=True)])
        tape = Tape()
        loss, *_ = md._forward_batch(tape, params, cfg, *batch,
                                     np.random.default_rng(0), table)
        for t in params.named().values():
            t.zero_grad()
        tape.backward(loss)
        assert np.all(params.time_v.grad == 0.0)
        assert np.all(params.time_w.grad == 0.0)
        assert np.all(params.time_b.grad == 0.0)

    def test_live_row_projection_matches_per_step_reference(self):
        # 9 live rows over 5 steps with padded rows, batch_size 4: the live
        # rows cross two chunk boundaries, and dropout draws per step
        cfg = _cfg(batch_size=4, dropout_rate=0.3)
        params = _rand_params(cfg, seed=14)
        rng = np.random.default_rng(15)
        batch, table = _stack(cfg, [
            _example(rng, cfg, n_hist=2, n_items=5, gap=1.7, user=0),
            _example(rng, cfg, n_hist=0, n_items=1, time_masked=True, user=1),
            _example(rng, cfg, n_hist=1, n_items=3, gap=0.4, user=2),
            _example(rng, cfg, n_hist=3, n_items=0, gap=2.2, user=1)])
        grads, rec = [], _Recorder(16)
        for forward, draws in ((md._forward_batch, rec), (_per_step_forward, rec.draws)):
            tape = Tape()
            loss, *_ = forward(tape, params, cfg, *batch, draws, table)
            for t in params.named().values():
                t.zero_grad()
            tape.backward(loss)
            grads.append((float(loss.value), {n: t.grad.copy()
                                              for n, t in params.named().items()}))
        (got_loss, got), (want_loss, want) = grads
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for name, g in want.items():
            err = np.abs(got[name] - g).max() / max(np.abs(g).max(), 1e-300)
            assert err <= 1e-12, (name, err)


class _Recorder:
    """A generator that keeps each rng.random draw it hands out."""

    def __init__(self, seed):
        self._rng, self.draws = np.random.default_rng(seed), []

    def random(self, shape):
        self.draws.append(self._rng.random(shape))
        return self.draws[-1]


def _packed_at(order, counts, live):
    """(steps, n): the packed row of example i at step t, for a step-major
    packing whose step t holds the first counts[t] examples of `order`;
    -1 where live[t, i] is False."""
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order))
    at = (np.cumsum(counts) - counts)[:, None] + pos[None, :]
    return np.where(live, at, -1)


def _per_step_forward(tape, params, cfg, examples, index, draws, table):
    """Reference joint loss: the intra level projects and scores every
    row at every step, padded rows masked out of the softmax. `draws` are
    the packed pass's dropout uniforms, [inter reps, item embeddings] (a
    level with no rows draws nothing), each applied to the (step, example)
    that _forward_batch's docstring packs at that row."""
    from thrnn import autodiff as ad
    batch = oracles.example_objects(examples, index)
    n = len(batch)
    users = np.array([ex.user_index for ex in batch])
    reach = np.array([min(ex.slot, cfg.max_session_reps) for ex in batch])
    lens = np.array([len(ex.inputs) for ex in batch])
    window = int(reach.max())
    # the packed order: reach descending, then (intra) inputs descending, both stable
    by_reach = np.argsort(-reach, kind="stable")
    by_len = by_reach[np.argsort(-lens[by_reach], kind="stable")]
    steps = np.arange(max(window, lens.max()))[:, None]
    inter_at = _packed_at(by_reach, [np.sum(reach > k) for k in range(window)],
                          steps[:window] < reach)
    intra_at = _packed_at(by_len, [np.sum(lens > t) for t in range(lens.max())],
                          steps[:lens.max()] < lens)
    packed = iter(draws)
    inter_u = next(packed) if cfg.dropout_rate and window else None
    intra_u = next(packed) if cfg.dropout_rate and lens.max() else None

    def drop(a, u, at):
        # the packed uniform of each live row; a padded row keeps its entries
        full = np.zeros(a.value.shape)
        if u is not None:
            full[at >= 0] = u[at[at >= 0]]
        return ad.dropout(tape, a, cfg.dropout_rate, SimpleNamespace(random=lambda _: full))

    h = ad.Tensor(np.zeros((n, cfg.hidden_dim)))
    for t in range(window):
        segs = np.zeros((n, cfg.hidden_dim))
        gaps = np.zeros(n, dtype=np.int64)
        live = np.zeros((n, 1), dtype=bool)
        at = np.full(n, -1)
        for i, ex in enumerate(batch):
            k = t - (window - reach[i])  # windows right-aligned: row i starts late
            if k >= 0:
                row = ex.row - reach[i] + k
                segs[i], gaps[i], live[i] = table[0][row], table[1][row], True
                at[i] = inter_at[k, i]
        rep = ad.concat(tape, [ad.Tensor(segs), ad.embedding(tape, params.gap_emb, gaps),
                               ad.embedding(tape, params.user_emb, users)])
        h = oracles.gru_cell(tape, drop(rep, inter_u, at), h, params.inter, update_mask=live)
    time_masked = np.array([ex.time_masked for ex in batch])
    g_alpha = np.array([0.0 if ex.time_masked else ex.gap_target ** cfg.alpha_exp
                        for ex in batch])
    s = ad.matmul(tape, h, params.time_v, params.time_b)
    l_time = pp.time_nll(tape, s, params.time_w, g_alpha, masked=time_masked)
    pieces = []
    for t in range(lens.max()):
        ids = np.array([ex.inputs[t] if t < len(ex.inputs) else 0 for ex in batch])
        tgt = np.array([ex.targets[t] if t < len(ex.targets) else 0 for ex in batch])
        x = drop(ad.embedding(tape, params.item_emb, ids), intra_u, intra_at[t])
        h = oracles.gru_cell(tape, x, h, params.intra)
        sc = ad.matmul(tape, h, params.out_w, params.out_b)
        pieces.append(oracles.masked_softmax_xent(tape, sc, tgt, masked=lens <= t))
    loss = oracles.total(tape, [l_time, *pieces], [cfg.loss_weight_time]
                         + [cfg.loss_weight_rec / lens.sum()] * len(pieces))
    return loss, float(l_time.value), sum(float(p.value) for p in pieces) / lens.sum()


class TestAblationEquivalence:
    def test_zeroed_context_equals_plain_hierarchical_gru(self):
        """With gap and user embeddings zeroed, the per-step scores must
        match a bare two-level GRU whose inter-level input weights are the
        intra-summary rows of ours."""
        cfg = _cfg(loss_weight_time=0.0)
        params = _rand_params(cfg, seed=14)
        params.gap_emb.value[:] = 0.0
        params.user_emb.value[:] = 0.0
        h_dim = cfg.hidden_dim

        rng = np.random.default_rng(15)
        sessions = [Session(items=list(rng.integers(cfg.num_items, size=n)),
                            start_time=float(i * 10000), end_time=float(i * 10000 + 60),
                            gap_before=0.0 if i == 0 else 5000.0)
                    for i, n in enumerate([3, 2, 4])]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def cell_sliced(x, h, w, rows):
            (w_r, w_z, w_c), (u_r, u_z, u_c), (b_r, b_z, b_c) = (
                np.split(t.value, 3, axis=-1) for t in w.tensors())
            r = sig(x @ w_r[:rows] + h @ u_r + b_r)
            z = sig(x @ w_z[:rows] + h @ u_z + b_z)
            c = np.tanh(x @ w_c[:rows] + (r * h) @ u_c + b_c)
            return (1 - z) * h + z * c

        reps = []
        plain_scores = []
        for s in sessions:
            h = np.zeros(h_dim)
            for rep in reps[-cfg.max_session_reps:]:
                h = cell_sliced(rep, h, params.inter, h_dim)
            per_step = []
            for item in s.items:
                h = cell_sliced(params.item_emb.value[item], h, params.intra,
                                cfg.item_embedding_dim)
                per_step.append(h @ params.out_w.value + params.out_b.value)
            reps.append(h)
            plain_scores.append(np.array(per_step[:-1]))

        for j in range(len(sessions)):
            scores = _step_scores(params, cfg, sessions, j)
            assert np.max(np.abs(scores - plain_scores[j])) < 1e-10


def _tiny_corpus(seed=0, users=20, sessions=8, vocab=8, concentrated=True, **kw):
    kw.setdefault("gap_mixture", [(1.0, 1.0)])
    spec = sy.SynthSpec(num_users=users, sessions_per_user=sessions,
                        item_transition=_concentrated(vocab) if concentrated
                        else _offdiag(vocab), **kw)
    return sy.generate_corpus(spec, seed=seed)


def _offdiag(v):
    m = np.full((v, v), 1.0 / (v - 1))
    np.fill_diagonal(m, 0.0)
    return m


def _concentrated(v):
    """Each item has three strongly preferred successors: something for
    the recommendation loss to actually learn."""
    rng = np.random.default_rng(42)
    m = np.zeros((v, v))
    for i in range(v):
        others = np.delete(np.arange(v), i)
        favs = rng.choice(others, size=3, replace=False)
        m[i, favs] = [0.55, 0.25, 0.12]
        rest = np.setdiff1d(others, favs)
        m[i, rest] = 0.08 / len(rest)
    return m


def _train_cfg(split, **kw):
    base = dict(num_items=split.num_items, num_users=split.num_users,
                item_embedding_dim=8, user_embedding_dim=4, gap_embedding_dim=3,
                hidden_dim=16, num_gap_buckets=8,
                batch_size=32)
    base.update(kw)
    return ModelConfig(**base)


def _check_resume(tmp_path, make_cfg):
    """Training 4 epochs straight and 2 + 2 through a checkpoint must give
    the same parameters, bit for bit."""
    from thrnn.checkpoint import load_checkpoint, save_checkpoint
    split = _tiny_corpus(users=12, sessions=6)
    cfg = make_cfg(split)
    straight, _, _ = train(split, cfg, epochs=4, seed=5)

    half, _, opt_state = train(split, cfg, epochs=2, seed=5)
    path = str(tmp_path / "half.ckpt")
    save_checkpoint(path, half, cfg, optimizer_state=opt_state,
                    meta={"epochs_completed": 2, "seed": 5})
    loaded, cfg2, opt2, meta = load_checkpoint(path)
    resumed, stats, _ = train(split, cfg2, epochs=4, seed=meta["seed"],
                              params=loaded, opt=md.optimizer(loaded, cfg2, opt2),
                              start_epoch=meta["epochs_completed"] + 1)
    assert [s.epoch for s in stats] == [3, 4]
    for name, t in straight.named().items():
        assert np.array_equal(t.value, resumed.named()[name].value), name


class TestTraining:
    def test_loss_descends(self):
        split = _tiny_corpus(users=200)
        cfg = _train_cfg(split)
        _, stats, _ = train(split, cfg, epochs=2, seed=0)
        assert len(stats) == 2
        assert stats[-1].train_loss < stats[0].train_loss

    def test_deterministic_checkpoints(self, tmp_path):
        from thrnn.checkpoint import save_checkpoint
        split = _tiny_corpus()
        cfg = _train_cfg(split)
        blobs = []
        for name in ("a.ckpt", "b.ckpt"):
            params, _, _ = train(split, cfg, epochs=2, seed=7)
            save_checkpoint(str(tmp_path / name), params, cfg)
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_resume_matches_straight_run(self, tmp_path):
        # stopping after epoch 2, checkpointing, and resuming must land on
        # exactly the same parameters as training 4 epochs in one go
        _check_resume(tmp_path, _train_cfg)

    def test_resume_matches_straight_run_with_dropout(self, tmp_path):
        _check_resume(tmp_path, lambda split: _train_cfg(split, dropout_rate=0.3))

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_shuffled_batches_match_per_step_reference(self, rate):
        # whole shuffled batches of a synthetic corpus, ragged reaches and
        # lengths: the packed pass against the per-step masked oracle
        split = _tiny_corpus(users=12, sessions=8, session_length=(1, 4))
        cfg = _train_cfg(split, max_session_reps=3, batch_size=16, dropout_rate=rate)
        params = _rand_params(cfg, seed=3)
        examples = md.build_examples(split, cfg)
        table = md._refresh_histories(split, params, cfg)
        order = np.random.default_rng(4).permutation(len(examples))
        for lo in range(0, len(order), cfg.batch_size):
            grads, rec = [], _Recorder([5, lo])
            for forward, draws in ((md._forward_batch, rec), (_per_step_forward, rec.draws)):
                tape = Tape()
                loss, *_ = forward(tape, params, cfg, examples, order[lo:lo + cfg.batch_size],
                                   draws, table)
                for t in params.named().values():
                    t.zero_grad()
                tape.backward(loss)
                grads.append((float(loss.value), {n: t.grad.copy()
                                                  for n, t in params.named().items()}))
            (got_loss, got), (want_loss, want) = grads
            assert got_loss == pytest.approx(want_loss, rel=1e-12), lo
            for name, g in want.items():
                err = np.abs(got[name] - g).max() / max(np.abs(g).max(), 1e-300)
                assert err <= 1e-12, (lo, name, err)

    def test_taped_gru_steps_only_live_rows(self, monkeypatch):
        # per batch, the taped GRU steps sum(reach) + sum(length - 1) rows,
        # none of them padding, in at most two gru_cell calls
        split = _tiny_corpus(users=12, sessions=8, session_length=(1, 4))
        cfg = _train_cfg(split, max_session_reps=3, batch_size=16)
        params = ModelParams.init(cfg, 0)
        examples = md.build_examples(split, cfg)
        table = md._refresh_histories(split, params, cfg)
        stepped = []  # rows per gru_cell call, per batch
        gru_cell = md.gru_cell

        def spy(tape, x, *args, **kw):
            stepped[-1].append(len(x.value))
            return gru_cell(tape, x, *args, **kw)

        monkeypatch.setattr(md, "gru_cell", spy)
        order = np.random.default_rng(3).permutation(len(examples))
        reach = np.minimum(examples.slot, cfg.max_session_reps)
        assert set(reach.tolist()) == {0, 1, 2, 3}
        assert (examples.length == 1).any()
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            stepped.append([])
            md._forward_batch(Tape(), params, cfg, examples, batch,
                              np.random.default_rng(0), table)
            assert len(stepped[-1]) <= 2
            assert sum(stepped[-1]) == reach[batch].sum() + (examples.length[batch] - 1).sum()

    def test_dropout_draws_only_packed_rows(self):
        # one uniform per packed entry, inter reps then item embeddings, and no
        # record beyond the 11 a batch makes without dropout (two more with it)
        split = _tiny_corpus(users=12, sessions=8, session_length=(1, 4))
        examples = md.build_examples(split, _train_cfg(split, max_session_reps=3))
        batch = np.random.default_rng(3).permutation(len(examples))[:16]
        reach = np.minimum(examples.slot[batch], 3).sum()
        inputs = (examples.length[batch] - 1).sum()
        assert reach and inputs
        for rate, records in ((0.0, 11), (0.3, 13)):
            cfg = _train_cfg(split, max_session_reps=3, dropout_rate=rate)
            params = ModelParams.init(cfg, 0)
            table = md._refresh_histories(split, params, cfg)
            rng, want = np.random.default_rng(6), np.random.default_rng(6)
            tape = Tape()
            md._forward_batch(tape, params, cfg, examples, batch, rng, table)
            assert len(tape) == records, rate
            if rate:
                want.random(reach * cfg.rep_dim + inputs * cfg.item_embedding_dim)
            assert rng.bit_generator.state == want.bit_generator.state, rate

    def test_training_never_reads_the_test_split(self, tmp_path):
        # the same train sessions with other test items: every epoch record and
        # the checkpoint bytes must match
        from thrnn.checkpoint import save_checkpoint
        split = _tiny_corpus(users=8, sessions=6)
        train_part, test_part = oracles.histories(split)
        other = oracles.split_from_histories(train_part, [
            dataclasses.replace(u, sessions=[
                dataclasses.replace(s, items=[(i + 1) % split.num_items for i in s.items])
                for s in u.sessions])
            for u in test_part], split.item_ids)
        assert any(u.sessions for u in test_part)
        cfg = _train_cfg(split)
        runs = []
        for name, sp in (("a.ckpt", split), ("b.ckpt", other)):
            lines = []
            params, _, opt_state = train(sp, cfg, epochs=2, seed=4, log=lines.append)
            save_checkpoint(str(tmp_path / name), params, cfg, optimizer_state=opt_state)
            runs.append((lines, (tmp_path / name).read_bytes()))
        assert runs[0] == runs[1]
        assert set(json.loads(runs[0][0][0])) == {"kind", "epoch", "train_loss", "time_nll",
                                                  "rec_nll"}

    def test_history_windows_stay_inside_their_user(self, monkeypatch):
        # users with 1, 4 and 20 sessions in one batch, window 3: each example's
        # inter steps read its own user's slots slot - 3 .. slot - 1 and nothing
        # before them, whatever rows sit there in the table
        cfg = _cfg(num_users=3, max_session_reps=3, num_gap_buckets=6)
        params = _rand_params(cfg, seed=40)
        rng = np.random.default_rng(41)
        lists = [[dataclasses.replace(s, gap_before=float(rng.uniform(0, 30 * DAY)) if j else 0.0)
                  for j, s in enumerate(_sessions(rng, cfg, rng.integers(2, 5, size=n)))]
                 for n in (1, 4, 20)]
        split = oracles.split_from_histories(
            [UserHistory(f"u{u}", u, sl) for u, sl in enumerate(lists)],
            [UserHistory(f"u{u}", u, []) for u in range(3)], cfg.num_items)
        examples = build_examples(split, cfg)
        assert examples.slot.tolist() == [0, 0, 1, 2, 3] + list(range(20))
        walk, inter = md._hierarchy_walk, []

        def spy(*a, **k):
            out = walk(*a, **k)
            inter.append(out[2].shape)
            return out

        monkeypatch.setattr(md, "_hierarchy_walk", spy)
        table = md._refresh_histories(split, params, cfg)
        assert inter == [(0, cfg.hidden_dim)]  # the table never reads the inter states

        seen = []  # (packed inter inputs, live counts) per inter unroll
        gru_cell = md.gru_cell

        def spy(tape, x, h0, w, live, **kw):
            if w is params.inter:
                seen.append((x.value.copy(), np.asarray(live)))
            return gru_cell(tape, x, h0, w, live, **kw)

        monkeypatch.setattr(md, "gru_cell", spy)
        md._forward_batch(Tape(), params, cfg, examples, np.arange(len(examples)),
                          np.random.default_rng(0), table)
        (x, live), = seen
        # the batch runs longest history first, ties in batch order: its j-th
        # row reads packed row j of every step that has more than j live rows
        reach = np.minimum(examples.slot, cfg.max_session_reps)
        assert len(x) == reach.sum()  # no padded row is stepped
        starts = np.cumsum(live) - live
        h_dim, gap_dim = cfg.hidden_dim, cfg.gap_embedding_dim
        objs = oracles.example_objects(examples)
        for j, i in enumerate(np.argsort(-reach, kind="stable")):
            ex = objs[i]
            own_states, own_buckets, _, _ = md._hierarchy_walk(
                params, cfg, session_table([lists[ex.user_index]], [ex.user_index]))
            want = range(max(0, ex.slot - 3), ex.slot)
            read = [x[lo + j] for lo, k in zip(starts, live) if j < k]
            assert len(read) == len(want), i
            for r, t in zip(read, want):
                np.testing.assert_allclose(r[:h_dim], own_states[t], rtol=0, atol=1e-12)
                assert np.array_equal(r[h_dim:h_dim + gap_dim],
                                      params.gap_emb.value[own_buckets[t]]), (i, t)
                assert np.array_equal(r[h_dim + gap_dim:],
                                      params.user_emb.value[ex.user_index]), (i, t)
        assert len({int(b) for b in table[1]}) > 1

    def test_divergence_aborts_with_location(self):
        split = _tiny_corpus()
        cfg = _train_cfg(split, learning_rate_time=1e9)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, batch \d+"):
            train(split, cfg, epochs=3, seed=0)

    def test_skipped_optimizer_step_aborts_with_location(self, monkeypatch):
        # a non-finite gradient behind a finite loss: Adam skips the step,
        # and training must not carry on as if it had been applied
        split = _tiny_corpus()
        cfg = _train_cfg(split)
        params = ModelParams.init(cfg, 0)
        backward = md.Tape.backward

        def poisoned(tape, loss):
            backward(tape, loss)
            params.time_b.grad = np.full_like(params.time_b.value, np.nan)

        monkeypatch.setattr(md.Tape, "backward", poisoned)
        with pytest.raises(TrainingDivergedError,
                           match=r"epoch 1, batch 1: non-finite gradient in group 'time'"):
            train(split, cfg, epochs=1, seed=0, params=params)

    def test_epoch_log_lines_parse(self):
        split = _tiny_corpus(users=8, sessions=6)
        cfg = _train_cfg(split)
        lines = []
        train(split, cfg, epochs=2, seed=1, log=lines.append)
        assert len(lines) == 2
        for ln in lines:
            rec = json.loads(ln)
            assert rec["kind"] == "epoch" and np.isfinite(rec["train_loss"])

    def test_planted_constant_rate_is_recovered(self):
        # time-only sanity: gaps drawn Exp(mean 0.5 d) everywhere, all other
        # weights frozen. Per-user predictions wobble with each user's
        # empirical mean (~23 gaps each), so the planted rate is checked on
        # the average prediction.
        split = _tiny_corpus(seed=2, users=30, sessions=24, vocab=6,
                             gap_mixture=[(1.0, 0.5)])
        cfg = _train_cfg(split, loss_weight_rec=0.0, learning_rate=0.0,
                         learning_rate_time=0.005)
        params, _, _ = train(split, cfg, epochs=25, seed=0)
        preds = []
        for tr, te in zip(*oracles.histories(split)):
            hist = UserHistory(tr.user_id, tr.user_index, tr.sessions + te.sessions)
            preds.append(predict(hist, params, cfg).return_gap_seconds / DAY)
        assert 0.45 <= float(np.mean(preds)) <= 0.55, preds

    def test_context_beats_global_mean_on_coupled_gaps(self):
        states = [sy.CouplingState(items=tuple(range(4)), gap_mean_days=0.25),
                  sy.CouplingState(items=tuple(range(4, 8)), gap_mean_days=2.5)]
        spec = sy.SynthSpec(num_users=30, sessions_per_user=24,
                            item_transition=_offdiag(8),
                            gap_mixture=[(1.0, 1.0)], context_coupling=states)
        split = sy.generate_corpus(spec, seed=3)
        cfg = _train_cfg(split, hidden_dim=24, item_embedding_dim=12, learning_rate_time=0.01)
        params, _, _ = train(split, cfg, epochs=12, seed=0)
        model_mae = evaluate(params, cfg, split).overall_mae_days
        baseline_mae = mean_gap_report(split).overall_mae_days
        assert model_mae < baseline_mae


class TestEvaluate:
    def test_report_counts(self):
        split = _tiny_corpus(users=10, sessions=6)
        cfg = _train_cfg(split)
        params = _rand_params(cfg, seed=20)
        report = evaluate(params, cfg, split)
        test = oracles.histories(split)[1]
        want_ranks = sum(len(s.items) - 1 for u in test for s in u.sessions)
        want_gaps = sum(1 for u in test for s in u.sessions if not s.gap_masked)
        assert report.num_rank_events == want_ranks
        assert report.num_gap_events == want_gaps
        assert 0.0 <= report.recall[5] <= 1.0
        assert report.overall_mae_days > 0

    def test_ranks_match_per_step_predict_scores(self):
        # users end at different slots and their sessions differ in length;
        # with batch_size 3 the walk's rank blocks span steps, slots and users
        cfg = _cfg(num_items=9, num_users=4, batch_size=3, max_session_reps=2)
        params = _rand_params(cfg, seed=25)
        rng = np.random.default_rng(26)
        lists = [_sessions(rng, cfg, n) for n in ([3, 1, 4, 2, 5], [2, 6], [],
                                                  [1, 3, 2, 4, 1, 3, 2])]
        first = [1, 0, 0, 3]
        ranked = np.concatenate([np.arange(len(sl)) >= f for sl, f in zip(lists, first)])
        _, _, _, ranks = md._hierarchy_walk(params, cfg, session_table(lists, range(4)),
                                            ranked=ranked)
        # one array in table order: each user's sessions and then steps, users
        # in order; user 2 has none
        want = [ev.rank_of_target(row, sessions[j].items[t + 1])
                for u, sessions in enumerate(lists) for j in range(first[u], len(sessions))
                for t, row in enumerate(_step_scores(params, cfg, sessions, j, user=u))]
        assert ranks.tolist() == want

    def test_popularity_ranks_match_per_event_reference(self, monkeypatch):
        split = _tiny_corpus(users=10, sessions=6, vocab=12)
        counts = np.zeros(split.num_items)
        train, test = oracles.histories(split)
        for u in train:
            for s in u.sessions:
                for it in s.items:
                    counts[it] += 1
        want = [ev.rank_of_target(counts, t)
                for u in test for s in u.sessions for t in s.items[1:]]
        seen = []
        monkeypatch.setattr(ev, "build_report",
                            lambda model, ranks, *a, **kw: seen.append(list(ranks)))
        ev.popularity_report(split)
        assert seen == [want]

    @pytest.mark.parametrize("name, bad", [("out_b", np.nan), ("intra.u", np.inf),
                                           ("time_w", -np.inf)])
    def test_non_finite_parameter_refused_by_name(self, name, bad):
        # a NaN score is never ahead of the target, so a NaN model would
        # otherwise report recall@5 = MRR@5 = 1.0
        split = _tiny_corpus(users=6, sessions=5)
        cfg = _train_cfg(split)
        params = _rand_params(cfg, seed=23)
        params.named()[name].value.reshape(-1)[-1] = bad
        with pytest.raises(ValueError, match=f"parameter '{name}' holds non-finite values"):
            evaluate(params, cfg, split)

    def test_inference_is_deterministic_with_dropout_configured(self):
        split = _tiny_corpus(users=6, sessions=5)
        cfg = _train_cfg(split, dropout_rate=0.5)
        params = _rand_params(cfg, seed=21)
        r1 = evaluate(params, cfg, split)
        r2 = evaluate(params, cfg, split)
        assert r1.recall == r2.recall
        assert r1.overall_mae_days == r2.overall_mae_days


class TestPredict:
    def _setup(self, **kw):
        split = _tiny_corpus(users=6, sessions=5)
        cfg = _train_cfg(split, **kw)
        return oracles.histories(split)[0], cfg, _rand_params(cfg, seed=22)

    def test_top_k_shape_and_order(self):
        train, cfg, params = self._setup()
        hist = train[0]
        pred = predict(hist, params, cfg, k=5)
        assert len(pred.items) == 5 and len(set(pred.items.tolist())) == 5
        assert np.all(np.diff(pred.scores) <= 0)
        assert np.isfinite(pred.return_gap_seconds) and pred.return_gap_seconds > 0

    def test_ties_break_toward_lower_index(self):
        train, cfg, params = self._setup()
        params.out_w.value[:] = 0.0
        params.out_b.value[:] = 0.0
        pred = predict(train[0], params, cfg, k=4)
        assert pred.items.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("scores", [
        [0.5, 2.0, 2.0, 1.0, 2.0, 1.0, 1.0, -3.0, 2.0, 1.0],  # ties straddle k
        [1.0] * 10,
        [3.0, -1.0, 7.5, 0.0, -0.0, 7.5, 2.0, 2.0, -1.0, 9.0],
    ])
    def test_top_k_matches_full_stable_argsort(self, scores):
        train, cfg, params = self._setup()
        scores = np.resize(np.asarray(scores), cfg.num_items)
        params.out_w.value[:] = 0.0
        params.out_b.value[:] = scores
        for k in range(1, cfg.num_items + 1):
            pred = predict(train[0], params, cfg, k=k)
            want = np.argsort(-scores, kind="stable")[:k]
            assert pred.items.tolist() == want.tolist(), k
            assert np.array_equal(pred.scores, scores[want])

    def test_score_shift_leaves_ranking_alone(self):
        train, cfg, params = self._setup()
        before = predict(train[1], params, cfg, k=6).items
        params.out_b.value += 11.0
        after = predict(train[1], params, cfg, k=6).items
        assert before.tolist() == after.tolist()

    @pytest.mark.parametrize("name, message", [("out_b", "item scores are not finite"),
                                               ("time_v", "expected return time is not finite")])
    def test_non_finite_model_refused(self, name, message):
        # one NaN among finite values is enough, even where it would not reach the top k
        train, cfg, params = self._setup()
        params.named()[name].value.reshape(-1)[1] = np.nan
        with pytest.raises(ValueError, match=message):
            predict(train[0], params, cfg, k=1)

    def test_evaluate_and_predict_read_out_at_the_model_alpha(self, monkeypatch):
        # both reports hand the config's alpha to point_process, whose read-out
        # is in days at every alpha, and scale it to seconds
        train, cfg, params = self._setup(alpha_exp=0.5)
        seen, real = [], pp.expected_return_time_from_s

        def spy(s, w, q, alpha=1.0):
            seen.append((alpha, real(s, w, q, alpha)))
            return seen[-1][1]

        monkeypatch.setattr(pp, "expected_return_time_from_s", spy)
        md.evaluate(params, cfg, _tiny_corpus(users=6, sessions=5))
        got = predict(train[0], params, cfg, k=1).return_gap_seconds
        assert [alpha for alpha, _ in seen] == [0.5, 0.5]
        assert got == seen[1][1][0] * DAY

    def test_two_calls_identical(self):
        train, cfg, params = self._setup(dropout_rate=0.4)
        a = predict(train[2], params, cfg, k=5)
        b = predict(train[2], params, cfg, k=5)
        assert a.items.tolist() == b.items.tolist()
        assert a.return_gap_seconds == b.return_gap_seconds

    def test_input_validation(self):
        train, cfg, params = self._setup()
        with pytest.raises(ValueError, match="session"):
            predict(UserHistory("u", 0, []), params, cfg)
        with pytest.raises(ValueError, match=r"history: field 'items' of session 0 holds 99, "
                                             r"outside \[0, 8\)"):
            bad = UserHistory("u", 0, [Session(items=[0, 99], start_time=0.0,
                                               end_time=30.0)])
            predict(bad, params, cfg)
        with pytest.raises(ValueError, match=r"user index 99 outside \[0, "):
            predict(UserHistory("u", 99, train[0].sessions), params, cfg)
        with pytest.raises(ValueError, match="k must"):
            predict(train[0], params, cfg, k=0)

    @pytest.mark.parametrize("index", [0.5, 1.0, "0", None, True])
    def test_non_integer_user_index_is_a_type_fault(self, index):
        # the split file's rule and wording, not a range message
        train, cfg, params = self._setup()
        with pytest.raises(ValueError, match=f"^user_index is {re.escape(repr(index))}, "
                                             "not an integer$"):
            predict(UserHistory("u", index, train[0].sessions), params, cfg)

    def test_session_without_items_rejected(self):
        train, cfg, params = self._setup()
        sessions = list(train[0].sessions)
        sessions[1] = dataclasses.replace(sessions[1], items=[])
        with pytest.raises(ValueError, match="history: field 'items' of session 1 is empty"):
            predict(UserHistory("u", 0, sessions), params, cfg)

    @pytest.mark.parametrize("change, message", [
        ({"items": [1.5, 2.9]}, "field 'items' of session 1 holds 1.5, not an integer"),
        ({"items": [0, True]}, "field 'items' of session 1 holds True, not an integer"),
        ({"items": [np.bool_(True)]}, "field 'items' of session 1 holds True, not an integer"),
        ({"gap_before": float("nan")}, "field 'gap' of session 1 is nan, not a finite number"),
        ({"gap_before": -5.0}, "field 'gap' of session 1 is -5.0, negative"),
        ({"end_time": -1.0}, "field 'end' of session 1 is -1.0, before its start"),
    ])
    def test_history_refused_by_the_split_files_rule(self, change, message):
        # a hand-built history passes data.session_columns, as a history file
        # does: no item is cast to an integer and no NaN reaches the walk
        train, cfg, params = self._setup()
        sessions = list(train[0].sessions)
        sessions[1] = dataclasses.replace(sessions[1], **change)
        with pytest.raises(ValueError, match=re.escape(f"history: {message}")):
            predict(UserHistory("u", 0, sessions), params, cfg)

    def test_numpy_scalars_are_the_numbers_they_hold(self):
        train, cfg, params = self._setup()
        sessions = [dataclasses.replace(s, items=np.array(s.items), start_time=np.float64(
            s.start_time)) for s in train[0].sessions]
        got = predict(UserHistory("u", np.int64(0), sessions), params, cfg)
        want = predict(train[0], params, cfg)
        assert got.items.tolist() == want.items.tolist()
        assert got.return_gap_seconds == want.return_gap_seconds

    def test_return_time_conditions_on_the_last_window(self):
        # six sessions, window two: the return time reads the inter state
        # after the last session, unrolled over intra states 4 and 5 only
        cfg = _cfg(max_session_reps=2)
        params = _rand_params(cfg, seed=23)
        sessions = _sessions(np.random.default_rng(24), cfg, [3, 2, 4, 2, 3, 2])
        intra_states, buckets, _, _ = md._hierarchy_walk(
            params, cfg, session_table([sessions], [1]))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def cell(x, h, w):
            (w_r, w_z, w_c), (u_r, u_z, u_c), (b_r, b_z, b_c) = (
                np.split(t.value, 3, axis=-1) for t in w.tensors())
            r = sig(x @ w_r + h @ u_r + b_r)
            z = sig(x @ w_z + h @ u_z + b_z)
            c = np.tanh(x @ w_c + (r * h) @ u_c + b_c)
            return (1 - z) * h + z * c

        h = np.zeros(cfg.hidden_dim)
        for t in (4, 5):
            h = cell(np.concatenate([intra_states[t],
                                     params.gap_emb.value[buckets[t]],
                                     params.user_emb.value[1]]), h, params.inter)
        s = float(h @ params.time_v.value[:, 0] + params.time_b.value[0])
        want = pp.expected_return_time_from_s(s, float(params.time_w.value),
                                              pp.QUADRATURE)[0] * DAY
        got = predict(UserHistory("u", 1, sessions), params, cfg).return_gap_seconds
        assert got == pytest.approx(want, rel=1e-12)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _split_of(cfg, lists, n_train):
    """Each user's first n_train sessions train, the rest test."""
    return oracles.split_from_histories(
        [UserHistory(f"u{u}", u, sl[:n_train]) for u, sl in enumerate(lists)],
        [UserHistory(f"u{u}", u, sl[n_train:]) for u, sl in enumerate(lists)], cfg.num_items)


class TestMemory:
    def test_training_holds_one_step_of_gradients(self):
        # a wide vocabulary, so that the output layer's arrays dominate: a
        # step holds the parameters, two Adam moments, one gradient set and
        # one (batch_size, items) score block; the slack covers the rest
        # (dw's column strip, Adam's scratch, the history table, the batch)
        cfg = _cfg(num_items=20_000, num_users=20, item_embedding_dim=8, hidden_dim=16,
                   batch_size=32)
        rng = np.random.default_rng(31)
        split = _split_of(cfg, [_sessions(rng, cfg, rng.integers(2, 7, size=12))
                                for _ in range(cfg.num_users)], 10)
        params = sum(t.value.nbytes for t in ModelParams.init(cfg, 0).named().values())
        block = cfg.batch_size * cfg.num_items * 8
        peak = _traced_peak(train, split, cfg, 1, 0)
        assert peak < 4 * params + block + 2**20, (peak, params, block)

    def test_evaluate_grows_by_less_than_an_intra_state_per_train_session(self):
        # evaluate reads no intra state and only the test gaps' inter
        # states: doubling the train sessions, with the test sessions fixed,
        # grows its peak by less than the whole-table intra_states rows of
        # the added sessions (h = 64 outweighs the schedule's per-session bytes)
        cfg = _cfg(num_items=20, num_users=30, item_embedding_dim=8, user_embedding_dim=4,
                   gap_embedding_dim=4, hidden_dim=64, batch_size=16)
        params = ModelParams.init(cfg, 0)
        peaks = []
        for n_train in (20, 40):
            rng = np.random.default_rng(32)
            lists = [_sessions(rng, cfg, rng.integers(2, 6, size=n_train + 3))
                     for _ in range(cfg.num_users)]
            peaks.append(_traced_peak(evaluate, params, cfg, _split_of(cfg, lists, n_train)))
        added = cfg.num_users * 20
        assert peaks[1] - peaks[0] < added * cfg.hidden_dim * 8, peaks

    def test_next_refresh_runs_beside_no_old_history_table(self, monkeypatch):
        # the table grows with the train sessions (about 0.9 GB at Reddit
        # scale), so each epoch's is freed before the next refresh builds its own
        split = _tiny_corpus(users=12, sessions=6)
        refresh, tables, alive = md._refresh_histories, [], []

        def spy(*args):
            alive.append([t() is not None for t in tables])
            out = refresh(*args)
            tables.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(md, "_refresh_histories", spy)
        train(split, _train_cfg(split), epochs=3, seed=0)
        assert alive == [[], [False], [False, False]]


def _opt_state(params):
    from thrnn.optim import Adam, ParamGroup
    opt = Adam([ParamGroup("main", params.main_tensors(), lr=1e-3),
                ParamGroup("time", params.time_tensors(), lr=1e-4)])
    for t in params.main_tensors() + params.time_tensors():
        t.grad = np.full_like(t.value, 0.01)
    opt.step()
    return opt.state_arrays()


def _edit_header(path, edit):
    import json
    import struct
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[12:20])
    header = json.loads(raw[20:20 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:])


def _in_bytes(change):
    """A tampering that rewrites a checkpoint file's bytes with `change`."""
    return lambda path: path.write_bytes(change(path.read_bytes()))


def _in_header(edit):
    """A tampering that rewrites a checkpoint file's JSON header with `edit`."""
    return lambda path: _edit_header(path, edit)


class TestCheckpoint:
    @pytest.mark.parametrize("kw", [{}, {"num_items": 40, "hidden_dim": 7, "user_embedding_dim": 5}])
    def test_shapes_helper_matches_init(self, kw):
        cfg = _cfg(**kw)
        params = ModelParams.init(cfg, seed=0)
        assert {n: t.value.shape for n, t in params.named().items()} == ModelParams.shapes(cfg)

    def test_load_without_optimizer_reads_only_the_model(self, tmp_path):
        # every array, the Adam moments too, is a view of the file's mapping:
        # predict and evaluate never read the moments, so none of their pages
        # is faulted in
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg, seed=31)
        path = str(tmp_path / "model.ckpt")
        state = _opt_state(params)
        save_checkpoint(path, params, cfg, optimizer_state=state, meta={"seed": 1})
        loaded, cfg2, opt_state, meta = load_checkpoint(path)
        assert (cfg2, meta) == (cfg, {"seed": 1})
        assert sorted(opt_state) == sorted(state)
        values = []
        for name, want in [(n, t.value) for n, t in params.named().items()] + list(state.items()):
            value = loaded.named()[name].value if name in params.named() else opt_state[name]
            assert np.array_equal(want, value), name
            # an aligned view of the file's mapping, not a copy, and writeable for Adam
            assert value.dtype == np.float64 and value.flags.writeable, name
            assert value.flags.aligned and not value.flags.owndata, name
            values.append(value)
        # Adam updates values in place: no two arrays may share memory
        assert not any(np.shares_memory(a, b) for i, a in enumerate(values)
                       for b in values[i + 1:])

    def test_payload_starts_64_byte_aligned(self, tmp_path):
        import json
        import struct
        from thrnn.checkpoint import save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        for meta in (None, {"seed": 1}, {"seed": 12345, "epochs_completed": 7}):
            save_checkpoint(str(path), _rand_params(cfg), cfg, meta=meta)
            raw = path.read_bytes()
            (hlen,) = struct.unpack("<Q", raw[12:20])
            assert (20 + hlen) % 64 == 0
            assert json.loads(raw[20:20 + hlen])["meta"] == meta  # the padding is JSON whitespace

    def test_loaded_model_and_its_file_stay_apart(self, tmp_path):
        import hashlib
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg, seed=32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), params, cfg, optimizer_state=_opt_state(params))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        loaded, _, opt_state, _ = load_checkpoint(str(path))
        # writes to the loaded arrays, as Adam makes on resume, never reach the file
        for value in [t.value for t in loaded.named().values()] + list(opt_state.values()):
            value += 1.0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        # and a save over the path leaves an already loaded model as it was
        kept, _, _, _ = load_checkpoint(str(path))
        save_checkpoint(str(path), _rand_params(cfg, seed=33), cfg)
        for name, tensor in params.named().items():
            assert np.array_equal(kept.named()[name].value, tensor.value), name

    def test_failed_save_leaves_old_file(self, tmp_path, monkeypatch):
        from thrnn import checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        checkpoint.save_checkpoint(str(path), _rand_params(cfg, seed=34), cfg)
        old = path.read_bytes()

        class DiskFullAfterHeader:
            # the header is written, then the first array fails
            def __init__(self):
                self.calls = 0

            def update(self, buf):
                self.calls += 1
                if self.calls == 2:
                    raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint.hashlib, "sha256", DiskFullAfterHeader)
        with pytest.raises(OSError, match="No space left"):
            checkpoint.save_checkpoint(str(path), _rand_params(cfg, seed=35), cfg)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_save_replaces_through_a_symlink_and_refuses_a_fifo(self, tmp_path):
        import os
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg, seed=37)
        (tmp_path / "real.ckpt").write_bytes(b"old")
        os.symlink("real.ckpt", tmp_path / "link.ckpt")
        save_checkpoint(str(tmp_path / "link.ckpt"), params, cfg)
        assert (tmp_path / "link.ckpt").is_symlink()
        loaded, _, _, _ = load_checkpoint(str(tmp_path / "real.ckpt"))
        assert np.array_equal(loaded.out_w.value, params.out_w.value)
        # replacing a device or a pipe would put a regular file in its place
        os.mkfifo(tmp_path / "pipe")
        with pytest.raises(ValueError, match="pipe: not a regular file"):
            save_checkpoint(str(tmp_path / "pipe"), params, cfg)
        assert (tmp_path / "pipe").is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ckpt", "pipe", "real.ckpt"]

    def test_unpadded_header_gives_identical_outputs(self, tmp_path):
        # files written before the header was padded have an unaligned
        # payload; their arrays are copied, and every output is the same
        import struct
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        from thrnn.evaluation import save_plot_data, save_report
        split = _tiny_corpus(users=6, sessions=5)
        cfg = _train_cfg(split)
        padded, unpadded = tmp_path / "padded.ckpt", tmp_path / "unpadded.ckpt"
        save_checkpoint(str(padded), _rand_params(cfg, seed=36), cfg)
        for k in range(8):  # a k-byte note in the metadata sets the header's length
            unpadded.write_bytes(padded.read_bytes())
            _edit_header(unpadded, lambda header: header.update(meta={"note": "x" * k}))
            (hlen,) = struct.unpack("<Q", unpadded.read_bytes()[12:20])
            if (20 + hlen) % 8 != 0:
                break
        assert (20 + hlen) % 8 != 0

        outputs = []
        for path in (padded, unpadded):
            params, cfg2, _, _ = load_checkpoint(str(path))
            assert cfg2 == cfg
            assert all(t.value.flags.aligned for t in params.named().values())
            preds = [predict(u, params, cfg, k=3) for u in oracles.histories(split)[0]]
            report = evaluate(params, cfg, split)
            save_report(report, str(path) + ".report")
            save_plot_data(report, str(path) + ".plot")
            outputs.append(([(p.items.tobytes(), p.scores.tobytes(), p.return_gap_seconds)
                             for p in preds],
                            (tmp_path / (path.name + ".report")).read_bytes(),
                            (tmp_path / (path.name + ".plot")).read_bytes()))
        assert outputs[0] == outputs[1]

    def test_rejects_empty_file(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty.ckpt: not a checkpoint file"):
            load_checkpoint(str(path))

    def test_save_returns_digest_of_written_bytes(self, tmp_path):
        import hashlib
        from thrnn.checkpoint import save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg)
        path = tmp_path / "m.ckpt"
        digest = save_checkpoint(str(path), params, cfg, optimizer_state=_opt_state(params))
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_roundtrip_with_optimizer(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        from thrnn.optim import Adam, ParamGroup
        cfg = _cfg()
        params = _rand_params(cfg, seed=30)
        opt = Adam([ParamGroup("main", params.main_tensors(), lr=1e-3),
                    ParamGroup("time", params.time_tensors(), lr=1e-4)])
        for t in params.main_tensors() + params.time_tensors():
            t.grad = np.full_like(t.value, 0.01)
        opt.step()
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, params, cfg, optimizer_state=opt.state_arrays())

        loaded, cfg2, opt_state, meta = load_checkpoint(path)
        assert cfg2 == cfg
        assert meta is None
        for name, tensor in params.named().items():
            assert np.array_equal(tensor.value, loaded.named()[name].value), name
        assert opt_state["adam_t"][0] == 1.0
        opt2 = Adam([ParamGroup("main", loaded.main_tensors(), lr=1e-3),
                     ParamGroup("time", loaded.time_tensors(), lr=1e-4)])
        opt2.load_state_arrays(opt_state)
        assert opt2.t == 1

    def test_meta_roundtrip(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, _rand_params(cfg), cfg,
                        meta={"epochs_completed": 3, "seed": 11})
        *_, meta = load_checkpoint(path)
        assert meta == {"epochs_completed": 3, "seed": 11}

    def test_rejects_foreign_files(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(str(path))

    def test_rejects_future_version(self, tmp_path):
        import struct
        from thrnn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 99"):
            load_checkpoint(str(path))

    def test_rejects_v3_checkpoint_by_its_version(self, tmp_path):
        # version 3's config held time_unit, gap_bucket_bound and
        # gap_bucket_scheme; the version alone refuses such a file
        import struct
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "v3.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        _edit_header(path, lambda header: (header.update(version=3), header["config"].update(
            time_unit=86400.0, gap_bucket_bound=30 * 86400.0, gap_bucket_scheme="uniform")))
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"v3\.ckpt: unsupported checkpoint version 3$"):
            load_checkpoint(str(path))

    def test_rejects_v1_and_v2_checkpoints(self, tmp_path):
        # version 1 had separate inter and intra widths, version 2 nine
        # tensors per GRU cell; both are refused before their config is
        # read, so old files fail cleanly
        import struct
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "old.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        raw = bytearray(path.read_bytes())
        for version in (1, 2):
            raw[8:12] = struct.pack("<I", version)
            path.write_bytes(bytes(raw))
            with pytest.raises(ValueError,
                               match=f"unsupported checkpoint version {version}"):
                load_checkpoint(str(path))

    @pytest.mark.parametrize("edit, message", [
        ({"bogus": 1}, "field 'config' has unknown field 'bogus'"),
        ({"hidden_dim": 0}, "bad config: hidden_dim must be positive, got 0"),
    ])
    def test_rejects_bad_config_naming_the_field(self, tmp_path, edit, message):
        import json
        import struct
        from thrnn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + hlen])
        header["config"].update(edit)
        blob = json.dumps(header).encode()
        path.write_bytes(MAGIC + raw[8:12] + struct.pack("<Q", len(blob)) + blob
                         + raw[20 + hlen:])
        with pytest.raises(ValueError, match=f"m.ckpt: {message}"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("corrupt, message", [
        (_in_bytes(lambda raw: b"NOTACKPT" + raw[8:]), "not a checkpoint file"),
        (_in_bytes(lambda raw: raw[:15]), "truncated: 15 bytes, under the 20-byte prefix"),
        (_in_bytes(lambda raw: raw[:8] + (99).to_bytes(4, "little") + raw[12:]),
         "unsupported checkpoint version 99"),
        (_in_bytes(lambda raw: raw[:12] + (10 ** 9).to_bytes(8, "little") + raw[20:]),
         "truncated: a 1000000000-byte header"),
        (_in_bytes(lambda raw: raw[:20] + b"x" + raw[21:]), "line 1 is not JSON"),
        (_in_header(lambda h: h.pop("params")), "header has no field 'params'"),
        (_in_header(lambda h: h["config"].update(colour=1)),
         "field 'config' has unknown field 'colour'"),
        (_in_header(lambda h: h.update(params=3)), "field 'params' is 3, not a list"),
        (_in_header(lambda h: h["params"][0].update(name=5)), "params record 0 has name 5"),
        (_in_header(lambda h: h["params"][0].update(shape=[1.5])),
         "not a list of non-negative integers"),
        (_in_header(lambda h: h["config"].update(alpha_exp=2.0)),
         "bad config: alpha_exp must lie in [0.3, 1]"),
        (_in_header(lambda h: h["params"].pop(0)), "parameter set mismatch"),
        (_in_bytes(lambda raw: raw + bytes(8)), "trailing bytes"),
    ])
    def test_every_refusal_is_a_value_error(self, tmp_path, corrupt, message):
        # the file's bytes, its header's JSON and keys (data's IngestError),
        # the manifest and the config: one except clause catches them all
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        corrupt(path)
        try:
            load_checkpoint(str(path))
        except ValueError as err:
            assert str(err).startswith(f"{path}: ") and message in str(err), err
        else:
            raise AssertionError("load_checkpoint accepted a corrupt file")

    @pytest.mark.parametrize("field, value, rule", BAD_CONFIGS)
    def test_rejects_config_values_that_break_training(self, tmp_path, field, value, rule):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        _edit_header(path, lambda header: header["config"].update({field: value}))
        with pytest.raises(ValueError, match=f"m.ckpt: bad config: {field} {rule}"):
            load_checkpoint(str(path))

    def test_rejects_truncation(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(path))

    def test_rejects_truncation_inside_optimizer_section(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), params, cfg, optimizer_state=_opt_state(params))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="m.ckpt: truncated"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("with_optimizer", [True, False])
    def test_rejects_trailing_bytes(self, tmp_path, with_optimizer):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), params, cfg,
                        optimizer_state=_opt_state(params) if with_optimizer else None)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="m.ckpt: trailing bytes"):
            load_checkpoint(str(path))

    def test_rejects_wrong_shape_naming_the_array(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)

        def reshape(header):
            rec = next(r for r in header["params"] if r["name"] == "inter.u")
            rec["shape"] = [8, 6]  # same element count, so the payload still fits

        _edit_header(path, reshape)
        with pytest.raises(ValueError, match=r"m.ckpt: array 'inter.u' has shape \(8, 6\), "
                                             r"config implies \(4, 12\)"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("section", ["params", "optimizer"])
    @pytest.mark.parametrize("shape", [[6.0], ["6"], [True], [-1]])
    def test_rejects_mistyped_manifest_shape(self, tmp_path, section, shape):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        params = _rand_params(cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), params, cfg, optimizer_state=_opt_state(params))
        name = "out_b" if section == "params" else "adam_m_main_10"  # both (6,)

        def edit(header):
            next(r for r in header[section] if r["name"] == name)["shape"] = shape

        _edit_header(path, edit)
        with pytest.raises(ValueError, match=rf"m.ckpt: array '{name}' has shape "
                                             r"\[.*\], not a list of non-negative integers"):
            load_checkpoint(str(path))

    def test_rejects_parameter_set_mismatch(self, tmp_path):
        from thrnn.checkpoint import load_checkpoint, save_checkpoint
        cfg = _cfg()
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), _rand_params(cfg), cfg)

        def rename(header):
            next(r for r in header["params"] if r["name"] == "time_w")["name"] = "time_x"

        _edit_header(path, rename)
        with pytest.raises(ValueError, match=r"parameter set mismatch \(missing \['time_w'\], "
                                             r"unexpected \['time_x'\]\)"):
            load_checkpoint(str(path))
