"""Acceptance gates for the whole package.

One test per numbered criterion. Each prints a single verdict line with
the measured values before asserting, so a transcript shows exactly how
much headroom every gate had. Corpus sizes, seeds, and tolerances are
fixed on purpose; if a gate fails, the property is broken. Do not widen
the tolerance.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
import pytest

from thrnn import model as md
from thrnn import point_process as pp
from thrnn import synthetic as sy
from thrnn.autodiff import Tape
from thrnn.data import (PreprocessConfig, Session, UserHistory, preprocess,
                        read_reddit_csv)
from thrnn.evaluation import (hawkes_report, mean_gap_report,
                              popularity_report, recall_at_k)
from thrnn.hawkes import FitConfig, HawkesParams, fit, hawkes_predict_next
from thrnn.model import ModelConfig, ModelParams, evaluate, predict, train

import oracles


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rand_params(cfg: ModelConfig, seed: int) -> ModelParams:
    p = ModelParams.init(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    p.time_v.value = rng.normal(0, 0.3, p.time_v.value.shape)
    p.time_b.value = np.array([0.2])
    p.time_w.value = np.asarray(0.3)
    return p


def _example(rng, cfg, rows, n_hist, n_items, gap, user):
    """An example whose history is appended to `rows`, a pair of lists
    (intra states, gap buckets), followed by its own row, which nothing reads."""
    for _ in range(n_hist):
        rows[0].append(rng.normal(0, 0.5, cfg.hidden_dim))
        rows[1].append(int(rng.integers(cfg.num_gap_buckets)))
    rows[0].append(np.zeros(cfg.hidden_dim))
    rows[1].append(0)
    items = rng.integers(cfg.num_items, size=n_items + 1)
    return oracles.TrainingExample(user_index=user, slot=n_hist, row=len(rows[0]) - 1,
                           inputs=items[:-1].astype(np.int64),
                           targets=items[1:].astype(np.int64),
                           gap_target=gap, time_masked=False)


def _bucket_mae(report, lo_days, hi_days):
    num = den = 0.0
    for row in report.mae_buckets:
        if row.low_days >= lo_days and row.high_days <= hi_days \
                and row.mae_days is not None:
            num += row.mae_days * row.count
            den += row.count
    return num / den if den else float("nan")


# ---------------------------------------------------------------------------
# 1: end-to-end gradients


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    cfg = ModelConfig(num_items=6, num_users=3, item_embedding_dim=3,
                      user_embedding_dim=2, gap_embedding_dim=2,
                      hidden_dim=4, num_gap_buckets=3, batch_size=2)
    params = _rand_params(cfg, seed=8)
    rng = np.random.default_rng(9)
    rows = ([], [])
    batch = (oracles.examples_of([
        _example(rng, cfg, rows, n_hist=2, n_items=3, gap=1.7, user=0),
        _example(rng, cfg, rows, n_hist=2, n_items=2, gap=0.6, user=1)]), np.arange(2))
    table = (np.array(rows[0]), np.array(rows[1], dtype=np.int64))

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
    worst, worst_name = 0.0, "-"
    for name, tensor in params.named().items():
        fd = oracles.fd_gradient(loss_value, tensor.value)
        got = (tensor.grad if tensor.grad is not None
               else np.zeros_like(tensor.value))
        err = oracles.rel_error(got, fd)
        if err > worst:
            worst, worst_name = err, name
    elapsed = time.time() - t0
    _verdict(1, worst < 1e-4 and elapsed < 10.0,
             f"worst grad error {worst:.2e} ({worst_name}), "
             f"{elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2: density normalization and branch continuity


def test_criterion_2_density_normalizes_and_branches_agree():
    t0 = time.time()
    rng = np.random.default_rng(12)
    q = pp.QuadratureConfig(cutoff=30.0)
    masses = []
    while len(masses) < 100:
        s, w = rng.uniform(-2, 2), rng.uniform(-1, 1)
        # negative w makes the density defective (total mass < 1), so a
        # window integral near 1 is only meaningful for draws whose
        # analytic mass actually reaches the window; condition on that
        # and let the check measure quadrature accuracy alone
        if float(oracles.cdf_from_s(q.cutoff, s, w)) < 0.995:
            continue
        masses.append(float(oracles.density_mass_from_s(np.array([s]), w, q.cutoff)[0]))
    masses = np.asarray(masses)
    ok_mass = bool(np.all((masses >= 0.99) & (masses <= 1.001)))

    # branch agreement, probed where each density actually puts its mass
    u = np.linspace(0.01, 0.95, 40)
    gap = 0.0
    for s in np.linspace(-2, 2, 21):
        g = oracles.inverse_cdf_from_s(u, s, 0.0)
        lim = oracles.log_density_from_s(s, g, 0.0)
        exact = oracles.log_density_from_s(s, g, 1e-7, branch="exact")
        gap = max(gap, float(np.max(np.abs(lim - exact))))
    elapsed = time.time() - t0
    _verdict(2, ok_mass and gap < 1e-5 and elapsed < 5.0,
             f"mass in [{masses.min():.5f}, {masses.max():.5f}] over 100 "
             f"draws, branch gap {gap:.1e}, {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# 3: expected return time vs two oracles


def test_criterion_3_expectation_matches_monte_carlo_and_closed_form():
    t0 = time.time()
    q = pp.QuadratureConfig(cutoff=30.0)
    s, w = 0.2, 0.5
    expect = float(pp.expected_return_time_from_s(np.array([s]), w, q)[0])
    draws = oracles.inverse_cdf_from_s(np.random.default_rng(0).random(1_000_000),
                                  s, w)
    mc = float(np.mean(draws * (draws <= q.cutoff)))
    rel_mc = abs(expect - mc) / mc

    # unit-rate exponential, truncated at T: integral t f(t) dt over [0,T]
    # is 1 - (T+1) e^{-T}
    q10 = pp.QuadratureConfig(cutoff=10.0)
    got = float(pp.expected_return_time_from_s(np.array([0.0]), 0.0, q10)[0])
    closed = 1.0 - 11.0 * np.exp(-10.0)
    diff = abs(got - closed)
    elapsed = time.time() - t0
    _verdict(3, rel_mc < 0.005 and diff < 1e-4 and elapsed < 30.0,
             f"MC rel {rel_mc:.5f} (< 0.005), closed-form diff {diff:.1e} "
             f"(< 1e-4), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 4: Hawkes parameter recovery and next-gap prediction


def test_criterion_4_hawkes_fit_recovers_planted_parameters():
    t0 = time.time()
    true = HawkesParams(gamma0=0.5, excitation=0.8, decay=2.0)
    events = oracles.simulate_thinning(true, 5000, np.random.default_rng(0))
    fitted = fit([events], FitConfig(window="full"))[0]
    rels = {f: abs(getattr(fitted, f) - getattr(true, f)) / getattr(true, f)
            for f in ("gamma0", "excitation", "decay")}
    worst = max(rels, key=rels.get)

    history = events[:50]
    q = pp.QuadratureConfig(cutoff=30.0)
    pred = hawkes_predict_next([history], [true], q, [[-1]])[0]
    sim = float(np.mean(oracles.sample_next_gaps(history, true,
                                         np.random.default_rng(1),
                                         n=200_000)))
    rel_pred = abs(pred - sim) / sim
    elapsed = time.time() - t0
    _verdict(4, rels[worst] < 0.15 and rel_pred < 0.01 and elapsed < 60.0,
             f"worst param error {rels[worst]:.3f} ({worst}, < 0.15), "
             f"next-gap rel {rel_pred:.4f} (< 0.01), {elapsed:.0f}s (< 60s)")


# ---------------------------------------------------------------------------
# 5: exponent steers short- vs long-gap accuracy


def _bimodal_corpus(seed):
    rng = np.random.default_rng(1000)
    vocab = 30
    transition = rng.dirichlet(np.full(vocab, 0.5), size=vocab)
    spec = sy.SynthSpec(num_users=200, sessions_per_user=60,
                        item_transition=transition,
                        gap_mixture=[(0.5, 0.2), (0.5, 5.0)])
    return sy.generate_corpus(spec, seed=seed)


def test_criterion_5_alpha_trades_short_against_long_gaps():
    t0 = time.time()
    short = {0.3: [], 1.0: []}
    long_ = {0.3: [], 1.0: []}
    for seed in (0, 1, 2):
        split = _bimodal_corpus(seed)
        for alpha in (0.3, 1.0):
            cfg = ModelConfig(num_items=split.num_items,
                              num_users=split.num_users,
                              item_embedding_dim=12, user_embedding_dim=4,
                              gap_embedding_dim=3, hidden_dim=16, batch_size=100,
                              num_gap_buckets=10, alpha_exp=alpha)
            params, _, _ = train(split, cfg, epochs=8, seed=seed)
            rep = evaluate(params, cfg, split)
            short[alpha].append(_bucket_mae(rep, 0, 1))
            long_[alpha].append(_bucket_mae(rep, 2, 31))
    s03, s10 = float(np.mean(short[0.3])), float(np.mean(short[1.0]))
    l03, l10 = float(np.mean(long_[0.3])), float(np.mean(long_[1.0]))
    elapsed = time.time() - t0
    _verdict(5, s03 < s10 and l10 < l03 and elapsed < 1200.0,
             f"short-gap MAE {s03:.3f} @a=0.3 < {s10:.3f} @a=1.0; long-gap "
             f"{l10:.3f} @a=1.0 < {l03:.3f} @a=0.3; {elapsed:.0f}s (< 1200s)")


# ---------------------------------------------------------------------------
# 6: joint model beats history-only gap predictors


def _coupled_corpus(seed):
    vocab = 12
    states = [sy.CouplingState(items=tuple(range(6)), gap_mean_days=0.25),
              sy.CouplingState(items=tuple(range(6, 12)), gap_mean_days=2.5)]
    rng = np.random.default_rng(2000)
    transition = rng.dirichlet(np.full(vocab, 0.4), size=vocab)
    spec = sy.SynthSpec(num_users=100, sessions_per_user=30,
                        item_transition=transition,
                        gap_mixture=[(1.0, 1.0)], context_coupling=states)
    return sy.generate_corpus(spec, seed=seed)


def test_criterion_6_joint_model_beats_hawkes_and_mean_gap():
    t0 = time.time()
    maes = {"thrnn": [], "hawkes_short": [], "mean_gap": []}
    for seed in (0, 1, 2):
        split = _coupled_corpus(seed)
        cfg = ModelConfig(num_items=split.num_items,
                          num_users=split.num_users,
                          item_embedding_dim=12, user_embedding_dim=4,
                          gap_embedding_dim=3, hidden_dim=24, batch_size=100,
                          num_gap_buckets=10, learning_rate_time=0.01)
        params, _, _ = train(split, cfg, epochs=10, seed=seed)
        maes["thrnn"].append(evaluate(params, cfg, split).overall_mae_days)
        maes["hawkes_short"].append(
            hawkes_report(split, FitConfig(window="last_k", last_k=15),
                          pp.QUADRATURE).overall_mae_days)
        maes["mean_gap"].append(mean_gap_report(split).overall_mae_days)
    ours = float(np.mean(maes["thrnn"]))
    hk = float(np.mean(maes["hawkes_short"]))
    mg = float(np.mean(maes["mean_gap"]))
    elapsed = time.time() - t0
    _verdict(6, ours < hk and ours < mg and elapsed < 900.0,
             f"MAE {ours:.3f} vs hawkes_short {hk:.3f} and mean_gap "
             f"{mg:.3f}, 3 seeds, {elapsed:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# 7 + 8: recommendation quality and the rec-only ablation (shared runs)


@pytest.fixture(scope="module")
def markov_runs():
    rng = np.random.default_rng(3000)
    vocab = 50
    transition = rng.dirichlet(np.full(vocab, 0.08), size=vocab)
    spec = sy.SynthSpec(num_users=150, sessions_per_user=30,
                        item_transition=transition, gap_mixture=[(1.0, 1.0)])
    out = {"joint": [], "ablation": [], "bayes": [], "popularity": []}
    t0 = time.time()
    for seed in (0, 1, 2):
        split = sy.generate_corpus(spec, seed=seed)
        ranks = np.asarray(oracles.bayes_optimal_ranks(split, spec))
        out["bayes"].append(recall_at_k(ranks, 5))
        out["popularity"].append(popularity_report(split).recall[5])
        base = dict(num_items=split.num_items, num_users=split.num_users,
                    item_embedding_dim=24, user_embedding_dim=4,
                    gap_embedding_dim=3, hidden_dim=32, batch_size=100,
                    num_gap_buckets=10)
        for key, cfg in (("joint", ModelConfig(**base)),
                         ("ablation",
                          ModelConfig(**base, loss_weight_time=0.0))):
            params, _, _ = train(split, cfg, epochs=14, seed=seed)
            out[key].append(evaluate(params, cfg, split).recall[5])
    out["seconds"] = time.time() - t0
    return out


def test_criterion_7_recall_beats_popularity_and_nears_bayes(markov_runs):
    joint = float(np.mean(markov_runs["joint"]))
    popular = float(np.mean(markov_runs["popularity"]))
    bayes = float(np.mean(markov_runs["bayes"]))
    elapsed = markov_runs["seconds"]
    _verdict(7, joint >= 2 * popular and joint >= 0.85 * bayes
             and elapsed < 900.0,
             f"Recall@5 {joint:.3f} vs popularity {popular:.3f} (x"
             f"{joint / popular:.2f} >= 2) and Bayes {bayes:.3f} "
             f"({joint / bayes:.3f} >= 0.85), {elapsed:.0f}s (< 900s)")


def test_criterion_8_ablation_trace_equality_and_joint_parity(markov_runs):
    # (a) zeroed context embeddings reduce the model to a plain two-level
    # GRU; scores must match an independent numpy trace of that network
    cfg = ModelConfig(num_items=6, num_users=3, item_embedding_dim=3,
                      user_embedding_dim=2, gap_embedding_dim=2,
                      hidden_dim=4, num_gap_buckets=3, batch_size=4,
                      loss_weight_time=0.0)
    params = _rand_params(cfg, seed=14)
    params.gap_emb.value[:] = 0.0
    params.user_emb.value[:] = 0.0
    h_dim = cfg.hidden_dim

    rng = np.random.default_rng(15)
    sessions = [Session(items=list(rng.integers(cfg.num_items, size=n)),
                        start_time=float(i * 10000),
                        end_time=float(i * 10000 + 60),
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

    reps, plain_scores = [], []
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

    # every per-step score of the model, read from predict() on each
    # prefix of session j behind the full sessions before it
    trace_gap = 0.0
    for j, s in enumerate(sessions):
        for t in range(len(s.items) - 1):
            prefix = dataclasses.replace(s, items=s.items[:t + 1])
            pred = predict(UserHistory("u", 0, sessions[:j] + [prefix]), params,
                           cfg, k=cfg.num_items)
            scores = np.empty(cfg.num_items)
            scores[pred.items] = pred.scores
            trace_gap = max(trace_gap,
                            float(np.max(np.abs(scores - plain_scores[j][t]))))

    # (b) joint training must not cost recommendation quality
    joint = float(np.mean(markov_runs["joint"]))
    abl = float(np.mean(markov_runs["ablation"]))
    _verdict(8, trace_gap < 1e-10 and joint >= 0.98 * abl,
             f"trace gap {trace_gap:.1e} (< 1e-10); joint Recall@5 "
             f"{joint:.3f} vs ablation {abl:.3f} "
             f"(ratio {joint / abl:.3f} >= 0.98), 3 seeds")


# ---------------------------------------------------------------------------
# 9: preprocessing replication on the public Reddit dump (optional)


def test_criterion_9_reddit_preprocessing_replication():
    path = os.environ.get("THRNN_REDDIT_CSV", "")
    if not path or not os.path.exists(path):
        print("criterion 9: SKIP - set THRNN_REDDIT_CSV to the public "
              "subreddit-interactions dump to run this gate")
        pytest.skip("Reddit dump not available")
    t0 = time.time()
    rows, _ = read_reddit_csv(path)
    split = preprocess(rows, PreprocessConfig(gap_threshold=1800.0))
    stats = split.stats()
    expected = {"num_users": 18_271, "num_sessions": 1_135_488,
                "num_items": 27_452}
    rels = {k: abs(stats[k] - v) / v for k, v in expected.items()}
    worst = max(rels, key=rels.get)
    elapsed = time.time() - t0
    _verdict(9, rels[worst] <= 0.01,
             f"got {stats['num_users']} users / {stats['num_sessions']} "
             f"sessions / {stats['num_items']} items; worst deviation "
             f"{rels[worst]:.4f} ({worst}, <= 0.01), {elapsed:.0f}s")
