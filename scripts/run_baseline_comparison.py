#!/usr/bin/env python3
"""Compare the joint model against its baselines on one synthetic corpus.

Gap times are coupled to which item cluster a session lives in, so a
model that reads the session content should beat any history-only gap
predictor. Reported side by side: the joint model, the
recommendation-only ablation (time loss weight 0), both Hawkes windows,
the per-user mean-gap predictor, and the popularity ranker.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from thrnn import synthetic as sy
from thrnn.cli import BASELINE_MODELS, model_report
from thrnn.model import ModelConfig, evaluate, train


def make_corpus(num_users, sessions, vocab, seed):
    half = vocab // 2
    states = [sy.CouplingState(items=tuple(range(half)), gap_mean_days=0.25),
              sy.CouplingState(items=tuple(range(half, vocab)),
                               gap_mean_days=2.5)]
    rng = np.random.default_rng(2000)
    transition = rng.dirichlet(np.full(vocab, 0.4), size=vocab)
    spec = sy.SynthSpec(num_users=num_users, sessions_per_user=sessions,
                        item_transition=transition,
                        gap_mixture=[(1.0, 1.0)], context_coupling=states)
    return sy.generate_corpus(spec, seed=seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--users", type=int, default=100)
    ap.add_argument("--sessions", type=int, default=30)
    ap.add_argument("--vocab", type=int, default=12)
    ap.add_argument("--epochs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    split = make_corpus(args.users, args.sessions, args.vocab, args.seed)
    base = dict(num_items=split.num_items, num_users=split.num_users,
                item_embedding_dim=12, user_embedding_dim=4,
                gap_embedding_dim=3, hidden_dim=24,
                batch_size=100, num_gap_buckets=10, learning_rate_time=0.01)
    runs = {}
    for name, cfg in (("thrnn", ModelConfig(**base)),
                      ("hrnn_ablation",
                       ModelConfig(**base, loss_weight_time=0.0))):
        t0 = time.time()
        params, _, _ = train(split, cfg, epochs=args.epochs, seed=args.seed)
        runs[name] = evaluate(params, cfg, split, model_name=name)
        print(json.dumps({"kind": "trained", "model": name,
                          "seconds": round(time.time() - t0, 1)}))

    # the baselines as `thrnn evaluate` makes them, from the joint model's config
    joint = ModelConfig(**base)
    reports = [runs["thrnn"], runs["hrnn_ablation"],
               *(model_report(name, None, joint, split) for name in BASELINE_MODELS)]
    # the ablation never trains its time head, so its MAE is noise
    reports[1].overall_mae_days = None

    print(f"\n{'model':<16} {'recall@5':>9} {'mrr@5':>9} {'MAE (days)':>11}")
    for rep in reports:
        r5 = f"{rep.recall[5]:.3f}" if 5 in rep.recall else "-"
        m5 = f"{rep.mrr[5]:.3f}" if 5 in rep.mrr else "-"
        mae = ("-" if rep.overall_mae_days is None
               else f"{rep.overall_mae_days:.3f}")
        print(f"{rep.model:<16} {r5:>9} {m5:>9} {mae:>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
