#!/usr/bin/env python3
"""Sweep the target exponent and report return-time MAE per gap bucket.

The corpus mixes short (0.2 d) and long (5 d) gaps, so shrinking the
exponent should pull the short-gap MAE down while giving up accuracy on
the long gaps. One table row per exponent value; JSON lines on the way
for machine consumption.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from thrnn import synthetic as sy
from thrnn.model import ModelConfig, evaluate, train


def bucket_mae(report, lo_days, hi_days):
    num = den = 0.0
    for row in report.mae_buckets:
        if row.low_days >= lo_days and row.high_days <= hi_days \
                and row.mae_days is not None:
            num += row.mae_days * row.count
            den += row.count
    return num / den if den else float("nan")


def make_corpus(num_users, sessions, vocab, seed):
    rng = np.random.default_rng(1000)
    transition = rng.dirichlet(np.full(vocab, 0.5), size=vocab)
    spec = sy.SynthSpec(num_users=num_users, sessions_per_user=sessions,
                        item_transition=transition,
                        gap_mixture=[(0.5, 0.2), (0.5, 5.0)])
    return sy.generate_corpus(spec, seed=seed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alphas", default="0.3,0.5,0.7,0.9,1.0")
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--sessions", type=int, default=60)
    ap.add_argument("--vocab", type=int, default=30)
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()
    alphas = [float(a) for a in args.alphas.split(",")]

    rows = []
    for alpha in alphas:
        shorts, longs, overalls = [], [], []
        for seed in range(args.seeds):
            split = make_corpus(args.users, args.sessions, args.vocab, seed)
            cfg = ModelConfig(num_items=split.num_items,
                              num_users=split.num_users,
                              item_embedding_dim=12, user_embedding_dim=4,
                              gap_embedding_dim=3, hidden_dim=16, batch_size=100,
                              num_gap_buckets=10, alpha_exp=alpha)
            t0 = time.time()
            params, _, _ = train(split, cfg, epochs=args.epochs, seed=seed)
            rep = evaluate(params, cfg, split)
            rec = {"kind": "sweep-point", "alpha_exp": alpha, "seed": seed,
                   "mae_short": bucket_mae(rep, 0, 1),
                   "mae_long": bucket_mae(rep, 2, 31),
                   "mae_overall": rep.overall_mae_days,
                   "seconds": round(time.time() - t0, 1)}
            print(json.dumps(rec, sort_keys=True))
            shorts.append(rec["mae_short"])
            longs.append(rec["mae_long"])
            overalls.append(rec["mae_overall"])
        rows.append((alpha, float(np.mean(shorts)), float(np.mean(longs)),
                     float(np.mean(overalls))))

    print(f"\n{'alpha':>6} {'MAE < 1d':>10} {'MAE >= 2d':>10} {'overall':>10}")
    for alpha, s, l, o in rows:
        print(f"{alpha:>6.2f} {s:>10.3f} {l:>10.3f} {o:>10.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
