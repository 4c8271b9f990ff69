"""Ranking and return-time metrics, plus the non-neural baselines.

Everything aggregates from flat arrays (ranks, predicted seconds,
target seconds) so the neural model, its ablations, and the Hawkes
baselines all report through the identical code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SECONDS_PER_DAY, DatasetSplit, _jline
from .hawkes import FitConfig, fit, hawkes_predict_next
from .point_process import QuadratureConfig

REPORT_FORMAT_VERSION = 1
RANK_CUTOFFS = (5, 10, 20)  # the k of every Recall@k and MRR@k
# MAE buckets by true gap, one day wide; the last, from 29 days on, is open-ended
BUCKET_EDGES_DAYS = np.arange(0.0, 31.0)


def rank_of_target(scores: np.ndarray, target):
    """1 + number of strictly greater scores: ties never push the target down.
    A (rows, items) block with one target per row gives a vector of ranks,
    each row counted on its own: a count along the items axis sums a bool
    matrix and takes about twice as long."""
    own = np.take_along_axis(scores, np.asarray(target)[..., None], axis=-1)
    if scores.ndim == 1:
        return 1 + int(np.count_nonzero(scores > own))
    return 1 + np.fromiter((np.count_nonzero(row > o) for row, o in zip(scores, own)),
                           np.intp, len(scores))


def recall_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise ValueError("no ranked events")
    if np.any(ranks < 1):
        raise ValueError("ranks are 1-based")
    return float(np.mean(ranks <= k))


def mrr_at_k(ranks, k: int) -> float:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("no ranked events")
    if np.any(ranks < 1):
        raise ValueError("ranks are 1-based")
    rr = np.where(ranks <= k, 1.0 / ranks, 0.0)
    return float(np.sort(rr).sum() / ranks.size)


@dataclass
class BucketRow:
    low_days: float
    high_days: float  # inf for the open-ended last bucket
    mae_days: float | None  # None when the bucket is empty
    count: int


def mae_by_bucket(pred_seconds, target_seconds, bucket_edges_days) -> tuple[list[BucketRow], float]:
    """Per-bucket and overall mean absolute error, reported in days.

    Events are bucketed by their target gap; the final bucket is
    open-ended so every event is counted. Sums run over sorted values,
    making the result independent of event order.
    """
    pred = np.asarray(pred_seconds, dtype=np.float64) / SECONDS_PER_DAY
    target = np.asarray(target_seconds, dtype=np.float64) / SECONDS_PER_DAY
    if pred.shape != target.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {target.shape}")
    edges = np.asarray(bucket_edges_days, dtype=np.float64)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bucket edges must be strictly increasing, >= 2 of them")

    err = np.abs(pred - target)
    idx = np.clip(np.digitize(target, edges) - 1, 0, len(edges) - 2)
    rows = []
    for b in range(len(edges) - 1):
        high = np.inf if b == len(edges) - 2 else edges[b + 1]
        sel = np.sort(err[idx == b])
        rows.append(BucketRow(low_days=float(edges[b]), high_days=float(high),
                              mae_days=float(sel.mean()) if sel.size else None,
                              count=int(sel.size)))
    overall = float(np.sort(err).sum() / err.size) if err.size else float("nan")
    return rows, overall


@dataclass
class EvalReport:
    model: str
    recall: dict[int, float] = field(default_factory=dict)
    mrr: dict[int, float] = field(default_factory=dict)
    mae_buckets: list[BucketRow] = field(default_factory=list)
    overall_mae_days: float | None = None
    num_rank_events: int = 0
    num_gap_events: int = 0


def build_report(model: str, ranks, pred_seconds, target_seconds) -> EvalReport:
    """Assemble the full report; either metric family may be absent."""
    report = EvalReport(model=model)
    ranks = np.asarray(ranks)
    if ranks.size:
        for k in RANK_CUTOFFS:
            report.recall[k] = recall_at_k(ranks, k)
            report.mrr[k] = mrr_at_k(ranks, k)
        report.num_rank_events = int(ranks.size)
    pred_seconds = np.asarray(pred_seconds, dtype=np.float64)
    if pred_seconds.size:
        rows, overall = mae_by_bucket(pred_seconds, target_seconds, BUCKET_EDGES_DAYS)
        report.mae_buckets = rows
        report.overall_mae_days = overall
        report.num_gap_events = int(pred_seconds.size)
    return report


def save_report(report: EvalReport, path: str) -> None:
    """Line-delimited records: header, recall/mrr rows, bucket rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_jline({"kind": "report-header", "version": REPORT_FORMAT_VERSION,
                         "model": report.model,
                         "num_rank_events": report.num_rank_events,
                         "num_gap_events": report.num_gap_events,
                         "overall_mae_days": report.overall_mae_days}))
        for k in sorted(report.recall):
            fh.write(_jline({"kind": "ranking", "k": k, "recall": report.recall[k],
                             "mrr": report.mrr[k]}))
        for row in report.mae_buckets:
            fh.write(_jline({"kind": "mae-bucket", "low_days": row.low_days,
                             "high_days": row.high_days if np.isfinite(row.high_days) else None,
                             "mae_days": row.mae_days, "count": row.count}))


def save_plot_data(report: EvalReport, path: str) -> None:
    """(bucket low, bucket high, MAE, count) rows for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# model={report.model} low_days high_days mae_days count\n")
        for row in report.mae_buckets:
            mae = "nan" if row.mae_days is None else f"{row.mae_days:.6f}"
            fh.write(f"{row.low_days:g} {row.high_days:g} {mae} {row.count}\n")


# ---------------------------------------------------------------------------
# the non-neural baselines, read from the split's columns. Like the neural
# model they score every test gap event (SessionTable.gap_events),
# teacher-forced: the history of a gap is every session before it.


def _gap_events(split: DatasetSplit):
    """The test rows whose gaps are scored; each user's mean train gap in
    seconds (NaN for a user without one); the mean over every train gap
    (None without any)."""
    t, train = split.sessions, split.is_train()
    events = t.gap_events()
    gaps, owner = t.gap[train & events], t.user[train & events]
    bounds = np.searchsorted(owner, np.arange(split.num_users + 1))
    means = np.array([np.mean(gaps[lo:hi]) if hi > lo else np.nan
                      for lo, hi in zip(bounds[:-1], bounds[1:])])
    return ~train & events, means, float(np.mean(gaps)) if len(gaps) else None


def mean_gap_report(split: DatasetSplit) -> EvalReport:
    """Constant predictor: each user's mean train gap (global mean fallback)."""
    t = split.sessions
    scored, means, overall = _gap_events(split)
    preds = np.where(np.isnan(means), 0.0 if overall is None else overall, means)
    return build_report("mean_gap", [], preds[t.user[scored]], t.gap[scored])


def popularity_report(split: DatasetSplit) -> EvalReport:
    """Static ranking by train-set frequency, scored on every test step."""
    t = split.sessions
    train = np.repeat(split.is_train(), t.lengths)
    counts = np.bincount(t.items[train], minlength=split.num_items)
    target = ~train
    target[t.offsets()[:-1]] = False  # a session's first item is no target
    # rank_of_target's rule for every target at once: 1 + the count of larger counts
    ranks = 1 + counts.size - np.searchsorted(np.sort(counts), counts[t.items[target]],
                                              side="right")
    return build_report("popularity", ranks, [], [])


def hawkes_report(split: DatasetSplit, cfg: FitConfig, q: QuadratureConfig,
                  time_unit: float = SECONDS_PER_DAY) -> EvalReport:
    """Hawkes fits on the train events of every user with a test gap, all in
    one batched call; predictions teacher-forced over the test walk, one
    pass over each user's timeline, and one quadrature call over the scored
    gaps alone.

    Event times are session starts of real sittings; the second half of a
    length-split session is the same sitting, so it never becomes an event.
    """
    t = split.sessions
    scored, means, overall = _gap_events(split)
    # a mean gap that is missing or 0 gives no rate: fall back to the split's, then to 1
    global_rate = time_unit / overall if overall else 1.0
    users, bounds = np.unique(t.user[scored]).tolist(), split.user_offsets()
    times, histories, rates, at = [], [], [], []
    for u in users:
        lo, cut, hi = bounds[u], bounds[u] + split.train_counts[u], bounds[u + 1]
        sitting = ~t.masked[lo:hi]
        times.append(t.start[lo:hi][sitting] / time_unit)
        histories.append(times[-1][:np.count_nonzero(sitting[:cut - lo])])
        rates.append(time_unit / float(means[u]) if means[u] > 0 else global_rate)
        at.append((np.cumsum(sitting) - 1)[scored[lo:hi]])  # sittings before each scored gap
    preds = hawkes_predict_next(times, fit(histories, cfg, rates), q, at) * time_unit
    name = "hawkes_short" if cfg.window == "last_k" else "hawkes_long"
    return build_report(name, [], preds, t.gap[scored])
