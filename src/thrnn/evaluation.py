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
    A (rows, items) block with one target per row gives a vector of ranks."""
    own = np.take_along_axis(scores, np.asarray(target)[..., None], axis=-1)
    ahead = np.count_nonzero(scores > own, axis=-1)
    return 1 + (int(ahead) if scores.ndim == 1 else ahead)


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
# evaluation walks shared by the simple baselines

def iter_test_gaps(split: DatasetSplit):
    """Yield (user_index, target gap seconds, prior event times seconds,
    train gaps seconds) for every unmasked test-session gap, teacher-forced:
    history grows with each test session consumed.

    Event times are session starts of real sittings; the second half of a
    length-split session is the same sitting, so it never becomes an event.
    """
    for tr, te in zip(split.train, split.test):
        events, train_gaps = _train_events(tr)
        for s in te.sessions:
            if not s.gap_masked:
                yield tr.user_index, s.gap_before, list(events), train_gaps
                events.append(s.start_time)


def _train_events(tr) -> tuple[list[float], list[float]]:
    """One user's train event times and the gaps between them, in seconds."""
    gaps = [s.gap_before for s in tr.sessions[1:] if not s.gap_masked]
    return [s.start_time for s in tr.sessions if not s.gap_masked], gaps


def mean_gap_report(split: DatasetSplit) -> EvalReport:
    """Constant predictor: each user's mean train gap (global mean fallback)."""
    all_train = [s.gap_before for u in split.train
                 for s in u.sessions[1:] if not s.gap_masked]
    global_mean = float(np.mean(all_train)) if all_train else 0.0
    preds, targets = [], []
    for _, gap, _, train_gaps in iter_test_gaps(split):
        preds.append(float(np.mean(train_gaps)) if train_gaps else global_mean)
        targets.append(gap)
    return build_report("mean_gap", [], preds, targets)


def popularity_report(split: DatasetSplit) -> EvalReport:
    """Static ranking by train-set frequency, scored on every test step."""
    counts = np.bincount(np.array([it for u in split.train for s in u.sessions for it in s.items],
                                  dtype=np.int64), minlength=split.num_items)
    targets = [it for u in split.test for s in u.sessions for it in s.items[1:]]
    # rank_of_target's rule for every target at once: 1 + the count of larger counts
    ranks = 1 + counts.size - np.searchsorted(np.sort(counts), counts[targets], side="right")
    return build_report("popularity", ranks, [], [])


def hawkes_report(split: DatasetSplit, cfg: FitConfig, q: QuadratureConfig,
                  time_unit: float = SECONDS_PER_DAY) -> EvalReport:
    """Hawkes fits on the train events of every user with a test gap, all in
    one batched call; predictions teacher-forced over the test walk."""
    all_train = [s.gap_before for u in split.train
                 for s in u.sessions[1:] if not s.gap_masked]
    global_rate = time_unit / float(np.mean(all_train)) if all_train else 1.0
    users, histories, rates = [], [], []
    for tr, te in zip(split.train, split.test):
        if any(not s.gap_masked for s in te.sessions):
            events, train_gaps = _train_events(tr)
            users.append(tr.user_index)
            histories.append(np.asarray(events, dtype=np.float64) / time_unit)
            rates.append(time_unit / float(np.mean(train_gaps)) if train_gaps
                         else global_rate)
    params_by_user = dict(zip(users, fit(histories, cfg, rates)))
    preds, targets = [], []
    for user, gap, events, _ in iter_test_gaps(split):
        history = np.asarray(events, dtype=np.float64) / time_unit
        preds.append(hawkes_predict_next(history, params_by_user[user], q) * time_unit)
        targets.append(gap)
    name = "hawkes_short" if cfg.window == "last_k" else "hawkes_long"
    return build_report(name, [], preds, targets)
