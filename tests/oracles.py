"""Reference implementations the tests check the program against.

Nothing in the package calls these: finite-difference gradients, exact
Hawkes intensity, likelihood and thinning draws, the log density,
closed-form CDF and quantile function of the time head, a trapezoid
normalization check, the Bayes-optimal ranking of a synthetic corpus, the
per-draw synthetic generator that the cached-row sampler in
thrnn.synthetic must reproduce byte for byte, a report reader and bucket
label, and the per-row preprocessing chain that the columnar pipeline in
thrnn.data must reproduce byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from thrnn.data import (SECONDS_PER_DAY, DatasetSplit, PreprocessConfig, Session,
                        SessionTable, UserHistory, build_split)
from thrnn.evaluation import REPORT_FORMAT_VERSION, BucketRow, EvalReport, rank_of_target
from thrnn.hawkes import HawkesParams, _nll_and_grads, excitation_state
from thrnn.point_process import W_LIMIT, _check_exponent
from thrnn.synthetic import (ITEM_SPACING_SECONDS, CouplingState, SynthSpec,
                             conditioned_row, item_id)

# ---------------------------------------------------------------------------
# gradient checking


def fd_gradient(f: Callable[[], float], arr: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every entry of arr.

    Perturbs arr in place and restores it; f must re-read arr each call.
    """
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = arr[i]
        arr[i] = orig + eps
        fp = f()
        arr[i] = orig - eps
        fm = f()
        arr[i] = orig
        g[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| / max(1, |a|, |b|), elementwise then reduced."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


# ---------------------------------------------------------------------------
# Hawkes process


def branching_ratio(p: HawkesParams) -> float:
    return p.excitation / p.decay


def hawkes_intensity(t: float, history: np.ndarray, p: HawkesParams) -> float:
    """lam(t) for t at or after every event in history."""
    history = np.asarray(history, dtype=np.float64)
    if len(history) == 0:
        return p.gamma0
    if t < history[-1]:
        raise ValueError("t must not precede the last history event")
    s = excitation_state(history, p.decay)
    return p.gamma0 + p.excitation * s * math.exp(-p.decay * (t - history[-1]))


def hawkes_nll(history: np.ndarray, p: HawkesParams, horizon: float | None = None) -> float:
    """-sum_i log lam(t_i) + integral of lam over [0, horizon]."""
    events = np.asarray(history, dtype=np.float64)
    if len(events) < 1:
        raise ValueError("need at least one event")
    if np.any(np.diff(events) < 0):
        raise ValueError("events must be sorted")
    if events[0] < 0:
        raise ValueError("events must lie in [0, horizon]")
    if horizon is None:
        horizon = float(events[-1])
    if horizon < events[-1]:
        raise ValueError("horizon precedes the last event")
    nll, _ = _nll_and_grads(events, p.gamma0, p.excitation, p.decay,
                            t_start=0.0, horizon=float(horizon))
    return float(nll)


def simulate_thinning(p: HawkesParams, n_events: int,
                      rng: np.random.Generator, t0: float = 0.0) -> np.ndarray:
    """Ogata's thinning: exact draws from the process, used as the
    fitting oracle. Requires branching ratio < 1 (else no stationarity)."""
    if branching_ratio(p) >= 1.0:
        raise ValueError(f"explosive process: branching ratio {branching_ratio(p):.3f} >= 1")
    t = t0
    s = 0.0  # sum of exp(-decay*(t - t_j)) over past events, kept current at t
    out = np.empty(n_events)
    k = 0
    while k < n_events:
        upper = p.gamma0 + p.excitation * s
        step = rng.exponential(1.0 / upper)
        t += step
        # intensity only decays between events, so `upper` stays a valid bound
        s *= math.exp(-p.decay * step)
        lam = p.gamma0 + p.excitation * s
        if rng.random() * upper <= lam:
            out[k] = t
            s += 1.0
            k += 1
    return out


def sample_next_gaps(history: np.ndarray, p: HawkesParams,
                     rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n independent thinning draws of the gap to the next event after
    the given history (the excitation state is computed once)."""
    s0 = excitation_state(np.asarray(history, dtype=np.float64), p.decay)
    g0, a, beta = p.gamma0, p.excitation, p.decay
    out = np.empty(n)
    for i in range(n):
        s = s0
        tau = 0.0
        while True:
            upper = g0 + a * s
            step = rng.exponential(1.0 / upper)
            tau += step
            s *= math.exp(-beta * step)
            if rng.random() * upper <= g0 + a * s:
                out[i] = tau
                break
    return out


# ---------------------------------------------------------------------------
# time head distribution


def log_density_from_s(s, g, w: float, branch: str = "auto"):
    """log f(g) for precomputed s = v.h + b; vectorized over s and g.

    branch "auto" switches to the exponential limit below |w| = 1e-6;
    "exact" and "limit" force one side (used to verify continuity).
    """
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if np.any(g < 0):
        raise ValueError("elapsed time must be non-negative")
    _check_exponent(s)
    use_limit = abs(w) < W_LIMIT if branch == "auto" else branch == "limit"
    if use_limit:
        return s - g * np.exp(s)
    wg = w * g
    _check_exponent(s + wg)
    return (s + wg) - np.exp(s) * np.expm1(wg) / w


def cdf_from_s(t, s, w: float):
    """P(gap <= t); vectorized. Approaches 1 - exp(exp(s)/w) < 1 for w < 0."""
    t = np.asarray(t, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    _check_exponent(s)
    if abs(w) < W_LIMIT:
        return -np.expm1(-t * np.exp(s))
    _check_exponent(s + w * t)
    return -np.expm1(-np.exp(s) * np.expm1(w * t) / w)


def total_mass(s: float, w: float) -> float:
    """Limit of the CDF at infinity: 1 for w >= 0, defective below."""
    if w >= 0:
        return 1.0
    with np.errstate(over="ignore"):
        ratio = np.exp(s) / w  # -> -inf for tiny |w|; expm1(-inf) = -1
    return float(-np.expm1(ratio))


def inverse_cdf_from_s(u, s: float, w: float):
    """Quantile function; u must stay below total_mass(s, w)."""
    u = np.asarray(u, dtype=np.float64)
    if np.any((u < 0) | (u >= 1)):
        raise ValueError("u must lie in [0, 1)")
    mass = total_mass(s, w)
    if np.any(u >= mass):
        raise ValueError(
            f"quantile {float(np.max(u)):.6f} beyond reachable mass {mass:.6f} "
            "(defective density: w < 0)")
    neg_l = -np.log1p(-u)  # = -ln(1-u) >= 0
    if abs(w) < W_LIMIT:
        return neg_l * np.exp(-s)
    return np.log1p(w * neg_l * np.exp(-s)) / w


def density_mass_from_s(s, w: float, cutoff: float, num_points: int = 2048) -> np.ndarray:
    """Trapezoid integral of f itself over [0, cutoff] on num_points uniform
    nodes; normalization oracle."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    ts = np.linspace(0.0, cutoff, num_points)
    y = np.exp(log_density_from_s(s[:, None], ts[None, :], w))
    dt = cutoff / (num_points - 1)
    return dt * (y.sum(axis=1) - 0.5 * (y[:, 0] + y[:, -1]))


# ---------------------------------------------------------------------------
# synthetic corpora


def dense_transition(spec: SynthSpec, split: DatasetSplit) -> np.ndarray:
    """The generator's transition matrix re-indexed to the split's dense
    vocabulary (items that never occurred are absent from the split)."""
    present = [(orig, split.item_vocabulary[item_id(orig)])
               for orig in range(spec.num_items)
               if item_id(orig) in split.item_vocabulary]
    dense = np.zeros((split.num_items, split.num_items))
    for orig_i, di in present:
        for orig_j, dj in present:
            dense[di, dj] = spec.item_transition[orig_i, orig_j]
    return dense


def bayes_optimal_ranks(split: DatasetSplit, spec: SynthSpec) -> np.ndarray:
    """Rank every test-step target under the true conditional next-item
    distribution: the ceiling any learned recommender can approach."""
    trans = dense_transition(spec, split)
    ranks = []
    for user in split.test:
        for s in user.sessions:
            for prev, target in zip(s.items, s.items[1:]):
                row = trans[prev].copy()
                row[prev] = 0.0
                total = row.sum()
                scores = row / total if total > 0 else row
                ranks.append(rank_of_target(scores, target))
    return np.asarray(ranks)


def sample_gap_from_model_density(s: float, w: float, seed: int, n: int = 1,
                                  cutoff: float = 30.0) -> np.ndarray:
    """Inverse-CDF gaps from the neural time density at s = v.h + b, for
    planting known time structure. Refuses configurations whose truncated
    mass at the cutoff exceeds 1e-3 (defective or too-heavy tails)."""
    mass = float(cdf_from_s(cutoff, s, w))
    if mass < 1.0 - 1e-3:
        raise ValueError(f"improper density: mass within cutoff {cutoff} is "
                         f"{mass:.6f} < 0.999")
    return inverse_cdf_from_s(np.random.default_rng(seed).random(n), s, w)


def _draw_session_items(rng, spec: SynthSpec, state: CouplingState | None) -> list[int]:
    allowed = np.asarray(state.items) if state is not None else None
    lo, hi = spec.session_length
    m = int(rng.integers(lo, hi + 1))
    first_pool = allowed if allowed is not None else np.arange(spec.num_items)
    items = [int(rng.choice(first_pool))]
    for _ in range(m - 1):
        probs = conditioned_row(spec.item_transition, items[-1], allowed)
        items.append(int(rng.choice(spec.num_items, p=probs)))
    return items


def _draw_gap_days(rng, spec: SynthSpec, state: CouplingState | None) -> float:
    if state is not None:
        return float(rng.exponential(state.gap_mean_days))
    weights = np.array([w for w, _ in spec.gap_mixture])
    means = np.array([m for _, m in spec.gap_mixture])
    comp = int(rng.choice(len(weights), p=weights))
    return float(rng.exponential(means[comp]))


def generate_corpus_per_draw(spec: SynthSpec, seed: int) -> DatasetSplit:
    """thrnn.synthetic.generate_corpus as one Generator.choice call per
    item and per mixture component, each with a fresh conditioned row:
    the reference the cached-row sampler must match byte for byte."""
    starts, ends, gaps, lengths, items = [], [], [], [], []
    for u in range(spec.num_users):
        rng = np.random.default_rng([seed, u])
        t = 0.0
        pending_gap = 0.0
        for j in range(spec.sessions_per_user):
            state = None
            if spec.context_coupling:
                state = spec.context_coupling[int(rng.integers(len(spec.context_coupling)))]
            session = _draw_session_items(rng, spec, state)
            start = t
            end = start + (len(session) - 1) * ITEM_SPACING_SECONDS
            starts.append(start)
            ends.append(end)
            gaps.append(pending_gap)
            lengths.append(len(session))
            items += session
            gap_days = _draw_gap_days(rng, spec, state)
            pending_gap = gap_days * SECONDS_PER_DAY
            t = end + pending_gap
    table = SessionTable(user=np.repeat(np.arange(spec.num_users), spec.sessions_per_user),
                         start=np.array(starts), end=np.array(ends), gap=np.array(gaps),
                         masked=np.zeros(len(starts), dtype=bool),
                         lengths=np.array(lengths, dtype=np.int64),
                         items=np.array(items, dtype=np.int64))
    return build_split(table, [f"u{u:05d}" for u in range(spec.num_users)],
                       [item_id(i) for i in range(spec.num_items)],
                       spec.train_fraction, min_sessions=3)


# ---------------------------------------------------------------------------
# report files


def load_report(path: str) -> EvalReport:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "report-header":
            raise ValueError(f"{path}: not a report file")
        if header["version"] != REPORT_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported report version {header['version']}")
        report = EvalReport(model=header["model"],
                            overall_mae_days=header["overall_mae_days"],
                            num_rank_events=header["num_rank_events"],
                            num_gap_events=header["num_gap_events"])
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "ranking":
                report.recall[rec["k"]] = rec["recall"]
                report.mrr[rec["k"]] = rec["mrr"]
            else:
                high = rec["high_days"] if rec["high_days"] is not None else np.inf
                report.mae_buckets.append(BucketRow(rec["low_days"], high,
                                                    rec["mae_days"], rec["count"]))
    return report


def bucket_label(row: BucketRow) -> str:
    hi = "inf" if np.isinf(row.high_days) else f"{row.high_days:g}"
    return f"[{row.low_days:g},{hi})"


# ---------------------------------------------------------------------------
# the per-row preprocessing chain: one object per row, one user at a time.
# RowSession is thrnn.data.Session plus the per-item times the stages pass
# along; split_train_test drops them.


@dataclass(frozen=True)
class RawInteraction:
    user_id: str
    item_id: str
    timestamp: float  # seconds since epoch

    def __post_init__(self):
        if not self.user_id or not self.item_id:
            raise ValueError("user_id and item_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")


@dataclass
class RowSession:
    items: list
    start_time: float
    end_time: float
    gap_before: float = 0.0
    gap_masked: bool = False
    item_times: list[float] | None = None

    def __len__(self):
        return len(self.items)


def sessionize(interactions: list[RawInteraction], gap_threshold: float) -> list[RowSession]:
    """Group one user's time-sorted interactions into sessions.

    Consecutive interactions stay in one session while the gap between
    them is at most gap_threshold; a larger gap starts a new session.
    """
    if gap_threshold <= 0:
        raise ValueError("gap_threshold must be positive")
    for a, b in zip(interactions, interactions[1:]):
        if b.timestamp < a.timestamp:
            raise ValueError(f"interactions not time-sorted at t={b.timestamp}")
    sessions: list[RowSession] = []
    run: list[RawInteraction] = []
    for inter in interactions:
        if run and inter.timestamp > run[-1].timestamp + gap_threshold:
            sessions.append(_close(run))
            run = []
        run.append(inter)
    if run:
        sessions.append(_close(run))
    return sessions


def _close(run: list[RawInteraction]) -> RowSession:
    return RowSession(items=[r.item_id for r in run],
                      start_time=run[0].timestamp,
                      end_time=run[-1].timestamp,
                      item_times=[r.timestamp for r in run])


def collapse_repeats(session: RowSession) -> RowSession:
    """Reduce each run of equal consecutive items to its first occurrence."""
    items, times = [], []
    for pos, it in enumerate(session.items):
        if items and items[-1] == it:
            continue
        items.append(it)
        if session.item_times is not None:
            times.append(session.item_times[pos])
    return replace(session, items=items,
                   item_times=times if session.item_times is not None else None)


def enforce_length(sessions: list[RowSession], l_max: int) -> list[RowSession]:
    """Cap session length at l_max.

    Length in (l_max, 2*l_max] splits into two sessions at position l_max;
    the second half is an artificial continuation (gap_before 0, gap_masked).
    Anything longer than 2*l_max is dropped as degenerate logging noise.
    """
    out: list[RowSession] = []
    for s in sessions:
        n = len(s)
        if n <= l_max:
            out.append(s)
        elif n <= 2 * l_max:
            first, second = _split_at(s, l_max)
            out.append(first)
            out.append(second)
    return out


def _split_at(s: RowSession, pos: int) -> tuple[RowSession, RowSession]:
    if s.item_times is not None:
        t = s.item_times
        first = RowSession(items=s.items[:pos], start_time=t[0], end_time=t[pos - 1],
                           gap_before=s.gap_before, gap_masked=s.gap_masked,
                           item_times=t[:pos])
        second = RowSession(items=s.items[pos:], start_time=t[pos], end_time=t[-1],
                            gap_before=0.0, gap_masked=True, item_times=t[pos:])
    else:
        # without per-item times, pin the cut to the session start so
        # chronological order and the successor's gap stay intact
        first = RowSession(items=s.items[:pos], start_time=s.start_time,
                           end_time=s.start_time, gap_before=s.gap_before,
                           gap_masked=s.gap_masked)
        second = RowSession(items=s.items[pos:], start_time=s.start_time,
                            end_time=s.end_time, gap_before=0.0, gap_masked=True)
    return first, second


def assign_gaps(sessions: list[RowSession]) -> list[RowSession]:
    """Fill gap_before from neighbouring timestamps; first session gets 0."""
    out = []
    for i, s in enumerate(sessions):
        if s.gap_masked or i == 0:
            out.append(replace(s, gap_before=0.0))
        else:
            out.append(replace(s, gap_before=s.start_time - sessions[i - 1].end_time))
    return out


def build_history(user_id: str, interactions: list[RawInteraction],
                  config: PreprocessConfig) -> list[RowSession]:
    """Run the full per-user chain; sessions still carry raw item ids."""
    inters = sorted(interactions, key=lambda r: r.timestamp)
    sessions = sessionize(inters, config.gap_threshold)
    sessions = [collapse_repeats(s) for s in sessions]
    sessions = enforce_length(sessions, config.max_session_length)
    return assign_gaps(sessions)


def split_train_test(histories: list[UserHistory], train_fraction: float,
                     min_sessions: int = 3) -> DatasetSplit:
    """Per-user earliest-fraction split plus dense vocabulary construction.

    Input histories hold raw item ids; the output sessions hold dense
    indices. Users with fewer than min_sessions sessions are dropped.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    kept = [h for h in histories if len(h.sessions) >= min_sessions]
    if not kept:
        raise ValueError("no users left after the minimum-session filter")
    kept.sort(key=lambda h: h.user_id)

    vocab_ids = sorted({it for h in kept for s in h.sessions for it in s.items})
    vocab = {item_id: i for i, item_id in enumerate(vocab_ids)}

    train, test = [], []
    for idx, h in enumerate(kept):
        sessions = [Session(items=[vocab[it] for it in s.items], start_time=s.start_time,
                            end_time=s.end_time, gap_before=s.gap_before,
                            gap_masked=s.gap_masked)
                    for s in h.sessions]
        n_train = int(train_fraction * len(sessions))
        train.append(UserHistory(h.user_id, idx, sessions[:n_train]))
        test.append(UserHistory(h.user_id, idx, sessions[n_train:]))
    return DatasetSplit(train=train, test=test, item_vocabulary=vocab,
                        num_items=len(vocab), num_users=len(kept))


def preprocess_rows(interactions: list[RawInteraction],
                    config: PreprocessConfig) -> DatasetSplit:
    """Whole pipeline: group by user, sessionize, filter, split."""
    if not interactions:
        raise ValueError("empty corpus: zero interaction rows")
    by_user: dict[str, list[RawInteraction]] = {}
    for r in interactions:
        by_user.setdefault(r.user_id, []).append(r)
    histories = []
    for uid in sorted(by_user):
        sessions = build_history(uid, by_user[uid], config)
        if sessions:
            histories.append(UserHistory(uid, -1, sessions))
    return split_train_test(histories, config.train_fraction, config.min_sessions)
