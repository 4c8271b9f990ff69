"""Reference implementations the tests check the program against.

Nothing in the package calls these: finite-difference gradients, the
where-form sigmoid and the per-step taped GRU cell that the packed unroll
replaced (a textbook forward that shares no code with the package's
step kernel), the step kernel on unhalved weights that the step form
replaced, the score-taking softmax cross-entropy and the chunked
chain around it that the fused output op replaced, exact Hawkes
intensity, thinning draws and the one-user likelihood loop that the
batched fit evaluator must match, the log density, closed-form
CDF and quantile function of the time head, a trapezoid normalization
check, the Bayes-optimal ranking of a synthetic corpus, the per-draw
synthetic generator that the cached-row sampler in thrnn.synthetic must
reproduce byte for byte, a report reader and bucket label, the
per-row preprocessing chain that the columnar pipeline in thrnn.data
must reproduce byte for byte, and the dict-per-session split writer
whose bytes the column-token writer in thrnn.data must equal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from thrnn.autodiff import GRUWeights, Tape, Tensor, add, gather_rows, matmul
from thrnn.data import (SECONDS_PER_DAY, SPLIT_FORMAT_VERSION, DatasetSplit,
                        PreprocessConfig, Session, SessionTable, UserHistory, build_split)
from thrnn.evaluation import (REPORT_FORMAT_VERSION, BucketRow, EvalReport, build_report,
                              rank_of_target)
from thrnn.model import Examples
from thrnn.hawkes import FitConfig, HawkesParams, excitation_state, fit, hawkes_predict_next
from thrnn.point_process import QuadratureConfig
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
# per-step GRU


def sigmoid(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(−v)) in the where form, stable in both tails; NaN stays NaN."""
    e = np.exp(-np.abs(v))
    with np.errstate(invalid="ignore"):
        return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gru_cell(tape: Tape, x: Tensor, h_prev: Tensor, w: GRUWeights,
             update_mask: np.ndarray | None = None) -> Tensor:
    """One GRU step on a batch; x (B, n), h_prev (B, h) -> (B, h).

    The step is a single tape record with an analytic backward. Its
    forward is the textbook one, written apart from the package's step
    kernel: the where-form sigmoid, then (1 − z)∘h + z∘c. With
    `update_mask` (B, 1), rows where it is 0 keep h_prev unchanged and
    pass their gradient straight through to h_prev.
    """
    if x.value.shape[1] != w.w.value.shape[0]:
        raise ValueError(f"gru_cell: input width {x.value.shape[1]} != {w.w.value.shape[0]}")
    if h_prev.value.shape[1] != w.u.value.shape[0]:
        raise ValueError("gru_cell: hidden width mismatch")
    xv, hv, u, b = x.value, h_prev.value, w.u.value, w.b.value
    n = hv.shape[1]
    xw = xv @ w.w.value
    rz = sigmoid(xw[:, :2 * n] + hv @ u[:, :2 * n] + b[:2 * n])
    rh = rz[:, :n] * hv
    c = np.tanh(xw[:, 2 * n:] + rh @ u[:, 2 * n:] + b[2 * n:])
    h_new = (1.0 - rz[:, n:]) * hv + rz[:, n:] * c
    keep = None if update_mask is None else np.asarray(update_mask) == 0
    out = Tensor(h_new if keep is None else np.where(keep, hv, h_new))

    def bwd(g):
        g_new = g if keep is None else np.where(keep, 0.0, g)
        # gradients of the pre-activations: d_rz of [r|z], d_c of c
        d_c = g_new * rz[:, n:] * (1.0 - c * c)
        d_rh = d_c @ u[:, 2 * n:].T
        d_rz = np.concatenate([d_rh * hv, g_new * (c - hv)], axis=1) * rz * (1.0 - rz)
        d_h = g_new * (1.0 - rz[:, n:]) + d_rh * rz[:, :n] + d_rz @ u[:, :2 * n].T
        if keep is not None:
            d_h += g - g_new
        d_a = np.concatenate([d_rz, d_c], axis=1)
        d_u = np.concatenate([hv.T @ d_rz, rh.T @ d_c], axis=1)
        return d_a @ w.w.value.T, d_h, xv.T @ d_a, d_u, d_a.sum(axis=0)

    return tape.record((x, h_prev, *w.tensors()), out, bwd)


def gru_step_reference(xw: np.ndarray, h_prev: np.ndarray, w: GRUWeights) -> np.ndarray:
    """The step kernel before the step form, from the unhalved projection
    xw = x·w + b: it slices u and xw per step, halves the r/z
    pre-activation before the tanh and returns a fresh (z∘(c − h)) + h.
    The step form must reproduce it bit for bit."""
    n = h_prev.shape[1]
    u = w.u.value
    rz = h_prev @ u[:, :2 * n]
    rz += xw[:, :2 * n]
    rz *= 0.5
    np.tanh(rz, out=rz)
    rz *= 0.5
    rz += 0.5
    c = (rz[:, :n] * h_prev) @ u[:, 2 * n:]
    c += xw[:, 2 * n:]
    np.tanh(c, out=c)
    out = (c - h_prev) * rz[:, n:]
    out += h_prev
    return out


def gru_project_reference(x: np.ndarray, w: GRUWeights) -> np.ndarray:
    """x·w + b, unhalved, as gru_step_reference reads it."""
    xw = x @ w.w.value
    xw += w.b.value
    return xw


# ---------------------------------------------------------------------------
# softmax cross-entropy over taken scores


def masked_softmax_xent(tape: Tape, scores: Tensor, targets: np.ndarray,
                        masked: np.ndarray | None = None) -> Tensor:
    """Sum over rows of -log softmax(scores)[target], masked rows excluded.

    `masked` marks rows that contribute 0 to both the loss and the gradient.
    """
    v = scores.value
    n_rows, n_items = v.shape
    if n_items < 2:
        raise ValueError("need at least 2 items to score")
    tgt = np.asarray(targets)
    if tgt.min() < 0 or tgt.max() >= n_items:
        raise IndexError("target index out of range")
    valid = np.ones(n_rows, dtype=bool) if masked is None else ~np.asarray(masked, dtype=bool)

    shifted = v - v.max(axis=1, keepdims=True)
    picked = shifted[np.arange(n_rows), tgt]
    e = np.exp(shifted, out=shifted)
    z = e.sum(axis=1)
    out = Tensor(float((np.log(z) - picked)[valid].sum()))

    def bwd(g):
        # the forward's exp becomes the gradient, normalised in place
        np.divide(e, z[:, None], out=e)
        e[np.arange(n_rows), tgt] -= 1.0
        e[~valid] = 0.0
        return (np.multiply(e, g, out=e),)

    return tape.record((scores,), out, bwd)


def chunked_softmax_xent(tape: Tape, x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray,
                         block: int) -> Tensor:
    """The fused op's loss as a chain of records: chunks of `block` rows,
    each gathered, projected, scored and added to the running total."""
    total = None
    for lo in range(0, len(x.value), block):
        part = np.arange(lo, min(lo + block, len(x.value)))
        live = gather_rows(tape, x, part)
        piece = masked_softmax_xent(tape, matmul(tape, live, w, b), targets[part])
        total = piece if total is None else add(tape, total, piece)
    return total


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
    s = excitation_state(history, p.decay)[-1]
    return p.gamma0 + p.excitation * s * math.exp(-p.decay * (t - history[-1]))


def hawkes_nll_and_grads(events: np.ndarray, gamma0: float, a: float, beta: float,
                         t_start: float, horizon: float):
    """One user's NLL over [t_start, horizon] and its parameter gradients in
    one O(n) loop, the reference for the fit's batched
    thrnn.hawkes._nll_and_grads, via the kernel recursions

        A_i = exp(-beta*d_i) * (1 + A_{i-1})          (excitation at t_i)
        B_i = exp(-beta*d_i) * (d_i*(1+A_{i-1}) + B_{i-1})  (= -dA_i/dbeta)
    """
    n = len(events)
    log_sum = 0.0
    d_g0 = 0.0  # d(-sum log lam)/d gamma0 accumulates -1/lam
    d_a = 0.0
    d_beta = 0.0
    a_state = 0.0
    b_state = 0.0
    for i in range(n):
        if i > 0:
            d = events[i] - events[i - 1]
            e = math.exp(-beta * d)
            b_state = e * (d * (1.0 + a_state) + b_state)
            a_state = e * (1.0 + a_state)
        lam = gamma0 + a * a_state
        log_sum += math.log(lam)
        d_g0 -= 1.0 / lam
        d_a -= a_state / lam
        d_beta += a * b_state / lam  # -(-B_i)*a/lam

    # compensator: gamma0*(horizon - t_start)
    #              + (a/beta) * sum_i (1 - exp(-beta*(horizon - t_i)))
    span = horizon - t_start
    tail = horizon - events
    em = np.exp(-beta * tail)
    comp_sum = float(np.sum(1.0 - em))
    comp = gamma0 * span + (a / beta) * comp_sum
    d_g0 += span
    d_a += comp_sum / beta
    d_beta += a * (-comp_sum / beta ** 2 + float(np.sum(tail * em)) / beta)

    nll = -log_sum + comp
    return nll, np.array([d_g0, d_a, d_beta])


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
    nll, _ = hawkes_nll_and_grads(events, p.gamma0, p.excitation, p.decay,
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
    s0 = excitation_state(np.asarray(history, dtype=np.float64), p.decay)[-1]
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
    vocab = {i: k for k, i in enumerate(split.item_ids)}
    present = [(orig, vocab[item_id(orig)]) for orig in range(spec.num_items)
               if item_id(orig) in vocab]
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
    for user in histories(split)[1]:
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
    return split_from_histories(train, test, vocab_ids)


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


# ---------------------------------------------------------------------------
# a split as per-session objects: one UserHistory per user and part


def session_table(session_lists, user_indices) -> SessionTable:
    """One table of the timelines session_lists[k] of users user_indices[k]."""
    tables = [UserHistory("", u, list(sl)).table() for sl, u in zip(session_lists, user_indices)]
    return SessionTable(*(np.concatenate([getattr(t, f) for t in tables])
                          for f in ("user", "start", "end", "gap", "masked", "lengths",
                                    "items")))


def walk_inter_rows(n: int, reps: int, last_read: bool) -> int:
    """Inter GRU rows the tape-free walk steps for a user with n sessions.
    It steps windows up to N (n if the state after the last session is
    read, else n - 1); windows 1 .. c = min(reps, N) are prefixes of
    window c, so only that one runs, c rows, and each later window runs
    its reps rows."""
    last = max(n - (not last_read), 0)
    chain = min(reps, last)
    return chain + (last - chain) * reps


def split_from_histories(train: list[UserHistory], test: list[UserHistory],
                         item_ids) -> DatasetSplit:
    """The split whose user u has the sessions train[u] then test[u];
    `item_ids` is the vocabulary, or its size for ids "0", "1", ..."""
    if isinstance(item_ids, int):
        item_ids = [str(i) for i in range(item_ids)]
    table = session_table([tr.sessions + te.sessions for tr, te in zip(train, test)],
                          range(len(train)))
    return DatasetSplit(sessions=table,
                        train_counts=np.array([len(tr.sessions) for tr in train],
                                              dtype=np.int64),
                        user_ids=[tr.user_id for tr in train], item_ids=list(item_ids))


def histories(split: DatasetSplit) -> tuple[list[UserHistory], list[UserHistory]]:
    """The split's train and test parts as one UserHistory per user each."""
    t = split.sessions
    bounds, first = t.offsets().tolist(), split.user_offsets().tolist()
    sessions = [Session(items=t.items[bounds[k]:bounds[k + 1]].tolist(),
                        start_time=float(t.start[k]), end_time=float(t.end[k]),
                        gap_before=float(t.gap[k]), gap_masked=bool(t.masked[k]))
                for k in range(len(t))]
    train, test = [], []
    for u, user_id in enumerate(split.user_ids):
        cut = first[u] + int(split.train_counts[u])
        train.append(UserHistory(user_id, u, sessions[first[u]:cut]))
        test.append(UserHistory(user_id, u, sessions[cut:first[u + 1]]))
    return train, test


def save_split_reference(split: DatasetSplit, path: str) -> None:
    """The split file as JSON lines of one dict per session, each line
    encoded by json.dumps with sorted keys: the bytes save_split writes."""

    def line(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    t = split.sessions
    items, bounds = t.items.tolist(), t.offsets().tolist()
    start, end, gap, masked = t.start.tolist(), t.end.tolist(), t.gap.tolist(), t.masked.tolist()
    first, n_train = split.user_offsets().tolist(), split.train_counts.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line({"kind": "header", "version": SPLIT_FORMAT_VERSION,
                       "num_items": split.num_items, "num_users": split.num_users}))
        fh.write(line({"kind": "vocabulary", "items": split.item_ids}))
        for u, user_id in enumerate(split.user_ids):
            sessions = [{"items": items[bounds[k]:bounds[k + 1]], "start": start[k],
                         "end": end[k], "gap": gap[k], "masked": masked[k]}
                        for k in range(first[u], first[u + 1])]
            fh.write(line({"kind": "user", "user_id": user_id, "user_index": u,
                           "train": sessions[:n_train[u]], "test": sessions[n_train[u]:]}))


def random_split(rng, num_items: int = 7) -> DatasetSplit:
    """A small split of odd shapes: users whose first session is a test
    session, masked split halves, single-item sessions, and a user whose
    test part holds no unmasked gap."""
    train, test = [], []
    for u in range(int(rng.integers(4, 8))):
        n = int(rng.integers(1, 9))
        sessions, t = [], 0.0
        for j in range(n):
            masked = bool(j and rng.random() < 0.25)
            gap = 0.0 if masked or not j else float(rng.exponential(2 * SECONDS_PER_DAY))
            length = int(rng.integers(1, 5))
            start = t + gap
            sessions.append(Session(items=rng.integers(num_items, size=length).tolist(),
                                    start_time=start, end_time=start + 60.0 * (length - 1),
                                    gap_before=gap, gap_masked=masked))
            t = sessions[-1].end_time
        cut = 0 if u == 0 else n - 1 if u == 1 else int(rng.integers(0, n + 1))
        if u == 1:  # a test part without an unmasked gap
            sessions[-1].gap_masked, sessions[-1].gap_before = n > 1, 0.0
        if u == 2:  # a single-item session
            sessions[0].items = sessions[0].items[:1]
        train.append(UserHistory(f"u{u}", u, sessions[:cut]))
        test.append(UserHistory(f"u{u}", u, sessions[cut:]))
    return split_from_histories(train, test, num_items)


# The example builder and the baselines as they read per-session objects,
# before the split became one table. They differ from that code in one
# rule only: a user's first session is never a return-time event, which
# test_part_starts_a_timeline in test_evaluation pins.


@dataclass
class TrainingExample:
    user_index: int
    slot: int  # position in the user's train timeline
    row: int  # its session's row in the history table; history is the rows before
    inputs: np.ndarray  # items[:-1], consumed step by step
    targets: np.ndarray  # items[1:], one label per consumed step
    gap_target: float  # model time units (seconds / time_unit)
    time_masked: bool


def build_examples(split: DatasetSplit, cfg) -> list[TrainingExample]:
    """One example per usable train session. Its history window is the
    table rows row - min(slot, max_session_reps) .. row - 1, which the
    per-epoch refresh fills."""
    examples, row = [], 0
    for hist in histories(split)[0]:
        for j, s in enumerate(hist.sessions):
            # no predecessor (slot 0) and split-session halves carry a
            # meaningless zero gap: mask the time loss for both
            time_masked = s.gap_masked or j == 0
            if time_masked and len(s.items) < 2:
                continue  # neither loss has a target here
            examples.append(TrainingExample(
                user_index=hist.user_index, slot=j, row=row + j,
                inputs=np.asarray(s.items[:-1], dtype=np.int64),
                targets=np.asarray(s.items[1:], dtype=np.int64),
                gap_target=s.gap_before / cfg.time_unit,
                time_masked=time_masked))
        row += len(hist.sessions)
    if not examples:
        raise ValueError("train split yields no usable examples")
    return examples


def examples_of(examples: list[TrainingExample]) -> Examples:
    """The column form of object examples. A session without inputs
    has one item, which nothing reads; it becomes item 0."""
    items, offset = [], []
    for ex in examples:
        offset.append(len(items))
        items += [*ex.inputs, ex.targets[-1]] if len(ex.inputs) else [0]
    return Examples(
        row=np.array([ex.row for ex in examples], dtype=np.int64),
        slot=np.array([ex.slot for ex in examples], dtype=np.int64),
        user=np.array([ex.user_index for ex in examples], dtype=np.int64),
        offset=np.array(offset, dtype=np.int64),
        length=np.array([len(ex.inputs) + 1 for ex in examples], dtype=np.int64),
        gap=np.array([ex.gap_target for ex in examples], dtype=np.float64),
        time_masked=np.array([ex.time_masked for ex in examples], dtype=bool),
        items=np.array(items, dtype=np.int64))


def example_objects(examples: Examples, index=None) -> list[TrainingExample]:
    """The examples at `index` (default all) as objects."""
    out = []
    for i in range(len(examples)) if index is None else index:
        lo, n = examples.offset[i], examples.length[i]
        out.append(TrainingExample(
            user_index=int(examples.user[i]), slot=int(examples.slot[i]),
            row=int(examples.row[i]), inputs=examples.items[lo:lo + n - 1],
            targets=examples.items[lo + 1:lo + n], gap_target=float(examples.gap[i]),
            time_masked=bool(examples.time_masked[i])))
    return out


def iter_test_gaps(split: DatasetSplit):
    """Yield (user_index, target gap seconds, prior event times seconds,
    train gaps seconds) for every unmasked test-session gap, teacher-forced:
    history grows with each test session consumed.

    Event times are session starts of real sittings; the second half of a
    length-split session is the same sitting, so it never becomes an event.
    """
    for tr, te in zip(*histories(split)):
        events, train_gaps = _train_events(tr)
        for i, s in enumerate(te.sessions):
            if not s.gap_masked:
                if tr.sessions or i:  # a user's first session has no gap
                    yield tr.user_index, s.gap_before, list(events), train_gaps
                events.append(s.start_time)


def _train_events(tr) -> tuple[list[float], list[float]]:
    """One user's train event times and the gaps between them, in seconds."""
    gaps = [s.gap_before for s in tr.sessions[1:] if not s.gap_masked]
    return [s.start_time for s in tr.sessions if not s.gap_masked], gaps


def mean_gap_report(split: DatasetSplit) -> EvalReport:
    """Constant predictor: each user's mean train gap (global mean fallback)."""
    all_train = [s.gap_before for u in histories(split)[0]
                 for s in u.sessions[1:] if not s.gap_masked]
    global_mean = float(np.mean(all_train)) if all_train else 0.0
    preds, targets = [], []
    for _, gap, _, train_gaps in iter_test_gaps(split):
        preds.append(float(np.mean(train_gaps)) if train_gaps else global_mean)
        targets.append(gap)
    return build_report("mean_gap", [], preds, targets)


def popularity_report(split: DatasetSplit) -> EvalReport:
    """Static ranking by train-set frequency, scored on every test step."""
    train, test = histories(split)
    counts = np.bincount(np.array([it for u in train for s in u.sessions for it in s.items],
                                  dtype=np.int64), minlength=split.num_items)
    targets = [it for u in test for s in u.sessions for it in s.items[1:]]
    # rank_of_target's rule for every target at once: 1 + the count of larger counts
    ranks = 1 + counts.size - np.searchsorted(np.sort(counts), counts[targets], side="right")
    return build_report("popularity", ranks, [], [])


def hawkes_report(split: DatasetSplit, cfg: FitConfig, q: QuadratureConfig,
                  time_unit: float = SECONDS_PER_DAY) -> EvalReport:
    """Hawkes fits on the train events of every user with a test gap, all in
    one batched call; predictions teacher-forced over the test walk."""
    all_train = [s.gap_before for u in histories(split)[0]
                 for s in u.sessions[1:] if not s.gap_masked]
    # a train gap mean of 0 gives no rate, like no train gap at all
    overall = float(np.mean(all_train)) if all_train else 0.0
    global_rate = time_unit / overall if overall > 0 else 1.0
    gaps = list(iter_test_gaps(split))
    users, histories_, rates = [], [], []
    for tr, te in zip(*histories(split)):
        if any(row[0] == tr.user_index for row in gaps):
            events, train_gaps = _train_events(tr)
            users.append(tr.user_index)
            histories_.append(np.asarray(events, dtype=np.float64) / time_unit)
            mean = float(np.mean(train_gaps)) if train_gaps else 0.0
            rates.append(time_unit / mean if mean > 0 else global_rate)
    params_by_user = dict(zip(users, fit(histories_, cfg, rates)))
    preds, targets = [], []
    for user, gap, events, _ in gaps:
        history = np.asarray(events, dtype=np.float64) / time_unit
        preds.append(hawkes_predict_next([history], [params_by_user[user]], q, [[-1]])[0] * time_unit)
        targets.append(gap)
    name = "hawkes_short" if cfg.window == "last_k" else "hawkes_long"
    return build_report(name, [], preds, targets)
