"""Reference implementations the tests check the program against.

Nothing in the package calls these: finite-difference gradients, exact
Hawkes intensity, likelihood and thinning draws, the closed-form CDF and
quantile function of the time head, a trapezoid normalization check, the
Bayes-optimal ranking of a synthetic corpus, and a report reader.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import numpy as np

from thrnn.data import DatasetSplit
from thrnn.evaluation import REPORT_FORMAT_VERSION, BucketRow, EvalReport, rank_of_target
from thrnn.hawkes import HawkesParams, _nll_and_grads, excitation_state
from thrnn.point_process import (W_LIMIT, QuadratureConfig, _check_exponent,
                                 log_density_from_s)
from thrnn.synthetic import SynthSpec, item_id

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


def density_mass_from_s(s, w: float, q: QuadratureConfig) -> np.ndarray:
    """Trapezoid integral of f itself over [0, cutoff]; normalization oracle."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    ts = np.linspace(0.0, q.cutoff, q.num_points)
    y = np.exp(log_density_from_s(s[:, None], ts[None, :], w))
    dt = q.cutoff / (q.num_points - 1)
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
