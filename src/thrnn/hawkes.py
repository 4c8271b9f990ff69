"""Per-user self-exciting Hawkes baseline with an exponential kernel.

    lam(t) = gamma0 + excitation * sum_j exp(-decay * (t - t_j))

Fitting is maximum likelihood by damped, projected Newton in
log-parameter space (positivity for free), with the branching ratio
excitation/decay capped at 0.99 for stability. All users are fitted in
lockstep: each iteration calls the one likelihood, _nll_and_grads, for the
NLL, its gradient and its 3x3 Hessian of every user at once, from padded
(users x events) arrays, with the Ozaki (1979) exponential-kernel
recursion carried to second order in the decay. What the parameters do
not change (pair distances, masks, compensator lags, spans) is built once
per fit; as users converge, the rows of the rest are taken from it.
Prediction walks each user's timeline once, carrying the excitation
state, and hands the next gap's closed-form compensator after the prefixes
asked for, of every user, to one point_process.truncated_mean call, the
rule the neural time head uses.

All times are in model units (the same normalization the neural time
head uses, days by default), so MAE numbers are directly comparable.
The exact intensity, the one-user likelihood loop and the thinning sampler
that the tests check the fit and the predictor against are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .point_process import QuadratureConfig, truncated_mean


@dataclass(frozen=True)
class HawkesParams:
    gamma0: float
    excitation: float
    decay: float

    def __post_init__(self):
        if self.gamma0 <= 0 or self.decay <= 0 or self.excitation < 0:
            raise ValueError(f"invalid Hawkes parameters {self}")


@dataclass(frozen=True)
class FitConfig:
    window: str = "full"  # "full" or "last_k"
    last_k: int = 15

    def __post_init__(self):
        if self.window not in ("full", "last_k"):
            raise ValueError(f"unknown window {self.window!r}")
        if self.last_k < 1:  # a 1-event window fits as fit's Poisson fallback
            raise ValueError("last_k must be >= 1")


def excitation_state(history: np.ndarray, decay: float) -> np.ndarray:
    """S[k] = sum_{j<k} exp(-decay * (t_{k-1} - t_j)), the excitation just
    after each of the first k events, for k = 0..n (S[0] = 0): one O(n)
    pass of S <- S * exp(-decay * dt) + 1."""
    s = [0.0, 1.0][:len(history) + 1]
    for dt in np.diff(history).tolist():
        s.append(s[-1] * math.exp(-decay * dt) + 1.0)
    return np.array(s)


# The branching ratio excitation/decay is capped here: at 1 the process
# explodes, and a fit that runs into the cap is kept just short of it.
MAX_BRANCHING = 0.99
# Events per chunk of the batched evaluator: pairs inside a chunk cost
# CHUNK^2 kernel terms per user, earlier events enter through carried sums.
CHUNK = 32
# Users fitted in lockstep at once; memory is this many rows of the
# longest window among them.
BLOCK_USERS = 256
MAX_ITERATIONS = 200
# A fit has converged when its projected log-space gradient is below
# GRAD_TOL * (|NLL| + 1), or when a rejected trial changed the NLL by no
# more than rounding (NOISE_TOL relative).
GRAD_TOL = 1e-10
NOISE_TOL = 1e-13
ARMIJO = 1e-4
MAX_STEP = 2.0  # largest component of one step, in log units
EIG_FLOOR = 1e-10  # relative to the Hessian's largest |eigenvalue|
# Levenberg-Marquardt damping added to the Hessian's eigenvalues: it starts
# at the largest |eigenvalue| at the starting point and is multiplied by
# DAMPING_DOWN after every accepted step, by DAMPING_UP after every
# rejected one.
DAMPING_DOWN = 0.5
DAMPING_UP = 4.0
FACE_TOL = 1e-12  # log units from the cap that count as on it

# In log space, theta = log(gamma0, excitation, decay), the cap is the
# half-space _N . theta <= _LOG_CAP; the columns of _Z span its face.
_LOG_CAP = math.log(MAX_BRANCHING)
_N = np.array([0.0, 1.0, -1.0])
_Z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
_TRI = np.tri(CHUNK, k=-1, dtype=bool)


def _pad(windows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(users, longest) event times and the row lengths. Each row is padded
    by repeating its last event, so padding adds nothing to a real event's
    kernel sums or to the compensator."""
    lengths = np.array([len(w) for w in windows])
    times = np.empty((len(windows), lengths.max()))
    for row, w in zip(times, windows):
        row[:len(w)] = w
        row[len(w):] = w[-1]
    return times, lengths


def _geometry(times: np.ndarray, lengths: np.ndarray) -> list:
    """What _nll_and_grads reads that the parameters do not change: per
    chunk, its first column, its rows' gaps from the previous chunk's last
    event, pair distances and mask; then valid, tau, tau^2 and span."""
    chunks = []
    for lo in range(0, times.shape[1], CHUNK):
        t = times[:np.count_nonzero(lengths > lo), lo:lo + CHUNK]
        tri = _TRI[:t.shape[1], :t.shape[1]]
        chunks.append((lo, t - times[:len(t), max(lo - 1, 0), None],
                       np.where(tri, t[:, :, None] - t[:, None, :], 0.0), tri))
    tau = times[:, -1:] - times
    return [chunks, np.arange(times.shape[1]) < lengths[:, None], tau, tau * tau,
            times[:, -1] - times[:, 0]]


def _take(geometry: list, rows: np.ndarray) -> list:
    """A batch's geometry at its rows `rows` (ascending), chunk by chunk."""
    chunks, *per_row = geometry
    chunks = [(lo, gap[r], d[r], tri) for lo, gap, d, tri in chunks
              for r in [rows[:np.searchsorted(rows, len(gap))]] if r.size]
    return [chunks] + [x[rows] for x in per_row]


def _nll_and_grads(params: np.ndarray, geometry: list):
    """NLL over [first event, last event] of every row of a `_pad` batch,
    at its row of params (gamma0, excitation, decay), with its gradient and
    Hessian in those.

    Rows must be ordered longest first, so that the users with events in a
    chunk are a prefix of the rows. With w_ij = exp(-decay * (t_i - t_j)),
    the kernel sums at event i

        A_i = sum_{j<i} w_ij                  (excitation)
        B_i = sum_{j<i} (t_i - t_j) w_ij      (= -dA_i/d decay)
        C_i = sum_{j<i} (t_i - t_j)^2 w_ij    (= d2A_i/d decay2)

    are the Ozaki (1979) recursion carried to second order. Pairs inside a
    chunk are summed directly; earlier events enter through the three sums
    at the previous chunk's last event, decayed to each event.

    `geometry` is the batch's `_geometry`, the only place its events enter;
    a call forms only what the parameters change.

    Returns nll (users,), grad (users, 3) and hess (users, 3, 3).
    """
    chunks, valid, tau, tau2, span = geometry
    users, width = valid.shape
    gamma0, a, beta = params.T
    sums = np.zeros((3, users, width))  # A, B, C at every event
    carry = np.zeros((3, users))  # A + 1, B, C at the previous chunk's last event
    for lo, gap, d, tri in chunks:
        rows = len(gap)
        b = beta[:rows, None]
        p0, p1, p2 = carry[:, :rows, None]
        decayed = np.exp(-b * gap)
        s_a = decayed * p0
        s_b = decayed * (gap * p0 + p1)
        s_c = decayed * (gap * (gap * p0 + 2.0 * p1) + p2)
        w = np.exp(-b[:, :, None] * d) * tri
        wd = w * d
        s_a += w.sum(axis=2)
        s_b += wd.sum(axis=2)
        s_c += (wd * d).sum(axis=2)
        sums[:, :rows, lo:lo + CHUNK] = s_a, s_b, s_c
        carry[:, :rows] = s_a[:, -1] + 1.0, s_b[:, -1], s_c[:, -1]

    big_a, big_b, big_c = sums
    lam = np.where(valid, gamma0[:, None] + a[:, None] * big_a, 1.0)
    r = valid / lam
    x = np.stack([r, big_a * r, big_b * r])
    first = x.sum(axis=2)  # sums of 1/lam, A/lam, B/lam
    second = np.einsum("iul,jul->uij", x, x)  # and of their products over lam^2
    c_r = (big_c * r).sum(axis=1)

    # compensator gamma0*span + (a/beta) * s0, s0 = sum_i (1 - exp(-beta*tau_i))
    bt = -beta[:, None] * tau
    e = np.exp(bt)
    s0 = -np.expm1(bt).sum(axis=1)
    s1 = (tau * e).sum(axis=1)  # ds0/dbeta
    s2 = (tau2 * e).sum(axis=1)  # -d2s0/dbeta2
    k1 = s1 / beta - s0 / beta ** 2  # d(s0/beta)/dbeta
    k2 = 2.0 * s0 / beta ** 3 - 2.0 * s1 / beta ** 2 - s2 / beta

    nll = -np.log(lam).sum(axis=1) + gamma0 * span + a * s0 / beta
    grad = np.stack([span - first[0], s0 / beta - first[1],
                     a * (first[2] + k1)], axis=1)
    hess = np.empty((users, 3, 3))
    hess[:, :2, :2] = second[:, :2, :2]
    hess[:, 0, 2] = hess[:, 2, 0] = -a * second[:, 0, 2]
    hess[:, 1, 2] = hess[:, 2, 1] = first[2] - a * second[:, 1, 2] + k1
    hess[:, 2, 2] = a * (a * second[:, 2, 2] - c_r + k2)
    return nll, grad, hess


def _floored_newton(h: np.ndarray, g: np.ndarray, damping: np.ndarray) -> np.ndarray:
    """-(|h| + damping)^-1 g, |h| being h with each eigenvalue replaced by
    its magnitude, floored at EIG_FLOOR of the largest: a descent direction
    even where h is indefinite or near singular."""
    ev, vec = np.linalg.eigh(h)
    mag = np.abs(ev)
    mag = np.maximum(mag, EIG_FLOOR * mag.max(axis=1, keepdims=True)) + damping[:, None]
    coef = np.einsum("uki,uk->ui", vec, g) / mag
    return -np.einsum("uki,ui->uk", vec, coef)


def _newton_direction(theta: np.ndarray, g: np.ndarray, h: np.ndarray,
                      damping: np.ndarray):
    """Damped log-space Newton direction, capped at MAX_STEP, and whether it
    runs along the face of the branching-ratio cap.

    The face holds where a point lies on it and the damped quadratic
    model's multiplier for the cap, at the model's minimum on the face, is
    >= 0; the step then stays on the face. Elsewhere the step is the full
    one, which the cap's projection may still clip.
    """
    face = _LOG_CAP - theta @ _N <= FACE_TOL  # on the cap, for now
    d = _floored_newton(h, g, damping)
    if face.any():
        h, g, damping = h[face], g[face], damping[face]
        along = _floored_newton(_Z.T @ h @ _Z, g @ _Z, damping) @ _Z.T
        keep = (np.einsum("uij,uj->ui", h, along) + damping[:, None] * along + g) @ _N <= 0.0
        d[np.flatnonzero(face)[keep]] = along[keep]
        face[face] = keep
    d *= (MAX_STEP / np.maximum(np.abs(d).max(axis=1), MAX_STEP))[:, None]
    return d, face


def _project(theta: np.ndarray, face: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the cap's half-space (onto its face for the
    rows that keep to it)."""
    excess = theta @ _N - _LOG_CAP
    excess = np.where(face, excess, np.maximum(excess, 0.0))
    return theta - 0.5 * excess[:, None] * _N


def _newton(windows: list[np.ndarray]) -> np.ndarray:
    """Damped, projected Newton in log space for windows ordered longest
    first, all in lockstep. Each iteration evaluates every unconverged
    window once, at its trial point. A trial that passes the Armijo test
    is taken and its damping relaxed; one that fails raises the damping
    and a shorter, more gradient-like step from the same point is tried.
    Starting damped keeps the first steps on a descent path from the
    start instead of jumping to whichever optimum the start's quadratic
    model points at."""
    times, lengths = _pad(windows)
    geometry = _geometry(times, lengths)
    users = len(windows)
    rate = lengths / geometry[-1]  # the last entry is each window's span
    # start at the Poisson MLE with a modest self-exciting component
    start = np.log(np.stack([0.8 * rate, 0.2 * rate, np.ones(users)], axis=1))
    face = np.zeros(users, dtype=bool)
    theta = _project(start, face)
    trial = theta.copy()
    nll = np.full(users, np.inf)
    grad = np.zeros((users, 3))
    hess = np.zeros((users, 3, 3))
    damping = np.zeros(users)
    live = taken = np.arange(users)  # taken: the rows the geometry holds
    for _ in range(MAX_ITERATIONS):
        if not live.size:
            break
        if live.size < taken.size:
            rows, taken = np.searchsorted(taken, live), live
            geometry = _take(geometry, rows)
        p = np.exp(trial[live])
        f_t, g_t, h_t = _nll_and_grads(p, geometry)
        # chain rule into log space
        g_t = g_t * p
        h_t = h_t * p[:, :, None] * p[:, None, :]
        h_t[:, [0, 1, 2], [0, 1, 2]] += g_t
        first = np.isinf(nll[live])
        slope = np.einsum("ui,ui->u", grad[live], trial[live] - theta[live])
        finite = (np.isfinite(f_t) & np.isfinite(g_t).all(axis=1)
                  & np.isfinite(h_t).all(axis=(1, 2)))
        ok = finite & (first | ((slope < 0.0) & (f_t <= nll[live] + ARMIJO * slope)))

        acc, rej = live[ok], live[~ok]
        theta[acc], nll[acc], grad[acc], hess[acc] = trial[acc], f_t[ok], g_t[ok], h_t[ok]
        damping[acc] *= DAMPING_DOWN
        starting = acc[first[ok]]
        if starting.size:  # the damping starts at the first accepted point's scale
            damping[starting] = np.abs(np.linalg.eigvalsh(hess[starting])).max(axis=1)
        damping[rej] *= DAMPING_UP

        done = np.zeros(live.size, dtype=bool)
        g = grad[acc]
        pushed = (_LOG_CAP - theta[acc] @ _N <= FACE_TOL) & (g @ _N < 0.0)
        g = g - np.where(pushed, 0.5 * (g @ _N), 0.0)[:, None] * _N
        done[ok] = np.abs(g).max(axis=1) <= GRAD_TOL * (np.abs(nll[acc]) + 1.0)
        # a failed trial that moved the NLL by no more than rounding: no
        # further progress is measurable
        done[~ok] = np.abs(f_t[~ok] - nll[rej]) <= NOISE_TOL * (np.abs(nll[rej]) + 1.0)

        live = live[~done]
        d, face[live] = _newton_direction(theta[live], grad[live], hess[live],
                                          damping[live])
        trial[live] = _project(theta[live] + d, face[live])
    return theta


def fit(histories, cfg: FitConfig, fallback_rates=None) -> list[HawkesParams]:
    """Maximum-likelihood parameters of each history over the configured
    window, one HawkesParams per history, all fitted in lockstep.

    A window of fewer than 2 events or of zero span cannot constrain the
    kernel; it degenerates to a homogeneous Poisson process at that
    history's entry of fallback_rates (1/mean gap, supplied by the caller).
    """
    out: list[HawkesParams | None] = [None] * len(histories)
    windows: dict[int, np.ndarray] = {}
    for i, events in enumerate(histories):
        events = np.asarray(events, dtype=np.float64)
        if cfg.window == "last_k":
            events = events[-cfg.last_k:]
        if np.any(np.diff(events) < 0):
            raise ValueError("events must be sorted")
        if len(events) >= 2 and events[-1] > events[0]:
            windows[i] = events
            continue
        rate = None if fallback_rates is None else fallback_rates[i]
        if rate is None or rate <= 0:
            raise ValueError("cannot fit < 2 events or a zero span "
                             "without a positive fallback rate")
        out[i] = HawkesParams(gamma0=float(rate), excitation=0.0, decay=1.0)

    order = sorted(windows, key=lambda i: -len(windows[i]))
    for lo in range(0, len(order), BLOCK_USERS):
        block = order[lo:lo + BLOCK_USERS]
        fitted = np.exp(_newton([windows[i] for i in block]))
        for i, (g0, a, beta) in zip(block, fitted):
            out[i] = HawkesParams(gamma0=float(g0), excitation=float(a), decay=float(beta))
    return out


def hawkes_predict_next(histories, params, q: QuadratureConfig, at) -> np.ndarray:
    """Expected gap to the next event after chosen prefixes of each
    history, at its HawkesParams in params, truncated at the cutoff, all
    in one quadrature call. at[i] indexes the n + 1 prefixes of history i,
    prefix k its first k events. Returns the gaps history by history. The
    excitation states come from one pass over each history. The next gap's
    compensator is
    Lam(tau) = gamma0*tau - K*expm1(-decay*tau), K = S*excitation/decay,
    with S the excitation state at the prefix's last event."""
    k, rates = [np.zeros(0)], []
    for i, (history, p) in enumerate(zip(histories, params)):
        s = excitation_state(np.asarray(history, dtype=np.float64), p.decay)
        k.append(s[at[i]] * p.excitation / p.decay)
        rates += [(p.gamma0, p.decay)] * len(k[-1])
    gamma0, decay = np.reshape(rates, (-1, 2)).T[:, :, None]
    k = np.concatenate(k)[:, None]
    return truncated_mean(lambda tau: gamma0 * tau - k * np.expm1(-decay * tau), q.cutoff)
