"""Return-time model: intensity, conditional density, loss, expectation.

The next-gap intensity given the inter-session state h is

    lam(g) = exp(s + w*g),   s = v . h + b

which integrates to the conditional density

    log f(g) = (s + w*g) - exp(s) * expm1(w*g) / w

with the removable w -> 0 singularity handled by an explicit
exponential-distribution branch. The expm1 form keeps small |w|
numerically exact. For w < 0 the density is defective: total mass
1 - exp(exp(s)/w) < 1, some probability "never returns".

The head depends on h only through s, so every function here takes
the precomputed s = v.h + b (a scalar or an array of them) and never h
itself. Everything is plain numpy except the taped training op
time_nll at the bottom, which exposes analytic gradients to the tape.
The closed-form CDF and quantile function the tests check these against
are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor

W_LIMIT = 1e-6  # |w| below this uses the exponential-limit branch
MAX_EXPONENT = 700.0  # natural-log overflow guard for float64


class ExponentOverflowError(RuntimeError):
    """The linear exponent s + w*g left the representable range."""


@dataclass(frozen=True)
class QuadratureConfig:
    cutoff: float
    num_points: int = 2048

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.num_points < 64:
            raise ValueError("need at least 64 quadrature nodes")


def _check_exponent(x) -> None:
    if np.any(np.asarray(x) > MAX_EXPONENT):
        raise ExponentOverflowError(
            f"exponent {float(np.max(x)):.1f} > {MAX_EXPONENT:.0f}; "
            "time head parameters have diverged")


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


def expected_return_time_from_s(s, w: float, q: QuadratureConfig) -> np.ndarray:
    """Trapezoid approximation of integral of t*f(t) over [0, cutoff].

    No renormalization: the truncated tail is treated as negligible, so
    pick the cutoff to hold >= 99.9% of the mass.
    """
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    ts = np.linspace(0.0, q.cutoff, q.num_points)
    logf = log_density_from_s(s[:, None], ts[None, :], w)
    y = ts[None, :] * np.exp(logf)
    dt = q.cutoff / (q.num_points - 1)
    return dt * (y.sum(axis=1) - 0.5 * (y[:, 0] + y[:, -1]))


# ---------------------------------------------------------------------------
# taped training op


def time_nll(tape: Tape, s: Tensor, w: Tensor, g_alpha: np.ndarray,
             masked: np.ndarray | None = None) -> Tensor:
    """Mean of -log f(g_alpha) over unmasked rows (0 if none), on the tape.

    s is the (B, 1) linear part v.h + b built from taped ops, so its
    gradient flows back into v, b and the hidden states; w is the scalar
    decay Tensor. g_alpha holds the alpha-exponentiated targets. Masked
    rows contribute nothing to the value or any gradient.

    Per row (exact branch):   nll = -(s + w*g) + exp(s) * expm1(w*g) / w
      d nll / d s = -1 + exp(s) * expm1(w*g) / w
      d nll / d w = -g + (exp(s + w*g) * (w*g - 1) + exp(s)) / w**2
    Limit branch (|w| < 1e-6): nll = -s + g * exp(s)
      d nll / d s = -1 + g * exp(s)
      d nll / d w = -g + exp(s) * g**2 / 2
    """
    sv = s.value.reshape(-1)
    wv = float(w.value)
    g = np.asarray(g_alpha, dtype=np.float64).reshape(-1)
    if g.shape != sv.shape:
        raise ValueError(f"g_alpha shape {g.shape} != batch {sv.shape}")
    if np.any(g < 0):
        raise ValueError("g_alpha must be non-negative")
    valid = np.ones_like(g, dtype=bool) if masked is None else ~np.asarray(masked, dtype=bool)
    count = int(valid.sum())
    _check_exponent(sv[valid])

    # masked rows are computed with neutral (0, 0) stand-ins so that no
    # overflow or 0 * inf from their garbage values can leak into the batch
    sv = np.where(valid, sv, 0.0)
    g = np.where(valid, g, 0.0)
    es = np.exp(sv)
    if abs(wv) < W_LIMIT:
        nll = -sv + g * es
        d_s = -1.0 + g * es
        d_w = -g + es * g * g / 2.0
    else:
        wg = wv * g
        _check_exponent(sv + wg)
        e_wg = np.expm1(wg)
        nll = -(sv + wg) + es * e_wg / wv
        d_s = -1.0 + es * e_wg / wv
        d_w = -g + (np.exp(sv + wg) * (wg - 1.0) + es) / (wv * wv)

    denom = max(count, 1)
    out = Tensor(float(nll[valid].sum()) / denom)

    def bwd(gout):
        coef = np.where(valid, gout / denom, 0.0)
        return (coef * d_s).reshape(s.value.shape), np.sum(coef * d_w).reshape(w.value.shape)

    return tape.record((s, w), out, bwd)
