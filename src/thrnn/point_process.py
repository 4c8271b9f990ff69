"""Return-time model: intensity, compensator, loss, expectation.

The head models x = g^alpha, g the gap in days. Its intensity given the
inter-session state h, and the compensator, are

    lam(x) = exp(s + w*x),   Lam(x) = exp(s) * expm1(w*x) / w,   s = v . h + b

with the removable w -> 0 singularity handled by an explicit
exponential-distribution branch, Lam(x) = exp(s) * x. The expm1 form
keeps small |w| numerically exact. For w < 0 the density is defective:
total mass 1 - exp(exp(s)/w) < 1, some probability "never returns".

The head's functions take gaps in days and s = v.h + b, never h, and
apply alpha here alone, so training and every report read one transform.
Return times come from truncated_mean, one rule over any compensator,
which the Hawkes baseline shares, up to HORIZON_DAYS, QUADRATURE's
cutoff, where the gap buckets end too. time_nll at the bottom is the
taped training op, with analytic gradients. The log density, CDF and
quantile function the tests check these against are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .autodiff import Tape, Tensor

W_LIMIT = 1e-6  # |w| below this uses the exponential-limit branch
MAX_EXPONENT = 700.0  # natural-log overflow guard for float64
# truncated_mean's rule on [0, 1]: 8-node Gauss-Legendre on each of the 24
# halving panels [0, 2^-23], [2^-23, 2^-22], ..., [1/2, 1], which resolve
# exp(-Lam) at every rate from 1/cutoff up to 2^23/cutoff.
_X, _W = np.polynomial.legendre.leggauss(8)
_EDGES = np.append(0.0, 2.0 ** np.arange(-23, 1))
_HALF = np.diff(_EDGES)[:, None] / 2.0
_NODES = (_EDGES[:-1, None] + _HALF * (1.0 + _X)).ravel()
_WEIGHTS = (_HALF * _W).ravel()


class ExponentOverflowError(RuntimeError):
    """The linear exponent s + w*x left the representable range."""


@dataclass(frozen=True)
class QuadratureConfig:
    cutoff: float
    num_points: ClassVar[int] = _NODES.size  # nodes per expectation

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")


HORIZON_DAYS = 30.0  # return times are read out, and gaps bucketed, up to here
QUADRATURE = QuadratureConfig(cutoff=HORIZON_DAYS)


def _check_exponent(x) -> None:
    if np.any(np.asarray(x) > MAX_EXPONENT):
        raise ExponentOverflowError(
            f"exponent {float(np.max(x)):.1f} > {MAX_EXPONENT:.0f}; "
            "time head parameters have diverged")


def truncated_mean(compensator: Callable[[np.ndarray], np.ndarray],
                   cutoff: float) -> np.ndarray:
    """E[T; T < c] = int_0^c t f(t) dt = int_0^c exp(-Lam(t)) dt - c exp(-Lam(c))
    (by parts) for the gap whose compensator is Lam, with c the cutoff.

    The two terms are integrated as one, exp(-Lam) * -expm1(Lam - Lam(c)),
    which is >= 0 for an increasing Lam, so they never cancel. compensator
    maps a 1-D array of times to Lam there, with any leading batch axes;
    the result keeps those axes."""
    lam = compensator(cutoff * np.append(_NODES, 1.0))
    lam, lam_c = lam[..., :-1], lam[..., -1:]
    y = np.exp(-lam) * -np.expm1(lam - lam_c)
    y *= _WEIGHTS  # then summed row by row: a row reads the same at any place in a batch
    return cutoff * y.sum(axis=-1)


def expected_return_time_from_s(s, w: float, q: QuadratureConfig,
                                alpha: float = 1.0) -> np.ndarray:
    """E[g; g < cutoff] in days for each s = v.h + b: the gap's
    compensator is Lam(t^alpha). No renormalization: the truncated tail is
    treated as negligible, so pick the cutoff to hold >= 99.9% of the mass."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    _check_exponent(s)
    es = np.exp(s)[:, None]
    if abs(w) < W_LIMIT:
        return truncated_mean(lambda t: es * t ** alpha, q.cutoff)
    _check_exponent(s + w * q.cutoff ** alpha)
    return truncated_mean(lambda t: es * (np.expm1(w * t ** alpha) / w), q.cutoff)


# ---------------------------------------------------------------------------
# taped training op


def time_nll(tape: Tape, s: Tensor, w: Tensor, gaps: np.ndarray, alpha: float = 1.0,
             masked: np.ndarray | None = None) -> Tensor:
    """Mean of -log f(gaps^alpha) over unmasked rows (0 if none), on the tape.

    s is the (B, 1) linear part v.h + b built from taped ops, so its
    gradient flows back into v, b and the hidden states; w is the scalar
    decay Tensor. gaps are in days, and g below is gap^alpha.
    Masked rows contribute nothing to the value or any gradient.

    Per row (exact branch):   nll = -(s + w*g) + exp(s) * expm1(w*g) / w
      d nll / d s = -1 + exp(s) * expm1(w*g) / w
      d nll / d w = -g + (exp(s + w*g) * (w*g - 1) + exp(s)) / w**2
    Limit branch (|w| < 1e-6): nll = -s + g * exp(s)
      d nll / d s = -1 + g * exp(s)
      d nll / d w = -g + exp(s) * g**2 / 2
    """
    sv = s.value.reshape(-1)
    wv = float(w.value)
    g = np.asarray(gaps, dtype=np.float64).reshape(-1)
    if g.shape != sv.shape:
        raise ValueError(f"gaps shape {g.shape} != batch {sv.shape}")
    if np.any(g < 0):
        raise ValueError("gaps must be non-negative")
    valid = np.ones_like(g, dtype=bool) if masked is None else ~np.asarray(masked, dtype=bool)
    count = int(valid.sum())
    _check_exponent(sv[valid])

    # masked rows are computed with neutral (0, 0) stand-ins so that no
    # overflow or 0 * inf from their garbage values can leak into the batch
    sv = np.where(valid, sv, 0.0)
    g = np.where(valid, g, 0.0) ** alpha
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
