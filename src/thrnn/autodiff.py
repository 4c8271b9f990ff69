"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for the models in this package: dense linear maps
(`matmul` adds an optional bias in place), a GRU step, embedding lookups,
a row gather, and a masked softmax cross-entropy. Operations record
themselves on a Tape; the backward pass replays the records in reverse
order and accumulates gradients additively at fan-out. A tensor keeps
its first gradient uncopied when a backward allocated it fresh for that
input alone, and copies a view or an array also handed elsewhere;
embedding lookups scatter-add straight into the table's `.grad`. A GRU
cell is three packed tensors (gate blocks in r, z, c order); a GRU step
is one fused record with an analytic backward, and shares its
three-matmul forward with the tape-free gru_cell_np.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A numpy array plus an accumulated gradient slot."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name: str | None = None):
        # C order: Adam updates values in place through flat views
        self.value = np.asarray(value, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into .grad; an `owned` g (no one else holds it) is kept as is."""
        if self.grad is None:
            self.grad = g if owned else np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad += g

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.value.shape})"


class Tape:
    """Records operations so gradients can be replayed in reverse.

    Recording order is a topological order of the graph, so iterating
    the records backwards visits every node after all of its consumers.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []

    def __len__(self):
        return len(self._records)

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        self._records.append((inputs, out, backward))
        return out

    def backward(self, out: Tensor) -> None:
        """Seed d(out)/d(out) = 1 and accumulate gradients into every input."""
        out.grad = np.ones_like(out.value)
        for inputs, node, bwd in reversed(self._records):
            if node.grad is None:
                continue
            grads = list(bwd(node.grad))
            for tensor, g in zip(inputs, grads):
                if g is not None:
                    owned = (isinstance(g, np.ndarray) and g.base is None
                             and g is not node.grad and sum(x is g for x in grads) == 1)
                    tensor.accumulate(g, owned)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitive ops


def matmul(tape: Tape, a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus `bias` broadcast over the rows when given."""
    av, bv = a.value, b.value
    out = Tensor(av @ bv)
    if bias is not None:
        out.value += bias.value

    def bwd(g):
        grads = (g @ bv.T, av.T @ g)
        return grads if bias is None else (*grads, _unbroadcast(g, bias.value.shape))

    return tape.record((a, b) if bias is None else (a, b, bias), out, bwd)


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.value + b.value)
    ash, bsh = a.value.shape, b.value.shape

    def bwd(g):
        return _unbroadcast(g, ash), _unbroadcast(g, bsh)

    return tape.record((a, b), out, bwd)


def scale(tape: Tape, a: Tensor, c: float) -> Tensor:
    out = Tensor(a.value * c)

    def bwd(g):
        return (g * c,)

    return tape.record((a,), out, bwd)


def concat(tape: Tape, parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    out = Tensor(np.concatenate([p.value for p in parts], axis=1))
    widths = [p.value.shape[1] for p in parts]

    def bwd(g):
        grads, off = [], 0
        for w in widths:
            grads.append(g[:, off:off + w])
            off += w
        return grads

    return tape.record(tuple(parts), out, bwd)


def gather_rows(tape: Tape, parts: Sequence[Tensor], which: np.ndarray,
                rows: np.ndarray) -> Tensor:
    """Stack row rows[i] of parts[which[i]] for a non-decreasing `which`
    (rows distinct within a part); the backward scatters back to the parts."""
    used, first = np.unique(which, return_index=True)
    spans = [rows[lo:hi] for lo, hi in zip(first, [*first[1:], len(rows)])]
    out = Tensor(np.concatenate([parts[k].value[r] for k, r in zip(used, spans)]))

    def bwd(g):
        grads = [np.zeros_like(parts[k].value) for k in used]
        for gp, r, g_part in zip(grads, spans, np.split(g, first[1:])):
            gp[r] = g_part
        return grads

    return tape.record(tuple(parts[k] for k in used), out, bwd)


def embedding(tape: Tape, table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup; backward scatter-adds into the looked-up rows of the
    table's .grad, which the first lookup to reach it allocates."""
    idx = np.asarray(indices)
    rows = table.value.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = sorted(set(int(i) for i in idx[(idx < 0) | (idx >= rows)]))
        raise IndexError(f"embedding indices out of range [0, {rows}): {bad}")
    out = Tensor(table.value[idx])

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        np.add.at(table.grad, idx, g)
        return (None,)

    return tape.record((table,), out, bwd)


def dropout(tape: Tape, a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only during training (identity when rate == 0)."""
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.value.shape) < keep) / keep
    out = Tensor(a.value * mask)

    def bwd(g):
        return (g * mask,)

    return tape.record((a,), out, bwd)


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


# ---------------------------------------------------------------------------
# GRU cell


@dataclass
class GRUWeights:
    """One GRU cell, its gates packed in r, z, c order along the last axis:
    w (n_in, 3h), u (h, 3h), b (3h,). With w_r = w[:, :h], w_z =
    w[:, h:2h], w_c = w[:, 2h:] and u, b sliced alike,
    r = σ(x·w_r + h·u_r + b_r), z likewise,
    c = tanh(x·w_c + (r∘h)·u_c + b_c), h' = (1−z)∘h + z∘c.

    The update gate z gates the candidate; this convention is fixed so
    that checkpoints are unambiguous.
    """

    w: Tensor
    u: Tensor
    b: Tensor

    def tensors(self) -> list[Tensor]:
        return [self.w, self.u, self.b]


def gru_cell(tape: Tape, x: Tensor, h_prev: Tensor, w: GRUWeights,
             update_mask: np.ndarray | None = None) -> Tensor:
    """One GRU step on a batch; x (B, n), h_prev (B, h) -> (B, h).

    The step is a single tape record with an analytic backward. With
    `update_mask` (B, 1), rows where it is 0 keep h_prev unchanged and
    pass their gradient straight through to h_prev.
    """
    if x.value.shape[1] != w.w.value.shape[0]:
        raise ValueError(f"gru_cell: input width {x.value.shape[1]} != {w.w.value.shape[0]}")
    if h_prev.value.shape[1] != w.u.value.shape[0]:
        raise ValueError("gru_cell: hidden width mismatch")
    xv, hv, u = x.value, h_prev.value, w.u.value
    n = hv.shape[1]
    rz, rh, c, h_new = _gru_step(xv, hv, w)
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


def gru_cell_np(x: np.ndarray, h_prev: np.ndarray, w: GRUWeights,
                xw: np.ndarray | None = None) -> np.ndarray:
    """Tape-free gru_cell forward for inference; `xw`, if given, is x @ w.w."""
    return _gru_step(x, h_prev, w, xw)[-1]


def _gru_step(x: np.ndarray, h_prev: np.ndarray, w: GRUWeights,
              xw: np.ndarray | None = None):
    """The GRU formula of GRUWeights in three matmuls; returns
    ([r|z], r∘h, c, h'). The candidate block needs r∘h, so it cannot
    share the recurrent matmul of the gates."""
    n = h_prev.shape[1]
    u, b = w.u.value, w.b.value
    xw = x @ w.w.value if xw is None else xw
    rz = _sigmoid_np(xw[:, :2 * n] + h_prev @ u[:, :2 * n] + b[:2 * n])
    z = rz[:, n:]
    rh = rz[:, :n] * h_prev
    c = np.tanh(xw[:, 2 * n:] + rh @ u[:, 2 * n:] + b[2 * n:])
    return rz, rh, c, (1.0 - z) * h_prev + z * c


def _sigmoid_np(v: np.ndarray) -> np.ndarray:
    # stable in both tails: the numerator is 1 where v >= 0, else e (NaN stays NaN)
    e = np.exp(-np.abs(v))
    return np.maximum(e, v >= 0) / (1.0 + e)
