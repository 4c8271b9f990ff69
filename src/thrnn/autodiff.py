"""Minimal reverse-mode autodiff on float64 numpy arrays.

Just enough machinery for the models in this package: dense linear maps
(`matmul` adds its bias in place), a weighted sum of scalar losses, a
GRU unroll, embedding lookups, a row gather, and the output projection
fused with its softmax cross-entropy, streamed in row blocks that form
their gradients in the forward pass. Operations record themselves on a
Tape; the backward pass replays the records in reverse order and
accumulates gradients additively at fan-out. A tensor keeps its first
gradient uncopied when a backward allocated it fresh for that input
alone, and copies a view or an array also handed elsewhere; embedding
lookups scatter-add straight into the table's `.grad`. A GRU cell is
three packed tensors (gate blocks in r, z, c order). Its step form,
GRUStep, is built once per unroll or walk level: the r/z columns of w, b
and u halved, and u split by gate into contiguous blocks. The step form
projects many rows at once, x·w + b with the bias included. σ(v) =
0.5·tanh(0.5·v) + 0.5 then starts at the tanh, and halving is exact, so
the states are those of the unhalved formula bit for bit. A whole unroll
over packed, step-major rows, each step on a live-row prefix, is one
record with an analytic backward. Its steps run gru_cell_np, the
tape-free step kernel on a given projection: two matmuls, h·u_rz and
(r∘h)·u_c, the gates and the blend h + z∘(c − h), which the tape-free
walk adds into its running state in place.
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
        self._spent = False

    def __len__(self):
        return len(self._records)

    def record(self, inputs: tuple[Tensor, ...], out: Tensor,
               backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        self._records.append((inputs, out, backward))
        return out

    def backward(self, out: Tensor) -> None:
        """Seed d(out)/d(out) = 1 and accumulate gradients into every input.
        Runs once per tape: records scale their stored arrays in place and
        intermediate gradients keep the first pass, so a second call raises."""
        if self._spent:
            raise RuntimeError("Tape.backward already ran on this tape; record a new one")
        self._spent = True
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


# ---------------------------------------------------------------------------
# primitive ops


def matmul(tape: Tape, a: Tensor, b: Tensor, bias: Tensor) -> Tensor:
    """a @ b + bias, the bias broadcast over the rows."""
    av, bv = a.value, b.value
    out = Tensor(av @ bv)
    out.value += bias.value

    def bwd(g):
        return g @ bv.T, av.T @ g, g.sum(axis=0)

    return tape.record((a, b, bias), out, bwd)


def weighted_sum(tape: Tape, terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """Σ wᵢ·tᵢ over scalar tensors; term i's gradient is g·wᵢ."""
    out = Tensor(sum(w * t.value for t, w in zip(terms, weights)))

    def bwd(g):
        return [g * w for w in weights]

    return tape.record(tuple(terms), out, bwd)


def concat(tape: Tape, parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along axis 1."""
    out = Tensor(np.concatenate([p.value for p in parts], axis=1))
    widths = [p.value.shape[1] for p in parts]

    def bwd(g):
        return np.split(g, np.cumsum(widths)[:-1], axis=1)

    return tape.record(tuple(parts), out, bwd)


def gather_rows(tape: Tape, a: Tensor, rows: np.ndarray) -> Tensor:
    """The distinct rows `rows` of a; the backward scatters back to them."""
    out = Tensor(a.value[rows])

    def bwd(g):
        grad = np.zeros_like(a.value)
        grad[rows] = g
        return (grad,)

    return tape.record((a,), out, bwd)


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
    """Inverted dropout for training, the identity at rate 0: an entry
    survives where its uniform in one rng.random(a.shape) is below 1 - rate."""
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.value.shape) < keep) / keep
    out = Tensor(a.value * mask)

    def bwd(g):
        return (g * mask,)

    return tape.record((a,), out, bwd)


STRIP = 4096  # dw columns a later softmax block adds at once: (hidden, STRIP) scratch


def masked_softmax_xent(tape: Tape, x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray,
                        block: int) -> Tensor:
    """Sum over rows of -log softmax(x @ w + b)[target], as one record.

    The rows are scored `block` at a time in one reused (block, items)
    buffer, which then turns into that block's softmax - onehot and its
    gradients, so no score array outlives its block. Later blocks add
    their x_bᵀ·e_b into dw one column strip at a time, so no second
    dw-sized array exists. The backward only scales the stored dx, dw and
    db by the incoming gradient.
    """
    xv, wv = x.value, w.value
    tgt = np.asarray(targets)
    if tgt.min() < 0 or tgt.max() >= wv.shape[1]:
        raise IndexError("target index out of range")
    buf = np.empty((min(block, len(xv)), wv.shape[1]))
    dx, dw, db = np.empty_like(xv), np.empty_like(wv), np.zeros_like(b.value)
    strip = np.empty((wv.shape[0], min(STRIP, wv.shape[1]))) if len(xv) > block else None
    total = 0.0
    for lo in range(0, len(xv), block):
        xb, tb = xv[lo:lo + block], tgt[lo:lo + block]
        rows = np.arange(len(xb))
        e = np.matmul(xb, wv, out=buf[:len(xb)])
        e += b.value
        e -= e.max(axis=1, keepdims=True)
        picked = e[rows, tb]
        z = np.exp(e, out=e).sum(axis=1)
        total += float((np.log(z) - picked).sum())
        e /= z[:, None]  # the buffer turns into softmax - onehot
        e[rows, tb] -= 1.0
        np.matmul(e, wv.T, out=dx[lo:lo + block])
        if lo:  # later blocks add strip by strip through one reused buffer
            for c0 in range(0, wv.shape[1], STRIP):
                es = e[:, c0:c0 + STRIP]
                dw[:, c0:c0 + STRIP] += np.matmul(xb.T, es, out=strip[:, :es.shape[1]])
        else:
            np.matmul(xb.T, e, out=dw)
        db += e.sum(axis=0)

    def bwd(g):  # scaled in place, the three stay owned: .grad takes them uncopied
        return [np.multiply(grad, g, out=grad) for grad in (dx, dw, db)]

    return tape.record((x, w, b), Tensor(total), bwd)


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
    that checkpoints are unambiguous. The step kernel computes σ(v) as
    0.5·tanh(0.5·v) + 0.5 and h' as h + z∘(c − h), equal up to rounding.
    """

    w: Tensor
    u: Tensor
    b: Tensor

    def tensors(self) -> list[Tensor]:
        return [self.w, self.u, self.b]

    def step_form(self) -> GRUStep:
        """The cell as its steps read it, from the current values."""
        n = self.u.value.shape[0]
        half = np.repeat([0.5, 1.0], [2 * n, n])  # over the [r|z|c] columns
        return GRUStep(self.w.value * half, self.b.value * half,
                       self.u.value[:, :2 * n] * 0.5, self.u.value[:, 2 * n:].copy())


@dataclass(slots=True)
class GRUStep:
    """A GRUWeights cell in step form, built once per walk level or taped
    unroll: the r/z columns of w, b and u halved, and u split by gate into
    contiguous blocks, so no step slices or scales a weight."""

    w: np.ndarray  # [0.5·w_rz | w_c]
    b: np.ndarray  # [0.5·b_rz | b_c]
    u_rz: np.ndarray  # 0.5·u[:, :2h]
    u_c: np.ndarray  # u[:, 2h:]

    def project(self, x: np.ndarray) -> np.ndarray:
        """x·w + b for every row of x, as one product, its r/z columns
        halved: the kernel reads a step's rows of its first 2h columns and
        of its last h. The bias rides here, so the steps never add it."""
        xw = x @ self.w
        xw += self.b
        return xw


def gru_cell(tape: Tape, x: Tensor, h0: Tensor, w: GRUWeights, live,
             last: bool = False) -> Tensor:
    """A GRU unrolled over packed, step-major rows, as one tape record.

    Step t reads the next live[t] rows of x (packed, sum(live) by n) and
    updates rows [:live[t]] of the running state, which starts at h0
    (B, h); live never grows, and rows past live[t] pass through
    unchanged. Returns the packed states, row for row with x, or with
    `last` each row's state after the final step (B, h). The step form is
    built once per record; its input projection and, backward, the weight
    gradients and dx are one matmul each over all steps. Each step is
    gru_cell_np writing the packed rows of its step; the reverse loop
    carries only the state gradient, against the unhalved u.
    """
    if x.value.shape[1] != w.w.value.shape[0]:
        raise ValueError(f"gru_cell: input width {x.value.shape[1]} != {w.w.value.shape[0]}")
    if h0.value.shape[1] != w.u.value.shape[0]:
        raise ValueError("gru_cell: hidden width mismatch")
    live = [int(k) for k in live]
    if sum(live) != len(x.value) or not 0 <= min(live, default=0) <= max(live, default=0) \
            <= len(h0.value) or any(a < b for a, b in zip(live, live[1:])):
        raise ValueError(f"gru_cell: live counts {live} do not pack {len(x.value)} rows "
                         f"over {len(h0.value)}")
    xv, u = x.value, w.u.value
    n, k0, live = h0.value.shape[1], live[0] if live else 0, np.array(live, dtype=np.int64)
    starts = np.cumsum(live) - live
    spans = list(zip(starts.tolist(), (starts + live).tolist()))
    step = w.step_form()
    xw = step.project(xv)
    x_rz, x_c = xw[:, :2 * n], xw[:, 2 * n:]
    # per packed row: [r|z], r∘h, c, z∘(c − h) and the state it writes; packed
    # row p of step t reads row p of h0 at step 0, else row p − live[t − 1]
    rz, rh, c, zch, states = (np.empty((len(xv), k * n)) for k in (2, 1, 1, 1, 1))
    read = h0.value
    for (lo, hi), back in zip(spans, [0, *live.tolist()]):
        gru_cell_np(x_rz[lo:hi], x_c[lo:hi], read[lo - back:hi - back], step, rz[lo:hi],
                    rh[lo:hi], c[lo:hi], zch[lo:hi], states[lo:hi])
        read = states
    if last:  # row i's final state is at its last step, the last t with live[t] > i
        h, i = h0.value.copy(), np.arange(k0)
        h[:k0] = states[starts[np.searchsorted(-live, -i) - 1] + i]
    out = Tensor(h if last else states)

    def bwd(g):
        r, z = rz[:, :n], rz[:, n:]
        hp = states[np.arange(len(xv)) - np.repeat(np.append(0, live)[:-1], live)]
        hp[:k0] = h0.value[:k0]  # the state each packed row read
        # the gate terms free of the incoming gradient, z(1 - c²), (r∘h)(1 - r),
        # (c - h)z(1 - z) and 1 - z, formed mostly over the forward's arrays:
        # at these sizes each fresh array costs page faults
        a_c = np.multiply(c, c, out=c)
        np.subtract(1.0, a_c, out=a_c)
        a_c *= z
        a_r = np.subtract(1.0, r)
        a_r *= rh
        keep = np.subtract(1.0, z, out=z)
        a_z = np.multiply(zch, keep, out=zch)
        u_rz, u_c = u[:, :2 * n].T, u[:, 2 * n:].T
        d_a = np.empty((len(xv), 3 * n))  # pre-activation gradients [r|z|c]
        d_h = g.copy() if last else np.zeros_like(h0.value)
        for lo, hi in reversed(spans):
            dh = d_h[:hi - lo]
            if not last:
                dh += g[lo:hi]
            d_c = np.multiply(dh, a_c[lo:hi], out=d_a[lo:hi, 2 * n:])
            d_rh = d_c @ u_c
            np.multiply(d_rh, a_r[lo:hi], out=d_a[lo:hi, :n])
            np.multiply(dh, a_z[lo:hi], out=d_a[lo:hi, n:2 * n])
            dh *= keep[lo:hi]
            dh += d_rh * r[lo:hi]
            dh += d_a[lo:hi, :2 * n] @ u_rz
        d_u = np.concatenate([hp.T @ d_a[:, :2 * n], rh.T @ d_a[:, 2 * n:]], axis=1)
        return d_a @ w.w.value.T, d_h, xv.T @ d_a, d_u, d_a.sum(axis=0)

    return tape.record((x, h0, *w.tensors()), out, bwd)


def gru_cell_np(x_rz: np.ndarray, x_c: np.ndarray, h_prev: np.ndarray, step: GRUStep,
                rz=None, rh=None, c=None, zch=None, out=None) -> np.ndarray:
    """The tape-free GRU step from a step-form projection, its r/z columns
    x_rz and its c columns x_c, and state h_prev, written into [r|z], r∘h,
    c, z∘(c − h) and h' (each allocated where not given); returns h'.
    h' = h + z∘(c − h) goes to `out`, by default into h_prev itself: the
    walk updates its running state in place, and a rounded sum does not
    depend on the order of its terms. Both r/z terms come halved, so
    0.5·v = h·(0.5·u_rz) + 0.5·(x·w_rz + b_rz) exactly and
    σ(v) = 0.5·tanh(0.5·v) + 0.5 costs no multiply before the tanh. The
    candidate needs r∘h, so it has a matmul of its own."""
    n = h_prev.shape[1]
    rz = np.matmul(h_prev, step.u_rz, out=rz)
    rz += x_rz
    np.tanh(rz, out=rz)  # σ in [0, 1] with no overflow branch
    rz *= 0.5
    rz += 0.5
    rh = np.multiply(rz[:, :n], h_prev, out=rh)
    c = np.matmul(rh, step.u_c, out=c)
    c += x_c
    np.tanh(c, out=c)
    zch = np.subtract(c, h_prev, out=zch)
    zch *= rz[:, n:]
    return np.add(h_prev, zch, out=h_prev if out is None else out)
