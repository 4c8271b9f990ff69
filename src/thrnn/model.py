"""The joint session model: two stacked GRU levels plus an intensity
head for return-time prediction, trained end to end.

Session j of a user is summarized by the intra-level GRU over its item
embeddings; the last hidden state, a gap-bucket embedding, and a user
embedding concatenate into the session representation. The inter-level
GRU consumes the most recent representations from a zero state, and its
final state h_j both seeds the next intra-level unroll and drives the
return-time density. The time head reads h_j only through the scalar
s = v.h_j + b, which is all that point_process needs.

Two details of the training scheme deserve calling out:

* History representations enter the computation with their intra-level
  summary detached (a constant refreshed once per epoch from the current
  weights), while their gap and user embedding segments are live
  lookups. Item embeddings therefore learn only from the recommendation
  loss of the session being predicted, never through the history
  pathway; gap and user embeddings keep learning through both losses.
  The refresh is one tape-free walk that fills a flat table, one row of
  intra state and gap bucket per train session in user-major slot order;
  an example's history is the rows just before its own.
* The time head gets its own optimizer group with a smaller learning
  rate and a gradient-norm clip. Its loss is exponential in s + w*g, so
  shared step sizes reliably blow it up.

The taped training pass steps live rows only: each GRU level of a batch
is one packed unroll, the inter level over the batch sorted by history
reach and the intra level over it sorted by session length, longest
first, so that the rows live at a step are a prefix. The packed intra
states are scored by one fused projection and softmax record per batch.

The tape-free walk behind the refresh, `evaluate` and `predict` steps a
user's inter windows only up to the last one its caller reads, and the
first max_session_reps of them, which all start at the user's first
session, as prefixes of one unroll.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import point_process as pp
from .autodiff import (GRUWeights, Tape, Tensor, concat, dropout, embedding, gather_rows,
                       gru_cell, gru_cell_np, masked_softmax_xent, matmul, weighted_sum)
from .data import (SECONDS_PER_DAY, DatasetSplit, SessionTable, UserHistory, _is_finite, _is_int,
                   session_columns)
from .evaluation import EvalReport, build_report, rank_of_target
from .optim import Adam, ParamGroup
from .point_process import ExponentOverflowError


class TrainingDivergedError(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


@dataclass
class ModelConfig:
    num_items: int
    num_users: int
    item_embedding_dim: int = 50
    user_embedding_dim: int = 10
    gap_embedding_dim: int = 5
    hidden_dim: int = 100  # both GRU levels: the inter state seeds the intra unroll
    max_session_reps: int = 15
    dropout_rate: float = 0.0
    loss_weight_time: float = 0.45
    loss_weight_rec: float = 0.45
    alpha_exp: float = 1.0
    batch_size: int = 100
    learning_rate: float = 1e-3
    learning_rate_time: float = 1e-4
    time_clip_norm: float = 5.0
    num_gap_buckets: int = 30  # splitting [0, pp.HORIZON_DAYS] evenly

    def __post_init__(self):
        # every message names its field: a checkpoint's config is checked here
        def need(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")

        # types first, by the split file's number rule, so that the range
        # checks below compare numbers
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                need(_is_int(v), f.name, "must be an integer")
            else:
                need(_is_finite(v), f.name, "must be a finite real number")
        for name in ("item_embedding_dim", "user_embedding_dim", "gap_embedding_dim",
                     "hidden_dim", "num_users", "max_session_reps", "batch_size",
                     "num_gap_buckets", "time_clip_norm"):
            need(getattr(self, name) > 0, name, "must be positive")
        need(self.num_items >= 2, "num_items", "must be >= 2")
        for name in ("loss_weight_time", "loss_weight_rec", "learning_rate",
                     "learning_rate_time"):
            need(getattr(self, name) >= 0, name, "must be non-negative")
        # below 0.3 the read-out misses 1e-6 relative at minute-scale gaps
        need(0.3 <= self.alpha_exp <= 1.0, "alpha_exp", "must lie in [0.3, 1]")
        need(0.0 <= self.dropout_rate < 1.0, "dropout_rate", "must lie in [0, 1)")

    @property
    def rep_dim(self) -> int:
        return self.hidden_dim + self.gap_embedding_dim + self.user_embedding_dim

    def gap_buckets(self, gaps) -> np.ndarray:
        """Gap seconds into [0, num_gap_buckets), even up to the horizon."""
        g, bound = np.asarray(gaps, dtype=np.float64), pp.HORIZON_DAYS * SECONDS_PER_DAY
        if np.any(g < 0):
            raise ValueError(f"negative gap {g.min()}")
        frac = np.minimum(g, bound) / bound
        return np.minimum(self.num_gap_buckets - 1, (frac * self.num_gap_buckets).astype(np.int64))


# ---------------------------------------------------------------------------
# parameters

def _glorot(rng, rows: int, cols: int) -> np.ndarray:
    a = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


@dataclass
class ModelParams:
    item_emb: Tensor
    user_emb: Tensor
    gap_emb: Tensor
    inter: GRUWeights
    intra: GRUWeights
    out_w: Tensor
    out_b: Tensor
    time_v: Tensor
    time_b: Tensor
    time_w: Tensor

    @staticmethod
    def shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Each parameter's shape by name: `init` and the checkpoint loader follow it."""
        h, n_items, e = cfg.hidden_dim, cfg.num_items, cfg.item_embedding_dim
        gru = {f"{level}.{k}": shape
               for level, n_in in (("inter", cfg.rep_dim), ("intra", e))
               for k, shape in (("w", (n_in, 3 * h)), ("u", (h, 3 * h)), ("b", (3 * h,)))}
        return {"item_emb": (n_items, e), "user_emb": (cfg.num_users, cfg.user_embedding_dim),
                "gap_emb": (cfg.num_gap_buckets, cfg.gap_embedding_dim), **gru,
                "out_w": (h, n_items), "out_b": (n_items,), "time_v": (h, 1), "time_b": (1,),
                "time_w": ()}

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray]) -> "ModelParams":
        """Wrap arrays keyed as in `shapes`, taking them as they are."""
        t = {name: Tensor(a, name=name) for name, a in arrays.items()}
        for level in ("inter", "intra"):
            t[level] = GRUWeights(*(t.pop(f"{level}.{k}") for k in "wub"))
        return ModelParams(**t)

    @staticmethod
    def init(cfg: ModelConfig, seed: int) -> "ModelParams":
        # all but the embeddings and weight matrices start at zero: the time head as a
        # unit-rate exponential (v = w = b = 0), a tame origin for its volatile gradients
        rng = np.random.default_rng([seed, 0])
        shapes, h = ModelParams.shapes(cfg), cfg.hidden_dim
        arrays = {name: np.zeros(shape) for name, shape in shapes.items()}
        for name in ("item_emb", "user_emb", "gap_emb"):
            arrays[name] = rng.uniform(-0.1, 0.1, size=shapes[name])
        for level in ("inter", "intra"):
            # per-gate Glorot blocks drawn w_r, u_r, w_z, u_z, w_c, u_c, then packed
            blocks = [_glorot(rng, rows, h) for _ in "rzc"
                      for rows in (shapes[f"{level}.w"][0], h)]
            arrays[f"{level}.w"] = np.hstack(blocks[0::2])
            arrays[f"{level}.u"] = np.hstack(blocks[1::2])
        arrays["out_w"] = _glorot(rng, *shapes["out_w"])
        return ModelParams.from_arrays(arrays)

    def named(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.main_tensors() + self.time_tensors()}

    def main_tensors(self) -> list[Tensor]:
        return ([self.item_emb, self.user_emb, self.gap_emb]
                + self.inter.tensors() + self.intra.tensors()
                + [self.out_w, self.out_b])

    def time_tensors(self) -> list[Tensor]:
        return [self.time_v, self.time_b, self.time_w]


# ---------------------------------------------------------------------------
# examples

@dataclass
class Examples:
    """One entry per usable train session, as columns. Example i's inputs
    are items[offset[i] : offset[i] + length[i] - 1], consumed step by
    step, and its targets the same span shifted by one; `items` is the
    split's own item column, not a copy."""

    row: np.ndarray  # its session's row in the history table; history is the rows before
    slot: np.ndarray  # position in the user's train timeline
    user: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    gap: np.ndarray  # gap target in days
    time_masked: np.ndarray
    items: np.ndarray

    def __len__(self):
        return len(self.row)


def build_examples(split: DatasetSplit, cfg: ModelConfig) -> Examples:
    """One example per usable train session. Its history window is the
    table rows row - min(slot, max_session_reps) .. row - 1, which the
    per-epoch refresh fills."""
    t, train = split.sessions, split.is_train()
    # no predecessor (slot 0) and split-session halves carry a
    # meaningless zero gap: mask the time loss for both
    time_masked = ~t.gap_events()
    keep = train & ~(time_masked & (t.lengths < 2))  # else neither loss has a target
    if not keep.any():
        raise ValueError("train split yields no usable examples")
    rows = np.flatnonzero(keep)
    return Examples(row=np.cumsum(train)[rows] - 1,
                    slot=rows - split.user_offsets()[t.user[rows]], user=t.user[rows],
                    offset=t.offsets()[rows], length=t.lengths[rows],
                    gap=t.gap[rows] / SECONDS_PER_DAY, time_masked=time_masked[rows],
                    items=t.items)


# ---------------------------------------------------------------------------
# tape-free hierarchy walk (history table, evaluation, prediction)

def _hierarchy_walk(params: ModelParams, cfg: ModelConfig, table: SessionTable,
                    ranked: np.ndarray | None = None, intra_rows=None, inter_rows=None):
    """Run the full two-level recursion over a session table without a
    tape, slot-synchronously across its users.

    The inter level keeps a ring of in-flight windows per user, one flat
    (users·R, hidden) array: ring[u·R + m % R] is the state of the inter
    GRU over the reps of slots max(0, m - R) .. m - 1 read so far (R =
    max_session_reps), the window that ends before slot m. Windows are
    stepped only up to N_u, the last one the caller reads: n_u where
    `inter_rows` keeps the state after the user's last session, n_u - 1
    otherwise. Windows 1 .. c_u = min(R, N_u) all start at slot 0, so
    each is a prefix of the chain window c_u, and only that one is
    stepped. At slot j, window j is complete and becomes h_before, read
    from the chain's entry where j <= c_u; entry j % R is zeroed to start
    window j + R, and slot j's reps step every window m in
    [max(j + 1, c_u), min(j + R, N_u)] of their user in one batched GRU
    step, cut into blocks of at most batch_size rows so the step's
    temporaries stay small. A user's windows take c_u + (N_u - c_u)·R GRU
    rows, in about one call per slot; each rep's projection
    rep·w_inter + b_inter is computed once for all its windows. Within a
    slot the sessions go longest first, so intra step t steps only the
    live prefix, and the intra steps take their rows of
    x·w_intra + b_intra from one product per block of consecutive steps,
    at most max(rows of the slot's first step, batch_size) rows: a
    one-user walk projects a session of up to batch_size items at once. Each level's step form (autodiff.GRUStep)
    and what the slots index (ring entries, rep tails, live-row counts,
    step-major items, (rep row, ring entry) pairs) are built once before
    the slot loop. Every step hands gru_cell_np the block's r/z and c
    projection rows: an intra step updates the live prefix of the slot's
    states in place, and an inter step its gathered ring rows, which go
    back to the ring.

    Returns flat arrays. Row k of the table, of user u, has gap bucket k
    (sessions,) int64, intra state k and inter state k + u: a user with n
    sessions gets n + 1 inter states, and the last one follows the last
    session and is the state the next return time conditions on.
    intra_states and h_before hold the states `intra_rows` and `inter_rows`
    number, in that order (every state where None); only those rows are
    allocated and written. Where `ranked` marks a row, the ranks of every
    within-session target of that session are returned, teacher-forced,
    as one array in table order: users in table order, each user's
    sessions and then steps in order. Rank rows queue up as the intra
    steps make them and are scored batch_size at a time, so no scores
    block exceeds (batch_size, items).
    """
    h_dim, reach_max, bs = cfg.hidden_dim, cfg.max_session_reps, cfg.batch_size
    first = table.first()
    base = np.flatnonzero(first)
    n_users, n_slots = len(base), np.diff(np.append(base, len(table)))
    block = np.cumsum(first) - 1
    slot = np.arange(len(table)) - base[block]
    # rows slot by slot, longest session first, ties in user order, so
    # that intra step t steps only a live prefix
    by_slot = np.lexsort((-table.lengths, slot))
    slot, blocks, lengths = slot[by_slot], block[by_slot], table.lengths[by_slot]
    bounds = np.searchsorted(slot, np.arange(n_slots.max(initial=0) + 1))
    buckets = cfg.gap_buckets(table.gap)
    empty = np.zeros(0, dtype=np.int64)
    # (states, targets, users) waiting to be ranked; (ranks, users) per ranked block
    queue, done = [(np.zeros((0, h_dim)), empty, empty)], [(empty, empty)]

    def rank_queue(final: bool = False) -> None:
        states, targets, users = (np.concatenate(q) for q in zip(*queue))
        rows = len(targets) if final else len(targets) - len(targets) % bs
        for lo in range(0, rows, bs):
            sc = states[lo:lo + bs] @ params.out_w.value
            sc += params.out_b.value
            done.append((rank_of_target(sc, targets[lo:lo + bs]), users[lo:lo + bs]))
        queue[:] = [(states[rows:], targets[rows:], users[rows:])]

    # per row: its h_before row, place in its slot and rep tail
    before_at, place = by_slot + blocks, np.arange(len(table)) - bounds[slot]

    def keep(rows, n, at):
        # the output, each of n numbered states' row in it (-1: dropped), and
        # the plan: slot j writes rows dst[c[j]:c[j + 1]] from places src[...]
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        to = np.full(n, -1)
        to[rows] = np.arange(len(rows))
        dst = to[at]
        sel = np.flatnonzero(dst >= 0)
        plan = dst[sel], place[sel], np.searchsorted(sel, bounds).tolist()
        return np.zeros((len(rows), h_dim)), to, plan

    def write(out, dst, src, c, j, hh):
        if c[j] < c[j + 1]:
            out[dst[c[j]:c[j + 1]]] = hh[src[c[j]:c[j + 1]]]

    intra_states, _, intra_plan = keep(intra_rows, len(table), by_slot)
    h_before, inter_to, inter_plan = keep(inter_rows, len(table) + n_users, before_at)
    last_to = inter_to[base + n_slots + np.arange(n_users)]  # after each user's last session
    # last[u]: user u's last window read. Per row, its user's windows 1 .. chain
    # are prefixes of window chain: only that one is stepped, and a row at
    # slot <= chain reads h_before from its entry
    last = n_slots - (last_to < 0)
    chain = np.minimum(last, reach_max)[blocks]
    ring_at = blocks * reach_max + slot % reach_max
    read_at = np.where(slot <= chain, blocks * reach_max + chain % reach_max, ring_at)
    tail = np.concatenate([params.gap_emb.value[buckets[by_slot]],
                           params.user_emb.value[table.user[by_slot]]], axis=1)
    # intra step t of slot j steps the live[at[j] + t] rows with more than t
    # items, read from items[firsts[at[j] + t]:], each row's at its place
    at = np.append(0, np.cumsum(lengths[bounds[:-1]]))
    item_no = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    step = np.repeat(at[slot], lengths) + item_no
    live = np.bincount(step, minlength=at[-1])
    firsts, items = np.append(0, np.cumsum(live)), np.empty_like(table.items)
    items[firsts[step] + np.repeat(place, lengths)] = table.items[
        np.repeat(table.offsets()[by_slot], lengths) + item_no]
    del item_no, step  # one int64 per item each: not held through the slot loop
    # a row's rep enters windows max(slot + 1, chain) .. min(slot + R, last) of its
    # user: pairs[j] .. pairs[j + 1] of (place, ring entry) are slot j's, int32
    first_window = np.maximum(slot + 1, chain)
    reach = np.minimum(slot + reach_max, last[blocks]) + 1 - first_window
    pairs = np.append(0, np.cumsum(reach))
    src, ring_to = (np.repeat(a.astype(np.int32), reach)
                    for a in (place, first_window - pairs[:-1]))
    ring_to += np.arange(pairs[-1], dtype=np.int32)
    ring_to %= reach_max
    ring_to += np.repeat((blocks * reach_max).astype(np.int32), reach)
    bounds, pairs, live = bounds.tolist(), pairs[bounds].tolist(), live.tolist()
    firsts, at = firsts.tolist(), at.tolist()
    ring = np.zeros((n_users * reach_max, h_dim))
    intra, inter = params.intra.step_form(), params.inter.step_form()
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        hh = ring[read_at[lo:hi]]
        write(h_before, *inter_plan, j, hh)

        # step s reads packed rows firsts[s] .. firsts[s + 1] - 1, counted
        # here from the slot's first, o; it takes them from the block
        # [start, end), projected in one product of at most cap rows
        o, s_end = firsts[at[j]], at[j + 1]
        ids = items[o:firsts[s_end]]
        x, end = params.item_emb.value[ids], 0
        ranked_rows = [] if ranked is None else np.flatnonzero(ranked[by_slot[lo:hi]]).tolist()
        for s in range(at[j], s_end):
            k, p0, p1 = live[s], firsts[s] - o, firsts[s + 1] - o
            if p1 > end:  # the next block: every step from s whose rows fit in cap
                start, cap = p0, max(live[at[j]], bs)
                end = firsts[bisect.bisect_right(firsts, o + p0 + cap, s + 1, s_end + 1) - 1] - o
                xw = intra.project(x[start:end])
                x_rz, x_c = xw[:, :2 * h_dim], xw[:, 2 * h_dim:]
            gru_cell_np(x_rz[p0 - start:p1 - start], x_c[p0 - start:p1 - start], hh[:k], intra)
            if ranked_rows:  # rows [:after] have a next item, the target of this state
                after = live[s + 1] if s + 1 < s_end else 0
                need = [row for row in ranked_rows if row < after]
                if need:
                    queue.append((hh[need], ids[p1:][need], blocks[lo:hi][need]))
                    rank_queue()
        write(intra_states, *intra_plan, j, hh)

        rep = np.concatenate([hh, tail[lo:hi]], axis=1)
        proj = inter.project(rep)
        ring[ring_at[lo:hi]] = 0.0
        for q in range(pairs[j], pairs[j + 1], bs):
            b = src[q:min(q + bs, pairs[j + 1])]
            to, pb = ring_to[q:q + len(b)], proj[b]
            ring[to] = gru_cell_np(pb[:, :2 * h_dim], pb[:, 2 * h_dim:], ring[to], inter)
    users = np.flatnonzero(last_to >= 0)
    h_before[last_to[users]] = ring[users * reach_max + n_slots[users] % reach_max]

    rank_queue(final=True)
    ranks, users = (np.concatenate(d) for d in zip(*done))
    return intra_states, buckets, h_before, ranks[np.argsort(users, kind="stable")]


def _refresh_histories(split: DatasetSplit, params: ModelParams,
                       cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The history table from the current weights: intra states and gap
    buckets, one row per train session as `Examples.row` counts them
    (once per epoch; within an epoch they go stale)."""
    train = split.sessions.take(np.flatnonzero(split.is_train()))
    return _hierarchy_walk(params, cfg, train, inter_rows=[])[:2]


# ---------------------------------------------------------------------------
# taped forward

def _forward_batch(tape: Tape, params: ModelParams, cfg: ModelConfig,
                   examples: Examples, batch: np.ndarray, rng, table):
    """Batched taped training pass over the examples at the indices
    `batch` and the (states, buckets) history table; returns (joint loss
    tensor, time nll value, rec nll value, unmasked time rows, rec steps).

    The batch is stable-sorted once by descending history reach. Each GRU
    level is one packed, step-major unroll of live rows: inter step k the
    sorted rows with reach > k, intra step t those with more than t inputs,
    longest first (stable). Dropout draws rng.random of each packed input,
    the inter reps first."""
    n, rate = len(batch), cfg.dropout_rate
    reach = np.minimum(examples.slot[batch], cfg.max_session_reps)
    by_reach = np.argsort(-reach, kind="stable")
    batch, reach = batch[by_reach], reach[by_reach]
    h_j = Tensor(np.zeros((n, cfg.hidden_dim)))
    if reach[0]:  # each row runs its reach reps from the zero state
        steps, rows = np.nonzero(np.arange(reach[0])[:, None] < reach)
        at = (examples.row[batch] - reach)[rows] + steps
        rep = concat(tape, [Tensor(table[0][at]),
                            embedding(tape, params.gap_emb, table[1][at]),
                            embedding(tape, params.user_emb, examples.user[batch][rows])])
        h_j = gru_cell(tape, dropout(tape, rep, rate, rng), h_j, params.inter,
                       np.bincount(steps), last=True)

    time_masked = examples.time_masked[batch]
    s = matmul(tape, h_j, params.time_v, params.time_b)
    l_time = pp.time_nll(tape, s, params.time_w, examples.gap[batch], cfg.alpha_exp,
                         masked=time_masked)

    lens = examples.length[batch] - 1  # inputs: every item but the last
    width, rec_steps = int(lens.max()), int(lens.sum())
    if width:
        # longest session first: the live intra rows at step t are a prefix,
        # and the packed states are exactly the (step, row) states scored
        by_len = np.argsort(-lens, kind="stable")
        steps, rows = np.nonzero(np.arange(width)[:, None] < lens[by_len])
        at = examples.offset[batch][by_len[rows]] + steps
        x = dropout(tape, embedding(tape, params.item_emb, examples.items[at]), rate, rng)
        states = gru_cell(tape, x, gather_rows(tape, h_j, by_len), params.intra,
                          np.bincount(steps))
        # one record, streamed in blocks no larger than one step's (n, items) scores
        total = masked_softmax_xent(tape, states, params.out_w, params.out_b,
                                    examples.items[at + 1], cfg.batch_size)
    else:
        total = Tensor(np.zeros(()))

    per_step = 1.0 / max(rec_steps, 1)
    loss = weighted_sum(tape, (l_time, total), (cfg.loss_weight_time,
                                                per_step * cfg.loss_weight_rec))
    return (loss, float(l_time.value), float(total.value) * per_step,
            int((~time_masked).sum()), rec_steps)


# ---------------------------------------------------------------------------
# training

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    time_nll: float
    rec_nll: float


def optimizer(params: ModelParams, cfg: ModelConfig, state: dict | None = None) -> Adam:
    """The Adam that trains params: the main group, and the time head's
    with its own rate and clip. `state`, a dict state_arrays gave, is
    checked and loaded; a malformed array raises ValueError naming it."""
    opt = Adam([ParamGroup("main", params.main_tensors(), lr=cfg.learning_rate),
                ParamGroup("time", params.time_tensors(), lr=cfg.learning_rate_time,
                           clip_norm=cfg.time_clip_norm)])
    if state is not None:
        opt.load_state_arrays(state)
    return opt


def train(split: DatasetSplit, cfg: ModelConfig, epochs: int, seed: int,
          log=None, *, params: ModelParams | None = None,
          opt: Adam | None = None, start_epoch: int = 1,
          ) -> tuple[ModelParams, list[EpochStats], dict]:
    """Mini-batch training over shuffled (user, session) examples.

    Runs epochs start_epoch..epochs inclusive. Deterministic for a fixed
    seed: initialization, shuffling, and dropout each draw from their own
    seeded stream, and the shuffle/dropout streams are re-derived per
    epoch, so training straight through or stopping at any epoch and
    resuming with the saved params and optimizer state produces identical
    parameters. `log` (if given) receives one JSON line of losses per
    epoch; training never reads the test split. `opt`, optimizer(params,
    cfg, saved state) when resuming, must step `params`. The returned dict
    is the final optimizer state, suitable for resuming.
    """
    if start_epoch < 1:
        raise ValueError("start_epoch must be >= 1")
    if epochs < start_epoch:
        raise ValueError(f"epochs ({epochs}) must be >= start_epoch ({start_epoch})")
    if params is None:
        params = ModelParams.init(cfg, seed)
    examples = build_examples(split, cfg)
    if opt is None:
        opt = optimizer(params, cfg)
    opt.zero_grad()  # each step then drops its own

    stats: list[EpochStats] = []
    for epoch in range(start_epoch, epochs + 1):
        shuffle_rng = np.random.default_rng([seed, 1, epoch])
        drop_rng = np.random.default_rng([seed, 2, epoch])
        table = _refresh_histories(split, params, cfg)
        order = shuffle_rng.permutation(len(examples))
        loss_sum = time_sum = rec_sum = 0.0
        time_rows = rec_rows = 0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = order[lo:lo + cfg.batch_size]
            tape = Tape()
            try:
                loss, lt, lr_, nt, nr = _forward_batch(tape, params, cfg, examples, batch,
                                                       drop_rng, table)
            except ExponentOverflowError as err:
                raise TrainingDivergedError(
                    f"forward diverged at epoch {epoch}, batch {batch_no}: {err}") from err
            if not np.isfinite(float(loss.value)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}")
            tape.backward(loss)
            step = opt.step()
            # no gradient outlives its step, and the tape goes when the next
            # one replaces it (dropping both here lets malloc trim the heap,
            # and the next batch faults its pages back in)
            opt.zero_grad()
            if not step.applied:
                raise TrainingDivergedError(
                    f"optimizer step skipped at epoch {epoch}, batch {batch_no}: "
                    f"{step.skipped_reason}")
            loss_sum += float(loss.value) * len(batch)
            time_sum += lt * nt
            rec_sum += lr_ * nr
            time_rows += nt
            rec_rows += nr
        del table  # the next refresh builds its table beside no old one

        stats.append(EpochStats(
            epoch=epoch,
            train_loss=loss_sum / len(examples),
            time_nll=time_sum / max(time_rows, 1),
            rec_nll=rec_sum / max(rec_rows, 1)))
        if log is not None:
            log(json.dumps({"kind": "epoch", **dataclasses.asdict(stats[-1])},
                           sort_keys=True))
    return params, stats, opt.state_arrays()


# ---------------------------------------------------------------------------
# evaluation and prediction

def _return_seconds(params: ModelParams, cfg: ModelConfig, h: np.ndarray) -> np.ndarray:
    """Expected seconds to the next session after inter state(s) h; refuses non-finite."""
    s = h @ params.time_v.value[:, 0] + params.time_b.value[0]
    gaps = pp.expected_return_time_from_s(s, float(params.time_w.value), pp.QUADRATURE,
                                          cfg.alpha_exp) * SECONDS_PER_DAY
    if not np.isfinite(gaps).all():
        raise ValueError("the model's expected return time is not finite")
    return gaps


def evaluate(params: ModelParams, cfg: ModelConfig, split: DatasetSplit,
             model_name: str = "thrnn") -> EvalReport:
    """Teacher-forced walk over each user's full timeline: every test-step
    target is ranked, and every test gap event (SessionTable.gap_events)
    gets a return-time prediction conditioned on everything before it. A parameter
    holding NaN or inf is refused by name: its ranks would read perfect."""
    for name, tensor in params.named().items():
        if not np.isfinite(tensor.value).all():
            raise ValueError(f"parameter {name!r} holds non-finite values")
    t, test = split.sessions, ~split.is_train()
    # a user has n + 1 inter states; a test gap reads its session's one
    rows = np.flatnonzero(test & t.gap_events())
    _, _, h_before, ranks = _hierarchy_walk(params, cfg, t, ranked=test, intra_rows=[],
                                            inter_rows=rows + (np.cumsum(t.first()) - 1)[rows])
    return build_report(model_name, ranks, _return_seconds(params, cfg, h_before), t.gap[rows])


@dataclass
class Prediction:
    items: np.ndarray  # (k,) best first; ties go to the lower index
    scores: np.ndarray  # matching raw scores
    return_gap_seconds: float


def predict(history: UserHistory, params: ModelParams, cfg: ModelConfig,
            k: int = 5) -> Prediction:
    """Continuation ranking after the last consumed item, plus the
    expected gap until the user's next session (in seconds). The sessions
    must pass the split file's check, data.session_columns, which refuses
    a bad field by name. Non-finite scores or a non-finite gap raise
    ValueError."""
    if not history.sessions:
        raise ValueError("need at least one session to predict from")
    if not _is_int(history.user_index):
        raise ValueError(f"user_index is {history.user_index!r:.80}, not an integer")
    if not 0 <= history.user_index < cfg.num_users:
        raise ValueError(f"user index {history.user_index} outside [0, {cfg.num_users})")
    if not 1 <= k <= cfg.num_items:
        raise ValueError(f"k must lie in [1, {cfg.num_items}]")

    def plain(v):  # a numpy scalar as the Python value it holds
        return v.item() if isinstance(v, np.generic) else v

    items, lengths, cols = session_columns({"": [
        {"items": [plain(i) for i in s.items], "start": plain(s.start_time),
         "end": plain(s.end_time), "gap": plain(s.gap_before), "masked": plain(s.gap_masked)}
        for s in history.sessions]}, cfg.num_items, "history")
    table = SessionTable(user=np.full(len(lengths), history.user_index, dtype=np.int64),
                         lengths=np.array(lengths, dtype=np.int64),
                         items=np.array(items, dtype=np.int64),
                         **{name: np.array(col, dtype=bool if name == "masked" else np.float64)
                            for name, col in cols.items()})

    intra_states, _, h_before, _ = _hierarchy_walk(params, cfg, table,
                                                   intra_rows=[-1], inter_rows=[-1])
    scores = intra_states[-1] @ params.out_w.value + params.out_b.value
    if not np.isfinite(scores).all():
        raise ValueError("the model's item scores are not finite")
    # the stable argsort's top k without a full sort: every index scoring at
    # least the k-th best, lower index first among ties
    neg = -scores
    cand = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    order = cand[np.argsort(neg[cand], kind="stable")][:k]

    # the next gap conditions on the session that just ended
    return Prediction(items=order, scores=scores[order],
                      return_gap_seconds=float(_return_seconds(params, cfg, h_before[-1])[0]))
