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
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import point_process as pp
from .autodiff import (GRUWeights, Tape, Tensor, add, concat, dropout, embedding,
                       gather_rows, gru_cell, gru_cell_np, masked_softmax_xent,
                       matmul, scale)
from .data import DatasetSplit, GapBucketizer, UserHistory
from .evaluation import EvalReport, build_report, rank_of_target
from .optim import Adam, ParamGroup
from .point_process import ExponentOverflowError, QuadratureConfig


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
    time_clip_norm: float | None = 5.0
    time_unit: float = 86400.0
    gap_bucket_bound: float = 30 * 86400.0
    num_gap_buckets: int = 30
    gap_bucket_scheme: str = "uniform"

    def __post_init__(self):
        # every message names its field: a checkpoint's config is checked here
        def need(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(f"{name} {rule}, got {getattr(self, name)!r}")

        # types first, so that the range checks below compare numbers
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.type == "int":
                need(isinstance(v, numbers.Integral) and not isinstance(v, bool),
                     f.name, "must be an integer")
            elif f.type.startswith("float") and v is not None:
                need(isinstance(v, numbers.Real) and not isinstance(v, bool)
                     and math.isfinite(v), f.name, "must be a finite real number")
        for name in ("item_embedding_dim", "user_embedding_dim", "gap_embedding_dim",
                     "hidden_dim", "num_users", "max_session_reps", "batch_size",
                     "num_gap_buckets", "time_unit", "gap_bucket_bound"):
            need(getattr(self, name) > 0, name, "must be positive")
        need(self.num_items >= 2, "num_items", "must be >= 2")
        for name in ("loss_weight_time", "loss_weight_rec", "learning_rate",
                     "learning_rate_time"):
            need(getattr(self, name) >= 0, name, "must be non-negative")
        need(self.time_clip_norm is None or self.time_clip_norm > 0, "time_clip_norm",
             "must be None or positive")
        need(0.0 < self.alpha_exp <= 1.0, "alpha_exp", "must lie in (0, 1]")
        need(0.0 <= self.dropout_rate < 1.0, "dropout_rate", "must lie in [0, 1)")
        need(self.gap_bucket_scheme in ("uniform", "log"), "gap_bucket_scheme",
             "must be 'uniform' or 'log'")

    @property
    def rep_dim(self) -> int:
        return self.hidden_dim + self.gap_embedding_dim + self.user_embedding_dim

    def bucketizer(self) -> GapBucketizer:
        return GapBucketizer(upper_bound=self.gap_bucket_bound,
                             num_buckets=self.num_gap_buckets,
                             scheme=self.gap_bucket_scheme)

    def quadrature(self) -> QuadratureConfig:
        return QuadratureConfig(cutoff=self.gap_bucket_bound / self.time_unit)


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
class TrainingExample:
    user_index: int
    slot: int  # position in the user's train timeline
    row: int  # its session's row in the history table; history is the rows before
    inputs: np.ndarray  # items[:-1], consumed step by step
    targets: np.ndarray  # items[1:], one label per consumed step
    gap_target: float  # model time units (seconds / time_unit)
    time_masked: bool


def build_examples(split: DatasetSplit, cfg: ModelConfig) -> list[TrainingExample]:
    """One example per usable train session. Its history window is the
    table rows row - min(slot, max_session_reps) .. row - 1, which the
    per-epoch refresh fills."""
    examples, row = [], 0
    for hist in split.train:
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


# ---------------------------------------------------------------------------
# tape-free hierarchy walk (history table, evaluation, prediction)

def _hierarchy_walk(params: ModelParams, cfg: ModelConfig,
                    session_lists: list[list], user_indices: list[int],
                    ranked_from: list[int] | None = None):
    """Run the full two-level recursion without a tape, slot-synchronously
    across users.

    The inter level keeps a ring of in-flight windows per user:
    windows[u, m % R] is the state of the inter GRU over the reps of
    slots max(0, m - R) .. m - 1 read so far (R = max_session_reps), the
    window that ends before slot m. At slot j, window j is complete and
    becomes h_before; its ring entry is zeroed to start window j + R, and
    slot j's reps step every window m in [j + 1, min(j + R, n_u)] of their
    user in one batched GRU step, cut into blocks of at most batch_size
    rows so the step's temporaries stay small. Each (window, rep) pair is
    computed once, as a from-scratch unroll of every window would, but in
    about one call per slot instead of min(j, R); each rep's projection
    rep @ w_inter is computed once for all its windows. Within a slot the
    sessions go longest first, so intra step t steps only the live prefix.

    Returns flat arrays in user-major slot order plus per-user rank
    arrays. With base[u] the number of sessions of the users before u,
    user u's slot j is row base[u] + j of intra_states (sessions, hidden)
    and gap_buckets (sessions,) int64, and row base[u] + u + j of h_before
    (sessions + users, hidden): a user with n sessions gets n + 1 inter
    states, and the last one follows the last session and is the state the
    next return time conditions on. When `ranked_from` marks each user's
    first scored slot, the ranks are those of every within-session target
    from that slot on, teacher-forced. Rank rows queue up as the intra
    steps make them and are scored batch_size at a time, so no scores
    block exceeds (batch_size, items).
    """
    n_users = len(session_lists)
    h_dim, reach_max, bs = cfg.hidden_dim, cfg.max_session_reps, cfg.batch_size
    bucketizer = cfg.bucketizer()
    n_slots = [len(sl) for sl in session_lists]
    base = np.cumsum([0] + n_slots).tolist()
    intra_states = np.zeros((base[-1], h_dim))
    buckets = np.array([bucketizer.bucket(s.gap_before) for sl in session_lists for s in sl],
                       dtype=np.int64)
    h_before = np.zeros((base[-1] + n_users, h_dim))
    first = ranked_from or [math.inf] * n_users
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

    item_t, gap_t, user_t = (params.item_emb.value, params.gap_emb.value,
                             params.user_emb.value)
    windows = np.zeros((n_users, reach_max, h_dim))
    for j in range(max(n_slots, default=-1) + 1):
        active = [u for u in range(n_users) if n_slots[u] >= j]
        h_before[[base[u] + u + j for u in active]] = windows[active, j % reach_max]
        active = sorted((u for u in active if n_slots[u] > j),
                        key=lambda u: -len(session_lists[u][j].items))
        if not active:
            continue

        lens = [len(session_lists[u][j].items) for u in active]
        ids = np.zeros((len(active), lens[0]), dtype=np.int64)
        for row, u in enumerate(active):
            ids[row, :lens[row]] = session_lists[u][j].items
        ranked = [row for row, u in enumerate(active) if j >= first[u]]
        hh, live = windows[active, j % reach_max], len(active)
        for t in range(lens[0]):
            hh[:live] = gru_cell_np(item_t[ids[:live, t]], hh[:live], params.intra)
            while live and lens[live - 1] <= t + 1:
                live -= 1  # rows [:live] have an item t + 1, the target of this state
            need = [row for row in ranked if row < live]
            if need:
                queue.append((hh[need], ids[need, t + 1], np.asarray(active)[need]))
                rank_queue()
        rows = [base[u] + j for u in active]
        intra_states[rows] = hh

        # slot j's reps enter windows j + 1 .. min(j + R, n_u) of their user
        rep = np.concatenate([hh, gap_t[buckets[rows]],
                              user_t[[user_indices[u] for u in active]]], axis=1)
        proj = rep @ params.inter.w.value
        windows[active, j % reach_max] = 0.0
        reach = np.minimum([n_slots[u] - j for u in active], reach_max)
        src = np.repeat(np.arange(len(active)), reach)
        start = np.repeat(np.cumsum(reach) - reach, reach)
        who, at = np.asarray(active)[src], (j + 1 + np.arange(len(src)) - start) % reach_max
        for lo in range(0, len(src), bs):
            b = slice(lo, lo + bs)
            windows[who[b], at[b]] = gru_cell_np(rep[src[b]], windows[who[b], at[b]],
                                                 params.inter, proj[src[b]])

    rank_queue(final=True)
    ranks, users = (np.concatenate(d) for d in zip(*done))
    order, per_user = np.argsort(users, kind="stable"), np.bincount(users, minlength=n_users)
    return intra_states, buckets, h_before, np.split(ranks[order], np.cumsum(per_user)[:-1])


def _refresh_histories(split: DatasetSplit, params: ModelParams,
                       cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The history table from the current weights: intra states and gap
    buckets, one row per train session as `TrainingExample.row` counts
    them (once per epoch; within an epoch they go stale)."""
    return _hierarchy_walk(params, cfg, [h.sessions for h in split.train],
                           [h.user_index for h in split.train])[:2]


# ---------------------------------------------------------------------------
# taped forward

def _forward_batch(tape: Tape, params: ModelParams, cfg: ModelConfig,
                   batch: list[TrainingExample], rng, table):
    """Batched taped training pass over the (states, buckets) history
    table; returns (joint loss tensor, time nll value, rec nll value,
    unmasked time rows, rec steps)."""
    n = len(batch)
    h_dim = cfg.hidden_dim
    users = np.array([ex.user_index for ex in batch], dtype=np.int64)

    # inter level over right-aligned histories: entry t of row i is table row
    # ex.row - window + t, live for its last min(slot, R) entries; the front
    # padding keeps the zero state and bucket 0, and the update mask freezes it
    reach = np.array([min(ex.slot, cfg.max_session_reps) for ex in batch])
    window = int(reach.max())
    h = Tensor(np.zeros((n, h_dim)))
    if window:
        live = np.arange(window) >= window - reach[:, None]
        at = (np.array([ex.row for ex in batch])[:, None] - window + np.arange(window))[live]
        segs = np.zeros((n, window, h_dim))
        gaps = np.zeros((n, window), dtype=np.int64)
        segs[live], gaps[live] = table[0][at], table[1][at]
        for t in range(window):
            rep = concat(tape, [Tensor(segs[:, t]),
                                embedding(tape, params.gap_emb, gaps[:, t]),
                                embedding(tape, params.user_emb, users)])
            rep = dropout(tape, rep, cfg.dropout_rate, rng)
            h = gru_cell(tape, rep, h, params.inter, update_mask=live[:, t, None])
    h_j = h

    time_masked = np.array([ex.time_masked for ex in batch])
    g_alpha = np.array([0.0 if ex.time_masked else ex.gap_target ** cfg.alpha_exp
                        for ex in batch])
    s = matmul(tape, h_j, params.time_v, params.time_b)
    l_time = pp.time_nll(tape, s, params.time_w, g_alpha, masked=time_masked)

    width = max((len(ex.inputs) for ex in batch), default=0)
    rec_steps = int(sum(len(ex.inputs) for ex in batch))
    if width:
        # padded tail rows run on past their session's end; their states
        # are never read
        ids = np.zeros((n, width), dtype=np.int64)
        tgt = np.zeros((n, width), dtype=np.int64)
        lens = np.array([len(ex.inputs) for ex in batch])
        for i, ex in enumerate(batch):
            ids[i, :lens[i]] = ex.inputs
            tgt[i, :lens[i]] = ex.targets
        hh, states = h_j, []
        for t in range(width):
            x = dropout(tape, embedding(tape, params.item_emb, ids[:, t]),
                        cfg.dropout_rate, rng)
            hh = gru_cell(tape, x, hh, params.intra)
            states.append(hh)
        # only live (step, row) states are scored, step-major, in chunks of
        # at most batch_size rows: no block outgrows one step's (n, items)
        steps, rows = np.nonzero(np.arange(width)[:, None] < lens)
        total = None
        for lo in range(0, rec_steps, cfg.batch_size):
            part = slice(lo, lo + cfg.batch_size)
            live = gather_rows(tape, states, steps[part], rows[part])
            sc = matmul(tape, live, params.out_w, params.out_b)
            piece = masked_softmax_xent(tape, sc, tgt[rows[part], steps[part]])
            total = piece if total is None else add(tape, total, piece)
        l_rec = scale(tape, total, 1.0 / max(rec_steps, 1))
    else:
        l_rec = Tensor(np.zeros(()))

    loss = add(tape, scale(tape, l_time, cfg.loss_weight_time),
               scale(tape, l_rec, cfg.loss_weight_rec))
    return loss, float(l_time.value), float(l_rec.value), int((~time_masked).sum()), rec_steps


# ---------------------------------------------------------------------------
# training

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    time_nll: float
    rec_nll: float


def train(split: DatasetSplit, cfg: ModelConfig, epochs: int, seed: int,
          log=None, *, params: ModelParams | None = None,
          opt_state: dict | None = None, start_epoch: int = 1,
          ) -> tuple[ModelParams, list[EpochStats], dict]:
    """Mini-batch training over shuffled (user, session) examples.

    Runs epochs start_epoch..epochs inclusive. Deterministic for a fixed
    seed: initialization, shuffling, and dropout each draw from their own
    seeded stream, and the shuffle/dropout streams are re-derived per
    epoch, so training straight through or stopping at any epoch and
    resuming with the saved params and optimizer state produces identical
    parameters. `log` (if given) receives one JSON line of losses per
    epoch; training never reads the test split. The returned dict is the
    final optimizer state, suitable for resuming.
    """
    if start_epoch < 1:
        raise ValueError("start_epoch must be >= 1")
    if epochs < start_epoch:
        raise ValueError(f"epochs ({epochs}) must be >= start_epoch ({start_epoch})")
    if not any(h.sessions for h in split.train):
        raise ValueError("empty train split")
    if params is None:
        params = ModelParams.init(cfg, seed)
    examples = build_examples(split, cfg)
    opt = Adam([ParamGroup("main", params.main_tensors(), lr=cfg.learning_rate),
                ParamGroup("time", params.time_tensors(), lr=cfg.learning_rate_time,
                           clip_norm=cfg.time_clip_norm)])
    if opt_state is not None:
        opt.load_state_arrays(opt_state)

    stats: list[EpochStats] = []
    for epoch in range(start_epoch, epochs + 1):
        shuffle_rng = np.random.default_rng([seed, 1, epoch])
        drop_rng = np.random.default_rng([seed, 2, epoch])
        table = _refresh_histories(split, params, cfg)
        order = shuffle_rng.permutation(len(examples))
        loss_sum = time_sum = rec_sum = 0.0
        time_rows = rec_rows = 0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size), start=1):
            batch = [examples[i] for i in order[lo:lo + cfg.batch_size]]
            tape = Tape()
            try:
                loss, lt, lr_, nt, nr = _forward_batch(tape, params, cfg, batch,
                                                       drop_rng, table)
            except ExponentOverflowError as err:
                raise TrainingDivergedError(
                    f"forward diverged at epoch {epoch}, batch {batch_no}: {err}") from err
            if not np.isfinite(float(loss.value)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}")
            opt.zero_grad()
            tape.backward(loss)
            step = opt.step()
            if not step.applied:
                raise TrainingDivergedError(
                    f"optimizer step skipped at epoch {epoch}, batch {batch_no}: "
                    f"{step.skipped_reason}")
            loss_sum += float(loss.value) * len(batch)
            time_sum += lt * nt
            rec_sum += lr_ * nr
            time_rows += nt
            rec_rows += nr

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

def evaluate(params: ModelParams, cfg: ModelConfig, split: DatasetSplit,
             model_name: str = "thrnn") -> EvalReport:
    """Teacher-forced walk over each user's full timeline: every test-step
    target is ranked, and every unmasked test gap gets a return-time
    prediction conditioned on everything before that session. A parameter
    holding NaN or inf is refused by name: its ranks would read perfect."""
    for name, tensor in params.named().items():
        if not np.isfinite(tensor.value).all():
            raise ValueError(f"parameter {name!r} holds non-finite values")
    lists, uidx, first_test = [], [], []
    for tr, te in zip(split.train, split.test):
        lists.append(tr.sessions + te.sessions)
        uidx.append(tr.user_index)
        first_test.append(len(tr.sessions))
    _, _, h_before, ranks = _hierarchy_walk(params, cfg, lists, uidx,
                                            ranked_from=first_test)

    # h_before holds n + 1 rows per user; a test gap reads its session's row
    rows, targets, base = [], [], 0
    for u, te in enumerate(split.test):
        for row, s in enumerate(te.sessions, start=base + first_test[u]):
            if not s.gap_masked:
                rows.append(row)
                targets.append(s.gap_before)
        base += len(lists[u]) + 1
    if rows:
        s_vec = h_before[rows] @ params.time_v.value[:, 0] + params.time_b.value[0]
        preds = pp.expected_return_time_from_s(
            s_vec, float(params.time_w.value), cfg.quadrature()) * cfg.time_unit
    else:
        preds = np.zeros(0)
    return build_report(model_name, np.concatenate(ranks), preds,
                        np.asarray(targets, dtype=np.float64))


@dataclass
class Prediction:
    items: np.ndarray  # (k,) best first; ties go to the lower index
    scores: np.ndarray  # matching raw scores
    return_gap_seconds: float


def predict(history: UserHistory, params: ModelParams, cfg: ModelConfig,
            k: int = 5) -> Prediction:
    """Continuation ranking after the last consumed item, plus the
    expected gap until the user's next session (in seconds). Non-finite
    scores or a non-finite gap raise ValueError."""
    if not history.sessions:
        raise ValueError("need at least one session to predict from")
    empty = [i for i, s in enumerate(history.sessions) if len(s.items) == 0]
    if empty:
        raise ValueError(f"session {empty[0]} field 'items' is empty")
    if not 0 <= history.user_index < cfg.num_users:
        raise ValueError(f"user index {history.user_index} outside [0, {cfg.num_users})")
    if not 1 <= k <= cfg.num_items:
        raise ValueError(f"k must lie in [1, {cfg.num_items}]")
    bad = sorted({int(i) for s in history.sessions for i in s.items
                  if not 0 <= int(i) < cfg.num_items})
    if bad:
        raise IndexError(f"unknown item indices: {bad}")

    intra_states, _, h_before, _ = _hierarchy_walk(
        params, cfg, [list(history.sessions)], [history.user_index])
    scores = intra_states[-1] @ params.out_w.value + params.out_b.value
    if not np.isfinite(scores).all():
        raise ValueError("the model's item scores are not finite")
    # the stable argsort's top k without a full sort: every index scoring at
    # least the k-th best, lower index first among ties
    neg = -scores
    cand = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
    order = cand[np.argsort(neg[cand], kind="stable")][:k]

    # the next gap conditions on the session that just ended
    s = float(h_before[-1] @ params.time_v.value[:, 0] + params.time_b.value[0])
    gap = float(pp.expected_return_time_from_s(s, float(params.time_w.value),
                                               cfg.quadrature())[0])
    if not math.isfinite(gap):
        raise ValueError(f"the model's expected return time is not finite: {gap}")
    return Prediction(items=order, scores=scores[order],
                      return_gap_seconds=gap * cfg.time_unit)
