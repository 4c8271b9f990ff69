"""Synthetic corpora with known structure.

Items follow a first-order Markov chain (conditioned on not repeating
the previous item, matching the pipeline's collapsed-repeat invariant).
Gaps come from an exponential mixture, or, with context coupling, from
a per-session latent state that also restricts the item vocabulary, so
that session content genuinely predicts the following gap. The
Bayes-optimal ranking the tests hold a trained model against is in
tests/oracles.py.

The sampler draws exactly what per-draw `Generator.choice` calls would:
choice(V, p=row) builds cdf = row.cumsum(); cdf /= cdf[-1], draws one
rng.random() and returns cdf.searchsorted(u, side="right"). Here each
(coupling state, previous item) row is built that way once, on first
use, and kept as a list that bisect_right searches; a session's m - 1
successor uniforms come from one rng.random(m - 1), the same doubles as
m - 1 scalar draws; the first item is rng.integers(0, len(pool)), the
draw choice(pool) makes; the mixture component bisects its cumulative
weights. The generator stream and the corpus are byte-identical to the
per-draw chain kept in tests/oracles.py. Since nothing checks a row at
draw time, SynthSpec refuses at construction what choice would have
refused then.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import SECONDS_PER_DAY, DatasetSplit, SessionTable, _is_int, build_split

ITEM_SPACING_SECONDS = 30.0


@dataclass(frozen=True)
class CouplingState:
    """A latent session state: which items it emits and the mean (days)
    of the exponential gap that follows such a session."""

    items: tuple[int, ...]
    gap_mean_days: float

    def __post_init__(self):
        if not self.items:
            raise ValueError("coupling state needs at least one item")
        if not 0 < self.gap_mean_days < math.inf:
            raise ValueError("gap mean must be positive and finite")


@dataclass
class SynthSpec:
    num_users: int
    sessions_per_user: int
    item_transition: np.ndarray  # (V, V), row-stochastic
    gap_mixture: list[tuple[float, float]]  # (weight, mean_days)
    context_coupling: list[CouplingState] | None = None
    session_length: tuple[int, int] = (4, 8)
    train_fraction: float = 0.8

    def __post_init__(self):
        for name in ("num_users", "sessions_per_user"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        sl = self.session_length
        if not (isinstance(sl, (tuple, list)) and len(sl) == 2 and all(map(_is_int, sl))):
            raise ValueError(f"session_length must be a pair of integers, got {sl!r}")
        lo, hi = self.session_length = tuple(sl)
        if not 1 <= lo <= hi <= 20:
            raise ValueError("session_length must lie in [1, 20]")

        m = np.asarray(self.item_transition, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("item_transition must be a non-empty square matrix")
        if not np.isfinite(m).all() or np.any(m < 0):
            raise ValueError("item_transition entries must be finite and non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("item_transition rows must be stochastic")
        self.item_transition = m

        if not self.gap_mixture and not self.context_coupling:
            raise ValueError("gap_mixture is empty and no context_coupling draws the gaps")
        if any(not w >= 0 for w, _ in self.gap_mixture):
            raise ValueError("gap_mixture weights must be non-negative")
        if self.gap_mixture and abs(sum(w for w, _ in self.gap_mixture) - 1.0) > 1e-9:
            raise ValueError("gap_mixture weights must sum to 1")
        if any(not 0 < mean < math.inf for _, mean in self.gap_mixture):
            raise ValueError("gap_mixture means must be positive and finite")

        v = m.shape[0]
        for k, state in enumerate(self.context_coupling or []):
            bad = [i for i in state.items if not 0 <= i < v]
            if bad:
                raise ValueError(f"context_coupling state {k} holds item {bad[0]}, "
                                 f"outside [0, {v})")
        if hi >= 2:  # every item a session can reach then needs a successor
            pools = ({f"context_coupling state {k}": np.asarray(st.items)
                      for k, st in enumerate(self.context_coupling or [])}
                     or {"item_transition": np.arange(v)})
            off = m - np.diag(np.diag(m))
            for where, pool in pools.items():
                stuck = pool[off[np.ix_(pool, pool)].sum(axis=1) <= 0]
                if len(stuck):
                    raise ValueError(f"{where}: item {stuck[0]} has no successor, but "
                                     f"session_length allows {hi} items")

    @property
    def num_items(self) -> int:
        return self.item_transition.shape[0]


def item_id(index: int) -> str:
    """Zero-padded ids so the split's sorted vocabulary keeps this order."""
    return f"i{index:04d}"


def conditioned_row(transition: np.ndarray, prev: int,
                    allowed: np.ndarray | None = None) -> np.ndarray:
    """Next-item distribution given `prev`, excluding prev itself (and
    anything outside `allowed`), renormalized."""
    row = transition[prev].copy()
    row[prev] = 0.0
    if allowed is not None:
        mask = np.zeros_like(row, dtype=bool)
        mask[np.asarray(allowed)] = True
        row[~mask] = 0.0
    total = row.sum()
    if total <= 0:
        raise ValueError(f"no successor available from item {prev}")
    return row / total


def generate_corpus(spec: SynthSpec, seed: int) -> DatasetSplit:
    """Deterministic corpus in the same DatasetSplit shape as real data.

    Each user gets an independent generator derived from (seed, user),
    so per-user streams are order-independent and parallelizable.
    """
    lo, hi = spec.session_length
    coupling = spec.context_coupling or []
    pools = [[int(i) for i in st.items] for st in coupling] or [range(spec.num_items)]
    allowed = [np.asarray(st.items) for st in coupling] or [None]
    cdf_rows: dict[tuple[int, int], list[float]] = {}
    if spec.gap_mixture:
        gap_cdf = np.array([w for w, _ in spec.gap_mixture], dtype=np.float64).cumsum()
        gap_cdf /= gap_cdf[-1]
        gap_cdf, gap_means = gap_cdf.tolist(), [mean for _, mean in spec.gap_mixture]

    starts, ends, gaps, lengths, items = [], [], [], [], []
    for u in range(spec.num_users):
        rng = np.random.default_rng([seed, u])
        t = 0.0
        pending_gap = 0.0
        for _ in range(spec.sessions_per_user):
            k = int(rng.integers(len(coupling))) if coupling else 0
            m = int(rng.integers(lo, hi + 1))
            pool = pools[k]
            prev = pool[int(rng.integers(0, len(pool)))]
            session = [prev]
            for x in rng.random(m - 1).tolist():
                cdf = cdf_rows.get((k, prev))
                if cdf is None:
                    cdf = conditioned_row(spec.item_transition, prev, allowed[k]).cumsum()
                    cdf /= cdf[-1]
                    cdf = cdf_rows[k, prev] = cdf.tolist()
                prev = bisect_right(cdf, x)
                session.append(prev)
            start = t
            end = start + (len(session) - 1) * ITEM_SPACING_SECONDS
            starts.append(start)
            ends.append(end)
            gaps.append(pending_gap)
            lengths.append(len(session))
            items += session
            if coupling:
                gap_days = float(rng.exponential(coupling[k].gap_mean_days))
            else:
                gap_days = float(rng.exponential(gap_means[bisect_right(gap_cdf, rng.random())]))
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
