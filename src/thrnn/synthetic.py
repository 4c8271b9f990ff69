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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .data import (SECONDS_PER_DAY, DatasetSplit, SessionTable, _is_finite, _is_int,
                   _require, build_split)

ITEM_SPACING_SECONDS = 30.0


@dataclass(frozen=True)
class CouplingState:
    """A latent session state: which items it emits and the mean (days)
    of the exponential gap that follows such a session."""

    items: tuple[int, ...]
    gap_mean_days: float

    def __post_init__(self):
        items, mean = self.items, self.gap_mean_days
        if not (isinstance(items, (list, tuple)) and items and all(map(_is_int, items))):
            raise ValueError(f"items must be a non-empty list of integers, got {items!r:.80}")
        if not (_is_finite(mean) and mean > 0):
            raise ValueError(f"gap_mean_days must be a positive finite number, got {mean!r:.80}")
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "gap_mean_days", float(mean))


@dataclass
class SynthSpec:
    """A corpus generator's spec, whose every type and value is checked here
    and nowhere else: a refusal is a ValueError that names the field. A
    context_coupling state may be an object, whose keys data._require
    checks before it is built as CouplingState(**state)."""

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
                raise ValueError(f"{name} must be a positive integer, got {value!r:.80}")
        sl = self.session_length
        if not (isinstance(sl, (tuple, list)) and len(sl) == 2 and all(map(_is_int, sl))):
            raise ValueError(f"session_length must be a pair of integers, got {sl!r:.80}")
        lo, hi = self.session_length = tuple(sl)
        if not 1 <= lo <= hi <= 20:
            raise ValueError("session_length must lie in [1, 20]")
        if not (_is_finite(self.train_fraction) and 0 < self.train_fraction < 1):
            raise ValueError(f"train_fraction must lie in (0, 1), got {self.train_fraction!r:.80}")
        self.train_fraction = float(self.train_fraction)

        try:
            m = np.asarray(self.item_transition, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"item_transition is not a matrix of numbers: {err}") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError("item_transition must be a non-empty square matrix")
        if not np.isfinite(m).all() or np.any(m < 0):
            raise ValueError("item_transition entries must be finite and non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("item_transition rows must be stochastic")
        self.item_transition = m

        mix = self.gap_mixture
        if not (isinstance(mix, (list, tuple)) and all(
                isinstance(p, (list, tuple)) and len(p) == 2 and all(map(_is_finite, p))
                and p[0] >= 0 and p[1] > 0 for p in mix)):
            raise ValueError("gap_mixture must be a list of (weight, mean_days) pairs, weights "
                             f"non-negative and means positive and finite, got {mix!r:.80}")
        self.gap_mixture = [(float(w), float(mean)) for w, mean in mix]
        if mix and abs(sum(w for w, _ in self.gap_mixture) - 1.0) > 1e-9:
            raise ValueError("gap_mixture weights must sum to 1")
        states = self.context_coupling
        if states is not None:
            if not isinstance(states, (list, tuple)):
                raise ValueError(f"context_coupling must be a list of states, got {states!r:.80}")
            self.context_coupling = [_coupling_state(k, st) for k, st in enumerate(states)]
        if not mix and not self.context_coupling:
            raise ValueError("gap_mixture is empty and no context_coupling draws the gaps")

        v = m.shape[0]
        off = m - np.diag(np.diag(m))  # a successor is another item
        pools = ({f"context_coupling state {k}": np.asarray(st.items)
                  for k, st in enumerate(self.context_coupling or [])}
                 or {"item_transition": np.arange(v)})
        for where, pool in pools.items():
            bad = pool[(pool < 0) | (pool >= v)]
            if len(bad):
                raise ValueError(f"{where} holds item {bad[0]}, outside [0, {v})")
            stuck = pool[off[np.ix_(pool, pool)].sum(axis=1) <= 0]
            if hi >= 2 and len(stuck):  # every item a session can reach needs one
                raise ValueError(f"{where}: item {stuck[0]} has no successor, but "
                                 f"session_length allows {hi} items")

    @property
    def num_items(self) -> int:
        return self.item_transition.shape[0]


def _coupling_state(k: int, state) -> CouplingState:
    """A spec's state k: a CouplingState, or an object with exactly its keys."""
    if isinstance(state, CouplingState):
        return state
    what, keys = f"context_coupling state {k}", ("items", "gap_mean_days")
    _require(state, keys, what, allowed=keys)
    try:
        return CouplingState(**state)
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


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
