"""Synthetic corpora with known structure, plus exact oracles for them.

Items follow a first-order Markov chain (conditioned on not repeating
the previous item, matching the pipeline's collapsed-repeat invariant).
Gaps come from an exponential mixture, or, with context coupling, from
a per-session latent state that also restricts the item vocabulary, so
that session content genuinely predicts the following gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DatasetSplit, Session, UserHistory, split_train_test
from .evaluation import rank_of_target
from .point_process import cdf_from_s, inverse_cdf_from_s

SECONDS_PER_DAY = 86400.0
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
        if self.gap_mean_days <= 0:
            raise ValueError("gap mean must be positive")


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
        m = np.asarray(self.item_transition, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("item_transition must be square")
        if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("item_transition rows must be stochastic")
        self.item_transition = m
        w = sum(w for w, _ in self.gap_mixture)
        if self.gap_mixture and abs(w - 1.0) > 1e-9:
            raise ValueError("gap mixture weights must sum to 1")
        if any(mean <= 0 for _, mean in self.gap_mixture):
            raise ValueError("gap means must be positive")
        lo, hi = self.session_length
        if not 1 <= lo <= hi <= 20:
            raise ValueError("session lengths must lie in [1, 20]")

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


def _draw_session_items(rng, spec: SynthSpec, state: CouplingState | None) -> list[int]:
    allowed = np.asarray(state.items) if state is not None else None
    lo, hi = spec.session_length
    m = int(rng.integers(lo, hi + 1))
    first_pool = allowed if allowed is not None else np.arange(spec.num_items)
    items = [int(rng.choice(first_pool))]
    for _ in range(m - 1):
        probs = conditioned_row(spec.item_transition, items[-1], allowed)
        items.append(int(rng.choice(spec.num_items, p=probs)))
    return items


def _draw_gap_days(rng, spec: SynthSpec, state: CouplingState | None) -> float:
    if state is not None:
        return float(rng.exponential(state.gap_mean_days))
    weights = np.array([w for w, _ in spec.gap_mixture])
    means = np.array([m for _, m in spec.gap_mixture])
    comp = int(rng.choice(len(weights), p=weights))
    return float(rng.exponential(means[comp]))


def generate_corpus(spec: SynthSpec, seed: int) -> DatasetSplit:
    """Deterministic corpus in the same DatasetSplit shape as real data.

    Each user gets an independent generator derived from (seed, user),
    so per-user streams are order-independent and parallelizable.
    """
    histories = []
    for u in range(spec.num_users):
        rng = np.random.default_rng([seed, u])
        sessions = []
        t = 0.0
        pending_gap = 0.0
        for j in range(spec.sessions_per_user):
            state = None
            if spec.context_coupling:
                state = spec.context_coupling[int(rng.integers(len(spec.context_coupling)))]
            items = _draw_session_items(rng, spec, state)
            start = t
            end = start + (len(items) - 1) * ITEM_SPACING_SECONDS
            sessions.append(Session(items=[item_id(i) for i in items],
                                    start_time=start, end_time=end,
                                    gap_before=pending_gap, gap_masked=False))
            gap_days = _draw_gap_days(rng, spec, state)
            pending_gap = gap_days * SECONDS_PER_DAY
            t = end + pending_gap
        histories.append(UserHistory(f"u{u:05d}", -1, sessions))
    return split_train_test(histories, spec.train_fraction, min_sessions=3)


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
