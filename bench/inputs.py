"""Seeded input generators for the benchmark workloads.

Everything here depends only on the workload size and the seed, so the
same seed always yields byte-identical input files. The program under
test sees only the files written here, never these generators.
"""

from __future__ import annotations

import json
import os

import numpy as np

# the item count the Reddit preprocessing gate pins
REDDIT_ITEMS = 27_452

SIZES = {
    "markov-small": {"users": 50, "sessions_per_user": 30, "items": 50,
                     "dirichlet": 0.08, "gap_mean_days": 1.0},
    "reddit-vocab": {"users": 250, "items": REDDIT_ITEMS, "min_slots": 29_000,
                     "zipf_exponent": 1.0, "gap_threshold_s": 1800},
}

HISTORY_FILES = 10


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, stream])


# ---------------------------------------------------------------------------
# markov-small: a synth spec in the shape of the criterion-7 corpus


def write_markov_spec(path: str, seed: int) -> None:
    size = SIZES["markov-small"]
    rng = _rng(seed, 1)
    v = size["items"]
    transition = rng.dirichlet(np.full(v, size["dirichlet"]), size=v)
    spec = {"num_users": size["users"],
            "sessions_per_user": size["sessions_per_user"],
            "item_transition": transition.tolist(),
            "gap_mixture": [[1.0, size["gap_mean_days"]]]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


# ---------------------------------------------------------------------------
# reddit-vocab: a comment log with exactly REDDIT_ITEMS distinct subreddits


def _session_lengths(rng, n: int) -> np.ndarray:
    """Three to five comments per sitting, four on average."""
    return rng.integers(3, 6, size=n)


def _no_adjacent_repeats(seq: list[int], fixed: np.ndarray, draw) -> None:
    """Redraw free positions equal to their left neighbour so that no
    run of repeats collapses and the item count stays exact. Fixed
    positions hold distinct items, so two of them never clash."""
    clean = False
    while not clean:
        clean = True
        for i in range(1, len(seq)):
            if seq[i] == seq[i - 1]:
                seq[i - 1 if fixed[i] else i] = draw()
                clean = False


def write_reddit_csv(path: str, seed: int) -> dict:
    """author,subreddit,created_utc rows with a header.

    Every subreddit occurs at least once (a coverage slot); the remaining
    slots follow a Zipf popularity. Sittings hold three to five comments
    with no immediate repeat, spaced under the 30 min threshold, and are
    separated by gaps above it, so preprocessing keeps every session and
    the split vocabulary has exactly REDDIT_ITEMS items.
    """
    size = SIZES["reddit-vocab"]
    rng = _rng(seed, 2)
    n_items, n_users = size["items"], size["users"]

    per_user = rng.integers(6, 40, size=n_users)
    lengths = [list(_session_lengths(rng, int(k))) for k in per_user]
    total = sum(sum(ls) for ls in lengths)
    while total < size["min_slots"]:
        u = int(rng.integers(n_users))
        extra = int(_session_lengths(rng, 1)[0])
        lengths[u].append(extra)
        total += extra

    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -size["zipf_exponent"])
    cdf /= cdf[-1]
    popularity = rng.permutation(n_items)  # rank -> item

    def draw() -> int:
        return int(popularity[min(int(np.searchsorted(cdf, rng.random())),
                                  n_items - 1)])

    slots = np.array([draw() for _ in range(total)], dtype=np.int64)
    coverage = rng.choice(total, size=n_items, replace=False)
    slots[coverage] = rng.permutation(n_items)
    fixed = np.zeros(total, dtype=bool)
    fixed[coverage] = True

    rows = []
    pos = 0
    names = [f"r{int(k):05d}" for k in range(n_items)]
    for u in range(n_users):
        t = 1_300_000_000 + int(rng.integers(0, 86_400 * 30))
        for j, m in enumerate(lengths[u]):
            seq = list(slots[pos:pos + m])
            _no_adjacent_repeats(seq, fixed[pos:pos + m], draw)
            slots[pos:pos + m] = seq
            pos += m
            if j:
                # above the threshold: mostly hours, a tail of days
                t += size["gap_threshold_s"] + 1 + int(rng.exponential(
                    86_400.0 if rng.random() < 0.3 else 4 * 3600.0))
            for k, item in enumerate(seq):
                if k:
                    t += int(rng.integers(30, 900))
                rows.append(f"user{u:04d},{names[item]},{t}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("author,subreddit,created_utc\n")
        fh.writelines(rows)
    return {"rows": len(rows), "sessions": sum(len(ls) for ls in lengths)}


# ---------------------------------------------------------------------------
# predict histories cut from the split's test users


def write_histories(split_path: str, out_dir: str, seed: int) -> list[str]:
    """HISTORY_FILES history files, each a prefix of the timeline of a
    user who has test sessions. Cut lengths are spread evenly from 40%
    of the median timeline length to all of it and do not depend on the
    seed, so every seed gets the same mix of short and long histories;
    the seed picks the users, among those with timelines long enough."""
    rng = _rng(seed, 4)
    with open(split_path, encoding="utf-8") as fh:
        lines = fh.readlines()[2:]
    users = [json.loads(ln) for ln in lines]
    timelines = [(u, u["train"] + u["test"]) for u in users if u["test"]]
    full = int(np.median([len(t) for _, t in timelines]))
    lo = max(1, (2 * full) // 5)
    paths = []
    for k in range(HISTORY_FILES):
        cut = lo + ((full - lo) * (2 * k + 1)) // (2 * HISTORY_FILES)
        fits = [(u, t) for u, t in timelines if len(t) >= cut]
        rec, timeline = fits[int(rng.integers(len(fits)))]
        hist = {"user_index": rec["user_index"], "user_id": rec["user_id"],
                "sessions": timeline[:cut]}
        path = os.path.join(out_dir, f"history{k:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(hist, fh)
        paths.append(path)
    return paths
