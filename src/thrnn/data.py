"""Interaction logs -> sessionized per-user histories -> train/test split.

The pipeline per user: sessionize on an inactivity threshold, collapse
consecutive repeats, enforce the maximum session length (splitting
once-too-long sessions and dropping absurd ones), compute inter-session
gaps, then split each user's timeline into earliest-train / latest-test.

All functions here are pure and per-user; nothing mutates shared state.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

SPLIT_FORMAT_VERSION = 1


class IngestError(RuntimeError):
    """Raised when an input file cannot be trusted (too many bad rows, etc.)."""


@dataclass(frozen=True)
class RawInteraction:
    user_id: str
    item_id: str
    timestamp: float  # seconds since epoch

    def __post_init__(self):
        if not self.user_id or not self.item_id:
            raise ValueError("user_id and item_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")


@dataclass
class Session:
    """One sitting. `items` are dense indices after the split is built,
    raw ids while still inside the pipeline.

    gap_before is the seconds between the previous session's end and this
    one's start; 0.0 both for a user's first session and for the second
    half of a length-split session. gap_masked marks only the latter:
    an artificial boundary whose "gap" must not train or score the time
    model. item_times carries per-item timestamps between pipeline stages
    and is dropped from persisted output.
    """

    items: list
    start_time: float
    end_time: float
    gap_before: float = 0.0
    gap_masked: bool = False
    item_times: list[float] | None = None

    def __len__(self):
        return len(self.items)


@dataclass
class UserHistory:
    user_id: str
    user_index: int
    sessions: list[Session]


@dataclass(frozen=True)
class GapBucketizer:
    """Monotone discretization of gap seconds into [0, num_buckets)."""

    upper_bound: float
    num_buckets: int
    scheme: str = "uniform"

    def __post_init__(self):
        if self.upper_bound <= 0 or self.num_buckets < 1:
            raise ValueError("need upper_bound > 0 and num_buckets >= 1")
        if self.scheme not in ("uniform", "log"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def bucket(self, gap: float) -> int:
        if gap < 0:
            raise ValueError(f"negative gap {gap}")
        g = min(gap, self.upper_bound)
        if self.scheme == "uniform":
            frac = g / self.upper_bound
        else:
            frac = math.log1p(g) / math.log1p(self.upper_bound)
        return min(self.num_buckets - 1, int(frac * self.num_buckets))


@dataclass
class DatasetSplit:
    """Aligned per-user train/test histories plus the shared vocabulary."""

    train: list[UserHistory]
    test: list[UserHistory]
    item_vocabulary: dict[str, int]
    num_items: int
    num_users: int

    def stats(self) -> dict:
        n_train = sum(len(u.sessions) for u in self.train)
        n_test = sum(len(u.sessions) for u in self.test)
        lengths = [len(s) for u in self.train + self.test for s in u.sessions]
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_sessions": n_train + n_test,
            "num_train_sessions": n_train,
            "num_test_sessions": n_test,
            "avg_session_length": float(np.mean(lengths)) if lengths else 0.0,
        }


@dataclass(frozen=True)
class PreprocessConfig:
    gap_threshold: float = 3600.0
    max_session_length: int = 20
    train_fraction: float = 0.8
    min_sessions: int = 3

    def __post_init__(self):
        if self.gap_threshold <= 0:
            raise ValueError("gap_threshold must be positive")
        if self.max_session_length < 1:
            raise ValueError("max_session_length must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.min_sessions < 2:
            raise ValueError("min_sessions must be >= 2 (need train and test)")


# ---------------------------------------------------------------------------
# pipeline stages


def sessionize(interactions: list[RawInteraction], gap_threshold: float) -> list[Session]:
    """Group one user's time-sorted interactions into sessions.

    Consecutive interactions stay in one session while the gap between
    them is at most gap_threshold; a larger gap starts a new session.
    """
    if gap_threshold <= 0:
        raise ValueError("gap_threshold must be positive")
    for a, b in zip(interactions, interactions[1:]):
        if b.timestamp < a.timestamp:
            raise ValueError(f"interactions not time-sorted at t={b.timestamp}")
    sessions: list[Session] = []
    run: list[RawInteraction] = []
    for inter in interactions:
        if run and inter.timestamp > run[-1].timestamp + gap_threshold:
            sessions.append(_close(run))
            run = []
        run.append(inter)
    if run:
        sessions.append(_close(run))
    return sessions


def _close(run: list[RawInteraction]) -> Session:
    return Session(items=[r.item_id for r in run],
                   start_time=run[0].timestamp,
                   end_time=run[-1].timestamp,
                   item_times=[r.timestamp for r in run])


def collapse_repeats(session: Session) -> Session:
    """Reduce each run of equal consecutive items to its first occurrence."""
    items, times = [], []
    for pos, it in enumerate(session.items):
        if items and items[-1] == it:
            continue
        items.append(it)
        if session.item_times is not None:
            times.append(session.item_times[pos])
    return replace(session, items=items,
                   item_times=times if session.item_times is not None else None)


def enforce_length(sessions: list[Session], l_max: int) -> list[Session]:
    """Cap session length at l_max.

    Length in (l_max, 2*l_max] splits into two sessions at position l_max;
    the second half is an artificial continuation (gap_before 0, gap_masked).
    Anything longer than 2*l_max is dropped as degenerate logging noise.
    """
    out: list[Session] = []
    for s in sessions:
        n = len(s)
        if n <= l_max:
            out.append(s)
        elif n <= 2 * l_max:
            first, second = _split_at(s, l_max)
            out.append(first)
            out.append(second)
    return out


def _split_at(s: Session, pos: int) -> tuple[Session, Session]:
    if s.item_times is not None:
        t = s.item_times
        first = Session(items=s.items[:pos], start_time=t[0], end_time=t[pos - 1],
                        gap_before=s.gap_before, gap_masked=s.gap_masked,
                        item_times=t[:pos])
        second = Session(items=s.items[pos:], start_time=t[pos], end_time=t[-1],
                         gap_before=0.0, gap_masked=True, item_times=t[pos:])
    else:
        # without per-item times, pin the cut to the session start so
        # chronological order and the successor's gap stay intact
        first = Session(items=s.items[:pos], start_time=s.start_time,
                        end_time=s.start_time, gap_before=s.gap_before,
                        gap_masked=s.gap_masked)
        second = Session(items=s.items[pos:], start_time=s.start_time,
                         end_time=s.end_time, gap_before=0.0, gap_masked=True)
    return first, second


def assign_gaps(sessions: list[Session]) -> list[Session]:
    """Fill gap_before from neighbouring timestamps; first session gets 0."""
    out = []
    for i, s in enumerate(sessions):
        if s.gap_masked or i == 0:
            out.append(replace(s, gap_before=0.0))
        else:
            out.append(replace(s, gap_before=s.start_time - sessions[i - 1].end_time))
    return out


def build_history(user_id: str, interactions: list[RawInteraction],
                  config: PreprocessConfig) -> list[Session]:
    """Run the full per-user chain; sessions still carry raw item ids."""
    inters = sorted(interactions, key=lambda r: r.timestamp)
    sessions = sessionize(inters, config.gap_threshold)
    sessions = [collapse_repeats(s) for s in sessions]
    sessions = enforce_length(sessions, config.max_session_length)
    return assign_gaps(sessions)


def split_train_test(histories: list[UserHistory], train_fraction: float,
                     min_sessions: int = 3) -> DatasetSplit:
    """Per-user earliest-fraction split plus dense vocabulary construction.

    Input histories hold raw item ids; the output sessions hold dense
    indices. Users with fewer than min_sessions sessions are dropped.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie in (0, 1)")
    kept = [h for h in histories if len(h.sessions) >= min_sessions]
    if not kept:
        raise ValueError("no users left after the minimum-session filter")
    kept.sort(key=lambda h: h.user_id)

    vocab_ids = sorted({it for h in kept for s in h.sessions for it in s.items})
    vocab = {item_id: i for i, item_id in enumerate(vocab_ids)}

    train, test = [], []
    for idx, h in enumerate(kept):
        sessions = [replace(s, items=[vocab[it] for it in s.items], item_times=None)
                    for s in h.sessions]
        n_train = int(train_fraction * len(sessions))
        train.append(UserHistory(h.user_id, idx, sessions[:n_train]))
        test.append(UserHistory(h.user_id, idx, sessions[n_train:]))
    return DatasetSplit(train=train, test=test, item_vocabulary=vocab,
                        num_items=len(vocab), num_users=len(kept))


def preprocess(interactions: list[RawInteraction], config: PreprocessConfig) -> DatasetSplit:
    """Whole pipeline: group by user, sessionize, filter, split."""
    if not interactions:
        raise ValueError("empty corpus: zero interaction rows")
    by_user: dict[str, list[RawInteraction]] = {}
    for r in interactions:
        by_user.setdefault(r.user_id, []).append(r)
    histories = []
    for uid in sorted(by_user):
        sessions = build_history(uid, by_user[uid], config)
        if sessions:
            histories.append(UserHistory(uid, -1, sessions))
    return split_train_test(histories, config.train_fraction, config.min_sessions)


# ---------------------------------------------------------------------------
# ingestion adapters


@dataclass
class IngestReport:
    rows_total: int = 0
    rows_bad: int = 0
    bad_examples: list[str] = field(default_factory=list)

    def check(self, source: str) -> None:
        if self.rows_total == 0:
            raise IngestError(f"{source}: zero rows read")
        if self.rows_bad > 0.01 * self.rows_total:
            raise IngestError(
                f"{source}: {self.rows_bad}/{self.rows_total} malformed rows "
                f"(> 1%), e.g. {self.bad_examples[:3]}")

    def note_bad(self, line: str) -> None:
        self.rows_bad += 1
        if len(self.bad_examples) < 5:
            self.bad_examples.append(line.strip()[:120])


def read_lastfm_tsv(path: str) -> tuple[list[RawInteraction], IngestReport]:
    """Listening log: user \\t iso-timestamp \\t artist-id \\t artist-name \\t
    track-id \\t track-name. The artist id is the item; tracks are ignored.
    """
    rows: list[RawInteraction] = []
    report = IngestReport()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.strip():
                continue
            report.rows_total += 1
            parts = line.rstrip("\n").split("\t")
            try:
                ts = datetime.fromisoformat(parts[1].replace("Z", "+00:00"))
                if ts.tzinfo is None:
                    ts = ts.replace(tzinfo=timezone.utc)
                rows.append(RawInteraction(parts[0], parts[2], ts.timestamp()))
            except (IndexError, ValueError):
                report.note_bad(line)
    report.check(path)
    return rows, report


def read_reddit_csv(path: str) -> tuple[list[RawInteraction], IngestReport]:
    """Comment log: user, subreddit, unix-seconds columns, optional header."""
    rows: list[RawInteraction] = []
    report = IngestReport()
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        for i, parts in enumerate(reader):
            if not parts or not any(p.strip() for p in parts):
                continue
            if i == 0 and not _looks_numeric(parts[-1]):
                continue  # header
            report.rows_total += 1
            try:
                rows.append(RawInteraction(parts[0].strip(), parts[1].strip(),
                                           float(parts[2])))
            except (IndexError, ValueError):
                report.note_bad(",".join(parts))
    report.check(path)
    return rows, report


def _looks_numeric(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# split file persistence (line-delimited JSON, versioned)


def save_split(split: DatasetSplit, path: str) -> None:
    """Write the split as JSON lines: header, vocabulary, one line per user.

    Key order and float formatting are fixed so identical splits produce
    byte-identical files.
    """
    vocab_ids = [None] * split.num_items
    for item_id, idx in split.item_vocabulary.items():
        vocab_ids[idx] = item_id
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_jline({"kind": "header", "version": SPLIT_FORMAT_VERSION,
                         "num_items": split.num_items, "num_users": split.num_users}))
        fh.write(_jline({"kind": "vocabulary", "items": vocab_ids}))
        for tr, te in zip(split.train, split.test):
            fh.write(_jline({
                "kind": "user", "user_id": tr.user_id, "user_index": tr.user_index,
                "train": [_session_obj(s) for s in tr.sessions],
                "test": [_session_obj(s) for s in te.sessions],
            }))


def load_split(path: str) -> DatasetSplit:
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("kind") != "header":
            raise IngestError(f"{path}: not a split file")
        if header["version"] != SPLIT_FORMAT_VERSION:
            raise IngestError(f"{path}: split format version {header['version']} "
                              f"!= supported {SPLIT_FORMAT_VERSION}")
        vocab_line = json.loads(fh.readline())
        vocab = {item_id: i for i, item_id in enumerate(vocab_line["items"])}
        train, test = [], []
        for row, line in enumerate(fh):
            rec = json.loads(line)
            _check_user_record(rec, row, header["num_items"], path)
            train.append(UserHistory(rec["user_id"], rec["user_index"],
                                     [_session_from(o) for o in rec["train"]]))
            test.append(UserHistory(rec["user_id"], rec["user_index"],
                                    [_session_from(o) for o in rec["test"]]))
    if len(train) != header["num_users"]:
        raise IngestError(f"{path}: header field 'num_users' is {header['num_users']}, "
                          f"but the file holds {len(train)} user records")
    return DatasetSplit(train=train, test=test, item_vocabulary=vocab,
                        num_items=header["num_items"], num_users=header["num_users"])


def _check_user_record(rec: dict, row: int, num_items: int, path: str) -> None:
    """Reject records the model would misread: a session with no items
    has no intra state, numpy takes item -1 as the last embedding row,
    users are looked up by user_index, gaps are bucketed and the recursion
    assumes one timeline from train into test."""
    who = f"{path}: user {rec['user_id']!r}"
    if rec["user_index"] != row:
        raise IngestError(f"{who}: field 'user_index' is {rec['user_index']}, "
                          f"but the record is row {row}")
    prev_start = -math.inf
    for part in ("train", "test"):
        for k, o in enumerate(rec[part]):
            if not o["items"]:
                raise IngestError(f"{who}: field 'items' of {part} session {k} is empty")
            bad = [i for i in o["items"] if not 0 <= i < num_items]
            if bad:
                raise IngestError(f"{who}: field 'items' of a {part} session holds "
                                  f"{bad[0]}, outside [0, {num_items})")
            if o["gap"] < 0:
                raise IngestError(f"{who}: field 'gap' of {part} session {k} is "
                                  f"{o['gap']}, negative")
            if o["start"] < prev_start:
                raise IngestError(f"{who}: field 'start' of {part} session {k} is "
                                  f"{o['start']}, before the previous session's "
                                  f"start {prev_start}")
            prev_start = o["start"]


def _session_obj(s: Session) -> dict:
    return {"items": list(s.items), "start": s.start_time, "end": s.end_time,
            "gap": s.gap_before, "masked": s.gap_masked}


def _session_from(o: dict) -> Session:
    return Session(items=o["items"], start_time=o["start"], end_time=o["end"],
                   gap_before=o["gap"], gap_masked=o["masked"])


def _jline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
