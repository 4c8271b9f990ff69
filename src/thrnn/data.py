"""Interaction logs -> sessionized per-user histories -> train/test split.

A reader turns a log file into an InteractionLog: three columns (user
id, item id, float64 seconds), one entry per good row. A row whose time
is negative, NaN or infinite, or whose user or item is empty, counts as
malformed. preprocess then runs the per-user chain over the whole log
as array operations: a stable sort by (user, time), so equal times keep
their file order; a new session wherever the user changes or the time
exceeds the previous one by more than the inactivity threshold; repeats
collapsed to the first of each run; the length cap (sessions of length
(L, 2L] split in two, longer ones dropped); and each session's gap from
the previous kept one. build_split, shared with the synthetic
generator, drops users with too few sessions, builds the sorted
vocabulary and orders the SessionTable user by user, each user's
earliest sessions train. Training, evaluation and the split file read
that table's columns; Session objects describe only a single history.
save_split writes the columns as JSON tokens, a block of users at a
time, in the bytes json.dumps gives one dict per session. One rule,
_require, refuses every JSON object input, by file and field, that lacks
a field or holds a key its reader does not allow.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain

import numpy as np

SPLIT_FORMAT_VERSION = 1
SECONDS_PER_DAY = 86400.0


class IngestError(RuntimeError):
    """Raised when an input file cannot be trusted (too many bad rows, etc.)."""


@dataclass
class InteractionLog:
    """A log as columns, one entry per good row, in file order."""

    users: list[str]
    items: list[str]
    times: np.ndarray  # float64 seconds since epoch

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if not len(self.users) == len(self.items) == len(self.times):
            raise ValueError("log columns differ in length")

    def __len__(self):
        return len(self.times)


@dataclass
class Session:
    """One sitting of a single history, a row of a SessionTable: `items`
    are dense indices into the split vocabulary."""

    items: list
    start_time: float
    end_time: float
    gap_before: float = 0.0
    gap_masked: bool = False


@dataclass
class UserHistory:
    user_id: str
    user_index: int
    sessions: list[Session]

    def table(self) -> "SessionTable":
        """The history as a one-user session table."""
        s = self.sessions
        return SessionTable(
            user=np.full(len(s), self.user_index, dtype=np.int64),
            start=np.array([x.start_time for x in s], dtype=np.float64),
            end=np.array([x.end_time for x in s], dtype=np.float64),
            gap=np.array([x.gap_before for x in s], dtype=np.float64),
            masked=np.array([x.gap_masked for x in s], dtype=bool),
            lengths=np.array([len(x.items) for x in s], dtype=np.int64),
            items=np.array([i for x in s for i in x.items], dtype=np.int64))


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
# pipeline


@dataclass
class SessionTable:
    """Sessions as columns, each user's together and in time order. User
    and item are integer codes; the items of all sessions are
    concatenated in `items`, `lengths[k]` of them for session k. `gap`
    is the seconds from the end of the user's previous session to this
    one's start: 0.0 both for a user's first session and for the second
    half of a length-split session, which `masked` marks."""

    user: np.ndarray
    start: np.ndarray
    end: np.ndarray
    gap: np.ndarray
    masked: np.ndarray
    lengths: np.ndarray
    items: np.ndarray

    def __len__(self):
        return len(self.user)

    def offsets(self) -> np.ndarray:
        """Where each session's items begin in `items`, then their total."""
        return np.concatenate(([0], np.cumsum(self.lengths)))

    def take(self, rows: np.ndarray) -> "SessionTable":
        """The sessions at the row indices `rows`, in that order."""
        n = self.lengths[rows]
        at = np.repeat(self.offsets()[rows] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        return SessionTable(user=self.user[rows], start=self.start[rows], end=self.end[rows],
                            gap=self.gap[rows], masked=self.masked[rows], lengths=n,
                            items=self.items[at])

    def first(self) -> np.ndarray:
        """Whether each session is the first of its user's in the table."""
        first = np.ones(len(self), dtype=bool)
        first[1:] = self.user[1:] != self.user[:-1]
        return first

    def gap_events(self) -> np.ndarray:
        """The sessions whose gap is a return time to train or score: not
        a user's first session, which has no predecessor, nor a masked one."""
        return ~self.masked & ~self.first()


@dataclass
class DatasetSplit:
    """One session table, users in index order; the first
    train_counts[u] sessions of user u are train, the rest test."""

    sessions: SessionTable
    train_counts: np.ndarray
    user_ids: list[str]
    item_ids: list[str]  # the vocabulary: item index -> id

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    def user_offsets(self) -> np.ndarray:
        """Each user's first row in the table, then the row count."""
        counts = np.bincount(self.sessions.user, minlength=self.num_users)
        return np.concatenate(([0], np.cumsum(counts)))

    def is_train(self) -> np.ndarray:
        """Whether each row of the table is a train session."""
        user = self.sessions.user
        slot = np.arange(len(user)) - self.user_offsets()[user]
        return slot < self.train_counts[user]

    def stats(self) -> dict:
        n_train = int(self.train_counts.sum())
        lengths = self.sessions.lengths
        return {
            "num_users": self.num_users,
            "num_items": self.num_items,
            "num_sessions": len(lengths),
            "num_train_sessions": n_train,
            "num_test_sessions": len(lengths) - n_train,
            "avg_session_length": float(np.mean(lengths)) if len(lengths) else 0.0,
        }


def sessionize(user: np.ndarray, item: np.ndarray, time: np.ndarray,
               config: PreprocessConfig) -> SessionTable:
    """Sessionize, collapse repeats, cap lengths and measure gaps for
    every user of a log at once; rows may come in any order."""
    order = np.lexsort((time, user))  # stable: equal times keep their order
    user, item, time = user[order], item[order], time[order]
    new = np.ones(len(time), dtype=bool)
    new[1:] = (user[1:] != user[:-1]) | (time[1:] > time[:-1] + config.gap_threshold)
    first = np.flatnonzero(new)
    last = np.ones(len(time), dtype=bool)
    last[:-1] = new[1:]
    raw_end = time[last]
    keep = new.copy()  # a repeat of its predecessor collapses into it
    keep[1:] |= item[1:] != item[:-1]
    lengths = np.bincount(np.cumsum(new)[keep] - 1, minlength=len(first))
    item, time = item[keep], time[keep]

    # length in (L, 2L] splits at L into two pieces, the second masked;
    # longer sessions are dropped. An unsplit session keeps its
    # pre-collapse end; split halves end at their last kept item.
    cap = config.max_session_length
    pieces = np.where(lengths <= cap, 1, np.where(lengths <= 2 * cap, 2, 0))
    src = np.repeat(np.arange(len(first)), pieces)
    masked = np.zeros(len(src), dtype=bool)
    masked[1:] = src[1:] == src[:-1]
    whole = pieces[src] == 1
    n = np.where(whole, lengths[src], np.where(masked, lengths[src] - cap, cap))
    at = np.cumsum(lengths)[src] - lengths[src] + masked * cap
    start = time[at]
    end = np.where(whole, raw_end[src], time[at + n - 1])
    owner = user[first][src]
    gap = np.zeros(len(src))
    follows = np.flatnonzero(~masked[1:] & (owner[1:] == owner[:-1])) + 1
    gap[follows] = start[follows] - end[follows - 1]
    return SessionTable(user=owner, start=start, end=end, gap=gap, masked=masked,
                        lengths=n, items=item[np.repeat(pieces > 0, lengths)])


def build_split(table: SessionTable, user_ids: list[str], item_ids: list[str],
                train_fraction: float, min_sessions: int) -> DatasetSplit:
    """Per-user earliest-fraction split plus dense vocabulary construction.

    `user_ids` and `item_ids` name the table's codes. Users with fewer
    than min_sessions sessions are dropped; users and vocabulary are the
    sorted ids of the kept users and their items. The table comes back
    reordered user by user, with dense user and item indices. The callers'
    configs, PreprocessConfig and SynthSpec, hold train_fraction in (0, 1).
    """
    counts = np.bincount(table.user, minlength=len(user_ids))
    kept = counts >= min_sessions
    if not kept.any():
        raise ValueError("no users left after the minimum-session filter")
    used = np.zeros(len(item_ids), dtype=bool)
    used[table.items[np.repeat(kept[table.user], table.lengths)]] = True
    vocab_codes = sorted(np.flatnonzero(used).tolist(), key=item_ids.__getitem__)
    dense = np.zeros(len(item_ids), dtype=np.int64)
    dense[vocab_codes] = np.arange(len(vocab_codes))

    users = sorted(np.flatnonzero(kept).tolist(), key=user_ids.__getitem__)
    index = np.zeros(len(user_ids), dtype=np.int64)
    index[users] = np.arange(len(users))
    rows = np.flatnonzero(kept[table.user])
    out = table.take(rows[np.argsort(index[table.user[rows]], kind="stable")])
    out.user, out.items = index[out.user], dense[out.items]
    return DatasetSplit(sessions=out,
                        train_counts=(train_fraction * counts[users]).astype(np.int64),
                        user_ids=[user_ids[u] for u in users],
                        item_ids=[item_ids[c] for c in vocab_codes])


def preprocess(log: InteractionLog, config: PreprocessConfig) -> DatasetSplit:
    """Whole pipeline: sessionize every user's rows, filter, split."""
    if not len(log):
        raise ValueError("empty corpus: zero interaction rows")
    user, user_ids = _codes(log.users)
    item, item_ids = _codes(log.items)
    table = sessionize(user, item, log.times, config)
    return build_split(table, user_ids, item_ids, config.train_fraction,
                       config.min_sessions)


def _codes(ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Integer code of each id, numbered by first appearance, and the ids."""
    index: dict[str, int] = {}
    codes = [index.setdefault(i, len(index)) for i in ids]
    return np.array(codes, dtype=np.int64), list(index)


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


def read_lastfm_tsv(path: str) -> tuple[InteractionLog, IngestReport]:
    """Listening log: user \\t iso-timestamp \\t artist-id \\t artist-name \\t
    track-id \\t track-name. The artist id is the item; tracks are ignored.
    """
    users, items, times = [], [], []
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
                user, item, t = parts[0], parts[2], ts.timestamp()
            except (IndexError, ValueError):
                user = ""
            if user and item and 0.0 <= t:
                users.append(user)
                items.append(item)
                times.append(t)
            else:
                report.note_bad(line)
    report.check(path)
    return InteractionLog(users, items, times), report


def read_reddit_csv(path: str) -> tuple[InteractionLog, IngestReport]:
    """Comment log: user, subreddit, unix-seconds columns, optional header.

    Columns past the third are ignored. A row with fewer than three
    columns, with an empty user or subreddit, with a time that is not a
    finite number >= 0, or that csv cannot parse is malformed; reading
    resumes after the last. The first row that csv parses is a header
    when its third column is not a number.
    """
    users, items, times = [], [], []
    report = IngestReport()
    with open(path, encoding="utf-8", errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        rows = None  # once csv parses a row: the reader, behind that row unless a header
        while True:
            try:
                if rows is None:
                    head = next(reader, [])
                    try:
                        float(head[2])
                        rows = chain([head], reader)
                    except (IndexError, ValueError):  # a header, or a blank row
                        rows = reader
                for parts in rows:  # after a csv.Error, chain resumes its reader
                    try:
                        user, item, t = parts[0].strip(), parts[1].strip(), float(parts[2])
                    except (IndexError, ValueError):
                        user = ""
                    if user and item and 0.0 <= t < math.inf:  # NaN fails both
                        users.append(user)
                        items.append(item)
                        times.append(t)
                    elif any(p.strip() for p in parts):  # blank rows are no rows
                        report.note_bad(",".join(parts))
                break
            except csv.Error as err:  # a field over csv.field_size_limit(), say
                report.note_bad(f"line {reader.line_num}: {err}")
    report.rows_total = len(times) + report.rows_bad
    report.check(path)
    return InteractionLog(users, items, times), report


# ---------------------------------------------------------------------------
# split file persistence (line-delimited JSON, versioned)

_BLOCK_SESSIONS = 256  # save_split forms the sessions of this many at a time


def save_split(split: DatasetSplit, path: str) -> None:
    """Write the split as JSON lines: header, vocabulary, one line per user.

    The bytes are those of json.dumps with sorted keys over one dict per
    session, so identical splits produce byte-identical files. The user
    lines are formed from column tokens, a block of about _BLOCK_SESSIONS
    sessions at a time, and each is written as soon as it is formed. A
    non-finite time has no JSON token: it is refused before the file is
    opened.
    """
    t = split.sessions
    _refuse_non_finite(split, path)
    first, n_train = split.user_offsets().tolist(), split.train_counts.tolist()
    bounds = t.offsets()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_jline({"kind": "header", "version": SPLIT_FORMAT_VERSION,
                         "num_items": split.num_items, "num_users": split.num_users}))
        fh.write(_jline({"kind": "vocabulary", "items": split.item_ids}))
        u = 0
        while u < split.num_users:  # a block: users u..v-1, never a user cut in two
            v = min(bisect_left(first, first[u] + _BLOCK_SESSIONS, u + 1), split.num_users)
            lo, hi = first[u], first[v]
            sessions = _session_tokens(t, bounds, lo, hi)
            for w in range(u, v):
                a, b = first[w] - lo, first[w + 1] - lo
                cut = a + n_train[w]
                fh.write(f'{{"kind":"user","test":[{",".join(sessions[cut:b])}],'
                         f'"train":[{",".join(sessions[a:cut])}],'
                         f'"user_id":{json.dumps(split.user_ids[w])},"user_index":{w}}}\n')
            u = v


def _session_tokens(t: SessionTable, bounds: np.ndarray, lo: int, hi: int) -> list[str]:
    """The JSON of sessions lo..hi-1 of t as json.dumps writes them with
    sorted keys: items through str, times through float.__repr__, masked
    as true or false."""
    at = (bounds[lo:hi + 1] - bounds[lo]).tolist()
    tokens = list(map(str, t.items[bounds[lo]:bounds[hi]].tolist()))
    items = [",".join(tokens[a:b]) for a, b in zip(at[:-1], at[1:])]
    return [f'{{"end":{e!r},"gap":{g!r},"items":[{i}],"masked":{("false", "true")[m]},'
            f'"start":{s!r}}}'
            for e, g, i, m, s in zip(t.end[lo:hi].tolist(), t.gap[lo:hi].tolist(), items,
                                     t.masked[lo:hi].tolist(), t.start[lo:hi].tolist())]


def _refuse_non_finite(split: DatasetSplit, path: str) -> None:
    """Refuse the first session whose start, end or gap is not finite,
    by field, user and session, as load_split would."""
    t = split.sessions
    bad = ~(np.isfinite(t.start) & np.isfinite(t.end) & np.isfinite(t.gap))
    if not bad.any():
        return
    k = int(np.argmax(bad))
    u = int(t.user[k])
    j, n_train = k - int(split.user_offsets()[u]), int(split.train_counts[u])
    part, j = ("train", j) if j < n_train else ("test", j - n_train)
    name = next(f for f in ("start", "end", "gap") if not np.isfinite(getattr(t, f)[k]))
    raise ValueError(f"{path}: user {split.user_ids[u]!r}: field {name!r} of {part} "
                     f"session {j} is {float(getattr(t, name)[k])!r}, not a finite number")


def load_split(path: str) -> DatasetSplit:
    """Read a split file straight into columns, refusing, by field, a
    record that save_split would not have written."""
    with open(path, "rb") as fh:
        header = _json_line(fh.readline(), path, 1)
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise IngestError(f"{path}: not a split file")
        _require(header, ("version", "num_items", "num_users"), f"{path}: header")
        if header["version"] != SPLIT_FORMAT_VERSION:
            raise IngestError(f"{path}: split format version {header['version']} "
                              f"!= supported {SPLIT_FORMAT_VERSION}")
        for name in ("num_items", "num_users"):
            if not _is_int(header[name]) or header[name] < 1:
                raise IngestError(f"{path}: header field {name!r} is {header[name]!r:.80}, "
                                  f"not a positive integer")
        num_items = header["num_items"]
        vocab_line = _json_line(fh.readline(), path, 2)
        _require(vocab_line, ("items",), f"{path}: vocabulary line")
        item_ids = vocab_line["items"]
        _check_vocabulary(item_ids, num_items, path)
        user_ids, n_train, n_sessions = [], [], []
        items, lengths = array("q"), array("q")
        # typed buffers, 8 bytes a number, in place of lists of Python objects
        cols = {"start": array("d"), "end": array("d"), "gap": array("d"), "masked": array("b")}
        for row, line in enumerate(fh):
            rec = _json_line(line, path, row + 3)
            user_items, user_lengths, user_cols = _user_columns(rec, row, num_items, path)
            items.extend(user_items)
            lengths.extend(user_lengths)
            for name, col in cols.items():
                col.extend(user_cols[name])
            user_ids.append(rec["user_id"])
            n_train.append(len(rec["train"]))
            n_sessions.append(len(user_lengths))
    if len(user_ids) != header["num_users"]:
        raise IngestError(f"{path}: header field 'num_users' is {header['num_users']}, "
                          f"but the file holds {len(user_ids)} user records")
    table = SessionTable(user=np.repeat(np.arange(len(user_ids)), n_sessions),
                         lengths=np.frombuffer(lengths, dtype=np.int64),
                         items=np.frombuffer(items, dtype=np.int64),
                         **{name: np.frombuffer(col, dtype=bool if name == "masked" else np.float64)
                            for name, col in cols.items()})
    return DatasetSplit(sessions=table, train_counts=np.array(n_train, dtype=np.int64),
                        user_ids=user_ids, item_ids=item_ids)


def load_history(path: str, num_items: int) -> UserHistory:
    """One user's timeline as JSON: {"user_index": int, "sessions": [...]}
    and an optional "user_id". Sessions hold a split file's session fields,
    but "gap" (seconds since the previous session ended, 0 for the first)
    and "masked" (true for the first session only) may be omitted. The
    sessions then pass the split file's own check, session_columns."""
    obj = read_json_object(path, ("user_index", "sessions"))
    if not _is_int(obj["user_index"]):
        raise IngestError(f"{path}: field 'user_index' is {obj['user_index']!r:.80}, "
                          f"not an integer")
    sessions = obj["sessions"]
    if not isinstance(sessions, list) or not sessions:
        raise IngestError(f"{path}: field 'sessions' is {sessions!r:.80}, "
                          f"not a non-empty list")
    prev_end = None
    for k, o in enumerate(sessions):
        if isinstance(o, dict):
            o.setdefault("masked", k == 0)
            try:
                o.setdefault("gap", 0.0 if prev_end is None else o["start"] - prev_end)
            except (KeyError, TypeError, OverflowError):
                o.setdefault("gap", 0.0)  # a placeholder: the check names the bad start or end
            prev_end = o.get("end")
    items, lengths, cols = session_columns({"": sessions}, num_items, path)
    cuts = np.cumsum([0, *lengths]).tolist()
    return UserHistory(
        user_id=str(obj.get("user_id", f"u{obj['user_index']}")), user_index=obj["user_index"],
        sessions=[Session(items=items[a:b], start_time=float(s), end_time=float(e),
                          gap_before=float(g), gap_masked=m)
                  for a, b, s, e, g, m in zip(cuts, cuts[1:], cols["start"], cols["end"],
                                              cols["gap"], cols["masked"])])


def read_json_object(path: str, fields=(), allowed=None) -> dict:
    """The JSON object a whole file holds, refused by _require's rule:
    each of fields present and, when allowed is given, no other key."""
    with open(path, "rb") as fh:
        obj = _json_line(fh.read(), path, 1)
    _require(obj, fields, path, allowed)
    return obj


def _json_line(raw: bytes, path: str, number: int):
    """The JSON value of raw, bytes from line `number` of the file on. Every JSON
    input is decoded here: a byte that is not UTF-8 is refused by file and line."""
    try:
        return json.loads(raw.rstrip().decode("utf-8"))
    except UnicodeDecodeError as err:
        line = number + raw.count(b"\n", 0, err.start)
        raise IngestError(f"{path}: line {line} is not UTF-8: byte "
                          f"{raw[err.start]:#04x} ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise IngestError(f"{path}: line {number + err.lineno - 1} is not JSON: "
                          f"{err.msg}") from None


def _check_vocabulary(item_ids, num_items: int, path: str) -> None:
    """The vocabulary line must name num_items distinct string ids."""
    what = f"{path}: field 'items' of the vocabulary line"
    if not isinstance(item_ids, list):
        raise IngestError(f"{what} is {item_ids!r:.80}, not a list")
    if len(item_ids) != num_items:
        raise IngestError(f"{what} holds {len(item_ids)} ids, but header field "
                          f"'num_items' is {num_items}")
    bad = [i for i in item_ids if not isinstance(i, str)]
    if bad:
        raise IngestError(f"{what} holds {bad[0]!r:.80}, not a string")
    if len(set(item_ids)) != num_items:
        seen: set[str] = set()
        dup = next(i for i in item_ids if i in seen or seen.add(i))
        raise IngestError(f"{what} holds {dup!r:.80} twice")


def _require(obj, fields, what: str, allowed=None) -> None:
    """Refuse anything but a JSON object that holds every one of fields
    and, when allowed is given, no key outside it: every JSON object input's rule."""
    if not isinstance(obj, dict):
        raise IngestError(f"{what} is {obj!r:.80}, not an object")
    unknown = [] if allowed is None else [k for k in obj if k not in allowed]
    if unknown:
        raise IngestError(f"{what} has unknown field {unknown[0]!r:.80}")
    missing = [f for f in fields if f not in obj]
    if missing:
        raise IngestError(f"{what} has no field {missing[0]!r}")


def _user_columns(rec, row: int, num_items: int, path: str):
    """A user record's sessions, train then test, as session_columns gives
    them. Users are looked up by user_index, so it must be the row."""
    _require(rec, ("user_id", "user_index", "train", "test"), f"{path}: user record {row}")
    who = f"{path}: user {rec['user_id']!r}"
    if not _is_int(rec["user_index"]) or rec["user_index"] != row:
        raise IngestError(f"{who}: field 'user_index' is {rec['user_index']!r}, "
                          f"but the record is row {row}")
    return session_columns({"train": rec["train"], "test": rec["test"]}, num_items, who)


def session_columns(parts: dict, num_items: int, who: str):
    """The sessions of parts, {part name: list of sessions}, one timeline in
    order, as flat lists: the items, the lengths and a list per field of
    start, end, gap and masked. A split's user record passes its train and
    test parts; a history file passes one part named "" ("session k").

    Reject sessions the model would misread: a session with no items has
    no intra state, numpy takes item -1 as the last embedding row and an
    int64 array holds item 1.5 as 1, gaps are bucketed, masked picks the
    gaps the time loss skips, and the recursion assumes one timeline, each
    session ending no earlier than it starts and starting no earlier than
    the previous one ends. Sessions are objects with every field, items
    integers in [0, num_items) (a bool is not one), masked a bool, and
    start, end and gap finite numbers, gap >= 0. The sessions are checked
    all at once over the lists; only a timeline that fails is walked
    session by session, so that the error names the first bad field."""
    try:
        columns = _columns_if_valid(parts, num_items)
    except (KeyError, TypeError, OverflowError):  # a session not an object, say
        columns = None
    if columns is None:
        _check_sessions(parts, num_items, who)  # refuses the first bad field by name
        raise IngestError(f"{who}: a session is malformed")  # in case the walk did not
    return columns


def _columns_if_valid(parts: dict, num_items: int):
    """session_columns' lists, or None if a session breaks one of its rules."""
    sessions = list(chain.from_iterable(parts.values()))
    item_lists = [o["items"] for o in sessions]
    items = list(chain.from_iterable(item_lists))
    lengths = list(map(len, item_lists))
    cols = {name: [o[name] for o in sessions] for name in ("start", "end", "gap", "masked")}
    start, end = cols["start"], cols["end"]
    ok = (set(map(type, parts.values())) <= {list} and set(map(type, item_lists)) <= {list}
          and min(lengths, default=1) > 0 and set(map(type, items)) <= {int}
          and (not items or (min(items) >= 0 and max(items) < num_items))
          and set(map(type, cols["masked"])) <= {bool}
          and all(set(map(type, cols[name])) <= {int, float} and all(map(math.isfinite, cols[name]))
                  for name in ("start", "end", "gap"))
          and min(cols["gap"], default=0.0) >= 0
          and all(map(operator.le, start, end)) and all(map(operator.le, end, start[1:])))
    return (items, lengths, cols) if ok else None


def _check_sessions(parts: dict, num_items: int, who: str) -> None:
    """Walk the sessions one by one and refuse the first bad field."""
    prev_end = -math.inf
    for part, sessions in parts.items():
        if not isinstance(sessions, list):
            raise IngestError(f"{who}: field {part!r} is {sessions!r:.80}, not a list")
        for k, o in enumerate(sessions):
            where = f"{part} session {k}".lstrip()
            _require(o, ("items", "masked", "start", "end", "gap"), f"{who}: {where}")
            if not isinstance(o["items"], list):
                raise IngestError(f"{who}: field 'items' of {where} is "
                                  f"{o['items']!r:.80}, not a list")
            if not o["items"]:
                raise IngestError(f"{who}: field 'items' of {where} is empty")
            bad = [i for i in o["items"] if not _is_int(i) or not 0 <= i < num_items]
            if bad:
                why = f"outside [0, {num_items})" if _is_int(bad[0]) else "not an integer"
                raise IngestError(f"{who}: field 'items' of {where} holds {bad[0]!r:.80}, {why}")
            if type(o["masked"]) is not bool:
                raise IngestError(f"{who}: field 'masked' of {where} is "
                                  f"{o['masked']!r:.80}, not true or false")
            for name in ("start", "end", "gap"):
                if not _is_finite(o[name]):
                    raise IngestError(f"{who}: field {name!r} of {where} is "
                                      f"{o[name]!r:.80}, not a finite number")
            if o["end"] < o["start"]:
                raise IngestError(f"{who}: field 'end' of {where} is {o['end']}, "
                                  f"before its start {o['start']}")
            if o["start"] < prev_end:
                raise IngestError(f"{who}: field 'start' of {where} is {o['start']}, "
                                  f"before the previous session's end {prev_end}")
            if o["gap"] < 0:
                raise IngestError(f"{who}: field 'gap' of {where} is {o['gap']}, negative")
            prev_end = o["end"]


def _is_finite(v) -> bool:
    """An int or float, not a bool, that float64 holds as a finite number."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    """A JSON integer: an int, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _jline(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
