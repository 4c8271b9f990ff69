"""Pipeline stage contracts: sessionization, collapsing, length caps,
splitting, bucketing, adapters, the split file round trip, and the
columnar pipeline against the per-row chain in oracles."""

import csv
import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import data as D
from thrnn import synthetic as sy
from thrnn.model import ModelConfig

import oracles


def _sessions(times, items=None, users=None, **config):
    """sessionize one log given as columns; returns the table's sessions
    as Session objects holding raw item ids. Items and users default to a
    single id each."""
    items = items if items is not None else ["x"] * len(times)
    users = users if users is not None else ["u"] * len(times)
    user, _ = D._codes(users)
    item, item_ids = D._codes(items)
    t = D.sessionize(user, item, np.asarray(times, dtype=np.float64),
                     D.PreprocessConfig(**config))
    bounds = np.concatenate(([0], np.cumsum(t.lengths)))
    return [D.Session(items=[item_ids[i] for i in t.items[lo:hi]],
                      start_time=float(t.start[k]), end_time=float(t.end[k]),
                      gap_before=float(t.gap[k]), gap_masked=bool(t.masked[k]))
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


class TestSessionize:
    def test_threshold_boundary(self):
        s = _sessions([0, 100, 4000], items=list("abc"), gap_threshold=3600)
        assert [list(map(int, (x.start_time, x.end_time))) for x in s] == [[0, 100], [4000, 4000]]
        # exactly at the threshold still shares the session
        s2 = _sessions([0, 3600], items=list("ab"), gap_threshold=3600)
        assert len(s2) == 1

    def test_single_interaction(self):
        (s,) = _sessions([42], gap_threshold=10)
        assert s.start_time == s.end_time == 42 and len(s.items) == 1

    def test_empty_ok(self):
        assert _sessions([], gap_threshold=10) == []

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, ts, threshold):
        ts = sorted(ts)
        items = [f"i{k}" for k in range(len(ts))]
        sessions = _sessions(ts, items, gap_threshold=threshold, max_session_length=60)
        # concatenation reproduces the input sequence
        assert [it for s in sessions for it in s.items] == items
        # boundaries are exactly the gaps above the threshold
        for a, b in zip(sessions, sessions[1:]):
            assert b.start_time - a.end_time > threshold
        pos = 0
        for s in sessions:
            diffs = np.diff(ts[pos:pos + len(s.items)])
            assert np.all(diffs <= threshold)
            pos += len(s.items)


class TestCollapseRepeats:
    @pytest.mark.parametrize("items,want", [
        (list("AABA"), list("ABA")),
        (list("ABC"), list("ABC")),
        (list("AAAA"), list("A")),
    ])
    def test_examples(self, items, want):
        (out,) = _sessions(list(range(len(items))), items, gap_threshold=10)
        assert out.items == want
        assert len(out.items) == len(want)
        # the session keeps its pre-collapse end
        assert (out.start_time, out.end_time) == (0, len(items) - 1)

    def test_keeps_first_occurrence_time(self):
        # split at length 1, each half shows the time its item kept: [0, 2]
        out = _sessions([0, 1, 2], list("AAB"), gap_threshold=10, max_session_length=1)
        assert [(s.start_time, s.end_time) for s in out] == [(0, 0), (2, 2)]


class TestEnforceLength:
    def _sessions(self, n, l_max=20):
        """A one-item session 77 s before an n-item one at times 0..n-1;
        returns the sessions after the first."""
        times = [-77.0] + [float(k) for k in range(n)]
        items = ["p"] + [f"i{k}" for k in range(n)]
        return _sessions(times, items, gap_threshold=10, max_session_length=l_max)[1:]

    def test_at_max_unchanged(self):
        out = self._sessions(20)
        assert len(out) == 1 and len(out[0].items) == 20

    def test_split_in_two(self):
        out = self._sessions(25)
        assert [len(s.items) for s in out] == [20, 5]
        first, second = out
        assert first.gap_before == 77.0 and not first.gap_masked
        assert second.gap_before == 0.0 and second.gap_masked
        # halves carry true timestamps: no overlap, order intact
        assert first.end_time == 19.0 and second.start_time == 20.0 and second.end_time == 24.0

    def test_too_long_removed(self):
        out = self._sessions(41)
        assert out == []
        out2 = self._sessions(40)
        assert [len(s.items) for s in out2] == [20, 20]

    def test_split_halves_end_at_kept_items(self):
        # a trailing repeat at t=9: the unsplit session ends at 9, the
        # split second half at its last kept item, t=8
        whole = _sessions([0, 8, 9], list("abb"), gap_threshold=10, max_session_length=2)
        assert [(s.start_time, s.end_time) for s in whole] == [(0, 9)]
        halves = _sessions([0, 1, 8, 9], list("abcc"), gap_threshold=10,
                           max_session_length=2)
        assert [(s.start_time, s.end_time) for s in halves] == [(0, 1), (8, 8)]


class TestGapsAndHistories:
    def test_assign_gaps(self):
        out = _sessions([0, 100, 5000, 20000], gap_threshold=3600)
        assert [s.gap_before for s in out] == [0.0, 4900.0, 15000.0]
        assert not any(s.gap_masked for s in out)

    def test_masked_gap_stays_zero(self):
        # one sitting of 5 distinct items -> split 3 + 2, then a later session
        sessions = _sessions([0, 1, 2, 3, 4, 1000], list("ABCDEA"),
                             gap_threshold=100, max_session_length=3)
        assert [len(s.items) for s in sessions] == [3, 2, 1]
        assert sessions[1].gap_masked and sessions[1].gap_before == 0.0
        assert sessions[2].gap_before == 1000.0 - 4.0

    def test_pipeline_composition_order(self):
        # repeats collapse before the length cap: 6 raw -> 4 distinct <= 5
        sessions = _sessions([0, 1, 2, 3, 4, 5], list("AABBCD"),
                             gap_threshold=100, max_session_length=5)
        assert len(sessions) == 1 and sessions[0].items == list("ABCD")

    def test_gap_runs_from_previous_kept_session(self):
        # the 3-item session at t=100 is dropped (> 2 * 1 items); the
        # next gap runs from the first session's end, and each user's
        # first session has gap 0
        out = _sessions([0, 100, 101, 102, 500, 7], list("aabcda"),
                        users=list("uuuuuv"), gap_threshold=10, max_session_length=1)
        assert [(s.start_time, s.gap_before) for s in out] == [(0, 0.0), (500, 500.0), (7, 0.0)]


class TestSplitTrainTest:
    def _split(self, users, train_fraction=0.8, min_sessions=3):
        """users: (user id, session count, items per session) each."""
        item_ids = sorted({it for _, _, items in users for it in items})
        rows = [(code, k, items) for code, (_, n, items) in enumerate(users) for k in range(n)]
        table = D.SessionTable(
            user=np.array([code for code, _, _ in rows], dtype=np.int64),
            start=np.array([1000.0 * k for _, k, _ in rows]),
            end=np.array([1000.0 * k + 10 for _, k, _ in rows]),
            gap=np.array([0.0 if k == 0 else 990.0 for _, k, _ in rows]),
            masked=np.zeros(len(rows), dtype=bool),
            lengths=np.array([len(items) for _, _, items in rows], dtype=np.int64),
            items=np.array([item_ids.index(it) for _, _, items in rows for it in items],
                           dtype=np.int64))
        return D.build_split(table, [u for u, _, _ in users], item_ids,
                             train_fraction, min_sessions)

    def test_eighty_twenty(self):
        train, test = oracles.histories(self._split([("u", 10, "ab")]))
        assert len(train[0].sessions) == 8
        assert len(test[0].sessions) == 2

    def test_min_sessions_filter(self):
        split = self._split([("a", 2, "ab"), ("b", 5, "ab")], min_sessions=3)
        assert split.num_users == 1 and oracles.histories(split)[0][0].user_id == "b"
        with pytest.raises(ValueError, match="no users left"):
            self._split([("a", 2, "ab")], min_sessions=3)

    def test_chronology_and_alignment(self):
        split = self._split([("u", 7, "ab"), ("v", 4, "ab")])
        for tr, te in zip(*oracles.histories(split)):
            assert tr.user_id == te.user_id and tr.user_index == te.user_index
            assert max(s.start_time for s in tr.sessions) <= min(s.start_time for s in te.sessions)
            assert len(tr.sessions) + len(te.sessions) in (7, 4)

    def test_vocabulary_dense_and_applied(self):
        split = self._split([("u", 4, "qzq")])
        assert len(set(split.item_ids)) == split.num_items
        train, test = oracles.histories(split)
        for s in train[0].sessions + test[0].sessions:
            assert all(isinstance(i, int) and 0 <= i < split.num_items for i in s.items)

    def test_users_and_vocabulary_sorted_by_id_of_kept_users(self):
        # codes number ids out of order; "w" and its item "c" fall under min_sessions
        split = self._split([("v", 3, "zb"), ("w", 1, "c"), ("u", 3, "a")])
        train, test = oracles.histories(split)
        assert [u.user_id for u in train] == ["u", "v"]
        assert split.item_ids == ["a", "b", "z"]
        assert test[1].sessions[0].items == [2, 1]


@st.composite
def _logs(draw):
    """A small log in random file order: few users and items so that
    time ties, repeats and runs of long sessions are common; integer
    times hit the threshold exactly, fractional ones test its rounding."""
    base = draw(st.sampled_from([0.0, 1.3e9]))
    step = draw(st.sampled_from([1.0, 0.1, 7.3]))
    n = draw(st.integers(min_value=1, max_value=150))
    users = draw(st.lists(st.sampled_from(["bo", "al", "cy", "b"]), min_size=n, max_size=n))
    items = draw(st.lists(st.sampled_from(["x", "y", "z", "q", "xa"]), min_size=n, max_size=n))
    ticks = draw(st.lists(st.integers(min_value=0, max_value=300), min_size=n, max_size=n))
    times = [base + step * k for k in ticks]
    config = D.PreprocessConfig(
        gap_threshold=draw(st.sampled_from([1.0, 2.0, 7.3, 25.0, 0.3])),
        max_session_length=draw(st.integers(min_value=1, max_value=6)),
        train_fraction=draw(st.sampled_from([0.5, 0.8])),
        min_sessions=draw(st.integers(min_value=2, max_value=5)))
    return users, items, times, config


def _split_bytes(run):
    """save_split's bytes of run(), or the ValueError it raised."""
    try:
        split = run()
    except ValueError as err:
        return str(err)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.split")
        D.save_split(split, path)
        with open(path, "rb") as fh:
            return fh.read()


class TestColumnarMatchesRowChain:
    @given(_logs())
    @settings(max_examples=300, deadline=None)
    def test_same_split_bytes_as_row_chain(self, log):
        users, items, times, config = log
        rows = [oracles.RawInteraction(u, i, t) for u, i, t in zip(users, items, times)]
        want = _split_bytes(lambda: oracles.preprocess_rows(rows, config))
        got = _split_bytes(lambda: D.preprocess(D.InteractionLog(users, items, times), config))
        assert got == want

    def test_benchmark_shaped_log(self, tmp_path):
        # 896 sessions at the benchmark's threshold: 196 split at L = 4,
        # 91 dropped above 2L, and 391 repeated rows collapsed
        rng = np.random.default_rng(5)
        n = 4000
        users = [f"user{k}" for k in rng.integers(0, 4, n)]
        items = [f"r{k}" for k in rng.integers(0, 8, n)]
        times = (1.3e9 + np.cumsum(rng.exponential(300.0, n))).round()
        config = D.PreprocessConfig(gap_threshold=1800.0, max_session_length=4)
        rows = [oracles.RawInteraction(u, i, float(t)) for u, i, t in zip(users, items, times)]
        want = _split_bytes(lambda: oracles.preprocess_rows(rows, config))
        assert isinstance(want, bytes)
        assert _split_bytes(lambda: D.preprocess(D.InteractionLog(users, items, times),
                                                 config)) == want

    def test_empty_log_refused(self):
        with pytest.raises(ValueError, match="empty corpus"):
            D.preprocess(D.InteractionLog([], [], []), D.PreprocessConfig())


class TestGapBuckets:
    def _cfg(self, buckets=30):
        return ModelConfig(num_items=2, num_users=1, num_gap_buckets=buckets)

    def test_frozen_examples(self):
        # even buckets over the 30-day horizon; longer gaps share the last
        cfg = self._cfg()
        assert cfg.gap_buckets(5.5 * 86400) == 5
        assert cfg.gap_buckets(200 * 86400) == 29
        assert cfg.gap_buckets(0) == 0
        assert cfg.gap_buckets([0, 5.5 * 86400, 200 * 86400]).tolist() == [0, 5, 29]
        assert self._cfg(buckets=10).gap_buckets([2.99 * 86400, 3 * 86400]).tolist() == [0, 1]

    @given(st.floats(min_value=0, max_value=1e7), st.floats(min_value=0, max_value=1e7))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, g1, g2):
        b = self._cfg(buckets=17)
        lo, hi = sorted((g1, g2))
        assert b.gap_buckets(lo) <= b.gap_buckets(hi)
        assert 0 <= b.gap_buckets(lo) < 17

    def test_validation(self):
        with pytest.raises(ValueError):
            self._cfg(buckets=0)
        with pytest.raises(ValueError):
            self._cfg().gap_buckets(-1.0)


class TestAdapters:
    def test_lastfm(self, tmp_path):
        p = tmp_path / "lastfm.tsv"
        p.write_text(
            "user_000001\t2009-05-04T23:08:57Z\tart-1\tDeep Dish\ttr-1\tSong A\n"
            "user_000001\t2009-05-04T23:12:00Z\tart-2\tOther\ttr-2\tSong B\n")
        rows, rep = D.read_lastfm_tsv(str(p))
        assert rep.rows_bad == 0 and len(rows) == 2
        assert rows.items[0] == "art-1"
        assert rows.times[1] - rows.times[0] == pytest.approx(183.0)

    def test_reddit_with_header(self, tmp_path):
        p = tmp_path / "reddit.csv"
        p.write_text("username,subreddit,utc\nalice,askscience,1400000000\n"
                     "bob,funny,1400000100\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert len(rows) == 2 and rep.rows_total == 2
        assert rows.items[0] == "askscience"

    def test_reddit_extra_columns_are_ignored(self, tmp_path):
        # only a missing column makes a row malformed; a fourth is read past,
        # also on the first row, which is then no header
        p = tmp_path / "extra.csv"
        p.write_text("u1,b,200,extra\nu2,c,300\nu3,d,400,x,y\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert (rows.users, rows.items) == (["u1", "u2", "u3"], ["b", "c", "d"])
        assert rows.times.tolist() == [200.0, 300.0, 400.0]
        assert (rep.rows_total, rep.rows_bad) == (3, 0)

    def test_malformed_over_one_percent_fails(self, tmp_path):
        p = tmp_path / "bad.csv"
        lines = ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(50)]
        lines += ["completely broken line", "another,bad"]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(D.IngestError, match="malformed"):
            D.read_reddit_csv(str(p))

    def test_malformed_under_one_percent_tolerated(self, tmp_path):
        p = tmp_path / "mostly.csv"
        lines = ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(200)]
        lines.insert(50, "broken")
        p.write_text("\n".join(lines) + "\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert len(rows) == 200 and rep.rows_bad == 1

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf", "NaN", "-5"])
    def test_non_finite_or_negative_time_is_malformed(self, tmp_path, time):
        p = tmp_path / "times.csv"
        lines = ["user,subreddit,utc"] + ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(150)]
        lines.insert(70, f"u70,sub,{time}")
        p.write_text("\n".join(lines) + "\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert (len(rows), rep.rows_bad, rep.rows_total) == (150, 1, 151)
        assert rep.bad_examples == [f"u70,sub,{time}"]
        assert np.all(np.isfinite(rows.times))

    def test_blank_rows_are_not_rows(self, tmp_path):
        p = tmp_path / "blank.csv"
        p.write_text("\n , \nalice,askscience,1400000000\n\n,,\nbob,funny,1400000100\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert (len(rows), rep.rows_total, rep.rows_bad) == (2, 2, 0)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(D.IngestError, match="zero rows"):
            D.read_reddit_csv(str(p))

    def test_field_over_csv_limit_is_malformed(self, tmp_path):
        # csv.Error on one row; the reader goes on from the next line
        p = tmp_path / "long.csv"
        lines = ["user,subreddit,utc"] + ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(150)]
        lines.insert(60, 'u60,"' + "x" * (csv.field_size_limit() + 1) + '",1400000060')
        p.write_text("\n".join(lines) + "\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert (len(rows), rep.rows_bad, rep.rows_total) == (150, 1, 151)
        assert rep.bad_examples == [f"line 61: field larger than field limit "
                                    f"({csv.field_size_limit()})"]
        assert rows.users[59:61] == ["u59", "u60"]

    def test_header_rule_applies_to_the_first_row_csv_parses(self, tmp_path):
        # line 1 is over the field limit, so line 2 is the first row csv
        # parses: a header, not a bad row
        p = tmp_path / "late-header.csv"
        lines = ['u0,"' + "x" * (csv.field_size_limit() + 1) + '",1400000000',
                 "author,subreddit,created_utc"]
        lines += ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(300)]
        p.write_text("\n".join(lines) + "\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert (len(rows), rep.rows_bad, rep.rows_total) == (300, 1, 301)
        assert rep.bad_examples == [f"line 1: field larger than field limit "
                                    f"({csv.field_size_limit()})"]
        assert rows.users[0] == "u0" and "author" not in rows.users


class TestSplitFile:
    def _split(self):
        users, items, times = [], [], []
        for u in ("u1", "u2"):
            base = 0 if u == "u1" else 50
            for k in range(6):
                for j in range(3):
                    users.append(u)
                    items.append(f"item{(base + k + j) % 7}")
                    times.append(100000.0 * k + 10.0 * j)
        return D.preprocess(D.InteractionLog(users, items, times),
                            D.PreprocessConfig(gap_threshold=3600))

    def test_roundtrip(self, tmp_path):
        split = self._split()
        p = tmp_path / "split.jsonl"
        D.save_split(split, str(p))
        back = D.load_split(str(p))
        assert back.num_items == split.num_items and back.num_users == split.num_users
        assert back.item_ids == split.item_ids
        for a, b in zip(sum(oracles.histories(split), []), sum(oracles.histories(back), [])):
            assert a.user_id == b.user_id and a.user_index == b.user_index
            for sa, sb in zip(a.sessions, b.sessions):
                assert sa.items == sb.items and sa.gap_before == sb.gap_before
                assert sa.gap_masked == sb.gap_masked

    def test_byte_identical(self, tmp_path):
        split = self._split()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        D.save_split(split, str(p1))
        D.save_split(self._split(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("field", ["start", "end", "gap"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_time_refused_before_the_file_is_opened(self, tmp_path, field, value):
        # JSON has no token for it, and load_split would refuse the file
        split = self._split()
        row = split.user_offsets()[1] + split.train_counts[1] + 1  # u2's second test session
        getattr(split.sessions, field)[row] = value
        p = tmp_path / "nonfinite.split"
        with pytest.raises(ValueError) as err:
            D.save_split(split, str(p))
        assert str(err.value) == (f"{p}: user 'u2': field {field!r} of test session 1 is "
                                  f"{float(value)!r}, not a finite number")
        assert not p.exists()

    def test_version_check(self, tmp_path):
        p = tmp_path / "v.jsonl"
        p.write_text(json.dumps({"kind": "header", "version": 99,
                                 "num_items": 0, "num_users": 0}) + "\n")
        with pytest.raises(D.IngestError, match="version"):
            D.load_split(str(p))

    def _tampered(self, tmp_path, edit):
        """Save the split, pass the second user record through `edit`."""
        p = tmp_path / "bad.jsonl"
        D.save_split(self._split(), str(p))
        lines = p.read_text().splitlines()
        rec = json.loads(lines[3])
        edit(rec)
        lines[3] = json.dumps(rec)
        p.write_text("\n".join(lines) + "\n")
        return str(p)

    def test_item_outside_vocabulary_rejected(self, tmp_path):
        # -1 would otherwise index the last embedding row without a word
        path = self._tampered(tmp_path, lambda rec: rec["test"][0]["items"].__setitem__(0, -1))
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field 'items' "
                                                r"of test session 0 holds -1, outside \[0, 7\)"):
            D.load_split(path)

    def test_session_without_items_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda rec: rec["train"][1].update(items=[]))
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field 'items' "
                                                r"of train session 1 is empty"):
            D.load_split(path)

    def test_user_index_off_its_row_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda rec: rec.update(user_index=0))
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field "
                                                r"'user_index' is 0, but the record is row 1"):
            D.load_split(path)

    @pytest.mark.parametrize("value", [1.0, True])
    def test_user_index_not_an_integer_rejected(self, tmp_path, value):
        # both compare equal to row 1
        path = self._tampered(tmp_path, lambda rec: rec.update(user_index=value))
        with pytest.raises(D.IngestError, match=rf"bad\.jsonl: user 'u2': field "
                                                rf"'user_index' is {value}, but the record is row 1"):
            D.load_split(path)

    @pytest.mark.parametrize("field, value, message", [
        ("items", [1.5], r"'items' of train session 1 holds 1\.5, not an integer"),
        ("items", ["1"], r"'items' of train session 1 holds '1', not an integer"),
        ("items", [True], r"'items' of train session 1 holds True, not an integer"),
        ("items", 3, r"'items' of train session 1 is 3, not a list"),
        ("masked", "no", r"'masked' of train session 1 is 'no', not true or false"),
        ("masked", 0, r"'masked' of train session 1 is 0, not true or false"),
        ("gap", "5", r"'gap' of train session 1 is '5', not a finite number"),
        ("gap", float("nan"), r"'gap' of train session 1 is nan, not a finite number"),
        ("start", None, r"'start' of train session 1 is None, not a finite number"),
        ("start", True, r"'start' of train session 1 is True, not a finite number"),
        ("end", float("inf"), r"'end' of train session 1 is inf, not a finite number"),
        # an int beyond float64's range once escaped as an OverflowError
        ("end", 10 ** 400, r"'end' of train session 1 is 10{79}, not a finite number"),
    ])
    def test_mistyped_session_field_rejected(self, tmp_path, field, value, message):
        path = self._tampered(tmp_path, lambda rec: rec["train"][1].update({field: value}))
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field " + message):
            D.load_split(path)

    @pytest.mark.parametrize("field", ["items", "start", "end", "gap", "masked"])
    def test_session_field_missing_rejected(self, tmp_path, field):
        path = self._tampered(tmp_path, lambda rec: rec["train"][1].pop(field))
        with pytest.raises(D.IngestError, match=rf"bad\.jsonl: user 'u2': train session 1 "
                                                rf"has no field '{field}'"):
            D.load_split(path)

    @pytest.mark.parametrize("field", ["user_id", "user_index", "train", "test"])
    def test_user_field_missing_rejected(self, tmp_path, field):
        path = self._tampered(tmp_path, lambda rec: rec.pop(field))
        with pytest.raises(D.IngestError, match=rf"bad\.jsonl: user record 1 has no "
                                                rf"field '{field}'"):
            D.load_split(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec["train"].__setitem__(1, 5), r"train session 1 is 5, not an object"),
        (lambda rec: rec["test"].__setitem__(0, "s"), r"test session 0 is 's', not an object"),
        (lambda rec: rec.update(train=5), r"field 'train' is 5, not a list"),
        # a bad train session is named before a test part that is no list
        (lambda rec: rec["train"].__setitem__(1, 5) or rec.update(test=""),
         r"train session 1 is 5, not an object"),
    ])
    def test_session_not_an_object_rejected(self, tmp_path, edit, message):
        path = self._tampered(tmp_path, edit)
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': " + message):
            D.load_split(path)

    @pytest.mark.parametrize("line, edit, message", [
        (0, lambda o: {k: v for k, v in o.items() if k != "num_items"},
         r"header has no field 'num_items'"),
        (1, lambda o: {"kind": "vocabulary"}, r"vocabulary line has no field 'items'"),
        (1, lambda o: {**o, "items": 5}, r"field 'items' of the vocabulary line is 5, not a list"),
        (3, lambda o: 5, r"user record 1 is 5, not an object"),
    ])
    def test_line_not_an_object_or_short_of_a_field_rejected(self, tmp_path, line, edit,
                                                             message):
        p = tmp_path / "bad.jsonl"
        D.save_split(self._split(), str(p))
        lines = p.read_text().splitlines()
        lines[line] = json.dumps(edit(json.loads(lines[line])))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: " + message):
            D.load_split(str(p))

    @pytest.mark.parametrize("line, edit, message", [
        (0, lambda o: {**o, "num_items": str(o["num_items"])},
         r"header field 'num_items' is '\d+', not a positive integer"),
        (0, lambda o: {**o, "num_items": True}, r"header field 'num_items' is True, not a"),
        (0, lambda o: {**o, "num_users": 0}, r"header field 'num_users' is 0, not a positive"),
        (1, lambda o: {**o, "items": o["items"][:3]},
         r"field 'items' of the vocabulary line holds 3 ids, but header field 'num_items' "
         r"is \d+"),
        (1, lambda o: {**o, "items": o["items"][:1] + o["items"][:-1]},
         r"field 'items' of the vocabulary line holds 'item\d' twice"),
        (1, lambda o: {**o, "items": [5] + o["items"][1:]},
         r"field 'items' of the vocabulary line holds 5, not a string"),
    ])
    def test_malformed_header_or_vocabulary_rejected(self, tmp_path, line, edit, message):
        p = tmp_path / "bad.jsonl"
        D.save_split(self._split(), str(p))
        lines = p.read_text().splitlines()
        lines[line] = json.dumps(edit(json.loads(lines[line])))
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: " + message):
            D.load_split(str(p))

    @pytest.mark.parametrize("line", [0, 1, 3])
    def test_line_not_json_rejected_with_its_number(self, tmp_path, line):
        p = tmp_path / "bad.jsonl"
        D.save_split(self._split(), str(p))
        lines = p.read_text().splitlines()
        lines[line] = lines[line][:-1]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(D.IngestError, match=rf"bad\.jsonl: line {line + 1} is not JSON"):
            D.load_split(str(p))

    def test_header_not_an_object_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("[1, 2]\n")
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: not a split file"):
            D.load_split(str(p))

    def test_truncated_split_rejected(self, tmp_path):
        p = tmp_path / "cut.jsonl"
        D.save_split(self._split(), str(p))
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(D.IngestError, match=r"cut\.jsonl: header field 'num_users' "
                                                r"is 2, but the file holds 1 user records"):
            D.load_split(str(p))

    def test_negative_gap_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda rec: rec["train"][1].update(gap=-5.0))
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field 'gap' "
                                                r"of train session 1 is -5\.0, negative"):
            D.load_split(path)

    def test_session_starting_before_its_predecessor_rejected(self, tmp_path):
        # the first test session moved before the last train session's start
        def edit(rec):
            rec["test"][0]["start"] = rec["train"][-1]["start"] - 1.0
        path = self._tampered(tmp_path, edit)
        with pytest.raises(D.IngestError, match=r"bad\.jsonl: user 'u2': field 'start' "
                                                r"of test session 0 is .*, before the "
                                                r"previous session's end"):
            D.load_split(path)

    @pytest.mark.parametrize("edit", [
        lambda rec: None,
        lambda rec: rec["train"][1].update(items=[]),
        lambda rec: rec["train"][1].update(items="ab"),
        lambda rec: rec["train"][1].update(items={"1": 2}),
        lambda rec: rec["train"][1].update(items=None),
        lambda rec: rec["test"][0]["items"].append(7),  # the vocabulary holds 7
        lambda rec: rec["test"][0]["items"].append(10 ** 30),
        lambda rec: rec["train"][1].update(start=rec["train"][0]["end"]),  # ties are fine
        lambda rec: rec["train"][0].update(start=rec["train"][0]["end"]),
        lambda rec: rec["train"][0].update(start=-1e300, end=2, gap=0),  # ints and floats
        lambda rec: rec["train"][0].update(end=rec["train"][0]["start"] - 1),
        lambda rec: rec["train"][1].update(start=rec["train"][0]["end"] - 1),
        lambda rec: rec["train"][1].update(end=10 ** 400),
        lambda rec: rec["train"][1].update(masked=None),
        lambda rec: rec["train"][1].update(gap=-0.0),
        lambda rec: rec["train"][1].update(end=[1.0]),
        lambda rec: rec["test"].append([]),
        lambda rec: rec.update(train=[], test=[]),
        lambda rec: rec.update(test=""),
    ])
    def test_column_check_agrees_with_session_walk(self, tmp_path, edit):
        # a user's sessions pass the check over their columns exactly when
        # the per-session walk finds nothing to refuse
        with open(self._tampered(tmp_path, edit), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        num_items, rec = json.loads(lines[0])["num_items"], json.loads(lines[3])
        assert num_items == 7
        parts = {"train": rec["train"], "test": rec["test"]}
        try:
            D._check_sessions(parts, num_items, "u")
            walk_ok = True
        except D.IngestError:
            walk_ok = False
        try:
            columns = D._columns_if_valid(parts, num_items)
        except (KeyError, TypeError, OverflowError):
            columns = None
        assert (columns is not None) == walk_ok


# ids JSON must escape, and times at the edges of float64's finite range
_ODD_IDS = st.text(alphabet=st.sampled_from('ab"\\,\n\t\x00\x7f é中😀\u2028'), max_size=6)
_ODD_TIMES = [0.0, -0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1, 1e-7, 1400000000.5]


@st.composite
def _odd_splits(draw):
    """A hand-built split: odd ids and times, a user with an empty test part
    (the first) and one with an empty train part (the second), sometimes
    users with no sessions, and sometimes more than one block of the
    writer's, cut between users."""
    item_ids = draw(st.lists(_ODD_IDS, min_size=1, max_size=4, unique=True))
    user_ids = draw(st.lists(_ODD_IDS, min_size=2, max_size=6))
    extra = draw(st.sampled_from([0, 0, D._BLOCK_SESSIONS // 2 - 28, D._BLOCK_SESSIONS + 44]))
    counts = [draw(st.integers(0, 5)) + extra for _ in user_ids]
    counts[0], counts[1] = max(counts[0], 1), max(counts[1], 1)
    n = sum(counts)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_ODD_TIMES)
    drawn = draw(st.lists(floats, min_size=3, max_size=24))
    scaled = rng.standard_normal(8) * 10.0 ** rng.integers(-300, 300, 8)
    pool = np.array(_ODD_TIMES + drawn + scaled.tolist())
    lengths = rng.integers(1, 5, n)
    train = [c if u == 0 else 0 if u == 1 else int(rng.integers(0, c + 1))
             for u, c in enumerate(counts)]
    table = D.SessionTable(user=np.repeat(np.arange(len(counts)), counts),
                           start=rng.choice(pool, n), end=rng.choice(pool, n),
                           gap=rng.choice(pool, n), masked=rng.random(n) < 0.3,
                           lengths=lengths, items=rng.integers(0, len(item_ids), lengths.sum()))
    return D.DatasetSplit(sessions=table, train_counts=np.array(train, dtype=np.int64),
                          user_ids=user_ids, item_ids=item_ids)


class TestSplitWriterMatchesReference:
    @given(_odd_splits())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_as_the_dict_writer(self, split):
        with tempfile.TemporaryDirectory() as tmp:
            want, got = os.path.join(tmp, "want.split"), os.path.join(tmp, "got.split")
            oracles.save_split_reference(split, want)
            D.save_split(split, got)
            with open(want, "rb") as a, open(got, "rb") as b:
                assert b.read() == a.read()


class TestWrittenSplitsLoad:
    """The session check refuses a session that ends before it starts or
    starts before the previous one ends; no split the program writes
    breaks either rule."""

    @staticmethod
    def _reloads(split) -> bool:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.split")
            D.save_split(split, path)
            with open(path, "rb") as fh:
                written = fh.read()
            D.save_split(D.load_split(path), path)
            with open(path, "rb") as fh:
                return fh.read() == written

    @given(_logs())
    @settings(max_examples=300, deadline=None)
    def test_preprocessed_splits_load(self, log):
        users, items, times, config = log
        try:
            split = D.preprocess(D.InteractionLog(users, items, times), config)
        except ValueError:  # every user under min_sessions
            return
        assert self._reloads(split)

    def test_synthetic_split_loads(self):
        spec = sy.SynthSpec(num_users=20, sessions_per_user=8,
                            item_transition=np.full((5, 5), 0.25) - np.eye(5) / 4,
                            gap_mixture=[(0.7, 0.01), (0.3, 3.0)], session_length=(1, 6))
        assert self._reloads(sy.generate_corpus(spec, seed=2))


def test_raw_interaction_validation(tmp_path):
    # an empty user or item, or a negative time, makes a row malformed
    p = tmp_path / "rows.csv"
    good = ["u%d,sub,%d" % (i, 1400000000 + i) for i in range(300)]
    p.write_text("\n".join(good[:100] + [",i,0"] + good[100:200] + ["u,,0"]
                           + good[200:] + ["u,i,-5.0"]) + "\n")
    rows, rep = D.read_reddit_csv(str(p))
    assert (len(rows), rep.rows_bad) == (300, 3)
    assert rep.bad_examples == [",i,0", "u,,0", "u,i,-5.0"]


class TestSplitBytesPinned:
    """save_split's bytes, pinned at the digests the per-session object
    code wrote for the same inputs."""

    def _digest(self, split, tmp_path):
        D.save_split(split, str(tmp_path / "pinned.split"))
        return hashlib.sha256((tmp_path / "pinned.split").read_bytes()).hexdigest()

    def test_synth_spec(self, tmp_path):
        # the spec of the installed-CLI check in CI
        spec = sy.SynthSpec(num_users=6, sessions_per_user=6,
                            item_transition=np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5],
                                                      [0.5, 0.5, 0.0]]),
                            gap_mixture=[(1.0, 1.0)], session_length=(2, 4))
        assert self._digest(sy.generate_corpus(spec, seed=0), tmp_path) == (
            "b5ab0bf9c140457a41d11d4cdae7ccfbecc411680b9b2236e350416ffc9f3f57")

    def test_reddit_csv(self, tmp_path):
        # seven users over 400 comments, plus one sitting of six with a
        # repeat that the length cap of 3 splits into two halves
        rows = ["author,subreddit,created_utc\n"]
        rows += [f"user{k % 7},sub{(k * k) % 13},{1_400_000_000 + 500 * k + (k % 11) * 3000}\n"
                 for k in range(400)]
        rows += [f"user2,sub{k // 2 if k < 2 else k},{1_399_000_000 + 10 * k}\n"
                 for k in range(6)]
        (tmp_path / "c.csv").write_text("".join(rows))
        log, _ = D.read_reddit_csv(str(tmp_path / "c.csv"))
        split = D.preprocess(log, D.PreprocessConfig(gap_threshold=1800, max_session_length=3,
                                                     train_fraction=0.5, min_sessions=3))
        assert split.sessions.masked.any()
        assert self._digest(split, tmp_path) == (
            "10f905ed821272b5be017ba3d7e56cc03f519b568eb0d377052b7b35a0bcbc0f")

    def test_ci_reddit_csv(self, tmp_path):
        # the log of the installed-CLI check in CI, read and split as
        # `thrnn preprocess --dataset reddit` does by default
        rows = ["author,subreddit,created_utc\n"]
        rows += [f"user{k % 4},sub{k % 7},{1400000000 + 4000 * k}\n" for k in range(120)]
        rows += ["user0,sub1,nan\n"]
        (tmp_path / "comments.csv").write_text("".join(rows))
        log, report = D.read_reddit_csv(str(tmp_path / "comments.csv"))
        assert report.rows_bad == 1
        split = D.preprocess(log, D.PreprocessConfig(gap_threshold=1800.0))
        assert self._digest(split, tmp_path) == (
            "8a60e0d92250d794ab89b2e134b01975425de0bda0400fead60bdadeca8e603b")
