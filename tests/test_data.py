"""Pipeline stage contracts: sessionization, collapsing, length caps,
splitting, bucketing, adapters, and the split file round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thrnn import data as D


def _inter(ts, user="u", item="x"):
    return D.RawInteraction(user, item, float(ts))


def _inters(timestamps, items=None, user="u"):
    items = items or ["x"] * len(timestamps)
    return [D.RawInteraction(user, it, float(t)) for t, it in zip(timestamps, items)]


class TestSessionize:
    def test_threshold_boundary(self):
        s = D.sessionize(_inters([0, 100, 4000]), gap_threshold=3600)
        assert [list(map(int, (x.start_time, x.end_time))) for x in s] == [[0, 100], [4000, 4000]]
        # exactly at the threshold still shares the session
        s2 = D.sessionize(_inters([0, 3600]), gap_threshold=3600)
        assert len(s2) == 1

    def test_single_interaction(self):
        (s,) = D.sessionize(_inters([42]), gap_threshold=10)
        assert s.start_time == s.end_time == 42 and len(s) == 1

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="not time-sorted"):
            D.sessionize(_inters([5, 3]), gap_threshold=10)

    def test_empty_ok(self):
        assert D.sessionize([], gap_threshold=10) == []

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=5000))
    @settings(max_examples=80, deadline=None)
    def test_partition_property(self, ts, threshold):
        ts = sorted(ts)
        items = [f"i{k}" for k in range(len(ts))]
        sessions = D.sessionize(_inters(ts, items), gap_threshold=threshold)
        # concatenation reproduces the input sequence
        assert [it for s in sessions for it in s.items] == items
        # boundaries are exactly the gaps above the threshold
        for a, b in zip(sessions, sessions[1:]):
            assert b.start_time - a.end_time > threshold
        for s in sessions:
            diffs = np.diff(s.item_times)
            assert np.all(diffs <= threshold)


class TestCollapseRepeats:
    @pytest.mark.parametrize("items,want", [
        (list("AABA"), list("ABA")),
        (list("ABC"), list("ABC")),
        (list("AAAA"), list("A")),
    ])
    def test_examples(self, items, want):
        s = D.Session(items=items, start_time=0, end_time=3,
                      item_times=list(range(len(items))))
        out = D.collapse_repeats(s)
        assert out.items == want
        # kept timestamps are those of each run's first element
        assert len(out.item_times) == len(want)

    def test_keeps_first_occurrence_time(self):
        s = D.Session(items=list("AAB"), start_time=0, end_time=2, item_times=[0, 1, 2])
        assert D.collapse_repeats(s).item_times == [0, 2]


class TestEnforceLength:
    def _session(self, n, t0=0.0):
        return D.Session(items=[f"i{k}" for k in range(n)], start_time=t0,
                         end_time=t0 + n - 1, gap_before=77.0,
                         item_times=[t0 + k for k in range(n)])

    def test_at_max_unchanged(self):
        out = D.enforce_length([self._session(20)], l_max=20)
        assert len(out) == 1 and len(out[0]) == 20

    def test_split_in_two(self):
        out = D.enforce_length([self._session(25)], l_max=20)
        assert [len(s) for s in out] == [20, 5]
        first, second = out
        assert first.gap_before == 77.0 and not first.gap_masked
        assert second.gap_before == 0.0 and second.gap_masked
        # halves carry true timestamps: no overlap, order intact
        assert first.end_time == 19.0 and second.start_time == 20.0 and second.end_time == 24.0

    def test_too_long_removed(self):
        out = D.enforce_length([self._session(41)], l_max=20)
        assert out == []
        out2 = D.enforce_length([self._session(40)], l_max=20)
        assert [len(s) for s in out2] == [20, 20]

    def test_split_without_item_times(self):
        s = D.Session(items=list(range(25)), start_time=100.0, end_time=200.0)
        first, second = D.enforce_length([s], l_max=20)
        assert first.start_time <= first.end_time <= second.start_time <= second.end_time
        assert second.end_time == 200.0  # successor gaps stay correct


class TestGapsAndHistories:
    def test_assign_gaps(self):
        sessions = D.sessionize(_inters([0, 100, 5000, 20000]), gap_threshold=3600)
        out = D.assign_gaps(sessions)
        assert [s.gap_before for s in out] == [0.0, 4900.0, 15000.0]
        assert not any(s.gap_masked for s in out)

    def test_masked_gap_stays_zero(self):
        cfg = D.PreprocessConfig(gap_threshold=100, max_session_length=3)
        # one sitting of 5 distinct items -> split 3 + 2, then a later session
        inters = _inters([0, 1, 2, 3, 4, 1000], items=list("ABCDEA"))
        sessions = D.build_history("u", inters, cfg)
        assert [len(s) for s in sessions] == [3, 2, 1]
        assert sessions[1].gap_masked and sessions[1].gap_before == 0.0
        assert sessions[2].gap_before == 1000.0 - 4.0

    def test_pipeline_composition_order(self):
        # repeats collapse before the length cap: 6 raw -> 4 distinct <= 5
        cfg = D.PreprocessConfig(gap_threshold=100, max_session_length=5)
        inters = _inters([0, 1, 2, 3, 4, 5], items=list("AABBCD"))
        sessions = D.build_history("u", inters, cfg)
        assert len(sessions) == 1 and sessions[0].items == list("ABCD")


class TestSplitTrainTest:
    def _history(self, uid, n, items=("a", "b")):
        sessions = [D.Session(items=list(items), start_time=1000.0 * k,
                              end_time=1000.0 * k + 10, gap_before=0.0 if k == 0 else 990.0)
                    for k in range(n)]
        return D.UserHistory(uid, -1, sessions)

    def test_eighty_twenty(self):
        split = D.split_train_test([self._history("u", 10)], 0.8)
        assert len(split.train[0].sessions) == 8
        assert len(split.test[0].sessions) == 2

    def test_min_sessions_filter(self):
        hs = [self._history("a", 2), self._history("b", 5)]
        split = D.split_train_test(hs, 0.8, min_sessions=3)
        assert split.num_users == 1 and split.train[0].user_id == "b"
        with pytest.raises(ValueError, match="no users left"):
            D.split_train_test([self._history("a", 2)], 0.8, min_sessions=3)

    def test_chronology_and_alignment(self):
        split = D.split_train_test([self._history("u", 7), self._history("v", 4)], 0.8)
        for tr, te in zip(split.train, split.test):
            assert tr.user_id == te.user_id and tr.user_index == te.user_index
            assert max(s.start_time for s in tr.sessions) <= min(s.start_time for s in te.sessions)
            assert len(tr.sessions) + len(te.sessions) in (7, 4)

    def test_vocabulary_dense_and_applied(self):
        split = D.split_train_test([self._history("u", 4, items=("q", "z", "q"))], 0.8)
        assert set(split.item_vocabulary.values()) == set(range(split.num_items))
        for s in split.train[0].sessions + split.test[0].sessions:
            assert all(isinstance(i, int) and 0 <= i < split.num_items for i in s.items)


class TestGapBucketizer:
    def test_frozen_examples(self):
        b = D.GapBucketizer(upper_bound=86400, num_buckets=24)
        assert b.bucket(19800) == 5
        assert b.bucket(200000) == 23
        assert b.bucket(0) == 0

    def test_log_scheme(self):
        b = D.GapBucketizer(upper_bound=86400, num_buckets=10, scheme="log")
        assert b.bucket(0) == 0
        assert b.bucket(86400) == 9
        # log scheme spreads small gaps across more buckets than uniform
        u = D.GapBucketizer(upper_bound=86400, num_buckets=10)
        assert b.bucket(600) > u.bucket(600)

    @given(st.floats(min_value=0, max_value=1e7), st.floats(min_value=0, max_value=1e7),
           st.sampled_from(["uniform", "log"]))
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, g1, g2, scheme):
        b = D.GapBucketizer(upper_bound=86400, num_buckets=17, scheme=scheme)
        lo, hi = sorted((g1, g2))
        assert b.bucket(lo) <= b.bucket(hi)
        assert 0 <= b.bucket(lo) < 17

    def test_validation(self):
        with pytest.raises(ValueError):
            D.GapBucketizer(upper_bound=0, num_buckets=4)
        with pytest.raises(ValueError):
            D.GapBucketizer(upper_bound=10, num_buckets=4, scheme="quadratic")
        with pytest.raises(ValueError):
            D.GapBucketizer(upper_bound=10, num_buckets=4).bucket(-1.0)


class TestAdapters:
    def test_lastfm(self, tmp_path):
        p = tmp_path / "lastfm.tsv"
        p.write_text(
            "user_000001\t2009-05-04T23:08:57Z\tart-1\tDeep Dish\ttr-1\tSong A\n"
            "user_000001\t2009-05-04T23:12:00Z\tart-2\tOther\ttr-2\tSong B\n")
        rows, rep = D.read_lastfm_tsv(str(p))
        assert rep.rows_bad == 0 and len(rows) == 2
        assert rows[0].item_id == "art-1"
        assert rows[1].timestamp - rows[0].timestamp == pytest.approx(183.0)

    def test_reddit_with_header(self, tmp_path):
        p = tmp_path / "reddit.csv"
        p.write_text("username,subreddit,utc\nalice,askscience,1400000000\n"
                     "bob,funny,1400000100\n")
        rows, rep = D.read_reddit_csv(str(p))
        assert len(rows) == 2 and rep.rows_total == 2
        assert rows[0].item_id == "askscience"

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

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(D.IngestError, match="zero rows"):
            D.read_reddit_csv(str(p))


class TestSplitFile:
    def _split(self):
        inters = []
        for u in ("u1", "u2"):
            base = 0 if u == "u1" else 50
            for k in range(6):
                for j in range(3):
                    inters.append(D.RawInteraction(u, f"item{(base + k + j) % 7}",
                                                   100000.0 * k + 10.0 * j))
        return D.preprocess(inters, D.PreprocessConfig(gap_threshold=3600))

    def test_roundtrip(self, tmp_path):
        split = self._split()
        p = tmp_path / "split.jsonl"
        D.save_split(split, str(p))
        back = D.load_split(str(p))
        assert back.num_items == split.num_items and back.num_users == split.num_users
        assert back.item_vocabulary == split.item_vocabulary
        for a, b in zip(split.train + split.test, back.train + back.test):
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
                                                r"of a test session holds -1"):
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
                                                r"previous session's start"):
            D.load_split(path)


def test_raw_interaction_validation():
    with pytest.raises(ValueError):
        D.RawInteraction("", "i", 0.0)
    with pytest.raises(ValueError):
        D.RawInteraction("u", "i", -5.0)
