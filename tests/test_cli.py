"""End-to-end checks of the command line: every subcommand is driven
through main() the way a shell would, and stdout is parsed as JSON."""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import thrnn
from thrnn.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from thrnn.cli import main
from thrnn import synthetic
from thrnn.data import IngestError, Session, UserHistory, load_history, load_split, save_split

from oracles import histories, load_report, split_from_histories

TINY_FLAGS = ["--hidden-dim", "12", "--item-embedding-dim", "6",
              "--user-embedding-dim", "3", "--gap-embedding-dim", "2",
              "--batch-size", "16", "--num-gap-buckets", "6"]


def _write_spec(path, num_items=10, num_users=12, sessions=6):
    rng = np.random.default_rng(7)
    m = rng.dirichlet(np.full(num_items, 0.4), size=num_items)
    spec = {"num_users": num_users, "sessions_per_user": sessions,
            "item_transition": m.tolist(),
            "gap_mixture": [[0.6, 0.4], [0.4, 2.0]],
            "session_length": [3, 6]}
    path.write_text(json.dumps(spec), encoding="utf-8")


def _records(capsys):
    out = capsys.readouterr().out
    return [json.loads(ln) for ln in out.strip().splitlines() if ln.strip()]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: a small corpus and a 2-epoch checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    _write_spec(root / "spec.json")
    assert main(["synth", "--spec", str(root / "spec.json"),
                 "--output", str(root / "corpus.split"), "--seed", "3"]) == 0
    assert main(["train", "--split", str(root / "corpus.split"),
                 "--out", str(root / "m2.ckpt"), "--epochs", "2",
                 "--seed", "1", *TINY_FLAGS]) == 0
    return root


class TestSynth:
    def test_stats_line_matches_nominal_counts(self, tmp_path, capsys):
        _write_spec(tmp_path / "spec.json", num_users=9, sessions=5)
        out_file = tmp_path / "c.split"
        assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(out_file), "--seed", "0"]) == 0
        (rec,) = _records(capsys)
        assert rec["kind"] == "split-stats"
        assert rec["num_users"] == 9
        assert rec["num_sessions"] == 9 * 5
        assert load_split(str(out_file)).num_users == 9

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        _write_spec(tmp_path / "spec.json")
        blobs = []
        for name in ("a.split", "b.split"):
            assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                         "--output", str(tmp_path / name), "--seed", "5"]) == 0
            blobs.append((tmp_path / name).read_bytes())
        assert blobs[0] == blobs[1]

    def test_gap_past_float_range_refused_without_a_file(self, tmp_path, capsys):
        # gaps of about 1e305 days put session times past float64's range;
        # JSON has no token for them, so no split file is written
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                "gap_mixture": [[1.0, 1e305]], "session_length": [2, 4]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split"), "--seed", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "field 'start' of train session 1 is inf, not a finite number" in err
        assert not (tmp_path / "c.split").exists()

    def test_unknown_spec_key_rejected(self, tmp_path, capsys):
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[1.0]], "gap_mixture": [[1.0, 1.0]],
                "sesion_length": [3, 5]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "sesion_length" in capsys.readouterr().err

    def test_spec_that_is_not_json_names_file_and_line(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text('{"num_users": 4,\n "sessions_per_user": 4,\n oops}')
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert f"{tmp_path / 'spec.json'}: line 3 is not JSON" in capsys.readouterr().err

    def test_missing_spec_key_rejected(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({"num_users": 4}))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert (f"{tmp_path / 'spec.json'} has no field 'sessions_per_user'"
                in capsys.readouterr().err)


# each malformed spec: (edit of the base spec, field the message must name)
_BAD_SPECS = {
    "nan-entry": ({"item_transition": [[0.0, float("nan"), 0.5], [0.5, 0.0, 0.5],
                                       [0.5, 0.5, 0.0]]}, "item_transition"),
    "negative-entry": ({"item_transition": [[0.0, 1.5, -0.5], [0.5, 0.0, 0.5],
                                            [0.5, 0.5, 0.0]]}, "item_transition"),
    "no-successor": ({"item_transition": [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5],
                                          [0.5, 0.5, 0.0]]}, "item_transition"),
    "negative-weight": ({"gap_mixture": [[1.5, 1.0], [-0.5, 2.0]]}, "gap_mixture"),
    "empty-mixture": ({"gap_mixture": []}, "gap_mixture"),
    "coupling-item-range": ({"context_coupling": [{"items": [0, 5], "gap_mean_days": 1.0}]},
                            "context_coupling"),
    "coupling-no-successor": ({"context_coupling": [{"items": [0], "gap_mean_days": 1.0}]},
                              "context_coupling"),
    "fractional-users": ({"num_users": 2.7}, "num_users"),
    "negative-users": ({"num_users": -1}, "num_users"),
    "zero-sessions": ({"sessions_per_user": 0}, "sessions_per_user"),
    "boolean-sessions": ({"sessions_per_user": True}, "sessions_per_user"),
    "length-triple": ({"session_length": [2, 3, 4]}, "session_length"),
    "length-scalar": ({"session_length": 3}, "session_length"),
    "ragged-matrix": ({"item_transition": [[0.5, 0.5], [1.0]]}, "item_transition"),
    "null-weight": ({"gap_mixture": [[None, 1.0]]}, "gap_mixture"),
    "mixture-single": ({"gap_mixture": [[1.0]]}, "gap_mixture"),
    "coupling-no-items": ({"context_coupling": [{"gap_mean_days": 1.0}]}, "context_coupling"),
    "coupling-fractional-item": ({"context_coupling": [{"items": [0, 1.7], "gap_mean_days": 1.0}]},
                                 "context_coupling"),
    "boolean-weight": ({"gap_mixture": [[True, 1.0]]}, "gap_mixture"),
    "coupling-extra-key": ({"context_coupling": [{"items": [0, 1], "gap_mean_days": 1.0,
                                                  "weight": 2}]}, "context_coupling"),
    # integers too large for a float: an OverflowError, not a traceback
    "huge-mean": ({"gap_mixture": [[1.0, 10**400]]}, "gap_mixture"),
    "coupling-huge-mean": ({"context_coupling": [{"items": [0, 1], "gap_mean_days": 10**400}]},
                           "context_coupling"),
    # a bool is an int to Python, but not a number of the spec's
    "coupling-boolean-item": ({"context_coupling": [{"items": [0, True], "gap_mean_days": 1.0}]},
                              "context_coupling"),
    "boolean-mean": ({"gap_mixture": [[1.0, True]]}, "gap_mixture"),
    "train-fraction-above-one": ({"train_fraction": 1.5}, "train_fraction"),
}


class TestSynthSpecRefused:
    @pytest.mark.parametrize("case", sorted(_BAD_SPECS))
    def test_exits_2_naming_the_field(self, tmp_path, capsys, case):
        edit, field = _BAD_SPECS[case]
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                "gap_mixture": [[1.0, 1.0]], "session_length": [2, 4], **edit}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "c.split").exists()

    @pytest.mark.parametrize("case", sorted(_BAD_SPECS))
    def test_synth_spec_refuses_it_without_the_cli(self, case):
        # the library refuses what `synth` does: SynthSpec holds every rule,
        # and builds each context_coupling mapping as CouplingState(**state)
        edit, field = _BAD_SPECS[case]
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                "gap_mixture": [[1.0, 1.0]], "session_length": [2, 4], **edit}
        with pytest.raises(ValueError, match=field):
            synthetic.SynthSpec(**spec)

    @pytest.mark.parametrize("state, message", [
        ({"items": [0, 1], "gap_mean_days": 1.0, "weight": 2}, "has unknown field 'weight'"),
        ({"gap_mean_days": 1.0}, "has no field 'items'"),
        ({"items": [0, 1]}, "has no field 'gap_mean_days'"),
        (3, "is 3, not an object")])
    def test_coupling_state_keys_refused_by_one_rule(self, tmp_path, capsys, state, message):
        # synth names the spec file and the field; the library raises the
        # same words as a ValueError
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                "gap_mixture": [[1.0, 1.0]], "context_coupling": [state]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(path), "--output", str(tmp_path / "c.split")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err == f"error: {path}: context_coupling state 0 {message}\n"
        assert not (tmp_path / "c.split").exists()
        with pytest.raises(ValueError, match=f"^context_coupling state 0 {message}$"):
            synthetic.SynthSpec(**spec)

    def test_train_fraction_refused_before_any_session_is_drawn(self, tmp_path, capsys,
                                                                  monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("generate_corpus called with a refused spec")

        monkeypatch.setattr(synthetic, "generate_corpus", drawn)
        _write_spec(tmp_path / "spec.json")
        spec = json.loads((tmp_path / "spec.json").read_text())
        (tmp_path / "spec.json").write_text(json.dumps({**spec, "train_fraction": 1.5}))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "train_fraction" in capsys.readouterr().err


class TestPreprocess:
    @staticmethod
    def _write_lastfm(path, bad_rows=0):
        lines = []
        base = 1_600_000_000
        from datetime import datetime, timezone
        for u in range(3):
            t = base
            for sess in range(4):
                for ev in range(3):
                    iso = datetime.fromtimestamp(t, tz=timezone.utc)
                    iso = iso.strftime("%Y-%m-%dT%H:%M:%SZ")
                    art = f"a{(u + sess + ev) % 5}"
                    lines.append(f"user_{u}\t{iso}\t{art}\tArtist\ttr\tTrack")
                    t += 60
                t += 7200  # idle long enough to close the session
        for b in range(bad_rows):
            lines.append(f"user_0\tnot-a-timestamp\tx{b}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(lines)

    def test_lastfm_roundtrip(self, tmp_path, capsys):
        total = self._write_lastfm(tmp_path / "log.tsv")
        out_file = tmp_path / "c.split"
        rc = main(["preprocess", "--dataset", "lastfm",
                   "--input", str(tmp_path / "log.tsv"),
                   "--output", str(out_file), "--min-sessions", "3"])
        assert rc == 0
        (rec,) = _records(capsys)
        assert rec["rows_read"] == total
        assert rec["rows_bad"] == 0
        split = load_split(str(out_file))
        assert split.num_users == 3
        assert rec["num_sessions"] == 12

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
    def test_reddit_non_finite_time_counted_bad(self, tmp_path, capsys, time):
        lines = ["author,subreddit,created_utc"]
        for u in range(4):
            for k in range(30):
                lines.append(f"user{u},sub{(u + k) % 7},{1400000000 + u * 7 + k * 4000}")
        lines.insert(40, f"user1,sub3,{time}")
        (tmp_path / "c.csv").write_text("\n".join(lines) + "\n")
        rc = main(["preprocess", "--dataset", "reddit", "--input", str(tmp_path / "c.csv"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 0
        (rec,) = _records(capsys)
        assert (rec["rows_read"], rec["rows_bad"]) == (121, 1)
        text = (tmp_path / "c.split").read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert load_split(str(tmp_path / "c.split")).num_users == 4

    def test_reddit_field_over_csv_limit_counted_bad(self, tmp_path, capsys):
        lines = ["author,subreddit,created_utc"]
        for k in range(120):
            lines.append(f"user{k % 4},sub{k % 7},{1400000000 + 4000 * k}")
        lines.insert(40, 'user1,"' + "x" * 140_000 + '",1400000000')
        (tmp_path / "c.csv").write_text("\n".join(lines) + "\n")
        rc = main(["preprocess", "--dataset", "reddit", "--input", str(tmp_path / "c.csv"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 0
        (rec,) = _records(capsys)
        assert (rec["rows_read"], rec["rows_bad"]) == (121, 1)
        assert load_split(str(tmp_path / "c.split")).num_users == 4

    def test_too_many_malformed_rows_fail(self, tmp_path, capsys):
        self._write_lastfm(tmp_path / "log.tsv", bad_rows=5)
        rc = main(["preprocess", "--dataset", "lastfm",
                   "--input", str(tmp_path / "log.tsv"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "malformed rows" in capsys.readouterr().err

    def test_empty_file_diagnosed(self, tmp_path, capsys):
        (tmp_path / "log.tsv").write_text("")
        rc = main(["preprocess", "--dataset", "lastfm",
                   "--input", str(tmp_path / "log.tsv"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "zero rows" in capsys.readouterr().err

    def test_bad_flag_value_rejected_before_reading(self, tmp_path, capsys):
        rc = main(["preprocess", "--dataset", "lastfm",
                   "--input", str(tmp_path / "does_not_exist.tsv"),
                   "--output", str(tmp_path / "c.split"),
                   "--train-fraction", "1.5"])
        assert rc == 2
        assert "train_fraction" in capsys.readouterr().err

    def test_synthetic_spec_dataset_refused(self, tmp_path, capsys):
        # the generator is reached through `synth` only
        _write_spec(tmp_path / "spec.json", num_users=6, sessions=5)
        with pytest.raises(SystemExit) as exit_:
            main(["preprocess", "--dataset", "synthetic-spec",
                  "--input", str(tmp_path / "spec.json"),
                  "--output", str(tmp_path / "a.split")])
        assert exit_.value.code == 2
        assert "invalid choice: 'synthetic-spec'" in capsys.readouterr().err
        assert not (tmp_path / "a.split").exists()


class TestTrain:
    def test_epoch_log_and_checkpoint_line(self, ws, capsys):
        params, cfg, opt_state, meta = load_checkpoint(str(ws / "m2.ckpt"))
        assert meta == {"epochs_completed": 2, "seed": 1}
        assert opt_state is not None
        assert cfg.hidden_dim == 12

    def test_same_seed_same_digest(self, ws, tmp_path, capsys):
        digests = []
        for name, seed in (("a.ckpt", "1"), ("b.ckpt", "1"), ("c.ckpt", "2")):
            assert main(["train", "--split", str(ws / "corpus.split"),
                         "--out", str(tmp_path / name), "--epochs", "1",
                         "--seed", seed, *TINY_FLAGS]) == 0
            recs = _records(capsys)
            assert recs[-1]["kind"] == "checkpoint"
            digests.append(recs[-1]["sha256"])
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    def test_resume_continues_epoch_numbering(self, ws, tmp_path, capsys):
        import hashlib
        source = hashlib.sha256((ws / "m2.ckpt").read_bytes()).hexdigest()
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "m4.ckpt"), "--epochs", "4",
                   "--resume", str(ws / "m2.ckpt")])
        assert rc == 0
        recs = _records(capsys)
        assert [r["epoch"] for r in recs if r["kind"] == "epoch"] == [3, 4]
        # training updates the mapped weights in place; none of it reaches the source
        assert hashlib.sha256((ws / "m2.ckpt").read_bytes()).hexdigest() == source

        # and the resumed run must be indistinguishable from a straight one
        assert main(["train", "--split", str(ws / "corpus.split"),
                     "--out", str(tmp_path / "straight.ckpt"),
                     "--epochs", "4", "--seed", "1", *TINY_FLAGS]) == 0
        straight = _records(capsys)[-1]["sha256"]
        resumed = (tmp_path / "m4.ckpt").read_bytes()
        assert hashlib.sha256(resumed).hexdigest() == straight

        # resuming onto the file being resumed from gives the same bytes
        in_place = tmp_path / "in_place.ckpt"
        in_place.write_bytes((ws / "m2.ckpt").read_bytes())
        assert main(["train", "--split", str(ws / "corpus.split"), "--out", str(in_place),
                     "--epochs", "4", "--resume", str(in_place)]) == 0
        assert _records(capsys)[-1]["sha256"] == straight
        assert in_place.read_bytes() == resumed

    def test_resume_rejects_config_overrides(self, ws, tmp_path, capsys):
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "4",
                   "--resume", str(ws / "m2.ckpt"), "--learning-rate", "0.1"])
        assert rc == 2
        assert "drop the config" in capsys.readouterr().err

    def test_resume_needs_training_state(self, ws, tmp_path, capsys):
        params, cfg, _, _ = load_checkpoint(str(ws / "m2.ckpt"))
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(str(bare), params, cfg)  # no optimizer, no meta
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "4",
                   "--resume", str(bare)])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_past_target_epoch_rejected(self, ws, tmp_path, capsys):
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "2",
                   "--resume", str(ws / "m2.ckpt")])
        assert rc == 2
        assert "adds nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("line, edit, message", [
        (0, lambda o: {k: v for k, v in o.items() if k != "num_items"},
         "header has no field 'num_items'"),
        (2, lambda o: {**o, "train": [5] + o["train"][1:]}, "train session 0 is 5, not an object"),
        (2, lambda o: 5, "user record 0 is 5, not an object"),
        # a string once reached the item range check and crashed with a TypeError
        (0, lambda o: {**o, "num_items": str(o["num_items"])},
         "header field 'num_items' is '10', not a positive integer"),
        (1, lambda o: {**o, "items": o["items"][:4]},
         "field 'items' of the vocabulary line holds 4 ids, but header field 'num_items' is 10"),
        (1, lambda o: {**o, "items": [o["items"][1]] + o["items"][1:]},
         "field 'items' of the vocabulary line holds 'i0001' twice"),
        (3, lambda o: "{", "line 4 is not JSON"),
    ])
    def test_malformed_split_line_exits_2(self, ws, tmp_path, capsys, line, edit, message):
        lines = (ws / "corpus.split").read_text().splitlines()
        new = edit(json.loads(lines[line]))
        lines[line] = new if isinstance(new, str) else json.dumps(new)
        (tmp_path / "bad.split").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--split", str(tmp_path / "bad.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1", *TINY_FLAGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()

    def test_invalid_config_fails_before_reading_split(self, tmp_path, capsys):
        rc = main(["train", "--split", str(tmp_path / "no_such.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                   "--alpha-exp", "0.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "alpha_exp" in err and "no_such" not in err

    def test_config_file_unknown_key_rejected(self, ws, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"hiden_dim": 8}))
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        assert "hiden_dim" in capsys.readouterr().err

    def test_config_file_that_is_not_json_names_file_and_line(self, ws, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"hidden_dim": 8,\n')
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        assert f"{tmp_path / 'cfg.json'}: line 1 is not JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -0.01), ("learning_rate", float("nan")), ("time_clip_norm", -1),
        ("batch_size", "100"), ("hidden_dim", 4.5)])
    def test_config_value_that_breaks_training_exits_2(self, ws, tmp_path, capsys, field, value):
        (tmp_path / "cfg.json").write_text(json.dumps({field: value}))
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 2
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_negative_learning_rate_flag_exits_2(self, ws, tmp_path, capsys):
        # gradient ascent: the loss would rise while the run exits 0
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                   "--learning-rate", "-0.01", *TINY_FLAGS])
        assert rc == 2
        assert "learning_rate must be non-negative" in capsys.readouterr().err

    def test_flags_override_config_file(self, ws, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"hidden_dim": 16, "item_embedding_dim": 6, "user_embedding_dim": 3,
             "gap_embedding_dim": 2, "batch_size": 16,
             "num_gap_buckets": 6}))
        assert main(["train", "--split", str(ws / "corpus.split"),
                     "--out", str(tmp_path / "x.ckpt"), "--epochs", "1",
                     "--config", str(tmp_path / "cfg.json"),
                     "--hidden-dim", "8"]) == 0
        _, cfg, _, _ = load_checkpoint(str(tmp_path / "x.ckpt"))
        assert cfg.hidden_dim == 8
        assert cfg.item_embedding_dim == 6

    def test_mistyped_split_field_exits_2(self, ws, tmp_path, capsys):
        # item 1.5 would be truncated to item 1 by the embedding lookup
        lines = (ws / "corpus.split").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["train"][0]["items"][0] = 1.5
        lines[2] = json.dumps(rec)
        (tmp_path / "bad.split").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--split", str(tmp_path / "bad.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1", *TINY_FLAGS])
        assert rc == 2
        assert "field 'items' of train session 0 holds 1.5, not an integer" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_missing_split_field_exits_2(self, ws, tmp_path, capsys):
        lines = (ws / "corpus.split").read_text().splitlines()
        rec = json.loads(lines[2])
        del rec["train"][1]["masked"]
        lines[2] = json.dumps(rec)
        (tmp_path / "bad.split").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--split", str(tmp_path / "bad.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1", *TINY_FLAGS])
        assert rc == 2
        assert f"user {rec['user_id']!r}: train session 1 has no field 'masked'" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_rec_only_ablation_trains(self, ws, tmp_path, capsys):
        rc = main(["train", "--split", str(ws / "corpus.split"),
                   "--out", str(tmp_path / "hrnn.ckpt"), "--epochs", "1",
                   "--loss-weight-time", "0.0", *TINY_FLAGS])
        assert rc == 0
        _, cfg, _, _ = load_checkpoint(str(tmp_path / "hrnn.ckpt"))
        assert cfg.loss_weight_time == 0.0

    def test_alpha_flag_reaches_checkpoint(self, ws, tmp_path, capsys):
        assert main(["train", "--split", str(ws / "corpus.split"),
                     "--out", str(tmp_path / "a.ckpt"), "--epochs", "1",
                     "--alpha-exp", "0.5", *TINY_FLAGS]) == 0
        _, cfg, _, _ = load_checkpoint(str(tmp_path / "a.ckpt"))
        assert cfg.alpha_exp == 0.5


class TestEvaluate:
    def test_writes_report_and_plot_per_model(self, ws, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(out_dir)])
        assert rc == 0
        recs = _records(capsys)
        assert [r["model"] for r in recs] == \
            ["thrnn", "hawkes_short", "hawkes_long", "mean_gap", "popularity"]
        for r in recs:
            assert r["kind"] == "report"
        thr = recs[0]
        for k in (5, 10, 20):
            assert 0.0 <= thr[f"recall@{k}"] <= 1.0
        names = sorted(p.name for p in out_dir.iterdir())
        assert len(names) == 10  # report + plot file per model
        loaded = load_report(str(out_dir / "thrnn.report.jsonl"))
        assert loaded.recall.keys() == {5, 10, 20}
        assert (out_dir / "mean_gap.plot.dat").read_text().startswith("#")

    def test_mean_gap_mae_matches_hand_computation(self, ws, tmp_path, capsys):
        train, test = histories(load_split(str(ws / "corpus.split")))
        all_train = [s.gap_before for u in train
                     for s in u.sessions[1:] if not s.gap_masked]
        preds, targets = [], []
        for tr, te in zip(train, test):
            gaps = [s.gap_before for s in tr.sessions[1:] if not s.gap_masked]
            pred = float(np.mean(gaps)) if gaps else float(np.mean(all_train))
            for s in te.sessions:
                if not s.gap_masked:
                    preds.append(pred)
                    targets.append(s.gap_before)
        expected = float(np.mean(np.abs(np.array(preds) - np.array(targets))))
        expected /= 86400.0
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(tmp_path / "r"), "--models", "mean_gap"])
        assert rc == 0
        (rec,) = _records(capsys)
        assert rec["mae_days"] == pytest.approx(expected, rel=1e-12)
        assert rec["num_gap_events"] == len(targets)

    def test_one_session_history_window_evaluates_all_models(self, ws, tmp_path, capsys):
        # hawkes_short's window is max_session_reps sessions: at 1, every user
        # gets fit's Poisson fallback instead of a refused config
        assert main(["train", "--split", str(ws / "corpus.split"),
                     "--out", str(tmp_path / "r1.ckpt"), "--epochs", "1",
                     "--max-session-reps", "1", *TINY_FLAGS]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "r1.ckpt"),
                   "--split", str(ws / "corpus.split"), "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        mae = {r["model"]: r["mae_days"] for r in _records(capsys)}
        assert sorted(mae) == ["hawkes_long", "hawkes_short", "mean_gap", "popularity", "thrnn"]
        assert all(np.isfinite(mae[m]) for m in ("thrnn", "hawkes_short", "hawkes_long",
                                                 "mean_gap"))

    @pytest.mark.parametrize("train_gap", [1.0, 0.0], ids=["user-mean-0", "split-mean-0"])
    def test_zero_mean_train_gap_evaluates_all_models(self, tmp_path, capsys, train_gap):
        # split files allow a gap of 0: user 0's train gaps average 0 days,
        # user 1's average train_gap, and each user has a 1-day test gap
        train, test = [], []
        for u, gap in enumerate((0.0, train_gap)):
            t, sessions = 0.0, []
            for k, g in enumerate((0.0, gap, gap, 1.0)):
                t += g * 86400.0
                sessions.append(Session(items=[k % 3, (k + 1) % 3], start_time=t,
                                        end_time=t + 600.0, gap_before=g * 86400.0))
                t += 600.0
            train.append(UserHistory(f"u{u}", u, sessions[:3]))
            test.append(UserHistory(f"u{u}", u, sessions[3:]))
        split = str(tmp_path / "zero-gap.split")
        save_split(split_from_histories(train, test, 3), split)
        assert main(["train", "--split", split, "--out", str(tmp_path / "z.ckpt"),
                     "--epochs", "1", *TINY_FLAGS]) == 0
        capsys.readouterr()
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "z.ckpt"), "--split", split,
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 0
        mae = {r["model"]: r["mae_days"] for r in _records(capsys)}
        assert all(np.isfinite(mae[m]) for m in ("thrnn", "hawkes_short", "hawkes_long",
                                                 "mean_gap"))

    def test_repeat_evaluation_is_byte_identical(self, ws, tmp_path, capsys):
        blobs = []
        for d in ("r1", "r2"):
            assert main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                         "--split", str(ws / "corpus.split"),
                         "--out-dir", str(tmp_path / d),
                         "--models", "thrnn"]) == 0
            blobs.append((tmp_path / d / "thrnn.report.jsonl").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_model_subset(self, ws, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(tmp_path / "r"),
                   "--models", "mean_gap,popularity"])
        assert rc == 0
        assert [r["model"] for r in _records(capsys)] == \
            ["mean_gap", "popularity"]

    def test_unknown_model_rejected(self, ws, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(tmp_path / "r"), "--models", "bogus"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_unknown_model_rejected_before_reading_files(self, tmp_path, capsys):
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "no_such.ckpt"),
                   "--split", str(tmp_path / "no_such.split"),
                   "--out-dir", str(tmp_path / "r"), "--models", "thrnn,bogus"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "no_such" not in err

    def test_checkpoint_cut_inside_optimizer_section_exits_2(self, ws, tmp_path, capsys):
        raw = (ws / "m2.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-8])
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "cut.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(tmp_path / "r"), "--models", "thrnn"])
        assert rc == 2
        assert "cut.ckpt: truncated" in capsys.readouterr().err

    def test_vocabulary_mismatch_rejected(self, ws, tmp_path, capsys):
        _write_spec(tmp_path / "spec.json", num_items=7, num_users=8)
        assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--output", str(tmp_path / "other.split")]) == 0
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(tmp_path / "other.split"),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        assert "checkpoint was built for" in capsys.readouterr().err

    def test_future_checkpoint_version_rejected(self, ws, tmp_path, capsys):
        raw = bytearray((ws / "m2.ckpt").read_bytes())
        raw[8:12] = struct.pack("<I", 9)
        assert raw[:8] == MAGIC
        (tmp_path / "future.ckpt").write_bytes(bytes(raw))
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "future.ckpt"),
                   "--split", str(ws / "corpus.split"),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        assert "version 9" in capsys.readouterr().err

    def test_split_with_bad_item_index_rejected(self, ws, tmp_path, capsys):
        lines = (ws / "corpus.split").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["test"][0]["items"][0] = -1
        lines[2] = json.dumps(rec)
        (tmp_path / "bad.split").write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(tmp_path / "bad.split"),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"user {rec['user_id']!r}: field 'items'" in err and "-1" in err

    def test_truncated_split_rejected(self, ws, tmp_path, capsys):
        lines = (ws / "corpus.split").read_text().splitlines()
        (tmp_path / "cut.split").write_text("\n".join(lines[:-1]) + "\n")
        rc = main(["evaluate", "--checkpoint", str(ws / "m2.ckpt"),
                   "--split", str(tmp_path / "cut.split"),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 2
        n_users = json.loads(lines[0])["num_users"]
        assert (f"'num_users' is {n_users}, but the file holds {n_users - 1} user records"
                in capsys.readouterr().err)


    def test_non_finite_model_exits_2_and_writes_nothing(self, ws, tmp_path, capsys):
        # NaN scores are never ahead of the target: unchecked, this model
        # would report recall@5 = MRR@5 = 1.0
        params, cfg, _, _ = load_checkpoint(str(ws / "m2.ckpt"))
        params.out_b.value[:] = np.nan
        save_checkpoint(str(tmp_path / "nan.ckpt"), params, cfg)
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--split", str(ws / "corpus.split"), "--out-dir", str(tmp_path / "r"),
                   "--models", "popularity,thrnn"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "parameter 'out_b' holds non-finite values" in err
        assert not (tmp_path / "r").exists()


def _edit_header(edit):
    """A tampering that rewrites a checkpoint's JSON header with `edit`."""
    def tamper(raw):
        (hlen,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + hlen])
        edit(header)
        blob = json.dumps(header).encode()
        return raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:]
    return tamper


# each malformed copy of a trained checkpoint: (tampering, what the message says)
_BAD_CHECKPOINTS = {
    "magic-only": (lambda raw: raw[:8], "truncated: 8 bytes, under the 20-byte prefix"),
    "huge-header-length": (lambda raw: raw[:12] + struct.pack("<Q", 10**12) + raw[20:],
                           "truncated: a 1000000000000-byte header in"),
    "no-config": (_edit_header(lambda h: h.pop("config")), "header has no field 'config'"),
    "params-not-list": (_edit_header(lambda h: h.update(params={"out_w": [1]})),
                        "field 'params' is {'out_w': [1]}, not a list"),
    "record-without-shape": (_edit_header(lambda h: h["params"][0].pop("shape")),
                             "params record 0 has no field 'shape'"),
}


class TestPredict:
    @staticmethod
    def _history(path, items=((0, 4, 7), (3, 1))):
        sessions, t = [], 0.0
        for s in items:
            sessions.append({"items": list(s), "start": t, "end": t + 600.0})
            t += 90000.0
        path.write_text(json.dumps({"user_index": 2, "sessions": sessions}))

    def test_prediction_record(self, ws, tmp_path, capsys):
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json"), "-k", "4"])
        assert rc == 0
        (rec,) = _records(capsys)
        assert rec["kind"] == "prediction"
        assert len(rec["items"]) == 4 and len(set(rec["items"])) == 4
        assert rec["scores"] == sorted(rec["scores"], reverse=True)
        assert rec["return_seconds"] > 0
        assert rec["return_days"] == pytest.approx(rec["return_seconds"] / 86400.0)

    def test_non_finite_model_exits_2(self, ws, tmp_path, capsys):
        params, cfg, _, _ = load_checkpoint(str(ws / "m2.ckpt"))
        params.out_b.value[:] = np.nan
        save_checkpoint(str(tmp_path / "nan.ckpt"), params, cfg)
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "item scores are not finite" in err

    @pytest.mark.parametrize("case", sorted(_BAD_CHECKPOINTS))
    def test_malformed_checkpoint_refused_by_name(self, ws, tmp_path, capsys, case):
        tamper, message = _BAD_CHECKPOINTS[case]
        (tmp_path / "bad.ckpt").write_bytes(tamper((ws / "m2.ckpt").read_bytes()))
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "bad.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert f"bad.ckpt: {message}" in err and "Traceback" not in err

    def test_repeat_prediction_identical(self, ws, tmp_path, capsys):
        self._history(tmp_path / "h.json")
        recs = []
        for _ in range(2):
            assert main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                         "--history", str(tmp_path / "h.json")]) == 0
            recs.extend(_records(capsys))
        assert recs[0] == recs[1]

    def test_unknown_items_listed(self, ws, tmp_path, capsys):
        self._history(tmp_path / "h.json", items=((0, 99), (1,)))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert ("h.json: field 'items' of session 0 holds 99, outside [0, 10)"
                in capsys.readouterr().err)

    def test_malformed_session_rejected(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps(
            {"user_index": 0, "sessions": [{"items": [1]}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "h.json: session 0 has no field 'start'" in capsys.readouterr().err

    def test_overlapping_sessions_rejected(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps(
            {"user_index": 0, "sessions": [
                {"items": [1], "start": 0.0, "end": 500.0},
                {"items": [2], "start": 100.0, "end": 700.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert ("h.json: field 'start' of session 1 is 100.0, before the previous "
                "session's end 500.0" in capsys.readouterr().err)

    @pytest.mark.parametrize("session, message", [
        ({"start": float("nan"), "end": 600.0}, "field 'start' of session 1 is nan, not a "
                                                "finite number"),
        ({"start": 90000.0, "end": float("inf")}, "field 'end' of session 1 is inf, not a "
                                                  "finite number"),
        ({"start": 90000.0, "end": 90600.0, "gap": -5.0},
         r"field 'gap' of session 1 is -5\.0, negative"),
        ({"start": 90000.0, "end": 90600.0, "gap": float("inf")},
         "field 'gap' of session 1 is inf, not a finite number"),
        ({"start": "0", "end": 90600.0}, "field 'start' of session 1 is '0', not a finite number"),
        ({"start": 90000.0, "end": True}, "field 'end' of session 1 is True, not a finite number"),
        ({"start": 90000.0, "end": 90600.0, "gap": "5"},
         "field 'gap' of session 1 is '5', not a finite number"),
        ({"start": 90000.0, "end": 90600.0, "gap": None},
         "field 'gap' of session 1 is None, not a finite number"),
        ({"start": 90000.0, "end": 90600.0, "masked": "false"},
         "field 'masked' of session 1 is 'false', not true or false"),
        ({"start": 90000.0, "end": 90600.0, "masked": 0},
         "field 'masked' of session 1 is 0, not true or false"),
    ])
    def test_bad_session_field_rejected_at_load(self, tmp_path, session, message):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0}, {"items": [2], **session}]}))
        with pytest.raises(IngestError, match=f"h.json: {message}"):
            load_history(str(tmp_path / "h.json"), 10)

    def test_bad_session_field_exits_2(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0},
            {"items": [2], "start": 900.0, "end": 1000.0, "gap": -5.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "h.json: field 'gap' of session 1 is -5.0, negative" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"user_index": 1.7}, "field 'user_index' is 1.7, not an integer"),
        ({"user_index": None}, "field 'user_index' is None, not an integer"),
        ({"user_index": [1]}, r"field 'user_index' is \[1\], not an integer"),
        ({"user_index": True}, "field 'user_index' is True, not an integer"),
        ({"sessions": {"items": [1]}},
         r"field 'sessions' is \{'items': \[1\]\}, not a non-empty list"),
        ({"sessions": "abc"}, "field 'sessions' is 'abc', not a non-empty list"),
        ({"sessions": []}, r"field 'sessions' is \[\], not a non-empty list"),
        ({"sessions": [{"items": [1, 3.9], "start": 0.0, "end": 5.0}]},
         r"field 'items' of session 0 holds 3\.9, not an integer"),
        ({"sessions": [{"items": "12", "start": 0.0, "end": 5.0}]},
         "field 'items' of session 0 is '12', not a list"),
    ])
    def test_mistyped_field_rejected_at_load(self, tmp_path, edit, message):
        obj = {"user_index": 0, "sessions": [{"items": [1], "start": 0.0, "end": 5.0}]}
        (tmp_path / "h.json").write_text(json.dumps({**obj, **edit}))
        with pytest.raises(IngestError, match=f"h.json: {message}"):
            load_history(str(tmp_path / "h.json"), 10)

    @pytest.mark.parametrize("edit, message", [
        ({"user_index": 1.7}, "field 'user_index' is 1.7, not an integer"),
        ({"user_index": None}, "field 'user_index' is None, not an integer"),
        ({"sessions": {"items": [1]}}, "field 'sessions' is {'items': [1]}, not a non-empty list"),
        ({"sessions": [{"items": [3.9], "start": 0.0, "end": 5.0}]},
         "field 'items' of session 0 holds 3.9, not an integer"),
    ])
    def test_mistyped_field_exits_2(self, ws, tmp_path, capsys, edit, message):
        obj = {"user_index": 1, "sessions": [{"items": [1], "start": 0.0, "end": 5.0}]}
        (tmp_path / "h.json").write_text(json.dumps({**obj, **edit}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert f"h.json: {message}" in capsys.readouterr().err

    def test_k_below_one_rejected_before_reading_files(self, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path / "no_such.ckpt"),
                   "--history", str(tmp_path / "no_such.json"), "-k", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "-k must be at least 1, got 0" in err and "no_such" not in err

    def test_checkpoint_cut_inside_optimizer_section_exits_2(self, ws, tmp_path, capsys):
        raw = (ws / "m2.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-8])
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "cut.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "cut.ckpt: truncated" in capsys.readouterr().err

    def test_session_without_items_rejected_at_load(self, tmp_path):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0},
            {"items": [], "start": 900.0, "end": 1000.0}]}))
        with pytest.raises(IngestError, match="h.json: field 'items' of session 1 is empty"):
            load_history(str(tmp_path / "h.json"), 10)

    def test_last_session_without_items_exits_2(self, ws, tmp_path, capsys):
        # with no items there is no intra state to rank from
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1, 2], "start": 0.0, "end": 500.0},
            {"items": [], "start": 900.0, "end": 1000.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "h.json: field 'items' of session 1 is empty" in captured.err

    def test_session_field_of_wrong_type_exits_2(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0, "masked": "false"}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert ("h.json: field 'masked' of session 0 is 'false', not true or false"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("section", ["params", "optimizer"])
    def test_checkpoint_with_mistyped_manifest_shape_exits_2(self, ws, tmp_path, capsys,
                                                              section):
        raw = (ws / "m2.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + hlen])
        rec = next(r for r in header[section] if len(r["shape"]) == 1)
        rec["shape"] = [float(rec["shape"][0])]
        blob = json.dumps(header).encode()
        (tmp_path / "float.ckpt").write_bytes(
            raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:])
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "float.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert (f"float.ckpt: array {rec['name']!r} has shape {rec['shape']!r}, not a list"
                in capsys.readouterr().err)

    def test_checkpoint_with_unknown_config_field_exits_2(self, ws, tmp_path, capsys):
        raw = (ws / "m2.ckpt").read_bytes()
        (hlen,) = struct.unpack("<Q", raw[12:20])
        header = json.loads(raw[20:20 + hlen])
        header["config"]["bogus"] = 1
        blob = json.dumps(header).encode()
        (tmp_path / "bogus.ckpt").write_bytes(
            raw[:12] + struct.pack("<Q", len(blob)) + blob + raw[20 + hlen:])
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "bogus.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert ("bogus.ckpt: field 'config' has unknown field 'bogus'"
                in capsys.readouterr().err)

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])


# each JSON input, with one 0xff byte: the command that reads it ({bad} is
# the file holding the byte) and the line the byte is on
_NOT_UTF8 = {
    "split": (["train", "--split", "{bad}", "--out", "{tmp}/x.ckpt", "--epochs", "1"], 3),
    "history": (["predict", "--checkpoint", "{ws}/m2.ckpt", "--history", "{bad}"], 1),
    "checkpoint": (["predict", "--checkpoint", "{bad}", "--history", "{tmp}/h.json"], 1),
    "config": (["train", "--split", "{ws}/corpus.split", "--out", "{tmp}/x.ckpt",
                "--epochs", "1", "--config", "{bad}"], 2),
    "spec": (["synth", "--spec", "{bad}", "--output", "{tmp}/c.split"], 2),
}


@pytest.mark.parametrize("case", sorted(_NOT_UTF8))
def test_input_that_is_not_utf8_names_file_and_line(ws, tmp_path, capsys, case):
    TestPredict._history(tmp_path / "h.json")
    ckpt = bytearray((ws / "m2.ckpt").read_bytes())
    (hlen,) = struct.unpack("<Q", ckpt[12:20])
    ckpt[20 + hlen // 2] = 0xff  # inside the JSON header
    bad = {
        "split": (ws / "corpus.split").read_bytes().replace(b'"u00000"', b'"\xff"', 1),
        "history": (tmp_path / "h.json").read_bytes().replace(
            b'"sessions"', b'"user_id": "\xff", "sessions"'),
        "checkpoint": bytes(ckpt),
        "config": b'{"hidden_dim": 8,\n "time_unit": "\xff"}',
        "spec": (ws / "spec.json").read_bytes() + b"\n\xff",
    }[case]
    (tmp_path / "bad").write_bytes(bad)
    argv, line = _NOT_UTF8[case]
    rc = main([a.format(bad=tmp_path / "bad", ws=ws, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "Traceback" not in err
    assert f"{tmp_path / 'bad'}: line {line} is not UTF-8: byte 0xff" in err


def _set(field, value):
    return lambda sessions, k: sessions[k].update({field: value})


class TestOneSessionCheck:
    """A split file and a predict history file go through one session
    check: the same malformed session is refused with the same field and
    session named, exit 2 and no traceback, through either reader."""

    @pytest.mark.parametrize("edit, message", [
        (lambda sessions, k: sessions.__setitem__(k, 5), "{where} is 5, not an object"),
        (lambda sessions, k: sessions[k].pop("end"), "{where} has no field 'end'"),
        (_set("items", [True]), "field 'items' of {where} holds True, not an integer"),
        (_set("items", [1, 10]), "field 'items' of {where} holds 10, outside [0, 10)"),
        (_set("start", float("nan")), "field 'start' of {where} is nan, not a finite number"),
        (_set("gap", -5.0), "field 'gap' of {where} is -5.0, negative"),
        (lambda sessions, k: sessions[k].update(end=sessions[k]["start"] - 1.0),
         "field 'end' of {where} is "),
        (lambda sessions, k: sessions[k].update(start=sessions[k - 1]["end"] - 1.0),
         "field 'start' of {where} is "),
    ])
    def test_split_and_history_refuse_alike(self, ws, tmp_path, capsys, edit, message):
        lines = (ws / "corpus.split").read_text().splitlines()
        rec = json.loads(lines[2])
        assert len(rec["train"]) >= 2
        history = {"user_index": 0, "sessions": json.loads(json.dumps(rec["train"] + rec["test"]))}
        edit(rec["train"], 1)
        lines[2] = json.dumps(rec)
        (tmp_path / "bad.split").write_text("\n".join(lines) + "\n")
        edit(history["sessions"], 1)
        (tmp_path / "h.json").write_text(json.dumps(history))

        rc = main(["train", "--split", str(tmp_path / "bad.split"),
                   "--out", str(tmp_path / "x.ckpt"), "--epochs", "1", *TINY_FLAGS])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert (f"bad.split: user {rec['user_id']!r}: "
                + message.format(where="train session 1")) in err
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert "h.json: " + message.format(where="session 1") in err

    def test_history_not_json_names_the_file_and_line(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text('{"user_index": 0,\n "sessions": [}\n')
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        err = capsys.readouterr().err
        assert rc == 2 and "h.json: line 2 is not JSON: Expecting value" in err

    def test_history_session_not_an_object(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 5.0}, 7]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        err = capsys.readouterr().err
        assert rc == 2 and "h.json: session 1 is 7, not an object" in err

    def test_history_defaults_fill_gap_and_masked(self, tmp_path):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 3, "sessions": [
            {"items": [1], "start": 10, "end": 20},
            {"items": [2, 3], "start": 50.0, "end": 60.0},
            {"items": [4], "start": 60.0, "end": 70.0, "gap": 1.5, "masked": True}]}))
        history = load_history(str(tmp_path / "h.json"), 10)
        assert (history.user_id, history.user_index) == ("u3", 3)
        assert [(s.items, s.start_time, s.end_time, s.gap_before, s.gap_masked)
                for s in history.sessions] == [([1], 10.0, 20.0, 0.0, True),
                                               ([2, 3], 50.0, 60.0, 30.0, False),
                                               ([4], 60.0, 70.0, 1.5, True)]


def _without(key):
    return lambda o: {k: v for k, v in o.items() if k != key}


def _with(**fields):
    return lambda o: {**o, **fields}


# the command that reads each JSON object input ({bad} is the file that holds
# it, {out} the file the command would write); a checkpoint's config and its
# training record are read by `train --resume`
_OBJECT_COMMANDS = {
    "config": ["train", "--split", "{ws}/corpus.split", "--out", "{out}", "--epochs", "1",
               "--config", "{bad}"],
    "spec": ["synth", "--spec", "{bad}", "--output", "{out}"],
    "history": ["predict", "--checkpoint", "{ws}/m2.ckpt", "--history", "{bad}"],
    "checkpoint config": ["train", "--split", "{ws}/corpus.split", "--out", "{out}",
                          "--epochs", "3", "--resume", "{bad}"],
}
_OBJECT_COMMANDS["checkpoint meta"] = _OBJECT_COMMANDS["checkpoint config"]

# each malformed object: (input, edit of a good one, message). A --config
# file has no required field, and a history or training record may hold
# more keys than it reads.
_BAD_OBJECTS = {
    "config-not-object": ("config", lambda o: [1], "{bad} is [1], not an object"),
    "config-unknown": ("config", _with(hiden_dim=8), "{bad} has unknown field 'hiden_dim'"),
    "config-split-count": ("config", _with(num_items=5), "{bad} has unknown field 'num_items'"),
    "spec-not-object": ("spec", lambda o: [1], "{bad} is [1], not an object"),
    "spec-missing": ("spec", _without("gap_mixture"), "{bad} has no field 'gap_mixture'"),
    "spec-unknown": ("spec", _with(sesion_length=[3, 5]),
                     "{bad} has unknown field 'sesion_length'"),
    "history-not-object": ("history", lambda o: [1], "{bad} is [1], not an object"),
    "history-missing": ("history", _without("user_index"), "{bad} has no field 'user_index'"),
    "ckpt-config-not-object": ("checkpoint config", lambda o: [1],
                               "{bad}: field 'config' is [1], not an object"),
    "ckpt-config-missing": ("checkpoint config", _without("num_items"),
                            "{bad}: field 'config' has no field 'num_items'"),
    "ckpt-config-unknown": ("checkpoint config", _with(bogus=1),
                            "{bad}: field 'config' has unknown field 'bogus'"),
    "meta-not-object": ("checkpoint meta", lambda o: [1],
                        "{bad}: field 'meta' is [1], not an object"),
    "meta-null": ("checkpoint meta", lambda o: None,
                  "{bad}: field 'meta' is None, not an object"),
    "meta-missing": ("checkpoint meta", _without("seed"),
                     "{bad}: field 'meta' has no field 'seed'"),
    **{f"meta-{name}-{value!r}": (
        "checkpoint meta", _with(**{name: value}),
        f"{{bad}}: field {name!r} of field 'meta' is {value!r}, not a non-negative integer")
       for name in ("seed", "epochs_completed") for value in (None, [1], 1.7, True, -1)},
}


@pytest.mark.parametrize("case", sorted(_BAD_OBJECTS))
def test_object_input_refused_by_one_rule(ws, tmp_path, capsys, case):
    """Each JSON object input is refused by data._require's rule: exit 2,
    the file and the field named, no traceback and nothing written."""
    what, edit, message = _BAD_OBJECTS[case]
    bad = tmp_path / "bad"
    if what.startswith("checkpoint"):
        part = what.split()[1]
        bad.write_bytes(_edit_header(lambda h: h.update({part: edit(h[part])}))(
            (ws / "m2.ckpt").read_bytes()))
    else:
        TestPredict._history(tmp_path / "h.json")
        good = {"config": {"hidden_dim": 8}, "spec": json.loads((ws / "spec.json").read_text()),
                "history": json.loads((tmp_path / "h.json").read_text())}[what]
        bad.write_text(json.dumps(edit(good)))
    out_file = tmp_path / "out"
    rc = main([a.format(ws=ws, bad=bad, out=out_file) for a in _OBJECT_COMMANDS[what]])
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "Traceback" not in err
    assert message.format(bad=bad) in err
    assert not out_file.exists()


# each malformed optimizer section of a resumed checkpoint: (edit, message)
_BAD_OPTIMIZER = {
    "missing": (lambda s: s.pop("adam_v_time_2"), "optimizer state has no array 'adam_v_time_2'"),
    "negative-step": (lambda s: s.update(adam_t=np.array([-3.0])),
                      "optimizer array 'adam_t' holds -3.0, not a finite non-negative number"),
    "fractional-step": (lambda s: s.update(adam_t=np.array([2.5])),
                        "optimizer array 'adam_t' holds 2.5, not an integer"),
    "two-steps": (lambda s: s.update(adam_t=np.array([2.0, 2.0])),
                  "optimizer array 'adam_t' has shape (2,), not (1,)"),
    "negative-second-moment": (
        lambda s: s["adam_v_main_0"].flat.__setitem__(3, -1.0),
        "optimizer array 'adam_v_main_0' holds -1.0, not a finite non-negative number"),
    "nan-first-moment": (lambda s: s["adam_m_time_0"].flat.__setitem__(0, np.nan),
                         "optimizer array 'adam_m_time_0' holds nan, not a finite number"),
    "half-size": (lambda s: s.update(adam_v_main_0=s["adam_v_main_0"].ravel()[:6]),
                  "optimizer array 'adam_v_main_0' has shape (6,), not "),
}


@pytest.mark.parametrize("case", sorted(_BAD_OPTIMIZER))
def test_resume_refuses_malformed_optimizer_state(ws, tmp_path, capsys, case):
    edit, message = _BAD_OPTIMIZER[case]
    params, cfg, opt_state, meta = load_checkpoint(str(ws / "m2.ckpt"))
    state = {k: v.copy() for k, v in opt_state.items()}
    edit(state)
    bad = str(tmp_path / "bad.ckpt")
    save_checkpoint(bad, params, cfg, optimizer_state=state, meta=meta)
    # a split that does not exist gets the same refusal: it is never read
    for split in (ws / "corpus.split", tmp_path / "missing.split"):
        rc = main(["train", "--split", str(split), "--out", str(tmp_path / "x.ckpt"),
                   "--epochs", "3", "--resume", bad])
        out, err = capsys.readouterr()
        assert rc == 2 and out == "" and "Traceback" not in err
        assert err.startswith(f"error: {bad}: {message}"), err
        assert not (tmp_path / "x.ckpt").exists()


class TestRepeatedMain:
    """main() builds its parser once per process; a reused parser must give
    every call what a fresh process would."""

    @staticmethod
    def _in_process(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as err:  # argparse usage errors exit from inside main
            rc = err.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    @staticmethod
    def _fresh_process(argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(thrnn.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "thrnn.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def test_calls_in_one_process_match_fresh_processes(self, ws, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal
        TestPredict._history(tmp_path / "h.json")
        predict = ["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")]
        calls = [
            predict[:3],  # usage error: --history missing
            predict + ["-k", "0"],  # handled error
            predict + ["-k", "3"],
            ["synth", "--spec", str(ws / "spec.json"),
             "--output", str(tmp_path / "c.split"), "--seed", "4"],
            predict,
        ]
        got = [self._in_process(argv, capsys) for argv in calls]
        assert [rc for rc, _, _ in got] == [2, 2, 0, 0, 0]
        for argv, result in zip(calls, got):
            assert result == self._fresh_process(argv), argv
