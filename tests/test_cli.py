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
from thrnn.cli import _history_from_file, main
from thrnn.data import load_split

from oracles import load_report

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

    def test_unknown_spec_key_rejected(self, tmp_path, capsys):
        spec = {"num_users": 4, "sessions_per_user": 4,
                "item_transition": [[1.0]], "gap_mixture": [[1.0, 1.0]],
                "sesion_length": [3, 5]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "sesion_length" in capsys.readouterr().err

    def test_missing_spec_key_rejected(self, tmp_path, capsys):
        (tmp_path / "spec.json").write_text(json.dumps({"num_users": 4}))
        rc = main(["synth", "--spec", str(tmp_path / "spec.json"),
                   "--output", str(tmp_path / "c.split")])
        assert rc == 2
        assert "missing spec keys" in capsys.readouterr().err


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
        assert "field 'items' of a train session holds 1.5, not an integer" \
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
        split = load_split(str(ws / "corpus.split"))
        all_train = [s.gap_before for u in split.train
                     for s in u.sessions[1:] if not s.gap_masked]
        preds, targets = [], []
        for tr, te in zip(split.train, split.test):
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
        params, cfg, _, _ = load_checkpoint(str(ws / "m2.ckpt"), optimizer=False)
        params.out_b.value[:] = np.nan
        save_checkpoint(str(tmp_path / "nan.ckpt"), params, cfg)
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--split", str(ws / "corpus.split"), "--out-dir", str(tmp_path / "r"),
                   "--models", "popularity,thrnn"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "parameter 'out_b' holds non-finite values" in err
        assert not (tmp_path / "r").exists()


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
        params, cfg, _, _ = load_checkpoint(str(ws / "m2.ckpt"), optimizer=False)
        params.out_b.value[:] = np.nan
        save_checkpoint(str(tmp_path / "nan.ckpt"), params, cfg)
        self._history(tmp_path / "h.json")
        rc = main(["predict", "--checkpoint", str(tmp_path / "nan.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and "item scores are not finite" in err

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
        assert "[99]" in capsys.readouterr().err

    def test_malformed_session_rejected(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps(
            {"user_index": 0, "sessions": [{"items": [1]}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "session 0 is malformed" in capsys.readouterr().err

    def test_overlapping_sessions_rejected(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps(
            {"user_index": 0, "sessions": [
                {"items": [1], "start": 0.0, "end": 500.0},
                {"items": [2], "start": 100.0, "end": 700.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "overlaps" in capsys.readouterr().err

    @pytest.mark.parametrize("session, message", [
        ({"start": float("nan"), "end": 600.0}, "session 1 field 'start' is not finite: nan"),
        ({"start": 90000.0, "end": float("inf")}, "session 1 field 'end' is not finite: inf"),
        ({"start": 90000.0, "end": 90600.0, "gap": -5.0},
         "session 1 field 'gap' is negative: -5.0"),
        ({"start": 90000.0, "end": 90600.0, "gap": float("inf")},
         "session 1 field 'gap' is not finite: inf"),
        ({"start": "0", "end": 90600.0}, "session 1 field 'start' must be a number, got '0'"),
        ({"start": 90000.0, "end": True}, "session 1 field 'end' must be a number, got True"),
        ({"start": 90000.0, "end": 90600.0, "gap": "5"},
         "session 1 field 'gap' must be a number, got '5'"),
        ({"start": 90000.0, "end": 90600.0, "gap": None},
         "session 1 field 'gap' must be a number, got None"),
        ({"start": 90000.0, "end": 90600.0, "masked": "false"},
         "session 1 field 'masked' must be true or false, got 'false'"),
        ({"start": 90000.0, "end": 90600.0, "masked": 0},
         "session 1 field 'masked' must be true or false, got 0"),
    ])
    def test_bad_session_field_rejected_at_load(self, tmp_path, session, message):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0}, {"items": [2], **session}]}))
        with pytest.raises(ValueError, match=f"h.json: {message}"):
            _history_from_file(str(tmp_path / "h.json"))

    def test_bad_session_field_exits_2(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0},
            {"items": [2], "start": 900.0, "end": 1000.0, "gap": -5.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "session 1 field 'gap' is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"user_index": 1.7}, "field 'user_index' must be an integer, got 1.7"),
        ({"user_index": None}, "field 'user_index' must be an integer, got None"),
        ({"user_index": [1]}, r"field 'user_index' must be an integer, got \[1\]"),
        ({"user_index": True}, "field 'user_index' must be an integer, got True"),
        ({"sessions": {"items": [1]}}, "field 'sessions' must be a list"),
        ({"sessions": "abc"}, "field 'sessions' must be a list, got 'abc'"),
        ({"sessions": [{"items": [1, 3.9], "start": 0.0, "end": 5.0}]},
         r"session 0 field 'items' must be a list of integers, got \[1, 3.9\]"),
        ({"sessions": [{"items": "12", "start": 0.0, "end": 5.0}]},
         "session 0 field 'items' must be a list of integers, got '12'"),
    ])
    def test_mistyped_field_rejected_at_load(self, tmp_path, edit, message):
        obj = {"user_index": 0, "sessions": [{"items": [1], "start": 0.0, "end": 5.0}]}
        (tmp_path / "h.json").write_text(json.dumps({**obj, **edit}))
        with pytest.raises(ValueError, match=f"h.json: {message}"):
            _history_from_file(str(tmp_path / "h.json"))

    @pytest.mark.parametrize("edit, message", [
        ({"user_index": 1.7}, "field 'user_index' must be an integer"),
        ({"user_index": None}, "field 'user_index' must be an integer"),
        ({"sessions": {"items": [1]}}, "field 'sessions' must be a list"),
        ({"sessions": [{"items": [3.9], "start": 0.0, "end": 5.0}]},
         "session 0 field 'items' must be a list of integers"),
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
        with pytest.raises(ValueError, match="h.json: session 1 field 'items' is empty"):
            _history_from_file(str(tmp_path / "h.json"))

    def test_last_session_without_items_exits_2(self, ws, tmp_path, capsys):
        # with no items there is no intra state to rank from
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1, 2], "start": 0.0, "end": 500.0},
            {"items": [], "start": 900.0, "end": 1000.0}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "h.json: session 1 field 'items' is empty" in captured.err

    def test_session_field_of_wrong_type_exits_2(self, ws, tmp_path, capsys):
        (tmp_path / "h.json").write_text(json.dumps({"user_index": 0, "sessions": [
            {"items": [1], "start": 0.0, "end": 500.0, "masked": "false"}]}))
        rc = main(["predict", "--checkpoint", str(ws / "m2.ckpt"),
                   "--history", str(tmp_path / "h.json")])
        assert rc == 2
        assert "session 0 field 'masked' must be true or false" in capsys.readouterr().err

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
        assert "bogus.ckpt: unknown config field 'bogus'" in capsys.readouterr().err

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main([])


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
