"""Command line front end.

Five subcommands cover the whole workflow:

    thrnn preprocess  raw interaction log -> split file
    thrnn synth       generator spec      -> split file
    thrnn train       split file          -> checkpoint (+ epoch log)
    thrnn evaluate    checkpoint + split  -> report and plot files
    thrnn predict     checkpoint + history-> next items and return time

Every command writes machine-parseable JSON lines to stdout (each record
carries a "kind" field) and returns exit code 0 on success, 2 on any
recognized error. Configuration is validated before any data is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import data, evaluation, model, synthetic
from .data import SECONDS_PER_DAY, IngestError, Session, UserHistory, _is_int
from .hawkes import FitConfig
from .model import TrainingDivergedError

# model-config fields that map one-to-one onto a flag of the same name
_FLAG_FIELDS = [
    ("hidden_dim", int), ("item_embedding_dim", int), ("user_embedding_dim", int),
    ("gap_embedding_dim", int), ("max_session_reps", int),
    ("dropout_rate", float), ("loss_weight_time", float),
    ("loss_weight_rec", float), ("alpha_exp", float), ("batch_size", int),
    ("learning_rate", float), ("learning_rate_time", float),
    ("time_unit", float), ("num_gap_buckets", int),
]

_BASELINE_MODELS = ("hawkes_short", "hawkes_long", "mean_gap", "popularity")


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group(
        "model configuration",
        "defaults come from ModelConfig; a --config file is applied first "
        "and explicit flags win")
    g.add_argument("--config", metavar="JSON",
                   help="JSON object of ModelConfig fields")
    g.add_argument("--time-clip-norm", type=float,
                   help="gradient-norm cap for the time head; 0 disables")
    g.add_argument("--gap-bucket-days", type=float,
                   help="upper edge of the last inter-session gap bucket")
    g.add_argument("--gap-bucket-scheme", choices=("uniform", "log"))
    for name, typ in _FLAG_FIELDS:
        g.add_argument("--" + name.replace("_", "-"), type=typ)


def _config_values(args) -> dict:
    """Collect ModelConfig overrides from --config and flags, flags winning.

    Unknown keys in the config file are an error; num_items and num_users
    always come from the split, never from here.
    """
    values: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
        allowed = ({f.name for f in dataclasses.fields(model.ModelConfig)}
                   - {"num_items", "num_users"})
        unknown = sorted(set(loaded) - allowed)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}; "
                             f"allowed: {sorted(allowed)}")
        values.update(loaded)
    for name, _ in _FLAG_FIELDS:
        v = getattr(args, name)
        if v is not None:
            values[name] = v
    if args.time_clip_norm is not None:
        values["time_clip_norm"] = (args.time_clip_norm
                                    if args.time_clip_norm > 0 else None)
    if args.gap_bucket_days is not None:
        values["gap_bucket_bound"] = args.gap_bucket_days * SECONDS_PER_DAY
    if args.gap_bucket_scheme is not None:
        values["gap_bucket_scheme"] = args.gap_bucket_scheme
    return values


def _has_config_flags(args) -> bool:
    if args.config or args.time_clip_norm is not None \
            or args.gap_bucket_days is not None \
            or args.gap_bucket_scheme is not None:
        return True
    return any(getattr(args, name) is not None for name, _ in _FLAG_FIELDS)


def _check_split_matches(split: data.DatasetSplit, cfg: model.ModelConfig,
                         path: str) -> None:
    if (split.num_items, split.num_users) != (cfg.num_items, cfg.num_users):
        raise ValueError(
            f"{path}: split has {split.num_items} items / {split.num_users} "
            f"users but the checkpoint was built for {cfg.num_items} / "
            f"{cfg.num_users}")


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# preprocess / synth


_DEFAULT_GAP_THRESHOLD = {"lastfm": 3600.0, "reddit": 1800.0}


def cmd_preprocess(args) -> int:
    gap = (args.gap_threshold if args.gap_threshold is not None
           else _DEFAULT_GAP_THRESHOLD[args.dataset])
    pcfg = data.PreprocessConfig(gap_threshold=gap,
                                 max_session_length=args.max_session_length,
                                 train_fraction=args.train_fraction,
                                 min_sessions=args.min_sessions)
    reader = {"lastfm": data.read_lastfm_tsv,
              "reddit": data.read_reddit_csv}[args.dataset]
    rows, report = reader(args.input)  # raises on empty or >1% bad rows
    split = data.preprocess(rows, pcfg)
    data.save_split(split, args.output)
    _emit({"kind": "split-stats", "path": args.output,
           "rows_read": report.rows_total, "rows_bad": report.rows_bad,
           **split.stats()})
    return 0


_SPEC_REQUIRED = {"num_users", "sessions_per_user", "item_transition",
                  "gap_mixture"}
_SPEC_OPTIONAL = {"context_coupling", "session_length", "train_fraction"}


def _spec_from_file(path: str) -> synthetic.SynthSpec:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = sorted(set(obj) - _SPEC_REQUIRED - _SPEC_OPTIONAL)
    if unknown:
        raise ValueError(f"{path}: unknown spec keys {unknown}")
    missing = sorted(_SPEC_REQUIRED - set(obj))
    if missing:
        raise ValueError(f"{path}: missing spec keys {missing}")
    kwargs = {
        "num_users": int(obj["num_users"]),
        "sessions_per_user": int(obj["sessions_per_user"]),
        "item_transition": np.asarray(obj["item_transition"], dtype=np.float64),
        "gap_mixture": [(float(w), float(m)) for w, m in obj["gap_mixture"]],
    }
    if obj.get("context_coupling") is not None:
        states = []
        for i, st in enumerate(obj["context_coupling"]):
            extra = sorted(set(st) - {"items", "gap_mean_days"})
            if extra:
                raise ValueError(
                    f"{path}: coupling state {i} has unknown keys {extra}")
            states.append(synthetic.CouplingState(
                items=tuple(int(x) for x in st["items"]),
                gap_mean_days=float(st["gap_mean_days"])))
        kwargs["context_coupling"] = states
    if "session_length" in obj:
        lo, hi = obj["session_length"]
        kwargs["session_length"] = (int(lo), int(hi))
    if "train_fraction" in obj:
        kwargs["train_fraction"] = float(obj["train_fraction"])
    return synthetic.SynthSpec(**kwargs)


def cmd_synth(args) -> int:
    split = synthetic.generate_corpus(_spec_from_file(args.spec), seed=args.seed)
    data.save_split(split, args.output)
    _emit({"kind": "split-stats", "path": args.output, "seed": args.seed,
           **split.stats()})
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    if args.resume:
        if _has_config_flags(args) or args.seed is not None:
            raise ValueError("--resume reads config and seed from the "
                             "checkpoint; drop the config and seed flags")
        params, cfg, opt_state, meta = ckpt.load_checkpoint(args.resume)
        if opt_state is None or not isinstance(meta, dict) \
                or "epochs_completed" not in meta or "seed" not in meta:
            raise ValueError(f"{args.resume}: checkpoint has no recorded "
                             "training state, cannot resume")
        seed = int(meta["seed"])
        start_epoch = int(meta["epochs_completed"]) + 1
        if args.epochs < start_epoch:
            raise ValueError(
                f"{args.resume}: already trained through epoch "
                f"{start_epoch - 1}; --epochs {args.epochs} adds nothing")
        split = data.load_split(args.split)
        _check_split_matches(split, cfg, args.split)
    else:
        values = _config_values(args)
        model.ModelConfig(num_items=2, num_users=1, **values)  # fail fast
        seed = 0 if args.seed is None else args.seed
        start_epoch = 1
        params = opt_state = None
        split = data.load_split(args.split)
        cfg = model.ModelConfig(num_items=split.num_items,
                                num_users=split.num_users, **values)

    params, _, opt_state = model.train(
        split, cfg, epochs=args.epochs, seed=seed, log=print,
        params=params, opt_state=opt_state, start_epoch=start_epoch)
    digest = ckpt.save_checkpoint(args.out, params, cfg, optimizer_state=opt_state,
                                  meta={"epochs_completed": args.epochs, "seed": seed})
    _emit({"kind": "checkpoint", "path": args.out,
           "epochs_completed": args.epochs, "seed": seed, "sha256": digest})
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _model_report(name: str, params, cfg, split) -> evaluation.EvalReport:
    if name == "thrnn":
        return model.evaluate(params, cfg, split)
    if name == "mean_gap":
        return evaluation.mean_gap_report(split)
    if name == "popularity":
        return evaluation.popularity_report(split)
    fit = (FitConfig(window="last_k", last_k=cfg.max_session_reps)
           if name == "hawkes_short" else FitConfig(window="full"))
    return evaluation.hawkes_report(split, fit, cfg.quadrature(),
                                    time_unit=cfg.time_unit)


def cmd_evaluate(args) -> int:
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    known = ("thrnn",) + _BASELINE_MODELS
    bad = [n for n in names if n not in known]
    if bad:
        raise ValueError(f"unknown models {bad}; pick from {list(known)}")
    if not names:
        raise ValueError("--models named nothing to evaluate")
    params, cfg, _, _ = ckpt.load_checkpoint(args.checkpoint, optimizer=False)
    split = data.load_split(args.split)
    _check_split_matches(split, cfg, args.split)
    # every report is made before any is written, so a failed model leaves no files
    reports = [(name, _model_report(name, params, cfg, split)) for name in names]
    os.makedirs(args.out_dir, exist_ok=True)
    for name, rep in reports:
        report_path = os.path.join(args.out_dir, f"{name}.report.jsonl")
        plot_path = os.path.join(args.out_dir, f"{name}.plot.dat")
        evaluation.save_report(rep, report_path)
        evaluation.save_plot_data(rep, plot_path)
        line = {"kind": "report", "model": name,
                "num_rank_events": rep.num_rank_events,
                "num_gap_events": rep.num_gap_events,
                "mae_days": rep.overall_mae_days,
                "files": [report_path, plot_path]}
        for k in sorted(rep.recall):
            line[f"recall@{k}"] = rep.recall[k]
            line[f"mrr@{k}"] = rep.mrr[k]
        _emit(line)
    return 0


# ---------------------------------------------------------------------------
# predict


def _history_from_file(path: str) -> UserHistory:
    """One user's timeline as JSON: {"user_index": int, "sessions": [...]}.

    Each session needs "items" (a non-empty list of vocabulary indices) and
    "start"/"end" timestamps in seconds; "gap" (seconds since the
    previous session ended) and "masked" are filled in when omitted.
    Times are JSON numbers and "masked" a JSON bool; strings are refused.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "user_index" not in obj \
            or "sessions" not in obj:
        raise ValueError(f"{path}: expected an object with user_index "
                         "and sessions")
    if not _is_int(obj["user_index"]):
        raise ValueError(f"{path}: field 'user_index' must be an integer, "
                         f"got {obj['user_index']!r}")
    if not isinstance(obj["sessions"], list):
        raise ValueError(f"{path}: field 'sessions' must be a list, "
                         f"got {obj['sessions']!r}")
    sessions = []
    prev_end = None
    def number(i: int, name: str, v) -> float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{path}: session {i} field {name!r} must be a number, got {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"{path}: session {i} field {name!r} is not finite: {v}")
        return float(v)

    for i, rec in enumerate(obj["sessions"]):
        try:
            items, masked = rec["items"], rec.get("masked", i == 0)
            start, end = number(i, "start", rec["start"]), number(i, "end", rec["end"])
            gap = number(i, "gap", rec.get("gap", 0.0 if prev_end is None else start - prev_end))
        except (KeyError, TypeError) as err:
            raise ValueError(f"{path}: session {i} is malformed: {err}") from err
        if not isinstance(items, list) or not all(map(_is_int, items)):
            raise ValueError(f"{path}: session {i} field 'items' must be a list "
                             f"of integers, got {items!r}")
        if not items:
            raise ValueError(f"{path}: session {i} field 'items' is empty")
        if not isinstance(masked, bool):
            raise ValueError(f"{path}: session {i} field 'masked' must be true or false, "
                             f"got {masked!r}")
        if end < start:
            raise ValueError(f"{path}: session {i} ends before it starts")
        if prev_end is not None and start < prev_end:
            raise ValueError(f"{path}: session {i} overlaps the previous one")
        if gap < 0:
            raise ValueError(f"{path}: session {i} field 'gap' is negative: {gap}")
        sessions.append(Session(items=items, start_time=start, end_time=end,
                                gap_before=gap, gap_masked=masked))
        prev_end = end
    if not sessions:
        raise ValueError(f"{path}: history holds no sessions")
    user_index = obj["user_index"]
    return UserHistory(user_id=str(obj.get("user_id", f"u{user_index}")),
                       user_index=user_index, sessions=sessions)


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ValueError(f"-k must be at least 1, got {args.k}")
    params, cfg, _, _ = ckpt.load_checkpoint(args.checkpoint, optimizer=False)
    history = _history_from_file(args.history)
    pred = model.predict(history, params, cfg, k=args.k)
    _emit({"kind": "prediction",
           "user_id": history.user_id,
           "user_index": history.user_index,
           "items": [int(i) for i in pred.items],
           "scores": [float(s) for s in pred.scores],
           "return_seconds": float(pred.return_gap_seconds),
           "return_days": float(pred.return_gap_seconds) / SECONDS_PER_DAY})
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    30 times what parsing one command line does. Only a caller that runs
    main() more than once in one process saves anything; a shell command
    builds it once either way."""
    p = argparse.ArgumentParser(
        prog="thrnn",
        description="session-aware recommendation with return-time prediction")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser(
        "preprocess", help="turn a raw interaction log into a split file")
    sp.add_argument("--dataset", required=True, choices=("lastfm", "reddit"))
    sp.add_argument("--input", required=True, help="raw log path")
    sp.add_argument("--output", required=True, help="split file to write")
    sp.add_argument("--gap-threshold", type=float, default=None,
                    help="idle seconds that close a session "
                         "(default: 3600 for lastfm, 1800 for reddit)")
    sp.add_argument("--max-session-length", type=int, default=20)
    sp.add_argument("--train-fraction", type=float, default=0.8)
    sp.add_argument("--min-sessions", type=int, default=3)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser(
        "synth", help="generate a synthetic corpus from a JSON spec")
    sp.add_argument("--spec", required=True, help="generator spec file")
    sp.add_argument("--output", required=True, help="split file to write")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser(
        "train", help="fit the model on a split and write a checkpoint")
    sp.add_argument("--split", required=True)
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--epochs", type=int, required=True,
                    help="train through this epoch number (inclusive)")
    sp.add_argument("--seed", type=int, default=None,
                    help="rng seed for init/shuffle/dropout (default 0)")
    sp.add_argument("--resume", metavar="CKPT",
                    help="continue from a checkpoint; epoch numbering and "
                         "seed carry over")
    _add_model_flags(sp)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser(
        "evaluate", help="write ranking and return-time reports")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--split", required=True)
    sp.add_argument("--out-dir", required=True,
                    help="directory for per-model report and plot files")
    sp.add_argument("--models",
                    default="thrnn," + ",".join(_BASELINE_MODELS),
                    help="comma-separated model names (default: %(default)s)")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser(
        "predict", help="rank continuations and estimate the return time")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--history", required=True,
                    help="JSON file with user_index and sessions")
    sp.add_argument("-k", type=int, default=5, help="list length")
    sp.set_defaults(func=cmd_predict)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError, IngestError,
            TrainingDivergedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
