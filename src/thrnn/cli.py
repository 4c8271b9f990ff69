"""Command line front end.

Five subcommands cover the whole workflow:

    thrnn preprocess  raw interaction log -> split file
    thrnn synth       generator spec      -> split file
    thrnn train       split file          -> checkpoint (+ epoch log)
    thrnn evaluate    checkpoint + split  -> report and plot files
    thrnn predict     checkpoint + history-> next items and return time

Every command writes machine-parseable JSON lines to stdout (each record
carries a "kind" field) and returns exit code 0 on success, 2 on any
recognized error. `thrnn train` sets each ModelConfig field but the
split's num_items and num_users by one flag of the field's own name, and
the config is validated before any data is read. This module decodes no
file: data reads them, and refuses each JSON object input by one rule,
data._require, naming file and field. Values are checked by ModelConfig,
SynthSpec and data.session_columns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import checkpoint as ckpt
from . import data, evaluation, model, synthetic
from .data import SECONDS_PER_DAY, IngestError, _is_int
from .hawkes import FitConfig
from .model import TrainingDivergedError
from .point_process import QUADRATURE

# every ModelConfig field but the split's num_items and num_users, each set
# by the one flag of its own name
_FLAG_FIELDS = [(f.name, {"int": int, "float": float}[f.type])
                for f in dataclasses.fields(model.ModelConfig)
                if f.name not in ("num_items", "num_users")]

BASELINE_MODELS = ("hawkes_short", "hawkes_long", "mean_gap", "popularity")


# ---------------------------------------------------------------------------
# configuration plumbing


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("model configuration", "defaults come from ModelConfig")
    for name, typ in _FLAG_FIELDS:
        g.add_argument("--" + name.replace("_", "-"), type=typ)


def _config_values(args) -> dict:
    """The ModelConfig fields the command line sets."""
    return {name: getattr(args, name) for name, _ in _FLAG_FIELDS
            if getattr(args, name) is not None}


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


def cmd_synth(args) -> int:
    fields = dataclasses.fields(synthetic.SynthSpec)  # SynthSpec checks the values
    spec = data.read_json_object(
        args.spec, [f.name for f in fields if f.default is dataclasses.MISSING],
        allowed={f.name for f in fields})
    try:
        spec = synthetic.SynthSpec(**spec)
    except ValueError as err:
        raise ValueError(f"{args.spec}: {err}") from None
    split = synthetic.generate_corpus(spec, seed=args.seed)
    data.save_split(split, args.output)
    _emit({"kind": "split-stats", "path": args.output, "seed": args.seed,
           **split.stats()})
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    if args.resume:
        if _config_values(args) or args.seed is not None:
            raise ValueError("--resume reads config and seed from the "
                             "checkpoint; drop the config and seed flags")
        params, cfg, opt_state, meta = ckpt.load_checkpoint(args.resume)
        if opt_state is None:
            raise ValueError(f"{args.resume}: checkpoint has no recorded "
                             "training state, cannot resume")
        data._require(meta, ("epochs_completed", "seed"), f"{args.resume}: field 'meta'")
        for name in ("epochs_completed", "seed"):
            if not _is_int(meta[name]) or meta[name] < 0:
                raise IngestError(f"{args.resume}: field {name!r} of field 'meta' is "
                                  f"{meta[name]!r:.80}, not a non-negative integer")
        try:  # the moments are checked as they load, before any split is read
            opt = model.optimizer(params, cfg, opt_state)
        except ValueError as err:
            raise ValueError(f"{args.resume}: {err}") from None
        seed, start_epoch = meta["seed"], meta["epochs_completed"] + 1
        if args.epochs < start_epoch:
            raise ValueError(f"{args.resume}: already trained through epoch "
                             f"{start_epoch - 1}; --epochs {args.epochs} adds nothing")
        split = data.load_split(args.split)
        _check_split_matches(split, cfg, args.split)
    else:
        values = _config_values(args)
        model.ModelConfig(num_items=2, num_users=1, **values)  # fail fast
        seed = 0 if args.seed is None else args.seed
        start_epoch = 1
        params = opt = None
        split = data.load_split(args.split)
        cfg = model.ModelConfig(num_items=split.num_items, num_users=split.num_users, **values)

    params, _, opt_state = model.train(
        split, cfg, epochs=args.epochs, seed=seed, log=print,
        params=params, opt=opt, start_epoch=start_epoch)
    digest = ckpt.save_checkpoint(args.out, params, cfg, optimizer_state=opt_state,
                                  meta={"epochs_completed": args.epochs, "seed": seed})
    _emit({"kind": "checkpoint", "path": args.out,
           "epochs_completed": args.epochs, "seed": seed, "sha256": digest})
    return 0


# ---------------------------------------------------------------------------
# evaluate


def model_report(name: str, params, cfg, split) -> evaluation.EvalReport:
    """One `evaluate` model's report; the baselines read cfg but not params."""
    if name == "thrnn":
        return model.evaluate(params, cfg, split)
    if name == "mean_gap":
        return evaluation.mean_gap_report(split)
    if name == "popularity":
        return evaluation.popularity_report(split)
    fit = (FitConfig(window="last_k", last_k=cfg.max_session_reps)
           if name == "hawkes_short" else FitConfig(window="full"))
    return evaluation.hawkes_report(split, fit, QUADRATURE)


def cmd_evaluate(args) -> int:
    names = [n.strip() for n in args.models.split(",") if n.strip()]
    known = ("thrnn",) + BASELINE_MODELS
    bad = [n for n in names if n not in known]
    if bad:
        raise ValueError(f"unknown models {bad}; pick from {list(known)}")
    if not names:
        raise ValueError("--models named nothing to evaluate")
    params, cfg, _, _ = ckpt.load_checkpoint(args.checkpoint)
    split = data.load_split(args.split)
    _check_split_matches(split, cfg, args.split)
    # every report is made before any is written, so a failed model leaves no files
    reports = [(name, model_report(name, params, cfg, split)) for name in names]
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


def cmd_predict(args) -> int:
    if args.k < 1:
        raise ValueError(f"-k must be at least 1, got {args.k}")
    params, cfg, _, _ = ckpt.load_checkpoint(args.checkpoint)
    history = data.load_history(args.history, cfg.num_items)
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
                    default="thrnn," + ",".join(BASELINE_MODELS),
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
    except (ValueError, IndexError, OSError, TrainingDivergedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
