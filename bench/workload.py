"""One benchmark workload, run in a process of its own.

    python3 bench/workload.py --workload NAME --seed N --seconds S
                              [--rounds R] --out DIR [--traced]

Generates the workload's inputs from the seed, then drives the thrnn
command line in process (`thrnn.cli.main`), one command after another
from a single caller. After a warm-up (ingest, train, one `predict` per
history file) it runs rounds of ingest, train (where a training run is
short enough to repeat), evaluate and a closed loop of `predict` calls
until `--seconds` have passed since set-up ended, and at least
`--rounds` (by default the workload's minimum) rounds. Times of
interpreter-bound steps are reported at a reference host speed, measured
by a fixed calibration kernel run after every step; the unscaled values
go to the provenance record. Every command and every output check counts
as one operation. Writes DIR/result.json; with --traced it also installs
the span tracer and writes DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from thrnn import checkpoint, cli, model  # noqa: E402
from thrnn.data import Session, UserHistory  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

# the imports above, timed in a fresh interpreter
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = {paths!r}; "
                "import numpy; from thrnn import checkpoint, cli, model; "
                "import inputs, spans; print(time.perf_counter() - t)")

SETUP_REPEATS = 5
# A calibration batch runs the kernel this many times, after every step;
# the kernel's median time on the reference host, a 2-vCPU cloud VM
# (Python 3.11, numpy 2.4), defines host speed 1.
CALIBRATION_REPEATS = 5
CALIBRATION_REFERENCE_S = 0.0065
ALL_MODELS = ("thrnn", "hawkes_short", "hawkes_long", "mean_gap", "popularity")

# the criterion-7 model shape for the small corpus; ModelConfig defaults
# (h=100, item dim 50) at the Reddit vocabulary. A "predict" step calls
# once per history file, so every round sees the same mix, and
# min_rounds rounds make at least 100 calls. "interp_share" is, per kind of
# step, the share of its time taken to move with the calibration kernel
# (see `at_reference` in run()). The kernel is small-op interpreter work,
# like every step of markov-small and reddit-vocab's CSV parsing. It
# does not track reddit-vocab's single 30 s training run, its large BLAS
# calls or its ~100 MB checkpoint reads: its evaluate and predict steps
# take a share of one half, the share that gave the smallest run-to-run
# spread in four sets of 5-6 runs; training and set-up take none.
WORKLOADS = {
    "markov-small": {
        "input": "spec.json", "write": inputs.write_markov_spec,
        "ingest": ["synth", "--spec", "{input}", "--output", "{split}",
                   "--seed", "{seed}"],
        "epochs": 3,
        "train": ["--hidden-dim", "32",
                  "--item-embedding-dim", "24", "--user-embedding-dim", "4",
                  "--gap-embedding-dim", "3", "--num-gap-buckets", "10"],
        "models": ALL_MODELS, "min_rounds": 4,
        "interp_share": {"setup": 1.0, "ingest": 1.0, "train": 1.0, "evaluate": 1.0,
                         "predict": 1.0},
        "round": ("ingest", "predict", "train", "ingest", "predict", "evaluate",
                  "ingest", "predict"),
    },
    "reddit-vocab": {
        "input": "comments.csv", "write": inputs.write_reddit_csv,
        "ingest": ["preprocess", "--dataset", "reddit", "--input", "{input}",
                   "--output", "{split}"],
        "epochs": 1, "train": [],
        "models": ("thrnn", "mean_gap", "popularity"), "min_rounds": 4,
        "interp_share": {"setup": 0.0, "ingest": 1.0, "train": 0.0, "evaluate": 0.5,
                         "predict": 0.5},
        "round": ("ingest", "predict", "ingest", "evaluate", "ingest", "predict",
                  "ingest", "predict"),
        "num_items": inputs.REDDIT_ITEMS,
    },
}

EXPECTED_KINDS = {"synth": "split-stats", "preprocess": "split-stats",
                  "train": "epoch", "evaluate": "report", "predict": "prediction"}


class Operations:
    """Counts every command and output check; remembers what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


class Runner:
    def __init__(self, ops: Operations, tracer: spans.Tracer | None):
        self.ops = ops
        self.tracer = tracer

    def command(self, argv: list[str]) -> tuple[list[dict], float]:
        """Run one CLI command; returns its JSON records and wall time.
        Traced, the wall time is the command's root span."""
        buf = io.StringIO()
        sid = self.tracer.open("cli." + argv[0]) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - start
        if self.tracer:
            self.tracer.close(sid)
            wall = self.tracer.ends[sid] - self.tracer.starts[sid]
        self.ops.check(f"{argv[0]} exit code {rc}", rc == 0)
        try:
            records = [json.loads(ln) for ln in buf.getvalue().splitlines() if ln]
        except json.JSONDecodeError:
            records = []
        kinds = {r.get("kind") for r in records}
        self.ops.check(f"{argv[0]} emits {EXPECTED_KINDS[argv[0]]}",
                       EXPECTED_KINDS[argv[0]] in kinds)
        return records, wall


def split_counts(path: str) -> dict:
    """Counts read straight from the split file, without thrnn."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        fh.readline()  # vocabulary
        users = [json.loads(ln) for ln in fh]
    n = {"users": len(users), "items": header["num_items"], "sessions": 0,
         "examples": 0, "rank_events": 0, "gap_events": 0}
    for u in users:
        n["sessions"] += len(u["train"]) + len(u["test"])
        for j, s in enumerate(u["train"]):
            # model.build_examples skips time-masked sessions with no target
            if not ((s["masked"] or j == 0) and len(s["items"]) < 2):
                n["examples"] += 1
        for s in u["test"]:
            n["rank_events"] += max(len(s["items"]) - 1, 0)
            n["gap_events"] += not s["masked"]
    return n


def expected_report_counts(model_name: str, n: dict) -> tuple[int, int]:
    ranks = n["rank_events"] if model_name in ("thrnn", "popularity") else 0
    gaps = n["gap_events"] if model_name != "popularity" else 0
    return ranks, gaps


def reference_prediction(path: str, params, cfg) -> dict:
    """model.predict on a history parsed here, for comparison with the CLI."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    sessions = [Session(items=s["items"], start_time=s["start"], end_time=s["end"],
                        gap_before=s["gap"], gap_masked=s["masked"])
                for s in obj["sessions"]]
    hist = UserHistory(obj["user_id"], obj["user_index"], sessions)
    pred = model.predict(hist, params, cfg, k=5)
    return {"items": [int(i) for i in pred.items],
            "scores": [float(s) for s in pred.scores],
            "return_seconds": float(pred.return_gap_seconds)}


def finite_epochs(records: list[dict]) -> bool:
    epochs = [r for r in records if r.get("kind") == "epoch"]
    return bool(epochs) and all(
        isinstance(r[key], float) and math.isfinite(r[key])
        for r in epochs for key in ("train_loss", "time_nll", "rec_nll"))


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "thrnn", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
            "src_sha256": src.hexdigest()}


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:  # no git on this machine
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def calibration_kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls, like the
    program's own, that never changes with the program."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((32, 32)) / 6.0
    x = rng.standard_normal(32)
    d = {}
    acc = 0.0
    for i in range(1500):
        x = np.tanh(a @ x + 0.1)
        d[i % 97] = float(x[i % 32])
        acc += d[i % 97] * 0.5
    json.dumps(sorted(d.items()))
    return acc



def import_seconds() -> float:
    code = IMPORT_PROBE.format(paths=[os.path.join(ROOT, "src"), BENCH])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout)


def run(name: str, seed: int, seconds: float, min_rounds: int, out_dir: str,
        traced: bool) -> dict:
    wl = WORKLOADS[name]
    tracer = spans.Tracer() if traced else None
    if tracer:
        spans.install(tracer)
    ops = Operations()
    runner = Runner(ops, tracer)
    os.makedirs(out_dir, exist_ok=True)
    path = {"input": os.path.join(out_dir, wl["input"]),
            "split": os.path.join(out_dir, "corpus.split"),
            "ckpt": os.path.join(out_dir, "model.ckpt"),
            "reports": os.path.join(out_dir, "reports"),
            "histories": os.path.join(out_dir, "histories"),
            "seed": str(seed % 2 ** 31)}

    # set-up, repeated: the files are rewritten identically each time
    import_s, gen_s, history_s = [], [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(import_seconds())
        t = time.perf_counter()
        wl["write"](path["input"], seed)
        gen_s.append(time.perf_counter() - t)
    deadline = time.perf_counter() + seconds

    # Every ingest and train rewrites identical bytes; later commands read them.
    # Each timed sample is kept as (wall time, number of calibration
    # batches before it); see `scaled` below.
    batches: list[float] = []

    def calibrate() -> None:
        times = []
        for _ in range(CALIBRATION_REPEATS):
            t = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t)
        batches.append(statistics.median(times))

    ingest_argv = [a.format(**path) for a in wl["ingest"]]
    ingest_s, digests = [], set()

    def ingest() -> list[dict]:
        records, wall = runner.command(ingest_argv)
        ingest_s.append((wall, len(batches)))
        with open(path["split"], "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest())
        return records

    epochs = wl["epochs"]
    train_argv = ["train", "--split", path["split"], "--out", path["ckpt"],
                  "--epochs", str(epochs), "--seed", path["seed"], *wl["train"]]
    train_s, ckpt_digests = [], set()
    rec_nll: list[float] = []

    def train() -> None:
        records, wall = runner.command(train_argv)
        train_s.append((wall, len(batches)))
        with open(path["ckpt"], "rb") as fh:
            ckpt_digests.add(hashlib.sha256(fh.read()).hexdigest())
        ops.check("train logs one epoch record per epoch",
                  sum(r.get("kind") == "epoch" for r in records) == epochs
                  and any(r.get("kind") == "checkpoint" for r in records))
        ops.check("epoch losses are finite", finite_epochs(records))
        rec_nll[:] = [r["rec_nll"] for r in records if r.get("kind") == "epoch"][-1:]

    eval_argv = ["evaluate", "--checkpoint", path["ckpt"], "--split", path["split"],
                 "--out-dir", path["reports"], "--models", ",".join(wl["models"])]
    eval_s: list[tuple[float, int]] = []
    reports: dict[str, dict] = {}

    def evaluate() -> None:
        records, wall = runner.command(eval_argv)
        eval_s.append((wall, len(batches)))
        got = {r["model"]: r for r in records if r.get("kind") == "report"}
        ops.check("one report per model", list(got) == list(wl["models"]))
        for m in wl["models"]:
            ops.check(f"{m} report event counts",
                      (got.get(m, {}).get("num_rank_events"),
                       got.get(m, {}).get("num_gap_events"))
                      == expected_report_counts(m, counts))
        if reports:
            ops.check("evaluate is deterministic", got == reports)
        else:
            reports.update(got)

    latencies: list[tuple[float, int]] = []
    outputs: list[list] = [[] for _ in range(inputs.HISTORY_FILES)]

    def predict(calls: int, timed: bool = True) -> None:
        for k in range(calls):
            records, wall = runner.command(
                ["predict", "--checkpoint", path["ckpt"], "--history", histories[k]])
            if timed:
                latencies.append((wall, len(batches)))
            outputs[k].append(next((r for r in records
                                    if r.get("kind") == "prediction"), None))

    # warm-up: the first ingest, train and pass over the histories are
    # untimed, except a training run too long to repeat
    records = ingest()
    calibrate()
    ingest_s.clear()
    counts = split_counts(path["split"])
    stats = next((r for r in records if r.get("kind") == "split-stats"), {})
    ops.check("split-stats counts match the split",
              stats.get("num_sessions") == counts["sessions"]
              and stats.get("num_users") == counts["users"])
    if "num_items" in wl:
        ops.check(f"split has {wl['num_items']} items",
                  counts["items"] == wl["num_items"])
    os.makedirs(path["histories"], exist_ok=True)
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        histories = inputs.write_histories(path["split"], path["histories"], seed)
        history_s.append(time.perf_counter() - t)
    train()
    calibrate()
    if "train" in wl["round"]:
        train_s.clear()
    predict(len(histories), timed=False)
    calibrate()

    # Rounds of every timed command until the deadline. Each round
    # interleaves the short commands with the long ones, so that every
    # metric samples the whole run and a slow or fast stretch of a
    # shared host moves them all alike.
    steps = {"ingest": ingest, "train": train, "evaluate": evaluate,
             "predict": lambda: predict(len(histories))}
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        for step in wl["round"]:
            steps[step]()
            calibrate()
        rounds += 1
    ops.check("ingest is deterministic", len(digests) == 1)
    ops.check("train is deterministic", len(ckpt_digests) == 1)

    params, cfg, _, _ = checkpoint.load_checkpoint(path["ckpt"])
    for k, hist_path in enumerate(histories):
        ref = reference_prediction(hist_path, params, cfg)
        ops.check(f"predict matches model.predict on {os.path.basename(hist_path)}",
                  all(o is not None and {key: o[key] for key in ref} == ref
                      for o in outputs[k]))

    # Times are scaled to the reference host speed. The shared host's
    # speed drifts by a fifth or more over minutes, more than the median
    # of one run can absorb; the kernel's time tracks it. A sample of a
    # step whose interpreter share is f is divided by f * slowdown + 1 - f,
    # the slowdown read from the calibration batches just before and
    # after it (set-up: the median of all batches).
    share = wl["interp_share"]

    def unscaled(walls: list[tuple[float, int]]) -> list[float]:
        return [wall for wall, _ in walls]

    def at_reference(kind: str, walls: list[tuple[float, int]]) -> list[float]:
        f = share[kind]
        return [wall / (f * statistics.fmean(batches[pos - 1:pos + 1])
                        / CALIBRATION_REFERENCE_S + 1 - f)
                for wall, pos in walls]

    def timings(ingest_w: list[float], train_w: list[float], eval_w: list[float],
                predict_w: list[float], setup: float) -> dict:
        return {
            "setup_s": setup,
            "ingest_sessions_per_s": counts["sessions"] / statistics.median(ingest_w),
            "train_examples_per_s": counts["examples"] * epochs / statistics.median(train_w),
            "evaluate_users_per_s": counts["users"] / statistics.median(eval_w),
            "predict_p50_ms": 1e3 * statistics.median(predict_w),
            "predict_p90_ms": 1e3 * statistics.quantiles(predict_w, n=10)[8],
        }

    samples = {"ingest": ingest_s, "train": train_s, "evaluate": eval_s,
               "predict": latencies}
    setup_s = sum(map(statistics.median, (import_s, gen_s, history_s)))
    host_speed = CALIBRATION_REFERENCE_S / statistics.median(batches)
    raw = timings(*map(unscaled, samples.values()), setup_s)
    ref = {kind: at_reference(kind, walls) for kind, walls in samples.items()}
    metrics = timings(*ref.values(), setup_s / (share["setup"] / host_speed
                                               + 1 - share["setup"]))
    walls = {kind + "_s": statistics.median(ref[kind])
             for kind in ("ingest", "train", "evaluate")}
    thrnn_rep = reports.get("thrnn", {})
    metrics.update({
        "rec_nll": rec_nll[0] if rec_nll else None,
        "mae_days": thrnn_rep.get("mae_days"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    quality = {"recall_at_5": thrnn_rep.get("recall@5"), "rec_nll": metrics["rec_nll"],
               "mae_days": metrics["mae_days"],
               "hawkes_short_mae_days": reports.get("hawkes_short", {}).get("mae_days"),
               "hawkes_long_mae_days": reports.get("hawkes_long", {}).get("mae_days")}
    result = {"workload": name, "seed": seed, "traced": traced,
              "attempted": ops.attempted, "failures": ops.failures,
              "metrics": metrics, "quality": quality,
              "walls": walls,
              "host": {"median_speed": host_speed, "calibration_batches": len(batches),
                       "unscaled_metrics": raw},
              "counts": counts, "rounds": rounds, "predict_calls": len(latencies),
              "sizes": inputs.SIZES[name], "provenance": provenance()}
    if tracer:
        sums = tracer.root_self_sums()
        for root, total in sums.items():
            dur = tracer.ends[root] - tracer.starts[root]
            ops.check(f"self times add up in {tracer.names[root]} #{root}",
                      abs(total - dur) <= 1e-9 * max(dur, 1.0))
        result["attempted"] = ops.attempted
        result["failures"] = ops.failures
        result["layers"] = spans.layer_metrics(tracer)
        result["computed"] = spans.COMPUTED
        tracer.write(os.path.join(out_dir, "spans.jsonl"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int, default=None,
                   help="minimum number of rounds (default: the workload's)")
    p.add_argument("--out", required=True)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)
    rounds = args.rounds or WORKLOADS[args.workload]["min_rounds"]
    result = run(args.workload, args.seed, args.seconds, rounds, args.out,
                 args.traced)
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
