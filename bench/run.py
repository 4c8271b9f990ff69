"""thrnn benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs in a child
process of its own (bench/workload.py) with at most `nproc` BLAS
threads. With --trace 0 the last stdout line reports the end-to-end
metrics of one untraced run. With --trace 1 the workload runs twice,
untraced and then traced, each for TRACE_ROUNDS rounds, and the last
line reports the per-layer metrics of the traced run, the tracing
overhead (traced minus untraced) and whether both runs gave
bit-identical quality numbers. The line
before it is a provenance record: environment, sizes, seed and, traced,
the end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 175.0
# a traced run and its untraced baseline each make this many rounds and
# ignore --seconds, so that together they stay within the time limit
TRACE_ROUNDS = 1

# per-layer metric -> the end-to-end metrics and workloads it should move
LAYER_MOVES = {
    "cli.self_s": "all timings, all workloads (expected small)",
    "synthetic.generate_corpus_s": "ingest_sessions_per_s on markov-small",
    "data.read_log_s": "ingest_sessions_per_s on reddit-vocab",
    "data.read_log_rows": "ingest_sessions_per_s on reddit-vocab",
    "data.preprocess_s": "ingest_sessions_per_s on reddit-vocab",
    "data.save_split_s": "ingest_sessions_per_s, all workloads",
    "data.load_split_s": "train_examples_per_s, evaluate_users_per_s, all workloads",
    "data.split_bytes": "ingest_sessions_per_s, all workloads",
    "checkpoint.save_s": "train_examples_per_s on reddit-vocab",
    "checkpoint.load_s": "predict_p50_ms on reddit-vocab, small on the others",
    "checkpoint.bytes": "predict_p50_ms on reddit-vocab",
    "model.refresh_s": "train_examples_per_s on markov-small",
    "model.forward_s": "train_examples_per_s on markov-small",
    "model.epoch_eval_s": "train_examples_per_s on markov-small",
    "model.walk_s": "evaluate_users_per_s, predict_p50_ms on markov-small",
    "model.walk_gru_rows": "evaluate_users_per_s, predict_p50_ms on markov-small",
    "model.predict_s": "predict_p50_ms, all workloads",
    "model.batches": "train_examples_per_s, all workloads",
    "autodiff.tape_records_per_batch": "train_examples_per_s on markov-small",
    "autodiff.gru_cell_s": "train_examples_per_s on markov-small",
    "autodiff.gru_cell_calls": "train_examples_per_s on markov-small",
    "autodiff.backward_s": "train_examples_per_s on markov-small, reddit-vocab",
    "autodiff.bwd.matmul_s": "train_examples_per_s on markov-small, reddit-vocab",
    "autodiff.softmax_xent_s": "train_examples_per_s on reddit-vocab",
    "autodiff.bwd.softmax_xent_s": "train_examples_per_s on reddit-vocab",
    "autodiff.softmax_live_row_ratio": "train_examples_per_s on reddit-vocab",
    "autodiff.out_proj_flops": "train_examples_per_s on reddit-vocab (computed)",
    "autodiff.embedding_s": "train_examples_per_s on reddit-vocab",
    "autodiff.bwd.embedding_s": "train_examples_per_s on reddit-vocab",
    "autodiff.embedding_bwd_bytes_zeroed":
        "train_examples_per_s on reddit-vocab (computed)",
    "autodiff.embedding_rows_useful_ratio": "train_examples_per_s on reddit-vocab",
    "optim.step_s": "train_examples_per_s on reddit-vocab",
    "optim.steps": "train_examples_per_s on reddit-vocab",
    "optim.skipped_steps": "rec_nll, mae_days, all workloads",
    "optim.clipped_steps": "mae_days, all workloads",
    "optim.bytes_per_step": "train_examples_per_s on reddit-vocab (computed)",
    "point_process.time_nll_s": "train_examples_per_s, all workloads",
    "point_process.quadrature_s": "evaluate_users_per_s, predict_p50_ms, all workloads",
    "point_process.quadrature_nodes":
        "evaluate_users_per_s, predict_p50_ms, all workloads (computed)",
    "hawkes.fit_s": "evaluate_users_per_s on markov-small; none on reddit-vocab",
    "hawkes.fits": "evaluate_users_per_s on markov-small",
    "hawkes.nll_evals": "evaluate_users_per_s on markov-small",
    "hawkes.nll_event_steps": "evaluate_users_per_s on markov-small",
    "hawkes.predict_next_s": "evaluate_users_per_s on markov-small",
    "hawkes.excitation_events": "evaluate_users_per_s on markov-small",
    "evaluation.hawkes_short_s": "evaluate_users_per_s on markov-small",
    "evaluation.hawkes_long_s": "evaluate_users_per_s on markov-small",
    "evaluation.simple_baselines_s": "evaluate_users_per_s, all workloads",
    "evaluation.rank_calls": "evaluate_users_per_s, all workloads",
    "evaluation.recall_at_5": "quality guard: thrnn Recall@5, traced equals untraced",
}

# tracing overhead: traced minus untraced wall time of each command
OVERHEAD = {"trace.overhead_ingest_s": "ingest_s",
            "trace.overhead_train_s": "train_s",
            "trace.overhead_evaluate_s": "evaluate_s",
            "trace.overhead_predict_p50_ms": "predict_p50_ms"}


def _child(workload: str, seed: int, seconds: float, rounds: int | None,
           traced: bool, deadline: float) -> dict:
    out = os.path.join(OUT, workload, "traced" if traced else "untraced")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out] + (["--rounds", str(rounds)] if rounds else []) \
        + (["--traced"] if traced else [])
    with open(os.path.join(out, "child.log"), "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} run exceeded the time limit")
    if rc != 0:
        with open(os.path.join(out, "child.log"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"{workload} run exited with code {rc}")
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _report(values: dict, specs: list[dict]) -> dict:
    """Every metric BENCHMARK.json lists, with its unit from there."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description="thrnn benchmark")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "thrnn")):
        print(f"error: no thrnn sources under {ROOT}/src; run from a full "
              "source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            base = _child(args.workload, args.seed, 0.0, TRACE_ROUNDS, False,
                          deadline)
            traced = _child(args.workload, args.seed, 0.0, TRACE_ROUNDS, True,
                            deadline)
        else:
            base = _child(args.workload, args.seed, args.seconds, None, False,
                          deadline)
            traced = None
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    runs = [base] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    provenance = {"kind": "provenance", "workload": args.workload,
                  "why": next(w["why"] for w in spec["workloads"]
                              if w["name"] == args.workload),
                  "seed": args.seed, "seconds": args.seconds,
                  "sizes": base["sizes"], "counts": base["counts"],
                  "rounds": base["rounds"], "predict_calls": base["predict_calls"],
                  "quality": base["quality"], "host": base["host"],
                  **base["provenance"]}
    if traced:
        attempted += 1
        if traced["quality"] != base["quality"]:
            failures.append("traced quality differs from untraced")
        values = dict(traced["layers"])
        values["evaluation.recall_at_5"] = traced["quality"]["recall_at_5"]
        both = {**traced["walls"], **traced["metrics"]}
        plain = {**base["walls"], **base["metrics"]}
        for name, key in OVERHEAD.items():
            values[name] = both[key] - plain[key]
        metrics = _report(values, spec["per_layer"])
        provenance["layer_moves"] = LAYER_MOVES
        provenance["computed_not_measured"] = traced["computed"]
        provenance["traced_predict_calls"] = traced["predict_calls"]
    else:
        metrics = _report(base["metrics"], spec["end_to_end"])
    if failures:
        provenance["failures"] = failures
    print(json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
