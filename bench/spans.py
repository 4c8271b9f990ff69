"""Span tracing of the thrnn layers from outside the program.

`install(tracer)` replaces the public entry points of each thrnn module
with wrappers that record spans, each under the name its caller looks
up at call time (the cli reaches `data.load_split` through the module,
the model reaches `gru_cell` through its own namespace, and so on), so
nothing in the program changes. A few hot callees are wrapped for
counts only, without a span. Spans and counts are recorded only while
a root span (one CLI command) is open, so the benchmark's own checks
leave no trace.

Spans live in memory with their parent ids and are written when the run
ends; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np

# computed, not measured: Adam reads p, g, m, v and writes p, m, v
ADAM_STREAMS_PER_PARAM = 7
FLOAT64_BYTES = 8


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.shapes: dict[str, int] = {}

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def parent_name(self) -> str | None:
        return self.names[self.stack[-1]] if self.stack else None

    # -- derived views ----------------------------------------------------

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def roots(self) -> list[int]:
        return [i for i, p in enumerate(self.parents) if p < 0]

    def root_self_sums(self) -> dict[int, float]:
        """Per root span, the sum of self times over it and everything
        under it; a parent always opens before its children."""
        root_of = list(range(len(self.names)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                root_of[i] = root_of[p]
        sums = np.zeros(len(self.names))
        np.add.at(sums, np.asarray(root_of, dtype=np.int64), self.self_times())
        return {r: float(sums[r]) for r in self.roots()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "parent": self.parents[i],
                                     "name": name, "start": self.starts[i],
                                     "end": self.ends[i]}) + "\n")


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, fn, name, after=None):
    """Wrap fn in a span. `name` is a string or a function of the call's
    (args, kwargs, parent span name); `after` sees (args, kwargs, result)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        label = name if isinstance(name, str) else name(args, kwargs,
                                                         tracer.parent_name())
        sid = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _counted(tracer: Tracer, fn, count):
    """Wrap fn for counts only: `count(args, kwargs, result, parent)`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        if tracer.stack:
            count(args, kwargs, out, tracer.parent_name())
        return out

    return wrapper


def _bwd_label(qualname: str) -> str:
    fn = qualname.split(".")[0]
    return "autodiff.bwd." + ("softmax_xent" if fn == "masked_softmax_xent" else fn)


def install(tracer: Tracer) -> None:
    """Patch the thrnn modules in place (only ever in a traced process)."""
    from thrnn import (autodiff, checkpoint, data, evaluation, hawkes, model,
                       optim, point_process, synthetic)

    c = tracer.counts

    def patch(module, attr, name, after=None):
        setattr(module, attr, _spanned(tracer, getattr(module, attr), name, after))

    def count(module, attr, fn):
        setattr(module, attr, _counted(tracer, getattr(module, attr), fn))

    # synthetic / data
    patch(synthetic, "generate_corpus", "synthetic.generate_corpus")

    def rows_read(a, k, out):
        c["data.read_log_rows"] += len(out[0])

    patch(data, "read_lastfm_tsv", "data.read_log", rows_read)
    patch(data, "read_reddit_csv", "data.read_log", rows_read)
    patch(data, "preprocess", "data.preprocess")

    def split_bytes(a, k, out):
        c["data.split_bytes"] += os.path.getsize(a[1])

    patch(data, "save_split", "data.save_split", split_bytes)
    patch(data, "load_split", "data.load_split")

    # checkpoint
    def ckpt_bytes(a, k, out):
        tracer.shapes["checkpoint.bytes"] = os.path.getsize(a[0])

    patch(checkpoint, "save_checkpoint", "checkpoint.save", ckpt_bytes)
    patch(checkpoint, "load_checkpoint", "checkpoint.load")

    # model
    patch(model, "train", "model.train")
    patch(model, "evaluate", lambda a, k, parent:
          "model.epoch_eval" if parent == "model.train" else "model.evaluate")
    patch(model, "predict", "model.predict")
    patch(model, "_refresh_histories", "model.refresh")
    patch(model, "_hierarchy_walk", "model.walk")

    def forward_batch(a, k, out):
        tracer.shapes["hidden_dim"] = a[1].out_w.value.shape[0]

    patch(model, "_forward_batch", "model.forward", forward_batch)

    def walk_rows(a, k, out, parent):
        if parent == "model.walk":
            c["model.walk_gru_rows"] += a[0].shape[0]

    count(model, "gru_cell_np", walk_rows)

    # autodiff, through the names the model looks up
    patch(model, "gru_cell", "autodiff.gru_cell")

    def embedding_rows(a, k, out):
        table, idx = a[1], np.asarray(a[2])
        c["autodiff.embedding_bwd_bytes_zeroed"] += table.value.nbytes
        c["autodiff.embedding_rows_zeroed"] += table.value.shape[0]
        c["autodiff.embedding_rows_touched"] += len(np.unique(idx))

    patch(model, "embedding", "autodiff.embedding", embedding_rows)

    def softmax_rows(a, k, out):
        rows, vocab = a[1].value.shape
        masked = k.get("masked")
        c["autodiff.softmax_rows"] += rows
        c["autodiff.softmax_live_rows"] += (rows if masked is None
                                            else int((~np.asarray(masked)).sum()))
        tracer.shapes["vocab"] = vocab

    patch(model, "masked_softmax_xent", "autodiff.softmax_xent", softmax_rows)

    tape_cls = autodiff.Tape
    orig_record = tape_cls.record

    def record(self, inputs, out, backward):
        if not tracer.stack:
            return orig_record(self, inputs, out, backward)
        c["autodiff.tape_records"] += 1
        label = _bwd_label(backward.__qualname__)

        def timed(g):
            sid = tracer.open(label)
            try:
                return backward(g)
            finally:
                tracer.close(sid)

        return orig_record(self, inputs, out, timed)

    tape_cls.record = record
    patch(tape_cls, "backward", "autodiff.backward")

    # optim
    def step_report(a, k, report):
        adam = a[0]
        c["optim.skipped_steps"] += not report.applied
        c["optim.clipped_steps"] += any(
            g.clip_norm is not None and report.grad_norms.get(g.name, 0.0) > g.clip_norm
            for g in adam.groups)
        tracer.shapes["optim.bytes_per_step"] = (
            ADAM_STREAMS_PER_PARAM * FLOAT64_BYTES
            * sum(p.value.size for g in adam.groups for p in g.params))

    patch(optim.Adam, "step", "optim.step", step_report)

    # point process, through the `pp.` module attribute the model uses
    patch(point_process, "time_nll", "point_process.time_nll")

    def quad_nodes(a, k, out):
        q = a[2] if len(a) > 2 else k["q"]
        c["point_process.quadrature_nodes"] += np.atleast_1d(a[0]).size * q.num_points

    patch(point_process, "expected_return_time_from_s", "point_process.quadrature",
          quad_nodes)

    # hawkes, through the names evaluation and fit look up
    patch(evaluation, "fit", "hawkes.fit")
    patch(evaluation, "hawkes_predict_next", "hawkes.predict_next")

    def nll_steps(a, k, out, parent):
        c["hawkes.nll_evals"] += 1
        c["hawkes.nll_event_steps"] += len(a[0])

    count(hawkes, "_nll_and_grads", nll_steps)

    def excitation(a, k, out, parent):
        c["hawkes.excitation_events"] += len(a[0])

    count(hawkes, "excitation_state", excitation)

    # evaluation
    patch(evaluation, "hawkes_report", lambda a, k, parent:
          "evaluation.hawkes_short" if a[1].window == "last_k"
          else "evaluation.hawkes_long")
    patch(evaluation, "mean_gap_report", "evaluation.simple_baselines")
    patch(evaluation, "popularity_report", "evaluation.simple_baselines")
    patch(evaluation, "save_report", "evaluation.save")
    patch(evaluation, "save_plot_data", "evaluation.save")

    def ranks(a, k, out, parent):
        c["evaluation.rank_calls"] += 1

    count(model, "rank_of_target", ranks)
    count(evaluation, "rank_of_target", ranks)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "synthetic.generate_corpus_s": ("synthetic.generate_corpus", "total"),
    "data.read_log_s": ("data.read_log", "total"),
    "data.preprocess_s": ("data.preprocess", "total"),
    "data.save_split_s": ("data.save_split", "total"),
    "data.load_split_s": ("data.load_split", "total"),
    "checkpoint.save_s": ("checkpoint.save", "total"),
    "checkpoint.load_s": ("checkpoint.load", "total"),
    "model.refresh_s": ("model.refresh", "total"),
    "model.forward_s": ("model.forward", "self"),
    "model.epoch_eval_s": ("model.epoch_eval", "total"),
    "model.walk_s": ("model.walk", "total"),
    "model.predict_s": ("model.predict", "total"),
    "autodiff.gru_cell_s": ("autodiff.gru_cell", "total"),
    "autodiff.backward_s": ("autodiff.backward", "total"),
    "autodiff.bwd.matmul_s": ("autodiff.bwd.matmul", "total"),
    "autodiff.softmax_xent_s": ("autodiff.softmax_xent", "total"),
    "autodiff.bwd.softmax_xent_s": ("autodiff.bwd.softmax_xent", "total"),
    "autodiff.embedding_s": ("autodiff.embedding", "total"),
    "autodiff.bwd.embedding_s": ("autodiff.bwd.embedding", "total"),
    "optim.step_s": ("optim.step", "total"),
    "point_process.time_nll_s": ("point_process.time_nll", "total"),
    "point_process.quadrature_s": ("point_process.quadrature", "total"),
    "hawkes.fit_s": ("hawkes.fit", "total"),
    "hawkes.predict_next_s": ("hawkes.predict_next", "total"),
    "evaluation.hawkes_short_s": ("evaluation.hawkes_short", "total"),
    "evaluation.hawkes_long_s": ("evaluation.hawkes_long", "total"),
    "evaluation.simple_baselines_s": ("evaluation.simple_baselines", "total"),
}

# values derived from array sizes rather than measured
COMPUTED = ("autodiff.out_proj_flops", "autodiff.embedding_bwd_bytes_zeroed",
            "optim.bytes_per_step", "point_process.quadrature_nodes")

COUNT_METRICS = (
    "data.read_log_rows", "data.split_bytes", "model.walk_gru_rows",
    "optim.skipped_steps", "optim.clipped_steps", "point_process.quadrature_nodes",
    "hawkes.nll_evals", "hawkes.nll_event_steps", "hawkes.excitation_events",
    "evaluation.rank_calls",
)

# metric -> the span whose calls it counts
CALL_METRICS = {"model.batches": "model.forward",
                "autodiff.gru_cell_calls": "autodiff.gru_cell",
                "optim.steps": "optim.step", "hawkes.fits": "hawkes.fit"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value over the traced run, keyed by metric name.
    Times are span totals unless SPAN_METRICS says self; the COMPUTED
    values come from array sizes, not timers."""
    names = np.asarray(tracer.names)
    dur = tracer.durations()
    self_t = tracer.self_times()
    out: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        sel = names == span
        out[metric] = float((self_t if kind == "self" else dur)[sel].sum())
    out["cli.self_s"] = float(self_t[tracer.roots()].sum())
    for metric, span in CALL_METRICS.items():
        out[metric] = float((names == span).sum())
    c, s = tracer.counts, tracer.shapes
    for metric in COUNT_METRICS:
        out[metric] = float(c[metric])
    out["checkpoint.bytes"] = float(s.get("checkpoint.bytes", 0))
    batches = out["model.batches"]
    out["autodiff.tape_records_per_batch"] = (
        c["autodiff.tape_records"] / batches if batches else 0.0)
    out["autodiff.softmax_live_row_ratio"] = (
        c["autodiff.softmax_live_rows"] / c["autodiff.softmax_rows"]
        if c["autodiff.softmax_rows"] else 0.0)
    out["autodiff.out_proj_flops"] = float(
        2 * c["autodiff.softmax_rows"] * s.get("hidden_dim", 0) * s.get("vocab", 0))
    out["autodiff.embedding_bwd_bytes_zeroed"] = float(
        c["autodiff.embedding_bwd_bytes_zeroed"])
    out["autodiff.embedding_rows_useful_ratio"] = (
        c["autodiff.embedding_rows_touched"] / c["autodiff.embedding_rows_zeroed"]
        if c["autodiff.embedding_rows_zeroed"] else 0.0)
    out["optim.bytes_per_step"] = float(s.get("optim.bytes_per_step", 0))
    return out
