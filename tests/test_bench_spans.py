"""The benchmark's span tracer patches thrnn functions by name.

A renamed or deleted entry point makes `bench/spans.py`'s `install`
raise AttributeError. It runs in a fresh interpreter because it patches
the thrnn modules in place.
"""

import os
import subprocess
import sys

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
           "import spans; spans.install(spans.Tracer())")


def test_span_tracer_installs():
    code = INSTALL.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr


PREDICT = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import spans; "
           "from thrnn import cli; tracer = spans.Tracer(); spans.install(tracer); "
           "root = tracer.open('cli.predict'); "
           "rc = cli.main(['predict', '--checkpoint', {ckpt!r}, '--history', {hist!r}]); "
           "tracer.close(root); print(rc, tracer.names.count('checkpoint.load'))")


def test_predict_opens_one_checkpoint_load_span(tmp_path):
    # the tracer patches load_checkpoint by name: a loader it misses would
    # leave checkpoint.load_s reading 0 without failing the traced run
    from thrnn.checkpoint import save_checkpoint
    from thrnn.model import ModelConfig, ModelParams
    cfg = ModelConfig(num_items=6, num_users=2, item_embedding_dim=3, user_embedding_dim=2,
                      gap_embedding_dim=2, hidden_dim=4, num_gap_buckets=3)
    ckpt, hist = str(tmp_path / "m.ckpt"), str(tmp_path / "h.json")
    save_checkpoint(ckpt, ModelParams.init(cfg, seed=0), cfg)
    with open(hist, "w", encoding="utf-8") as fh:
        fh.write('{"user_index": 1, "sessions": [{"items": [0, 2], "start": 0.0, "end": 60.0}]}')
    code = PREDICT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"),
                          ckpt=ckpt, hist=hist)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1", proc.stdout + proc.stderr


HAWKES = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import spans; "
          "from thrnn import data, evaluation, hawkes; "
          "from thrnn.point_process import QuadratureConfig; "
          "tracer = spans.Tracer(); spans.install(tracer); "
          "root = tracer.open('cli.evaluate'); "
          "evaluation.hawkes_report(data.load_split({split!r}), hawkes.FitConfig(), "
          "QuadratureConfig(cutoff=30.0)); tracer.close(root); "
          "print(tracer.counts['hawkes.nll_evals'], tracer.counts['hawkes.nll_event_steps'])")


def test_hawkes_fit_counts_its_likelihood_calls(tmp_path):
    # the tracer counts hawkes._nll_and_grads by name: a fit that stops
    # calling it would leave hawkes.nll_evals reading 0 without failing
    import numpy as np
    from thrnn.data import save_split
    from thrnn.synthetic import SynthSpec, generate_corpus
    m = np.full((6, 6), 0.2)
    np.fill_diagonal(m, 0.0)
    spec = SynthSpec(num_users=5, sessions_per_user=8, item_transition=m,
                     gap_mixture=[(1.0, 1.0)], session_length=(2, 4))
    split = str(tmp_path / "c.split")
    save_split(generate_corpus(spec, seed=0), split)
    code = HAWKES.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"),
                         split=split)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    evals, rows = map(int, proc.stdout.split())
    assert evals > 0 and rows >= evals, proc.stdout


WALK = """import sys
sys.path[:0] = [{src!r}, {bench!r}, {tests!r}]
import spans
from thrnn import model
from thrnn.data import Session
from oracles import session_table
tracer = spans.Tracer()
spans.install(tracer)
cfg = model.ModelConfig(num_items=7, num_users=4, item_embedding_dim=3, user_embedding_dim=2,
                        gap_embedding_dim=2, hidden_dim=4, num_gap_buckets=3,
                        max_session_reps={reps}, batch_size=3)
lists = [[Session(items=[(u + i) % 7 for i in range(n)], start_time=100.0 * j,
                  end_time=100.0 * j + 10.0, gap_before=90.0 if j else 0.0)
          for j, n in enumerate(lengths)] for u, lengths in enumerate({lengths!r})]
root = tracer.open("cli.predict")
model._hierarchy_walk(model.ModelParams.init(cfg, 0), cfg, session_table(lists, range(4)))
tracer.close(root)
print(tracer.counts["model.walk_gru_rows"])
"""


def test_tracer_counts_the_walks_gru_rows(tmp_path):
    # the tracer counts the rows of every gru_cell_np call the walk makes by
    # name: a walk that stepped some other way would leave the count short
    reps, lengths = 3, [[2, 1, 4], [5], [1, 3, 2, 2, 6, 1, 2], []]
    script = tmp_path / "walk.py"
    script.write_text(WALK.format(src=os.path.join(ROOT, "src"),
                                  bench=os.path.join(ROOT, "bench"),
                                  tests=os.path.join(ROOT, "tests"), reps=reps,
                                  lengths=lengths), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    # every item steps the intra level once; of a user's windows 1 .. n,
    # the first min(reps, n) share one unroll and each later one runs reps
    want = sum(sum(ls) + oracles.walk_inter_rows(len(ls), reps, True) for ls in lengths)
    assert int(proc.stdout.split()[-1]) == want, proc.stdout
