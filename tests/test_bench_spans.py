"""The benchmark's span tracer patches thrnn functions by name.

A renamed or deleted entry point makes `bench/spans.py`'s `install`
raise AttributeError. It runs in a fresh interpreter because it patches
the thrnn modules in place.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

INSTALL = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
           "import spans; spans.install(spans.Tracer())")


def test_span_tracer_installs():
    code = INSTALL.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "bench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
