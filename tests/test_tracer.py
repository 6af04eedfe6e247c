"""The benchmark's tracer (`perfbench/tracer.py`) wraps clawforge callables
by name, so a refactor that drops or renames one of them (say
`calculus.total_derivative`, `expr.collect` or `lawgen.formal_lagrangian`)
must fail here rather than in a traced benchmark run.  `install` runs in a
fresh process on this tree, which then runs one command through the
wrapped callables.  The tracer is read, never edited."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODE = """
import contextlib, io
import tracer
from clawforge import cli
store = tracer.SpanStore()
tracer.install(store)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["multipliers", "kdv", "--degree", "2"]) == 0
layers = store.summary()["layers"]
for name in ("cli.main", "lawgen.multiplier_determining_system",
             "expr.collect", "linsolve.nullspace"):
    assert layers[name]["calls"] > 0, name
"""


def test_tracer_installs_on_this_tree():
    path = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
