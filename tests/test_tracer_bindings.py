"""The benchmark's tracer still finds every name it patches in the package.

perfbench/tracer.py wraps package functions and methods by name, and a
traced benchmark run raises when one of them is gone.  Installing and
uninstalling the tracer here makes a change that drops such a name fail
the test suite, not only ``perfbench/run.py --trace 1``.  It runs in a
subprocess so that the patches never reach this test process.
"""

import os
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))

SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import run
from tracer import Tracer

garnet = run.import_garnet()
modules = [m for name, m in sorted(sys.modules.items())
           if name == "garnet" or name.startswith("garnet.")]

def bindings():
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for m in modules:
        for k, v in vars(m).items():
            if isinstance(v, type) and v.__module__ == m.__name__:
                out.update(((m.__name__, k, a), w)
                           for a, w in vars(v).items())
    return out

before = bindings()
tracer = Tracer()
tracer.install(garnet)
assert bindings() != before, "the tracer patched nothing"
tracer.uninstall()
assert bindings() == before, "the tracer left a binding patched"
"""


def test_benchmark_tracer_installs_and_uninstalls():
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
