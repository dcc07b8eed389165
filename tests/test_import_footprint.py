"""Start-up footprint: the runtime imports no third-party packages.

numpy alone costs a process about 140 ms of import and 12.5 MB of RSS,
and every CLI run and sweep worker would pay it.  The import runs in a
fresh interpreter, because this test process may already hold numpy.
A meta-path hook records every attempt to import numpy, so the guard
also catches a guarded ``try: import numpy`` where numpy is absent.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PROBE = """
import sys

attempts = []


class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            attempts.append(name)
        return None


sys.meta_path.insert(0, Recorder())

import repro
import repro.campaign
import repro.harness.elastic
import repro.harness.figures

assert "numpy" not in sys.modules, "numpy was imported"
assert not attempts, "numpy import attempted: %r" % attempts
print("ok")
"""


def test_runtime_imports_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
