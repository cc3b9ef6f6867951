"""The library loads without ``scipy.stats``: importing it costs every
``sepfeti`` process about 36 MiB of resident memory and most of a second."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import sepfeti


def test_library_does_not_import_scipy_stats():
    src = str(Path(sepfeti.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import sepfeti.cli, sepfeti.arr, sepfeti.stats, sepfeti.reference, "
        "sepfeti.problems, sepfeti.feti\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('sepfeti.'))\n"
        "print(' '.join(loaded))\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "sepfeti.stats" in done.stdout.split()
