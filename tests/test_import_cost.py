"""``import sniplab`` loads neither ``multiprocessing`` nor ``scipy``.

Every run pays the package's import time before its first search, and
the benchmark reports it as ``setup_s``.  With ``python -X importtime``
(Python 3.11, 2 cores) the package, numpy included, took about 190 ms
and ``multiprocessing.shared_memory`` alone 27-33 ms.  So a process pool
or shared memory is imported inside the function that uses it, and scipy
is for tests and the bench only.  A fresh interpreter is needed: this
test session has imported both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sniplab

HEAVY = ("multiprocessing", "scipy")


def test_import_loads_no_heavy_module():
    child = (
        "import json, sys\n"
        "import sniplab\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = str(Path(sniplab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "sniplab" in loaded
    assert [name for name in loaded if name.split(".")[0] in HEAVY] == []
