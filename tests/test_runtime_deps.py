"""The library runs on numpy alone: importing it loads no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import quickroutes.cluster, quickroutes.config, quickroutes.features
import quickroutes.ingest, quickroutes.preprocess, quickroutes.simulate
assert quickroutes.cluster.count_misassigned("AAB", [1, 1, 0]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_and_matching_load_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
