"""The library runs on numpy alone: importing it, matching labels, fitting
a Gaussian mixture and scoring silhouettes load no scipy module."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import numpy as np
import quickroutes.cluster, quickroutes.config, quickroutes.features
import quickroutes.ingest, quickroutes.preprocess, quickroutes.simulate
from quickroutes.cluster import count_misassigned, gmm_em, silhouette
assert count_misassigned("AAB", [1, 1, 0]) == 0
X = np.random.default_rng(0).standard_normal((12, 2)) + np.repeat([[0, 0], [5, 5]], 6, axis=0)
assert gmm_em(X, 2).converged
assert silhouette(X, [0] * 6 + [1] * 6).mean > 0.5
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_import_and_matching_load_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
