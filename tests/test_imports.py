"""The import path loads numpy's LAPACK only; scipy loads inside the one
experiment that needs it (quadrature in `couple`)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import trimlab

SCRIPT = """
import json, sys
import trimlab.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "numpy.random": "numpy.random" in sys.modules}
out = sys.argv[1]
report["anomalous_exit"] = trimlab.cli.main(
    ["anomalous", "--box", "0..4,0..4", "--gamma", "gamma2:3", "--energy", "4.0",
     "--out", out]
)
report["anomalous"] = scipy_modules()
report["couple_exit"] = trimlab.cli.main(
    ["couple", "--box", "0..3", "--gamma", "full", "--g", "0.01", "--energy=-1",
     "--epsilon", "0.0001", "--s", "0.5", "--samples", "4", "--out", out]
)
report["couple"] = scipy_modules()
print(json.dumps(report))
"""


def test_scipy_loads_only_inside_couple_and_anomalous(tmp_path):
    env = dict(os.environ)
    src = str(Path(trimlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["import"] == []
    assert report["numpy.random"]
    # anomalous runs first and loads no scipy module at all
    assert report["anomalous_exit"] == 0
    assert report["anomalous"] == []
    assert report["couple_exit"] == 0
    assert "scipy.integrate" in report["couple"]
