"""The import path loads numpy's LAPACK only.  scipy loads inside the
experiments that need it (quadrature in `couple`).  numpy.random (with
`secrets` and OpenSSL's `_hashlib` behind it) is loaded by no experiment
before dispatch and by none of `verify`, `localize`, `dynamics` or
`lattice-info`: every draw goes through trimlab's own Philox kernel.
Only `couple` loads it, inside its run, because scipy.integrate imports
it."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trimlab

PRELUDE = """
import json, sys
import numpy

# what trimlab may not add to a bare `import numpy`; numpy 1.x loads
# numpy.random itself
WATCHED = ("numpy.random", "secrets", "_hashlib")
BARE = {m for m in WATCHED if m in sys.modules}

def random_modules():
    return sorted(m for m in WATCHED if m in sys.modules and m not in BARE)

import trimlab.cli
"""

SCRIPT = PRELUDE + """
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": scipy_modules(), "numpy.random": random_modules()}
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

ENGINE_SCRIPT = PRELUDE + """
out = sys.argv[1]
report = {"import": random_modules()}
for experiment, args in (
    ("localize", ["--box", "1..4,1..4", "--gamma", "bernoulli:0.5:3",
                  "--samples", "4", "--epsilon", "0.1,0.01"]),
    ("dynamics", ["--box", "1..5,1..5", "--gamma", "gamma1:2,2",
                  "--samples", "2", "--epsilon", "0.1,0.01"]),
    ("lattice-info", ["--box", "0..40,0..40", "--gamma", "bernoulli:0.5:1"]),
    ("verify", ["--box", "1..4,1..4", "--gamma", "bernoulli:0.5:3"]),
):
    report[experiment + "_exit"] = trimlab.cli.main([experiment, *args, "--out", out])
    report[experiment] = random_modules()
report["trimlab"] = sorted(m for m in sys.modules if m.startswith("trimlab."))
print(json.dumps(report))
"""

DISPATCH_SCRIPT = """
import json, sys
import trimlab.cli as cli

class Dispatched(BaseException):
    pass

def at_dispatch(name, config, ens, rho):
    raise Dispatched("numpy.random" in sys.modules)

experiment, out = sys.argv[1:]
report = {}
try:
    cli.run = at_dispatch
    cli.main([experiment, "--box", "0..3", "--gamma", "full", "--g", "0.01",
              "--samples", "4", "--out", out])
except Dispatched as stop:
    report["at_dispatch"] = stop.args[0]
print(json.dumps(report))
"""


def _run(script: str, *args: str) -> dict:
    env = dict(os.environ)
    src = str(Path(trimlab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loads_only_inside_couple_and_anomalous(tmp_path):
    report = _run(SCRIPT, str(tmp_path))
    assert report["import"] == []
    assert report["numpy.random"] == []
    # anomalous runs first and loads no scipy module at all
    assert report["anomalous_exit"] == 0
    assert report["anomalous"] == []
    assert report["couple_exit"] == 0
    assert "scipy.integrate" in report["couple"]


def test_localize_and_dynamics_load_no_numpy_random(tmp_path):
    report = _run(ENGINE_SCRIPT, str(tmp_path))
    assert report["import"] == []
    assert report["localize_exit"] == 0 and report["localize"] == []
    assert report["dynamics_exit"] == 0 and report["dynamics"] == []
    # the Bernoulli densities read Gamma through the Philox kernel, not
    # one numpy generator per site
    assert report["lattice-info_exit"] == 0 and report["lattice-info"] == []
    # verify's test points are Philox draws too
    assert report["verify_exit"] == 0 and report["verify"] == []
    # a traced benchmark run wraps these modules as soon as it starts
    assert {"trimlab.coupling", "trimlab.dynamics"} <= set(report["trimlab"])


@pytest.mark.parametrize("experiment", ["verify", "couple"])
def test_numpy_random_is_not_loaded_before_dispatch(tmp_path, experiment):
    # their test points come from the Philox kernel, not default_rng
    report = _run(DISPATCH_SCRIPT, experiment, str(tmp_path))
    assert report["at_dispatch"] is False
