"""Config fuzz of the CLI: every experiment, on tiny boxes, at edge values
of g, s, eta, energy and epsilon, ends in exit 0 (ok), 2 (config error)
or 3 (numeric failure), and no CSV of an exit-0 run holds a nan.  An
uncaught exception, exit 1, is a bug.  A config file value of the wrong
kind for its field (a JSON boolean for a number, a string for a number,
a number for a string or a list, a fractional integer) or a thread count
below 1 ends in exit 2, whatever the experiment.

`couple` is fuzzed up to dispatch only: its 200-quadrature search for
the decoupling constant takes about 0.5 s per run, too long for a fuzz
in the fast suite, so its runner is replaced by one that stops the run
once the config has passed every check made before dispatch.
"""

from __future__ import annotations

import csv
import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import trimlab.cli as cli
from trimlab.cli import EXPERIMENTS

EDGES = (
    0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 1.5, 4.0, 8.0, -1.0,
    1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
)  # fmt: skip
EPSILON_EDGES = (5e-324, 1e-300, 1e-12, 0.1, 1.0, 1e300, 0.0, -0.1, math.inf, math.nan)
# masks that fit a box of each dimension: a mismatch is a config error
# that test_cli covers, and would only dilute the fuzz
GAMMAS = ("full", "bernoulli:0.5:1", "bernoulli:0:2", "bernoulli:1:2")
GAMMAS_BY_DIM = {
    1: GAMMAS + ("cell:2:10",),
    2: GAMMAS + ("gamma1:2,2", "gamma2:3", "cell:2x2:1001"),
    3: GAMMAS + ("cell:2x1x2:1001",),
}
# (field, config file value): each of the wrong kind for its field, or,
# for threads, below 1; 1e400 reads back as an infinite float, and 10**400
# is an int past the float range
WRONG_TYPE_EDGES = (
    ("g", True), ("s", False), ("samples", True), ("seed", False),
    ("threads", True), ("v0", True), ("epsilon", True),
    ("epsilon", [True, 0.5]), ("times", [1.0, True]),
    ("box", 5), ("box", None), ("gamma", 5), ("disorder", None), ("out", 5),
    ("samples", 1e400), ("samples", 2.7), ("g", "5"), ("seed", "7"),
    ("v0", "1"), ("threads", 0), ("threads", -3), ("epsilon", 0.1),
    ("times", [1.0, "2"]), ("eta", "0.1"), ("energy", "4"), ("p", "2"),
    ("p", 10**400),
)  # fmt: skip


class Dispatched(BaseException):
    """Raised in place of `couple`'s run: the config passed validation."""


def _dispatched(config, ens, rho):
    raise Dispatched


@st.composite
def _case(draw):
    """(argv, config file contents): the file holds at most one wrong-type
    edge, whose field then gets no flag (a flag would override it)."""
    edge = draw(st.none() | st.none() | st.sampled_from(WRONG_TYPE_EDGES))
    config = dict([edge]) if edge else {}
    experiment = draw(st.sampled_from(EXPERIMENTS))
    sides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    lo = draw(st.lists(st.integers(-2, 2), min_size=len(sides), max_size=len(sides)))
    box = ",".join(f"{a}..{a + n - 1}" for a, n in zip(lo, sides))
    gamma = draw(st.sampled_from(GAMMAS_BY_DIM[len(sides)]))
    # "--box=": after a bare --box, a box starting at a negative coordinate
    # reads as a flag
    flags = (("box", box), ("gamma", gamma))
    argv = [experiment, *(f"--{k}={v}" for k, v in flags if k not in config)]
    samples = draw(st.integers(1, 4))
    if "samples" not in config:
        argv.append(f"--samples={samples}")
    # most fields keep their default, so each edge also meets valid values
    for field in ("g", "s", "eta", "energy"):
        value = draw(st.none() | st.none() | st.sampled_from(EDGES))
        if value is not None and field not in config:
            argv.append(f"--{field}={value!r}")
    eps = draw(
        st.none()
        | st.lists(st.sampled_from(EPSILON_EDGES), min_size=1, max_size=3, unique=True)
    )
    if eps is not None and "epsilon" not in config:
        argv.append("--epsilon=" + ",".join(repr(e) for e in eps))
    return argv, config


@settings(
    max_examples=120,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_case())
def test_edge_configs_exit_0_2_or_3(tmp_path_factory, case):
    argv, config = case
    base = tmp_path_factory.getbasetemp()
    if config:
        path = base / "fuzz-config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, f"--config={path}"]
    if "out" not in config:
        argv = [*argv, "--out", str(base / "fuzz")]
    with mock.patch.dict(cli._RUNNERS, couple=_dispatched):
        try:
            code = cli.main(argv)
        except Dispatched:
            assert not config
            return
    assert code == 2 if config else code in (0, 2, 3)
    if code == 0:  # a row with no number in it is an error, not a result
        with open(base / "fuzz" / f"{argv[0]}.csv", newline="") as fh:
            assert "nan" not in {cell for row in csv.reader(fh) for cell in row}


def test_wrong_type_edges_cover_every_field():
    assert {field for field, _ in WRONG_TYPE_EDGES} == set(cli._FIELDS)


@pytest.mark.parametrize(
    "field, value",
    WRONG_TYPE_EDGES,
    ids=[f"{field}={value!r:.12}" for field, value in WRONG_TYPE_EDGES],
)
def test_wrong_type_edge_exits_2_before_dispatch(tmp_path, capsys, field, value):
    # the fuzz draws each edge by chance; here each runs once
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    argv = ["lattice-info", f"--config={path}"]
    with mock.patch.object(cli, "run", _dispatched):
        assert cli.main(argv) == 2
    assert f"config error: field '{field}'" in capsys.readouterr().err
