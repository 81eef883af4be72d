"""Self-tests of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from run import child_env  # noqa: E402
from tracer import Tracer, charged_times  # noqa: E402


def test_self_time_when_children_overlap_on_two_threads():
    spans = [
        ["parent", 0.0, 10.0, None],
        ["a", 1.0, 5.0, 0],  # thread 1
        ["b", 3.0, 8.0, 0],  # thread 2
        ["a.child", 2.0, 4.0, 1],  # thread 1, inside a
    ]
    charged = charged_times(spans)
    # parent: duration 10 minus the union [1, 8] of its children
    assert charged[0] == pytest.approx(3.0)
    # a alone on [1, 2], sharing [4, 5] with b; a.child alone on [2, 3],
    # sharing [3, 4] with b; b alone on [5, 8]
    assert charged[1:] == pytest.approx([1.5, 4.0, 1.5])
    assert sum(charged) == pytest.approx(10.0)


def test_pool_children_are_carried_to_their_parent():
    tracer = Tracer("perfbench_test")
    both_inside = threading.Barrier(2, timeout=10)

    def per_sample(i):
        both_inside.wait()  # the two samples overlap in time
        return i

    def run_pool():
        fn = tracer.carry(per_sample, tracer.current(), "sample", "samples")
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, range(2)))

    _, result = tracer.call_in_span("pool", run_pool, (), {})
    assert result == [0, 1]
    assert tracer.counts["samples"] == 2
    parent, *children = tracer.spans
    assert all(child[3] == 0 for child in children)
    lo = min(child[1] for child in children)
    hi = max(child[2] for child in children)
    assert max(child[1] for child in children) < min(child[2] for child in children)
    expected = (parent[2] - parent[1]) - (hi - lo)
    assert charged_times(tracer.spans)[0] == pytest.approx(expected, abs=1e-9)


def _package_bindings(originals):
    """(owner, attribute) pairs in trimlab modules bound to an original."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("trimlab"):
            for attr, value in vars(module).items():
                for key, original in originals.items():
                    if value is original:
                        found.setdefault(key, set()).add((name, attr))
    return found


def _wrappers_left():
    left = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("trimlab"):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_span__"):
                left.append(f"{name}.{attr}")
            if isinstance(value, type):
                left += [
                    f"{name}.{attr}.{a}"
                    for a, v in vars(value).items()
                    if hasattr(v, "__perfbench_span__")
                ]
    return left


def test_every_binding_is_wrapped_then_restored(tmp_path):
    import trimlab.cli
    import trimlab.lattice

    originals = {
        (module, attr): getattr(sys.modules[module], attr)
        for module, attr, _ in layers.EXPLICIT_SPANS
    }
    before = _package_bindings(originals)
    green = before[("trimlab.spectral", "green")]
    assert {("trimlab." + m, "green") for m in ("fracmoment", "dynamics", "coupling", "cli")} <= green
    assert ("trimlab.operators", "laplacian_matrix") in before[
        ("trimlab.operators", "laplacian_matrix")
    ]
    contains = {
        cls: cls.__dict__["__contains__"]
        for cls in [trimlab.lattice.SublatticeMask, *trimlab.lattice.SublatticeMask.__subclasses__()]
        if "__contains__" in cls.__dict__
    }

    tracer = Tracer(layers.PACKAGE)
    try:
        assert layers.install(tracer) == []
        for key, bindings in before.items():
            for module, attr in bindings:
                wrapper = vars(sys.modules[module])[attr]
                assert wrapper.__wrapped__ is originals[key], (module, attr)
        assert _package_bindings(originals) == {}
        for cls in contains:
            assert hasattr(cls.__dict__["__contains__"], "__perfbench_span__")
        code = trimlab.cli.main(["verify", "--box", "1..3,1..3", "--out", str(tmp_path)])
        assert code == 0
        assert tracer.counts["lattice.membership"] > 0
        names = {span[0] for span in tracer.spans}
        assert {"cli.run", "spectral.green", "spectral.identity", "coupling.self"} <= names
    finally:
        tracer.uninstall()
    assert _package_bindings(originals) == before
    assert all(cls.__dict__["__contains__"] is fn for cls, fn in contains.items())
    assert _wrappers_left() == []


def _traced_counts(tmp_path, tag):
    report = tmp_path / f"{tag}.json"
    argv = [
        "localize", "--box", "1..4,1..4", "--gamma", "bernoulli:0.5:3",
        "--samples", "40", "--epsilon", "0.1,0.01", "--threads", "2",
        "--out", str(tmp_path / tag),
    ]
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "trace", str(report), "--", *argv],
        env=child_env(), check=True, timeout=120, stdout=subprocess.DEVNULL,
    )
    return json.loads(report.read_text())


def test_layer_counts_repeat_across_traced_runs(tmp_path):
    first = _traced_counts(tmp_path, "first")
    second = _traced_counts(tmp_path, "second")
    counts = [{name: run["layers"][name] for name in layers.COUNT_METRICS} for run in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["fracmoment.samples_attempted"] == 80
    assert counts[0]["lattice.membership_calls"] > 0
    for run in (first, second):
        metrics = run["layers"]
        # spans on the two pool threads are shared out, never double-counted
        assert metrics["trace.unattributed_s"] >= 0
        assert metrics["trace.unattributed_s"] < 0.1 * metrics["trace.run_s"]


def test_metric_names_match_benchmark_json():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    layer_names = {m["name"] for m in declared["per_layer"]}
    tracer = Tracer(layers.PACKAGE)
    produced = set(layers.metrics(tracer, {"import_s": 0.0, "config_s": 0.0, "run_s": 0.0}))
    assert layer_names == produced | {"trace.overhead_frac"}
    assert all(run.layer_unit(m["name"]) == m["unit"] for m in declared["per_layer"])
