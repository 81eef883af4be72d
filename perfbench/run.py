"""trimlab benchmark: time the `trimlab` CLI on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Every invocation runs in a fresh interpreter (child.py) and its output
is checked (workloads.py).  With --trace 0 a run reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced invocations
and reports the per-layer metrics.  `--workload all` runs every workload
in both modes and prints every metric.  The last line of the output is
one JSON object: correct, attempted, failed and metrics.  Details of
each run, with the environment, go to .perfbench/results/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import COUNT_METRICS
from workloads import WORKLOADS, check_output, cli_argv, experiment

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

SETUP_PROBES = 3  # extra set-up-only invocations per untraced run
RUN_LIMIT_S = 170  # every invocation of a run ends within this, or is killed
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TRIMLAB_THREADS")

END_TO_END = {
    "wall_s": "s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "lattice.membership_calls": "count",
    "spectral.green_gflop": "GFLOP",
    "fracmoment.samples_attempted": "count",
    "fracmoment.resampled": "count",
    "fracmoment.useful_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "count" if name.endswith("_calls") else "s"


def child_env() -> dict:
    """Environment of every trimlab process: the checkout's sources, and
    no TRIMLAB_THREADS, so that the CLI resolves its own default."""
    env = dict(os.environ)
    env.pop("TRIMLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def invoke(mode: str, workload: str, seed: int | None, deadline: float) -> dict:
    """One child process, killed at `deadline` (time.monotonic());
    returns its metrics and any problems found."""
    out = WORK / "out" / workload
    report_path = WORK / "report.json"
    shutil.rmtree(out, ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    report_path.unlink(missing_ok=True)
    argv = cli_argv(workload, seed, out)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), mode, str(report_path), "--", *argv],
            env=child_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(deadline - started, 0),
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "problems": [f"killed after {deadline - started:.0f} s"]}
    wall = time.monotonic() - started
    result = {"mode": mode, "problems": []}
    if proc.returncode != 0 or not report_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no report"]
        result["problems"].append(f"exit {proc.returncode}: {tail[0]}")
        return result
    report = json.loads(report_path.read_text())
    needed = ("dispatch",) if mode == "setup" else ("dispatch", "written")
    if any(mark not in report for mark in needed):
        result["problems"].append("the CLI never reached trimlab.cli.run/emit")
        return result
    result["setup_s"] = report["dispatch"] - started
    if mode == "setup":
        return result
    result.update(wall_s=wall, run_s=report["run_s"], peak_rss_mb=report["peak_rss_kb"] / 1024)
    result["problems"] += check_output(workload, seed, out)
    if result["problems"]:
        return result
    record = json.loads((out / f"{experiment(workload)}.json").read_text())
    result["cli_threads"] = record["config"]["threads"]
    if mode == "trace":
        result["layers"] = report["layers"]
        result["missing_targets"] = report["missing_targets"]
    return result


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def measure(workload: str, seed: int | None, seconds: float, trace: bool) -> list[dict]:
    """Invocations of one run, in order: untraced runs repeat set-up probes
    and full invocations; traced runs alternate untraced and traced ones."""
    deadline = time.monotonic() + RUN_LIMIT_S
    invoke("setup", workload, seed, deadline)  # warm-up: bytecode and file caches
    start = time.monotonic()
    done = [] if trace else [invoke("setup", workload, seed, deadline) for _ in range(SETUP_PROBES)]
    while True:
        began = time.monotonic()
        done += [invoke(mode, workload, seed, deadline) for mode in (["run", "trace"] if trace else ["run"])]
        now = time.monotonic()
        # start another round only if it should end inside the window
        if now + (now - began) > min(start + seconds, deadline):
            return done


def aggregate(done: list[dict], trace: bool) -> tuple[dict, dict, list[str]]:
    """Per-metric summaries, their units, and problems across invocations."""
    ok = [r for r in done if not r["problems"]]
    problems = [p for r in done for p in r["problems"]]
    stats, units = {}, {}
    if not trace:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in ok if name in r]
            if values:
                stats[name], units[name] = summary(values), unit
        return stats, units, problems
    traced = [r for r in ok if r["mode"] == "trace"]
    untraced = [r["run_s"] for r in ok if r["mode"] == "run"]
    if not traced or not untraced:
        return stats, units, problems + ["no successful traced and untraced pair"]
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        stats[name], units[name] = summary(values), layer_unit(name)
    for name in COUNT_METRICS:
        if len(set(stats[name]["values"])) > 1:
            problems.append(f"{name} differs between traced invocations")
    traced_run = statistics.median(r["run_s"] for r in traced)
    stats["trace.overhead_frac"] = summary([traced_run / statistics.median(untraced) - 1.0])
    units["trace.overhead_frac"] = layer_unit("trace.overhead_frac")
    missing = sorted({m for r in traced for m in r["missing_targets"]})
    if missing:
        print(f"# targets no longer in the program: {', '.join(missing)}")
    return stats, units, problems


def environment(done: list[dict]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 prints its configuration only
        blas = None
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cli_threads": sorted({r["cli_threads"] for r in done if "cli_threads" in r}),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_lapack": blas,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def run_workload(workload: str, seed: int | None, seconds: float, trace: bool) -> dict:
    done = measure(workload, seed, seconds, trace)
    stats, units, problems = aggregate(done, trace)
    failed = sum(1 for r in done if r["problems"])
    env = environment(done)
    print(json.dumps({"environment": env}))
    for name, s in stats.items():
        print(
            f"{workload:>18}  {name:<30} {s['median']:.6g} {units[name]}"
            f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        )
    print(f"{workload:>18}  {'failed_frac':<30} {failed / len(done):.6g}  ({failed} of {len(done)} invocations)")
    for problem in sorted(set(problems))[:20]:
        print(f"# problem: {problem}")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "environment": env, "metrics": stats, "units": units,
         "attempted": len(done), "failed": failed, "problems": problems},
        indent=2,
    ))
    print(f"# details: {path.relative_to(ROOT)}")
    return {
        "correct": not problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": s["median"], "unit": units[name]} for name, s in stats.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "trimlab" / "cli.py").is_file():
        print(f"perfbench: no trimlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        result = {
            f"{workload}/trace{trace}": run_workload(workload, args.seed, args.seconds, bool(trace))
            for workload in WORKLOADS
            for trace in (0, 1)
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
