"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every workload at the CLI's default seed and at the held-out seed
and stores the CSV files under perfbench/reference/.  The references in
the repository were recorded at the commit that introduced the
benchmark; re-record only when an output is meant to change, and say so
in the change that does it.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, child_env
from workloads import (
    DEFAULT_SEED,
    HELD_OUT_SEED,
    REFERENCE_DIR,
    WORKLOADS,
    cli_argv,
    experiment,
    reference_path,
)


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS:
            for seed in (None, HELD_OUT_SEED):
                out = Path(tmp) / workload
                subprocess.run(
                    [sys.executable, "-m", "trimlab.cli", *cli_argv(workload, seed, out)],
                    env=child_env(), check=True, stdout=subprocess.DEVNULL,
                )
                target = reference_path(workload, DEFAULT_SEED if seed is None else seed)
                shutil.copyfile(out / f"{experiment(workload)}.csv", target)
                print(target.relative_to(ROOT))


if __name__ == "__main__":
    main()
