"""One trimlab CLI invocation in a fresh interpreter, timed from inside.

    python3 perfbench/child.py MODE REPORT -- <trimlab arguments>

MODE is one of
  run    call trimlab.cli.main(arguments), as the `trimlab` script does;
  setup  stop when main dispatches to trimlab.cli.run, i.e. once the
         package is imported and the config is validated;
  trace  as run, with the layer tracer of layers.py installed.

The child writes REPORT, a JSON object of time.monotonic() marks (one
system-wide clock, so the parent can compare them with its own), the
peak resident memory and, when traced, the per-layer metrics.  It exits
with main's return code.
"""

import json
import resource
import sys
import time


class _SetupDone(BaseException):
    """Raised at dispatch in setup mode; main's `except Exception` lets it pass."""


def main() -> int:
    mode, report_path, separator, *argv = sys.argv[1:]
    if mode not in ("run", "setup", "trace") or separator != "--":
        raise SystemExit(__doc__)
    started = time.monotonic()
    import trimlab.cli as cli

    marks = {"import_s": time.monotonic() - started}
    tracer = None
    if mode == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer(layers.PACKAGE)
        marks["missing_targets"] = layers.install(tracer)
    run, emit = cli.run, cli.emit

    def timed_run(*args, **kwargs):
        marks["dispatch"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return run(*args, **kwargs)

    def timed_emit(*args, **kwargs):
        try:
            return emit(*args, **kwargs)
        finally:
            marks["written"] = time.monotonic()

    cli.run, cli.emit = timed_run, timed_emit
    main_start = time.monotonic()
    try:
        code = cli.main(argv)
    except _SetupDone:
        code = 0
    finally:
        cli.run, cli.emit = run, emit
        if tracer is not None:
            tracer.uninstall()
    marks["code"] = code
    marks["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if "dispatch" in marks:
        marks["config_s"] = marks["dispatch"] - main_start
    if "written" in marks:
        marks["run_s"] = marks["written"] - marks["dispatch"]
        if tracer is not None:
            marks["layers"] = layers.metrics(tracer, marks)
    with open(report_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
