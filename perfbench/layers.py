"""The trimlab layers a traced run measures, and the per-layer metrics
derived from its spans.  Layers are the package modules.

Each traced function gets a span whose charged time (see tracer.py)
goes to one metric, so the time metrics below plus
`trace.unattributed_s` add up to the traced `run_s`.
"""

from __future__ import annotations

import inspect
import sys

from tracer import Tracer

PACKAGE = "trimlab"

# (module, function, span).  Functions called once per sample or per
# matrix get their own span, as the layer metrics name them.
EXPLICIT_SPANS = [
    ("trimlab.disorder", "sample_potential", "disorder.draw"),
    ("trimlab.operators", "assemble", "operators.assemble"),
    ("trimlab.operators", "laplacian_matrix", "operators.laplacian"),
    ("trimlab.spectral", "green", "spectral.green"),
    ("trimlab.spectral", "eigendecompose", "spectral.eigh"),
    ("trimlab.spectral", "resolvent_identity_residual", "spectral.identity"),
    ("trimlab.spectral", "schur_green", "spectral.identity"),
    ("trimlab.fracmoment", "mc_map", "fracmoment.mc_map"),
    ("trimlab.cli", "run", "cli.run"),
    ("trimlab.cli", "emit", "cli.emit"),
]

# Every other public function these modules define, and every per-sample
# callable they hand to mc_map, is charged to the module's span.  The
# per-sample callables of other modules (the CLI's) go to "cli.run".
MODULE_SPANS = {
    "trimlab.fracmoment": "fracmoment.reduce",
    "trimlab.dynamics": "dynamics.self",
    "trimlab.coupling": "coupling.self",
}

# Span -> metric of its charged seconds.  "cli.run" is the root span of the
# dispatch; what it keeps for itself is reported as trace.unattributed_s.
TIME_METRICS = {
    "disorder.draw": "disorder.draw_s",
    "operators.assemble": "operators.assemble_s",
    "operators.laplacian": "operators.laplacian_s",
    "spectral.green": "spectral.green_s",
    "spectral.eigh": "spectral.eigh_s",
    "spectral.identity": "spectral.identity_s",
    "fracmoment.mc_map": "fracmoment.mc_map_self_s",
    "fracmoment.weight_matrix": "fracmoment.weight_matrix_s",
    "fracmoment.reduce": "fracmoment.reduce_s",
    "dynamics.self": "dynamics.self_s",
    "coupling.self": "coupling.self_s",
    "cli.emit": "cli.emit_s",
}
CALL_METRICS = {
    "disorder.draw": "disorder.draw_calls",
    "operators.assemble": "operators.assemble_calls",
    "operators.laplacian": "operators.laplacian_calls",
    "spectral.green": "spectral.green_calls",
    "spectral.eigh": "spectral.eigh_calls",
}
# Metrics that count work; they must repeat exactly for one input.
COUNT_METRICS = (
    "lattice.membership_calls",
    *CALL_METRICS.values(),
    "spectral.green_gflop",
    "fracmoment.samples_attempted",
    "fracmoment.resampled",
)


def _green_flops(tracer: Tracer, args, kwargs):
    # Computed, not measured: complex LU (8/3 n^3 real flops) plus the
    # two triangular solves against n right-hand sides (8 n^3).
    h = args[0] if args else kwargs["h"]
    n = len(getattr(h, "matrix", h))
    tracer.count("spectral.green_n3", n**3)
    return args, kwargs


def _carry_samples(tracer: Tracer, args, kwargs):
    per_sample = args[0]
    span = MODULE_SPANS.get(getattr(per_sample, "__module__", None), "cli.run")
    carried = tracer.carry(
        per_sample, tracer.current(), span, "fracmoment.samples_attempted"
    )
    return (carried, *args[1:]), kwargs


def _count_resampled(tracer: Tracer, result):
    _, n_resampled = result
    tracer.count("fracmoment.resampled", n_resampled)


def install(tracer: Tracer) -> list[str]:
    """Install every wrapper; returns the targets that no longer exist."""
    hooks = {
        "spectral.green": {"on_call": _green_flops},
        "fracmoment.mc_map": {"on_call": _carry_samples, "on_result": _count_resampled},
    }
    missing = []
    for module, attr, span in EXPLICIT_SPANS:
        if callable(getattr(sys.modules.get(module), attr, None)):
            tracer.wrap_function(module, attr, span, **hooks.get(span, {}))
        else:
            missing.append(f"{module}.{attr}")
    for module, span in MODULE_SPANS.items():
        for attr, fn in sorted(vars(sys.modules[module]).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module
                and not attr.startswith("_")
                and not hasattr(fn, "__perfbench_span__")
            ):
                tracer.wrap_function(module, attr, span)

    decay_metric = getattr(sys.modules["trimlab.fracmoment"], "DecayMetric", None)
    if hasattr(decay_metric, "weight_matrix"):
        tracer.wrap_method(decay_metric, "weight_matrix", "fracmoment.weight_matrix")
    else:
        missing.append("trimlab.fracmoment.DecayMetric.weight_matrix")
    mask = getattr(sys.modules["trimlab.lattice"], "SublatticeMask", None)
    if mask is not None:
        tracer.count_method(mask, "__contains__", "lattice.membership")
    else:
        missing.append("trimlab.lattice.SublatticeMask.__contains__")
    return missing


def metrics(tracer: Tracer, marks: dict) -> dict:
    """Per-layer metrics of one traced invocation, as name -> value.

    marks holds the invocation's import_s, config_s and run_s."""
    seconds, calls = tracer.totals()
    unknown = set(seconds) - set(TIME_METRICS) - {"cli.run"}
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    counts = tracer.counts
    attempted = counts["fracmoment.samples_attempted"]
    resampled = counts["fracmoment.resampled"]
    out = {"lattice.membership_calls": counts["lattice.membership"]}
    for span, name in TIME_METRICS.items():
        out[name] = seconds.get(span, 0.0)
    for span, name in CALL_METRICS.items():
        out[name] = calls[span]
    out["spectral.green_gflop"] = 32 * counts["spectral.green_n3"] / 3e9
    out["fracmoment.samples_attempted"] = attempted
    out["fracmoment.resampled"] = resampled
    out["fracmoment.useful_ratio"] = (
        (attempted - resampled) / attempted if attempted else 1.0
    )
    out["cli.import_s"] = marks["import_s"]
    out["cli.config_s"] = marks["config_s"]
    out["trace.run_s"] = marks["run_s"]
    out["trace.unattributed_s"] = marks["run_s"] - sum(
        out[name] for name in TIME_METRICS.values()
    )
    return out
