"""Batch experiment runner.

One subcommand per experiment; configuration comes from an optional
JSON file plus flag overrides (flags win).  Each run writes
<out>/<experiment>.csv and <out>/<experiment>.json.  All numeric CSV
fields are printed with 17 significant digits in lowercase scientific
notation so that reruns are byte-identical.

`main` raises every config error before dispatch: `_load_config` checks
each field once against its kind in `_FIELDS`, and `_resolved` applies
the range rules and the experiment's own checks (wegner's hypotheses
among them) and builds the (ens, rho) every runner receives with config.

The thread count (--threads, TRIMLAB_THREADS, default os.cpu_count()) is
validated and recorded in the JSON config echo, and nothing else reads
it: the Monte Carlo engine is serial and takes no thread count, so
outputs cannot depend on it.  Their last bits can depend on OpenBLAS's
own thread count (101 x 101 `localize`, 2 samples: stderr ...7967e+06
under one thread, ...8007e+06 under two); OPENBLAS_NUM_THREADS=1 gives
reproducible bits on large boxes.

Exit codes: 0 ok, 2 configuration error, 3 numeric, memory or I/O error
(a ValueError, ArithmeticError, RuntimeError, MemoryError or OSError
after validation).
Any other exception is a bug: it propagates with its traceback, and the
interpreter exits 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .anomalous import (
    compact_eigenfunctions,
    gamma1_eigenfunction,
    gamma2_eigenfunction,
)
from .coupling import s2w_identity_check, weak_disorder_bound_check
from .disorder import (
    estimate_decoupling_constants,
    spec_from_descriptor,
    trial_uniforms,
)
from .dynamics import dynamics_samples, laplace_summary
from .fracmoment import (
    DecayMetric,
    EnsembleSpec,
    kernel_identity_residual,
    mc_chi_green,
    sample_mean_stderr,
    slice_geometry,
    wegner_count,
    wegner_preconditions,
)
from .lattice import (
    Gamma1Mask,
    Gamma2Mask,
    LatticeBox,
    is_doubly_insulated,
    mask_from_descriptor,
    mask_vector,
    relative_density,
)
from .operators import DENSE_LIMIT, resolve_v0
from .spectral import (
    green,
    off_x_green,
    resolvent_identity_residual,
    schur_green,
)

#: residual at or below which an exact identity row passes (verify, couple)
IDENTITY_TOL = 1e-10


def _floats(text: str) -> list:
    """The --epsilon flag: comma-separated numbers."""
    return [float(v) for v in text.split(",")]


#: field -> (default, kind); a kind is the parse function of the field's
#: flag, and v0's, None, takes null, one number or a list of numbers
_FIELDS = {
    "box": ("1..5,1..5", str),
    "gamma": ("gamma1:2,2", str),
    "disorder": ("uniform:0,1", str),
    "v0": (None, None),
    "g": (5.0, float),
    "s": (1.0 / 3.0, float),
    "eta": (0.1, float),
    "energy": (4.0, float),
    "epsilon": ([0.1], _floats),
    "p": (2.0, float),
    "times": ([0.5, 1.0, 2.0, 4.0], _floats),
    "samples": (100, int),
    "seed": (0, int),
    "threads": (None, int),
    "out": ("trimlab-out", str),
}
_KINDS = {
    str: "a string",
    float: "a finite number",
    int: "an integer",
    _floats: "a list of finite numbers",
    None: "null, a finite number or a list of finite numbers",
}


class ConfigError(ValueError):
    pass


def _finite(value) -> bool:
    # type(), not isinstance(): a JSON boolean is an int; abs() compares
    # an int too large for a float without converting it
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _checked(key: str, value):
    """`value` (a number as a float) if it is of `key`'s kind, else ConfigError."""
    kind = _FIELDS[key][1]
    if kind in (str, int):
        ok = type(value) is kind
    elif type(value) is list and kind in (_floats, None):
        ok = all(map(_finite, value))
    else:  # one number; v0's kind, None, also takes null
        ok = kind in (float, None) and (_finite(value) or value is kind)
    if not ok:
        raise ConfigError(f"field {key!r} must be {_KINDS[kind]}")
    return float(value) if kind is float else value


def _parse_box(text: str) -> LatticeBox:
    try:
        lo, hi = [], []
        for part in text.split(","):
            a, b = part.split("..")
            lo.append(int(a))
            hi.append(int(b))
        return LatticeBox(tuple(lo), tuple(hi))
    except ValueError as exc:
        raise ConfigError(f"malformed box descriptor {text!r}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return f"{float(value):.16e}"


def _load_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then flags; each field checked."""
    config = {key: default for key, (default, _) in _FIELDS.items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            kind = type(loaded).__name__
            raise ConfigError(f"config file must hold a JSON object, not {kind}")
        unknown = set(loaded) - set(_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    # every flag but --config overrides the config key of its name
    config.update(
        (k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None
    )
    if config["threads"] is None:
        env = os.environ.get("TRIMLAB_THREADS")
        try:
            config["threads"] = int(env) if env else (os.cpu_count() or 1)
        except ValueError as exc:
            raise ConfigError(
                f"TRIMLAB_THREADS must be an integer, not {env!r}"
            ) from exc
    return {key: _checked(key, value) for key, value in config.items()}


def _resolved(config: dict, experiment: str):
    """Build the ensemble and decay metric the experiment consumes from
    a config `_load_config` has checked, holding each field to its range
    rules, then run the experiment's entry of _CHECKS.

    localize takes the slice recursion, which holds L W**2 + W n complex
    entries per realization (`fracmoment.slice_geometry`): they must not
    exceed DENSE_LIMIT**2, the entries of one dense operator at the
    limit.  Every other experiment but lattice-info builds dense
    operators on the box, so the box must not exceed DENSE_LIMIT sites.
    """
    try:
        box = _parse_box(config["box"])
        mask = mask_from_descriptor(config["gamma"])
        dist = spec_from_descriptor(config["disorder"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if mask.dim is not None and mask.dim != box.dim:
        raise ConfigError(
            f"gamma {config['gamma']!r} is {mask.dim}-dimensional, "
            f"the box is {box.dim}-dimensional"
        )
    if experiment == "localize":
        entries = slice_geometry(box)[2]
        if entries > DENSE_LIMIT**2:
            raise ConfigError(
                f"box needs L*W**2 + W*n = {entries} entries on the slice "
                f"route, over the limit DENSE_LIMIT**2 = {DENSE_LIMIT**2}"
            )
    elif experiment != "lattice-info" and box.size > DENSE_LIMIT:
        raise ConfigError(
            f"box has {box.size} sites, over the dense limit {DENSE_LIMIT}"
        )
    try:
        resolve_v0(config["v0"], box)
    except ValueError as exc:
        raise ConfigError(f"field 'v0' on {box.size} sites: {exc}") from exc
    for key, low in (("samples", 1), ("threads", 1), ("p", 0)):
        if config[key] < low:
            raise ConfigError(f"field {key!r} must be >= {low}")
    eps = config["epsilon"]
    if not eps or min(eps) <= 0 or len(set(eps)) != len(eps):
        raise ConfigError("epsilon values must be distinct and positive, one or more")
    try:
        rho = DecayMetric(config["eta"])
    except ValueError as exc:
        raise ConfigError(f"field 'eta': {exc}") from exc
    ens = EnsembleSpec(
        box,
        mask,
        dist,
        config["g"],
        v0=config["v0"],
        master_seed=config["seed"],
        samples=config["samples"],
    )
    if experiment in _CHECKS:
        _CHECKS[experiment](ens, config)
    return ens, rho


# ---------------------------------------------------------------------------
# Experiments: each returns (header, rows) for the CSV
# ---------------------------------------------------------------------------


def _trial_points(seed: int, trials: int, n: int):
    """(z, u_real, u_complex) of each trial, from one `trial_uniforms`
    call: Re z and the entries of u_real uniform on [-2, 2), Im z =
    0.3 + U[0, 1), and u_complex = u_real + i U[0, 1)^n."""
    u = trial_uniforms(seed, trials, 2 + 2 * n)
    z = 4.0 * u[:, 0] - 2.0 + 1j * (0.3 + u[:, 1])
    u_real = 4.0 * u[:, 2 : 2 + n] - 2.0
    return zip(z.tolist(), u_real, u_real + 1j * u[:, 2 + n :])


def _center(box: LatticeBox):
    """The site at the middle of the box (rounded down)."""
    return tuple((a + b) // 2 for a, b in zip(box.lo, box.hi))


def _run_verify(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    rows = []

    def record(check, residual):
        rows.append([check, residual, IDENTITY_TOL, residual <= IDENTITY_TOL])

    box, h0 = ens.box, ens.split.h0
    # X: the first half of the box sites, the first n_x rows of H
    n_x = max(1, box.size // 2)
    x_sites = list(box.sites())[:n_x]
    points = _trial_points(config["seed"], 5, box.size)
    for trial, (z, u_real, u_cplx) in enumerate(points):
        ham = ens.realization(trial)
        _, schur = schur_green(ham, x_sites, z)
        g = green(ham, z)
        record(f"schur[{trial}]", float(np.max(np.abs(schur - g[:n_x, :n_x]))))
        gx = off_x_green(ham, x_sites, z)
        for case in ("in-out", "out-in", "out-out"):
            record(
                f"resolvent-{case}[{trial}]",
                resolvent_identity_residual(ham, x_sites, z, case, g, gx),
            )
        if ens.split.comp.size:
            record(f"kernel[{trial}]", kernel_identity_residual(ens, z, trial, g))
        del ham, schur, g, gx  # freed before the doubled operator is inverted
        g0 = green(h0, z)
        for tag, u in (("real", u_real), ("complex", u_cplx)):
            res = s2w_identity_check(h0, u, z, g0)
            record(f"hedgehog-{tag}-base[{trial}]", res["residual0"])
            record(f"hedgehog-{tag}-pendant[{trial}]", res["residual1"])
    return ["check", "residual", "tolerance", "pass"], rows


def _run_localize(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    zs = [complex(config["energy"], eps) for eps in config["epsilon"]]
    reports = mc_chi_green(ens, zs, config["s"], rho)
    rows = [
        [
            ens.box.size,
            config["s"],
            config["eta"],
            eps,
            rep.value,
            rep.stderr,
            rep.samples,
        ]
        for eps, rep in zip(config["epsilon"], reports)
    ]
    return [
        "box_size",
        "s",
        "eta",
        "epsilon",
        "chi_estimate",
        "stderr",
        "samples",
    ], rows


def _run_wegner(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    reports = wegner_count(ens, config["energy"], config["epsilon"])
    rows = [
        [
            eps,
            rep["p_excess"],
            rep["mult"],
            rep["gap"],
            rep["mass_bound_checked"],
            rep["mass_bound_holds"],
            rep["samples"],
        ]
        for eps, rep in zip(config["epsilon"], reports)
    ]
    return [
        "epsilon",
        "p_excess",
        "mult",
        "gap",
        "mass_checks",
        "mass_bound_holds",
        "samples",
    ], rows


def _run_anomalous(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    mask, split = ens.mask, ens.split
    try:
        rep = compact_eigenfunctions(split.h0, mask, config["energy"])
        found = [rep.full_mult, rep.supported_dim, rep.assumption3]
    except ValueError:
        found = [0, 0, False]
    rows = [["compact", config["energy"], *found]]
    if split.comp.size:
        spectrum = split.sd.eigenvalues
        for lam in sorted(set(np.round(spectrum, 10))):
            mult = int(np.sum(np.abs(spectrum - lam) < 1e-9))
            rows.append(["trimmed-spectrum", float(lam), mult, 0, True])
    if isinstance(mask, (Gamma1Mask, Gamma2Mask)):
        if isinstance(mask, Gamma1Mask):
            check, fn = "gamma1", gamma1_eigenfunction(mask.k, mask.m, 1, 1)
        else:
            check, fn = "gamma2", gamma2_eigenfunction(mask.k)
        lo, hi = ens.box.lo, ens.box.hi
        window = LatticeBox(tuple(c - 10 for c in lo), tuple(c + 10 for c in hi))
        ok = fn.window_residual(window) <= 1e-10
        rows.append([f"{check}-eigenfunction", fn.lam, 0, 0, ok])
    return ["check", "energy", "full_mult", "supported_dim", "pass"], rows


def _run_dynamics(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    center = _center(ens.box)
    p, times, eps = config["p"], config["times"], config["epsilon"]
    samples = dynamics_samples(
        ens, center, p, times, config["energy"], eps[0], sorted(eps, reverse=True)
    )
    mean, se = sample_mean_stderr(samples)
    nt = len(times)
    chk = laplace_summary(samples[:, nt], samples[:, nt + 1])
    rows = [[float(t), p, m, s] for t, m, s in zip(times, mean[:nt], se[:nt])]
    rows.append([-1.0, p, chk["margin"], 1.0 if chk["holds"] else 0.0])
    rows += [[-2.0, p, m, s] for m, s in zip(mean[nt + 2 :], se[nt + 2 :])]
    for t, _, m, s in rows:  # nan once t E overflows e^{itE}; inf: one sample
        if not math.isfinite(m) or math.isnan(s):
            raise ArithmeticError(f"Mp at t = {t} is not finite (mean {m}, stderr {s})")
    return ["t", "p", "Mp", "stderr"], rows


def _run_couple(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    rows = []
    h0 = ens.split.h0
    eps = config["epsilon"][0]
    z = complex(config["energy"], max(eps, 1e-6))
    g0 = green(h0, z)
    # the test vectors of verify's trial 0; z is the one the weak bound reads
    _, u_real, u_cplx = next(_trial_points(config["seed"], 1, ens.box.size))
    for tag, u in (("real", u_real), ("complex", u_cplx)):
        res = s2w_identity_check(h0, u, z, g0)
        for part, residual in (("base", res["residual0"]), ("pendant", res["residual1"])):
            rows.append(
                [f"s2w-{tag}-{part}", residual, IDENTITY_TOL, residual <= IDENTITY_TOL]
            )
    c_mu = estimate_decoupling_constants(
        ens.dist, config["s"], 200, config["seed"]
    )["C_s"]
    rep = weak_disorder_bound_check(
        ens,
        config["energy"],
        eps,
        config["s"],
        rho,
        c_mu,
        g0 if z.imag == eps else None,  # the weak bound is taken at eps itself
    )
    if rep["applicable"]:
        audit = rep["audit"]
        pendant = [audit["pendant_chi"], audit["pendant_bound"], audit["pendant_holds"]]
        star = [rep["lhs"], audit["star_rhs"], audit["star_holds"]]
        rows.append(["weak-bound", rep["lhs"], rep["bound"], rep["holds"]])
        rows.append(["weak-bound-audit-pendant", *pendant])
        rows.append(["weak-bound-audit-star", *star])
    else:
        rows.append(["weak-bound-inapplicable", rep["chi0"], 0.0, True])
    return ["check", "value", "bound", "pass"], rows


def _run_lattice_info(config: dict, ens: EnsembleSpec, rho: DecayMetric):
    mask, center = ens.mask, _center(ens.box)
    rows = []
    for radius in (2, 5, 10, 20):
        frac = relative_density(mask, radius, center)
        rows.append(
            ["density", radius, float(frac), f"{frac.numerator}/{frac.denominator}"]
        )
    rep = is_doubly_insulated(mask, ens.box)
    rows.append(
        ["insulated", ens.box.size, 1.0 if rep.insulated else 0.0, str(rep.n_components)]
    )
    return ["check", "scale", "value", "detail"], rows


_RUNNERS = {
    "verify": _run_verify,
    "localize": _run_localize,
    "wegner": _run_wegner,
    "anomalous": _run_anomalous,
    "dynamics": _run_dynamics,
    "couple": _run_couple,
    "lattice-info": _run_lattice_info,
}
EXPERIMENTS = tuple(_RUNNERS)


def run(experiment: str, config: dict, ens: EnsembleSpec, rho: DecayMetric) -> dict:
    """Dispatch one resolved experiment; returns the in-memory result record."""
    start = time.monotonic()
    header, rows = _RUNNERS[experiment](config, ens, rho)
    return {
        "experiment": experiment,
        "config": {k: config[k] for k in sorted(config)},
        "header": header,
        "rows": rows,
        "provenance": {
            "version": __version__,
            "seed": config["seed"],
            "wall_time_s": time.monotonic() - start,
        },
    }


def emit(record: dict, out_dir: str) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{record['experiment']}.csv"
    json_path = out / f"{record['experiment']}.json"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(record["header"])
        writer.writerows([_fmt(v) for v in row] for row in record["rows"])
    json_path.write_text(
        json.dumps(
            {
                **record,
                "rows": [
                    [v if isinstance(v, (str, bool)) else float(v) for v in row]
                    for row in record["rows"]
                ],
            },
            indent=2,
            default=str,
        )
        + "\n"
    )
    return csv_path, json_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimlab",
        description="numerical laboratory for trimmed random lattice operators",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for key in "seed threads out g s eta energy epsilon samples gamma".split():
            p.add_argument(f"--{key}", type=_FIELDS[key][1])
        box_help = "lo..hi[,lo..hi]; write --box=lo..hi when lo is negative"
        p.add_argument("--box", type=_FIELDS["box"][1], help=box_help)
    return parser


def _check_localize(ens: EnsembleSpec, config: dict) -> None:
    """chi_rho(E|G|^s) is estimated for 0 < s <= 1 only."""
    if not 0 < config["s"] <= 1:
        raise ConfigError("field 's' must satisfy 0 < s <= 1 for localize")


def _check_wegner(ens: EnsembleSpec, config: dict) -> None:
    """g > 0 and the counting bound's hypotheses, decided from H(0) before
    sampling; wegner_count reads the same cached eigenpairs of H(0)."""
    if not config["g"] > 0:
        raise ConfigError("field 'g' must satisfy g > 0 for wegner")
    try:
        wegner_preconditions(ens, config["energy"], config["epsilon"])
    except ValueError as exc:
        raise ConfigError(f"wegner: {exc}") from exc


def _check_dynamics(ens: EnsembleSpec, config: dict) -> None:
    """eps^2 / (eps^2 + omega^2) of the Laplace check is 0/0 if eps^2
    underflows, and eps**2 raises OverflowError if it overflows."""
    bad = [e for e in config["epsilon"] if not 0 < e * e < math.inf]
    if bad:
        raise ConfigError(f"field 'epsilon': {bad[0]!r} squared leaves the float range")


def _check_couple(ens: EnsembleSpec, config: dict) -> None:
    """Preconditions of the weak-disorder bound that `couple` checks."""
    # one sample has no standard error, so the weak bound cannot be judged
    if config["samples"] < 2:
        raise ConfigError("couple needs samples >= 2")
    if not 0 < config["s"] < 1:
        raise ConfigError("field 's' must satisfy 0 < s < 1 for couple")
    if not config["g"] > 0:  # g^-s of the weak bound
        raise ConfigError("field 'g' must satisfy g > 0 for couple")
    if not mask_vector(ens.mask, ens.box).all():
        raise ConfigError(
            "couple needs disorder on every site: gamma must cover the box"
        )


#: per-experiment checks that `_resolved` runs last
_CHECKS = {
    "localize": _check_localize,
    "wegner": _check_wegner,
    "dynamics": _check_dynamics,
    "couple": _check_couple,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        ens, rho = _resolved(config, args.experiment)
    except ConfigError as exc:
        print(f"trimlab: config error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run(args.experiment, config, ens, rho)
        csv_path, _ = emit(record, config["out"])
    except (ValueError, ArithmeticError, RuntimeError, MemoryError, OSError) as exc:
        # numeric, memory or I/O failure after validation (a window whose
        # arrays do not fit); anything else is a bug and keeps its traceback
        print(f"trimlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(csv_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
