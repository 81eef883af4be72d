"""Acceptance gate: one test per headline criterion, each printing a
single PASS/FAIL line with its measured numbers.

Statistical criteria are judged at 3 standard errors of the Monte Carlo
estimates involved; exact-identity criteria use the stated absolute
tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from trimlab.anomalous import compact_eigenfunctions, gamma1_eigenfunction
from trimlab.coupling import s2w_identity_check
from trimlab.disorder import Uniform, estimate_decoupling_constants
from trimlab.dynamics import laplace_moment_check, pmoment_probe
from trimlab.fracmoment import (
    DecayMetric,
    EnsembleSpec,
    am_contraction_check,
    g_scaling_exponent,
    kernel_identity_residual,
    mc_fractional_moment,
    wegner_count,
)
from trimlab.lattice import (
    FullMask,
    Gamma1Mask,
    Gamma2Mask,
    make_box,
)
from trimlab.operators import assemble, trimmed_restriction
from trimlab.spectral import (
    combes_thomas_rate,
    eigendecompose,
    green,
    resolvent_identity_residual,
    schur_green,
)


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_exact_identities():
    tol = 1e-10
    rng = np.random.default_rng(20260823)
    masks = [
        FullMask(),
        Gamma1Mask(2, 2),
        Gamma1Mask(3, 2),
        Gamma2Mask(2),
        Gamma2Mask(3),
    ]
    worst = 0.0
    checks = 0
    for trial in range(100):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        box = make_box(2, (1, 1), (n1, n2))
        mask = masks[trial % len(masks)]
        g = float(1.0 + 9.0 * rng.random())
        ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=trial, samples=1)
        ham = ens.realization(0)
        z = complex(rng.normal(), 0.2 + rng.random())
        sites = tuple(box.sites())
        n_x = int(rng.integers(1, len(sites)))
        x_sites = list(sites[:n_x])
        xs, comp = schur_green(ham, x_sites, z)
        gz = green(ham, z)
        idx = [box.index(s) for s in xs]
        worst = max(worst, float(np.max(np.abs(comp - gz[np.ix_(idx, idx)]))))
        for case in ("in-out", "out-in", "out-out"):
            worst = max(
                worst, resolvent_identity_residual(ham, x_sites, z, case)
            )
        if any(s not in mask for s in sites):
            worst = max(worst, kernel_identity_residual(ens, z, 0))
        h0 = ens.split.h0
        u = rng.normal(size=len(sites))
        if trial % 2:
            u = u + 1j * rng.random(len(sites))
        res = s2w_identity_check(h0, u, z)
        worst = max(worst, res["residual0"], res["residual1"])
        checks += 1
    report(
        "criterion 1 (exact identity suite)",
        worst <= tol and checks == 100,
        f"max residual {worst:.3e} over {checks} instances (tol {tol:g})",
    )


def test_criterion_2_one_site_oracle_and_scaling():
    ens = EnsembleSpec(
        make_box(1, (0,), (0,)),
        FullMask(),
        Uniform(),
        4.0,
        samples=100000,
        master_seed=1,
    )
    out = mc_fractional_moment(ens, 2.0, 0.5, (0,), (0,))
    dev = abs(out["estimate"] - 1.0)
    ok_mean = dev <= 3.0 * out["stderr"]
    fit = g_scaling_exponent(
        EnsembleSpec(
            make_box(1, (0,), (0,)),
            FullMask(),
            Uniform(),
            1.0,
            samples=5000,
            master_seed=2,
        ),
        2.0,
        0.5,
        (0,),
        [10.0, 20.0, 40.0, 80.0],
    )
    ok_slope = abs(fit["slope"] + 0.5) <= 0.15
    report(
        "criterion 2 (one-site oracle and g-scaling)",
        ok_mean and ok_slope,
        f"estimate {out['estimate']:.5f} +- {out['stderr']:.5f} "
        f"(target 1), slope {fit['slope']:.4f} (target -0.5 +- 0.15)",
    )


def test_criterion_3_combes_thomas():
    box = make_box(1, (0,), (400,))
    ham = assemble(box, FullMask(), None, 0.0, None)
    out = combes_thomas_rate(ham, -1.0, (200,))
    oracle = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    rel = abs(out["rate"] - oracle) / oracle
    report(
        "criterion 3 (Combes-Thomas rate)",
        rel <= 0.02,
        f"rate {out['rate']:.6f} vs {oracle:.6f} (rel dev {rel:.2%}, tol 2%)",
    )


def test_criterion_4_strong_disorder_contraction():
    c_s = estimate_decoupling_constants(Uniform(), 0.5, 200, 0)["C_s"]
    ens = EnsembleSpec(
        make_box(1, (0,), (30,)),
        FullMask(),
        Uniform(),
        30.0,
        samples=400,
        master_seed=4,
    )
    out = am_contraction_check(ens, 15.0, 0.5, DecayMetric(0.1), c_s)
    ok = out["applicable"] and out["holds"]
    detail = (
        f"C_s {c_s:.4f}, chi_off {out.get('chi_off', float('nan')):.4f}, "
        + (
            f"lhs {out['lhs']:.4f} +- {out['lhs_stderr']:.4f} <= rhs {out['rhs']:.2f}"
            if out["applicable"]
            else out["reason"]
        )
    )
    report("criterion 4 (strong-disorder contraction)", ok, detail)


def test_criterion_5_anomalous_structure():
    # trimmed spectrum is {4} on every window checked
    sigma_ok = True
    for n in (3, 5, 7, 9, 11):
        box = make_box(2, (1, 1), (n, n))
        tr = trimmed_restriction(assemble(box, Gamma1Mask(2, 2), None, 0.0, None))
        vals = np.linalg.eigvalsh(tr.matrix)
        sigma_ok = sigma_ok and bool(np.all(np.abs(vals - 4.0) <= 1e-12))
    fn = gamma1_eigenfunction(2, 2, 1, 1)
    window = make_box(2, (-10, -10), (10, 10))
    resid = fn.window_residual(window)
    mask_val = fn.max_mask_value(window)
    h0 = assemble(make_box(2, (1, 1), (3, 3)), Gamma1Mask(2, 2), None, 0.0, None)
    rep = compact_eigenfunctions(h0, eigendecompose(h0), Gamma1Mask(2, 2), 4.0)
    ok = (
        sigma_ok
        and resid <= 1e-12
        and mask_val == 0.0
        and rep.full_mult == 3
        and rep.supported_dim == 1
    )
    report(
        "criterion 5 (anomalous-energy structure)",
        ok,
        f"sigma(H_Gamma)={{4}}: {sigma_ok}, eigenfunction residual {resid:.2e}, "
        f"mask values {mask_val:g}, full_mult {rep.full_mult}, "
        f"supported_dim {rep.supported_dim}",
    )


def test_criterion_6_moment_divergence_contrast():
    # trend comparisons are made at 3 standard errors of the estimates;
    # the log-log slope sign carries the divergence signature
    eps = [1e-1, 1e-2, 1e-3]
    details = []
    ok = True
    for n, x in ((11, (5, 5)), (15, (7, 7)), (21, (11, 11))):
        box = make_box(2, (1, 1), (n, n))
        ens = EnsembleSpec(
            box, Gamma1Mask(2, 2), Uniform(), 5.0, samples=30, master_seed=6
        )
        at4 = pmoment_probe(ens, 4.0, eps, 12.0, x)
        at0 = pmoment_probe(ens, 0.0, eps, 12.0, x)
        rows = at4["rows"]
        nondec = all(
            rows[i + 1]["S"]
            >= rows[i]["S"] - 3.0 * (rows[i]["stderr"] + rows[i + 1]["stderr"])
            for i in range(len(rows) - 1)
        )
        slope_ok = at4["loglog_slope"] <= 0.0
        off_ok = at0["loglog_slope"] >= 1.5
        ok = ok and nondec and slope_ok and off_ok
        details.append(
            f"{n}x{n}: at-4 slope {at4['loglog_slope']:.3f} "
            f"nondec {nondec}, at-0 slope {at0['loglog_slope']:.3f}"
        )
    report("criterion 6 (moment-divergence contrast)", ok, "; ".join(details))


def test_criterion_7_laplace_inequality():
    worst = np.inf
    count = 0
    for cfg in range(20):
        lam = 4.0 if cfg % 2 == 0 else 0.0
        n = (5, 7, 9)[cfg % 3]
        g = (2.0, 5.0, 8.0)[cfg % 3]
        box = make_box(2, (1, 1), (n, n))
        ens = EnsembleSpec(
            box, Gamma1Mask(2, 2), Uniform(), g, samples=5, master_seed=100 + cfg
        )
        x = (1 + 2 * (cfg % ((n - 1) // 2)), 1)
        out = laplace_moment_check(ens, lam, 0.05, 4.0, x)
        worst = min(worst, out["worst_realization_margin"])
        count += out["realizations"]
    report(
        "criterion 7 (Laplace-transform inequality)",
        worst >= -1e-9,
        f"worst realization margin {worst:.3e} over {count} realizations "
        "(tol -1e-9)",
    )


def test_criterion_8_wegner_counting_trend():
    ens = EnsembleSpec(
        make_box(2, (1, 1), (3, 1)),
        Gamma1Mask(2, 2),
        Uniform(),
        10.0,
        samples=2000,
        master_seed=8,
    )
    eps_grid = [0.4, 0.2, 0.1, 0.05, 0.04]
    reports = wegner_count(ens, 4.0, eps_grid)
    probs = [out["p_excess"] for out in reports]
    mass_ok = all(out["mass_bound_holds"] for out in reports)
    checks = sum(out["mass_bound_checked"] for out in reports)
    monotone = all(b <= a for a, b in zip(probs, probs[1:]))
    ok = monotone and probs[0] > 0.0 and mass_ok
    report(
        "criterion 8 (eigenvalue-counting trend)",
        ok,
        f"P(N>=1) over eps decade {probs}, monotone {monotone}, "
        f"eigenvector bound held on {checks} vectors: {mass_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    from trimlab.cli import main

    runs = {
        "verify": [],
        "localize": ["--epsilon", "0.1,0.01", "--samples", "30"],
        "wegner": [
            "--box",
            "1..3,1..1",
            "--g",
            "10",
            "--energy",
            "4.0",
            "--epsilon",
            "0.4,0.2,0.1",
            "--samples",
            "200",
        ],
        "anomalous": [],
        "dynamics": ["--samples", "10", "--epsilon", "0.1,0.01"],
        "couple": [
            "--box",
            "0..10",
            "--gamma",
            "full",
            "--g",
            "0.01",
            "--energy=-1",
            "--epsilon",
            "0.0001",
            "--s",
            "0.5",
            "--samples",
            "50",
        ],
        "lattice-info": [],
    }
    mismatches = []
    for experiment, extra in runs.items():
        outputs = []
        for threads, tag in ((1, "a"), (3, "b")):
            out = tmp_path / f"{experiment}-{tag}"
            code = main(
                [
                    experiment,
                    "--out",
                    str(out),
                    "--seed",
                    "0",
                    "--threads",
                    str(threads),
                ]
                + extra
            )
            assert code == 0, f"{experiment} exited {code}"
            outputs.append((out / f"{experiment}.csv").read_bytes())
        if outputs[0] != outputs[1]:
            mismatches.append(experiment)
    report(
        "criterion 9 (thread-count determinism)",
        not mismatches,
        f"byte-identical CSV for {len(runs)} experiments"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
