from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from trimlab.disorder import SampleStream, Uniform, sample_potential
from trimlab import spectral
from trimlab.lattice import FullMask, Gamma1Mask, make_box, neighbors
from trimlab.operators import assemble, hedgehog_assemble, restrict
from trimlab.spectral import (
    SpectralParameterOnSpectrum,
    combes_thomas_rate,
    eigendecompose,
    gap_and_mult,
    green,
    off_x_green,
    point_projection,
    resolvent_identity_residual,
    schur_green,
)


def _random_ham(seed: int, n: int = 4, g: float = 2.0):
    box = make_box(2, (1, 1), (n, n))
    mask = FullMask()
    v = sample_potential(SampleStream(Uniform(), seed), mask, box, 0)
    return assemble(box, mask, None, g, v)


def test_eigendecompose_reconstructs():
    ham = _random_ham(0)
    sd = eigendecompose(ham)
    recon = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.T
    np.testing.assert_allclose(recon, ham.matrix, atol=1e-12)
    assert np.all(np.diff(sd.eigenvalues) >= 0)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]]))


def test_eigendecompose_stack_matches_one_at_a_time():
    stack = np.stack([_random_ham(seed).matrix for seed in range(3)])
    sd = eigendecompose(stack)
    assert sd.eigenvalues.shape == (3, 16) and sd.n == 16
    for h, vals, vecs in zip(stack, sd.eigenvalues, sd.eigenvectors):
        one = eigendecompose(h)
        np.testing.assert_array_equal(vals, one.eigenvalues)
        np.testing.assert_array_equal(vecs, one.eigenvectors)
    stack[1, 0, 1] += 1e-13
    with pytest.raises(ValueError, match="not exactly symmetric"):
        eigendecompose(stack)


def test_green_two_routes_agree():
    # LU solve against the eigen-expansion of the resolvent
    ham = _random_ham(1)
    z = 0.7 + 0.4j
    g_lu = green(ham, z)
    sd = eigendecompose(ham)
    g_eig = (sd.eigenvectors / (sd.eigenvalues - z)) @ sd.eigenvectors.T
    np.testing.assert_allclose(g_lu, g_eig, atol=1e-12)


def test_green_collision_raises():
    ham = assemble(make_box(1, (0,), (0,)), FullMask(), 1.0, 0.0, None)
    with pytest.raises(SpectralParameterOnSpectrum):
        green(ham, 3.0)  # H = (3), z exactly on the spectrum
    g = green(ham, 2.0)  # off spectrum, real z fine
    assert g[0, 0] == pytest.approx(1.0)


def test_green_complex_symmetric_at_real_z():
    # complex-symmetric, non-Hermitian: no eigenvalue test, straight to LU.
    # z is an eigenvalue of the Hermitian matrix eigvalsh would read from
    # the lower triangle, yet H - z is invertible.
    rng = np.random.default_rng(11)
    h0 = assemble(make_box(1, (0,), (4,)), FullMask(), None, 0.0, None)
    hh = hedgehog_assemble(h0, rng.normal(size=5) + 1j * (0.5 + rng.random(5)))
    z = float(np.linalg.eigvalsh(hh)[3])
    g = green(hh, z)
    np.testing.assert_allclose(
        g, np.linalg.inv(hh - z * np.eye(10)), rtol=1e-12, atol=1e-12
    )


def test_schur_green_matches_direct():
    for seed in range(5):
        ham = _random_ham(seed)
        sites = ham.site_list()
        xs, comp = schur_green(ham, sites[:7], 0.3 + 0.5j)
        g = green(ham, 0.3 + 0.5j)
        idx = [ham.box.index(s) for s in xs]
        np.testing.assert_allclose(comp, g[np.ix_(idx, idx)], atol=1e-10)


def test_schur_green_2x2_oracle():
    # H = [[0, -1], [-1, 0]], z = -2: Schur complement 2 - 1/2 inverts to 2/3
    ham = assemble(make_box(1, (0,), (1,)), FullMask(), -2.0, 0.0, None)
    xs, comp = schur_green(ham, [(0,)], -2.0)
    assert comp[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("case", ["in-out", "out-in", "out-out"])
def test_resolvent_identity_cases(case):
    for seed in range(3):
        ham = _random_ham(seed)
        sites = ham.site_list()
        x_sites = [s for s in sites if s[0] <= 2]
        res = resolvent_identity_residual(ham, x_sites, 0.5 + 0.2j, case)
        assert res <= 1e-10


def test_resolvent_identity_reuses_given_greens_bit_for_bit():
    ham = _random_ham(4)
    x_sites = [s for s in ham.site_list() if s[0] <= 2]
    z = -0.3 + 0.6j
    g, gx = green(ham, z), off_x_green(ham, x_sites, z)
    for case in ("in-out", "out-in", "out-out"):
        assert resolvent_identity_residual(
            ham, x_sites, z, case, g, gx
        ) == resolvent_identity_residual(ham, x_sites, z, case)
    everything = ham.site_list()
    assert off_x_green(ham, everything, z).shape == (0, 0)
    assert resolvent_identity_residual(ham, everything, z, "out-out", g) == 0.0


def _shifted(ham, shift):
    return replace(ham, matrix=ham.matrix + shift * np.eye(ham.n))


def _identity_residual_loop(ham, x_sites, z, case, shift):
    # the boundary pair sums that resolvent_identity_residual replaced,
    # with A_X's diagonal shifted by `shift`
    xs = sorted(set(x_sites))
    sites = ham.site_list()
    pos = {s: i for i, s in enumerate(sites)}
    xc = [s for s in sites if s not in set(xs)]
    g = green(ham, z)
    gx = green(_shifted(restrict(ham, xc), shift), z) if xc else None
    pos_x = {s: i for i, s in enumerate(xc)}
    pairs = [(up, u) for up in xs for u in xc if u in neighbors(up)]
    worst = 0.0
    if case == "in-out":
        for x in xs:
            for y in xc:
                total = sum(
                    g[pos[x], pos[up]] * gx[pos_x[u], pos_x[y]] for up, u in pairs
                )
                worst = max(worst, abs(g[pos[x], pos[y]] - total))
    elif case == "out-in":
        for x in xc:
            for y in xs:
                total = sum(
                    gx[pos_x[x], pos_x[u]] * g[pos[up], pos[y]] for up, u in pairs
                )
                worst = max(worst, abs(g[pos[x], pos[y]] - total))
    else:
        for x in xc:
            for y in xc:
                total = gx[pos_x[x], pos_x[y]]
                total += sum(
                    gx[pos_x[x], pos_x[u]] * g[pos[up], pos[vp]] * gx[pos_x[v], pos_x[y]]
                    for up, u in pairs
                    for vp, v in pairs
                )
                worst = max(worst, abs(g[pos[x], pos[y]] - total))
    return worst


@pytest.mark.parametrize("case", ["in-out", "out-in", "out-out"])
@pytest.mark.parametrize("region", ["box", "restricted", "empty-complement", "3d"])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_resolvent_identity_matches_loop(monkeypatch, case, region, shift):
    # shift != 0 perturbs A_X, so both residuals are O(1), not round-off
    ham = _random_ham(4)
    sites = ham.site_list()
    if region == "restricted":
        ham = restrict(ham, [s for s in sites if s != (2, 2) and s[1] != 4])
        sites = ham.site_list()
    if region == "3d":
        box = make_box(3, (0, 0, 0), (2, 2, 1))
        v = sample_potential(SampleStream(Uniform(), 4), FullMask(), box, 0)
        ham = assemble(box, FullMask(), None, 2.0, v)
        x_sites = [(1, 1, 0), (0, 0, 1), (2, 1, 1)]
    elif region == "empty-complement":
        x_sites = sites
    else:
        x_sites = [s for s in sites if s[0] <= 2]
    monkeypatch.setattr(
        spectral, "restrict", lambda h, sub: _shifted(restrict(h, sub), shift)
    )
    z = 0.5 + 0.2j
    res = resolvent_identity_residual(ham, x_sites, z, case)
    oracle = _identity_residual_loop(ham, x_sites, z, case, shift)
    assert abs(res - oracle) <= 1e-14
    if region == "empty-complement":
        assert res == 0.0
    elif shift:
        assert oracle > 1e-3


def test_resolvent_identity_unknown_case():
    ham = _random_ham(0)
    with pytest.raises(ValueError):
        resolvent_identity_residual(ham, [(1, 1)], 1j, "diagonal")


def test_spectral_projection_idempotent():
    ham = _random_ham(2)
    sd = eigendecompose(ham)
    p = point_projection(sd, float(sd.eigenvalues[sd.n // 2]))
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    q = np.eye(sd.n) - p
    np.testing.assert_allclose(q @ q, q, atol=1e-12)
    assert int(round(np.trace(p))) == 1


def test_point_projection_and_gap():
    box = make_box(2, (1, 1), (3, 3))
    ham = assemble(box, Gamma1Mask(2, 2), None, 0.0, None)
    sd = eigendecompose(ham)
    p = point_projection(sd, 4.0)
    # tensor degeneracy of the 3x3 grid at the middle
    assert int(round(np.trace(p))) == 3
    gm = gap_and_mult(sd, 4.0)
    assert gm["mult"] == 3
    assert gm["gap"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    with pytest.raises(ValueError, match="all eigenvalues inside the cluster"):
        gap_and_mult(eigendecompose(4.0 * np.eye(3)), 4.0)


def test_combes_thomas_free_chain():
    # free chain at z = -1: rate ln((3+sqrt 5)/2) from the transfer matrix
    box = make_box(1, (0,), (200,))
    ham = assemble(box, FullMask(), None, 0.0, None)
    out = combes_thomas_rate(ham, -1.0, (100,))
    oracle = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    assert out["rate"] == pytest.approx(oracle, rel=0.02)
    assert out["rms_residual"] < 0.1


def _combes_thomas_loop(ham, z, x0):
    # the per-site loop that combes_thomas_rate replaced
    g = green(ham, z)
    sites = ham.site_list()
    pos = {s: i for i, s in enumerate(sites)}
    lo, hi = ham.box.lo, ham.box.hi
    dists, logs = [], []
    for y in sites:
        dist = sum(abs(a - b) for a, b in zip(x0, y))
        if dist < 2:
            continue
        if any(y[k] - lo[k] < 2 or hi[k] - y[k] < 2 for k in range(ham.box.dim)):
            continue
        val = abs(g[pos[x0], pos[y]])
        if val < 1e-290:
            continue
        dists.append(dist)
        logs.append(math.log(val))
    a = np.vstack([-np.array(dists, dtype=float), np.ones(len(dists))]).T
    coef, *_ = np.linalg.lstsq(a, np.array(logs), rcond=None)
    resid = float(np.sqrt(np.mean((a @ coef - logs) ** 2)))
    return {"rate": coef[0], "prefactor": math.exp(coef[1]), "rms_residual": resid}


@pytest.mark.parametrize(
    "ham, x0",
    [
        (assemble(make_box(1, (0,), (60,)), FullMask(), None, 0.0, None), (17,)),
        (_random_ham(5, n=9), (4, 6)),
        (
            restrict(
                _random_ham(6, n=8),
                [(i, j) for i in range(1, 9) for j in range(1, 9) if i != 5],
            ),
            (3, 3),
        ),
    ],
    ids=["chain", "box", "restricted"],
)
def test_combes_thomas_matches_loop(ham, x0):
    out = combes_thomas_rate(ham, -1.0, x0)
    oracle = _combes_thomas_loop(ham, -1.0, x0)
    for key in ("rate", "prefactor", "rms_residual"):
        assert out[key] == pytest.approx(oracle[key], rel=1e-12, abs=1e-15)


def test_combes_thomas_insufficient_range():
    ham = assemble(make_box(1, (0,), (4,)), FullMask(), None, 0.0, None)
    with pytest.raises(ValueError, match="insufficient range"):
        combes_thomas_rate(ham, -1.0, (2,))


def _green_with_identity(m: np.ndarray, z: complex) -> np.ndarray:
    # the expression `green` used before it subtracted z in place
    return np.linalg.inv(m.astype(complex) - complex(z) * np.eye(m.shape[-1]))


@pytest.mark.parametrize(
    "z",
    [0.3, -0.7, 0.0, -0.0, 1 + 0.5j, 1 - 0.5j, -1 + 0.5j, -1 - 0.5j,
     complex(-0.0, 0.2), complex(0.5, -0.0)],
)
def test_green_in_place_shift_is_bitwise_identical(z):
    ham = _random_ham(3, n=5)
    rng = np.random.default_rng(7)
    u = rng.normal(size=9) + 1j * rng.random(9)
    matrices = [
        ham.matrix,
        np.stack([ham.matrix, 0.5 * ham.matrix, ham.matrix + 1.0]),
        -ham.matrix,  # off-diagonal -0.0 entries
        hedgehog_assemble(_random_ham(4, n=3, g=0.0), u),  # complex
        np.array([[-0.0, 1.0], [1.0, -0.0]]),
    ]
    for m in matrices:
        expected = _green_with_identity(m, z)
        got = green(m, z)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
