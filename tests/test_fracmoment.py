from __future__ import annotations

import math
import re

import numpy as np
import pytest

from trimlab.anomalous import SUPPORT_TOL, compact_eigenfunctions
from trimlab.coupling import weak_disorder_bound_check
from trimlab.disorder import BernoulliMixture, Uniform
from trimlab.fracmoment import (
    DecayMetric,
    EnsembleSpec,
    ResampleBudgetExceeded,
    am_contraction_check,
    chi_kernel,
    chi_resolvent_inequalities,
    g_scaling_exponent,
    kernel_identity_residual,
    loc1_threshold,
    mc_fractional_moment,
    trimmed_split,
    wegner_count,
    wegner_preconditions,
    wegner_uniform_bound_probe,
)
from trimlab.lattice import (
    BernoulliMask,
    FullMask,
    Gamma1Mask,
    PeriodicCellMask,
    l1_distances,
    make_box,
)
from trimlab.operators import (
    assemble,
    laplacian_matrix,
    resolve_v0,
    restrict,
    trimmed_restriction,
)
from trimlab.spectral import SpectralParameterOnSpectrum, eigendecompose, green

from oracles import eigenvector_gamma_mass

RHO = DecayMetric(0.1)


def test_decay_metric():
    w = DecayMetric(0.1).weight_matrix([(0, 0)], [(2, 3)])
    assert math.log(w[0, 0]) == pytest.approx(0.5)
    assert DecayMetric(0.2).norm == 0.2
    with pytest.raises(ValueError):
        DecayMetric(-1.0)


def _weight_matrix_loop(rho, sites):
    # the per-site-pair loop that DecayMetric.weight_matrix replaced
    n = len(sites)
    w = np.empty((n, n))
    for i, x in enumerate(sites):
        for j, y in enumerate(sites):
            w[i, j] = math.exp(rho.eta * sum(abs(a - b) for a, b in zip(x, y)))
    return w


@pytest.mark.parametrize(
    "sites",
    [
        tuple(make_box(1, (-3,), (9,)).sites()),
        tuple(make_box(2, (-2, 1), (3, 4)).sites()),
        tuple(make_box(3, (0, 0, 0), (2, 3, 2)).sites()),
        tuple(make_box(2, (0, 0), (6, 6)).sites())[::3],
        ((5, -5),),
        (),
    ],
    ids=["d1", "d2", "d3", "subset", "one-site", "empty"],
)
def test_weight_matrix_matches_loop(sites):
    for eta in (0.0, 0.1, 0.37):
        rho = DecayMetric(eta)
        assert np.array_equal(rho.weight_matrix(sites), _weight_matrix_loop(rho, sites))
        # rows of a subset against every site, as the slice route reads them
        rows = sites[len(sites) // 2 :]
        assert np.array_equal(
            rho.weight_matrix(rows, sites), _weight_matrix_loop(rho, sites)[len(sites) // 2 :]
        )


def test_chi_kernel_chain_oracle():
    # off-diagonal hopping on a chain: interior columns carry two
    # neighbors at weight e^eta, so chi = 2 e^eta for any s
    box = make_box(1, (0,), (10,))
    a = assemble(box, FullMask(), None, 0.0, None).matrix
    a_off = a - np.diag(np.diag(a))
    sites = tuple(box.sites())
    for s in (1.0, 0.5):
        chi = chi_kernel(a_off, sites, RHO, s)
        assert chi == pytest.approx(2.0 * math.exp(0.1), abs=1e-12)
        # the empty kernel (X^c of X = the whole box) reads 0
        assert chi_kernel(np.zeros((0, 0)), (), RHO, s) == 0.0
    # d = 2 hopping gives 4 e^eta
    box2 = make_box(2, (0, 0), (4, 4))
    a2 = assemble(box2, FullMask(), None, 0.0, None).matrix
    a2_off = a2 - np.diag(np.diag(a2))
    chi2 = chi_kernel(a2_off, tuple(box2.sites()), RHO, 1.0)
    assert chi2 == pytest.approx(4.0 * math.exp(0.1), abs=1e-12)


def test_chi_kernel_validates():
    with pytest.raises(ValueError):
        chi_kernel(np.eye(3), ((0,), (1,)), RHO, 1.0)
    with pytest.raises(ValueError):
        chi_kernel(np.eye(2), ((0,), (1,)), RHO, 0.0)


def _one_site_ens(g: float, samples: int = 4000, seed: int = 7):
    return EnsembleSpec(
        make_box(1, (0,), (0,)),
        FullMask(),
        Uniform(),
        g,
        samples=samples,
        master_seed=seed,
    )


@pytest.mark.parametrize("z", [3.17, 4.0 + 0.1j])
def test_non_finite_chi_raises_on_both_routes(monkeypatch, z):
    # a nan in one sample's column sums, at a real z (whole-operator LU) and
    # at a non-real one (slice recursion)
    from trimlab import fracmoment

    def poisoned(real):
        def wrapper(*args):
            out = real(*args)
            # _slice_sums gives (sums, worst r, fallbacks) per z
            (out[0][0] if isinstance(out, list) else out)[0, 0] = np.nan
            return out

        return wrapper

    for name in ("_column_sums", "_slice_sums"):
        monkeypatch.setattr(fracmoment, name, poisoned(getattr(fracmoment, name)))
    ens = EnsembleSpec(make_box(1, (0,), (3,)), FullMask(), Uniform(), 2.0, samples=4)
    with pytest.raises(ArithmeticError, match=re.escape(f"z = {complex(z)}")):
        fracmoment.mc_chi_green(ens, [z], 0.5, RHO)


def test_one_site_closed_form():
    # E|G_2(0,0)|^s = g^{-s} E V^{-s} = g^{-1/2} * 2 at s = 1/2
    out = mc_fractional_moment(_one_site_ens(4.0), 2.0, 0.5, (0,), (0,))
    assert out["estimate"] == pytest.approx(1.0, abs=4 * out["stderr"] + 0.02)
    assert out["resampled"] == 0


def test_g_scaling_slope():
    fit = g_scaling_exponent(
        _one_site_ens(1.0, samples=2000), 2.0, 0.5, (0,), [10, 20, 40, 80]
    )
    assert fit["slope"] == pytest.approx(-0.5, abs=0.15)
    with pytest.raises(ValueError):
        g_scaling_exponent(
            EnsembleSpec(
                make_box(2, (1, 1), (3, 3)),
                Gamma1Mask(2, 2),
                Uniform(),
                1.0,
            ),
            2.0,
            0.5,
            (1, 1),
            [1, 2],
        )


def test_resample_budget_exceeded():
    # degenerate two-atom disorder with zero width is not offered; use a
    # narrow mixture so a real z inside an atom window keeps colliding
    ens = EnsembleSpec(
        make_box(1, (0,), (0,)),
        FullMask(),
        BernoulliMixture(0.5, 1e-12),
        1.0,
        samples=100,
        master_seed=0,
    )
    # z = 2 + 1 hits the smoothed atom at 1 for about half the samples
    with pytest.raises(ResampleBudgetExceeded):
        mc_fractional_moment(ens, 3.0, 0.5, (0,), (0,))


def test_am_contraction_applicability():
    box = make_box(1, (0,), (10,))
    weak = EnsembleSpec(box, FullMask(), Uniform(), 1.0, samples=10)
    out = am_contraction_check(weak, 1.0, 0.5, RHO, 2.5)
    assert not out["applicable"]
    strong = EnsembleSpec(box, FullMask(), Uniform(), 50.0, samples=60, master_seed=1)
    out2 = am_contraction_check(strong, 15.0, 0.5, RHO, 2.5)
    assert out2["applicable"]
    assert out2["holds"]
    # trimmed geometry rejected: the contraction needs disorder everywhere
    trimmed = EnsembleSpec(
        make_box(2, (1, 1), (3, 3)), Gamma1Mask(2, 2), Uniform(), 50.0, samples=4
    )
    with pytest.raises(ValueError):
        am_contraction_check(trimmed, 1j, 0.5, RHO, 2.5)


def test_chi_resolvent_inequalities_hold():
    box = make_box(2, (1, 1), (5, 5))
    mask = Gamma1Mask(2, 2)
    ens = EnsembleSpec(box, mask, Uniform(), 8.0, samples=3, master_seed=2)
    x_sites = [s for s in box.sites() if s in mask]
    for i in range(3):
        out = chi_resolvent_inequalities(
            ens.realization(i), x_sites, 4.0 + 0.3j, RHO
        )
        assert out["res_chi_star"]["holds"]
        assert out["res_chi"]["holds"]
        assert not out["degenerate"]
    # X = whole box is degenerate but reported, not an error: X^c is empty,
    # so the star side reads the empty kernel's 0
    deg = chi_resolvent_inequalities(
        ens.realization(0), list(box.sites()), 4.0 + 0.3j, RHO
    )
    assert deg["degenerate"] and deg["res_chi_star"]["lhs"] == 0.0
    assert deg["res_chi_star"]["holds"] and deg["res_chi"]["holds"]


def test_kernel_identity_exact():
    box = make_box(2, (1, 1), (5, 5))
    ens = EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 3.0, samples=4, master_seed=5)
    for i in range(4):
        assert kernel_identity_residual(ens, 0.5 + 0.3j, i) <= 1e-10
        assert kernel_identity_residual(ens, -1.0, i) <= 1e-10


def test_kernel_K_rejects_trimmed_spectrum_point():
    from trimlab.spectral import SpectralParameterOnSpectrum

    box = make_box(2, (1, 1), (5, 5))
    with pytest.raises(SpectralParameterOnSpectrum):
        trimmed_split(box, Gamma1Mask(2, 2), None).kernel(4.0)


def test_loc1_threshold():
    box = make_box(2, (1, 1), (5, 5))
    out = loc1_threshold(Gamma1Mask(2, 2), box, None, 0.0, 0.5, RHO, 2.8)
    assert out["applicable"]
    assert out["g0"] == pytest.approx((2.8 * out["chi_K"]) ** 2)
    bad = loc1_threshold(Gamma1Mask(2, 2), box, None, 4.0, 0.5, RHO, 2.8)
    assert not bad["applicable"]


def _wegner_strip(g: float = 10.0, samples: int = 400, seed: int = 8):
    return EnsembleSpec(
        make_box(2, (1, 1), (3, 1)),
        Gamma1Mask(2, 2),
        Uniform(),
        g,
        samples=samples,
        master_seed=seed,
    )


def test_wegner_count_strip():
    ens = _wegner_strip()
    out, smaller = wegner_count(ens, 4.0, [0.4, 0.1])
    assert out["mult"] == 1
    assert out["gap"] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert out["p_excess"] > 0.3
    assert out["mass_bound_holds"]
    assert smaller["p_excess"] <= out["p_excess"]
    with pytest.raises(ValueError):
        wegner_count(ens, 4.0, [1.0])  # eps beyond gap/3
    with pytest.raises(ValueError):
        wegner_count(ens, 3.0, [0.01])  # not an eigenvalue


@pytest.mark.parametrize("g", [0.0, -5.0])
def test_bounds_refuse_a_nonpositive_g(g):
    # g^-s of the weak bound, g^s of the contraction and the mass bound
    # gap / (3 g ||V||) each need g > 0
    full = EnsembleSpec(make_box(1, (0,), (4,)), FullMask(), Uniform(), g, samples=3)
    with pytest.raises(ValueError, match="g > 0"):
        weak_disorder_bound_check(full, -1.0, 1e-4, 0.5, RHO, 2.5)
    with pytest.raises(ValueError, match="g > 0"):
        am_contraction_check(full, 1j, 0.5, RHO, 2.5)
    with pytest.raises(ValueError, match="g > 0"):
        wegner_count(_wegner_strip(g=g, samples=3), 4.0, [0.4])


def test_wegner_support_precondition_rejected():
    # full-disorder geometry: the lambda-eigenvector lives everywhere
    ens = EnsembleSpec(
        make_box(1, (0,), (2,)), FullMask(), Uniform(), 1.0, samples=4
    )
    lam = 2.0  # middle eigenvalue of the 3-site chain
    with pytest.raises(ValueError, match="support precondition"):
        wegner_count(ens, lam, [0.1])


def test_eigenvector_gamma_mass():
    sites = ((1, 1), (2, 1), (3, 1))
    phi = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert eigenvector_gamma_mass(phi, Gamma1Mask(2, 2), sites) == 0.0
    phi2 = np.array([0.0, 1.0, 0.0])
    assert eigenvector_gamma_mass(phi2, Gamma1Mask(2, 2), sites) == 1.0


def test_wegner_uniform_probe():
    box = make_box(2, (0, 0), (4, 4))
    ens = EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 10.0, samples=25, master_seed=3)
    rep = wegner_uniform_bound_probe(ens, [1.0], [1e-1, 1e-2, 1e-3], 0.5)
    vals = [r["estimate"] for r in rep["rows"]]
    # boundedness as eps decreases: no blow-up beyond a mild factor
    assert max(vals) <= 3.0 * min(vals)
    # doubling g roughly halves the s = 1/2 moment on Gamma sites
    fit = g_scaling_exponent(
        EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 1.0, samples=150, master_seed=4),
        complex(1.0, 1e-2),
        0.5,
        (2, 2),
        [20, 40, 80],
    )
    assert fit["slope"] == pytest.approx(-0.5, abs=0.2)
    # boundary off Gamma is rejected
    bad = EnsembleSpec(
        make_box(2, (1, 1), (3, 1)), Gamma1Mask(2, 2), Uniform(), 1.0, samples=2
    )
    with pytest.raises(ValueError, match="boundary"):
        wegner_uniform_bound_probe(bad, [1.0], [0.1], 0.5)


# Gamma read as arrays (`mask_vector`) against the per-site `s in mask`
# membership tests the functions below used to make.

ARRAY_MASKS = [
    BernoulliMask(0.5, 3),
    BernoulliMask(1.0, 5),  # covers every box
    PeriodicCellMask((2, 2), (True, False, False, True)),
    Gamma1Mask(2, 2),
]
ARRAY_BOX = make_box(2, (1, 1), (6, 5))


def _kernel_K_loop(mask, box, v0, z):
    """(K, D, sites, trimmed spectrum) as `TrimmedSplit.kernel` computed
    them site by site: Delta|_G - V0|_G + T G_z[H_G] T^T with T the
    adjacency of Gamma and Gamma^c sites."""
    h0 = assemble(box, mask, v0, 0.0, None)
    gamma_sites = tuple(s for s in box.sites() if s in mask)
    idx = [box.index(s) for s in gamma_sites]
    m = -laplacian_matrix(box)[np.ix_(idx, idx)].astype(complex)
    m -= np.diag(resolve_v0(v0, box)[idx])
    comp_sites = [s for s in box.sites() if s not in mask]
    spectrum = np.array([])
    if comp_sites:
        h_gamma = restrict(h0, comp_sites)
        spectrum = np.linalg.eigvalsh(h_gamma.matrix)
        if complex(z).imag == 0 and np.min(np.abs(spectrum - complex(z).real)) <= 1e-10:
            raise SpectralParameterOnSpectrum("on the trimmed spectrum")
        t = (l1_distances(gamma_sites, comp_sites) == 1).astype(float)
        m += t @ green(h_gamma, z) @ t.T
    d = np.diag(m).copy()
    return m - np.diag(d), d, gamma_sites, spectrum


def _near(a, b, rel=1e-12) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if a.shape != b.shape:
        return False
    return float(np.max(np.abs(a - b), initial=0.0)) <= rel * scale


@pytest.mark.parametrize("mask", ARRAY_MASKS)
@pytest.mark.parametrize("z", [0.5 + 0.3j, 2.0 - 0.7j, -1.0, 0.0])
def test_kernel_and_threshold_read_gamma_as_arrays(mask, z):
    box, v0 = ARRAY_BOX, 0.25
    try:
        k, d, sites, spectrum = _kernel_K_loop(mask, box, v0, z)
    except SpectralParameterOnSpectrum:
        with pytest.raises(SpectralParameterOnSpectrum):
            trimmed_split(box, mask, v0).kernel(z)
        return
    kd = trimmed_split(box, mask, v0).kernel(z)
    assert kd["sites"] == sites
    assert _near(kd["K"], k) and _near(kd["D"], d)
    assert _near(kd["trimmed_spectrum"], spectrum)
    if complex(z).imag == 0:
        lam = complex(z).real
        out = loc1_threshold(mask, box, v0, lam, 0.5, RHO, 2.8)
        far = spectrum.size == 0 or np.min(np.abs(spectrum - lam)) > 1e-6
        assert out["applicable"] == far
        if far:
            chi = chi_kernel(k, sites, RHO, 0.5)
            assert abs(out["chi_K"] - chi) <= 1e-12 * chi


@pytest.mark.parametrize("mask", ARRAY_MASKS)
def test_split_is_cached_read_only_and_serves_kernel_K(mask):
    box, v0 = ARRAY_BOX, np.linspace(0.0, 1.0, ARRAY_BOX.size)
    ens = EnsembleSpec(box, mask, Uniform(), 3.0, v0=v0, samples=2)
    split = ens.split
    assert ens.split is split
    np.testing.assert_array_equal(split.h0.matrix, assemble(box, mask, v0, 0.0, None).matrix)
    arrays = [split.h0.matrix, split.gamma, split.comp]
    if split.sd is not None:
        arrays += [split.sd.eigenvalues, split.sd.eigenvectors]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert v0.flags.writeable  # the caller's v0 is left as it was
    assert split.sites == tuple(s for s in box.sites() if s in mask)
    for z in (0.5 + 0.3j, -1.0):
        kd, ref = ens.split.kernel(z), trimmed_split(box, mask, v0).kernel(z)
        assert kd["sites"] == ref["sites"]
        for key in ("K", "D", "trimmed_spectrum"):
            assert kd[key].tobytes() == ref[key].tobytes()


@pytest.mark.parametrize("mask", ARRAY_MASKS)
def test_restriction_and_gamma_checks_read_gamma_as_arrays(mask):
    box = ARRAY_BOX
    ham = assemble(box, mask, None, 0.0, None)
    sub = restrict(ham, [s for s in box.sites() if s[0] <= 3])
    corner = restrict(sub, [s for s in sub.site_list() if s[1] <= 3])
    for h in (ham, sub, corner):
        # compact_eigenfunctions: the Gamma rows of the eigenbasis, on the
        # box and on restrictions, against per-site membership
        # (the directions whose singular value is at most SUPPORT_TOL)
        sd = eigendecompose(h)
        vals, vecs = sd.eigenvalues, sd.eigenvectors
        gamma_rows = [s in mask for s in h.site_list()]
        for lam in vals:
            eig_basis = vecs[:, np.abs(vals - lam) <= 1e-9]
            _, sigma, vh = np.linalg.svd(eig_basis[gamma_rows])
            coeff = vh[np.sum(sigma > SUPPORT_TOL) :].T
            got = compact_eigenfunctions(h, sd, mask, lam)
            np.testing.assert_array_equal(got.basis, eig_basis @ coeff)
    for h in (ham, sub):
        comp = [s for s in h.site_list() if s not in mask]
        if not comp:
            with pytest.raises(ValueError, match="empty complement"):
                trimmed_restriction(h)
            continue
        expected = restrict(h, comp)
        got = trimmed_restriction(h)
        assert got.sites == expected.sites
        np.testing.assert_array_equal(got.matrix, expected.matrix)
    ens = EnsembleSpec(box, mask, Uniform(), 50.0, samples=2)
    if any(s not in mask for s in box.sites()):
        with pytest.raises(ValueError, match="Gamma = Full"):
            am_contraction_check(ens, 15.0, 0.5, RHO, 2.5)
        with pytest.raises(ValueError, match="disorder on every site"):
            weak_disorder_bound_check(ens, 1.0, 0.1, 0.5, RHO, 1.0)
    else:
        full = EnsembleSpec(box, FullMask(), Uniform(), 50.0, samples=2)
        expected = am_contraction_check(full, 15.0, 0.5, RHO, 2.5)
        assert am_contraction_check(ens, 15.0, 0.5, RHO, 2.5) == expected
        expected = weak_disorder_bound_check(full, 1.0, 0.1, 0.5, RHO, 1e-3)
        assert expected["applicable"]
        assert weak_disorder_bound_check(ens, 1.0, 0.1, 0.5, RHO, 1e-3) == expected
    # wegner_preconditions: Gamma mass of every lambda-eigenvector; the
    # message names the largest Gamma mass of a unit eigenvector
    h0 = ens.split.h0
    vals, vecs = np.linalg.eigh(h0.matrix)
    gamma_rows = [s in mask for s in h0.site_list()]
    for lam in vals:
        ker = vecs[:, np.abs(vals - lam) <= 1e-9]
        masses = [eigenvector_gamma_mass(phi, mask, h0.site_list()) for phi in ker.T]
        if any(m > 1e-8 for m in masses):
            largest = np.linalg.norm(ker[gamma_rows], 2)
            with pytest.raises(ValueError, match=f"has Gamma mass {largest:.3g}$"):
                wegner_preconditions(ens, lam, [])
        else:
            assert wegner_preconditions(ens, lam, [])["mult"] == ker.shape[1]
    offenders = [
        s
        for s in box.sites()
        if any(c in (a, b) for c, a, b in zip(s, box.lo, box.hi)) and s not in mask
    ]
    if offenders:
        with pytest.raises(ValueError) as exc:
            wegner_uniform_bound_probe(ens, [1.0], [0.1], 0.5)
        assert str(exc.value) == f"inner boundary site {offenders[0]} is outside Gamma"
    else:
        assert len(wegner_uniform_bound_probe(ens, [1.0], [0.1], 0.5)["rows"]) == 1
