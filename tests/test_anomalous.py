from __future__ import annotations

import numpy as np
import pytest

import trimlab.anomalous as anomalous
from trimlab.anomalous import (
    assumption_scan,
    compact_eigenfunctions,
    gamma1_eigenfunction,
    gamma2_eigenfunction,
)
from trimlab.lattice import (
    FullMask,
    Gamma1Mask,
    ball,
    make_box,
    mask_from_descriptor,
)
from trimlab.operators import assemble
from trimlab.spectral import eigendecompose

from oracles import eigenvector_gamma_mass, periodic_window_checks


def _compact(h0, mask, lam):
    return compact_eigenfunctions(h0, eigendecompose(h0), mask, lam)


def _at(fn, site):
    """psi at one site, read through `values` on a one-site box."""
    return fn.values(make_box(2, site, site))[0, 0]


def test_compact_report_3x3_oracle():
    box = make_box(2, (1, 1), (3, 3))
    h0 = assemble(box, Gamma1Mask(2, 2), None, 0.0, None)
    rep = _compact(h0, Gamma1Mask(2, 2), 4.0)
    assert rep.full_mult == 3
    assert rep.supported_dim == 1
    assert not rep.assumption3
    # the supported vector is the corner checkerboard (1,-1,-1,1)/2
    phi = rep.basis[:, 0]
    corners = {(1, 1): 0.5, (1, 3): -0.5, (3, 1): -0.5, (3, 3): 0.5}
    sign = np.sign(phi[box.index((1, 1))]) or 1.0
    for s, val in corners.items():
        assert sign * phi[box.index(s)] == pytest.approx(val, abs=1e-10)


def test_compact_report_trivial_cases():
    box = make_box(1, (0,), (2,))
    h0 = assemble(box, FullMask(), None, 0.0, None)
    rep = _compact(h0, FullMask(), 2.0)
    assert rep.supported_dim == 0
    with pytest.raises(ValueError):
        _compact(h0, FullMask(), 1.0)
    # isolated complement site: delta vector at the isolated-site energy 2d
    box2 = make_box(2, (1, 1), (1, 1))
    h2 = assemble(box2, Gamma1Mask(2, 2), None, 0.0, None)
    rep2 = _compact(h2, Gamma1Mask(2, 2), 4.0)
    assert rep2.supported_dim == 1 and rep2.full_mult == 1
    # README's `wegner` box: the eigenvector at E = 4 has Gamma mass 1.7e-16,
    # which a cut relative to the largest singular value counted as rank
    h3 = assemble(make_box(2, (1, 1), (3, 1)), Gamma1Mask(2, 2), None, 0.0, None)
    rep3 = _compact(h3, Gamma1Mask(2, 2), 4.0)
    assert (rep3.full_mult, rep3.supported_dim) == (1, 1) and rep3.assumption3
    assert rep3.gamma_mass < 1e-15


CLUSTER_MASKS = ["gamma1:2,2", "gamma1:3,2", "gamma2:3", "gamma2:2", "cell:2x2:1000"]


@pytest.mark.parametrize("descriptor", CLUSTER_MASKS)
def test_compact_rule_agrees_with_per_vector_gamma_mass(descriptor):
    # on every eigenvalue cluster of H(0) on boxes up to 7 x 7, assumption 3
    # holds exactly when every eigenvector has Gamma mass at most 1e-8
    mask = mask_from_descriptor(descriptor)
    for l1 in range(1, 8):
        for l2 in range(1, 8):
            h0 = assemble(make_box(2, (1, 1), (l1, l2)), mask, None, 0.0, None)
            sd = eigendecompose(h0)
            sites = h0.site_list()
            masses = np.array(
                [eigenvector_gamma_mass(phi, mask, sites) for phi in sd.eigenvectors.T]
            )
            for lam in sd.eigenvalues:
                cluster = np.abs(sd.eigenvalues - lam) <= 1e-9
                rep = compact_eigenfunctions(h0, sd, mask, lam)
                assert rep.assumption3 == bool(np.all(masses[cluster] <= 1e-8))
                if not rep.assumption3:  # the largest mass of a unit vector
                    assert rep.gamma_mass >= masses[cluster].max() - 1e-12


def test_gamma1_energy_formula():
    fn = gamma1_eigenfunction(3, 2, 1, 1)
    assert fn.lam == pytest.approx(3.0, abs=1e-12)
    fn2 = gamma1_eigenfunction(2, 2, 1, 1)
    assert fn2.lam == pytest.approx(4.0)
    with pytest.raises(ValueError):
        gamma1_eigenfunction(2, 2, 2, 1)
    # symmetry in swapping the two factors
    for k, m, a, b in [(3, 4, 2, 1), (5, 2, 3, 1)]:
        assert gamma1_eigenfunction(k, m, a, b).lam == pytest.approx(
            gamma1_eigenfunction(m, k, b, a).lam, abs=1e-12
        )


def test_gamma1_pattern_22():
    fn = gamma1_eigenfunction(2, 2, 1, 1)
    assert _at(fn, (1, 1)) == pytest.approx(1.0)
    assert _at(fn, (1, 3)) == pytest.approx(-1.0)
    assert _at(fn, (3, 3)) == pytest.approx(1.0)
    assert _at(fn, (2, 5)) == pytest.approx(0.0, abs=1e-12)
    assert fn.cell.shape == (4, 4)


@pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (4, 5), (5, 5)])
def test_gamma1_window_residuals(k, m):
    window = make_box(2, (0, 0), (4 * k, 4 * m))
    for a in range(1, k):
        for b in range(1, m):
            fn = gamma1_eigenfunction(k, m, a, b)
            assert fn.window_residual(window) <= 1e-12
            assert fn.max_mask_value(window) <= 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gamma2_constructions(k):
    fn = gamma2_eigenfunction(k)
    assert fn.lam == 4.0
    window = make_box(2, (0, 0), (4 * k + 2, 4 * k + 2))
    assert fn.window_residual(window) <= 1e-10
    assert fn.max_mask_value(window) == 0.0
    # the function is not identically zero
    assert np.max(np.abs(fn.values(window))) > 0.1


def test_gamma2_k2_alternating():
    fn = gamma2_eigenfunction(2)
    # complement sites are {x1 odd, x2 even}; signs alternate both ways
    base = _at(fn, (1, 0))
    assert abs(base) > 0.1
    assert _at(fn, (1, 2)) == pytest.approx(-base)
    assert _at(fn, (3, 0)) == pytest.approx(-base)
    assert _at(fn, (1, 1)) == 0.0


# windows off the origin, with negative coordinates, and one too thin to
# have an interior
ORACLE_WINDOWS = [
    make_box(2, (-3, -5), (8, 6)),
    make_box(2, (-11, -2), (-1, 9)),
    make_box(2, (4, -7), (13, 3)),
    make_box(2, (-2, 0), (-1, 5)),
]


def _assert_matches_oracle(fn):
    for window in ORACLE_WINDOWS:
        resid, on_mask = periodic_window_checks(fn, window)
        assert abs(fn.window_residual(window) - resid) <= 1e-15
        assert abs(fn.max_mask_value(window) - on_mask) <= 1e-15


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_gamma1_arrays_match_per_site_oracle(k, m):
    for a in range(1, k):
        for b in range(1, m):
            _assert_matches_oracle(gamma1_eigenfunction(k, m, a, b))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gamma2_arrays_match_per_site_oracle(k):
    _assert_matches_oracle(gamma2_eigenfunction(k))


def test_gamma2_invalid_index():
    with pytest.raises(ValueError):
        gamma2_eigenfunction(2, index=99)
    with pytest.raises(ValueError):
        gamma2_eigenfunction(1)


def test_assumption_scan_gamma1():
    box = make_box(2, (1, 1), (5, 5))
    candidates = [tuple(box.sites())]
    reports = assumption_scan(
        Gamma1Mask(2, 2), (3, 3), 4.0, candidates, big_c=2.0, small_c=0.5
    )
    rep = reports[0]
    assert rep["applicable"]
    assert not rep["assumption3"]["holds"]
    assert rep["assumption3"]["supported_dim"] < rep["assumption3"]["full_mult"]


def test_assumption_scan_eigendecomposes_once_per_candidate(monkeypatch):
    calls = []

    def counted(h):
        calls.append(h)
        return eigendecompose(h)

    monkeypatch.setattr(anomalous, "eigendecompose", counted)
    candidates = [tuple(make_box(2, (1, 1), (5, n)).sites()) for n in (5, 6)]
    reports = assumption_scan(
        Gamma1Mask(2, 2), (3, 3), 4.0, candidates, big_c=2.0, small_c=0.5
    )
    assert [rep["applicable"] for rep in reports] == [True, True]
    assert len(calls) == len(candidates)


def test_assumption_scan_degenerate_candidate():
    reports = assumption_scan(
        Gamma1Mask(2, 2), (1, 1), 4.0, [[(1, 1)]], big_c=2.0, small_c=0.5
    )
    assert not reports[0]["applicable"]


def test_assumption_scan_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        assumption_scan(
            Gamma1Mask(2, 2),
            (1, 1),
            4.0,
            [[(1, 1), (3, 3)]],
            big_c=2.0,
            small_c=0.5,
        )


def _radii_loop(x, cand):
    # the shell-by-shell scan of the inner radius that assumption_scan
    # replaced: R grows while the whole l1 sphere of radius R + 1 lies in B
    def dist(s):
        return sum(abs(a - b) for a, b in zip(x, s))

    pool, r_in = set(cand), 0
    while all(s in pool for s in ball(x, r_in + 1) if dist(s) == r_in + 1):
        r_in += 1
    return r_in, max(dist(s) for s in cand)


@pytest.mark.parametrize(
    "x, cand",
    [
        ((0, 0), ball((0, 0), 4)),
        ((1, 0), ball((0, 0), 4)),
        ((3, 3), list(make_box(2, (1, 1), (7, 5)).sites())),
        ((2, 2), [s for s in ball((0, 0), 5) if s != (3, 0)]),
        ((0, 0), list(make_box(2, (-3, -3), (3, 0)).sites()) + [(0, 1), (0, 2)]),
        ((0, 0, 0), ball((0, 0, 0), 2)),
    ],
)
def test_assumption_scan_radii_match_shell_scan(x, cand):
    rep = assumption_scan(FullMask(), x, 4.0, [cand], big_c=2.0, small_c=0.5)[0]
    assert (rep["R"], rep["R_out"]) == _radii_loop(x, cand)


def test_trimmed_spectrum_matches_anomalous_energy():
    # cross-check: the grid mask's trimmed spectrum is exactly the
    # single anomalous energy of the (2,2) construction
    fn = gamma1_eigenfunction(2, 2, 1, 1)
    for n in (5, 9):
        box = make_box(2, (1, 1), (n, n))
        from trimlab.operators import trimmed_restriction

        tr = trimmed_restriction(assemble(box, Gamma1Mask(2, 2), None, 0.0, None))
        vals = np.linalg.eigvalsh(tr.matrix)
        assert np.allclose(vals, fn.lam, atol=1e-12)
