from __future__ import annotations

import numpy as np
import pytest

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
)
from trimlab.operators import assemble


def test_compact_report_3x3_oracle():
    box = make_box(2, (1, 1), (3, 3))
    h0 = assemble(box, Gamma1Mask(2, 2), None, 0.0, None)
    rep = compact_eigenfunctions(h0, Gamma1Mask(2, 2), 4.0)
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
    rep = compact_eigenfunctions(h0, FullMask(), 2.0)
    assert rep.supported_dim == 0
    with pytest.raises(ValueError):
        compact_eigenfunctions(h0, FullMask(), 1.0)
    # isolated complement site: delta vector at the isolated-site energy 2d
    box2 = make_box(2, (1, 1), (1, 1))
    h2 = assemble(box2, Gamma1Mask(2, 2), None, 0.0, None)
    rep2 = compact_eigenfunctions(h2, Gamma1Mask(2, 2), 4.0)
    assert rep2.supported_dim == 1 and rep2.full_mult == 1


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
    assert fn.sampler((1, 1)) == pytest.approx(1.0)
    assert fn.sampler((1, 3)) == pytest.approx(-1.0)
    assert fn.sampler((3, 3)) == pytest.approx(1.0)
    assert fn.sampler((2, 5)) == pytest.approx(0.0, abs=1e-12)


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
    assert max(abs(fn.sampler(s)) for s in window.sites()) > 0.1


def test_gamma2_k2_alternating():
    fn = gamma2_eigenfunction(2)
    # complement sites are {x1 odd, x2 even}; signs alternate both ways
    base = fn.sampler((1, 0))
    assert abs(base) > 0.1
    assert fn.sampler((1, 2)) == pytest.approx(-base)
    assert fn.sampler((3, 0)) == pytest.approx(-base)
    assert fn.sampler((1, 1)) == 0.0


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
