from __future__ import annotations

import re

import numpy as np
import pytest

from trimlab.disorder import SampleStream, Uniform, sample_potential
from trimlab.lattice import FullMask, Gamma1Mask, Gamma2Mask, make_box
from trimlab.operators import (
    DENSE_LIMIT,
    assemble,
    hedgehog_assemble,
    laplacian_matrix,
    restrict,
    trimmed_restriction,
)


def test_laplacian_entries():
    box = make_box(2, (0, 0), (2, 2))
    h = laplacian_matrix(box)
    assert np.all(np.diag(h) == 4.0)  # full-lattice diagonal kept
    i, j = box.index((0, 0)), box.index((0, 1))
    assert h[i, j] == -1.0
    assert h[i, box.index((1, 1))] == 0.0
    np.testing.assert_array_equal(h, h.T)


def test_laplacian_d1_spectrum():
    # chain with kept diagonal 2: eigenvalues 2 - 2 cos(pi k / (n+1))
    box = make_box(1, (0,), (4,))
    h = laplacian_matrix(box)
    n = 5
    expected = sorted(2.0 - 2.0 * np.cos(np.pi * k / (n + 1)) for k in range(1, n + 1))
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def _laplacian_loop(box):
    # per-site reference: -1 between each site and its +e_k neighbor
    h = np.zeros((box.size, box.size))
    np.fill_diagonal(h, 2.0 * box.dim)
    for i, x in enumerate(box.sites()):
        for k in range(box.dim):
            y = x[:k] + (x[k] + 1,) + x[k + 1 :]
            if y in box:
                h[i, box.index(y)] = h[box.index(y), i] = -1.0
    return h


@pytest.mark.parametrize(
    "lo, hi",
    [
        ((0,), (0,)),
        ((-2,), (5,)),
        ((1, 1), (4, 6)),
        ((0, 3), (0, 7)),
        ((0, 0, 0), (2, 3, 1)),
        ((5, 5, 5), (5, 5, 5)),
    ],
)
def test_laplacian_matches_loop_oracle(lo, hi):
    box = make_box(len(lo), lo, hi)
    h = laplacian_matrix(box)
    assert h.dtype == np.float64
    np.testing.assert_array_equal(h, _laplacian_loop(box))


def test_dense_limit_enforced():
    with pytest.raises(ValueError):
        laplacian_matrix(make_box(2, (0, 0), (99, 99)))
    assert DENSE_LIMIT == 6000


def test_assemble_diagonal_and_support():
    box = make_box(2, (1, 1), (3, 3))
    mask = Gamma1Mask(2, 2)
    v = sample_potential(SampleStream(Uniform(), 0), mask, box, 0)
    ham = assemble(box, mask, 1.5, 2.0, v)
    for i, s in enumerate(box.sites()):
        assert ham.matrix[i, i] == pytest.approx(4.0 + 1.5 + 2.0 * v[i])
    # potential nonzero off Gamma is rejected
    bad = np.ones(box.size)
    with pytest.raises(ValueError):
        assemble(box, mask, None, 1.0, bad)


def test_assemble_v0_variants():
    box = make_box(1, (0,), (3,))
    vec = np.array([0.0, 1.0, 2.0, 3.0])
    by_vec = assemble(box, FullMask(), vec, 0.0, None)
    np.testing.assert_array_equal(np.diag(by_vec.matrix), 2.0 + vec)
    by_number = assemble(box, FullMask(), 0.5, 0.0, None)
    np.testing.assert_array_equal(np.diag(by_number.matrix), np.full(4, 2.5))
    with pytest.raises(ValueError):
        assemble(box, FullMask(), np.zeros(3), 0.0, None)


def test_restrict_keeps_diagonal():
    box = make_box(2, (0, 0), (3, 3))
    ham = assemble(box, FullMask(), None, 0.0, None)
    sub = restrict(ham, [(0, 0), (0, 1), (1, 0)])
    # restriction drops hops, not the diagonal 2d
    assert np.all(np.diag(sub.matrix) == 4.0)
    assert sub.matrix[0, 1] == -1.0  # (0,0) ~ (0,1)
    assert sub.n == 3


def test_trimmed_restriction_gamma1_22():
    for n in (3, 5, 9):
        box = make_box(2, (1, 1), (n, n))
        ham = assemble(box, Gamma1Mask(2, 2), None, 0.0, None)
        tr = trimmed_restriction(ham)
        vals = np.linalg.eigvalsh(tr.matrix)
        np.testing.assert_allclose(vals, 4.0, atol=1e-12)


def test_trimmed_restriction_gamma2_isolated():
    box = make_box(2, (0, 0), (7, 7))
    ham = assemble(box, Gamma2Mask(3), None, 0.0, None)
    tr = trimmed_restriction(ham)
    np.testing.assert_allclose(np.linalg.eigvalsh(tr.matrix), 4.0, atol=1e-12)


def test_trimmed_restriction_full_mask_errors():
    box = make_box(1, (0,), (3,))
    ham = assemble(box, FullMask(), None, 0.0, None)
    with pytest.raises(ValueError, match="empty complement"):
        trimmed_restriction(ham)


def test_assemble_off_gamma_error_names_site():
    box = make_box(2, (1, 1), (3, 3))
    v = np.zeros(box.size)
    v[box.index((2, 2))] = 1.0  # on Gamma1(2, 2)
    v[box.index((3, 1))] = 1.0  # off Gamma: the first offending site
    v[box.index((3, 3))] = 1.0  # off Gamma
    with pytest.raises(ValueError, match=r"off Gamma at \(3, 1\)"):
        assemble(box, Gamma1Mask(2, 2), None, 1.0, v)


def test_restrict_of_a_restriction():
    box = make_box(2, (0, 0), (3, 3))
    v = sample_potential(SampleStream(Uniform(), 2), FullMask(), box, 0)
    ham = assemble(box, FullMask(), None, 1.0, v)
    outer = [s for s in box.sites() if s != (1, 1)]
    inner = [(0, 0), (1, 2), (2, 1), (3, 3)]
    twice = restrict(restrict(ham, outer), inner)
    once = restrict(ham, inner)
    np.testing.assert_array_equal(twice.matrix, once.matrix)
    assert twice.sites == once.sites


def test_row_lookup_of_whole_box_and_restrictions():
    box = make_box(2, (0, 0), (3, 2))
    ham = assemble(box, FullMask())
    sub = restrict(ham, [(3, 2), (0, 0), (2, 1), (1, 1)])
    inner = restrict(sub, [(2, 1), (3, 2)])
    assert ham.rows([(3, 2), (0, 1)]).tolist() == [box.index((3, 2)), 1]
    assert sub.rows([(3, 2), (0, 0), (1, 1)]).tolist() == [3, 0, 1]
    assert inner.rows([(3, 2)]).tolist() == [1]
    assert sub.box_index.tolist() == [box.index(s) for s in sub.site_list()]
    assert ham.rows([]).tolist() == []
    for h, site in ((ham, (4, 0)), (ham, (0, -1)), (sub, (0, 1)), (inner, (0, 0))):
        message = re.escape(f"site {site} not in the operator's region")
        with pytest.raises(ValueError, match=message):
            h.rows([h.site_list()[0], site])  # names the outside site
        with pytest.raises(ValueError, match=message):
            restrict(h, [site])
    for sites in ([(0, 0, 0), (1, 1, 1)], [(0, 0, 0)], [(0,)]):
        with pytest.raises(ValueError, match="2-dimensional"):
            ham.rows(sites)


def test_hedgehog_structure():
    box = make_box(1, (0,), (2,))
    h0 = assemble(box, FullMask(), None, 0.0, None)
    u = np.array([1.0, 2.0, 3.0])
    hh = hedgehog_assemble(h0, u)
    n = 3
    np.testing.assert_array_equal(hh[:n, :n], np.diag(u))
    np.testing.assert_array_equal(hh[:n, n:], -np.eye(n))
    np.testing.assert_array_equal(hh[n:, n:], h0.matrix)
    np.testing.assert_array_equal(hh, hh.T)
    # complex potentials keep complex symmetry (not hermiticity)
    hc = hedgehog_assemble(h0, u + 1j)
    np.testing.assert_array_equal(hc, hc.T)
    with pytest.raises(ValueError):
        hedgehog_assemble(h0, np.ones(2))
