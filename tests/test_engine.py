"""The chunked, stacked Monte Carlo engine against the scalar routes it
replaced, one realization at a time: `mc_map` against pivoted LU of the
whole operator, the slice recursion of the chi estimates against the
same LU and against an eigen oracle, the eigenpair fold of Gamma^c
against dense products, and the Wegner statistics, the uniform resolvent
probe and the dynamics rows against per-realization `eigh` and SVD."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimlab import fracmoment, spectral
from trimlab.disorder import BernoulliMixture, Uniform
from trimlab.dynamics import _distance_powers, _Factored, dynamics_samples
from trimlab.fracmoment import (
    DecayMetric,
    EnsembleSpec,
    ResampleBudgetExceeded,
    mc_chi_green,
    mc_map,
    wegner_count,
    wegner_preconditions,
    wegner_uniform_bound_probe,
)
from trimlab.lattice import (
    BernoulliMask,
    FullMask,
    Gamma1Mask,
    Gamma2Mask,
    PeriodicCellMask,
    components_of_complement,
    make_box,
    mask_vector,
)
from trimlab.operators import assemble
from trimlab.spectral import (
    SpectralParameterOnSpectrum,
    eigendecompose,
    fold_complement,
    green,
)

from oracles import _numpy_peak, dense_fold, eigen_sweep, eigenvector_gamma_mass

GEOMETRIES = [
    (make_box(1, (0,), (0,)), FullMask()),
    (make_box(1, (0,), (4,)), FullMask()),
    (make_box(2, (1, 1), (3, 2)), Gamma1Mask(2, 2)),
    (make_box(2, (0, 0), (4, 4)), Gamma2Mask(3)),
]

# GEOMETRIES plus Bernoulli and cell masks.  On both Bernoulli boxes Gamma^c
# has components of several sizes; on the second, the one-site component
# (4, 0) lies between rows of a six-site one.
FOLD_GEOMETRIES = GEOMETRIES + [
    (make_box(2, (0, 0), (5, 4)), BernoulliMask(0.5, 3)),
    (make_box(2, (1, 1), (4, 4)), PeriodicCellMask((2, 2), (True, False, False, True))),
    (make_box(2, (0, 0), (4, 4)), BernoulliMask(0.5, 7)),
]
# Gamma meets these boxes without covering them
TRIMMED_GEOMETRIES = FOLD_GEOMETRIES[2:]
# d = 1 chains of 30-40 sites, trimmed: W = 1 over many slices.  On the
# first, Gamma^c is every odd site, the chain's ends among them, so E = 2 is
# an eigenvalue of every realization.  They feed the tests against LU and
# the chunk-size tests, not the eigen oracle: its error is absolute, and G
# decays along a chain to entries of 6e-13, which it gets wrong by 9e-5
# relative, moving chi at s = 1/8 by 3e-8 relative.
CHAINS = [
    (make_box(1, (1,), (35,)), PeriodicCellMask((2,), (True, False))),
    (make_box(1, (-4,), (34,)), BernoulliMask(0.5, 5)),
]


def _whole(gs):
    """The (S, n, n) Green stack of a chunk, as `mc_map` hands it over."""
    return gs


def _scalar_greens(ens, z):
    """Per-sample Green matrices the scalar way, with the same resampling:
    a sample i colliding with z is redrawn as i + k * samples, k = 1, 2, ...,
    and at most 1 % of the samples may be resampled."""
    n = ens.samples
    budget = max(1, n // 100)
    greens, used = [], 0
    for i in range(n):
        k = 0
        while True:
            try:
                greens.append(green(ens.realization(i + k * n), z))
                break
            except SpectralParameterOnSpectrum:
                k += 1
                if used + k > budget:
                    raise ResampleBudgetExceeded(f"sample {i} kept colliding with z")
        used += k
    return greens, used


def _close(a, b) -> bool:
    return float(np.max(np.abs(a - b))) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(FOLD_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    re=st.floats(-1.0, 9.0),
    im=st.floats(0.05, 2.0),
    upper=st.booleans(),
    g=st.floats(0.5, 20.0),
)
def test_stacked_values_match_scalar_oracle(geometry, seed, samples, re, im, upper, g):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    z = complex(re, im if upper else -im)
    gs, n_resampled = mc_map(_whole, ens, z=z)
    assert gs.shape == (samples, box.size, box.size) and n_resampled == 0
    for i in range(samples):
        assert _close(gs[i], green(ens.realization(i), z))


def _slice_entries(box) -> int:
    """Complex entries per sample that sizes the chunks of the slice route."""
    n_l, n = box.shape[0], box.size
    w = n // n_l
    return n_l * w * w + 2 * w * n + 2 * n


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES + CHAINS),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 40),
    im=st.floats(0.05, 1.0),
    per_chunk=st.integers(1, 7),
)
def test_results_do_not_depend_on_chunk_size(geometry, seed, samples, im, per_chunk):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=seed, samples=samples)
    z = complex(4.0, im)
    rho = DecayMetric(0.1)
    gs, _ = mc_map(_whole, ens, z=z)
    (chi,) = mc_chi_green(ens, [z], 0.5, rho)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
        assert fracmoment.chunk_size(box.size**2) == per_chunk
        gs_small, _ = mc_map(_whole, ens, z=z)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * _slice_entries(box)):
        (chi_small,) = mc_chi_green(ens, [z], 0.5, rho)
    np.testing.assert_array_equal(gs_small, gs)
    assert (chi_small.value, chi_small.stderr) == (chi.value, chi.stderr)


# The chi estimates of the slice route against the same estimates from one
# whole-operator `green` per realization.


def _lu_chi(ens, z, s, rho) -> tuple[float, float]:
    """sup_x of the sample mean of sum_y e^{rho(y,x)} |G_z(y,x)|^s, with its
    standard error at the sup column, one `green` of the whole operator
    per realization."""
    w = rho.weight_matrix(ens.box.coords)
    sums = np.array(
        [
            np.sum(w * np.abs(green(ens.realization(i), z)) ** s, axis=0)
            for i in range(ens.samples)
        ]
    )
    means = np.mean(sums, axis=0)
    x = int(np.argmax(means))
    if ens.samples < 2:
        return float(means[x]), math.inf
    return float(means[x]), float(np.std(sums[:, x], ddof=1) / math.sqrt(ens.samples))


def _chi_close(report, oracle, rtol: float) -> bool:
    # the stderr is a difference of per-sample sums of the estimate's size,
    # so it carries their rounding: compare it on the estimate's scale
    value, se = oracle
    return abs(report.value - value) <= rtol * value and (
        report.stderr == se or abs(report.stderr - se) <= rtol * value
    )


# d = 1, 2, 3; one slice (L = 1) and one site per slice (W = 1); every mask kind
SLICE_GEOMETRIES = [
    (make_box(1, (0,), (0,)), FullMask()),
    (make_box(1, (-2,), (4,)), FullMask()),
    (make_box(1, (0,), (9,)), BernoulliMask(0.5, 1)),
    (make_box(1, (0,), (7,)), PeriodicCellMask((4,), (True, False, False, False))),
    (make_box(2, (3, 0), (3, 5)), Gamma1Mask(2, 2)),
    (make_box(2, (0, 1), (5, 1)), Gamma2Mask(3)),
    (make_box(2, (1, 1), (5, 4)), Gamma1Mask(2, 2)),
    (make_box(2, (-2, -1), (2, 3)), Gamma2Mask(3)),
    (make_box(2, (0, 0), (5, 4)), BernoulliMask(0.5, 3)),
    (make_box(2, (1, 1), (4, 4)), PeriodicCellMask((2, 2), (True, False, False, True))),
    (make_box(3, (0, 0, 0), (2, 1, 2)), FullMask()),
    (make_box(3, (0, 0, 0), (2, 2, 1)), BernoulliMask(0.5, 2)),
    (make_box(3, (0, 0, 0), (1, 2, 2)), PeriodicCellMask((2, 2, 2), (True, False) * 4)),
    *CHAINS,
]


def _v0(kind: str, box, seed: int):
    if kind == "number":
        return 0.7
    if kind == "vector":
        return np.random.default_rng(seed).uniform(-1.0, 1.0, box.size)
    return None


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(SLICE_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 6),
    v0=st.sampled_from(["none", "number", "vector"]),
    energy=st.one_of(st.just("2d"), st.floats(-1.0, 9.0)),
    eps=st.floats(1e-6, 1.0),
    upper=st.booleans(),
    s=st.floats(0.0, 1.0, exclude_min=True),
    g=st.floats(0.5, 20.0),
)
def test_slice_route_matches_per_realization_green(
    geometry, seed, samples, v0, energy, eps, upper, s, g
):
    box, mask = geometry
    ens = EnsembleSpec(
        box, mask, Uniform(), g, v0=_v0(v0, box, seed), master_seed=seed, samples=samples
    )
    re = 2.0 * box.dim if energy == "2d" else energy
    rho = DecayMetric(0.1)
    z = complex(re, eps if upper else -eps)
    (report,) = mc_chi_green(ens, [z], s, rho)
    assert _chi_close(report, _lu_chi(ens, z, s, rho), 1e-10)
    assert report.params["z"] == z and report.samples == samples
    # the same z after another one in a list, sharing its draws
    _, listed = mc_chi_green(ens, [z + 1.0, z], s, rho)
    assert (listed.value, listed.stderr) == (report.value, report.stderr)


@pytest.mark.parametrize("v0", ["none", "number", "vector"])
@pytest.mark.parametrize("geometry", SLICE_GEOMETRIES)
def test_realization_builds_agree_bit_for_bit(geometry, v0):
    # every build of H(g) on a box: the dense stacks, the slice blocks and
    # the kernel identity's own H, against `ens.realization`, two samples
    # per chunk so that a later chunk reuses what an earlier one wrote
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, v0=_v0(v0, box, 3), master_seed=3, samples=5)
    hs = np.array([ens.realization(i).matrix for i in range(ens.samples)])
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", 2 * box.size**2):
        stacks = [h.copy() for _, _, h in fracmoment._operator_stacks(ens)]
    np.testing.assert_array_equal(np.concatenate(stacks), hs)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", 2 * _slice_entries(box)):
        blocks = np.concatenate([a.copy() for a in fracmoment._slice_blocks(ens)])
    w = box.size // box.shape[0]
    for k in range(box.shape[0]):
        cut = slice(k * w, (k + 1) * w)
        np.testing.assert_array_equal(blocks[:, k], hs[:, cut, cut])
    z = 4.0 + 0.1j
    for i in range(ens.samples):
        own = fracmoment.kernel_identity_residual(ens, z, i)
        assert own == fracmoment.kernel_identity_residual(
            ens, z, i, green(ens.realization(i), z)
        )


# E = 2d is an eigenvalue of H(0) on every one-site component of Gamma^c,
# and of every realization on the gamma1 box and the first chain.  Folding
# Gamma^c out of G_z there divided by eps and cancelled: on the gamma2 and
# Bernoulli boxes the fold was off by about 1e-6 at eps = 1e-6 and by
# 40-100 % at eps = 1e-9.
ACCURACY_GEOMETRIES = [
    (make_box(2, (1, 1), (9, 7)), Gamma2Mask(3)),
    (make_box(2, (1, 1), (7, 7)), BernoulliMask(0.5, 3)),
    (make_box(2, (1, 1), (9, 7)), Gamma1Mask(2, 2)),
    *CHAINS,
]


@pytest.mark.parametrize("geometry", ACCURACY_GEOMETRIES)
def test_sweep_is_accurate_at_the_trimmed_spectrum(geometry):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=3, samples=7)
    e = 2.0 * box.dim
    zs, s, rho = [e + 1e-6j, e + 1e-9j], 1.0 / 3.0, DecayMetric(0.1)
    for report, z in zip(mc_chi_green(ens, zs, s, rho), zs, strict=True):
        assert _chi_close(report, _lu_chi(ens, z, s, rho), 1e-10)


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(TRIMMED_GEOMETRIES + CHAINS),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 40),
    im=st.floats(0.05, 1.0),
    upper=st.booleans(),
    per_chunk=st.integers(1, 7),
)
def test_folded_results_do_not_depend_on_chunk_size(
    geometry, seed, samples, im, upper, per_chunk
):
    # the trimmed FOLD_GEOMETRIES: `mc_map`'s whole-operator stacks, and the
    # slice route with one draw per chunk
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=seed, samples=samples)
    z = complex(4.0, im if upper else -im)
    rho = DecayMetric(0.1)
    gs, _ = mc_map(_whole, ens, z=z)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
        assert fracmoment.chunk_size(box.size**2) == per_chunk
        gs_small, _ = mc_map(_whole, ens, z=z)
    np.testing.assert_array_equal(gs_small, gs)
    (chi,) = mc_chi_green(ens, [z], 0.5, rho)
    draws = []
    real_draw = fracmoment.sample_potential

    def counting(*args):
        draws.append(len(args[-1]))
        return real_draw(*args)

    with (
        mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * _slice_entries(box)),
        mock.patch.object(fracmoment, "sample_potential", counting),
    ):
        (chi_small,) = mc_chi_green(ens, [z], 0.5, rho)
    assert draws == [min(per_chunk, samples - k) for k in range(0, samples, per_chunk)]
    assert (chi_small.value, chi_small.stderr) == (chi.value, chi.stderr)


@pytest.mark.parametrize("geometry", TRIMMED_GEOMETRIES + CHAINS)
def test_slice_rows_give_every_entry(geometry):
    # rows of blocks G_{i,0..i} and the symmetry of G give every entry of
    # every realization's G_z
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=3, samples=2)
    z, w = 4.0 + 0.1j, box.size // box.shape[0]
    (a,) = fracmoment._slice_blocks(ens)
    gs = np.zeros((2, box.size, box.size), dtype=complex)
    for i, row in enumerate(spectral.slice_green_rows(a, z)):
        gs[:, i * w : (i + 1) * w, : (i + 1) * w] = row
        gs[:, : i * w, i * w : (i + 1) * w] = row[:, :, : i * w].swapaxes(1, 2)
    for i in range(2):
        assert _close(gs[i], green(ens.realization(i), z))


@pytest.mark.parametrize("geometry", [GEOMETRIES[0], CHAINS[0]])
def test_one_site_slices_make_no_lapack_inverse(geometry):
    # W = 1 divides elementwise: a LAPACK fallback fails here
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=3, samples=3)
    z = 2.0 + 0.1j
    (a,) = fracmoment._slice_blocks(ens)
    lapack = AssertionError("numpy.linalg.inv on a one-site slice")
    with mock.patch.object(np.linalg, "inv", side_effect=lapack):
        rows = [row.copy() for row in spectral.slice_green_rows(a, z)]
    for i in range(3):
        g = green(ens.realization(i), z)
        assert all(_close(row[i, 0], g[k, : k + 1]) for k, row in enumerate(rows))


@pytest.mark.parametrize("n_l", [1, 3])
def test_singular_one_site_block_raises_like_lapack(n_l):
    # a 1 x 1 block equal to z: the same LinAlgError as a singular W x W
    # block, before any row is written, and no RuntimeWarning
    z = 2.0 + 0.5j
    a = np.full((2, n_l, 1, 1), 1.0 - 0.5j)
    a[:, -1] = z
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(np.linalg.LinAlgError) as exc:
            rows.extend(spectral.slice_green_rows(a, z))
    assert str(exc.value) == f"Singular matrix at z = {z}, slice {n_l - 1}"
    assert rows == []


def test_one_site_overflow_is_silent():
    # 1 / (-1e-310 i) overflows, silently as in `numpy.linalg.inv` (which
    # gives nan here): the non-finite chi check names the failure
    a = np.full((1, 1, 1, 1), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (row,) = spectral.slice_green_rows(a, 2.0 + 1e-310j)
    assert not np.isfinite(row).any()


def _rows_by_whole_products(a, z):
    # the recursion with a fresh array per row and one product for the
    # whole of it, as the rows were made before each was written over the
    # last in place, one slab of columns at a time; each diagonal block by
    # the Dyson update G_ii = gR_i + G_{i,i-1} gR_i
    n_l, w = a.shape[1], a.shape[-1]
    inv = np.linalg.inv if w > 1 else spectral._reciprocal
    zi = np.zeros((w, w), dtype=complex)
    np.fill_diagonal(zi, z)
    gr = [None] * n_l
    for i in range(n_l - 1, -1, -1):
        m = a[:, i] - zi
        gr[i] = inv(m - gr[i + 1] if i + 1 < n_l else m)
    rows = [gr[0]]
    for i in range(1, n_l):
        row = np.empty((len(a), w, (i + 1) * w), dtype=complex)
        np.matmul(gr[i], rows[-1], out=row[:, :, : i * w])
        row[:, :, i * w :] = gr[i] + row[:, :, (i - 1) * w : i * w] @ gr[i]
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "n_l, w, samples",
    # one slice; a chain; one slab per row; rows of two and of four slabs
    # (samples 2); a row of two slabs and one column, which the last slab
    # takes, because numpy hands a one-column product to gemv
    [(1, 4, 1), (7, 1, 2), (5, 3, 1), (40, 13, 1), (30, 21, 2), (44, 19, 1)],
)
def test_slice_rows_are_those_of_one_product_per_row(n_l, w, samples):
    # bit for bit: BLAS tiles each slab's product as it tiles the whole row's
    rng = np.random.default_rng(n_l * w)
    a = rng.uniform(-3.0, 8.0, (samples, n_l, w, w))
    a = (a + a.swapaxes(-1, -2)) / 2
    z = 4.0 + 1e-3j
    rows = [row.copy() for row in spectral.slice_green_rows(a, z)]
    expected = _rows_by_whole_products(a, z)
    assert len(rows) == n_l
    for row, want in zip(rows, expected, strict=True):
        assert row.shape == want.shape and np.array_equal(row, want)
    # a caller's buffer of exactly one row per matrix, its stale values
    # never read, serves a second z as well
    buf = np.full((samples, w, n_l * w), np.nan, dtype=complex)
    for z in (z, 3.0 - 0.1j):
        rows = [row.copy() for row in spectral.slice_green_rows(a, z, buf)]
        expected = _rows_by_whole_products(a, z)
        assert len(rows) == n_l
        for row, want in zip(rows, expected, strict=True):
            assert row.shape == want.shape and np.array_equal(row, want)


# The eigenpair fold that `TrimmedSplit.kernel` reads against the dense
# oracle: Gamma meets each box without covering it.  FOLD_GEOMETRIES'
# trimmed boxes, plus an all-singleton Gamma^c (gamma1), one large component
# (Gamma a 3 x 3 sublattice), components that touch the box faces, and
# d = 1 and 3.
FOLD_ORACLE_GEOMETRIES = TRIMMED_GEOMETRIES + [
    (make_box(2, (0, 0), (6, 5)), Gamma1Mask(2, 2)),
    (make_box(2, (0, 0), (6, 6)), PeriodicCellMask((3, 3), (True,) + (False,) * 8)),
    (make_box(1, (0,), (11,)), PeriodicCellMask((4,), (True, False, False, False))),
    (make_box(1, (0,), (9,)), BernoulliMask(0.5, 1)),
    (make_box(3, (0, 0, 0), (2, 3, 2)), BernoulliMask(0.5, 2)),
    (make_box(3, (0, 0, 0), (2, 2, 3)), PeriodicCellMask((2, 2, 2), (True, False) * 4)),
]


def _component_order(box, mask):
    return box.indices([x for c in components_of_complement(mask, box) for x in c])


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(FOLD_ORACLE_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 4),
    re=st.floats(-1.0, 9.0),
    im=st.floats(0.05, 2.0),
    upper=st.booleans(),
    by_component=st.booleans(),
)
def test_component_fold_matches_dense_oracle(
    geometry, seed, samples, re, im, upper, by_component
):
    box, mask = geometry
    on_gamma = mask_vector(mask, box)
    assert on_gamma.any() and not on_gamma.all()
    h = assemble(box, mask, None, 0.0, None).matrix
    gamma = np.flatnonzero(on_gamma)
    # component order or index order: the fold is exact in either
    comp = _component_order(box, mask) if by_component else np.flatnonzero(~on_gamma)
    z = complex(re, im if upper else -im)
    s = fold_complement(h, gamma, comp, z, eigendecompose(h[np.ix_(comp, comp)]))
    assert _close(s, dense_fold(h, gamma, comp, z)[2])
    # G_{Gamma Gamma} = G_z[H_{Gamma Gamma} - S] for any potential on Gamma
    v = np.random.default_rng(seed).uniform(0.0, 10.0, (samples, len(gamma)))
    hv = np.tile(h, (samples, 1, 1))
    hv[:, gamma, gamma] += v
    whole = np.linalg.inv(hv - z * np.eye(box.size))[:, gamma[:, None], gamma]
    hgg = hv[:, gamma[:, None], gamma]
    assert _close(np.linalg.inv(hgg - s - z * np.eye(len(gamma))), whole)


# A narrow two-atom mixture: z collides (within 1e-12 ||H||) with every
# realization in one atom configuration and misses the others by > 0.3.
#   one site: H = 2 + V, z = 3 hits the atom at 1 (probability p);
#   two sites: H = [[2 + V1, -1], [-1, 2 + V2]], z = 1 hits V = (0, 0).
RESAMPLING = [
    (make_box(1, (0,), (0,)), BernoulliMixture(0.004, 1e-12), 3.0),
    (make_box(1, (0,), (1,)), BernoulliMixture(0.94, 1e-12), 1.0),
]


@settings(max_examples=10, deadline=None)
@given(case=st.sampled_from(RESAMPLING), seed=st.integers(0, 2**32))
def test_resample_accounting_matches_scalar_rerun(case, seed):
    box, dist, z = case
    ens = EnsembleSpec(box, FullMask(), dist, 1.0, master_seed=seed, samples=1000)
    try:
        expected, k_expected = _scalar_greens(ens, z)
    except ResampleBudgetExceeded:
        with pytest.raises(ResampleBudgetExceeded):
            mc_map(_whole, ens, z=z)
        return
    gs, k = mc_map(_whole, ens, z=z)
    assert k == k_expected
    assert _close(gs, np.stack(expected))


@pytest.mark.parametrize("box, dist, z", RESAMPLING)
def test_resampling_within_budget(box, dist, z):
    ens = EnsembleSpec(box, FullMask(), dist, 1.0, master_seed=11, samples=1000)
    gs, k = mc_map(_whole, ens, z=z)
    expected, k_expected = _scalar_greens(ens, z)
    assert 0 < k == k_expected <= 10
    assert _close(gs, np.stack(expected))


# The z sweep of `localize` (one draw per chunk for every z) against the LU
# oracle, and against the eigen oracle, which reads every z off one
# eigendecomposition per realization.


def _sweep_matches(sweep, oracle) -> bool:
    # value and stderr at 1e-12 relative to the estimate; one sample has
    # stderr inf on both routes
    return all(
        _chi_close(a, (b.value, b.stderr), 1e-12) for a, b in zip(sweep, oracle, strict=True)
    )


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    re=st.floats(-1.0, 9.0),
    ims=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4),
    s=st.floats(0.1, 1.0),
    g=st.floats(0.5, 20.0),
)
def test_sweep_matches_lu_oracle(geometry, seed, samples, re, ims, s, g):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    zs = [complex(re, im) for im in ims]
    rho = DecayMetric(0.1)
    sweep = mc_chi_green(ens, zs, s, rho)
    assert all(
        _chi_close(r, _lu_chi(ens, z, s, rho), 1e-12) for r, z in zip(sweep, zs, strict=True)
    )
    assert all(r.params["z"] == z and r.samples == samples for r, z in zip(sweep, zs))


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES + CHAINS),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 40),
    ims=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=3),
    per_chunk=st.integers(1, 7),
)
def test_sweep_does_not_depend_on_chunk_size(geometry, seed, samples, ims, per_chunk):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=seed, samples=samples)
    zs = [complex(4.0, im) for im in ims]
    rho = DecayMetric(0.1)
    full = mc_chi_green(ens, zs, 0.5, rho)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * _slice_entries(box)):
        small = mc_chi_green(ens, zs, 0.5, rho)
    assert [(r.value, r.stderr) for r in small] == [(r.value, r.stderr) for r in full]


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(FOLD_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    re=st.floats(-1.0, 9.0),
    ims=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    s=st.floats(0.1, 1.0),
    g=st.floats(0.5, 20.0),
)
def test_eigen_oracle_matches_slice_route(geometry, seed, samples, re, ims, s, g):
    # covering and trimmed masks alike
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    zs = [complex(re, im) for im in ims]
    rho = DecayMetric(0.1)
    assert _sweep_matches(mc_chi_green(ens, zs, s, rho), eigen_sweep(ens, zs, s, rho))


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(TRIMMED_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    re=st.floats(-1.0, 9.0),
    ims=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3),
    s=st.floats(0.1, 1.0),
    g=st.floats(0.5, 20.0),
)
def test_eigen_sweep_on_trimmed_masks_matches_folded_lu(
    geometry, seed, samples, re, ims, s, g
):
    # the eigen oracle against `mc_chi_green` one z at a time, on the trimmed
    # masks that the slice recursion took over from the folded LU engine
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    zs = [complex(re, im) for im in ims]
    rho = DecayMetric(0.1)
    sweep = eigen_sweep(ens, zs, s, rho)
    assert _sweep_matches([mc_chi_green(ens, [z], s, rho)[0] for z in zs], sweep)


@pytest.mark.parametrize("mask", [Gamma1Mask(2, 2), BernoulliMask(0.5, 3)])
def test_folded_route_peak_does_not_exceed_eigen_route(mask):
    # the slice route, which took over from the folded route, against the
    # eigen oracle and against `mc_map`'s whole-operator LU
    box = make_box(2, (1, 1), (12, 12))
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=4, samples=10)
    zs, rho = [4.0 + 0.1j, 4.0 + 0.01j], DecayMetric(0.1)

    def whole_lu():
        w = rho.weight_matrix(box.coords)
        for z in zs:
            mc_map(lambda g: fracmoment._column_sums(w, np.abs(g) ** 0.5), ens, z)

    sliced = _numpy_peak(lambda: mc_chi_green(ens, zs, 0.5, rho))
    assert sliced <= _numpy_peak(lambda: eigen_sweep(ens, zs, 0.5, rho))
    assert sliced <= _numpy_peak(whole_lu)


def test_dynamics_peak_holds_one_realization_working_set():
    # numpy's arrays only (LAPACK's workspace is not traced): the stack,
    # the eigenvectors, B of the Laplace step and its transient w U, with
    # the kernel in row blocks and no chunk's eigenpairs kept past it
    box = make_box(2, (1, 1), (21, 21))
    ens = EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 5.0, master_seed=3, samples=3)
    x, n = box.site(box.size // 2), box.size
    peak = _numpy_peak(
        lambda: dynamics_samples(ens, x, 2.0, [0.5, 3.0], 4.0, 0.05, [0.1, 0.01])
    )
    assert peak <= 4.5 * n * n * 8


def test_slice_sums_peak_holds_no_complex_copy_of_the_blocks():
    # the gR_i and one row of blocks, L W**2 + W n complex entries, and a
    # copy of one slab, beside the real blocks, the weights and the
    # reductions: 2.06 units here, where a row with a quarter row of shift
    # beside it read 2.28 and two rows of blocks 3.06
    box = make_box(2, (1, 1), (21, 21))
    ens = EnsembleSpec(box, BernoulliMask(0.5, 3), Uniform(), 5.0, master_seed=3, samples=1)
    n_l, n = box.shape[0], box.size
    w = n // n_l
    peak = _numpy_peak(
        lambda: fracmoment._slice_sums(ens, [4.0 + 0.1j], 0.5, DecayMetric(0.1))
    )
    assert peak <= 2.2 * (n_l * w * w + w * n) * 16


def test_slice_sums_peak_does_not_grow_with_the_z():
    # each z's row and |G|^s are gone before the next z's pass begins, so
    # a second z adds only the first z's column sums, S n floats (3.8 kB
    # here with their objects), where a row and |G|^s kept alive added
    # 116 kB; the box's cached coordinates and mask are made beforehand
    box = make_box(2, (1, 1), (21, 21))
    ens = EnsembleSpec(box, BernoulliMask(0.5, 3), Uniform(), 5.0, master_seed=3, samples=1)
    rho = DecayMetric(0.1)
    fracmoment._slice_sums(ens, [4.0 + 0.1j], 0.5, rho)
    one = _numpy_peak(lambda: fracmoment._slice_sums(ens, [4.0 + 0.1j], 0.5, rho))
    two = _numpy_peak(
        lambda: fracmoment._slice_sums(ens, [4.0 + 0.1j, 4.0 + 0.01j], 0.5, rho)
    )
    assert two <= one + 2 * ens.samples * box.size * 8


@pytest.mark.parametrize(
    "zs", [[3.3, 4.0 + 0.1j], [4.0 + 0.1j, 3.0 - 0.1j], [4.0 + 0.1j, 3.3, 3.0 - 0.1j]]
)
def test_mixed_z_match_one_z_at_a_time(zs):
    # real z by whole-operator LU, non-real z by one shared slice pass; each
    # report as from a call with its z alone
    box, mask = GEOMETRIES[2]
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, samples=12)
    rho = DecayMetric(0.1)
    reports = mc_chi_green(ens, zs, 0.5, rho)
    assert [r.params["z"] for r in reports] == zs
    for report, z in zip(reports, zs, strict=True):
        (alone,) = mc_chi_green(ens, [z], 0.5, rho)
        assert (report.value, report.stderr, report.params) == (
            alone.value,
            alone.stderr,
            alone.params,
        )


def test_real_z_share_one_weight_matrix(monkeypatch):
    # two real z, two LU passes through `mc_map`, one n x n weight matrix;
    # each report as from a call with its z alone
    box, mask = GEOMETRIES[2]
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, samples=12)
    rho, zs = DecayMetric(0.1), [3.3, 2.9]
    alone = [mc_chi_green(ens, [z], 0.5, rho)[0] for z in zs]
    calls = []
    real = DecayMetric.weight_matrix
    monkeypatch.setattr(
        DecayMetric, "weight_matrix", lambda *a: calls.append(a) or real(*a)
    )
    reports = mc_chi_green(ens, zs, 0.5, rho)
    assert len(calls) == 1
    for report, one in zip(reports, alone, strict=True):
        assert (report.value, report.stderr, report.samples, report.params) == (
            one.value,
            one.stderr,
            one.samples,
            one.params,
        )


def test_slice_route_is_accurate_near_a_deterministic_pole():
    # `localize --box 1..11,1..11 --gamma gamma2:3 --epsilon 1e-9 --samples 20`
    # (g 5, s 1/3, eta 0.1, E 4, seed 0): the recursion alone gave
    # chi = 28328.963197687488 against 28329.265547661555 from
    # per-realization LU and exited 0; the Ward gauge sends the samples
    # it gets wrong to LU
    from trimlab import cli

    argv = ["localize", "--box", "1..11,1..11", "--gamma", "gamma2:3"]
    argv += ["--epsilon", "1e-9", "--samples", "20", "--out", "unused"]
    config = cli._load_config(cli._build_parser().parse_args(argv))
    ens, rho = cli._resolved(config, "localize")
    z, s = complex(config["energy"], 1e-9), config["s"]
    (report,) = mc_chi_green(ens, [z], s, rho)
    assert _chi_close(report, _lu_chi(ens, z, s, rho), 1e-10)


# The Ward gauge of the slice route: eps sum_y |G(x,y)|^2 = |Im G(x,x)| per
# realization, and whole-operator LU for a realization that fails it.


@pytest.mark.parametrize("geometry", SLICE_GEOMETRIES)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 6),
    energy=st.one_of(st.just("2d"), st.floats(-1.0, 9.0)),
    log_eps=st.floats(-9.0, 0.0),
    upper=st.booleans(),
    s=st.floats(0.0, 1.0, exclude_min=True),
    g=st.floats(0.5, 20.0),
)
def test_gauged_slice_route_matches_per_realization_green_down_to_eps_1e_9(
    geometry, seed, samples, energy, log_eps, upper, s, g
):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    re = 2.0 * box.dim if energy == "2d" else energy
    rho = DecayMetric(0.1)
    z = complex(re, 10.0**log_eps if upper else -(10.0**log_eps))
    (report,) = mc_chi_green(ens, [z], s, rho)
    assert _chi_close(report, _lu_chi(ens, z, s, rho), 1e-10)
    assert 0 <= report.params["fallbacks"] <= samples


def test_ward_gauge_trips_at_a_deterministic_pole_and_not_on_the_benchmark():
    # gamma2:3 on 5 x 5 at E = 4: the recursion cancels, the gauge sees it
    box, mask = SLICE_GEOMETRIES[7]
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=0, samples=3)
    ((_, worst, fallbacks),) = fracmoment._slice_sums(
        ens, [4.0 + 1e-6j], 1.0 / 3.0, DecayMetric(0.1)
    )
    assert worst > fracmoment.WARD_TOL and fallbacks >= 1
    # the first chunk of the `localize-bernoulli` benchmark: two samples of
    # 21 x 21 bernoulli:0.5:3 at E = 4, eps 0.1 and 0.01
    from trimlab import cli

    argv = ["localize", "--box", "1..21,1..21", "--gamma", "bernoulli:0.5:3"]
    argv += ["--samples", "2", "--epsilon", "0.1,0.01", "--out", "unused"]
    config = cli._load_config(cli._build_parser().parse_args(argv))
    ens, rho = cli._resolved(config, "localize")
    assert fracmoment.chunk_size(_slice_entries(ens.box)) == 2
    zs = [complex(config["energy"], eps) for eps in config["epsilon"]]
    for _, worst, fallbacks in fracmoment._slice_sums(ens, zs, config["s"], rho):
        assert worst <= 1e-10 and fallbacks == 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    log_eps=st.floats(-9.0, -7.0),
    per_chunk=st.integers(1, 5),
)
def test_fallback_results_do_not_depend_on_chunk_size(seed, samples, log_eps, per_chunk):
    box, mask = SLICE_GEOMETRIES[7]  # gamma2:3 on 5 x 5, E = 4: a pole
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=seed, samples=samples)
    z, rho = complex(4.0, 10.0**log_eps), DecayMetric(0.1)
    (chi,) = mc_chi_green(ens, [z], 0.5, rho)
    assert chi.params["fallbacks"] >= 1
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * _slice_entries(box)):
        (small,) = mc_chi_green(ens, [z], 0.5, rho)
    assert (small.value, small.stderr, small.params) == (chi.value, chi.stderr, chi.params)


def test_slice_recursion_makes_one_inverse_per_slice():
    # L W x W inversions per pass: the diagonal blocks come by the Dyson update
    box = make_box(2, (1, 1), (6, 4))
    ens = EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 5.0, master_seed=3, samples=2)
    (a,) = fracmoment._slice_blocks(ens)
    assert a.shape == (2, 6, 4, 4)
    with mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
        rows = list(spectral.slice_green_rows(a, 4.0 + 0.1j))
    assert len(rows) == 6 and inv.call_count == 6


def test_localize_routes_every_eps_to_the_slice_recursion():
    from trimlab import cli

    base = ["localize", "--box", "1..4,1..4", "--samples", "6", "--out", "unused"]
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return mock.patch.object(module, name, wrapper)

    # 6 samples of 16 sites fit in one chunk: one draw for every eps, one
    # recursion per eps, and no n x n inverse or eigendecomposition, on a
    # trimmed mask (the default gamma1:2,2) and on a covering one alike
    for gamma in ("gamma1:2,2", "full"):
        for eps in ("0.1,0.01", "0.1"):
            calls.clear()
            argv = base + ["--gamma", gamma, "--epsilon", eps]
            config = cli._load_config(cli._build_parser().parse_args(argv))
            with (
                counting(fracmoment, "green"),
                counting(spectral, "green"),
                counting(fracmoment, "eigendecompose"),
                counting(fracmoment, "sample_potential"),
                counting(fracmoment, "slice_green_rows"),
            ):
                cli._run_localize(config, *cli._resolved(config, "localize"))
            expected = {"sample_potential": 1, "slice_green_rows": len(eps.split(","))}
            assert calls == expected, (gamma, eps)


# The eigen consumers of the operator stacks against one realization at a
# time: Wegner counts by `eigh`, the uniform resolvent probe by SVD, and the
# dynamics rows by `_Factored` of `ens.realization(i)`.

# (box, mask, lambda, eps_max): geometries where lambda satisfies the
# hypotheses of `wegner_preconditions` for every eps <= eps_max (just
# below gap/3: the gaps are sqrt(2), 1 and 0.318)
WEGNER_GEOMETRIES = [
    (make_box(2, (1, 1), (3, 1)), Gamma1Mask(2, 2), 4.0, 0.47),
    (make_box(2, (1, 1), (1, 5)), Gamma1Mask(2, 2), 4.0, 0.33),
    (make_box(2, (1, 1), (5, 3)), Gamma1Mask(2, 2), 4.0, 0.1),
]


def _wegner_loop(ens, lam, eps):
    """p_excess, histogram and mass checks at one eps, one realization at a
    time: the route `wegner_count` replaced."""
    pre = wegner_preconditions(ens, lam, [eps])
    mult, gap, ker = pre["mult"], pre["gap"], pre["ker"]
    sites = tuple(ens.box.sites())
    counts, checks = [], []
    for i in range(ens.samples):
        ham = ens.realization(i)
        vals, vecs = np.linalg.eigh(ham.matrix)
        counts.append(int(np.sum(np.abs(vals - lam) < eps)) - mult)
        vmax = float(np.max(np.abs(ens.potential(i))))
        if vmax > 0:
            bound = gap / (3.0 * ens.g * vmax)
            for j in np.nonzero(np.abs(vals - lam) <= gap / 3)[0]:
                phi = vecs[:, j]
                if ker.size and np.linalg.norm(ker.T @ phi) > 1e-8:
                    continue
                mass = eigenvector_gamma_mass(phi, ens.mask, sites)
                checks.append(bool(mass >= bound - 1e-12))
    p_excess = float(np.mean(np.array(counts) >= 1))
    return p_excess, dict(sorted(Counter(counts).items())), checks


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(WEGNER_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 40),
    fractions=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4, unique=True),
    g=st.floats(0.5, 20.0),
)
def test_wegner_count_matches_per_eps_loop(geometry, seed, samples, fractions, g):
    box, mask, lam, eps_max = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    eps_values = [f * eps_max for f in fractions]
    reports = wegner_count(ens, lam, eps_values)
    for eps, rep in zip(eps_values, reports, strict=True):
        p_excess, histogram, checks = _wegner_loop(ens, lam, eps)
        assert (rep["eps"], rep["p_excess"]) == (eps, p_excess)
        assert rep["histogram"] == histogram
        assert rep["mass_bound_checked"] == len(checks)
        assert rep["mass_bound_holds"] == (bool(checks) and all(checks))


# geometries whose inner boundary lies in Gamma, as the probe requires
PROBE_GEOMETRIES = [
    (make_box(1, (0,), (0,)), FullMask()),
    (make_box(1, (0,), (4,)), FullMask()),
    (make_box(2, (0, 0), (4, 4)), Gamma1Mask(2, 2)),
    (make_box(2, (0, 0), (8, 8)), Gamma1Mask(2, 2)),
]


def _svd_moment(ens, z, s):
    """E ||G_z||^s and its standard error, one SVD of H - z per realization."""
    eye = np.eye(ens.box.size)
    vals = []
    for i in range(ens.samples):
        a = ens.realization(i).matrix - z * eye
        vals.append((1.0 / np.min(np.linalg.svd(a, compute_uv=False))) ** s)
    if len(vals) < 2:
        return float(np.mean(vals)), math.inf
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(len(vals)))


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(PROBE_GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 8),
    lams=st.lists(st.floats(-1.0, 9.0), min_size=1, max_size=2),
    eps_grid=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
    s=st.floats(0.1, 1.0),
)
def test_uniform_probe_matches_svd(geometry, seed, samples, lams, eps_grid, s):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 10.0, master_seed=seed, samples=samples)
    rows = wegner_uniform_bound_probe(ens, lams, eps_grid, s)["rows"]
    grid = [(lam, eps) for lam in lams for eps in eps_grid]
    for row, (lam, eps) in zip(rows, grid, strict=True):
        mean, se = _svd_moment(ens, complex(lam, eps), s)
        assert (row["lam"], row["eps"]) == (lam, eps)
        assert abs(row["estimate"] - mean) <= 1e-10 * mean
        assert row["stderr"] == se or abs(row["stderr"] - se) <= 1e-10 * mean


def test_uniform_probe_refuses_boundary_off_gamma():
    box, mask = GEOMETRIES[3]
    ens = EnsembleSpec(box, mask, Uniform(), 10.0, samples=2)
    with pytest.raises(ValueError, match="boundary"):
        wegner_uniform_bound_probe(ens, [1.0], [0.1], 0.5)


def _dynamics_args(box, lam, laplace_eps, eps_sequence):
    x = box.site(box.size // 2)
    times = [0.0, 0.5, 3.0]
    return x, times, lam, laplace_eps, sorted(eps_sequence, reverse=True)


@settings(max_examples=25, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    v0=st.floats(-3.0, 3.0),
    p=st.floats(0.0, 3.0),
    lam=st.floats(-1.0, 9.0),
    laplace_eps=st.floats(1e-3, 1.0),
    eps_sequence=st.lists(st.floats(1e-3, 1.0), max_size=3, unique=True),
)
def test_dynamics_rows_match_per_realization(
    geometry, seed, samples, v0, p, lam, laplace_eps, eps_sequence
):
    box, mask = geometry
    ens = EnsembleSpec(
        box, mask, Uniform(), 5.0, v0=v0, master_seed=seed, samples=samples
    )
    x, times, lam, laplace_eps, eps_sequence = _dynamics_args(
        box, lam, laplace_eps, eps_sequence
    )
    rows = dynamics_samples(ens, x, p, times, lam, laplace_eps, eps_sequence)
    ix, w = box.index(x), _distance_powers(box, x, p)
    assert rows.shape == (samples, len(times) + 2 + len(eps_sequence))
    for i, row in enumerate(rows):
        sd = eigendecompose(ens.realization(i))
        f = _Factored(sd.eigenvalues, sd.eigenvectors, ix, w)
        expected = [f.moment(t) for t in times]
        expected += [f.laplace_lhs(laplace_eps), f.green_moment(lam, laplace_eps)]
        expected += [f.green_moment(lam, e) for e in eps_sequence]
        np.testing.assert_array_equal(row, expected)


@settings(max_examples=15, deadline=None)
@given(
    wegner=st.sampled_from(WEGNER_GEOMETRIES),
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 30),
    per_chunk=st.integers(1, 7),
)
def test_wegner_and_dynamics_do_not_depend_on_chunk_size(
    wegner, geometry, seed, samples, per_chunk
):
    wbox, wmask, lam, eps_max = wegner
    wens = EnsembleSpec(wbox, wmask, Uniform(), 5.0, master_seed=seed, samples=samples)
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, master_seed=seed, samples=samples)
    x, times, lam_d, laplace_eps, eps_sequence = _dynamics_args(
        box, 4.0, 0.1, [0.1, 0.01]
    )
    eps_values = [eps_max, eps_max / 10]
    counts = wegner_count(wens, lam, eps_values)
    rows = dynamics_samples(ens, x, 2.0, times, lam_d, laplace_eps, eps_sequence)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * wbox.size**2):
        assert wegner_count(wens, lam, eps_values) == counts
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
        small = dynamics_samples(ens, x, 2.0, times, lam_d, laplace_eps, eps_sequence)
    np.testing.assert_array_equal(small, rows)
