"""The chunked, stacked Monte Carlo engine of `mc_map` against the scalar
route it replaced: one realization at a time through pivoted LU; and the
eigen sweep of `mc_chi_green_sweep` against the LU engine, z by z."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimlab import fracmoment
from trimlab.disorder import BernoulliMixture, Uniform
from trimlab.fracmoment import (
    DecayMetric,
    EnsembleSpec,
    ResampleBudgetExceeded,
    mc_chi_green,
    mc_chi_green_sweep,
    mc_map,
)
from trimlab.lattice import FullMask, Gamma1Mask, Gamma2Mask, make_box
from trimlab.spectral import green

GEOMETRIES = [
    (make_box(1, (0,), (0,)), FullMask()),
    (make_box(1, (0,), (4,)), FullMask()),
    (make_box(2, (1, 1), (3, 2)), Gamma1Mask(2, 2)),
    (make_box(2, (0, 0), (4, 4)), Gamma2Mask(3)),
]


def _stack(gs):
    return gs


def _scalar_greens(ens, z):
    """Per-sample Green matrices the scalar way, with the same resampling."""
    return mc_map(lambda i: green(ens.realization(i), z).entries, ens)


def _close(a, b) -> bool:
    return float(np.max(np.abs(a - b))) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    seed=st.integers(0, 2**32),
    samples=st.integers(1, 12),
    re=st.floats(-1.0, 9.0),
    im=st.floats(0.05, 2.0),
    g=st.floats(0.5, 20.0),
)
def test_stacked_values_match_scalar_oracle(geometry, seed, samples, re, im, g):
    box, mask = geometry
    ens = EnsembleSpec(box, mask, Uniform(), g, master_seed=seed, samples=samples)
    z = complex(re, im)
    gs, n_resampled = mc_map(_stack, ens, z=z)
    assert gs.shape == (samples, box.size, box.size) and n_resampled == 0
    for i in range(samples):
        assert _close(gs[i], green(ens.realization(i), z).entries)


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
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
    gs, _ = mc_map(_stack, ens, z=z)
    chi = mc_chi_green(ens, z, 0.5, rho)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
        assert fracmoment.chunk_size(box.size) == per_chunk
        gs_small, _ = mc_map(_stack, ens, z=z)
        chi_small = mc_chi_green(ens, z, 0.5, rho)
    np.testing.assert_array_equal(gs_small, gs)
    assert (chi_small.value, chi_small.stderr) == (chi.value, chi.stderr)


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
            mc_map(_stack, ens, z=z)
        return
    gs, k = mc_map(_stack, ens, z=z)
    assert k == k_expected
    assert _close(gs, np.stack(expected))


@pytest.mark.parametrize("box, dist, z", RESAMPLING)
def test_resampling_within_budget(box, dist, z):
    ens = EnsembleSpec(box, FullMask(), dist, 1.0, master_seed=11, samples=1000)
    gs, k = mc_map(_stack, ens, z=z)
    expected, k_expected = _scalar_greens(ens, z)
    assert 0 < k == k_expected <= 10
    assert _close(gs, np.stack(expected))


# The eigen sweep of `localize` against the LU engine: one eigendecomposition
# per realization for every z, checked z by z against `mc_chi_green`.


def _sweep_matches(sweep, oracle) -> bool:
    # value and stderr at 1e-12 relative to the estimate: the stderr is a
    # difference of per-sample sums of its size, so it carries their
    # rounding; one sample has stderr inf on both routes
    return all(
        abs(a.value - b.value) <= 1e-12 * abs(b.value)
        and (a.stderr == b.stderr or abs(a.stderr - b.stderr) <= 1e-12 * b.value)
        for a, b in zip(sweep, oracle, strict=True)
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
    sweep = mc_chi_green_sweep(ens, zs, s, rho)
    assert _sweep_matches(sweep, [mc_chi_green(ens, z, s, rho) for z in zs])
    assert all(r.params["z"] == z and r.samples == samples for r, z in zip(sweep, zs))


@settings(max_examples=20, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
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
    full = mc_chi_green_sweep(ens, zs, 0.5, rho)
    with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
        small = mc_chi_green_sweep(ens, zs, 0.5, rho)
    assert [(r.value, r.stderr) for r in small] == [(r.value, r.stderr) for r in full]


@pytest.mark.parametrize("zs", [[4.0, 4.0 + 0.1j], [4.0 + 0.1j, 3.0 - 0.1j], [4.0]])
def test_sweep_refuses_z_off_the_upper_half_plane(zs):
    box, mask = GEOMETRIES[2]
    ens = EnsembleSpec(box, mask, Uniform(), 5.0, samples=3)
    with pytest.raises(ValueError, match="Im z > 0"):
        mc_chi_green_sweep(ens, zs, 0.5, DecayMetric(0.1))


def test_localize_routes_several_eps_to_eigh_and_one_eps_to_lu():
    from trimlab import cli

    base = ["localize", "--box", "1..4,1..4", "--samples", "6", "--out", "unused"]
    calls = {}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return mock.patch.object(module, name, wrapper)

    for eps, expected in (("0.1,0.01", {"eigendecompose": 1}), ("0.1", {"green": 1})):
        calls.clear()
        config = cli._load_config(cli._build_parser().parse_args(base + ["--epsilon", eps]))
        with counting(fracmoment, "green"), counting(fracmoment, "eigendecompose"):
            cli._run_localize(config)
        # 6 samples of 16 sites fit in one chunk: one stacked call
        assert calls == expected
