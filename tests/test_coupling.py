from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from trimlab import fracmoment
from trimlab.coupling import (
    s2w_identity_check,
    u_sharp,
    weak_disorder_bound_check,
)
from trimlab.disorder import Uniform, estimate_decoupling_constants
from trimlab.fracmoment import DecayMetric, EnsembleSpec
from trimlab.lattice import FullMask, Gamma1Mask, make_box
from trimlab.operators import assemble, hedgehog_assemble
from trimlab.spectral import SpectralParameterOnSpectrum, green

from oracles import _numpy_peak


def test_u_sharp_scalar():
    out = u_sharp(np.array([3.0]), 1j)
    assert out[0] == pytest.approx((-3.0 - 1j) / 10.0)
    with pytest.raises(ZeroDivisionError):
        u_sharp(np.array([1.0, 2.0]), 2.0)


def test_u_sharp_reciprocal_of_shifted_potential():
    # U = z - 1/(gV) turns the sharp transform back into gV exactly
    rng = np.random.default_rng(1)
    gv = 5.0 * rng.random(6) + 0.1
    z = 1.0 + 1e-4j
    u = z - 1.0 / gv
    np.testing.assert_allclose(u_sharp(u, z), gv, atol=1e-12)
    # the reciprocal potential shrinks as g grows: weak disorder from strong
    v = np.random.default_rng(5).random(11) + 0.05
    weak100 = np.max(np.abs(u_sharp(100.0 * v, 2.0 + 1e-3j)))
    weak_big = np.max(np.abs(u_sharp(1e6 * v, 2.0 + 1e-3j)))
    assert weak_big < weak100 and weak_big < 1e-4


def test_s2w_scalar_identity():
    h0 = assemble(make_box(1, (0,), (0,)), FullMask(), 3.0, 0.0, None)
    res = s2w_identity_check(h0, np.array([2.0]), 1j)
    assert res["residual0"] <= 1e-12
    assert res["residual1"] <= 1e-12


def test_s2w_random_instances():
    rng = np.random.default_rng(7)
    box = make_box(2, (1, 1), (3, 3))
    h0 = assemble(box, FullMask(), None, 0.0, None)
    for _ in range(20):
        z = complex(rng.normal(), 0.2 + rng.random())
        u_real = rng.normal(size=9)
        u_cplx = u_real + 1j * rng.random(9)
        for u in (u_real, u_cplx):
            res = s2w_identity_check(h0, u, z)
            assert res["residual0"] <= 1e-10
            assert res["residual1"] <= 1e-10


def test_hedgehog_green_complex_symmetric():
    from trimlab.spectral import green

    rng = np.random.default_rng(3)
    h0 = assemble(make_box(1, (0,), (4,)), FullMask(), None, 0.0, None)
    hh = hedgehog_assemble(h0, rng.normal(size=5))
    g = green(hh, 0.3 + 0.2j)
    np.testing.assert_allclose(g, g.T, atol=1e-12)


def _gamma1_h0():
    """H(0) of the 10 x 10 gamma1:2,2 box of `verify`'s benchmark config."""
    box = make_box(2, (1, 1), (10, 10))
    return EnsembleSpec(box, Gamma1Mask(2, 2), Uniform(), 5.0).split.h0


def _trial_u(n: int, rng):
    u_real = 4.0 * rng.random(n) - 2.0
    return u_real, u_real + 1j * rng.random(n)


def test_s2w_peak_holds_the_doubled_operator_once():
    # the shifted operator and its inverse, 2 units of 16 (2n)^2 bytes;
    # a complex copy beside the assembled operator read 2.51 (real u) and
    # 3.01 (complex u), and solving G_z[H(0)] while the doubled inverse
    # was held read 2.26 without g0
    h0 = _gamma1_h0()
    g0 = green(h0, 0.5 + 0.7j)
    unit = 16 * (2 * h0.n) ** 2
    for u in _trial_u(h0.n, np.random.default_rng(2)):
        for g in (g0, None):
            peak = _numpy_peak(lambda: s2w_identity_check(h0, u, 0.5 + 0.7j, g))
            assert peak <= 2.2 * unit


def test_s2w_residuals_match_the_whole_doubled_green():
    h0 = _gamma1_h0()
    z = -1.2 + 0.4j
    g0 = green(h0, z)
    for u in _trial_u(h0.n, np.random.default_rng(8)):
        gh = green(hedgehog_assemble(h0, u), z)
        n = h0.n
        rhs0 = green(h0.matrix.astype(complex) + np.diag(u_sharp(u, z)), z)
        rhs1 = green(np.diag(u.astype(complex)) - g0, z)
        assert s2w_identity_check(h0, u, z, g0) == {
            "residual0": float(np.max(np.abs(gh[n:, n:] - rhs0))),
            "residual1": float(np.max(np.abs(gh[:n, :n] - rhs1))),
        }


def test_s2w_refuses_a_real_z_on_the_doubled_spectrum():
    h0 = _gamma1_h0()
    u, _ = _trial_u(h0.n, np.random.default_rng(4))
    z = np.linalg.eigvalsh(hedgehog_assemble(h0, u))[7]
    with pytest.raises(SpectralParameterOnSpectrum, match="lies on the spectrum"):
        s2w_identity_check(h0, u, z)


def test_weak_disorder_bound():
    c_mu = estimate_decoupling_constants(Uniform(), 0.5, 200, 0)["C_s"]
    box = make_box(1, (0,), (20,))
    rho = DecayMetric(0.1)
    ens = EnsembleSpec(box, FullMask(), Uniform(), 0.01, samples=100, master_seed=9)
    out = weak_disorder_bound_check(ens, -1.0, 1e-4, 0.5, rho, c_mu)
    assert out["applicable"]
    assert out["holds"]
    audit = out["audit"]
    assert audit["pendant_holds"]
    assert audit["star_holds"]
    assert audit["block_identity_residual"] <= 1e-10


def test_weak_disorder_bound_one_sample():
    # one sample has no Monte Carlo error estimate: stderr inf, not NaN
    c_mu = estimate_decoupling_constants(Uniform(), 0.5, 200, 0)["C_s"]
    ens = EnsembleSpec(make_box(1, (1,), (4,)), FullMask(), Uniform(), 0.01, samples=1)
    out = weak_disorder_bound_check(ens, -1.0, 1e-4, 0.5, DecayMetric(0.1), c_mu)
    assert out["applicable"]
    assert out["lhs_stderr"] == float("inf")
    assert out["holds"]
    assert out["audit"]["star_holds"]


def test_weak_disorder_bound_inapplicable_at_large_g():
    c_mu = 2.5
    box = make_box(1, (0,), (10,))
    ens = EnsembleSpec(box, FullMask(), Uniform(), 10.0, samples=5)
    out = weak_disorder_bound_check(ens, -1.0, 1e-4, 0.5, DecayMetric(0.1), c_mu)
    assert not out["applicable"]
    assert "chi0" in out


def test_weak_disorder_bound_reads_a_passed_g0(monkeypatch):
    # a passed G_z[H(0)] replaces the solve and leaves the report bit for bit
    from trimlab import coupling

    c_mu = estimate_decoupling_constants(Uniform(), 0.5, 200, 0)["C_s"]
    ens = EnsembleSpec(make_box(1, (0,), (8,)), FullMask(), Uniform(), 0.01, samples=4)
    args = (ens, -1.0, 1e-4, 0.5, DecayMetric(0.1), c_mu)
    expected = weak_disorder_bound_check(*args)
    g0 = coupling.green(ens.split.h0, complex(-1.0, 1e-4))
    calls = []
    for name in ("green", "_inverse"):
        real = getattr(coupling, name)
        monkeypatch.setattr(
            coupling, name, lambda h, z, real=real: calls.append(z) or real(h, z)
        )
    assert weak_disorder_bound_check(*args, g0) == expected
    # the hedgehog operator and G_z[H(0) + gV] of each sample, nothing more
    assert expected["applicable"] and len(calls) == 2 * ens.samples


@pytest.mark.parametrize("v0", [None, 0.7])
def test_weak_disorder_bound_does_not_depend_on_chunk_size(v0):
    # one, two and three samples per chunk of the operator stacks give the
    # report of one chunk, audit included; with a background potential
    # each stack's H(g) is still the base block's operator
    box = make_box(1, (0,), (8,))
    ens = EnsembleSpec(box, FullMask(), Uniform(), 0.01, v0=v0, samples=7)
    args = (ens, -1.0, 1e-4, 0.5, DecayMetric(0.1), 2.5)
    expected = weak_disorder_bound_check(*args)
    assert expected["applicable"]
    assert expected["audit"]["block_identity_residual"] <= 1e-10
    for per_chunk in (1, 2, 3):
        with mock.patch.object(fracmoment, "CHUNK_ENTRIES", per_chunk * box.size**2):
            assert fracmoment.chunk_size(box.size**2) == per_chunk
            assert weak_disorder_bound_check(*args) == expected


def test_weak_disorder_bound_requires_full_disorder():
    ens = EnsembleSpec(
        make_box(2, (1, 1), (3, 3)), Gamma1Mask(2, 2), Uniform(), 0.01, samples=5
    )
    with pytest.raises(ValueError):
        weak_disorder_bound_check(ens, -1.0, 1e-4, 0.5, DecayMetric(0.1), 2.5)

