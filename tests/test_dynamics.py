from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimlab.disorder import Uniform
from trimlab.dynamics import (
    _distance_powers,
    _Factored,
    dynamics_samples,
    laplace_moment_check,
    moment_Mp,
    pmoment_probe,
)
from trimlab.fracmoment import CHUNK_ENTRIES, EnsembleSpec
from trimlab.lattice import FullMask, Gamma1Mask, make_box
from trimlab.operators import assemble
from trimlab.spectral import eigendecompose, green

from oracles import EvolutionKernel, evolve, laplace_lhs


def _free_chain(n: int = 21):
    return assemble(make_box(1, (0,), (n - 1,)), FullMask(), None, 0.0, None)


def test_evolve_trivial_cases():
    ham = assemble(make_box(1, (0,), (0,)), FullMask(), None, 0.0, None)
    sd = eigendecompose(ham)
    psi = np.array([1.0])
    np.testing.assert_allclose(evolve(sd, psi, 0.0), psi)
    # H = diag(1, 2): t = pi flips the first component's phase
    sd2 = eigendecompose(np.diag([1.0, 2.0]))
    out = evolve(sd2, np.array([1.0, 0.0]), np.pi)
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.floats(-20.0, 20.0), st.integers(0, 10**6))
def test_unitarity(t, seed):
    rng = np.random.default_rng(seed)
    box = make_box(1, (0,), (7,))
    ham = assemble(box, FullMask(), rng.normal(size=8), 0.0, None)
    kernel = EvolutionKernel(eigendecompose(ham))
    amp = kernel.matrix(t)
    np.testing.assert_allclose(
        np.sum(np.abs(amp) ** 2, axis=1), 1.0, atol=1e-10
    )
    if t == 0.0:
        np.testing.assert_allclose(amp, np.eye(8), atol=1e-12)


def test_moment_trivial():
    one = assemble(make_box(1, (0,), (0,)), FullMask(), None, 0.0, None)
    assert moment_Mp(one, (0,), 3.0, 2.0) == 0.0
    ham = _free_chain()
    assert moment_Mp(ham, (10,), 2.5, 0.0) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        moment_Mp(ham, (10,), 1.0, -1.0)


@pytest.mark.parametrize("p", [-1.0, float("nan"), float("inf")])
def test_p_validated_everywhere(p):
    ham = _free_chain(9)
    with pytest.raises(ValueError, match="p must be"):
        moment_Mp(ham, (4,), 1.0, p)
    with pytest.raises(ValueError, match="p must be"):
        laplace_moment_check(ham, 0.0, 0.1, p, (4,))
    with pytest.raises(ValueError, match="p must be"):
        pmoment_probe(ham, 0.0, [1e-1, 1e-2], p, (4,))


def _lu_green_moment(ham, lam, eps, p, x):
    # eps^2 sum_y |G(x,y)|^2 ||x-y||^p from the pivoted-LU inverse
    g = green(ham, complex(lam, eps))[ham.box.index(x)]
    w = np.array(
        [float(sum(abs(a - b) for a, b in zip(x, y))) ** p for y in ham.box.sites()]
    )
    return float(eps**2 * np.sum(np.abs(g) ** 2 * w))


@pytest.mark.parametrize("case", ["square", "chain"])
def test_eigen_green_moments_match_lu(case):
    eps = [1e-1, 1e-2, 1e-3]
    if case == "square":
        ens = EnsembleSpec(
            make_box(2, (1, 1), (21, 21)), Gamma1Mask(2, 2), Uniform(), 5.0
        )
        ham, x, lam = ens.realization(0), (11, 11), 4.0
    else:
        ham, x, lam = _free_chain(15), (7,), 1.3
    for p in (0.0, 4.0):
        probe = pmoment_probe(ham, lam, eps, p, x)
        for e, row in zip(eps, probe["rows"]):
            oracle = _lu_green_moment(ham, lam, e, p, x)
            assert row["S"] == pytest.approx(oracle, rel=1e-10, abs=0.0)
            rhs = laplace_moment_check(ham, lam, e, p, x)["rhs"]
            assert rhs == pytest.approx(oracle, rel=1e-10, abs=0.0)


def test_moment_matches_evolution_kernel():
    rng = np.random.default_rng(4)
    box = make_box(2, (1, 1), (6, 6))
    ham = assemble(box, FullMask(), rng.normal(size=box.size), 1.0, None)
    amp = EvolutionKernel(eigendecompose(ham))
    x = (2, 5)
    d = np.array([sum(abs(a - b) for a, b in zip(x, y)) for y in box.sites()])
    for t in (0.0, 0.9, -2.5, 7.0):
        row = np.abs(amp.matrix(t)[box.index(x)]) ** 2
        for p in (0.0, 1.5, 4.0):
            expected = float(np.sum(row * d.astype(float) ** p))
            # abs covers t = 0, where M_p (p > 0) is rounding noise
            assert moment_Mp(ham, x, t, p) == pytest.approx(
                expected, rel=1e-12, abs=1e-14
            )


def test_moment_time_reversal():
    ham = _free_chain()
    for t in (0.7, 2.3):
        assert moment_Mp(ham, (10,), t, 2.0) == pytest.approx(
            moment_Mp(ham, (10,), -t, 2.0), abs=1e-10
        )


def test_moment_order_monotone_beyond_unit_distance():
    # termwise ||x-y||^p' >= ||x-y||^p on ||x-y|| >= 1, so the moments
    # of higher order dominate (the x term contributes 0 to both)
    ham = _free_chain()
    m2 = moment_Mp(ham, (10,), 1.5, 2.0)
    m4 = moment_Mp(ham, (10,), 1.5, 4.0)
    assert m4 >= m2


def test_ballistic_growth_exponent():
    ham = assemble(make_box(1, (0,), (40,)), FullMask(), None, 0.0, None)
    ts = [1.0, 2.0, 3.0, 4.0, 5.0]
    values = dynamics_samples(ham, (20,), 2.0, ts)[0]
    a = np.vstack([np.log(ts), np.ones(len(ts))]).T
    coef, *_ = np.linalg.lstsq(a, np.log(values), rcond=None)
    assert coef[0] == pytest.approx(2.0, abs=0.1)


def test_laplace_check_one_site():
    one = assemble(make_box(1, (0,), (0,)), FullMask(), 1.0, 0.0, None)
    out = laplace_moment_check(one, 0.0, 0.5, 0.0, (0,))
    # lhs = 1 exactly; rhs = eps^2 / ((h - lam)^2 + eps^2)
    assert out["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert out["rhs"] == pytest.approx(0.25 / (9.0 + 0.25), abs=1e-12)
    assert out["holds"]
    out_p = laplace_moment_check(one, 0.0, 0.5, 2.0, (0,))
    assert out_p["lhs"] == 0.0 and out_p["rhs"] == 0.0


def test_laplace_check_ensemble():
    ens = EnsembleSpec(
        make_box(2, (1, 1), (5, 5)),
        Gamma1Mask(2, 2),
        Uniform(),
        5.0,
        samples=10,
        master_seed=2,
    )
    out = laplace_moment_check(ens, 4.0, 0.05, 4.0, (3, 3))
    assert out["holds"]
    assert out["worst_realization_margin"] >= -1e-9


@pytest.mark.parametrize("n", [1, 300, 441])
def test_laplace_lhs_matches_one_shot_closed_form(n):
    # the kernel goes in blocks of CHUNK_ENTRIES // n rows: 1, 2 and 3
    # blocks at n = 1, 300 and 441, the last one short
    step = CHUNK_ENTRIES // n
    assert -(-n // step) == {1: 1, 300: 2, 441: 3}[n] and n % step
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n))
    sd = eigendecompose(m + m.T)
    box, x = make_box(1, (0,), (n - 1,)), (n // 3,)
    ix = box.index(x)
    for p in (0.0, 2.0):
        w = _distance_powers(box, x, p)
        f = _Factored(sd.eigenvalues, sd.eigenvectors, ix, w)
        for eps in (1e-6, 0.1, 10.0):
            want = laplace_lhs(sd.eigenvalues, sd.eigenvectors, ix, w, eps)
            assert abs(f.laplace_lhs(eps) - want) <= 1e-12 * abs(want), (p, eps)


def test_pmoment_off_spectrum_decay():
    # fixed operator, lam far below the spectrum: S ~ eps^2
    ham = _free_chain(15)
    out = pmoment_probe(ham, -3.0, [1e-1, 1e-2, 1e-3], 4.0, (7,))
    assert out["loglog_slope"] >= 1.9
    assert not out["nondecreasing"]


def test_pmoment_projection_limit():
    # nonrandom operator with an exact eigenvalue: S flattens to the
    # projection mass as eps drops
    box = make_box(2, (1, 1), (5, 5))
    ham = assemble(box, Gamma1Mask(2, 2), None, 0.0, None)
    sd = eigendecompose(ham)
    from trimlab.spectral import point_projection

    p4 = point_projection(sd, 4.0)
    sites = tuple(box.sites())
    x = (3, 3)
    ix = box.index(x)
    w = np.array(
        [float(sum(abs(a - b) for a, b in zip(x, y))) ** 4.0 for y in sites]
    )
    limit = float(np.sum(np.abs(p4[ix]) ** 2 * w))
    out = pmoment_probe(ham, 4.0, [1e-3, 1e-4], 4.0, x)
    assert out["rows"][-1]["S"] == pytest.approx(limit, rel=1e-3)
    assert limit > 0.0


def test_pmoment_validates_sequence():
    ham = _free_chain(9)
    with pytest.raises(ValueError):
        pmoment_probe(ham, 0.0, [1e-2, 1e-1], 2.0, (4,))
    with pytest.raises(ValueError):
        pmoment_probe(ham, 0.0, [1e-1, -1e-2], 2.0, (4,))
    with pytest.raises(ValueError):
        pmoment_probe(ham, 0.0, [float("inf"), 1e-1], 2.0, (4,))
    with pytest.raises(ValueError):
        laplace_moment_check(ham, 0.0, float("nan"), 2.0, (4,))
