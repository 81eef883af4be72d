from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimlab.disorder import (
    BernoulliMixture,
    SampleStream,
    TruncatedCauchy,
    Uniform,
    decoupling_pair_ratio,
    decoupling_ratio,
    estimate_decoupling_constants,
    regularity_check,
    sample_potential,
    spec_from_descriptor,
)
from trimlab.lattice import PHILOX_PAIRS, Gamma1Mask, make_box, mask_vector

from oracles import draw, draw_vector, window_mass


def test_uniform_normalization_and_moment():
    u = Uniform()
    assert u.expect(lambda v: 1.0) == pytest.approx(1.0, abs=1e-9)
    # E V^2 = 1/3 for Uniform(0,1)
    assert u.moment_Mq == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert u.regularity_C == pytest.approx(2.0)


def test_bmix_normalization_and_support():
    m = BernoulliMixture(0.3, 0.2)
    assert m.expect(lambda v: 1.0) == pytest.approx(1.0, abs=1e-9)
    assert len(m.support) == 2
    # mean = p
    assert m.expect(lambda v: v) == pytest.approx(0.3, abs=1e-9)


def test_tcauchy_normalization():
    t = TruncatedCauchy(1.0, 50.0)
    assert t.expect(lambda v: 1.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        TruncatedCauchy(1.0, 50.0, declared_q=1.5)


def test_descriptor_roundtrip():
    for text in ("uniform:0.0,1.0", "bmix:0.5,0.1", "tcauchy:1.0,50.0"):
        spec = spec_from_descriptor(text)
        assert spec.descriptor() == text
    with pytest.raises(ValueError):
        spec_from_descriptor("gauss:0,1")


def test_stream_is_pure_and_prefix_consistent():
    stream = SampleStream(Uniform(), 123)
    a = draw_vector(stream, 10, 4)
    b = draw_vector(stream, 10, 4)
    np.testing.assert_array_equal(a, b)
    # single-site draws are prefix slices of the vector draw
    for i in range(10):
        assert draw(stream, i, 4) == a[i]
    # different samples decorrelate
    c = draw_vector(stream, 10, 5)
    assert not np.array_equal(a, c)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 1000))
def test_stream_values_in_support(seed, sample):
    v = draw_vector(SampleStream(Uniform(), seed), 5, sample)
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_sample_potential_vanishes_off_gamma():
    box = make_box(2, (1, 1), (5, 5))
    mask = Gamma1Mask(2, 2)
    v = sample_potential(SampleStream(Uniform(), 7), mask, box, 0)
    for i, s in enumerate(box.sites()):
        if s in mask:
            assert v[i] > 0.0
        else:
            assert v[i] == 0.0


# draw_vector(3, 2**40 + 5) at master seed 1409, as recorded before batching
_PINNED_DRAWS = {
    "uniform": [
        "0x1.273a075c5992cp+0", "-0x1.febb353db532cp-2", "0x1.c9960dd235eeep-1"
    ],
    "bmix": ["-0x1.10ba7498fd1eap-4", "0x1.7eada3a6cfb54p-5", "0x1.e133928ffed8ap-1"],
}


@pytest.mark.parametrize(
    "spec, pin",
    [(Uniform(-1.0, 2.0), "uniform"), (BernoulliMixture(0.3, 0.2), "bmix")],
)
def test_draw_block_pins_the_philox_stream(spec, pin):
    stream = SampleStream(spec, 1409)
    got = [float(v).hex() for v in draw_vector(stream, 3, 2**40 + 5)]
    assert got == _PINNED_DRAWS[pin]
    # scattered, repeated and out-of-order indices, n > 1
    idx = [7, 0, 3, 2**40 + 5, 100_003, 3]
    expected = np.stack([draw_vector(stream, 9, i) for i in idx])
    np.testing.assert_array_equal(stream.draw_block(9, idx), expected)
    np.testing.assert_array_equal(stream.draw_block(9, np.array(idx)), expected)
    box, mask = make_box(2, (1, 1), (3, 3)), Gamma1Mask(2, 2)
    np.testing.assert_array_equal(
        sample_potential(stream, mask, box, idx),
        np.stack([sample_potential(stream, mask, box, i) for i in idx]),
    )


_SPECS = [Uniform(-1.0, 2.0), BernoulliMixture(0.3, 0.2), TruncatedCauchy(2.0, 10.0)]


@pytest.mark.parametrize("spec", _SPECS)
@pytest.mark.parametrize("sample", [0, 2**40 + 5, 2**70])
def test_scalar_sample_potential_is_the_masked_draw_vector(spec, sample):
    # one sample draws through the kernel too; numpy's generator is the oracle
    stream = SampleStream(spec, 1409)
    box, mask = make_box(2, (1, 1), (4, 3)), Gamma1Mask(2, 2)
    expected = draw_vector(stream, box.size, sample)
    expected[~mask_vector(mask, box)] = 0.0
    got = sample_potential(stream, mask, box, sample)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _stacked_draw_vector(stream, n_sites, idx):
    return np.array([draw_vector(stream, n_sites, i) for i in idx]).reshape(
        len(idx), n_sites
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SPECS),
    st.one_of(
        st.sampled_from([0, -1, 1409, 2**63, 2**64 - 1, 2**64 + 5, -(2**70)]),
        st.integers(-(2**80), 2**80),
    ),
    st.integers(1, 11),
    st.lists(st.tuples(st.integers(0, 49), st.integers(0, 3)), max_size=12),
    st.sampled_from([1, 2, 5, PHILOX_PAIRS]),
)
def test_draw_block_matches_draw_vector(spec, seed, n_sites, draws, pairs):
    # resample-style indices i + k * samples for 50 samples; small slab
    # sizes make rows and blocks cross slab boundaries
    stream = SampleStream(spec, seed)
    idx = [i + k * 50 for i, k in draws]
    expected = _stacked_draw_vector(stream, n_sites, idx)
    with mock.patch("trimlab.lattice.PHILOX_PAIRS", pairs):
        got = stream.draw_block(n_sites, np.array(idx, dtype=np.int64))
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize(
    "spec, n_sites, n_samples",
    [
        (Uniform(), 3, PHILOX_PAIRS + 7),  # 1 block per row: rows cross a slab
        (BernoulliMixture(0.3, 0.2), 2 * PHILOX_PAIRS + 1, 2),  # one row spans two
    ],
)
def test_draw_block_crosses_the_slab_limit(spec, n_sites, n_samples):
    stream = SampleStream(spec, 2**63 + 11)
    idx = np.arange(n_samples) * 3 + 1
    np.testing.assert_array_equal(
        stream.draw_block(n_sites, idx), _stacked_draw_vector(stream, n_sites, idx)
    )


def test_draw_block_constructs_no_numpy_philox():
    # the per-sample Philox loop must not come back: draw_block keys the
    # vectorised kernel only, while the oracle draw_vector stays on numpy's
    # generator
    stream = SampleStream(BernoulliMixture(0.3, 0.2), -5)
    box, mask = make_box(2, (1, 1), (3, 3)), Gamma1Mask(2, 2)
    # negative and beyond-64-bit indices wrap modulo 2**64, as in _stream_key
    idx = [4, 0, 2**62, 4, -7, 2**64 + 3]
    expected = _stacked_draw_vector(stream, 9, idx)
    with mock.patch.object(
        np.random, "Philox", side_effect=AssertionError("draw_block made a Philox")
    ):
        got = stream.draw_block(9, idx)
        wrapped = stream.draw_block(9, np.array(idx[:5]))
        block = sample_potential(stream, mask, box, idx)
        empty = stream.draw_block(9, [])
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(wrapped, expected[:5])
    on_gamma = mask_vector(mask, box)
    np.testing.assert_array_equal(block[:, on_gamma], expected[:, on_gamma])
    assert not block[:, ~on_gamma].any()
    assert empty.shape == (0, 9)


def test_window_mass_uniform_oracle():
    u = Uniform()
    assert window_mass(u, 0.5, 0.1) == pytest.approx(0.2, abs=1e-8)
    assert window_mass(u, 0.0, 0.1) == pytest.approx(0.1, abs=1e-8)
    assert window_mass(u, 2.0, 0.1) == pytest.approx(0.0, abs=1e-8)


def test_regularity_check_uniform():
    rep = regularity_check(Uniform(), 20000, 3)
    # empirical window masses stay near the exact density 1 per unit eps;
    # interior windows give C ~ 2 eps / eps = 2 at worst near full windows
    assert rep["empirical_C"] <= 2.0 + 5 * rep["empirical_C_stderr"]
    assert rep["empirical_Mq"] == pytest.approx(1.0 / 3.0, abs=0.02)
    with pytest.raises(ValueError):
        regularity_check(Uniform(), 100, 0)


def test_fractional_inverse_moment_oracle():
    # E|V - i|^{-1/2} for Uniform(0,1): quadrature against a known value
    u = Uniform()
    val = u.expect(lambda v: abs(v - 1j) ** -0.5, points=[0.0, 1.0])
    assert val == pytest.approx(0.93749, abs=5e-4)


def test_decoupling_ratio_constraints():
    u = Uniform()
    out = decoupling_ratio(u, [], [1j], 0.5, 0.5)
    assert out["lhs"] == pytest.approx(0.9375, abs=1e-3)
    assert out["rhs"] == pytest.approx(2.0**-0.5, abs=1e-9)
    with pytest.raises(ValueError):
        decoupling_ratio(u, [], [1j, 2j], 0.5, 0.6)  # rm >= alpha
    with pytest.raises(ValueError):
        decoupling_ratio(u, [], [0.5], 0.5, 0.5)  # pole on the support


def test_decoupling_pair_ratio_basic():
    u = Uniform()
    # coincident a = b.real with b just off the axis: the quotient is
    # E|V-b|^-s / E|V-a|^s|V-b|^-s >= 1 since |v-a| <= max(a, 1-a) <= 1
    r = decoupling_pair_ratio(u, 0.5, 0.5 + 0.05j, 0.5)
    assert r > 1.0


def test_estimate_decoupling_constants_pinned():
    out = estimate_decoupling_constants(Uniform(), 0.5, 200, 0)
    # frozen value for the seeded estimator; the analytic supremum over
    # coincident pairs approaching the axis is 2 sqrt(2) ~ 2.8284
    assert out["C_s"] == pytest.approx(2.4763965796353435, rel=1e-12)
    assert out["C_s"] < 2.0 * np.sqrt(2.0)
    with pytest.raises(ValueError):
        estimate_decoupling_constants(Uniform(), 1.5, 10, 0)
