from __future__ import annotations

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimlab.lattice import (
    BernoulliMask,
    FullMask,
    Gamma1Mask,
    Gamma2Mask,
    InsulationReport,
    LatticeBox,
    PeriodicCellMask,
    ball,
    boundary,
    components,
    components_of_complement,
    is_doubly_insulated,
    l1_distances,
    make_box,
    mask_from_descriptor,
    _site_key,
    _site_keys,
    mask_vector,
    neighbors,
    philox_uniforms,
    relative_density,
)

from oracles import relative_density as per_site_density

sites_2d = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def graph_distance(x, y) -> int:
    """l^1 distance between two sites of equal dimension, one site pair at
    a time: the oracle for `l1_distances`."""
    if len(x) != len(y):
        raise ValueError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(abs(a - b) for a, b in zip(x, y))


def test_graph_distance_basic():
    assert graph_distance((0, 0), (3, -4)) == 7
    assert graph_distance((5,), (5,)) == 0
    with pytest.raises(ValueError):
        graph_distance((0, 0), (0,))


@given(sites_2d, sites_2d, sites_2d)
def test_graph_distance_triangle(x, y, z):
    assert graph_distance(x, z) <= graph_distance(x, y) + graph_distance(y, z)


def test_neighbors_and_ball():
    assert len(neighbors((0, 0))) == 4
    assert len(neighbors((1, 2, 3))) == 6
    # |B(x, r)| in d=2 is 2r^2 + 2r + 1
    for r in range(4):
        assert len(ball((7, -2), r)) == 2 * r * r + 2 * r + 1
    assert all(graph_distance((0, 0), y) <= 2 for y in ball((0, 0), 2))


def test_box_basics():
    box = make_box(2, (1, 1), (3, 4))
    assert box.shape == (3, 4)
    assert box.size == 12
    assert (2, 4) in box
    assert (0, 1) not in box
    assert box.is_boundary_site((1, 2))
    assert not box.is_boundary_site((2, 2))
    with pytest.raises(ValueError):
        make_box(2, (3, 3), (1, 1))


def test_box_size_is_exact_past_int64():
    # a product in int64 wrapped to 0 and to a negative size
    assert make_box(4, (0,) * 4, (65535,) * 4).size == 2**64
    assert make_box(3, (0,) * 3, (2**21,) * 3).size == (2**21 + 1) ** 3


def test_box_coordinates_must_fit_int64():
    make_box(2, (-(2**62) + 1, 0), (2**62 - 1, 0))
    bad = [((0, 0), (2**62, 0)), ((-(2**62), 0), (0, 0)), ((10**19,), (10**19,))]
    for lo, hi in bad:
        with pytest.raises(ValueError, match=r"2\*\*62"):
            make_box(len(lo), lo, hi)


@given(st.integers(0, 11))
def test_box_index_roundtrip(idx):
    box = make_box(2, (1, 1), (3, 4))
    assert box.index(box.site(idx)) == idx


def test_box_index_order_is_lexicographic():
    box = make_box(2, (0, 0), (2, 2))
    sites = list(box.sites())
    assert sites == sorted(sites)
    assert [box.index(s) for s in sites] == list(range(9))


@pytest.mark.parametrize(
    "lo,hi", [((-3,), (4,)), ((1, -2), (3, 4)), ((0, 0, 0), (2, 1, 3))]
)
def test_box_coords_and_indices_match_site_order(lo, hi):
    box = make_box(len(lo), lo, hi)
    sites = list(box.sites())
    assert box.coords.tolist() == [list(s) for s in sites]
    assert not box.coords.flags.writeable
    assert box.indices(sites).tolist() == [box.index(s) for s in sites]
    assert box.indices(box.coords[::-1]).tolist() == list(range(box.size))[::-1]
    outside = [
        tuple(a - 1 for a in lo),
        tuple(b + 1 for b in hi),
        (*lo[:-1], hi[-1] + 1),
    ]
    assert box.indices(outside).tolist() == [-1, -1, -1]
    assert box.indices([]).tolist() == []
    with pytest.raises(ValueError):
        box.indices([(*lo, 0), (*hi, 0)])


def test_gamma1_membership():
    mask = Gamma1Mask(2, 2)
    assert (0, 5) in mask
    assert (5, 0) in mask
    assert (1, 1) not in mask
    assert (3, 7) not in mask
    with pytest.raises(ValueError):
        Gamma1Mask(1, 2)


def test_gamma2_complement_sites_are_isolated():
    # the complement of the skew mask has no nearest-neighbor pairs
    for k in (2, 3, 4, 5):
        mask = Gamma2Mask(k)
        window = make_box(2, (0, 0), (4 * k, 4 * k))
        comps = components_of_complement(mask, window)
        assert comps, f"complement empty for k={k}"
        assert all(len(c) == 1 for c in comps)


def test_gamma2_period_invariance():
    mask = Gamma2Mask(3)
    p = mask.period
    for site in [(1, 0), (2, 1), (4, 5), (0, 0), (7, 2)]:
        shifted = (site[0] + p[0], site[1] + p[1])
        assert (site in mask) == (shifted in mask)


def test_periodic_cell_mask():
    # 2x2 cell keeping only residue (0, 0)
    mask = PeriodicCellMask((2, 2), (True, False, False, False))
    assert (0, 0) in mask
    assert (2, 4) in mask
    assert (1, 0) not in mask
    with pytest.raises(ValueError):
        PeriodicCellMask((2, 2), (True,))


def test_bernoulli_mask_deterministic():
    a = BernoulliMask(0.5, 42)
    b = BernoulliMask(0.5, 42)
    window = make_box(2, (0, 0), (9, 9))
    picks_a = [s for s in window.sites() if s in a]
    picks_b = [s for s in window.sites() if s in b]
    assert picks_a == picks_b
    assert 10 < len(picks_a) < 90  # not degenerate at p = 1/2


def _numpy_philox_rows(keys, m):
    return np.array(
        [np.random.Generator(np.random.Philox(key=k)).random(m) for k in keys]
    ).reshape(len(keys), m)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 2**128 - 1), min_size=0, max_size=6),
    st.integers(0, 13),
    st.sampled_from([1, 2, 3, 4096]),
)
def test_philox_uniforms_match_numpy_philox(keys, m, pairs):
    # small slab sizes make rows and blocks cross slab boundaries
    key_lo = np.array([k & (2**64 - 1) for k in keys], dtype=np.uint64)
    key_hi = np.array([k >> 64 for k in keys], dtype=np.uint64)
    with mock.patch("trimlab.lattice.PHILOX_PAIRS", pairs):
        got = philox_uniforms(key_lo, key_hi, m)
        np.testing.assert_array_equal(got, _numpy_philox_rows(keys, m))
        if keys:  # one high word shared by every row
            shared = [int(key_hi[0]) << 64 | int(lo) for lo in key_lo]
            got = philox_uniforms(key_lo, key_hi[0], m)
            np.testing.assert_array_equal(got, _numpy_philox_rows(shared, m))


@pytest.mark.parametrize(
    "p, seed, lo, hi",
    [
        (0.5, 3, (1, 1), (21, 21)),
        (0.3, 0, (-4, -7), (5, 2)),
        (0.7, -1, (-30,), (40,)),
        (0.5, 2**64 + 9, (0, 0, 0), (4, 3, 5)),
        (0.0, 7, (0, 0), (3, 3)),
        (1.0, 7, (0, 0), (3, 3)),
        (0.5, -5, (2**62 - 6, -(2**62) + 1), (2**62 - 1, -(2**62) + 5)),
    ],
)
def test_bernoulli_indicator_matches_membership(p, seed, lo, hi):
    mask, box = BernoulliMask(p, seed), make_box(len(lo), lo, hi)
    expected = [s in mask for s in box.sites()]
    with mock.patch.object(
        np.random, "Philox", side_effect=AssertionError("per-site Philox")
    ):
        got = mask.indicator(box)
        cached = mask_vector.__wrapped__(mask, box)  # bypass the lru cache
    assert got.dtype == bool
    assert got.tolist() == expected
    assert cached.tolist() == expected


_coordinate = st.one_of(
    st.integers(-40, 40),
    st.integers(2**62 - 40, 2**62 + 40),
    st.integers(-(2**62) - 40, -(2**62) + 40),
    st.integers(-(2**63), 2**63 - 1),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(st.tuples(*[_coordinate] * d), min_size=1, max_size=8)
    ),
    st.one_of(st.sampled_from([0, -1, -(2**63), 2**64]), st.integers(-(2**70), 2**70)),
)
def test_site_keys_match_the_per_site_key(sites, seed):
    # the word-pair mix of `indicator` against the 128-bit integer one of
    # `__contains__`, over negative coordinates and coordinates near +-2**62
    lo, hi = _site_keys(seed, np.array(sites, dtype=np.int64))
    got = [int(a) | int(b) << 64 for a, b in zip(lo, hi)]
    assert got == [_site_key(seed, site) for site in sites]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    mask=st.one_of(
        st.just(FullMask()),
        st.builds(Gamma1Mask, st.integers(2, 6), st.integers(2, 6)),
        st.builds(Gamma2Mask, st.integers(2, 6)),
        st.integers(1, 3).flatmap(
            lambda d: st.lists(st.integers(1, 4), min_size=d, max_size=d).flatmap(
                lambda period: st.builds(
                    PeriodicCellMask,
                    st.just(tuple(period)),
                    st.lists(
                        st.booleans(),
                        min_size=int(np.prod(period)),
                        max_size=int(np.prod(period)),
                    ).map(tuple),
                )
            )
        ),
    ),
)
def test_closed_form_indicators_match_membership(data, mask):
    # boxes reaching into negative coordinates, where % must still give the
    # nonnegative residue that membership uses
    d = mask.dim or data.draw(st.integers(1, 3))
    lo = data.draw(st.lists(st.integers(-9, 3), min_size=d, max_size=d))
    ext = data.draw(st.lists(st.integers(0, 6), min_size=d, max_size=d))
    box = make_box(d, lo, [a + e for a, e in zip(lo, ext)])
    expected = [s in mask for s in box.sites()]
    with mock.patch.object(type(mask), "__contains__", side_effect=AssertionError):
        got = mask.indicator(box)
    assert got.dtype == bool
    assert got.tolist() == expected


@pytest.mark.parametrize(
    "mask", [Gamma1Mask(2, 2), Gamma2Mask(3), PeriodicCellMask((2, 2), (True,) * 4)]
)
def test_closed_form_indicators_refuse_other_dimensions(mask):
    with pytest.raises(ValueError):
        mask.indicator(make_box(3, (0, 0, 0), (1, 1, 1)))


def test_mask_descriptor_roundtrip():
    for text in ("full", "gamma1:2,3", "gamma2:4", "bernoulli:0.3:7"):
        mask = mask_from_descriptor(text)
        assert mask_from_descriptor(mask.descriptor()).descriptor() == text
    with pytest.raises(ValueError):
        mask_from_descriptor("gamma1:xx")
    with pytest.raises(ValueError):
        mask_from_descriptor("nope")


def test_boundary_of_box():
    box = make_box(2, (0, 0), (2, 2))
    bd = boundary(list(box.sites()))
    assert len(bd.edges) == 12  # 4 edges per side of the 3x3 square
    assert (0, 0) in bd.inner
    assert (-1, 0) in bd.outer
    assert (1, 1) not in bd.inner


def test_components_sorted_and_disjoint():
    mask = Gamma1Mask(2, 2)
    window = make_box(2, (1, 1), (7, 7))
    comps = components_of_complement(mask, window)
    # odd-odd singletons: 4 x 4 of them
    assert len(comps) == 16
    flat = [s for c in comps for s in c]
    assert len(flat) == len(set(flat))
    assert comps == sorted(comps)


def test_insulation_gamma1_22_false():
    rep = is_doubly_insulated(Gamma1Mask(2, 2), make_box(2, (1, 1), (7, 7)))
    assert not rep.insulated
    assert rep.witness_distance == 2


def test_insulation_sparse_true():
    # keep one site out of a 4x4 cell; complement singletons sit at
    # distance >= ... the kept-out sites are 4 apart
    cell = [False] * 16
    cell[0] = True
    mask = PeriodicCellMask((4, 4), tuple(not b for b in cell))
    rep = is_doubly_insulated(mask, make_box(2, (0, 0), (11, 11)))
    assert rep.insulated
    assert rep.n_components == 9


def test_relative_density_gamma1():
    frac = relative_density(Gamma1Mask(2, 2), 20, (0, 0))
    # density of the grid mask tends to 3/4
    assert abs(float(frac) - 0.75) < 0.02
    assert isinstance(frac, Fraction)


def _density_masks(dim: int):
    masks = [BernoulliMask(0.5, 5), BernoulliMask(0.3, 11)]
    masks.append(PeriodicCellMask((2,) * dim, (True,) + (False,) * (2**dim - 1)))
    masks.append(PeriodicCellMask((3,) * dim, (False, True) + (True,) * (3**dim - 2)))
    if dim == 2:
        masks += [Gamma1Mask(2, 2), Gamma1Mask(3, 2), Gamma2Mask(3)]
    return masks


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 3),
    radius=st.integers(0, 6),
)
def test_relative_density_matches_per_site_reference(data, dim, radius):
    mask = data.draw(st.sampled_from(_density_masks(dim)))
    center = data.draw(st.tuples(*[st.integers(-30, 30)] * dim))
    frac = relative_density(mask, radius, center)
    assert isinstance(frac, Fraction)
    assert frac == per_site_density(mask, radius, center)


@settings(max_examples=25)
@given(sites_2d)
def test_full_mask_contains_everything(site):
    assert site in FullMask()


def test_l1_distances_matches_graph_distance():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        xs = [tuple(int(c) for c in rng.integers(-9, 10, d)) for _ in range(7)]
        ys = [tuple(int(c) for c in rng.integers(-9, 10, d)) for _ in range(5)]
        dist = l1_distances(xs, ys)
        assert dist.shape == (7, 5)
        assert dist.dtype.kind == "i"
        assert dist.tolist() == [[graph_distance(x, y) for y in ys] for x in xs]


def test_l1_distances_empty_and_mismatch():
    assert l1_distances([], [(0, 0)]).shape == (0, 1)
    assert l1_distances([(0, 0)], []).shape == (1, 0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        l1_distances([(0, 0)], [(0,)])


def _components_loop(sites):
    # the breadth-first search over a site set that components replaced
    pool = set(sites)
    seen, comps = set(), []
    for start in sorted(pool):
        if start in seen:
            continue
        comp, queue = [], [start]
        seen.add(start)
        while queue:
            x = queue.pop(0)
            comp.append(x)
            for y in neighbors(x):
                if y in pool and y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def _complement_loop(mask, window):
    # the per-site membership scan of Gamma^c in the window
    return [s for s in window.sites() if s not in mask]


@pytest.mark.parametrize(
    "descriptor, lo, hi",
    [
        ("gamma1:2,2", (1, 1), (7, 7)),
        ("gamma2:3", (-1, 0), (8, 7)),
        ("cell:3x3:001001111", (-1, 0), (8, 7)),
        ("cell:2:10", (-5,), (6,)),
        ("bernoulli:0.5:3", (-1, 0), (8, 7)),
        ("bernoulli:0.4:1", (0, 0, 0), (3, 3, 2)),
        ("bernoulli:1.0:2", (0, 0), (3, 3)),
        ("full", (0,), (9,)),
    ],
)
def test_components_of_complement_matches_loop(descriptor, lo, hi):
    mask, window = mask_from_descriptor(descriptor), make_box(len(lo), lo, hi)
    expected = _components_loop(_complement_loop(mask, window))
    assert components_of_complement(mask, window) == expected


def test_components_of_site_sets():
    assert components([]) == []
    assert components([(0, 1), (0, 0), (5, 5), (1, 1)]) == [
        ((0, 0), (0, 1), (1, 1)),
        ((5, 5),),
    ]


# near coordinates make adjacent sites; far ones (some of them adjacent too)
# span a bounding box far past what could be allocated, or past int64
_coordinate = st.integers(-3, 3) | st.sampled_from(
    [-(2**63), -(10**15), -(10**9), 10**9, 10**9 + 1, 10**15, 2**63 - 1]
)


@st.composite
def _site_lists(draw):
    dim = draw(st.integers(1, 3))
    sites = draw(st.lists(st.tuples(*[_coordinate] * dim), max_size=40))
    return sites + sites[: len(sites) // 2]  # some sites twice


@settings(max_examples=100, deadline=None)
@given(_site_lists())
def test_components_of_site_sets_match_breadth_first_search(sites):
    assert components(sites) == _components_loop(sites)


def test_components_of_far_apart_sites_allocate_no_bounding_box():
    import tracemalloc

    far = [(0, 0), (10**9, 10**9)]
    tracemalloc.start()
    try:
        comps = components(far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comps == [((0, 0),), ((10**9, 10**9),)]
    assert peak < 2**20
    assert components([(0, 0, 0), (10**9, -(10**9), 10**9), (0, 0, 1)]) == [
        ((0, 0, 0), (0, 0, 1)),
        ((10**9, -(10**9), 10**9),),
    ]


def _insulation_loop(mask, window):
    # the per-site-pair loop that is_doubly_insulated replaced, on the
    # components of the breadth-first search
    comps = _components_loop(_complement_loop(mask, window))
    flagged = tuple(
        i
        for i, comp in enumerate(comps)
        if any(window.is_boundary_site(s) for s in comp)
    )
    best = None
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            for x in comps[i]:
                for y in comps[j]:
                    dist = graph_distance(x, y)
                    if best is None or dist < best[0]:
                        best = (dist, x, y)
    if best is not None and best[0] < 3:
        return InsulationReport(False, (best[1], best[2]), best[0], flagged, len(comps))
    return InsulationReport(True, None, None, flagged, len(comps))


@pytest.mark.parametrize(
    "descriptor",
    [
        "gamma1:2,2",
        "gamma2:3",
        # 2x2 complement blocks at distance 2 (ties) and at distance 3
        "cell:3x3:001001111",
        "cell:4x4:0011001111111111",
        "bernoulli:0.5:3",
        # the least (site of i, site of j) is not the least (site of j, site of i)
        "bernoulli:0.3:47",
    ],
)
def test_insulation_matches_loop(descriptor):
    mask = mask_from_descriptor(descriptor)
    window = make_box(2, (-1, 0), (8, 7))
    rep = is_doubly_insulated(mask, window)
    assert rep == _insulation_loop(mask, window)
    assert rep.n_components >= 2


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("lo,hi", [((0,), (40,)), ((0, 0), (7, 5)), ((0, 0, 0), (3, 3, 2))])
def test_insulation_matches_loop_bernoulli_seeds(p, lo, hi):
    # multi-site components where the witness pair is not the first row
    window = make_box(len(lo), lo, hi)
    for seed in range(20):
        mask = BernoulliMask(p, seed)
        assert is_doubly_insulated(mask, window) == _insulation_loop(mask, window)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_insulation_on_windows_matches_loop(data, dim, seed):
    # every mask kind, with components of one site to spanning ones; most
    # windows are small enough that some component touches their face
    masks = _density_masks(dim) + [
        FullMask(),
        BernoulliMask(0.2, seed),
        BernoulliMask(0.6, seed),
        PeriodicCellMask((3,) * dim, (True,) + (False,) * (3**dim - 1)),
    ]
    mask = data.draw(st.sampled_from(masks))
    lo = data.draw(st.tuples(*[st.integers(-6, 6)] * dim))
    shape = data.draw(st.tuples(*[st.integers(1, 8 if dim < 3 else 4)] * dim))
    window = LatticeBox(lo, tuple(a + n - 1 for a, n in zip(lo, shape)))
    assert is_doubly_insulated(mask, window) == _insulation_loop(mask, window)


def test_insulation_at_scale_in_closed_form():
    # Gamma^c of gamma1:2,2 is the odd-odd sites: 200 x 200 singletons, none
    # on the even window faces, the first two at distance 2
    import time

    start = time.perf_counter()
    rep = is_doubly_insulated(Gamma1Mask(2, 2), make_box(2, (0, 0), (400, 400)))
    elapsed = time.perf_counter() - start
    assert rep == InsulationReport(False, ((1, 1), (1, 3)), 2, (), 40000)
    assert elapsed < 1.0
