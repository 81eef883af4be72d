"""Finite regions of Z^d: boxes, adjacency, boundaries and sublattice masks.

Sites are plain integer tuples.  All set-valued results are sorted
lexicographically so that every output is bitwise reproducible.  The
vectorised Philox kernel behind site percolation also draws the
potentials of `disorder`, which imports this module.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

Site = tuple[int, ...]


def l1_distances(xs: Sequence[Site], ys: Sequence[Site]) -> np.ndarray:
    """(len(xs), len(ys)) integer matrix of l^1 distances between sites.

    Accumulated one axis at a time, so no (n, m, d) temporary is built.
    Either argument may also be an (n, d) coordinate array.
    """
    out = np.zeros((len(xs), len(ys)), dtype=np.int64)
    if out.size == 0:
        return out
    a = np.asarray(xs, dtype=np.int64)
    b = np.asarray(ys, dtype=np.int64)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    for k in range(a.shape[1]):
        out += np.abs(a[:, k, None] - b[None, :, k])
    return out


def neighbors(x: Site) -> list[Site]:
    """The 2d nearest neighbors of a site, in lexicographic order."""
    out = []
    for i in range(len(x)):
        for step in (-1, 1):
            y = list(x)
            y[i] += step
            out.append(tuple(y))
    out.sort()
    return out


def ball(x: Site, radius: int) -> list[Site]:
    """All sites within l^1 distance `radius` of x, sorted."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    d = len(x)
    sites = []
    for offs in product(range(-radius, radius + 1), repeat=d):
        if sum(abs(o) for o in offs) <= radius:
            sites.append(tuple(a + o for a, o in zip(x, offs)))
    sites.sort()
    return sites


@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned box [lo, hi] in Z^d with a lexicographic site index."""

    lo: Site
    hi: Site

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if len(self.lo) < 1:
            raise ValueError("dimension must be >= 1")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"empty box: lo={self.lo} hi={self.hi}")
        # coords and indices hold int64; sites and their distances must fit
        if any(abs(c) >= 2**62 for c in self.lo + self.hi):
            raise ValueError("box coordinates must lie strictly within +-2**62")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a + 1 for a, b in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __contains__(self, site: Site) -> bool:
        return len(site) == self.dim and all(
            a <= s <= b for s, a, b in zip(site, self.lo, self.hi)
        )

    def index(self, site: Site) -> int:
        """Row-major (lexicographic) index of a contained site."""
        if site not in self:
            raise KeyError(f"site {site} not in box [{self.lo}, {self.hi}]")
        return int(self.indices([site])[0])

    def indices(self, sites: Sequence[Site] | np.ndarray) -> np.ndarray:
        """Row-major indices of sites (tuples or an (m, dim) array), -1 for
        a site outside the box."""
        c = np.asarray(sites, dtype=np.int64).reshape(-1, self.dim)
        if len(c) != len(sites):
            raise ValueError(f"sites are not {self.dim}-dimensional")
        c = c - self.lo
        idx = np.ravel_multi_index(tuple(c.T), self.shape, mode="clip")
        return np.where(np.all((c >= 0) & (c < self.shape), axis=1), idx, -1)

    @functools.cached_property
    def coords(self) -> np.ndarray:
        """Read-only (size, dim) coordinates of the sites, in index order."""
        c = np.indices(self.shape).reshape(self.dim, -1).T + np.array(self.lo)
        c.flags.writeable = False
        return c

    def site(self, idx: int) -> Site:
        """Inverse of index()."""
        if not 0 <= idx < self.size:
            raise KeyError(f"index {idx} out of range 0..{self.size - 1}")
        return tuple(self.coords[idx].tolist())

    def sites(self) -> Iterator[Site]:
        """All sites in index (lexicographic) order."""
        return map(tuple, self.coords.tolist())

    def is_boundary_site(self, site: Site) -> bool:
        return any(
            s == a or s == b for s, a, b in zip(site, self.lo, self.hi)
        )


def make_box(d: int, lo: Sequence[int], hi: Sequence[int]) -> LatticeBox:
    if len(lo) != d or len(hi) != d:
        raise ValueError("lo/hi length must equal d")
    return LatticeBox(tuple(int(a) for a in lo), tuple(int(b) for b in hi))


# ---------------------------------------------------------------------------
# Sublattice masks
# ---------------------------------------------------------------------------


class SublatticeMask:
    """Decidable membership predicate for the trimming set Gamma."""

    #: diagonal period vector under which membership is invariant, or None
    period: Site | None = None
    #: dimension of the sites the mask is defined on, or None for any
    dim: int | None = None

    def __contains__(self, site: Site) -> bool:
        raise NotImplementedError

    def indicator(self, box: LatticeBox) -> np.ndarray:
        """Membership of the box sites, in index order."""
        return np.fromiter(
            (s in self for s in box.sites()), dtype=bool, count=box.size
        )

    def descriptor(self) -> str:
        raise NotImplementedError


def _plane_coords(box: LatticeBox) -> np.ndarray:
    """(x1, x2) of the sites of a two-dimensional box, in index order."""
    if box.dim != 2:
        raise ValueError(f"the mask is defined on Z^2, not on a {box.dim}-d box")
    return box.coords.T


@dataclass(frozen=True)
class FullMask(SublatticeMask):
    """Gamma = Z^d; every site carries disorder."""

    def __contains__(self, site: Site) -> bool:
        return True

    def indicator(self, box: LatticeBox) -> np.ndarray:
        return np.ones(box.size, dtype=bool)

    def descriptor(self) -> str:
        return "full"


@dataclass(frozen=True)
class Gamma1Mask(SublatticeMask):
    """x in Gamma iff x1 = 0 mod k or x2 = 0 mod m (d = 2)."""

    dim = 2
    k: int
    m: int

    def __post_init__(self):
        if self.k < 2 or self.m < 2:
            raise ValueError("gamma1 requires k, m >= 2")

    @property
    def period(self) -> Site:
        return (self.k, self.m)

    def __contains__(self, site: Site) -> bool:
        x1, x2 = site
        return x1 % self.k == 0 or x2 % self.m == 0

    def indicator(self, box: LatticeBox) -> np.ndarray:
        x1, x2 = _plane_coords(box)
        return (x1 % self.k == 0) | (x2 % self.m == 0)

    def descriptor(self) -> str:
        return f"gamma1:{self.k},{self.m}"


@dataclass(frozen=True)
class Gamma2Mask(SublatticeMask):
    """x in Gamma iff x1 = 0 mod k or x2 - x1 even (d = 2)."""

    dim = 2
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("gamma2 requires k >= 2")

    @property
    def period(self) -> Site:
        # (2k, 2) is a diagonal sublattice of the invariance group
        # generated by (k, k) and (0, 2)
        return (2 * self.k, 2)

    def __contains__(self, site: Site) -> bool:
        x1, x2 = site
        return x1 % self.k == 0 or (x2 - x1) % 2 == 0

    def indicator(self, box: LatticeBox) -> np.ndarray:
        x1, x2 = _plane_coords(box)
        return (x1 % self.k == 0) | ((x2 - x1) % 2 == 0)

    def descriptor(self) -> str:
        return f"gamma2:{self.k}"


@dataclass(frozen=True)
class PeriodicCellMask(SublatticeMask):
    """Membership given by a bitmap over residues modulo a period vector."""

    cell_period: Site
    cell: tuple[bool, ...]  # row-major over residue tuples

    def __post_init__(self):
        if any(p < 1 for p in self.cell_period):
            raise ValueError("period entries must be >= 1")
        if len(self.cell) != int(np.prod(self.cell_period)):
            raise ValueError("cell bitmap size does not match period")

    @property
    def period(self) -> Site:
        return self.cell_period

    @property
    def dim(self) -> int:
        return len(self.cell_period)

    def __contains__(self, site: Site) -> bool:
        if len(site) != len(self.cell_period):
            raise ValueError("site dimension mismatch")
        idx = 0
        for s, p in zip(site, self.cell_period):
            idx = idx * p + (s % p)
        return self.cell[idx]

    def indicator(self, box: LatticeBox) -> np.ndarray:
        if box.dim != len(self.cell_period):
            raise ValueError("site dimension mismatch")
        residues = box.coords % np.array(self.cell_period)
        idx = np.ravel_multi_index(tuple(residues.T), self.cell_period)
        return np.array(self.cell, dtype=bool)[idx]

    def descriptor(self) -> str:
        dims = "x".join(str(p) for p in self.cell_period)
        bits = "".join("1" if b else "0" for b in self.cell)
        return f"cell:{dims}:{bits}"


# ---------------------------------------------------------------------------
# Counter-based uniforms
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
#: (key, block) pairs per pass of philox_uniforms; bounds its temporaries
PHILOX_PAIRS = 4096
# Philox4x64-10 constants (Salmon et al., Random123): the round multipliers
# M0, M1 and the Weyl key increments W0, W1; round r = 0..9 uses key + r * W.
_PHILOX_M = np.array(
    [0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64
).reshape(2, 1, 1)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_BUMPS = np.array(
    [[r * w & _MASK64 for w in _PHILOX_W] for r in range(10)], dtype=np.uint64
).reshape(10, 2, 1, 1)
_LO32, _SHIFT32, _SHIFT11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _SHIFT32


def philox_uniforms(key_lo: np.ndarray, key_hi, m: int) -> np.ndarray:
    """(len(key_lo), m) uniforms on [0, 1), one row per 128-bit key.

    Row i is, bit for bit, `Generator(Philox(key=k)).random(m)` of
    numpy.random for k = key_hi[i] << 64 | key_lo[i]; key_hi may also be
    one word for every row.  Philox4x64-10 is a counter-based cipher, so
    all rows are computed at once: block c = 1, 2, ... of a key is the
    cipher of the counter (c, 0, 0, 0), and each of its four words w gives
    the double (w >> 11) * 2**-53, as numpy's generator reads them.  The
    64x64 -> 128-bit products of a round are taken from 32-bit halves,
    both multipliers in one stacked pass; at most PHILOX_PAIRS (key,
    block) pairs go per pass.
    """
    key_lo = np.asarray(key_lo, dtype=np.uint64).reshape(-1, 1)
    key_hi = np.asarray(key_hi, dtype=np.uint64).reshape(-1, 1)
    key_hi = np.broadcast_to(key_hi, key_lo.shape)
    n_keys, n_blocks = len(key_lo), -(-m // 4)
    out = np.empty((n_keys, m))
    cols = max(1, min(n_blocks, PHILOX_PAIRS))
    rows = max(1, PHILOX_PAIRS // cols)
    for r0 in range(0, n_keys, rows):
        # the two key words of the slab's rows, broadcast along its blocks
        key = np.stack((key_lo[r0 : r0 + rows], key_hi[r0 : r0 + rows]))
        for b0 in range(0, n_blocks, cols):
            b1 = min(b0 + cols, n_blocks)
            # x holds counter words (0, 2), the multiplied ones; y words (1, 3)
            x = np.zeros((2, 1, b1 - b0), dtype=np.uint64)
            x[0] = np.arange(b0 + 1, b1 + 1, dtype=np.uint64)
            y = np.zeros_like(x)
            # one round maps (c0, c1, c2, c3) to (hi(M1 c2) ^ c1 ^ k0,
            # lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
            for bump in _PHILOX_BUMPS:
                xl, xh = x & _LO32, x >> _SHIFT32
                t = xl * _M_LO
                u = xh * _M_LO + (t >> _SHIFT32)
                v = xl * _M_HI + (u & _LO32)
                hi = xh * _M_HI + (u >> _SHIFT32) + (v >> _SHIFT32)
                x, y = hi[::-1] ^ y ^ (key + bump), (x * _PHILOX_M)[::-1]
            # block words in order (x0, y0, x1, y1)
            words = np.moveaxis(np.stack((x, y), axis=-1), 0, 2)
            words = words.reshape(x.shape[1], -1)
            width = min(4 * b1, m) - 4 * b0
            out[r0 : r0 + rows, 4 * b0 : 4 * b0 + width] = (
                words[:, :width] >> _SHIFT11
            ) * 2.0**-53
    return out


def _site_key(seed: int, site: Site) -> int:
    # stable 128-bit mix of (seed, coords) for the Philox key
    h = (seed & 0xFFFFFFFFFFFFFFFF) or 0x9E3779B97F4A7C15
    for c in site:
        h = (h ^ (c & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3 % (1 << 128)
        h ^= h >> 47
    return h


@dataclass(frozen=True)
class BernoulliMask(SublatticeMask):
    """Site percolation: each site is in Gamma independently with prob p."""

    p: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")

    def __contains__(self, site: Site) -> bool:
        # one numpy generator per site: the reference for `indicator`
        u = np.random.Generator(
            np.random.Philox(key=_site_key(self.seed, site))
        ).random()
        return bool(u < self.p)

    def indicator(self, box: LatticeBox) -> np.ndarray:
        keys = [_site_key(self.seed, s) for s in box.sites()]
        key_lo = np.array([h & _MASK64 for h in keys], dtype=np.uint64)
        key_hi = np.array([h >> 64 for h in keys], dtype=np.uint64)
        return philox_uniforms(key_lo, key_hi, 1)[:, 0] < self.p

    def descriptor(self) -> str:
        return f"bernoulli:{self.p}:{self.seed}"


@functools.lru_cache(maxsize=64)
def mask_vector(mask: SublatticeMask, box: LatticeBox) -> np.ndarray:
    """Read-only indicator of Gamma on the box sites, in index order."""
    keep = mask.indicator(box)
    keep.flags.writeable = False
    return keep


def mask_from_descriptor(text: str) -> SublatticeMask:
    """Parse a mask descriptor as used on the command line."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "full":
            return FullMask()
        if kind == "gamma1":
            k, m = (int(v) for v in parts[1].split(","))
            return Gamma1Mask(k, m)
        if kind == "gamma2":
            return Gamma2Mask(int(parts[1]))
        if kind == "cell":
            period = tuple(int(v) for v in parts[1].split("x"))
            cell = tuple(c == "1" for c in parts[2])
            return PeriodicCellMask(period, cell)
        if kind == "bernoulli":
            p = float(parts[1])
            seed = int(parts[2]) if len(parts) > 2 else 0
            return BernoulliMask(p, seed)
    except (IndexError, ValueError) as exc:
        raise ValueError(f"malformed mask descriptor {text!r}: {exc}") from exc
    raise ValueError(f"unknown mask kind {kind!r} in descriptor {text!r}")


# ---------------------------------------------------------------------------
# Boundaries, components, insulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryData:
    """Edge boundary of a finite site set, with its two site projections."""

    edges: tuple[tuple[Site, Site], ...]
    inner: tuple[Site, ...]
    outer: tuple[Site, ...]


def boundary(sites: Sequence[Site] | set) -> BoundaryData:
    """Edges (x in B, y not in B) with their inner/outer projections."""
    inside = set(sites)
    edges = []
    for x in inside:
        for y in neighbors(x):
            if y not in inside:
                edges.append((x, y))
    edges.sort()
    inner = tuple(sorted({x for x, _ in edges}))
    outer = tuple(sorted({y for _, y in edges}))
    return BoundaryData(tuple(edges), inner, outer)


def components(sites: Iterable[Site]) -> list[tuple[Site, ...]]:
    """Nearest-neighbour connected components of a finite site set, each
    sorted, ordered by their smallest site."""
    pool = set(sites)
    seen: set[Site] = set()
    comps = []
    for start in sorted(pool):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in neighbors(x):
                if y in pool and y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def components_of_complement(
    mask: SublatticeMask, window: LatticeBox
) -> list[tuple[Site, ...]]:
    """Connected components of Gamma^c inside the window (`components`)."""
    off = window.coords[~mask_vector(mask, window)]
    return components(map(tuple, off.tolist()))


@dataclass(frozen=True)
class InsulationReport:
    insulated: bool
    witness: tuple[Site, Site] | None
    witness_distance: int | None
    #: components touching the window edge; finiteness in Z^d is then
    #: undecidable from the window alone
    possibly_infinite: tuple[int, ...]
    n_components: int


def is_doubly_insulated(
    mask: SublatticeMask, window: LatticeBox
) -> InsulationReport:
    """Check that components of Gamma^c are pairwise l^1-distance >= 3.

    Components touching the window boundary are treated as finite within
    the window but flagged, since the window cannot decide finiteness.
    """
    comps = components_of_complement(mask, window)
    flagged = tuple(
        i
        for i, comp in enumerate(comps)
        if any(window.is_boundary_site(s) for s in comp)
    )
    # one distance block per component i against all later components;
    # the witness is the first (i, j, x, y) in loop order at the minimum
    sites = [s for comp in comps for s in comp]
    coords = np.array(sites, dtype=np.int64).reshape(len(sites), window.dim)
    sizes = np.array([len(comp) for comp in comps], dtype=np.int64)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    best: tuple[int, Site, Site] | None = None
    for i in range(len(comps) - 1):
        hi = ends[i]
        dist = l1_distances(coords[starts[i] : hi], coords[hi:])
        per_comp = np.minimum.reduceat(dist.min(axis=0), starts[i + 1 :] - hi)
        j = i + 1 + int(np.argmin(per_comp))
        if best is None or per_comp[j - i - 1] < best[0]:
            block = dist[:, starts[j] - hi : ends[j] - hi]
            a, b = divmod(int(np.argmin(block)), block.shape[1])
            best = (int(block[a, b]), sites[starts[i] + a], sites[starts[j] + b])
    if best is not None and best[0] < 3:
        return InsulationReport(False, (best[1], best[2]), best[0], flagged, len(comps))
    return InsulationReport(True, None, None, flagged, len(comps))


def relative_density(mask: SublatticeMask, radius: int, center: Site):
    """|B(center, R) intersect Gamma| / |B(center, R)| as a Fraction, with
    Gamma read on the ball's bounding box (`mask_vector`)."""
    from fractions import Fraction

    if radius < 0:
        raise ValueError("radius must be nonnegative")
    window = LatticeBox(
        tuple(c - radius for c in center), tuple(c + radius for c in center)
    )
    in_ball = np.sum(np.abs(window.coords - np.array(center)), axis=1) <= radius
    hits = np.count_nonzero(in_ball & mask_vector(mask, window))
    return Fraction(int(hits), int(np.count_nonzero(in_ball)))
