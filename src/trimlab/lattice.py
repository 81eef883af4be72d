"""Finite regions of Z^d: boxes, adjacency, boundaries and sublattice masks.

Sites are plain integer tuples.  All set-valued results are sorted
lexicographically so that every output is bitwise reproducible.  The
vectorised Philox kernel behind site percolation also draws the
potentials of `disorder`, which imports this module.
"""

from __future__ import annotations

import functools
import math
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
        c = np.asarray(sites, dtype=np.int64)
        if c.size and c.shape[1:] != (self.dim,):
            raise ValueError(f"sites are not {self.dim}-dimensional")
        c = c.reshape(-1, self.dim) - self.lo
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


_FNV_K = np.uint64(0x1B3)  # h * (2**40 + 0x1B3) is (h << 40) + h * _FNV_K
_SHIFT17, _SHIFT24, _SHIFT40, _SHIFT47 = (np.uint64(v) for v in (17, 24, 40, 47))


def _site_keys(seed: int, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_site_key` of each row of an (m, d) int64 coordinate array, as its
    low and high uint64 words.  The carry of lo * 0x1B3 out of the low
    word is taken from its 32-bit halves, and that of the sum from the
    wrapped low word."""
    lo = np.full(len(coords), _site_key(seed, ()), dtype=np.uint64)
    hi = np.zeros_like(lo)
    for c in np.asarray(coords, dtype=np.int64).astype(np.uint64).T:
        lo ^= c
        carry = (lo >> _SHIFT32) * _FNV_K + ((lo & _LO32) * _FNV_K >> _SHIFT32)
        shifted = lo << _SHIFT40
        low = shifted + lo * _FNV_K
        hi = (hi << _SHIFT40 | lo >> _SHIFT24) + hi * _FNV_K + (carry >> _SHIFT32)
        hi += low < shifted
        # h ^= h >> 47
        lo = low ^ (low >> _SHIFT47 | hi << _SHIFT17)
        hi ^= hi >> _SHIFT47
    return lo, hi


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
        return philox_uniforms(*_site_keys(self.seed, box.coords), 1)[:, 0] < self.p


@functools.lru_cache(maxsize=64)
def mask_vector(mask: SublatticeMask, box: LatticeBox) -> np.ndarray:
    """Read-only indicator of Gamma on the box sites, in index order."""
    keep = mask.indicator(box)
    keep.flags.writeable = False
    return keep


#: the most fields each kind of mask descriptor takes after its kind
_MASK_FIELDS = {"full": 0, "gamma1": 1, "gamma2": 1, "cell": 2, "bernoulli": 2}


def mask_from_descriptor(text: str) -> SublatticeMask:
    """Parse a mask descriptor as used on the command line: `full`,
    `gamma1:k,m`, `gamma2:k`, `cell:PxQ...:bits` (one 0 or 1 per residue,
    row-major) or `bernoulli:p[:seed]`.  A trailing field, or a cell bit
    other than 0 or 1, is a ValueError."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if len(parts) - 1 > _MASK_FIELDS.get(kind, len(parts)):
            most = _MASK_FIELDS[kind]
            raise ValueError(f"{len(parts) - 1} fields after {kind}, at most {most}")
        if kind == "full":
            return FullMask()
        if kind == "gamma1":
            k, m = (int(v) for v in parts[1].split(","))
            return Gamma1Mask(k, m)
        if kind == "gamma2":
            return Gamma2Mask(int(parts[1]))
        if kind == "cell":
            period = tuple(int(v) for v in parts[1].split("x"))
            if set(parts[2]) - {"0", "1"}:
                raise ValueError(f"cell bits {parts[2]!r} are not all 0 or 1")
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


def boundary(sites: Sequence[Site] | set) -> tuple[Site, ...]:
    """The outer boundary of a finite site set: the sites outside it with
    a nearest neighbour in it, sorted."""
    inside = set(sites)
    return tuple(sorted({y for x in inside for y in neighbors(x)} - inside))


def _union_find(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Root of each of n nodes under the edges (i, j), the smallest node of
    its component: each pass hooks every root to its smallest adjacent
    root, then jumps pointers until every node points at a root."""
    root = np.arange(n)
    while len(i):
        a, b = root[i], root[j]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := root[root], root):
            root = up
        i, j = np.array([i, j])[:, root[i] != root[j]]
    return root


def _labelled(sites: np.ndarray):
    """(comp, pairs) of an (m, d) array of distinct sites in sorted order:
    their nearest-neighbour components, numbered in the order of their
    smallest site, and `pairs(offsets)`, the positions (i, j) of the site
    pairs with site j - site i among the offsets.  Each axis is re-laid
    with its gaps capped at 3, which keeps the order and every offset of
    l^1 length <= 2; `pairs` searches the sorted row-major keys of the box
    so spanned, and no array the size of that box is made."""
    packed = np.empty_like(sites)
    for k, col in enumerate(sites.T):
        u, inv = np.unique(col, return_inverse=True)
        # an unsigned difference is exact for any two int64 coordinates
        gaps = np.diff(u.view(np.uint64), prepend=u[:1].view(np.uint64))
        packed[:, k] = np.cumsum(np.minimum(gaps, 3), dtype=np.int64)[inv]
    hi = tuple(packed.max(axis=0, initial=0).tolist())
    box = LatticeBox((0,) * len(hi), hi)
    keys = box.indices(packed)

    def pairs(offsets) -> tuple[np.ndarray, np.ndarray]:
        shifted = np.array([box.indices(packed + offset) for offset in offsets])
        j = np.minimum(np.searchsorted(keys, shifted), len(keys) - 1).ravel()
        hit = np.flatnonzero(keys[j] == shifted.ravel())
        return hit % len(keys), j[hit]

    root = _union_find(len(keys), *pairs(np.eye(len(hi), dtype=np.int64)))
    return np.unique(root, return_inverse=True)[1], pairs


def components(sites: Iterable[Site]) -> list[tuple[Site, ...]]:
    """Nearest-neighbour connected components of a finite site set, each
    sorted, ordered by their smallest site."""
    pool = sorted(set(sites))
    if not pool:
        return []
    comp, _ = _labelled(np.array(pool, dtype=np.int64))
    order = np.argsort(comp, kind="stable").tolist()
    ends = np.cumsum(np.bincount(comp)).tolist()
    return [tuple(pool[k] for k in order[a:b]) for a, b in zip([0, *ends], ends)]


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
    sites = window.coords[~mask_vector(mask, window)]
    comp, pairs = _labelled(sites)
    face = np.any((sites == window.lo) | (sites == window.hi), axis=1)
    flagged, n = tuple(np.unique(comp[face]).tolist()), int(comp.max(initial=-1)) + 1
    # distinct components are never adjacent, so a distance below 3 is 2;
    # the witness is the least (component i, component j, site of i, site
    # of j) over the site pairs at the offsets of l^1 length 2
    offsets = [o for o in ball((0,) * window.dim, 2) if sum(map(abs, o)) == 2]
    x, y = pairs(offsets)
    x, y = np.array([x, y])[:, comp[x] < comp[y]]
    if not len(x):
        return InsulationReport(True, None, None, flagged, n)
    w = np.lexsort((y, x, comp[y], comp[x]))[0]
    witness = (tuple(sites[x[w]].tolist()), tuple(sites[y[w]].tolist()))
    return InsulationReport(False, witness, 2, flagged, n)


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
