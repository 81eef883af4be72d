"""Dense spectral machinery: eigendecomposition, Green functions, Schur
complements and the fold of a deterministic block, resolvent-identity
residuals, projections and decay fits.

Green functions are computed by pivoted complex LU (LAPACK gesv through
`numpy.linalg`), independent of the eigendecomposition (`numpy.linalg.eigh`,
LAPACK syevd), so the LU route and the eigen route stay oracles for each
other.  The LU route serves the Monte Carlo chi engine
(`fracmoment.mc_map`), which at a non-real z solves only the |Gamma|
block of each realization: `fold_complement` solves the deterministic
complement once per z, and `ComplementFold.solve` the folded block
H_{Gamma Gamma} - S of every realization, in one complex buffer.  The
fold keeps, per component C of Gamma^c, R_C = G_z[H_{CC}] and
B_C = R_C H_{C Gamma} on the Gamma-boundary of C only; that is exact
because the Laplacian has no bond between two components, so H(0) on
Gamma^c is block diagonal.  `schur_green` keeps its own solve-based Schur
complement, an independent reference that `verify` checks against the
whole-operator LU.  The eigen route serves `dynamics` and, when Gamma
covers the box, the multi-z sweep of `localize`; both read G_z at every
z off one eigendecomposition per realization.  A single matrix and a
stack of matrices go through the same gesv or syevd;
`tests/test_engine.py` checks the stacked engine's own logic (draws,
assembly, folding, chunking, resampling) against single-matrix `green`
calls of the whole operator, and the eigen sweep against the folded LU
engine.  All dense algebra uses numpy's LAPACK, so a process loads one
BLAS and one thread pool.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Site, l1_distances
from .operators import HamiltonianMatrix, restrict

EIG_TOL = 1e-10


class SpectralParameterOnSpectrum(ValueError):
    """Raised when a real spectral parameter collides with an eigenvalue.

    For a stack of matrices, `hits` flags the ones that collide.
    """

    def __init__(self, message: str, hits: np.ndarray | None = None):
        super().__init__(message)
        self.hits = hits


def _matrix(h) -> np.ndarray:
    return h.matrix if isinstance(h, HamiltonianMatrix) else np.asarray(h)


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: np.ndarray  # ascending along the last axis
    eigenvectors: np.ndarray  # orthonormal columns

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


def eigendecompose(h) -> SpectralData:
    """H = U diag(E) U^T by LAPACK syevd, for one matrix or a stack of
    matrices along leading axes (eigenvalues (..., n), U (..., n, n))."""
    m = _matrix(h)
    if not np.array_equal(m, m.swapaxes(-1, -2)):
        raise ValueError("matrix is not exactly symmetric")
    vals, vecs = np.linalg.eigh(m)
    return SpectralData(vals, vecs)


@dataclass(frozen=True)
class GreenMatrix:
    z: complex
    entries: np.ndarray


def green(h, z: complex) -> GreenMatrix:
    """G_z = (H - z)^-1 by pivoted complex LU.

    h may be one matrix or a stack of matrices along leading axes; each
    is solved against the identity on its own (`numpy.linalg.inv`, LAPACK
    gesv).  For real symmetric H, a real z is refused when it lies within
    1e-12 * max(||H||, 1) of an eigenvalue of some H in the stack.  Complex H (such as the complex-symmetric,
    non-Hermitian hedgehog blocks) goes straight to the solve: eigvalsh
    would read only one triangle of it.
    """
    m = _matrix(h)
    z = complex(z)
    if z.imag == 0.0 and np.isrealobj(m):
        vals = np.linalg.eigvalsh(m)
        scale = np.maximum(np.max(np.abs(vals), axis=-1), 1.0)
        hits = np.min(np.abs(vals - z.real), axis=-1) <= 1e-12 * scale
        if np.any(hits):
            raise SpectralParameterOnSpectrum(
                f"z = {z} lies on the spectrum (within 1e-12 * ||H||)", hits
            )
    return GreenMatrix(z, _inverse(m.astype(complex), z))


def _inverse(a: np.ndarray, z: complex) -> np.ndarray:
    """(a - z)^-1 of one complex matrix or a stack, shifting a in place:
    no n x n identity, z * identity or second buffer."""
    d = np.arange(a.shape[-1])
    a[..., d, d] -= z
    return np.linalg.inv(a)


@dataclass(frozen=True)
class GreenBlocks:
    """A stack of G_z (S samples) by blocks of Gamma and its complement.

    gamma and comp hold the box indices of Gamma and Gamma^c, each in the
    order of its block's rows (comp in the fold's component order);
    gg = G_{Gamma Gamma}, cg = G_{Gamma^c Gamma}, cc = G_{Gamma^c Gamma^c},
    each with the samples on the first axis.  G is symmetric, so
    G_{Gamma Gamma^c} is cg transposed.
    """

    gg: np.ndarray
    cg: np.ndarray
    cc: np.ndarray
    gamma: np.ndarray
    comp: np.ndarray

    @classmethod
    def whole(cls, gs: np.ndarray) -> GreenBlocks:
        """A whole (S, n, n) stack: every site in Gamma, comp empty."""
        s, n = len(gs), gs.shape[-1]
        cg, cc = np.empty((s, 0, n), dtype=complex), np.empty((s, 0, 0), dtype=complex)
        return cls(gs, cg, cc, np.arange(n), np.arange(0))

    def entry(self, x: int, y: int) -> np.ndarray:
        """G(x, y) of every sample, for box indices x, y."""
        px, py = int(self._slot[x]), int(self._slot[y])
        if px >= 0 and py >= 0:
            return self.gg[:, px, py]
        if py >= 0:
            return self.cg[:, ~px, py]
        if px >= 0:
            return self.cg[:, ~py, px]
        return self.cc[:, ~px, ~py]

    @functools.cached_property
    def _slot(self) -> np.ndarray:
        """Per box index, its row in gamma (>= 0) or ~(its row in comp)."""
        slot = np.empty(len(self.gamma) + len(self.comp), dtype=np.int64)
        slot[self.gamma] = np.arange(len(self.gamma))
        slot[self.comp] = ~np.arange(len(self.comp))
        return slot


@dataclass(frozen=True)
class ComplementFold:
    """A deterministic block Gamma^c of H folded out at one (non-real) z.

    With R = G_z[H_{Gamma^c}], B = R H_{Gamma^c Gamma} and
    S = H_{Gamma Gamma^c} B, the Schur complement gives, for any
    H_{Gamma Gamma}, G_{Gamma Gamma} = G_z[H_{Gamma Gamma} - S],
    G_{Gamma^c Gamma} = -B G_{Gamma Gamma} and
    G_{Gamma^c Gamma^c} = R + B G_{Gamma Gamma} B^T.

    H_{Gamma^c} is block diagonal over the blocks of `parts`, runs of comp
    that no entry of H couples: for H(0) these are the components of
    Gamma^c (`assemble` adds only diagonal terms to the Laplacian, whose
    nearest-neighbour bonds join no two components).  So R is block
    diagonal and each block's rows of B are nonzero only in the columns
    of its Gamma-boundary.  Each part is (rows, r, edge, nb): the slice of
    comp of a block C, R_C, the positions in gamma of the boundary dC
    (the nonzero columns of H_{C Gamma}), and -B_C on those columns.
    """

    gamma: np.ndarray
    comp: np.ndarray
    z: complex
    parts: tuple[tuple[slice, np.ndarray, np.ndarray, np.ndarray], ...]
    s: np.ndarray

    def solve(self, h: np.ndarray) -> np.ndarray:
        """G_{Gamma Gamma} = G_z[h - S] of a real H_{Gamma Gamma} or a stack,
        inverted in the one complex buffer h - S.  z is non-real, so no
        matrix collides with it and `green`'s collision check is not needed."""
        return _inverse(h - self.s, self.z)

    def blocks(self, gg: np.ndarray) -> GreenBlocks:
        """Every block of G_z from a stack of G_{Gamma Gamma}, block by block:
        G_{Gamma^c Gamma}[C] = -B_C G_{Gamma Gamma}[dC] and
        G_{Gamma^c Gamma^c}[C] = R_C (on C x C) - B_C G_{Gamma^c Gamma}[:, dC]^T."""
        n_s, n_c = len(gg), len(self.comp)
        cg = np.empty((n_s, n_c, len(self.gamma)), dtype=complex)
        cc = np.empty((n_s, n_c, n_c), dtype=complex)
        for rows, _, edge, nb in self.parts:
            cg[:, rows] = nb @ gg[:, edge]
        for rows, r, edge, nb in self.parts:
            cc[:, rows] = nb @ cg[:, :, edge].swapaxes(1, 2)
            cc[:, rows, rows] += r
        return GreenBlocks(gg, cg, cc, self.gamma, self.comp)


def _runs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the finest split of range(len(m)) into runs that
    no nonzero entry of the square matrix m couples: m is block diagonal
    over them."""
    nz = (m != 0) | (m != 0).T
    pos = np.arange(len(m))
    # a run ends at k when none of 0..k couples to a position past k
    reach = np.max(np.where(nz, pos, pos[:, None]), axis=1, initial=0)
    stops = np.flatnonzero(np.maximum.accumulate(reach) == pos) + 1
    return np.concatenate(([0], stops))[:-1], stops


def fold_complement(
    h: np.ndarray,
    gamma: np.ndarray,
    comp: np.ndarray,
    z: complex,
    sd: SpectralData | None = None,
) -> ComplementFold:
    """Fold the block comp of the symmetric matrix h out of its block gamma
    at z.

    h_{comp comp} is split into the runs of comp that no entry couples, so
    comp in component order gives one block per component and comp in
    any other order fewer, larger blocks: the fold is exact either way.
    The blocks are solved by `green`, one stacked call per block size, or
    R is read off sd, the eigenpairs of h_{comp comp}, as one block.
    """
    z = complex(z)
    hcg, hgc = h[np.ix_(comp, gamma)], h[np.ix_(gamma, comp)]
    if sd is None:
        hcc = h[np.ix_(comp, comp)]
        starts, stops = _runs(hcc)
        solved = []  # (start, R_C) per block
        for size in np.unique(stops - starts):
            first = starts[stops - starts == size]
            pos = first[:, None] + np.arange(size)
            stack = hcc[pos[:, :, None], pos[:, None, :]]
            solved += zip(first, green(stack, z).entries)
    else:
        u = sd.eigenvectors
        solved = [(0, (u * (1.0 / (sd.eigenvalues - z))) @ u.T)]
    s = np.zeros((len(gamma), len(gamma)), dtype=complex)
    parts = []
    for start, r in solved:
        rows = slice(int(start), int(start) + len(r))
        edge = np.flatnonzero(np.any(hcg[rows] != 0, axis=0))
        nb = -(r @ hcg[rows, edge])
        s[np.ix_(edge, edge)] -= hgc[edge, rows] @ nb
        parts.append((rows, r, edge, nb))
    return ComplementFold(gamma, comp, z, tuple(parts), s)


def _index_split(ham: HamiltonianMatrix, x_sites: Sequence[Site]):
    """X (sorted), its rows, X^c (in row order) and its rows."""
    xs = sorted(set(x_sites))
    ix = ham.rows(xs)
    in_x = np.zeros(ham.n, dtype=bool)
    in_x[ix] = True
    ixc = np.flatnonzero(~in_x)
    sites = ham.site_list()
    return xs, ix, [sites[i] for i in ixc], ixc


def schur_green(ham: HamiltonianMatrix, x_sites: Sequence[Site], z: complex):
    """P_X G_z P_X* via the Schur-Banachiewicz complement of the X^c block."""
    m = _matrix(ham)
    z = complex(z)
    xs, ix, xc, ixc = _index_split(ham, x_sites)
    a = m.astype(complex) - z * np.eye(m.shape[0])
    axx = a[np.ix_(ix, ix)]
    if not ixc.size:
        return xs, np.linalg.inv(axx)
    axc = a[np.ix_(ix, ixc)]
    acx = a[np.ix_(ixc, ix)]
    acc = a[np.ix_(ixc, ixc)]
    inner = np.linalg.solve(acc, acx)
    comp = axx - axc @ inner
    return xs, np.linalg.inv(comp)


def off_x_green(ham: HamiltonianMatrix, x_sites: Sequence[Site], z: complex):
    """G_z[A_X], A_X the restriction of the operator off X (to X^c), in
    the order of X^c in the operator's site list; 0 x 0 for empty X^c."""
    _, _, xc, _ = _index_split(ham, x_sites)
    if not xc:
        return np.zeros((0, 0), dtype=complex)
    return green(restrict(ham, xc), z).entries


def resolvent_identity_residual(
    ham: HamiltonianMatrix,
    x_sites: Sequence[Site],
    z: complex,
    case: str,
    g: np.ndarray | None = None,
    gx: np.ndarray | None = None,
) -> float:
    """Max deviation from the boundary-sum resolvent identity.

    A_X denotes the restriction of the operator off X (to X^c), with the
    same diagonal convention as the assembly.  The out-out case carries
    the free G_z[A_X](x, y) term in addition to the double boundary sum.
    g = G_z[H] and gx = `off_x_green` may be passed in when already
    computed; otherwise they are solved here.
    """
    if case not in ("in-out", "out-in", "out-out"):
        raise ValueError(f"unknown case {case!r}")
    z = complex(z)
    xs, ix, xc, ixc = _index_split(ham, x_sites)
    if g is None:
        g = green(ham, z).entries
    if gx is None:
        gx = off_x_green(ham, x_sites, z)
    # T(u', u) = 1 for the boundary pairs u' in X, u in X^c, u' ~ u
    t = (l1_distances(xs, xc) == 1).astype(float)
    gxx = g[np.ix_(ix, ix)]
    if case == "in-out":
        diff = g[np.ix_(ix, ixc)] - gxx @ t @ gx
    elif case == "out-in":
        diff = g[np.ix_(ixc, ix)] - gx @ t.T @ gxx
    else:
        diff = g[np.ix_(ixc, ixc)] - (gx + gx @ t.T @ gxx @ t @ gx)
    return float(np.max(np.abs(diff), initial=0.0))


@dataclass(frozen=True)
class ProjectionPair:
    p: np.ndarray
    q: np.ndarray
    rank: int


def spectral_projection(
    sd: SpectralData, lo: float, hi: float
) -> ProjectionPair:
    """P = sum over eigenvalues in [lo, hi] of the eigenprojections."""
    sel = (sd.eigenvalues >= lo) & (sd.eigenvalues <= hi)
    vecs = sd.eigenvectors[:, sel]
    p = vecs @ vecs.T
    return ProjectionPair(p, np.eye(sd.n) - p, int(np.sum(sel)))


def point_projection(
    sd: SpectralData, lam: float, cluster_tol: float | None = None
) -> ProjectionPair:
    tol = _cluster_tol(sd, cluster_tol)
    return spectral_projection(sd, lam - tol, lam + tol)


def _cluster_tol(sd: SpectralData, cluster_tol: float | None) -> float:
    if cluster_tol is not None:
        return cluster_tol
    scale = max(np.max(np.abs(sd.eigenvalues)), 1.0)
    return max(1e-9, 1e-12 * scale)


def gap_and_mult(
    sd: SpectralData, lam: float, cluster_tol: float | None = None
) -> dict:
    """Multiplicity of lam (within cluster_tol) and distance to the rest."""
    tol = _cluster_tol(sd, cluster_tol)
    dists = np.abs(sd.eigenvalues - lam)
    inside = dists <= tol
    mult = int(np.sum(inside))
    if mult == sd.n:
        raise ValueError("all eigenvalues inside the cluster; gap undefined")
    gap = float(np.min(dists[~inside]))
    return {"mult": mult, "gap": gap, "cluster_tol": tol}


def combes_thomas_rate(ham: HamiltonianMatrix, z: complex, x0: Site) -> dict:
    """Least-squares exponential decay rate of |G_z(x0, .)|.

    Sites closer than distance 2 to x0 or to the box boundary are
    excluded; boundary effects contaminate the asymptotic rate there.
    """
    g = green(ham, z).entries
    box = ham.box
    coords = box.coords[ham.box_index]
    dist = l1_distances([x0], coords)[0]
    val = np.abs(g[ham.rows([x0])[0]])
    keep = (
        (dist >= 2)
        & np.all(coords - np.array(box.lo) >= 2, axis=1)
        & np.all(np.array(box.hi) - coords >= 2, axis=1)
        & (val >= 1e-290)
    )
    dists, logs = dist[keep], np.log(val[keep])
    if len(np.unique(dists)) < 2:
        raise ValueError("insufficient range for fit")
    a = np.vstack([-dists.astype(float), np.ones(len(dists))]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    c_rate, log_c = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((a @ coef - logs) ** 2)))
    if c_rate <= 0:
        raise ValueError("fitted rate is not positive")
    return {"rate": c_rate, "prefactor": math.exp(log_c), "rms_residual": resid}
