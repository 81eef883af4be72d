"""Dense spectral machinery: eigendecomposition, Green functions, the
slice recursion of a box's Green function, Schur complements and the
fold of a deterministic block, resolvent-identity residuals, the
eigenvalue-cluster rule (`point_projection`, `gap_and_mult`) and decay
fits.

Green functions are computed by pivoted complex LU (LAPACK gesv through
`numpy.linalg`), independent of the eigendecomposition (`numpy.linalg.eigh`,
LAPACK syevd), so the LU route and the eigen route stay oracles for each
other.  The Monte Carlo chi estimates at a non-real z take a third
route, `slice_green_rows`: H on a box couples only adjacent slices
x_1 = const, by -1, so every block of G_z follows from W x W inversions
per slice (elementwise divisions when W = 1, as on every chain), and
the rows of blocks are handed over one at a time instead of an n x n
matrix.  `fold_complement` folds the deterministic
complement Gamma^c out of the eigenpairs of H(0)|_{Gamma^c}, for the
kernel K; `schur_green` keeps its own solve-based Schur complement, an
independent reference that `verify` checks against the whole-operator
LU.  The eigen route serves `dynamics` and the Wegner statistics, which
read every t or eps off one eigendecomposition per realization.  A
single matrix and a stack of matrices go through the same gesv or syevd;
`tests/test_engine.py` checks the stacked engine (draws, assembly,
chunking, resampling, the slice recursion) against single-matrix `green`
calls of the whole operator, and against an eigen oracle.  All dense
algebra uses numpy's LAPACK, so a process loads one BLAS and one thread
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Site, l1_distances
from .operators import HamiltonianMatrix, restrict


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


def green(h, z: complex) -> np.ndarray:
    """G_z = (H - z)^-1 by pivoted complex LU, as a complex (..., n, n)
    array.

    h may be one matrix or a stack of matrices along leading axes; each
    is solved against the identity on its own (`numpy.linalg.inv`, LAPACK
    gesv).  For real symmetric H, a real z is refused when it lies within
    1e-12 * max(||H||, 1) of an eigenvalue of some H in the stack.  Complex H (such as the complex-symmetric,
    non-Hermitian hedgehog blocks) goes straight to the solve: eigvalsh
    would read only one triangle of it.
    """
    m = _matrix(h)
    z = complex(z)
    _refuse_spectrum(m, z)
    return _inverse(m.astype(complex), z)


def _refuse_spectrum(m: np.ndarray, z: complex) -> None:
    """`green`'s refusal: raise SpectralParameterOnSpectrum when z is real,
    m is real and z lies within 1e-12 * max(||m||, 1) of an eigenvalue of
    some matrix of the stack m.  A caller that inverts a real matrix in a
    buffer of its own checks it here first."""
    if z.imag == 0.0 and np.isrealobj(m):
        vals = np.linalg.eigvalsh(m)
        scale = np.maximum(np.max(np.abs(vals), axis=-1), 1.0)
        hits = np.min(np.abs(vals - z.real), axis=-1) <= 1e-12 * scale
        if np.any(hits):
            raise SpectralParameterOnSpectrum(
                f"z = {z} lies on the spectrum (within 1e-12 * ||H||)", hits
            )


def _inverse(a: np.ndarray, z: complex) -> np.ndarray:
    """(a - z)^-1 of one complex matrix or a stack, shifting a in place:
    no n x n identity, z * identity or second buffer."""
    d = np.arange(a.shape[-1])
    a[..., d, d] -= z
    return np.linalg.inv(a)


def _reciprocal(m: np.ndarray) -> np.ndarray:
    """The inverses of a stack of 1 x 1 blocks, by one elementwise division.
    As in `numpy.linalg.inv`, a zero block raises LinAlgError and overflow
    is silent."""
    if not m.all():
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        return np.reciprocal(m)


def _slabs(n_l: int, w: int) -> int:
    """Columns per slab of the row products of `slice_green_rows` on n_l
    slices of w sites.  A slab is a quarter row (at least one block) and
    at least 2**16 / w**2 columns, so that each product's work outweighs
    the cost of its call, rounded up to 64 columns so that BLAS tiles each
    product as it would tile the whole row's; no product is one column,
    which numpy hands to gemv.  Either would change the last bits."""
    return -(-max(max(1, n_l // 4) * w, 2**16 // w**2) // 64) * 64


def slice_green_rows(a: np.ndarray, z: complex, buf: np.ndarray | None = None):
    """Rows of blocks G_{i,0..i}, i = 0, 1, ..., of G_z = (H - z)^-1 for a
    stack of block-tridiagonal H, by recursion over the slices.

    a holds the diagonal blocks, (S, L, W, W) for S matrices of L slices;
    the blocks beside the diagonal are -1 (minus the W x W identity), as
    between adjacent slices x_1 = const of a box.  z is non-real, so no
    block is singular in exact arithmetic; one singular to working
    precision raises LinAlgError, naming z and the slice.  One-site slices
    (W = 1, every chain) are inverted elementwise, without LAPACK.  With the
    right-connected gR_i = (A_i - z - gR_{i+1})^-1
    and the left-connected gL_i = (A_i - z - gL_{i-1})^-1, each diagonal
    block is inverted on its own, G_ii = (A_i - z - gL_{i-1} - gR_{i+1})^-1,
    and G_{i,j} = gR_i G_{i-1,j} for j < i.  Each row is yielded as one
    (S, W, (i+1) W) array, the columns of slices 0..i in order, and is
    overwritten once the next row is taken; G is complex symmetric, so
    the rows give every entry.  Per matrix the recursion holds the gR_i,
    each freed once its row is made, and one row of W n complex entries,
    n = L W: L W**2 + W n entries.  Row i is written over row i - 1 in
    place, one slab of columns at a time (`_slabs`), bit for bit as one
    product per row would make it; numpy copies a slab per product.
    buf, complex and (S', W, n) with S' >= S, holds the row; a caller
    that runs several z or stacks passes one, since a buffer freed and
    allocated again per call is given back to the system and faulted in
    again each time.  The Dyson update
    G_ii = gR_i + gR_i G_{i-1,i-1} gR_i would save the inversions, but it
    cancels near an eigenvalue: on a gamma1:2,2 9 x 7 box at E = 4, its
    chi was off by 1.2e-3 at eps = 1e-9, the direct inversion's by 4e-15.
    The direct inversion is not that accurate on every geometry.  gamma2:3
    on (-2..2, -1..3) with g = 2, seed 0, one sample, z = 4 - 1e-9 i, s = 1
    and eta = 0.1 gives chi = 1529545166.6802347 against 1529545166.2298875
    from per-realization LU, 2.9e-10 relative.  Near a deterministic pole
    it is worse: `localize` on 1..11,1..11 with gamma2:3, eps = 1e-9 and
    20 samples (g = 5, s = 1/3, eta = 0.1, E = 4, seed 0) gives
    chi = 28328.963197687488 against 28329.265547661555 from LU, 1.07e-5
    relative, with one column sum off by 4.4%, and still exits 0.  ROADMAP
    item 2 is the fix.
    """
    n_l, w = a.shape[1], a.shape[-1]
    inv = np.linalg.inv if w > 1 else _reciprocal
    # A_i - z is formed per slice as a[:, i] - zi: a complex block, bit for
    # bit a complex copy of A_i with z subtracted from its diagonal
    zi = np.zeros((w, w), dtype=complex)
    np.fill_diagonal(zi, z)
    try:
        gr = [None] * n_l  # gR_i for i >= 1
        for i in range(n_l - 1, 0, -1):
            m = a[:, i] - zi
            gr[i] = inv(m - gr[i + 1] if i + 1 < n_l else m)
        slab = _slabs(n_l, w)
        if buf is None:
            buf = np.empty((len(a), w, n_l * w), dtype=complex)
        buf = buf[: len(a)]
        gl = None
        for i in range(n_l):
            m = a[:, i] - zi
            if i:
                m -= gl  # A_i - z - gL_{i-1}, for G_ii and for gL_i
                cuts = [0, *range(slab, i * w - 1, slab), i * w]
                for c, d in zip(cuts, cuts[1:]):
                    # numpy copies a piece that out overlaps (all of it is read);
                    # two alternating row buffers would not, but moved 21 x 21
                    # `localize` by -10% to +2% and hold W n more entries a matrix
                    piece = buf[:, :, c:d]
                    np.matmul(gr[i], piece, out=piece)
                gr[i] = None  # read for the last time
            row = buf[:, :, : (i + 1) * w]
            row[:, :, i * w :] = inv(m - gr[i + 1] if i + 1 < n_l else m)
            yield row
            if i + 1 < n_l:
                gl = inv(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{exc} at z = {z}, slice {i}") from exc


def fold_complement(
    h: np.ndarray, gamma: np.ndarray, comp: np.ndarray, z: complex, sd: SpectralData
) -> np.ndarray:
    """S = H_{Gamma Gamma^c} G_z[H_{Gamma^c}] H_{Gamma^c Gamma} of the
    symmetric matrix h, with gamma and comp the indices of Gamma and
    Gamma^c and sd the eigenpairs of H_{Gamma^c}: the block that folding
    Gamma^c out of G_z subtracts from H_{Gamma Gamma}, so that
    G_{Gamma Gamma} = G_z[H_{Gamma Gamma} - S].  Only the columns of the
    Gamma-boundary of Gamma^c (the nonzero columns of H_{Gamma^c Gamma})
    enter the products."""
    z = complex(z)
    u = sd.eigenvectors
    r = (u * (1.0 / (sd.eigenvalues - z))) @ u.T
    hcg, hgc = h[np.ix_(comp, gamma)], h[np.ix_(gamma, comp)]
    edge = np.flatnonzero(np.any(hcg != 0, axis=0))
    s = np.zeros((len(gamma), len(gamma)), dtype=complex)
    s[np.ix_(edge, edge)] -= hgc[edge] @ -(r @ hcg[:, edge])
    return s


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
    a = m.astype(complex)
    d = np.arange(m.shape[0])
    a[d, d] -= z  # A - z: one complex copy, shifted on its diagonal
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
    return green(restrict(ham, xc), z)


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
        g = green(ham, z)
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


def point_projection(sd: SpectralData, lam: float) -> np.ndarray:
    """P = sum of the eigenprojections of the eigenvalues within
    `_cluster_tol` of lam."""
    tol = _cluster_tol(sd)
    sel = (sd.eigenvalues >= lam - tol) & (sd.eigenvalues <= lam + tol)
    vecs = sd.eigenvectors[:, sel]
    return vecs @ vecs.T


def _cluster_tol(sd: SpectralData) -> float:
    """How far from lam an eigenvalue still counts as lam:
    max(1e-9, 1e-12 max|E|), which is 1e-9 whenever every |E| <= 1000."""
    scale = max(np.max(np.abs(sd.eigenvalues)), 1.0)
    return max(1e-9, 1e-12 * scale)


def gap_and_mult(sd: SpectralData, lam: float) -> dict:
    """Multiplicity of lam (within `_cluster_tol`) and distance to the rest."""
    dists = np.abs(sd.eigenvalues - lam)
    inside = dists <= _cluster_tol(sd)
    mult = int(np.sum(inside))
    if mult == sd.n:
        raise ValueError("all eigenvalues inside the cluster; gap undefined")
    gap = float(np.min(dists[~inside]))
    return {"mult": mult, "gap": gap}


def combes_thomas_rate(ham: HamiltonianMatrix, z: complex, x0: Site) -> dict:
    """Least-squares exponential decay rate of |G_z(x0, .)|.

    Sites closer than distance 2 to x0 or to the box boundary are
    excluded; boundary effects contaminate the asymptotic rate there.
    """
    g = green(ham, z)
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
