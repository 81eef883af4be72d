"""Assembly of finite-volume trimmed Hamiltonians and related operators.

The restriction convention is literal coordinate projection P_B H P_B*:
the diagonal keeps the full-lattice value 2d + V0 + gV, only hopping
entries leaving the region are dropped.  The doubled ("hedgehog")
operator is returned as a plain 2N x 2N array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeBox, Site, SublatticeMask, mask_vector

DENSE_LIMIT = 6000


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real-symmetric P_B H(g) P_B* with the box, mask and sites of its rows."""

    box: LatticeBox
    matrix: np.ndarray
    mask: SublatticeMask
    #: subset of box sites the matrix acts on, in index order (None = all)
    sites: tuple[Site, ...] | None = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def site_list(self) -> tuple[Site, ...]:
        if self.sites is not None:
            return self.sites
        return tuple(self.box.sites())

    @functools.cached_property
    def box_index(self) -> np.ndarray:
        """Box index of the site of each row."""
        if self.sites is None:
            return np.arange(self.box.size)
        return self.box.indices(self.sites)

    def rows(self, sites: Sequence[Site]) -> np.ndarray:
        """Row of each given site; ValueError for a site outside the region."""
        # row by box index, -1 for none; the last slot serves box index -1,
        # a site outside the box
        row_of = np.full(self.box.size + 1, -1)
        row_of[self.box_index] = np.arange(self.n)
        rows = row_of[self.box.indices(sites)]
        if np.any(rows < 0):
            site = sites[int(np.argmax(rows < 0))]
            raise ValueError(f"site {site} not in the operator's region")
        return rows


def resolve_v0(v0, box: LatticeBox) -> np.ndarray:
    """Background potential per box site, as a new array, from None, a
    number, or one number per site in index order."""
    if v0 is None:
        return np.zeros(box.size)
    arr = np.array(v0, dtype=float)
    if arr.ndim == 0:
        return np.full(box.size, float(arr))
    if arr.shape != (box.size,):
        raise ValueError("v0 vector length does not match site count")
    return arr


def laplacian_matrix(box: LatticeBox) -> np.ndarray:
    """-Delta restricted to the box, full-lattice diagonal 2d kept."""
    n = box.size
    if n > DENSE_LIMIT:
        raise ValueError(f"box size {n} exceeds dense limit {DENSE_LIMIT}")
    h = np.zeros((n, n))
    np.fill_diagonal(h, 2.0 * box.dim)
    idx = np.arange(n).reshape(box.shape)
    for k in range(box.dim):
        # site indices along axis k: each is adjacent to the next
        line = np.moveaxis(idx, k, 0)
        h[line[:-1], line[1:]] = -1.0
        h[line[1:], line[:-1]] = -1.0
    return h


def assemble(
    box: LatticeBox,
    mask: SublatticeMask,
    v0=None,
    g: float = 1.0,
    v: np.ndarray | None = None,
) -> HamiltonianMatrix:
    """H(g)|_B = (-Delta + V0 + gV)|_B with V supported on Gamma."""
    v0_vec = resolve_v0(v0, box)
    if v is None:
        v_vec = np.zeros(box.size)
    else:
        v_vec = np.asarray(v, dtype=float)
        if v_vec.shape != (box.size,):
            raise ValueError("potential vector length does not match box")
        bad = np.flatnonzero((v_vec != 0.0) & ~mask_vector(mask, box))
        if bad.size:
            raise ValueError(
                f"potential nonzero off Gamma at {box.site(int(bad[0]))}"
            )
    h = laplacian_matrix(box)
    h[np.diag_indices_from(h)] = diagonal(box, v0_vec, g, v_vec)
    return HamiltonianMatrix(box, h, mask)


def diagonal(box: LatticeBox, v0: np.ndarray, g: float, v: np.ndarray) -> np.ndarray:
    """2d + (V0 + gV), the diagonal of H(g) for v0 of `resolve_v0` and one
    potential per row of v: every build of H(g) takes its diagonal here."""
    return 2.0 * box.dim + (v0 + g * v)


def restrict(ham: HamiltonianMatrix, sites: Sequence[Site]) -> HamiltonianMatrix:
    """Coordinate-projection restriction to a subset of the operator's sites
    (which may itself be a restriction)."""
    sites = tuple(sorted(sites))
    idx = ham.rows(sites)
    return HamiltonianMatrix(ham.box, ham.matrix[np.ix_(idx, idx)], ham.mask, sites)


def trimmed_restriction(ham: HamiltonianMatrix) -> HamiltonianMatrix:
    """H_Gamma = P_{Gamma^c} H P_{Gamma^c}* on the disorder-free sites."""
    off_gamma = ~mask_vector(ham.mask, ham.box)[ham.box_index]
    if not off_gamma.any():
        raise ValueError("empty complement: Gamma covers the whole region")
    sites = ham.site_list()
    return restrict(ham, [sites[i] for i in np.flatnonzero(off_gamma)])


# ---------------------------------------------------------------------------
# Hedgehog construction
# ---------------------------------------------------------------------------


def hedgehog_assemble(h0: HamiltonianMatrix, u: np.ndarray) -> np.ndarray:
    """Block operator [[U, -1], [-1, H(0)]] on Lambda x {1, 0}, complex
    when u is.

    Index order: rows 0..N-1 are the pendant sites (Lambda x {1}), rows
    N..2N-1 the base sites (Lambda x {0}).
    """
    u = np.asarray(u)
    n = h0.n
    if u.shape != (n,):
        raise ValueError(f"potential length {u.shape} does not match base size {n}")
    dtype = complex if np.iscomplexobj(u) else float
    m = np.zeros((2 * n, 2 * n), dtype=dtype)
    m[:n, :n] = np.diag(u)
    m[:n, n:] = -np.eye(n)
    m[n:, :n] = -np.eye(n)
    m[n:, n:] = h0.matrix
    return m
