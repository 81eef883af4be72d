"""Compactly supported and periodic eigenfunctions living off the
disorder sublattice, plus an executable scan of the four structural
assumptions behind the moment-divergence mechanism.

The explicit constructions cover both standard trimming geometries: the
grid mask admits product sine patterns, the skew mask is handled by a
dense null-space solve on its invariance torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .lattice import (
    Gamma1Mask,
    Gamma2Mask,
    LatticeBox,
    Site,
    SublatticeMask,
    boundary,
    components,
    l1_distances,
    mask_vector,
    neighbors,
)
from .operators import HamiltonianMatrix, assemble, restrict
from .spectral import _cluster_tol, eigendecompose, gap_and_mult, point_projection

SUPPORT_TOL = 1e-10


def _null_space(a: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Orthonormal basis of the null space of a, as columns, by SVD (LAPACK
    gesdd): the right singular vectors whose singular value is at most
    max(s) * rcond, rcond defaulting to eps * max(a.shape)."""
    a = np.asarray(a)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    if rcond is None:
        rcond = np.finfo(s.dtype).eps * max(a.shape)
    rank = int(np.sum(s > np.amax(s, initial=0.0) * rcond))
    return vh[rank:].T.conj()


@dataclass(frozen=True)
class CompactEigenReport:
    basis: np.ndarray  # orthonormal columns supported on the complement
    full_mult: int
    supported_dim: int

    @property
    def assumption3(self) -> bool:
        return self.supported_dim == self.full_mult


def compact_eigenfunctions(
    h0: HamiltonianMatrix,
    mask: SublatticeMask,
    lam: float,
) -> CompactEigenReport:
    """Basis of the lam-eigenspace of H(0)|_B vanishing on Gamma.

    The intersection is computed as the null space of the Gamma-site
    rows of the eigenbasis, which keeps the result orthonormal.
    """
    sd = eigendecompose(h0)
    sel = np.abs(sd.eigenvalues - lam) <= _cluster_tol(sd)
    full_mult = int(np.sum(sel))
    if full_mult == 0:
        raise ValueError(f"lambda = {lam} is not an eigenvalue of the operator")
    eig_basis = sd.eigenvectors[:, sel]
    gamma_rows = mask_vector(mask, h0.box)[h0.box_index]
    if not np.any(gamma_rows):
        coeff = np.eye(full_mult)
    else:
        block = eig_basis[gamma_rows, :]
        coeff = _null_space(block, rcond=SUPPORT_TOL)
    basis = eig_basis @ coeff if coeff.size else np.zeros((h0.n, 0))
    for j in range(basis.shape[1]):
        mass = np.linalg.norm(basis[gamma_rows, j])
        resid = np.linalg.norm(h0.matrix @ basis[:, j] - lam * basis[:, j])
        if mass > SUPPORT_TOL or resid > SUPPORT_TOL:
            raise RuntimeError(
                f"basis vector {j} fails support/residual check "
                f"(mass {mass:.3g}, residual {resid:.3g})"
            )
    return CompactEigenReport(basis, full_mult, basis.shape[1])


# ---------------------------------------------------------------------------
# Explicit periodic constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicEigenfunction:
    """A lam-eigenfunction of -Delta on Z^2 vanishing on the given mask."""

    lam: float
    mask: SublatticeMask
    sampler: Callable[[Site], float]

    def window_residual(self, window: LatticeBox) -> float:
        """Max eigen-equation residual over the interior of a window."""
        worst = 0.0
        for x in window.sites():
            if window.is_boundary_site(x):
                continue
            val = 4.0 * self.sampler(x) - sum(
                self.sampler(y) for y in neighbors(x)
            )
            worst = max(worst, abs(val - self.lam * self.sampler(x)))
        return worst

    def max_mask_value(self, window: LatticeBox) -> float:
        return max(
            (abs(self.sampler(x)) for x in window.sites() if x in self.mask),
            default=0.0,
        )


def gamma1_eigenfunction(k: int, m: int, a: int, b: int) -> PeriodicEigenfunction:
    """Product sine pattern vanishing on the grid mask.

    psi(x) = sin(pi a x1 / k) sin(pi b x2 / m) with
    lam = 4 - 2 cos(pi a / k) - 2 cos(pi b / m); the odd reflection
    across the grid lines periodizes it with period (2k, 2m).
    """
    if not (1 <= a <= k - 1 and 1 <= b <= m - 1):
        raise ValueError(f"need 1 <= a <= {k - 1} and 1 <= b <= {m - 1}")
    lam = 4.0 - 2.0 * math.cos(math.pi * a / k) - 2.0 * math.cos(math.pi * b / m)

    def sampler(x: Site) -> float:
        x1, x2 = x
        # exact zeros on the grid lines (sin of integer multiples of pi)
        if (a * x1) % k == 0 or (b * x2) % m == 0:
            return 0.0
        return math.sin(math.pi * a * x1 / k) * math.sin(math.pi * b * x2 / m)

    return PeriodicEigenfunction(lam, Gamma1Mask(k, m), sampler)


@lru_cache(maxsize=None)
def _gamma2_null_basis(k: int):
    """Null-space solve on the smallest invariance torus carrying a solution.

    The complement of the skew mask consists of isolated sites, so any
    vanishing-on-mask eigenfunction has lam = 4 and is determined by a
    zero-neighbor-sum condition at every mask site.  The torus has
    horizontal period 2k; the vertical period is searched in steps of 2.
    """
    mask = Gamma2Mask(k)
    l1 = 2 * k
    for l2 in range(2, 2 * k + 1, 2):
        torus = LatticeBox((0, 0), (l1 - 1, l2 - 1))
        on = mask_vector(mask, torus).reshape(l1, l2)
        # one row per mask site y, one column per complement site (its rank
        # in index order); (1, 0) is always in the complement
        col = np.cumsum(~on).reshape(l1, l2) - 1
        rows = np.zeros((np.count_nonzero(on), np.count_nonzero(~on)))
        for axis in (0, 1):
            for step in (1, -1):
                # the torus neighbour y + step e_axis of every mask site y
                off = ~np.roll(on, -step, axis)[on]
                cols = np.roll(col, -step, axis)[on][off]
                np.add.at(rows, (np.flatnonzero(off), cols), 1.0)
        basis = _null_space(rows)
        if basis.shape[1] > 0:
            comp = [torus.site(int(i)) for i in np.flatnonzero(~on)]
            return l1, l2, comp, basis
    raise RuntimeError(f"no periodic solution found for skew mask k = {k}")


def gamma2_eigenfunction(k: int, index: int = 0) -> PeriodicEigenfunction:
    """Periodic lam = 4 eigenfunction vanishing on the skew mask."""
    if k < 2:
        raise ValueError("k must be >= 2")
    l1, l2, comp, basis = _gamma2_null_basis(k)
    if not 0 <= index < basis.shape[1]:
        raise ValueError(
            f"index {index} out of range: null space dimension is {basis.shape[1]}"
        )
    values = {s: float(v) for s, v in zip(comp, basis[:, index])}

    def sampler(x: Site) -> float:
        return values.get((x[0] % l1, x[1] % l2), 0.0)

    fn = PeriodicEigenfunction(4.0, Gamma2Mask(k), sampler)
    window = LatticeBox((0, 0), (2 * l1, 2 * l2))
    resid = fn.window_residual(window)
    if resid > 1e-10:
        raise RuntimeError(f"torus solution fails window check: {resid:.3g}")
    return fn


# ---------------------------------------------------------------------------
# Assumption scan
# ---------------------------------------------------------------------------


def assumption_scan(
    mask: SublatticeMask,
    x: Site,
    lam: float,
    candidates: Sequence[Sequence[Site]],
    big_c: float,
    small_c: float,
    v0=None,
) -> list[dict]:
    """Audit candidate regions against the four structural assumptions.

    Per candidate B containing x: (1) inner/outer radii R, R_out with the
    shape condition R_out <= R^C; (2) the projection-kernel decay
    |P_lam(x, y)| <= R^{-C} over ||x-y|| >= R^c; (3) the lam-eigenspace
    supported off the mask; (4) the spectral gap at lam >= R^{-C}.
    This is a search tool over user-supplied shapes, not a constructor.
    """
    reports = []
    for cand in candidates:
        cand = tuple(sorted(set(cand)))
        if x not in cand:
            raise ValueError(f"candidate does not contain the base site {x}")
        if len(components(cand)) != 1:
            raise ValueError(f"candidate starting at {cand[0]} is disconnected")
        coords = np.array(cand)
        box = LatticeBox(tuple(coords.min(0).tolist()), tuple(coords.max(0).tolist()))
        h0 = restrict(assemble(box, mask, v0, 0.0, None), cand)
        dists = l1_distances([x], cand)[0]
        r_out = int(dists.max())
        # the sites nearest x off B lie on its outer boundary
        r_in = int(l1_distances([x], boundary(cand)).min()) - 1
        report: dict = {
            "sites": cand,
            "n_sites": len(cand),
            "R": r_in,
            "R_out": r_out,
        }
        if r_in < 2:
            report["applicable"] = False
            report["reason"] = "inner radius below 2; radius conditions degenerate"
            reports.append(report)
            continue
        report["applicable"] = True
        report["assumption1"] = r_out <= r_in**big_c
        sd = eigendecompose(h0)
        try:
            gm = gap_and_mult(sd, lam)
            gap = gm["gap"]
        except ValueError:
            gap = 0.0
        proj = point_projection(sd, lam)
        ix = h0.rows([x])[0]
        threshold_dist = r_in**small_c
        far = np.abs(proj[ix, dists >= threshold_dist])
        kernel_max = float(far.max(initial=0.0))
        report["assumption2"] = {
            "max_kernel": kernel_max,
            "bound": r_in ** (-big_c),
            "holds": far.size > 0 and kernel_max <= r_in ** (-big_c),
            "tested_sites": far.size,
        }
        try:
            ce = compact_eigenfunctions(h0, mask, lam)
            report["assumption3"] = {
                "full_mult": ce.full_mult,
                "supported_dim": ce.supported_dim,
                "holds": ce.assumption3,
            }
        except ValueError:
            report["assumption3"] = {
                "full_mult": 0,
                "supported_dim": 0,
                "holds": False,
            }
        report["assumption4"] = {
            "gap": gap,
            "bound": r_in ** (-big_c),
            "holds": gap >= r_in ** (-big_c),
        }
        reports.append(report)
    return reports
