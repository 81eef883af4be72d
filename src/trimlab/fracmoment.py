"""Fractional-moment machinery: chi functionals, Monte Carlo moment
estimation, the strong-disorder contraction check, the localisation
threshold kernel, and eigenvalue-counting (Wegner) statistics.

All Monte Carlo loops are serial, draw disorder through counter-based
streams and reduce in sample-index order, so estimates are reproducible
bit for bit.  `_stacks` builds every chunk of realizations, and no
other module draws a potential.  The chi estimates at a non-real z
(`localize`) form no n x n matrix but for a realization that fails the
Ward gauge: H couples only adjacent slices x_1 = const, so `_slice_sums`
takes each chunk of `_slice_blocks` once and, at every z, reads the
weighted column sums of |G_z|^s off the rows of blocks that
`spectral.slice_green_rows` yields, one W x W inversion per slice, and
checks every realization against the Ward identity; one that fails it
is recomputed by whole-operator LU.  Every other loop takes the
(S, n, n) stacks of `_operator_stacks`: `mc_map` inverts them by LU, one
inverse per realization and z, resampling a collision with a real z;
the Wegner statistics and `dynamics` factor them by `eigh` once for
every eps or t; `coupling`'s weak bound reads them sample by sample.

H(0) is built once per ensemble: `EnsembleSpec.split` caches a
`TrimmedSplit` (H(0), the Gamma/Gamma^c indices and sites, the eigenpairs
of H(0)|_{Gamma^c} and of H(0)) for `realization`, the kernel K, the
identity checks and the deterministic side of every other check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .disorder import DisorderSpec, SampleStream, sample_potential
from .lattice import LatticeBox, Site, SublatticeMask, l1_distances, mask_vector
from .operators import (
    DENSE_LIMIT,
    HamiltonianMatrix,
    assemble,
    diagonal,
    laplacian_matrix,
    resolve_v0,
)
from .spectral import (
    SpectralData,
    SpectralParameterOnSpectrum,
    _cluster_tol,
    _index_split,
    eigendecompose,
    fold_complement,
    gap_and_mult,
    green,
    off_x_green,
    slice_green_rows,
)


# ---------------------------------------------------------------------------
# Decay metrics and chi functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayMetric:
    """rho(x, y) = eta * |x - y|_1; norm ||rho|| = eta."""

    eta: float = 0.1

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")

    @property
    def norm(self) -> float:
        return self.eta

    def weight_matrix(
        self, sites: Sequence[Site], others: Sequence[Site] | None = None
    ) -> np.ndarray:
        """e^{rho(x, y)} for x in sites and y in others (default: sites),
        one math.exp per distance."""
        dist = l1_distances(sites, sites if others is None else others)
        table = [math.exp(self.eta * k) for k in range(dist.max(initial=0) + 1)]
        return np.array(table)[dist]


@dataclass(frozen=True)
class ChiReport:
    """Monte Carlo estimate of a chi functional."""

    value: float
    samples: int
    stderr: float
    params: dict


def chi_kernel(
    a: np.ndarray, sites: Sequence[Site], rho: DecayMetric, s: float = 1.0
) -> float:
    """sup_x sum_y e^{rho(y,x)} |A(y,x)|^s, evaluated exactly."""
    if s <= 0:
        raise ValueError("s must be positive")
    a = np.asarray(a)
    if a.shape != (len(sites), len(sites)):
        raise ValueError("kernel shape does not match site list")
    if a.size == 0:
        return 0.0
    weighted = rho.weight_matrix(sites) * np.abs(a) ** s
    return float(np.max(np.sum(weighted, axis=0)))


# ---------------------------------------------------------------------------
# Disorder ensembles and the Monte Carlo driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSpec:
    """The random operator family H(g)|_B: geometry, disorder and seeds."""

    box: LatticeBox
    mask: SublatticeMask
    dist: DisorderSpec
    g: float
    v0: object = None
    master_seed: int = 0
    samples: int = 100

    def potential(self, sample_index) -> np.ndarray:
        """V of one sample index; a sequence of indices gives one row each."""
        stream = SampleStream(self.dist, self.master_seed)
        return sample_potential(stream, self.mask, self.box, sample_index)

    def realization(self, sample_index: int) -> HamiltonianMatrix:
        """H(g)|_B of one sample index: a copy of split.h0, diagonal rewritten."""
        h = self.split.h0.matrix.copy()
        v0, v = resolve_v0(self.v0, self.box), self.potential(sample_index)
        h[np.diag_indices_from(h)] = diagonal(self.box, v0, self.g, v)
        return HamiltonianMatrix(self.box, h, self.mask)

    @functools.cached_property
    def split(self) -> TrimmedSplit:
        """H(0) and its split along Gamma, built on first use and kept."""
        return trimmed_split(self.box, self.mask, self.v0)


class ResampleBudgetExceeded(RuntimeError):
    pass


#: complex matrix entries per chunk of the stacked engine (1 MiB)
CHUNK_ENTRIES = 1 << 16


def chunk_size(entries: int) -> int:
    """Samples (or rows) per chunk for `entries` entries per sample (or
    row): max(1, CHUNK_ENTRIES // entries)."""
    return max(1, CHUNK_ENTRIES // entries)


def _stacks(ens: EnsembleSpec, couplings: np.ndarray, entries: int):
    """(sample indices, potentials (S, n), stack) per chunk of
    chunk_size(entries) samples, in sample order.  The stack is one buffer
    of copies of couplings, a (..., m, m) template whose diagonals hold the
    n sites, written once per pass; each chunk draws its potentials once
    and rewrites only the diagonals (`operators.diagonal`)."""
    v0 = resolve_v0(ens.v0, ens.box)
    step = chunk_size(entries)
    buf = np.empty((min(step, ens.samples), *couplings.shape))
    buf[:] = couplings
    del couplings  # an n x n template held past the fill is a realization more
    d = np.arange(buf.shape[-1])
    for start in range(0, ens.samples, step):
        idx = np.arange(start, min(start + step, ens.samples))
        v, h = ens.potential(idx), buf[: len(idx)]
        h[..., d, d] = diagonal(ens.box, v0, ens.g, v).reshape(h.shape[:-1])
        yield idx, v, h


def mc_map(per_chunk: Callable, ens: EnsembleSpec, z):
    """Evaluate the ensemble at z in sample-index order; returns
    (values, n_resampled).

    The samples go through the chunks of `_operator_stacks`: the
    potentials are drawn as one (S, n) array, the operators built as one
    stack and inverted by `green` at once, and per_chunk(gs) maps the
    chunk's (S, n, n) stack of G_z to one row per sample; values holds
    the rows of all chunks in order.  A sample whose operator has a real
    z on its spectrum (SpectralParameterOnSpectrum) is replaced by
    `ens.realization` of i + k * samples, k = 1, 2, ...; at most
    max(1, samples // 100) redraws in all (1% of the samples from 100
    samples on, but one below: 2% at 50), ResampleBudgetExceeded past it.
    """
    z = complex(z)
    budget = max(1, ens.samples // 100)
    total, rows, used = ens.samples, [], 0
    for idx, _, h in _operator_stacks(ens):
        k = np.zeros(len(idx), dtype=int)
        while True:
            try:
                gs = green(h, z)
                break
            except SpectralParameterOnSpectrum as exc:
                hits = np.flatnonzero(exc.hits)
                k[hits] += 1
                if used + int(k.sum()) > budget:
                    raise ResampleBudgetExceeded(
                        f"{used + int(k.sum())} resamples exceed the {budget} budget"
                    )
                for i in hits:
                    h[i] = ens.realization(int(idx[i] + k[i] * total)).matrix
        used += int(k.sum())
        rows.append(per_chunk(gs))
        del gs  # free this chunk's G before the next chunk is solved
    return np.concatenate(rows), used


def _operator_stacks(ens: EnsembleSpec):
    """`_stacks` of H(g), (S, n, n) at n**2 entries per sample; each
    matrix equals ens.realization(i).matrix bit for bit."""
    return _stacks(ens, laplacian_matrix(ens.box), ens.box.size**2)


def slice_geometry(box: LatticeBox) -> tuple[int, int, int]:
    """The slice recursion's cut of the box, L slices x_1 = const of W sites
    along axis 0, and the complex entries it holds per realization, the gR_i
    and one row of blocks: (L, W, L W**2 + W n) as Python ints."""
    n_l = box.shape[0]
    w = box.size // n_l
    return n_l, w, n_l * w * w + w * box.size


def _slice_blocks(ens: EnsembleSpec):
    """The (S, L, W, W) diagonal blocks of H along axis 0 per chunk of
    `_stacks`, whose template is -Delta on one slice x_1 = const (zeros
    for one-site slices), at L W**2 + 2 W n + 2 n complex entries per
    sample: a sizing constant, not the working set, which is L W**2 + W n
    (`slice_geometry`) plus what `_slice_sums` adds, the Ward gauge's two
    (S, n) arrays among it (on 21 x 21 with 30 samples and 2 z, numpy's
    peak was 1.16 MiB at 2 samples per chunk)."""
    box = ens.box
    n_l, w, held = slice_geometry(box)
    cut = laplacian_matrix(LatticeBox(box.lo[1:], box.hi[1:])) if w > 1 else 0.0
    entries = held + w * box.size + 2 * box.size
    return (a for _, _, a in _stacks(ens, np.broadcast_to(cut, (n_l, w, w)), entries))


#: the Ward gauge's bound on r, above which `_slice_sums` recomputes a
#: realization by whole-operator LU.  Calibrated against per-realization
#: LU on the slice route's test geometries (3500 random ensembles with eps
#: 1e-9 to 1 at E = 2d and random E, 1000 at E = 2d on gamma boxes with eps
#: 1e-7 to 1e-3, and a grid at E = 2d): the least r of an ensemble whose chi
#: was more than 1e-10 off was 1.6e-8 (gamma1:2,2 on 9 x 7, E = 4,
#: eps = 3.5e-5, off by 3.5e-10), and every chi error above 1e-10 was
#: below 0.022 r.  1e-9 keeps a factor 16 to the first and, if the second
#: holds, chi within 2.2e-11.  It trips where chi is far better, too: chains
#: at E = 2d, and boxes from 31 x 31 at eps 1e-4 and below (r to 8e-6 with
#: chi within 2e-12), where LU costs time, not bits.  Off the gamma poles,
#: boxes to 101 x 101 read r below 2e-10 at eps >= 1e-3, and 3e-10 to
#: 6.5e-9 at 1e-4.
WARD_TOL = 1e-9


def _ward_ratio(sq: np.ndarray, im: np.ndarray, eps: float) -> np.ndarray:
    """Per sample r = max_x |eps S_x - I_x| / (I_x + eps S_x) of the sums
    S_x = sum_y |G(x,y)|**2 (sq, (S, n), overwritten) and I_x = |Im G(x,x)|
    (im): the Ward identity eps sum_y |G(x,y)|**2 = |Im G(x,x)| at
    z = E +- i eps, read as a relative error.  Where the ratio is not a
    number (S_x or I_x not finite, or both 0 by underflow) r is inf."""
    sq *= eps
    num = np.abs(sq - im)
    sq += im
    r = np.max(num / sq, axis=1)
    r[np.isnan(r)] = np.inf
    return r


def _slice_sums(
    ens: EnsembleSpec, zs: Sequence[complex], s: float, rho: DecayMetric
) -> list[tuple[np.ndarray, float, int]]:
    """Per-sample weighted column sums sum_y e^{rho(y,x)} |G_z(y,x)|^s, an
    (S, n) array at each non-real z of zs, by `spectral.slice_green_rows`
    on every chunk of `_slice_blocks`, each with the worst Ward ratio r of
    its samples and the number recomputed by LU.

    Each row of blocks G_{i,0..i} is reduced as soon as it exists: its
    columns get its column sums and, G and the weights being symmetric,
    the columns of slice i get its row sums over slices 0..i-1.  The
    weights of slice i against slice j are those of the last slice
    against slice L-1-i+j, so one (W, n) block of `weight_matrix` serves
    every row.  One (S, W, n) row buffer serves every chunk and z: allocated
    per pass, it was given back to the system and faulted in again each
    time, three times the page faults and 12% more time on a 21 x 21 box.

    The Ward gauge: the same row and column accumulation, unweighted and
    on |G|**2 (one einsum each, no (S, W, n) temporary), gives
    sum_y |G(x,y)|**2 beside |Im G(x,x)|, two (S, n) arrays per pass,
    and `_ward_ratio` reduces them to r per sample.  A sample whose r
    exceeds WARD_TOL, near an energy that is an eigenvalue of the
    realization where the recursion cancels, takes its column sums from
    `green` of `ens.realization` instead; past DENSE_LIMIT sites there is
    no dense LU, and ArithmeticError names z, the sample and r.
    """
    box = ens.box
    n_l, w, _ = slice_geometry(box)
    weights = rho.weight_matrix(box.coords[-w:], box.coords)
    sums: list[list[np.ndarray]] = [[] for _ in zs]
    ratios: list[list[np.ndarray]] = [[] for _ in zs]
    buf, dense, start = None, None, 0
    for a in _slice_blocks(ens):
        if buf is None:  # the first chunk is the largest
            buf = np.empty((len(a), w, box.size), dtype=complex)
        for out, rs, z in zip(sums, ratios, zs):
            col = np.zeros((len(a), box.size))
            sq, im = np.zeros_like(col), np.empty_like(col)
            # overflow is silent: an overflowed sum_y |G|**2 makes r inf, and
            # LU takes the sample; a non-finite chi exits by `_chi_report`
            with np.errstate(over="ignore", invalid="ignore"):
                for i, row in enumerate(slice_green_rows(a, z, buf)):
                    cut = slice(i * w, (i + 1) * w)
                    im[:, cut] = np.abs(row[:, :, cut].diagonal(0, 1, 2).imag)
                    p = np.abs(row)
                    off = p[:, :, : i * w]  # slices 0..i-1, a view
                    sq[:, : (i + 1) * w] += np.einsum("sxy,sxy->sy", p, p)
                    if i:
                        sq[:, cut] += np.einsum("sxy,sxy->sx", off, off)
                    p **= s
                    p *= weights[:, (n_l - 1 - i) * w :]
                    col[:, : (i + 1) * w] += p.sum(axis=1)
                    if i:
                        col[:, cut] += off.sum(axis=2)
                del p, off  # |G|^s of the last row, before the next z's pass
                r = _ward_ratio(sq, im, abs(z.imag))
            del sq, im
            for k in map(int, np.flatnonzero(r > WARD_TOL)):
                if box.size > DENSE_LIMIT:
                    raise ArithmeticError(
                        f"sample {start + k} at z = {z} fails the Ward gauge "
                        f"(r = {r[k]:.3g} > {WARD_TOL:g}), and its {box.size} "
                        f"sites exceed the dense limit {DENSE_LIMIT} of the LU fallback"
                    )
                if dense is None:  # one n x n weight matrix for every fallback
                    dense = rho.weight_matrix(box.coords)
                g = green(ens.realization(start + k), z)
                col[k] = _column_sums(dense, np.abs(g[None]) ** s)[0]
                del g
            out.append(col)
            rs.append(r)
        start += len(a)
    return [
        (np.concatenate(out), float(np.max(r)), int(np.sum(r > WARD_TOL)))
        for out, r in zip(sums, map(np.concatenate, ratios))
    ]


def sample_mean_stderr(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means over the samples (the first axis) and their standard errors;
    with fewer than two samples there is no error estimate, and it is inf."""
    n = len(values)
    mean = np.mean(values, axis=0)
    if n < 2:
        return mean, np.full_like(mean, np.inf)
    return mean, np.std(values, axis=0, ddof=1) / math.sqrt(n)


def _chi_sup(sums: np.ndarray) -> tuple[float, float]:
    """sup_x of the sample mean of per-sample weighted column sums (S, n),
    with the standard error at the sup column (inf below 2 samples)."""
    col_sums = np.mean(sums, axis=0)
    xstar = int(np.argmax(col_sums))
    _, se = sample_mean_stderr(sums[:, xstar])
    return float(col_sums[xstar]), float(se)


def mc_fractional_moment(
    ens: EnsembleSpec,
    z: complex,
    s: float,
    x: Site,
    y: Site,
) -> dict:
    """Monte Carlo estimate of E |G_z[H(g)|_B](x, y)|^s."""
    if not 0 < s < 1:
        raise ValueError("need 0 < s < 1")
    ix, iy = ens.box.index(x), ens.box.index(y)
    values, n_resampled = mc_map(lambda g: np.abs(g[:, ix, iy]) ** s, ens, z)
    mean, se = sample_mean_stderr(values)
    return {
        "estimate": float(mean),
        "stderr": float(se),
        "samples": ens.samples,
        "resampled": n_resampled,
        "z": z,
        "s": s,
    }


def _column_sums(w: np.ndarray, abs_s: np.ndarray) -> np.ndarray:
    """sum_y e^{rho(y,x)} |G(y,x)|^s per sample: (S, n), not S kernels."""
    return np.sum(w * abs_s, axis=1)


def _chi_report(
    sums: np.ndarray,
    ens: EnsembleSpec,
    z: complex,
    s: float,
    rho: DecayMetric,
    n_resampled: int,
    **notes,
) -> ChiReport:
    """The Monte Carlo chi report of per-sample weighted column sums;
    ArithmeticError when the estimate or its standard error is not finite
    (an overflowed |G|^s, or inf - inf in the spread), since no row
    should carry a nan or an inf that was not asked for.  notes join the
    report's params."""
    value, se = _chi_sup(sums)
    if not math.isfinite(value) or not (math.isfinite(se) or len(sums) < 2):
        raise ArithmeticError(
            f"chi at z = {z} is not finite (estimate {value}, stderr {se})"
        )
    return ChiReport(
        value,
        samples=ens.samples,
        stderr=se,
        params={"s": s, "eta": rho.eta, "z": z, "resampled": n_resampled, **notes},
    )


def mc_chi_green(
    ens: EnsembleSpec, zs: Sequence[complex], s: float, rho: DecayMetric
) -> list[ChiReport]:
    """chi_rho(E |G_z[H(g)|_B]|^s) over the box at every z of zs, in order,
    each with a CI at the sup column.

    The non-real z share one pass of the slice recursion (`_slice_sums`):
    each chunk of realizations is drawn once and runs at every such z
    before the next is drawn, and no n x n matrix is formed but for a
    realization that fails the Ward gauge; their reports carry the worst
    Ward ratio (params "ward_r") and the LU recomputations ("fallbacks").
    Each real z
    takes one LU inverse of the whole operator per realization through
    `mc_map`, and a realization colliding with z is resampled.
    """
    if not 0 < s <= 1:
        raise ValueError("need 0 < s <= 1")
    zs = [complex(z) for z in zs]
    off_axis = [z for z in zs if z.imag != 0.0]
    sliced = iter(_slice_sums(ens, off_axis, s, rho) if off_axis else [])
    reports, w = [], None
    for z in zs:
        if z.imag != 0.0:
            sums, worst, k = next(sliced)
            report = _chi_report(sums, ens, z, s, rho, 0, ward_r=worst, fallbacks=k)
        else:
            if w is None:  # one weight matrix for every real z
                w = rho.weight_matrix(ens.box.coords)
            sums, n_resampled = mc_map(lambda g: _column_sums(w, np.abs(g) ** s), ens, z)
            report = _chi_report(sums, ens, z, s, rho, n_resampled)
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# Strong-disorder contraction (Aizenman--Molchanov)
# ---------------------------------------------------------------------------


def am_contraction_check(
    ens: EnsembleSpec,
    z: complex,
    s: float,
    rho: DecayMetric,
    c_s: float,
) -> dict:
    """Check chi_rho(E|G_z|^s) against C_s / (g^s - C_s chi(|A^off|^s)).

    A is the deterministic part of the operator.  The denominator uses
    the off-diagonal chi, which is what the contraction argument yields
    and the only form its own applicability condition keeps positive.
    Requires g > 0 and full potential support (every box site random).
    """
    if not ens.g > 0:
        raise ValueError("need g > 0")
    if ens.split.comp.size:
        raise ValueError("contraction check requires Gamma = Full on the box")
    a = ens.split.h0.matrix
    a_off = a - np.diag(np.diag(a))
    chi_off = chi_kernel(a_off, ens.box.coords, rho, s)
    gs = ens.g**s
    threshold = c_s * chi_off
    if gs <= threshold:
        return {
            "applicable": False,
            "reason": f"g^s = {gs:.6g} <= C_s chi(|A^off|^s) = {threshold:.6g}",
            "chi_off": chi_off,
            "c_s": c_s,
        }
    rhs = c_s / (gs - threshold)
    (lhs,) = mc_chi_green(ens, [z], s, rho)
    holds = lhs.value <= rhs + 3 * lhs.stderr
    return {
        "applicable": True,
        "lhs": lhs.value,
        "lhs_stderr": lhs.stderr,
        "rhs": rhs,
        "margin": rhs - lhs.value,
        "holds": holds,
        "chi_off": chi_off,
        "c_s": c_s,
        "samples": ens.samples,
    }


# ---------------------------------------------------------------------------
# chi-inequalities implied by the resolvent identity
# ---------------------------------------------------------------------------


def chi_resolvent_inequalities(
    ham: HamiltonianMatrix,
    x_sites: Sequence[Site],
    z: complex,
    rho: DecayMetric,
    s: float = 1.0,
) -> dict:
    """Evaluate both sides of the two chi bounds for a given X split."""
    xs, ix, xc, ixc = _index_split(ham, x_sites)
    kappa = 2 * ham.box.dim
    enorm = math.exp(rho.norm)
    g = green(ham, z)
    chi_g = chi_kernel(g, ham.site_list(), rho, s)
    chi_pgp_x = chi_kernel(g[np.ix_(ix, ix)], xs, rho, s)
    chi_pgp_xc = chi_kernel(g[np.ix_(ixc, ixc)], xc, rho, s)
    chi_gx = chi_kernel(off_x_green(ham, xs, z), xc, rho, s)
    star_lhs = chi_pgp_xc
    star_rhs = kappa**2 * enorm**2 * chi_gx**2 * chi_pgp_x
    chain_lhs = chi_g
    chain_rhs = kappa * enorm * chi_gx * (1.0 + kappa * enorm * chi_gx * chi_pgp_x)
    degenerate = len(xc) == 0
    return {
        "res_chi_star": {
            "lhs": star_lhs,
            "rhs": star_rhs,
            "holds": degenerate or star_lhs <= star_rhs * (1 + 1e-12),
        },
        "res_chi": {
            "lhs": chain_lhs,
            "rhs": chain_rhs,
            "holds": degenerate or chain_lhs <= chain_rhs * (1 + 1e-12),
        },
        "degenerate": degenerate,
        "kappa": kappa,
    }


# ---------------------------------------------------------------------------
# The localisation-threshold kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrimmedSplit:
    """What no sample changes: H(0) with read-only arrays, the box indices
    of Gamma and Gamma^c, the Gamma sites in index order and, computed on
    first use, the eigenpairs `sd` of the trimmed restriction and
    `spectrum` of H(0)."""

    h0: HamiltonianMatrix
    gamma: np.ndarray
    comp: np.ndarray
    sites: tuple[Site, ...]

    @functools.cached_property
    def sd(self) -> SpectralData | None:
        """Read-only eigenpairs of H(0)|_{Gamma^c} (None for an empty Gamma^c)."""
        if not self.comp.size:
            return None
        sd = eigendecompose(self.h0.matrix[np.ix_(self.comp, self.comp)])
        sd.eigenvalues.flags.writeable = sd.eigenvectors.flags.writeable = False
        return sd

    @functools.cached_property
    def spectrum(self) -> SpectralData:
        """Read-only eigenpairs of H(0) on the box."""
        sd = eigendecompose(self.h0)
        sd.eigenvalues.flags.writeable = sd.eigenvectors.flags.writeable = False
        return sd

    def kernel(self, z: complex) -> dict:
        """Diagonal D and off-diagonal K of S - H(0)|_Gamma at z, where
        S = H_{Gamma Gamma^c} G_z[H_Gamma] H_{Gamma^c Gamma} (`fold_complement`,
        off the eigenpairs of the trimmed restriction H_Gamma = H(0)|_{Gamma^c}),
        so that P_Gamma G_z[H] P_Gamma* = G_z[gV|_Gamma - D - K] exactly.

        Returns K, D, the Gamma sites and the trimmed spectrum; a real z
        within 1e-10 of that spectrum raises SpectralParameterOnSpectrum.
        """
        if not self.gamma.size:
            raise ValueError("Gamma does not meet the box")
        z, h0, gamma, sd = complex(z), self.h0.matrix, self.gamma, self.sd
        m = -h0[np.ix_(gamma, gamma)].astype(complex)
        if sd is not None:
            if z.imag == 0 and np.min(abs(sd.eigenvalues - z.real)) <= 1e-10:
                raise SpectralParameterOnSpectrum(
                    f"z = {z} lies on the spectrum of the trimmed restriction"
                )
            m += fold_complement(h0, gamma, self.comp, z, sd)
        d = np.diag(m).copy()
        return {
            "K": m - np.diag(d),
            "D": d,
            "sites": self.sites,
            "trimmed_spectrum": np.array([]) if sd is None else sd.eigenvalues,
        }


def trimmed_split(box: LatticeBox, mask: SublatticeMask, v0) -> TrimmedSplit:
    """H(0) on the box, split along Gamma (see `TrimmedSplit`)."""
    h0 = assemble(box, mask, v0, 0.0, None)
    on_gamma = mask_vector(mask, box)
    gamma, comp = np.flatnonzero(on_gamma), np.flatnonzero(~on_gamma)
    for a in (h0.matrix, gamma, comp):
        a.flags.writeable = False
    return TrimmedSplit(h0, gamma, comp, tuple(map(tuple, box.coords[gamma].tolist())))


def kernel_identity_residual(
    ens: EnsembleSpec, z: complex, sample_index: int, g: np.ndarray | None = None
) -> float:
    """Max-norm residual of P_G G_z[H] P_G* - G_z[gV|_G - D - K].

    D + K come from `ens.split`.  g = G_z[H] of the realization may be
    passed in when already computed; otherwise G_z of
    `ens.realization(sample_index)` is solved.
    """
    split = ens.split
    kd = split.kernel(z)
    gv = ens.g * ens.potential(sample_index)
    if g is None:
        g = green(ens.realization(sample_index), z)
    lhs = g[np.ix_(split.gamma, split.gamma)]
    rhs = green(np.diag(gv[split.gamma] - kd["D"]) - kd["K"], z)
    return float(np.max(np.abs(lhs - rhs)))


def loc1_threshold(
    mask: SublatticeMask,
    box: LatticeBox,
    v0,
    lam: float,
    s: float,
    rho: DecayMetric,
    c_s: float,
    margin: float = 1e-6,
) -> dict:
    """Finite-volume proxy of the K-kernel localisation threshold.

    Returns chi_rho(|K|^s) at z = lam and g0 = (C_s chi)^{1/s}; reported
    inapplicable when lam sits within `margin` of the trimmed spectrum.
    One eigendecomposition of H_Gamma serves the margin and the kernel.
    """
    split = trimmed_split(box, mask, v0)
    if split.sd is not None:
        dist = float(np.min(np.abs(split.sd.eigenvalues - lam)))
        if dist <= margin:
            return {
                "applicable": False,
                "reason": f"lambda within {dist:.3g} of sigma(H_Gamma)",
                "trimmed_spectrum_distance": dist,
            }
    kd = split.kernel(lam)
    chi = chi_kernel(kd["K"], kd["sites"], rho, s)
    return {
        "applicable": True,
        "chi_K": chi,
        "g0": (c_s * chi) ** (1.0 / s),
        "s": s,
        "c_s": c_s,
    }


# ---------------------------------------------------------------------------
# Wegner-type statistics
# ---------------------------------------------------------------------------


def wegner_preconditions(
    ens: EnsembleSpec,
    lam: float,
    eps_values: Sequence[float],
) -> dict:
    """The counting bound's hypotheses, decided from H(0)|_B alone.

    lam must be an eigenvalue of H(0)|_B, every eps at most a third of
    its gap, and every lam-eigenvector must vanish on Gamma; ValueError
    names the first that fails.  Returns the multiplicity, the gap and
    an orthonormal basis of the lam-eigenspace.
    """
    sd = ens.split.spectrum
    gm = gap_and_mult(sd, lam)
    mult, gap = gm["mult"], gm["gap"]
    if mult == 0:
        raise ValueError(f"lambda = {lam} is not in sigma(H(0)|_B)")
    for eps in eps_values:
        if eps > gap / 3:
            raise ValueError(f"eps = {eps} exceeds gap/3 = {gap / 3:.6g}")
    ker = sd.eigenvectors[:, np.abs(sd.eigenvalues - lam) <= _cluster_tol(sd)]
    mass = np.linalg.norm(ker[ens.split.gamma], axis=0)
    if np.any(mass > 1e-8):
        raise ValueError(
            "support precondition fails: a lambda-eigenvector of "
            f"H(0)|_B has Gamma mass {mass[np.argmax(mass > 1e-8)]:.3g}"
        )
    return {"mult": mult, "gap": gap, "ker": ker}


def wegner_count(
    ens: EnsembleSpec,
    lam: float,
    eps_values: Sequence[float],
) -> list[dict]:
    """Excess eigenvalue counts N in (lam-eps, lam+eps) over the ensemble,
    one report per eps of eps_values from one eigendecomposition per
    realization.

    Requires g > 0, for the mass bound gap / (3 g ||V||_inf), and the
    hypotheses of `wegner_preconditions`; refuses otherwise.  Also audits
    the deterministic eigenvector-mass bound on every qualifying
    eigenvector; the audit does not depend on eps, so every report carries
    the same one.  An audit that checked no eigenvector does not hold.
    """
    if not ens.g > 0:
        raise ValueError("need g > 0")
    eps_values = list(eps_values)
    pre = wegner_preconditions(ens, lam, eps_values)
    mult, gap, ker = pre["mult"], pre["gap"], pre["ker"]
    gamma = ens.split.gamma
    counts, checks = [], []
    for _, v, h in _operator_stacks(ens):
        sd = eigendecompose(h)
        dist = np.abs(sd.eigenvalues - lam)
        counts.append(np.sum(dist[..., None] < np.array(eps_values), axis=-2) - mult)
        # eigenvector-mass audit over the gap/3 window
        for vi, di, ui in zip(v, dist, sd.eigenvectors):
            vmax = float(np.max(np.abs(vi)))
            if vmax == 0:
                continue
            bound = gap / (3.0 * ens.g * vmax)
            for phi in ui.T[di <= gap / 3]:  # a copy, no view of sd
                if ker.size and np.linalg.norm(ker.T @ phi) > 1e-8:
                    continue  # not orthogonal to Ker(H(0)|_B - lam)
                mass = float(np.linalg.norm(phi[gamma]))
                checks.append(bool(mass >= bound - 1e-12))
        del sd, ui  # free this chunk's eigenpairs before the next chunk is factored
    counts = np.concatenate(counts)
    s = 0.5  # reporting exponent for the comparison scaling
    reports = []
    for eps, col in zip(eps_values, counts.T):
        values, freq = np.unique(col, return_counts=True)
        reports.append(
            {
                "p_excess": float(np.mean(col >= 1)),
                "histogram": {int(n): int(f) for n, f in zip(values, freq)},
                "mult": mult,
                "gap": gap,
                "eps": eps,
                "bound_scale": eps**s * ens.g**s / gap ** (2 * s) * gamma.size**2,
                "mass_bound_checked": len(checks),
                "mass_bound_holds": bool(checks) and all(checks),
                "samples": ens.samples,
            }
        )
    return reports


def wegner_uniform_bound_probe(
    ens: EnsembleSpec,
    lam_grid: Sequence[float],
    eps_grid: Sequence[float],
    s: float,
) -> dict:
    """Table of E ||G_{lam+i eps}||^s over a (lambda, eps) grid.

    Requires the inner box boundary to lie in Gamma; boundedness of the
    table as eps decreases is the content of the first Wegner estimate.
    One eigvalsh per realization serves the whole grid: for real
    symmetric H, ||G_z|| = 1 / sigma_min(H - z) = 1 / min_j |E_j - z|.
    """
    box = ens.box
    on_boundary = np.any((box.coords == box.lo) | (box.coords == box.hi), axis=1)
    offenders = np.flatnonzero(on_boundary & ~mask_vector(ens.mask, box))
    if offenders.size:
        raise ValueError(
            f"inner boundary site {box.site(int(offenders[0]))} is outside Gamma"
        )
    e = np.concatenate([np.linalg.eigvalsh(h) for _, _, h in _operator_stacks(ens)])
    rows = []
    for lam in lam_grid:
        for eps in eps_grid:
            smin = np.min(np.abs(e - complex(lam, eps)), axis=-1)
            mean, se = sample_mean_stderr((1.0 / smin) ** s)
            rows.append(
                {"lam": lam, "eps": eps, "estimate": float(mean), "stderr": float(se)}
            )
    return {"rows": rows, "s": s, "samples": ens.samples}


def g_scaling_exponent(
    ens: EnsembleSpec,
    z: complex,
    s: float,
    x: Site,
    g_values: Sequence[float],
) -> dict:
    """Fit the slope of log E|G(x,x)|^s against log g (expected ~ -s)."""
    if x not in ens.mask:
        raise ValueError("the scaling site must carry disorder (x in Gamma)")
    points = []
    for g in g_values:
        res = mc_fractional_moment(replace(ens, g=float(g)), z, s, x, x)
        points.append({"g": g, **res})
    logs_g = np.log([p["g"] for p in points])
    logs_e = np.log([p["estimate"] for p in points])
    a = np.vstack([logs_g, np.ones(len(points))]).T
    coef, *_ = np.linalg.lstsq(a, logs_e, rcond=None)
    return {"slope": float(coef[0]), "points": points, "s": s}
