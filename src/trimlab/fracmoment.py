"""Fractional-moment machinery: chi functionals, Monte Carlo moment
estimation, the strong-disorder contraction check, the localisation
threshold kernel, and eigenvalue-counting (Wegner) statistics.

All Monte Carlo loops are serial, draw disorder through counter-based
streams and reduce in sample-index order, so estimates are reproducible
bit for bit.  The chi estimates at a non-real z (`localize`) never form
an n x n matrix: H couples only adjacent slices x_1 = const of the box,
so `_slice_sums` draws each chunk of realizations once and, at every z,
reads the weighted column sums of |G_z|^s off the rows of blocks that
`spectral.slice_green_rows` yields, a few W x W inversions per slice.
Every other loop takes its operators from one generator of chunked
(S, n, n) stacks, `_operator_stacks`: `mc_map` inverts them by LU, one
inverse per realization and z, and resamples a realization that
collides with a real z; the Wegner statistics and `dynamics` factor
them by `eigh` once for every eps or t.

H(0) is built once per ensemble: `EnsembleSpec.split` caches a
`TrimmedSplit` (H(0), the Gamma/Gamma^c indices and sites, the eigenpairs
of H(0)|_{Gamma^c} and of H(0)) for the kernel K, the identity checks and the
deterministic side of every other check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .disorder import DisorderSpec, SampleStream, sample_potential
from .lattice import LatticeBox, Site, SublatticeMask, l1_distances, mask_vector
from .operators import HamiltonianMatrix, assemble, laplacian_matrix, resolve_v0
from .spectral import (
    SpectralData,
    SpectralParameterOnSpectrum,
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

    def evaluate(self, x: Site, y: Site) -> float:
        return self.eta * int(l1_distances([x], [y])[0, 0])

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
    """Value of a chi functional, deterministic or Monte Carlo."""

    value: float
    mode: str  # "deterministic" | "monte-carlo"
    samples: int = 0
    stderr: float = 0.0
    params: dict = field(default_factory=dict)


def chi_kernel(
    a: np.ndarray, sites: Sequence[Site], rho: DecayMetric, s: float = 1.0
) -> ChiReport:
    """sup_x sum_y e^{rho(y,x)} |A(y,x)|^s, evaluated exactly."""
    if s <= 0:
        raise ValueError("s must be positive")
    a = np.asarray(a)
    if a.shape != (len(sites), len(sites)):
        raise ValueError("kernel shape does not match site list")
    if a.size == 0:
        return ChiReport(0.0, "deterministic", params={"s": s, "eta": rho.eta})
    weighted = rho.weight_matrix(sites) * np.abs(a) ** s
    value = float(np.max(np.sum(weighted, axis=0)))
    return ChiReport(value, "deterministic", params={"s": s, "eta": rho.eta})


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

    def stream(self) -> SampleStream:
        return SampleStream(self.dist, self.master_seed)

    def potential(self, sample_index) -> np.ndarray:
        """V of one sample index; a sequence of indices gives one row each."""
        return sample_potential(self.stream(), self.mask, self.box, sample_index)

    def realization(self, sample_index: int) -> HamiltonianMatrix:
        return assemble(
            self.box, self.mask, self.v0, self.g, self.potential(sample_index)
        )

    def deterministic_part(self) -> HamiltonianMatrix:
        return assemble(self.box, self.mask, self.v0, 0.0, None)

    @functools.cached_property
    def split(self) -> TrimmedSplit:
        """H(0) and its split along Gamma, built on first use and kept."""
        return trimmed_split(self.box, self.mask, self.v0)


class ResampleBudgetExceeded(RuntimeError):
    pass


#: complex matrix entries per chunk of the stacked engine (1 MiB)
CHUNK_ENTRIES = 1 << 16


def chunk_size(n: int) -> int:
    """Samples per chunk for n-site operators: max(1, 2**16 // n**2)."""
    return max(1, CHUNK_ENTRIES // (n * n))


def mc_map(per_chunk: Callable, ens: EnsembleSpec, z):
    """Evaluate the ensemble at z in sample-index order; returns
    (values, n_resampled).

    The samples go through in chunks (chunk_size of the box): the
    potentials are drawn as one (S, n) array, the operators built as one
    stack and inverted by `green` at once, and per_chunk(gs) maps the
    chunk's (S, n, n) stack of G_z to one row per sample; values holds
    the rows of all chunks in order.  A sample whose operator has a real
    z on its spectrum (SpectralParameterOnSpectrum) is replaced by sample
    index i + k * samples, k = 1, 2, ...; at most 1% of the samples may
    be resampled.
    """
    z = complex(z)
    budget = max(1, ens.samples // 100)
    total, rows, used = ens.samples, [], 0
    for idx, _, h, redraw in _operator_stacks(ens):
        k = np.zeros(len(idx), dtype=int)
        while True:
            try:
                gs = green(h, z).entries
                break
            except SpectralParameterOnSpectrum as exc:
                hits = np.flatnonzero(exc.hits)
                k[hits] += 1
                if used + int(k.sum()) > budget:
                    raise ResampleBudgetExceeded(
                        f"{used + int(k.sum())} resamples exceed the {budget} budget"
                    )
                redraw(hits, idx[hits] + k[hits] * total)
        used += int(k.sum())
        rows.append(per_chunk(gs))
        del gs  # free this chunk's G before the next chunk is solved
    return np.concatenate(rows), used


def _operator_stacks(ens: EnsembleSpec):
    """(sample indices, potentials, stack, redraw) per chunk of the
    ensemble, in sample order; no linear algebra.

    The potentials are (S, n) and the stack (S, n, n), for the chunk's
    sample indices; redraw(rows, samples) overwrites the given rows of
    both with those of other sample indices.  The diagonal is formed as
    `assemble` forms it, so every matrix equals ens.realization(i).matrix
    bit for bit.
    """
    box = ens.box
    stream = ens.stream()
    lap = laplacian_matrix(box)
    hops = np.nonzero(lap)
    lap_hops, lap_diag = lap[hops], np.diag(lap).copy()
    del lap  # only its nonzeros are needed, not n**2 floats beside each stack
    v0 = resolve_v0(ens.v0, box)
    n = box.size
    diag = np.arange(n)
    step = chunk_size(n)
    for start in range(0, ens.samples, step):
        idx = np.arange(start, min(start + step, ens.samples))
        v = np.empty((len(idx), n))
        h = np.zeros((len(idx), n, n))
        h[:, hops[0], hops[1]] = lap_hops

        def redraw(rows: np.ndarray, samples: np.ndarray, v=v, h=h) -> None:
            v[rows] = sample_potential(stream, ens.mask, box, samples)
            h[rows[:, None], diag, diag] = lap_diag + (v0 + ens.g * v[rows])

        redraw(np.arange(len(idx)), idx)
        yield idx, v, h, redraw


def _slice_laplacian(box: LatticeBox) -> np.ndarray:
    """The W x W block of -Delta on one slice x_1 = const of the box, with
    the full-lattice diagonal 2d: every diagonal block of H(0) but V0."""
    if box.dim == 1:
        return np.full((1, 1), 2.0)
    t = laplacian_matrix(LatticeBox(box.lo[1:], box.hi[1:]))
    t[np.diag_indices_from(t)] += 2.0
    return t


def _slice_blocks(ens: EnsembleSpec):
    """The (S, L, W, W) diagonal blocks of H along axis 0 per chunk of the
    ensemble, in sample order, each chunk from one draw; the diagonal is
    formed as `assemble` forms it.  A sample costs about
    L W**2 + 2 W n complex entries in `_slice_sums`, and a chunk holds
    CHUNK_ENTRIES of them."""
    box = ens.box
    n_l, n = box.shape[0], box.size
    w = n // n_l
    t = _slice_laplacian(box)
    v0 = resolve_v0(ens.v0, box)
    d = np.arange(w)
    step = max(1, CHUNK_ENTRIES // (n_l * w * w + 2 * w * n))
    stream = ens.stream()
    for start in range(0, ens.samples, step):
        idx = np.arange(start, min(start + step, ens.samples))
        v = sample_potential(stream, ens.mask, box, idx)
        a = np.empty((len(idx), n_l, w, w))
        a[:] = t
        a[..., d, d] += (v0 + ens.g * v).reshape(len(idx), n_l, w)
        yield a


def _slice_sums(
    ens: EnsembleSpec, zs: Sequence[complex], s: float, rho: DecayMetric
) -> list[np.ndarray]:
    """Per-sample weighted column sums sum_y e^{rho(y,x)} |G_z(y,x)|^s, an
    (S, n) array at each non-real z of zs, by `spectral.slice_green_rows`
    on every chunk of `_slice_blocks`.

    Each row of blocks G_{i,0..i} is reduced as soon as it exists: its
    columns get its column sums and, G and the weights being symmetric,
    the columns of slice i get its row sums over slices 0..i-1.  The
    weights of slice i against slice j are those of the last slice
    against slice L-1-i+j, so one (W, n) block of `weight_matrix` serves
    every row.
    """
    box = ens.box
    n_l = box.shape[0]
    w = box.size // n_l
    weights = rho.weight_matrix(box.coords[-w:], box.coords)
    sums: list[list[np.ndarray]] = [[] for _ in zs]
    for a in _slice_blocks(ens):
        for out, z in zip(sums, zs):
            col = np.zeros((len(a), box.size))
            for i, row in enumerate(slice_green_rows(a, z)):
                p = np.abs(row)
                p **= s
                p *= weights[:, (n_l - 1 - i) * w :]
                col[:, : (i + 1) * w] += p.sum(axis=1)
                if i:
                    col[:, i * w : (i + 1) * w] += p[:, :, : i * w].sum(axis=2)
            out.append(col)
    return [np.concatenate(rows) for rows in sums]


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
) -> ChiReport:
    """The Monte Carlo chi report of per-sample weighted column sums;
    ArithmeticError when the estimate or its standard error is not finite
    (an overflowed |G|^s, or inf - inf in the spread), since no row
    should carry a nan or an inf that was not asked for."""
    value, se = _chi_sup(sums)
    if not math.isfinite(value) or not (math.isfinite(se) or len(sums) < 2):
        raise ArithmeticError(
            f"chi at z = {z} is not finite (estimate {value}, stderr {se})"
        )
    return ChiReport(
        value,
        "monte-carlo",
        samples=ens.samples,
        stderr=se,
        params={"s": s, "eta": rho.eta, "z": z, "resampled": n_resampled},
    )


def mc_chi_green(
    ens: EnsembleSpec,
    z: complex,
    s: float,
    rho: DecayMetric,
) -> ChiReport:
    """chi_rho(E |G_z[H(g)|_B]|^s) over the box, with a CI at the sup row.

    At a non-real z, by recursion over the slices of the box
    (`_slice_sums`): no n x n matrix per realization.  At a real z, one
    LU inverse of the whole operator per realization through `mc_map`,
    and a realization colliding with z is resampled.
    """
    if not 0 < s <= 1:
        raise ValueError("need 0 < s <= 1")
    z = complex(z)
    if z.imag != 0.0:
        return _chi_report(_slice_sums(ens, [z], s, rho)[0], ens, z, s, rho, 0)
    w = rho.weight_matrix(ens.box.coords)
    sums, n_resampled = mc_map(lambda g: _column_sums(w, np.abs(g) ** s), ens, z)
    return _chi_report(sums, ens, z, s, rho, n_resampled)


def mc_chi_green_sweep(
    ens: EnsembleSpec, zs: Sequence[complex], s: float, rho: DecayMetric
) -> list[ChiReport]:
    """`mc_chi_green` at every z of zs, each with Im z > 0 (localize's
    epsilon), from one draw per chunk: each chunk of realizations runs
    the slice recursion at every z before the next chunk is drawn."""
    if not 0 < s <= 1:
        raise ValueError("need 0 < s <= 1")
    zs = [complex(z) for z in zs]
    if not all(z.imag > 0 for z in zs):
        raise ValueError("the sweep needs Im z > 0 at every z")
    sums = _slice_sums(ens, zs, s, rho)
    return [_chi_report(col, ens, z, s, rho, 0) for col, z in zip(sums, zs)]


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
    Requires full potential support (every box site random).
    """
    if ens.split.comp.size:
        raise ValueError("contraction check requires Gamma = Full on the box")
    a = ens.split.h0.matrix
    a_off = a - np.diag(np.diag(a))
    chi_off = chi_kernel(a_off, ens.box.coords, rho, s).value
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
    lhs = mc_chi_green(ens, z, s, rho)
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
    g = green(ham, z).entries
    chi_g = chi_kernel(g, ham.site_list(), rho, s).value
    chi_pgp_x = chi_kernel(g[np.ix_(ix, ix)], xs, rho, s).value
    chi_pgp_xc = chi_kernel(g[np.ix_(ixc, ixc)], xc, rho, s).value
    chi_gx = chi_kernel(off_x_green(ham, xs, z), xc, rho, s).value
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
        """`kernel_K` at z, from this split."""
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
    for a in (h0.matrix, h0.v0, h0.v, gamma, comp):
        a.flags.writeable = False
    return TrimmedSplit(h0, gamma, comp, tuple(map(tuple, box.coords[gamma].tolist())))


def kernel_K(mask: SublatticeMask, box: LatticeBox, v0, z: complex) -> dict:
    """Diagonal D and off-diagonal K of S - H(0)|_Gamma at z, where
    S = H_{Gamma Gamma^c} G_z[H_Gamma] H_{Gamma^c Gamma} (`fold_complement`,
    off the eigenpairs of the trimmed restriction H_Gamma = H(0)|_{Gamma^c}),
    so that P_Gamma G_z[H] P_Gamma* = G_z[gV|_Gamma - D - K] exactly.

    Returns K, D, the Gamma sites and the trimmed spectrum, from a fresh
    `trimmed_split`; a real z within 1e-10 of that spectrum raises
    SpectralParameterOnSpectrum.
    """
    return trimmed_split(box, mask, v0).kernel(z)


def kernel_identity_residual(
    ens: EnsembleSpec, z: complex, sample_index: int, g: np.ndarray | None = None
) -> float:
    """Max-norm residual of P_G G_z[H] P_G* - G_z[gV|_G - D - K].

    D + K come from `ens.split`.  g = G_z[H] of the realization may be
    passed in when already computed; otherwise G_z[H(0) + gV] is solved.
    """
    split = ens.split
    kd = split.kernel(z)
    gv = ens.g * ens.potential(sample_index)
    if g is None:
        g = green(split.h0.matrix + np.diag(gv), z).entries
    lhs = g[np.ix_(split.gamma, split.gamma)]
    rhs = green(np.diag(gv[split.gamma] - kd["D"]) - kd["K"], z).entries
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
    chi = chi_kernel(kd["K"], kd["sites"], rho, s).value
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
    cluster_tol: float = 1e-9,
) -> dict:
    """The counting bound's hypotheses, decided from H(0)|_B alone.

    lam must be an eigenvalue of H(0)|_B, every eps at most a third of
    its gap, and every lam-eigenvector must vanish on Gamma; ValueError
    names the first that fails.  Returns the multiplicity, the gap and
    an orthonormal basis of the lam-eigenspace.
    """
    sd = ens.split.spectrum
    gm = gap_and_mult(sd, lam, cluster_tol)
    mult, gap = gm["mult"], gm["gap"]
    if mult == 0:
        raise ValueError(f"lambda = {lam} is not in sigma(H(0)|_B)")
    for eps in eps_values:
        if eps > gap / 3:
            raise ValueError(f"eps = {eps} exceeds gap/3 = {gap / 3:.6g}")
    ker = sd.eigenvectors[:, np.abs(sd.eigenvalues - lam) <= cluster_tol]
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
    cluster_tol: float = 1e-9,
) -> list[dict]:
    """Excess eigenvalue counts N in (lam-eps, lam+eps) over the ensemble,
    one report per eps of eps_values from one eigendecomposition per
    realization.

    Requires the hypotheses of `wegner_preconditions`; refuses otherwise.
    Also audits the deterministic eigenvector-mass bound on every
    qualifying eigenvector; the audit does not depend on eps, so every
    report carries the same one.
    """
    eps_values = list(eps_values)
    pre = wegner_preconditions(ens, lam, eps_values, cluster_tol)
    mult, gap, ker = pre["mult"], pre["gap"], pre["ker"]
    gamma = ens.split.gamma
    counts, checks = [], []
    for _, v, h, _ in _operator_stacks(ens):
        sd = eigendecompose(h)
        dist = np.abs(sd.eigenvalues - lam)
        counts.append(np.sum(dist[..., None] < np.array(eps_values), axis=-2) - mult)
        # eigenvector-mass audit over the gap/3 window
        for vi, di, ui in zip(v, dist, sd.eigenvectors):
            vmax = float(np.max(np.abs(vi)))
            if vmax == 0:
                continue
            bound = gap / (3.0 * ens.g * vmax)
            for j in np.nonzero(di <= gap / 3)[0]:
                phi = ui[:, j]
                if ker.size and np.linalg.norm(ker.T @ phi) > 1e-8:
                    continue  # not orthogonal to Ker(H(0)|_B - lam)
                mass = float(np.linalg.norm(phi[gamma]))
                checks.append(bool(mass >= bound - 1e-12))
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
                "mass_bound_holds": all(checks),
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
    stacks = _operator_stacks(ens)
    e = np.concatenate([np.linalg.eigvalsh(h) for _, _, h, _ in stacks])
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
