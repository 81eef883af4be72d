"""Slow reference implementations that the tests compare trimlab against.

Nothing in `trimlab` calls these; they live here so that a run of the
package neither compiles them nor loads numpy.random for them.

- `draw_vector` and `draw`: one realization's draws from numpy's own
  `Philox` generator, the reference for `SampleStream.draw_block`.
- `window_mass`: the exact mass mu[t-eps, t+eps] of a disorder
  distribution by quadrature, the oracle for regularity tests.
- `eigenvector_gamma_mass`: the l^2 mass of a vector on Gamma, read
  site by site through `s in mask`.
- `EvolutionKernel` and `evolve`: e^{itH} as a full matrix and applied
  to a vector, the reference for the amplitudes of `dynamics`.
- `laplace_lhs`: the Laplace integral of M_p(x,t) in closed form, with
  every n x n term formed at once, the reference for the row blocks of
  `dynamics._Factored.laplace_lhs`.
- `dense_fold`: the fold of a complement Gamma^c as dense products over
  all of Gamma^c, the reference for `spectral.fold_complement`, which
  multiplies only on the Gamma-boundary of Gamma^c.
- `eigen_sweep`: chi_rho(E |G_z|^s) at several z from one
  eigendecomposition per realization, an oracle for the slice recursion
  of `fracmoment.mc_chi_green` that shares none of its algebra.
- `relative_density`: |B(center, R) intersect Gamma| / |B(center, R)|
  read site by site through `s in mask`.
- `_numpy_peak`: the peak of numpy's buffers during one call, the
  measure of the memory tests.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from trimlab.disorder import DisorderSpec, SampleStream, _stream_key
from trimlab.fracmoment import _chi_report, _operator_stacks
from trimlab.lattice import Site, SublatticeMask, ball
from trimlab.spectral import SpectralData, eigendecompose


def draw_vector(stream: SampleStream, n_sites: int, sample_index: int) -> np.ndarray:
    """Draws for site indices 0..n_sites-1 of one disorder realization,
    from numpy's Philox generator keyed by `_stream_key`."""
    key = _stream_key(stream.master_seed, sample_index)
    k = stream.spec.draws_per_sample
    u = np.random.Generator(np.random.Philox(key=key)).random(n_sites * k)
    return stream.spec.from_uniform(u.reshape(n_sites, k))


def draw(stream: SampleStream, site_index: int, sample_index: int) -> float:
    """Single draw; identical to draw_vector(...)[site_index]."""
    return float(draw_vector(stream, site_index + 1, sample_index)[site_index])


def window_mass(spec: DisorderSpec, t: float, eps: float) -> float:
    """Exact mu[t-eps, t+eps] by quadrature (oracle for regularity tests)."""
    return spec.expect(
        lambda v: float(abs(v - t) <= eps), points=(t - eps, t, t + eps)
    )


def eigenvector_gamma_mass(
    phi: np.ndarray, mask: SublatticeMask, sites: Sequence[Site]
) -> float:
    """l^2 mass of a vector on the Gamma sites of its region."""
    phi = np.asarray(phi)
    sel = np.fromiter((s in mask for s in sites), dtype=bool, count=len(sites))
    return float(np.linalg.norm(phi[sel]))


@dataclass(frozen=True)
class EvolutionKernel:
    """e^{itH} through the spectral theorem of a fixed realization."""

    spectral: SpectralData

    def matrix(self, t: float) -> np.ndarray:
        sd = self.spectral
        phases = np.exp(1j * t * sd.eigenvalues)
        return (sd.eigenvectors * phases) @ sd.eigenvectors.T


def evolve(sd: SpectralData, psi0: np.ndarray, t: float) -> np.ndarray:
    """e^{itH} psi0 by eigen-expansion; exactly norm-preserving."""
    psi0 = np.asarray(psi0)
    coeff = sd.eigenvectors.T @ psi0
    return sd.eigenvectors @ (np.exp(1j * t * sd.eigenvalues) * coeff)


def laplace_lhs(
    e: np.ndarray, u: np.ndarray, ix: int, w: np.ndarray, eps: float
) -> float:
    """int_0^inf eps e^{-eps t} M_p(x,t) dt from the eigenpairs E, U of H,
    seen from site index ix with distance weights w, in one shot."""
    ux = u[ix]
    # B_jk = psi_j(x) psi_k(x) sum_y psi_j(y) psi_k(y) w(y)
    b = np.outer(ux, ux) * (u.T @ (w[:, None] * u))
    omega = e[:, None] - e[None, :]
    return float(np.sum(b * (eps**2 / (eps**2 + omega**2))))


def dense_fold(h: np.ndarray, gamma: np.ndarray, comp: np.ndarray, z: complex):
    """(R, B, S) of the block comp of h folded out of its block gamma at z:
    R = (h_{comp comp} - z)^-1, B = R h_{comp gamma}, S = h_{gamma comp} B,
    each one dense product."""
    r = np.linalg.inv(h[np.ix_(comp, comp)] - z * np.eye(len(comp)))
    b = r @ h[np.ix_(comp, gamma)]
    return r, b, h[np.ix_(gamma, comp)] @ b


def eigen_sweep(ens, zs: Sequence[complex], s: float, rho) -> list:
    """`mc_chi_green` at every z of zs (non-real), from one
    eigendecomposition per realization, H = U diag(E) U^T: at every z,
    G_z = U diag(1 / (E - z)) U^T by two real products (real and imaginary
    part).

    Its accuracy is absolute, not relative: every entry of G carries an
    error of about machine epsilon times its largest entries, so where G
    decays by many orders the far entries, lifted by the weights, are off.
    On the 35-site cell:2:10 chain (g = 1, seed 0, z = i, s = 1/8) G decays
    to 6e-13 and chi is off by 3e-8 relative; chains longer than about 30
    sites therefore stay off this oracle."""
    w = rho.weight_matrix(ens.box.coords)
    sums: list[list[np.ndarray]] = [[] for _ in zs]
    for _, _, h in _operator_stacks(ens):
        sd = eigendecompose(h)
        u, ut = sd.eigenvectors, sd.eigenvectors.swapaxes(-1, -2)
        for rows, z in zip(sums, zs):
            d = 1.0 / (sd.eigenvalues - z)
            g2 = (u * d.real[:, None, :]) @ ut
            g2 **= 2
            gi = (u * d.imag[:, None, :]) @ ut
            gi **= 2
            g2 += gi
            g2 **= s / 2  # |G|^s from (Re G)^2 + (Im G)^2, in place
            rows.append(np.sum(w * g2, axis=1))
    return [
        _chi_report(np.concatenate(rows), ens, z, s, rho, 0)
        for rows, z in zip(sums, zs)
    ]


def relative_density(mask: SublatticeMask, radius: int, center: Site):
    """|B(center, R) intersect Gamma| / |B(center, R)| as a Fraction."""
    from fractions import Fraction

    sites = ball(center, radius)
    return Fraction(sum(1 for s in sites if s in mask), len(sites))


def _numpy_peak(fn) -> int:
    """Peak traced bytes (numpy reports its buffers to tracemalloc) of
    one call of fn, after a warm-up call."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
