"""Unitary dynamics from the eigendecomposition: spreading moments
M_p(x,t), and the Laplace-transform lower bound that ties time-averaged
spreading to Green function moments.

Each realization is factored once, H = U diag(E) U^T, and everything is
read off its eigenpairs: the amplitudes e^{itH}(x,.) = U (e^{itE} U[x])
at every t and the Green rows G_z(x,.) = U (U[x] / (E - z)) at every z.
The LU route (`spectral.green`) is kept as the test oracle for the
Green rows, and the full kernel e^{itH} (tests/oracles.py) for the
amplitudes.  The Laplace integral of |e^{itH}(x,y)|^2 is evaluated in
closed form from the eigenpair differences, so the inequality check
carries no time quadrature error.  An ensemble is factored chunk by
chunk from the operator stacks of `fracmoment`, one `eigh` per stack, and
a fixed operator as a stack of one.

Working set of one realization of n sites: its matrix in the stack and
its eigenvectors (n^2 doubles each), `eigh`'s workspace while it runs
(about 4 n^2 doubles), and in the Laplace step B = U^T diag(w) U (n^2,
beside the transient w U while B is formed), with the kernel formed
CHUNK_ENTRIES entries at a time.  A chunk's eigenpairs are freed before
the next chunk is factored.  The `dynamics` CLI run (gamma1:2,2, three
eps) peaks at about 42 MiB on a 21 x 21 box (10 samples), 72 MiB on
31 x 31 (3 samples) and 147 MiB on 41 x 41 (2 samples), taken with
OPENBLAS_NUM_THREADS=1: `--threads` sets no BLAS thread count, and under
OpenBLAS's own count the peaks move between identical runs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fracmoment import _operator_stacks, chunk_size, sample_mean_stderr
from .lattice import LatticeBox, Site, l1_distances
from .operators import HamiltonianMatrix
from .spectral import eigendecompose


def _distance_powers(box: LatticeBox, x: Site, p: float) -> np.ndarray:
    """||x - y||^p over the box sites y in index order (0^0 = 1)."""
    return l1_distances(box.coords, [x])[:, 0].astype(float) ** p


class _Factored:
    """One realization's eigenpairs E, U, seen from site index ix with
    distance weights w."""

    def __init__(self, e: np.ndarray, u: np.ndarray, ix: int, w: np.ndarray):
        self.e, self.u, self.w = e, u, w
        self.ux = u[ix]

    def _weighted_norm2(self, c: np.ndarray) -> float:
        """sum_y |(U c)_y|^2 w(y) for complex coefficients c, with U kept real."""
        return float(np.sum(((self.u @ c.real) ** 2 + (self.u @ c.imag) ** 2) * self.w))

    def moment(self, t: float) -> float:
        """M_p(x,t), from e^{itH}(x,.) = U (e^{itE} U[x])."""
        return self._weighted_norm2(np.exp(1j * t * self.e) * self.ux)

    def laplace_lhs(self, eps: float) -> float:
        """int_0^inf eps e^{-eps t} M_p(x,t) dt, closed form per eigenpair:
        sum_jk B_jk eps^2 / (eps^2 + (E_j - E_k)^2).  B is the only n x n
        array kept; the kernel is formed CHUNK_ENTRIES entries at a time."""
        # B_jk = psi_j(x) psi_k(x) sum_y psi_j(y) psi_k(y) w(y)
        b = self.u.T @ (self.w[:, None] * self.u)
        b *= self.ux[:, None]
        b *= self.ux
        step = chunk_size(len(self.e))
        total = 0.0
        for lo in range(0, len(self.e), step):
            k = np.subtract.outer(self.e[lo : lo + step], self.e)
            k **= 2
            k += eps**2
            np.divide(eps**2, k, out=k)
            k *= b[lo : lo + step]
            total += float(np.sum(k))
        return total

    def green_moment(self, lam: float, eps: float) -> float:
        """eps^2 sum_y |G_{lam+i eps}(x,y)|^2 w(y), G_z(x,.) = U (U[x] / (E - z))."""
        return eps**2 * self._weighted_norm2(self.ux / (self.e - complex(lam, eps)))


def dynamics_samples(
    target,
    x: Site,
    p: float,
    times: Sequence[float] = (),
    lam: float = 0.0,
    laplace_eps: float | None = None,
    eps_sequence: Sequence[float] = (),
) -> np.ndarray:
    """One row per realization (one for a fixed operator), from a single
    eigendecomposition: M_p(x,t) for each t in times; then, if laplace_eps
    is given, the lhs and rhs of the Laplace check at lam + i laplace_eps;
    then S(eps) of `pmoment_probe` for each eps in eps_sequence.
    """
    if not (math.isfinite(p) and p >= 0):
        raise ValueError("p must be a nonnegative finite number")
    eps_sequence = list(eps_sequence)
    checked = eps_sequence if laplace_eps is None else [laplace_eps, *eps_sequence]
    if any(not 0 < e < math.inf for e in checked):
        raise ValueError("eps values must be positive and finite")
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps sequence must be strictly decreasing")
    if isinstance(target, HamiltonianMatrix) and target.sites is not None:
        raise ValueError("dynamics needs the operator on its whole box")
    ix, w = target.box.index(x), _distance_powers(target.box, x, p)

    def row(e: np.ndarray, u: np.ndarray) -> list[float]:
        f = _Factored(e, u, ix, w)
        out = [f.moment(float(t)) for t in times]
        if laplace_eps is not None:
            out += [f.laplace_lhs(laplace_eps), f.green_moment(lam, laplace_eps)]
        return out + [f.green_moment(lam, e) for e in eps_sequence]

    if isinstance(target, HamiltonianMatrix):
        stacks = [target.matrix[None]]  # a stack of one
    else:
        stacks = (h for _, _, h in _operator_stacks(target))
    rows = []
    for h in stacks:
        sd = eigendecompose(h)
        rows += map(row, sd.eigenvalues, sd.eigenvectors)
        del sd  # free this chunk's eigenpairs before the next chunk is factored
    return np.array(rows)


def moment_Mp(target, x: Site, t: float, p: float) -> float:
    """M_p(x,t) = sum_y |e^{itH}(x,y)|^2 ||x-y||^p, averaged for ensembles."""
    return float(np.mean(dynamics_samples(target, x, p, [t])))


def laplace_summary(lhs: np.ndarray, rhs: np.ndarray) -> dict:
    """Reduce per-realization Laplace lhs and rhs to the check's verdict.

    Per realization, Jensen's inequality for the probability measure
    eps e^{-eps t} dt gives lhs >= rhs termwise in y, so the check also
    reports the worst per-realization margin.
    """
    lhs_mean, rhs_mean = float(np.mean(lhs)), float(np.mean(rhs))
    worst = float(np.min(lhs - rhs))
    return {
        "lhs": lhs_mean,
        "rhs": rhs_mean,
        "margin": lhs_mean - rhs_mean,
        "worst_realization_margin": worst,
        "holds": worst >= -1e-9,
        "realizations": len(lhs),
    }


def laplace_moment_check(
    target, lam: float, eps: float, p: float, x: Site
) -> dict:
    """Check eps-averaged spreading against the Green function bound."""
    pairs = dynamics_samples(target, x, p, lam=lam, laplace_eps=eps)
    return laplace_summary(pairs[:, 0], pairs[:, 1])


def pmoment_probe(
    target,
    lam: float,
    eps_sequence: Sequence[float],
    p: float,
    x: Site,
) -> dict:
    """S(eps) = sum_y eps^2 E|G_{lam+i eps}(x,y)|^2 ||x-y||^p per eps.

    A non-decreasing S as eps decreases signals a divergent p-th Green
    function moment at lam; off the relevant spectra S ~ eps^2 instead.
    """
    eps_sequence = list(eps_sequence)
    means, ses = sample_mean_stderr(
        dynamics_samples(target, x, p, lam=lam, eps_sequence=eps_sequence)
    )
    rows = [
        {"eps": eps, "S": float(s), "stderr": float(se)}
        for eps, s, se in zip(eps_sequence, means, ses)
    ]
    logs_e = np.log([r["eps"] for r in rows])
    logs_s = np.log([max(r["S"], 1e-300) for r in rows])
    a = np.vstack([logs_e, np.ones(len(rows))]).T
    coef, *_ = np.linalg.lstsq(a, logs_s, rcond=None)
    return {
        "rows": rows,
        "loglog_slope": float(coef[0]),
        "nondecreasing": all(
            rows[i + 1]["S"] >= rows[i]["S"] for i in range(len(rows) - 1)
        ),
        "p": p,
        "lam": lam,
    }
