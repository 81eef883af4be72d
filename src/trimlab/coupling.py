"""Strong-to-weak disorder coupling through the hedgehog doubling: the
reciprocal potential transform, the exact two-block resolvent
identities, and the weak-disorder chi bound with its proof-chain audit.
With U = gV the base block is G_z[H(0) + (gV)_z^#], and (gV)_z^# =
(z - gV)^{-1} is small wherever gV is large: the sense in which strong
disorder couples to a weak-disorder operator.

All resolvents here may be non-self-adjoint (complex diagonal blocks);
everything goes through a pivoted LU, never a spectral decomposition.
The doubled (2n x 2n) operator is the plain array of
`operators.hedgehog_assemble`, whose pendant block is [:n, :n] and base
block [n:, n:].  It is shifted and inverted in place, in one complex
buffer, by `spectral._inverse`; a real one is first checked against its
spectrum, as `spectral.green` checks it.  The n x n resolvents go
through `spectral.green`.  The weak bound's realizations are those of
`fracmoment._operator_stacks`.
"""

from __future__ import annotations

import math

import numpy as np

from .fracmoment import DecayMetric, EnsembleSpec, _chi_sup, _operator_stacks, chi_kernel
from .operators import HamiltonianMatrix, hedgehog_assemble
from .spectral import _inverse, _refuse_spectrum, green


def u_sharp(u: np.ndarray, z: complex) -> np.ndarray:
    """Pointwise reciprocal potential (z - U)^{-1}."""
    u = np.asarray(u)
    z = complex(z)
    diff = z - u
    if np.any(diff == 0):
        site = int(np.argmax(diff == 0))
        raise ZeroDivisionError(f"z = {z} equals the potential at index {site}")
    return 1.0 / diff


def s2w_identity_check(
    h0: HamiltonianMatrix, u: np.ndarray, z: complex, g0: np.ndarray | None = None
) -> dict:
    """Residuals of both block identities for the doubled operator.

    The base block of the doubled resolvent equals G_z[H(0) + U_z^#];
    the pendant block equals G_z[U - G_z[H(0)]].  g0 is G_z[H(0)] when
    the caller has it already; otherwise it is solved here, once the
    doubled inverse is freed.  The doubled operator is held once, as one
    complex buffer that is shifted and inverted in place.
    """
    u = np.asarray(u)
    z = complex(z)
    n = h0.n
    m = hedgehog_assemble(h0, u)
    _refuse_spectrum(m, z)
    # a real assembled matrix is freed before the inverse is made
    m = m.astype(complex, copy=False)
    gh = _inverse(m, z)
    del m
    base, pend = gh[n:, n:].copy(), gh[:n, :n].copy()
    del gh
    if g0 is None:
        g0 = green(h0.matrix, z)
    rhs0 = green(h0.matrix + np.diag(u_sharp(u, z)), z)
    rhs1 = green(np.diag(u) - g0, z)
    return {
        "residual0": float(np.max(np.abs(base - rhs0))),
        "residual1": float(np.max(np.abs(pend - rhs1))),
    }


def weak_disorder_bound_check(
    ens: EnsembleSpec,
    lam: float,
    eps: float,
    s: float,
    rho: DecayMetric,
    c_mu: float,
    g0: np.ndarray | None = None,
) -> dict:
    """Check the weak-disorder chi bound and audit its proof chain.

    The bound: chi_rho(E|G_{lam+i eps}[H(0)+gV]|^s) is at most
    C_mu kappa^2 e^{2 rho} chi^2 / (g^{-s} - C_mu chi) with
    chi = chi_rho(|G_{lam+i eps}[H(0)]|^s), whenever g^{-s} > C_mu chi.

    The audit recomputes the two steps behind it on the doubled
    operator with U = z - 1/(gV): the pendant-block chi against
    C_mu / (g^{-s} - C_mu chi), and the boundary-expansion step tying
    the base block to the pendant block.  kappa is taken as 2d as in
    the lattice statement; the doubled graph's boundary degree is 1, so
    the audited inequalities are conservative.  g0 is G_z[H(0)] at
    z = lam + i eps when the caller has it already; otherwise it is
    solved here.
    """
    if not 0 < s < 1:
        raise ValueError("need 0 < s < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not ens.g > 0:
        raise ValueError("need g > 0")
    if ens.split.comp.size:
        raise ValueError("the coupling check requires disorder on every site")
    z = complex(lam, eps)
    h0 = ens.split.h0
    if g0 is None:
        g0 = green(h0, z)
    chi0 = chi_kernel(g0, ens.box.coords, rho, s)
    g_inv_s = ens.g ** (-s)
    if g_inv_s <= c_mu * chi0:
        return {
            "applicable": False,
            "reason": f"g^-s = {g_inv_s:.6g} <= C_mu chi = {c_mu * chi0:.6g}",
            "chi0": chi0,
        }
    kappa = 2 * ens.box.dim
    enorm = math.exp(rho.norm)
    rhs_pendant = c_mu / (g_inv_s - c_mu * chi0)
    bound = c_mu * kappa**2 * enorm**2 * chi0**2 / (g_inv_s - c_mu * chi0)
    w_base = rho.weight_matrix(ens.box.coords)
    n = h0.n
    base_sums, pend_sums, idents = [], [], []
    for _, potentials, h in _operator_stacks(ens):
        if np.any(potentials == 0):
            raise ValueError("zero potential value; reciprocal undefined")
        for v, hv in zip(potentials, h):
            # U = z - 1/(gV), hence the matrix, is complex: inverted in place
            gh = _inverse(hedgehog_assemble(h0, z - 1.0 / (ens.g * v)), z)
            base, pend = gh[n:, n:], gh[:n, :n]
            # base block must coincide with G_z[H(0) + gV] (exact identity)
            idents.append(float(np.max(np.abs(base - green(hv, z)))))
            base_sums.append(np.sum(w_base * np.abs(base) ** s, axis=0))
            pend_sums.append(np.sum(w_base * np.abs(pend) ** s, axis=0))
    lhs, se = _chi_sup(np.array(base_sums))
    chi_pend, _ = _chi_sup(np.array(pend_sums))
    star_rhs = kappa**2 * enorm**2 * chi0**2 * chi_pend
    return {
        "applicable": True,
        "lhs": lhs,
        "lhs_stderr": se,
        "bound": bound,
        "holds": lhs <= bound + 3 * se,
        "chi0": chi0,
        "c_mu": c_mu,
        "audit": {
            "pendant_chi": chi_pend,
            "pendant_bound": rhs_pendant,
            "pendant_holds": chi_pend <= rhs_pendant,
            "star_rhs": star_rhs,
            "star_holds": lhs <= star_rhs + 3 * se,
            "block_identity_residual": max(idents),
        },
        "samples": ens.samples,
    }
