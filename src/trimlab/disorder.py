"""Random potential distributions, seeded sampling and decoupling checks.

Sampling is counter-based: every draw is a pure function of
(distribution, master seed, site index, sample index), so ensemble
averages are reproducible under any scheduling of the work.  One rule,
`_uniforms`, keys every stream: (master seed, purpose, index) gives one
Philox4x64-10 stream, drawn by the vectorised kernel
`lattice.philox_uniforms`, bit-identical to numpy's `Philox` generator.
That generator is the reference the tests compare against
(`draw_vector` and `draw` in tests/oracles.py); nothing here loads
numpy.random.  The purposes are the potentials (`sample_potential`, one
stream per sample index), the test points of the CLI's identity checks
(`trial_uniforms`) and the (a, b) pairs of
`estimate_decoupling_constants`; each has its own mix word, so no two
share a stream of one master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import LatticeBox, SublatticeMask, mask_vector, philox_uniforms

QUAD_TOL = 1e-9


# ---------------------------------------------------------------------------
# Distribution families
# ---------------------------------------------------------------------------


class DisorderSpec:
    """A distribution mu with declared regularity constants.

    Subclasses provide the density on a finite union of intervals, the
    map from uniform variates to samples, and declared alpha / q values.
    """

    declared_alpha: float
    declared_q: float

    #: number of uniforms consumed per sample
    draws_per_sample: int = 1

    #: intervals covering the support, as (lo, hi) pairs
    support: tuple[tuple[float, float], ...]

    def pdf(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms of shape (n, draws_per_sample) to n samples."""
        raise NotImplementedError

    @property
    def moment_Mq(self) -> float:
        """Declared-q absolute moment of mu, by quadrature."""
        return self.expect(lambda v: np.abs(v) ** self.declared_q)

    def expect(self, f, points: Sequence[float] = ()) -> float:
        """Integral of f against mu over the support intervals."""
        from scipy import integrate  # only the quadrature callers need scipy

        total = 0.0
        for lo, hi in self.support:
            pts = sorted(p for p in points if lo < p < hi)
            val, _ = integrate.quad(
                lambda v: f(v) * self.pdf(v),
                lo,
                hi,
                points=pts or None,
                epsabs=QUAD_TOL,
                epsrel=QUAD_TOL,
                limit=400,
            )
            total += val
        return total


@dataclass(frozen=True)
class Uniform(DisorderSpec):
    """Uniform(a, b): 1-regular with C = 2/(b-a), all moments finite."""

    a: float = 0.0
    b: float = 1.0
    declared_q: float = 2.0

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("need b > a")

    declared_alpha = 1.0
    draws_per_sample = 1

    @property
    def regularity_C(self) -> float:
        return 2.0 / (self.b - self.a)

    @property
    def support(self):
        return ((self.a, self.b),)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        return np.where((v >= self.a) & (v <= self.b), 1.0 / (self.b - self.a), 0.0)

    def from_uniform(self, u):
        return self.a + (self.b - self.a) * u[..., 0]


@dataclass(frozen=True)
class BernoulliMixture(DisorderSpec):
    """Atoms at 0 and 1 (weight p on 1) smoothed by a uniform of width w."""

    p: float = 0.5
    w: float = 0.1
    declared_q: float = 2.0

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("need 0 < p < 1")
        if not 0 < self.w <= 1:
            raise ValueError("need 0 < w <= 1")

    declared_alpha = 1.0
    draws_per_sample = 2

    @property
    def regularity_C(self) -> float:
        # density is at most max(p, 1-p)/w (atoms separated when w < 2)
        return 2.0 * max(self.p, 1.0 - self.p) / self.w

    @property
    def support(self):
        h = self.w / 2
        if 1.0 - h <= h:  # overlapping smoothed atoms
            return ((-h, 1.0 + h),)
        return ((-h, h), (1.0 - h, 1.0 + h))

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        h = self.w / 2
        out = np.zeros_like(v)
        out = out + np.where(np.abs(v) <= h, (1.0 - self.p) / self.w, 0.0)
        out = out + np.where(np.abs(v - 1.0) <= h, self.p / self.w, 0.0)
        return out

    def from_uniform(self, u):
        atom = (u[..., 0] < self.p).astype(float)
        return atom + self.w * (u[..., 1] - 0.5)


@dataclass(frozen=True)
class TruncatedCauchy(DisorderSpec):
    """Cauchy of the given scale conditioned on [-cutoff, cutoff].

    Used to exercise the small-q constraint logic; the declared q must be
    below 1 even though the truncated law has all moments.
    """

    scale: float = 1.0
    cutoff: float = 50.0
    declared_q: float = 0.5

    def __post_init__(self):
        if self.scale <= 0 or self.cutoff <= 0:
            raise ValueError("scale and cutoff must be positive")
        if not 0 < self.declared_q < 1:
            raise ValueError("declared_q must lie in (0, 1) for TruncatedCauchy")

    declared_alpha = 1.0
    draws_per_sample = 1

    @property
    def _norm(self) -> float:
        return 2.0 * math.atan(self.cutoff / self.scale)

    @property
    def regularity_C(self) -> float:
        return 2.0 / (self.scale * self._norm)

    @property
    def support(self):
        return ((-self.cutoff, self.cutoff),)

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        dens = 1.0 / (self.scale * (1.0 + (v / self.scale) ** 2) * self._norm)
        return np.where(np.abs(v) <= self.cutoff, dens, 0.0)

    def from_uniform(self, u):
        theta = (2.0 * u[..., 0] - 1.0) * math.atan(self.cutoff / self.scale)
        return self.scale * np.tan(theta)


_FAMILIES = {"uniform": Uniform, "bmix": BernoulliMixture, "tcauchy": TruncatedCauchy}


def spec_from_descriptor(text: str) -> DisorderSpec:
    """Parse a disorder descriptor as used on the command line: a family,
    `uniform`, `bmix` or `tcauchy`, then optionally `:` and its
    two shape numbers, comma-separated (`uniform:0,1`).  A trailing field
    or a third number (which would set the declared q) is a ValueError."""
    kind, *fields = text.strip().split(":")
    kind = kind.lower()
    if kind not in _FAMILIES:
        raise ValueError(f"unknown disorder family {kind!r}")
    try:
        if len(fields) > 1:
            raise ValueError(f"{len(fields)} fields after {kind}, at most 1")
        args = [float(v) for v in fields[0].split(",")] if fields else []
        if len(args) > 2:
            raise ValueError(f"{len(args)} numbers after {kind}, at most 2")
        return _FAMILIES[kind](*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed disorder descriptor {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Counter-based sampling
# ---------------------------------------------------------------------------


_MASK64 = (1 << 64) - 1
_STREAM_MIX = 0x9E3779B97F4A7C15  # xored into both 64-bit words of every key
#: xored into the seed word of the streams of `trial_uniforms`
_TRIAL_MIX = 0xBB67AE8584CAA73B
#: xored into the seed word of the stream of `estimate_decoupling_constants`
_PAIR_MIX = 0x3C6EF372FE94F82B


def _uniforms(seed: int, indices, m: int, mix: int = 0) -> np.ndarray:
    """(len(indices), m) uniforms on [0, 1), row i from the Philox4x64-10
    stream of (seed, indices[i]), all from one `philox_uniforms` call.

    The package's one key rule: the high word is seed ^ _STREAM_MIX ^ mix
    and the low word index ^ _STREAM_MIX, both mod 2**64.  Potentials use
    mix 0; every other purpose has a mix of its own.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":  # empty, or Python ints beyond 64 bits
        idx = np.array([int(i) & _MASK64 for i in indices], dtype=np.uint64)
    key_lo = idx.astype(np.uint64) ^ np.uint64(_STREAM_MIX)
    # int(): a numpy integer seed would overflow against the 64-bit mask
    key_hi = (int(seed) ^ _STREAM_MIX ^ mix) & _MASK64
    return philox_uniforms(key_lo, key_hi, m)


def trial_uniforms(master_seed: int, trials: int, m: int) -> np.ndarray:
    """(trials, m) uniforms on [0, 1), row t keyed by (master_seed, t)."""
    return _uniforms(master_seed, np.arange(trials), m, _TRIAL_MIX)


def sample_potential(
    dist: DisorderSpec,
    seed: int,
    mask: SublatticeMask,
    box: LatticeBox,
    sample_index,
) -> np.ndarray:
    """Potential vector on the box: mu-distributed on Gamma, zero off it.

    Site i of sample index j takes its draws from stream (seed, j) of
    `_uniforms`; a sequence of sample indices gives one row per index.
    """
    idx, k = np.ravel(sample_index), dist.draws_per_sample
    u = _uniforms(seed, idx, box.size * k).reshape(len(idx), box.size, k)
    v = dist.from_uniform(u)
    v[:, ~mask_vector(mask, box)] = 0.0
    return v.reshape(*np.shape(sample_index), box.size)


# ---------------------------------------------------------------------------
# Regularity diagnostics
# ---------------------------------------------------------------------------


def regularity_check(spec: DisorderSpec, n: int, seed: int) -> dict:
    """Empirical alpha-regularity constant and q-moment with standard errors.

    Scans a (t, eps) grid over the support and reports the largest
    empirical mu[t-eps, t+eps] / eps^alpha.
    """
    if n < 10**4:
        raise ValueError("need at least 1e4 samples")
    k = spec.draws_per_sample
    v = spec.from_uniform(_uniforms(seed, [0], n * k).reshape(n, k))
    alpha = spec.declared_alpha
    lo = min(a for a, _ in spec.support)
    hi = max(b for _, b in spec.support)
    t_grid = np.linspace(lo, hi, 21)
    eps_grid = [0.2, 0.1, 0.05, 0.02, 0.01]
    best = {"C": -np.inf}
    for t in t_grid:
        for eps in eps_grid:
            phat = float(np.mean(np.abs(v - t) <= eps))
            c_emp = phat / eps**alpha
            if c_emp > best["C"]:
                se = math.sqrt(max(phat * (1 - phat), 1.0 / n) / n) / eps**alpha
                best = {"C": c_emp, "t": float(t), "eps": eps, "C_stderr": se}
    mq = np.abs(v) ** spec.declared_q
    return {
        "empirical_C": best["C"],
        "empirical_C_stderr": best["C_stderr"],
        "at_t": best["t"],
        "at_eps": best["eps"],
        "empirical_Mq": float(np.mean(mq)),
        "empirical_Mq_stderr": float(np.std(mq, ddof=1) / math.sqrt(n)),
        "declared_alpha": alpha,
        "declared_q": spec.declared_q,
        "n": n,
    }


# ---------------------------------------------------------------------------
# Decoupling inequality of the rational-function lemma
# ---------------------------------------------------------------------------


def _check_offreal(spec: DisorderSpec, b: complex) -> None:
    if b.imag != 0:
        return
    for lo, hi in spec.support:
        if lo <= b.real <= hi:
            raise ValueError(f"pole {b} lies on the support of mu")


def decoupling_ratio(
    spec: DisorderSpec,
    a: Sequence[complex],
    b: Sequence[complex],
    s: float,
    r: float,
) -> dict:
    """Two-sided comparability of a rational moment with its (1+|.|) proxy.

    lhs = int prod|v-a_j|^s / prod|v-b_i|^r dmu(v),
    rhs = prod(1+|a_j|)^s / prod(1+|b_i|)^r.
    """
    a = [complex(v) for v in a]
    b = [complex(v) for v in b]
    l, m = len(a), len(b)
    alpha, q = spec.declared_alpha, spec.declared_q
    if m > 0 and not r * m < alpha:
        raise ValueError(f"constraint rm < alpha violated: {r * m} >= {alpha}")
    if m > 0:
        qmin = (s * l + r * m) * alpha / (alpha - r * m)
        if q < qmin:
            raise ValueError(f"constraint q >= {qmin:.3g} violated (q = {q})")
    for bi in b:
        _check_offreal(spec, bi)

    def integrand(v):
        num = 1.0
        for aj in a:
            num *= abs(v - aj) ** s
        den = 1.0
        for bi in b:
            den *= abs(v - bi) ** r
        return num / den

    points = [c.real for c in a + b]
    lhs = spec.expect(integrand, points=points)
    rhs = 1.0
    for aj in a:
        rhs *= (1.0 + abs(aj)) ** s
    for bi in b:
        rhs /= (1.0 + abs(bi)) ** r
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


def decoupling_pair_ratio(
    spec: DisorderSpec, a: complex, b: complex, s: float
) -> float:
    """E|V-b|^-s divided by E |V-a|^s |V-b|^-s (the decoupling quotient)."""
    _check_offreal(spec, complex(b))
    pts = [complex(a).real, complex(b).real]
    num = spec.expect(lambda v: abs(v - b) ** (-s), points=pts)
    den = spec.expect(
        lambda v: abs(v - a) ** s * abs(v - b) ** (-s), points=pts
    )
    return num / den


def estimate_decoupling_constants(
    spec: DisorderSpec, s: float, trials: int, seed: int
) -> dict:
    """Empirical lower bound on the decoupling constant C_s.

    Maximizes the decoupling quotient over seeded random (a, b) pairs
    drawn from a complex rectangle spanning the support; the true C_s is
    existential, so only this lower envelope is reported.
    """
    if not 0 < s < spec.declared_alpha:
        raise ValueError("need 0 < s < alpha")
    if trials < 1:
        raise ValueError("no trials")
    lo = min(a for a, _ in spec.support)
    hi = max(b for _, b in spec.support)
    span = hi - lo
    # one stream, five uniforms per trial
    draws = _uniforms(seed, [0], 5 * trials, _PAIR_MIX).reshape(trials, 5)
    best = {"C_s": -np.inf}
    for re_a, re_b, im_a, im_b, u in draws.tolist():
        a = complex(lo - 0.5 * span + 2.0 * span * re_a, 2.0 * (im_a - 0.5))
        if u < 0.5:  # coincident pair: quotient reduces to E|V-b|^-s
            a = complex(lo + span * re_a, 0.0)
            b = complex(a.real, 0.02 + 0.98 * im_b)
        else:
            b = complex(
                lo - 0.5 * span + 2.0 * span * re_b,
                math.copysign(0.02 + 0.98 * im_b, im_b - 0.5),
            )
        ratio = decoupling_pair_ratio(spec, a, b, s)
        if ratio > best["C_s"]:
            best = {"C_s": ratio, "a": a, "b": b}
    best["s"] = s
    best["trials"] = trials
    return best
