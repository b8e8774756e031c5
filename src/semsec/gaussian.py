"""Gaussian system model: closed-form RDFs and the Monte-Carlo inner-bound
scan.

Model summary. A jointly Gaussian semantic source (S, U) with covariance
block K = [[P_s, P_su], [P_su, P_u]] is conveyed over a degraded Gaussian
wiretap channel (input power P, legitimate noise P_N1, eavesdropper noise
P_N = P_N1 + P_N2) using r channel symbols per source symbol. The encoder
sees only U (case 1) or both components (case 2).

The converse evaluator uses closed-form rate-distortion functions and the
secrecy-capacity term; the inner-bound evaluator draws jointly Gaussian
auxiliary structures for the source side (a 6x6 factor whose rows are
S, U, Sc, Sp, Uc, Up, so that its Gram matrix is their covariance) and the
channel side (a signal and a private-noise power for each of the independent
layers Wc, Wu, Qs, Qu superposed into X), evaluates the source terms by
Gram-Schmidt on the factor rows and the channel terms in closed form, and
solves the piecewise-linear system for the minimal feasible r. In that
system every secrecy target's equivocation takes one form,
E(r) = base + r·g − (k − r·g_k)⁺, with the terms of each target in a table
(see ``_accept_draws``). Every draw is a valid covariance by construction,
so none is gated.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import DomainError, InfeasibleError
from .info import TWO_PI_E
from .regions import (DISABLED, EquivocationTargets, MinRateResult, RegionSurface, _distortions,
                      min_ratio)

__all__ = [
    "SemanticSourceGaussian",
    "WiretapChannelGaussian",
    "gaussian_rdf_joint",
    "converse_min_r",
    "inner_bound_scan",
    "draw_inner_samples",
    "REASON_NAMES",
]

_TOL = 1e-9
_TINY = 1e-300

#: Per-sample discard reason codes for the inner-bound evaluation.
REASON_NAMES = {
    0: "ok",
    1: "public_rate",
    2: "common_rate",
    3: "private_rate",
    4: "secrecy_s",
    5: "secrecy_u",
    6: "secrecy_su",
    7: "unsound_s",
    8: "unsound_u",
    9: "unsound_su",
    10: "degenerate",  # a singular index set made a term NaN or infinite
}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemanticSourceGaussian:
    """Zero-mean jointly Gaussian semantic source with covariance block K."""

    P_s: float
    P_u: float
    P_su: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.P_s, self.P_u, self.P_su)):
            raise DomainError(f"source parameters must be finite, got "
                              f"({self.P_s}, {self.P_u}, {self.P_su})")
        if not (self.P_s > 0.0 and self.P_u > 0.0):
            raise DomainError(f"variances must be positive, got ({self.P_s}, {self.P_u})")
        # det_k and rho2 read P_s P_u and P_su^2, so both must be finite,
        # and P_s P_u a normal float to divide by.
        try:
            square = self.P_su**2
        except OverflowError:
            square = math.inf
        product = self.P_s * self.P_u
        if not (square < math.inf and sys.float_info.min <= product < math.inf):
            raise DomainError(
                f"source parameters out of range: P_s P_u = {product} and P_su^2 = {square} "
                f"must be finite, and P_s P_u at least {sys.float_info.min}"
            )
        # Relative, so that the check does not depend on the units.
        if not square <= product * (1.0 + 1e-12):
            raise DomainError(
                f"covariance block not PSD: |P_su| = {abs(self.P_su)} exceeds "
                f"sqrt(P_s P_u) = {math.sqrt(product)}"
            )

    @property
    def det_k(self) -> float:
        return self.P_s * self.P_u - self.P_su**2

    @property
    def rho2(self) -> float:
        """Squared Pearson correlation between the two components."""
        return min(self.P_su**2 / (self.P_s * self.P_u), 1.0)

    @property
    def distortion_range(self) -> tuple[float, float]:
        """The (D_s, D_u) upper ends of the ranges that count grids split."""
        return self.P_s, self.P_u

    @property
    def h_s(self) -> float:
        return 0.5 * math.log2(TWO_PI_E * self.P_s)

    @property
    def h_u(self) -> float:
        return 0.5 * math.log2(TWO_PI_E * self.P_u)

    @property
    def h_su(self) -> float:
        det = max(self.det_k, 0.0)
        if det == 0.0:
            return float("-inf")
        return math.log2(TWO_PI_E) + 0.5 * math.log2(det)

    def cholesky(self) -> np.ndarray:
        """Lower-triangular factor of K (valid also for a singular block)."""
        l00 = math.sqrt(self.P_s)
        l10 = self.P_su / l00
        l11 = math.sqrt(max(self.P_u - l10**2, 0.0))
        return np.array([[l00, 0.0], [l10, l11]])

    def rdf_components(self, d_s, d_u, case: int):
        """The joint RDF, its (name, entropy, RDF) converse components and the
        mask of cells below the case-1 floor, at the distortions ``d_s`` and
        ``d_u``: any two broadcastable arrays, or floats.

        The joint RDF and the mask have the broadcast shape; each component's
        RDF broadcasts to it. :func:`semsec.regions.min_ratio` and
        :func:`semsec.regions.equivocation_caps` read the model through this
        method. Case 1's joint RDF is the maximum of the two marginals. A
        cell within reach whose RDFs are not all finite, where distortions
        near the smallest floats overflow a ratio, raises
        :class:`DomainError` naming it.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r_s, blocked = _rdf_sem(self, d_s, case)
            r_u = _rdf_obs(self, d_u)
            r_j = np.maximum(r_s, r_u) if case == 1 else _joint_case2(self, d_s, d_u, r_s, r_u)
        bad = ~blocked & ~(np.isfinite(r_s) & np.isfinite(r_u) & np.isfinite(r_j))
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            cell = [np.broadcast_to(d, bad.shape)[at] for d in (d_s, d_u)]
            raise DomainError(f"the RDFs are not finite at (D_s, D_u) = ({cell[0]}, {cell[1]}): "
                              "the distortions are too small to evaluate")
        return r_j, (
            ("delta_s", self.h_s, r_s),
            ("delta_u", self.h_u, r_u),
            ("delta_su", self.h_su, r_j),
        ), blocked


@dataclass(frozen=True)
class WiretapChannelGaussian:
    """Degraded Gaussian wiretap channel: Y = X + N1, Z = Y + N2."""

    P: float
    P_N1: float
    P_N2: float

    def __post_init__(self):
        if not (self.P > 0.0 and self.P_N1 > 0.0 and self.P_N2 >= 0.0):
            raise DomainError(
                f"need P > 0, P_N1 > 0, P_N2 >= 0; got ({self.P}, {self.P_N1}, {self.P_N2})"
            )

    @property
    def P_N(self) -> float:
        return self.P_N1 + self.P_N2

    @property
    def capacity_main(self) -> float:
        return 0.5 * math.log2(1.0 + self.P / self.P_N1)

    @property
    def secrecy_capacity(self) -> float:
        """Main minus eavesdropper capacity; zero when P_N2 = 0."""
        return 0.5 * (
            math.log2(1.0 + self.P / self.P_N1) - math.log2(1.0 + self.P / self.P_N)
        )


# ---------------------------------------------------------------------------
# closed-form rate-distortion functions
# ---------------------------------------------------------------------------


def _half_log2_plus(x) -> np.ndarray:
    """0.5 * max(0, log2 x) of every element, with libm's ``log2`` bits; an
    argument at most 1 means a slack constraint (0)."""
    x = np.asarray(x)
    out = np.zeros(x.shape)
    big = ~(x <= 1.0)
    out[big] = 0.5 * np.fromiter(map(math.log2, x[big].tolist()), float)
    return out


def _rdf_obs(src, d_u) -> np.ndarray:
    """Observation-part RDF at every distortion in ``d_u``."""
    return _half_log2_plus(src.P_u / _distortions(d_u, positive=True))


def _rdf_sem(src, d_s, case: int):
    """Semantic-part RDF at every distortion in ``d_s``, and the mask of those
    the case-1 floor puts out of reach (where the RDF is +inf). From D_s = P_s
    on it is exactly 0, also where the floor is P_s itself (rho = 0)."""
    d_s = _distortions(d_s, positive=True)
    if case == 2:
        return _half_log2_plus(src.P_s / d_s), np.zeros(d_s.shape, dtype=bool)
    if case != 1:
        raise DomainError(f"case must be 1 or 2, got {case}")
    floor = (1.0 - src.rho2) * src.P_s
    trivial = d_s >= src.P_s
    blocked = (d_s <= floor) & ~trivial
    arg = np.divide(src.rho2 * src.P_s, d_s - floor, out=np.ones(d_s.shape),
                    where=~(blocked | trivial))
    return np.where(blocked, np.inf, _half_log2_plus(arg)), blocked


def gaussian_rdf_joint(
    src: SemanticSourceGaussian, target_s: float, target_u: float, case: int
) -> float:
    """Joint RDF under both distortion constraints (see
    :meth:`SemanticSourceGaussian.rdf_components`); :class:`InfeasibleError`
    below the case-1 floor."""
    r_j, _, blocked = src.rdf_components(target_s, target_u, case)
    if blocked:
        raise InfeasibleError(
            f"restricted encoder cannot reach semantic distortion {target_s} "
            f"<= floor {(1.0 - src.rho2) * src.P_s}"
        )
    return float(r_j)


# ---------------------------------------------------------------------------
# converse bound
# ---------------------------------------------------------------------------


def _joint_case2(src, d_s, d_u, r_s, r_u) -> np.ndarray:
    """Case-2 joint RDF at the broadcastable distortions, given the marginals.

    Four regimes per cell, depending on which constraints are active:
    semantic-dominant, observation-dominant, weak-correlation product form,
    and the intermediate form with the correlation correction term. The
    deficit terms clamp at zero when a distortion exceeds the component
    variance, and where both are zero the joint RDF is exactly 0. Every
    value keeps the bits of the scalar closed form.
    """
    ps, pu, rho2 = src.P_s, src.P_u, src.rho2
    det_k = max(src.det_k, 0.0)
    t_s, t_u = np.asarray(d_s, dtype=float), np.asarray(d_u, dtype=float)
    dhs = np.maximum(ps - t_s, 0.0)
    dhu = np.maximum(pu - t_u, 0.0)
    # The four regimes, tested in this order per cell.
    sem = (dhs > 0.0) & (rho2 * dhs * pu > dhu * ps)
    obs = ~sem & (dhu > 0.0) & (rho2 * dhu * ps >= dhs * pu)
    deficit = np.asarray(dhs * dhu)
    weak = ~(sem | obs) & (rho2 * ps * pu < deficit)
    # Both deficits zero is the trivial scheme: the mid form there is 1 + ulp.
    mid = ~(sem | obs | weak) & ((dhs > 0.0) | (dhu > 0.0))
    area = np.asarray(t_s * t_u)
    arg = np.ones(area.shape)
    arg[weak] = det_k / area[weak]
    if mid.any():
        # ``**`` is libm's pow, which can differ from x * x in the last bit.
        base = math.sqrt(rho2 * ps * pu) - np.sqrt(deficit[mid])
        corr = np.fromiter(map(pow, base.tolist(), itertools.repeat(2)), float)
        denom = area[mid] - corr
        if np.any(denom <= 0.0):
            at = tuple(np.argwhere(mid)[np.argmax(denom <= 0.0)])
            raise DomainError(
                f"joint-RDF regime selection degenerate at "
                f"({np.broadcast_to(t_s, mid.shape)[at]}, {np.broadcast_to(t_u, mid.shape)[at]})"
            )
        arg[mid] = det_k / denom
    return np.where(sem, r_s, np.where(obs, r_u, _half_log2_plus(arg)))


def converse_min_r(
    src: SemanticSourceGaussian,
    ch: WiretapChannelGaussian,
    target_s: float,
    target_u: float,
    targets: EquivocationTargets,
    case: int = 2,
) -> MinRateResult:
    """:func:`semsec.regions.min_ratio` at one cell."""
    return min_ratio(src, ch, targets, target_s, target_u, case).cell()


# ---------------------------------------------------------------------------
# inner bound: auxiliary-structure sampler
# ---------------------------------------------------------------------------

_CHUNK = 4096
_MODE_PROBS = (0.4, 0.2, 0.2, 0.2)


def _modes(rng, n: int):
    """The index arrays of the four modes of ``n`` draws. The samplers fill an
    empty mode too, which writes nothing and takes nothing from ``rng``."""
    mode = rng.choice(4, size=n, p=_MODE_PROBS)
    return [np.flatnonzero(mode == m) for m in range(4)]


def _sample_sigma1_batch(src: SemanticSourceGaussian, case: int, n: int, rng):
    """Draw ``n`` source-side factor structures; returns the factors g, (6, 6, n).

    Coordinates: (S, U, Sc, Sp, Uc, Up). Factor dimensions: 0-1 span the
    (S, U) plane, 2 is the common-layer noise (shared with the observation
    side), 3 is private to Sp, 4-5 are private to the observation side. The
    disjoint noise supports make the observation-side auxiliaries
    conditionally independent of Sp given (Sc, source plane) for every draw,
    which keeps the draws within the achievable-scheme family. A mixture of
    four modes, split by :func:`_modes`, covers the region: general draws
    plus three corner modes (layered-efficient, semantic-only,
    observation-only) that land near the rate-optimal boundary.

    g is coordinate-major, (coordinate, factor dim, draw), the layout that
    :func:`_prefix_logdets` reads: g[i, :, k] is row i of draw k's factor.
    Σ1 is the Gram matrix of each draw's rows, and rows 0-1 are the Cholesky
    rows of K, so the (S, U) block of Σ1 is K up to rounding. Rows 0-5 can
    be nonzero only in their leading 1, 2, 3, 4, 6 and 6 factor dims, the
    spans that :func:`_prefix_logdets` carries them on. Every draw is a
    valid covariance by construction, so no draw is gated;
    :func:`_inner_terms` reads the source-side terms from the rows of g
    without forming Σ1. Every entry is a Cholesky entry or a unit-free draw
    times ``amp`` = sqrt(max(P_s, P_u)), so a seed draws the same
    structures, rescaled, for a rescaled source.
    """
    l = src.cholesky()
    amp = math.sqrt(max(src.P_s, src.P_u))
    g = np.zeros((6, 6, n))
    g[0, :2] = l[0][:, None]
    g[1, :2] = l[1][:, None]
    sem_dir = l[0] if case == 2 else l[1]

    idx0, idx1, idx2, idx3 = _modes(rng, n)

    def _noise(size, lo=1e-2, hi=2.0):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), size)) * amp

    def _plane(row, idx, load):
        # Source-plane loading (dims 0-1) of ``row`` for the draws ``idx``:
        # one 2-vector, or one per draw as (k, 2).
        g[row, 0, idx] = load[..., 0]
        g[row, 1, idx] = load[..., 1]

    k = idx0.size
    load = rng.uniform(-1.5, 1.5, (k, 4, 2)) * amp
    for j in range(4):
        _plane(2 + j, idx0, load[:, j])
    g[2, 2, idx0] = _noise(k)
    g[3, 3, idx0] = _noise(k)
    g[4, 4, idx0] = _noise(k)
    g[5, 5, idx0] = _noise(k)
    signs = rng.choice([-1.0, 1.0], size=(k, 4))
    g[4, 2, idx0] = signs[:, 0] * _noise(k)
    g[5, 2, idx0] = signs[:, 1] * _noise(k)
    g[4, 5, idx0] = signs[:, 2] * _noise(k)
    g[5, 4, idx0] = signs[:, 3] * _noise(k)
    _plane(2, idx1, rng.uniform(-1.0, 1.0, (idx1.size, 2)) * amp)
    _plane(3, idx1, sem_dir)
    _plane(4, idx1, l[1])
    _plane(5, idx1, l[1])
    sig = _noise((idx1.size, 4), 3e-2, 3.0)
    g[2, 2, idx1] = sig[:, 0]
    g[3, 3, idx1] = sig[:, 1]
    g[4, 4, idx1] = sig[:, 2]
    g[5, 5, idx1] = sig[:, 3]
    g[2, 2, idx2] = amp
    _plane(3, idx2, sem_dir)
    g[3, 3, idx2] = _noise(idx2.size, 3e-2, 3.0)
    g[4, 4, idx2] = amp
    g[5, 5, idx2] = amp
    g[2, 2, idx3] = amp
    g[3, 3, idx3] = amp
    _plane(4, idx3, l[1])
    _plane(5, idx3, l[1])
    sig = _noise((idx3.size, 2), 3e-2, 3.0)
    g[4, 4, idx3] = sig[:, 0]
    g[5, 5, idx3] = sig[:, 1]

    if case == 1:
        # Restricted encoder: auxiliaries may depend on the source only
        # through U, so project their source-plane loadings onto the U row.
        w = l[1] / np.linalg.norm(l[1])
        proj = np.matmul(w, g[2:, :2])
        g[2:, :2] = proj[:, None, :] * w[:, None]
    return g


def _sample_sigma2_batch(ch: WiretapChannelGaussian, n: int, rng):
    """Draw ``n`` channel-side layer structures; returns (σ², ν²), each (n, 4).

    Layers: (Wc, Wu, Qs, Qu). Layer k is W_k = S_k + M_k, an independent
    signal component S_k of power σ_k² = share_k·P plus a private noise M_k
    of power ν_k². X sums the signals plus an independent residual that tops
    the input power up to P, and Y = X + N1, Z = Y + N2, so each auxiliary is
    conditionally independent of (Y, Z) given X. Four modes (:func:`_modes`):
    general stick-breaking splits with private noises, a clean full-power
    split, and two corner-heavy splits that favor the confidential layers.
    Every draw is a valid covariance by construction, so no draw is gated.
    """
    p = ch.P
    idx0, idx1, idx2, idx3 = _modes(rng, n)
    shares = np.zeros((n, 4))
    noise = np.zeros((n, 4))

    total = rng.uniform(0.0, 1.0, idx0.size)
    shares[idx0] = rng.dirichlet(np.ones(4), size=idx0.size) * total[:, None]
    noise[idx0] = rng.uniform(0.0, 1.0, (idx0.size, 4)) * math.sqrt(p)
    shares[idx1] = rng.dirichlet(np.ones(4), size=idx1.size)
    v_wc = rng.uniform(0.0, 0.1, idx2.size)
    rest = 1.0 - v_wc
    v_qs = rest * (0.85 + 0.15 * rng.uniform(0.0, 1.0, idx2.size))
    rem = rest - v_qs
    t = rng.uniform(0.0, 1.0, idx2.size)
    shares[idx2, 0] = v_wc
    shares[idx2, 2] = v_qs
    shares[idx2, 1] = rem * t
    shares[idx2, 3] = rem * (1.0 - t)
    v_wu = 0.7 + 0.3 * rng.uniform(0.0, 1.0, idx3.size)
    rest3 = rng.dirichlet(np.ones(3), size=idx3.size) * (1.0 - v_wu)[:, None]
    shares[idx3, 1] = v_wu
    shares[idx3, 0] = rest3[:, 0]
    shares[idx3, 2] = rest3[:, 1]
    shares[idx3, 3] = rest3[:, 2]

    return shares * p, noise**2


# ---------------------------------------------------------------------------
# inner bound: information terms and the piecewise-linear minimal r
# ---------------------------------------------------------------------------


# Orderings whose leading prefixes are the index sets the source-side terms
# need; see _inner_terms for the terms and the coordinates.
_SOURCE_CHAINS = {
    1: ((2, 3, 0), (1, 2, 3), (2, 4, 5, 1)),
    2: ((2, 3, 0, 1), (0, 1, 2), (2, 4, 5, 1, 0)),
}


def _dot(a, b):
    """Σ_i a[i] b[i] over the first axis, summed in increasing i for every
    draw, so a draw's bits do not depend on the draws evaluated with it.
    einsum sums in that order over two or more draws; over one contiguous
    draw it sums in another, so a lone draw is evaluated twice over."""
    if a.shape[1] == 1:
        return _dot(np.repeat(a, 2, axis=1), np.repeat(b, 2, axis=1))[:1]
    return np.einsum("ij,ij->j", a, b)


def _prefix_logdets(g: np.ndarray, chains):
    """Source-side log-dets and pivots from the factor rows, batched.

    ``g`` is coordinate-major, (coordinate, factor dim, draw), as
    :func:`_sample_sigma1_batch` returns it, and Σ1 is the Gram matrix of
    each draw's rows. One modified Gram-Schmidt pass per chain (Björck,
    BIT 7, 1967), with the draws along the last, contiguous axis: the j-th
    pivot is the squared norm of row j's residual after the j - 1 rows
    before it, which is the variance of coordinate j given them. The log2
    det of a prefix is the running sum of the log2 pivots. A pivot is a sum
    of squares, so it is never negative, at any scale of the inputs; a zero
    (or NaN) pivot makes that prefix and every longer one -inf. Chains that
    share a prefix share its work, and the unit vector of a prefix that no
    chain extends is never formed.

    A row's span is one past the last factor dim that some draw fills, and
    a prefix's residual and unit vector are carried on the leading slice of
    the longest span among its rows: the dims after it are zero in every
    draw. Each sum runs over that slice in increasing order, so every
    log-det and pivot has the bits of the same pass over all dims. After a
    singular prefix, that dense pass gets NaN pivots from the 0/0 entries of
    its unit vector in the dropped dims, so those are set to NaN here; where
    that unit vector spans every dim, this pass is the dense one, and the
    next pivot is kept (+inf when a squared norm only underflowed to 0).
    Inputs are finite, and their squared norms do not overflow. Returns
    ({index set: (n,) log-dets}, {prefix: (n,) pivot of its last coordinate}).
    """
    n_dim = g.shape[1]
    span = (g.any(axis=2) * np.arange(1, n_dim + 1)).max(axis=1).tolist()
    extended = {tuple(chain[:j]) for chain in chains for j in range(1, len(chain))}
    basis = {(): ([], 0.0)}  # prefix -> (its unit residuals, its log-det)
    ld, piv = {}, {}
    for chain in chains:
        for j in range(1, len(chain) + 1):
            prefix = tuple(chain[:j])
            if prefix in basis:
                continue
            units, ld_prev = basis[prefix[:-1]]
            v = g[prefix[-1], :max(span[i] for i in prefix)].copy()
            for q in units:
                v[:len(q)] -= _dot(q, v[:len(q)]) * q
            p = _dot(v, v)
            if units:
                keep = ld_prev > -np.inf
                if len(units[-1]) == n_dim:  # dense where only the previous pivot is singular
                    keep |= basis[prefix[:-2]][1] > -np.inf
                p = np.where(keep, p, np.nan)
            ld_cur = np.where((p > 0.0) & (ld_prev > -np.inf), ld_prev + np.log2(p), -np.inf)
            unit = [v / np.sqrt(p)] if prefix in extended else []
            basis[prefix] = (units + unit, ld_cur)
            ld[frozenset(prefix)] = ld_cur
            piv[prefix] = p
    return ld, piv


def _mi(ld, a, b, c=()) -> np.ndarray:
    """I(A; B | C) in bits from the prefix log-dets ``ld``, clamped at 0."""
    a, b, c = frozenset(a), frozenset(b), frozenset(c)
    val = 0.5 * (ld[a | c] + ld[b | c] - (ld[c] if c else 0.0) - ld[a | b | c])
    return np.maximum(val, 0.0)


def _inner_terms(g: np.ndarray, sig2: np.ndarray, nu2: np.ndarray,
                 ch: WiretapChannelGaussian, case: int) -> dict[str, np.ndarray]:
    """All information terms of the inner bound, batched.

    Source side (rows S=0, U=1, Sc=2, Sp=3, Uc=4, Up=5 of the
    coordinate-major factors ``g``, (coordinate, factor dim, draw), of
    :func:`_sample_sigma1_batch`; the encoder input V is U in case 1 and
    (S, U) in case 2):

    * ``a1`` = I(Sc; V), ``a2`` = I(Sc, Sp; V), ``a3`` = I(Uc, Up; V | Sc);
    * ``d_s`` = Var(S | Sc, Sp), ``d_u`` = Var(U | Sc, Uc, Up) (minimum
      mean-square-error reconstruction distortions).

    Each mutual information is the Gaussian log-determinant identity
    I(A; B | C) = (ld(AC) + ld(BC) - ld(C) - ld(ABC)) / 2, with the log-dets
    from :func:`_prefix_logdets` over a few chains: for example the chain
    (Sc, Sp, S, U) yields {Sc}, {Sc, Sp}, {S, Sc, Sp} and {S, U, Sc, Sp}.
    Each distortion is a pivot of those chains: Var(S | Sc, Sp) is the third
    pivot of (Sc, Sp, S). The pass drops the trailing factor dims that are
    zero for every draw, with the bits of a pass over all of them.

    Channel side (layers Wc, Wu, Qs, Qu with the signal powers ``sig2`` and
    private-noise powers ``nu2`` of :func:`_sample_sigma2_batch`):

    * ``b1`` = I(Wc; Y), ``b2`` = I(Wc, Qs; Y), ``b3`` = I(Wu, Qu; Y | Wc);
    * leakage gaps ``gqs_y`` = I(Qs; Y | Wc), ``gqs_z`` = I(Qs; Z | Wc),
      ``gqu_y`` = I(Qu; Y | Wc, Wu), ``gqu_z`` = I(Qu; Z | Wc, Wu),
      ``gj_z`` = I(Qs, Qu; Z | Wc, Wu).

    The layers are independent, so conditioning on a layer set C removes
    e_C = Σ_{k∈C} e_k from the output variance v, with
    e_k = σ_k⁴ / (σ_k² + ν_k²) = Cov(W_k, X)² / Var(W_k), and
    I(A; Y | C) = ½ log2((v_Y - e_C) / (v_Y - e_C - e_A)) with
    v_Y = P + P_N1; the Z terms use v_Z = P + P_N.

    A singular index set (on the source side, a zero pivot; on the channel
    side, a layer with σ = ν = 0, whose e_k is NaN) makes its terms NaN or
    infinite, and the draw is discarded as ``degenerate``.
    """
    v = [1] if case == 1 else [0, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        l1, piv = _prefix_logdets(g, _SOURCE_CHAINS[case])
        wc, wu, qs, qu = (sig2**2 / (sig2 + nu2)).T

        def gain(out_var, a, c=0.0):
            # ½ log2(rest / (rest - a)); log1p keeps tiny gains to full
            # relative precision.
            rest = out_var - c
            return np.log1p(a / (rest - a)) / (2.0 * math.log(2.0))

        v_y, v_z = ch.P + ch.P_N1, ch.P + ch.P_N
        terms = {
            "a1": _mi(l1, [2], v),
            "a2": _mi(l1, [2, 3], v),
            "a3": _mi(l1, [4, 5], v, [2]),
            "d_s": piv[(2, 3, 0)],
            "d_u": piv[(2, 4, 5, 1)],
            "b1": gain(v_y, wc),
            "b2": gain(v_y, wc + qs),
            "b3": gain(v_y, wu + qu, wc),
            "gqs_y": gain(v_y, qs, wc),
            "gqs_z": gain(v_z, qs, wc),
            "gqu_y": gain(v_y, qu, wc + wu),
            "gqu_z": gain(v_z, qu, wc + wu),
            "gj_z": gain(v_z, qs + qu, wc + wu),
        }
    return terms


def _accept_draws(t: dict[str, np.ndarray], targets: EquivocationTargets,
                  src: SemanticSourceGaussian):
    """(r, accepted, reason_code) of each draw's inner-bound inequality system.

    The public-layer rate needs a1 <= b1, with no r multiplier; the common
    and private layers need r >= a2 / b2 and r >= a3 / b3. Each enabled
    secrecy target δ needs E(r) >= δ of an equivocation that is concave and
    piecewise linear in r,

        E(r) = base + r·g − (k − r·g_k)⁺,

    ======  =================  ========================  ==  =====
    target  base               g                         k   g_k
    ======  =================  ========================  ==  =====
    Δ_s     (h_s − a2)⁺        (gqs_y − gqs_z)⁺          a3  gqu_y
    Δ_u     (h_u − a3)⁺        (gqu_y − gqu_z)⁺          0   0
    Δ_su    (h_su − a2 − a3)⁺  (gqs_y + gqu_y − gj_z)⁺   0   0
    ======  =================  ========================  ==  =====

    so the least feasible r is exact: E rises with slope g + g_k up to the
    knee k / g_k and with slope g past it. Strictness of the printed
    inequalities is absorbed into a 1e-9 slack, and disabled (-inf) targets
    are skipped. A target above its source entropy, ``src.h_s``, ``src.h_u``
    or ``src.h_su``, is met by no scheme, so it discards every finite draw
    under its secrecy code. A draw is accepted when it is feasible and in
    the sound regime: its source-coding rates stay within the entropy
    budget of every active secrecy constraint (and its joint leakage gap is
    nonnegative for the joint one), where the equivocation bounds are fully
    backed by the coding argument. r is NaN where a draw is discarded. Of
    several reasons the first in code order wins, checked as 10, 1-6, then
    the unsound-regime codes 7-9.
    """
    reason = np.zeros(len(t["a1"]), dtype=np.int8)

    def mark(mask, code):
        reason[mask & (reason == 0)] = code

    # First, so that no other code lands on a degenerate draw.
    mark(~np.logical_and.reduce([np.isfinite(val) for val in t.values()]), 10)

    a1, a2, a3 = t["a1"], t["a2"], t["a3"]
    gqs_y, gqu_y = t["gqs_y"], t["gqu_y"]
    with np.errstate(invalid="ignore"):
        mark(a1 > t["b1"] + _TOL, 1)
        r = 0.0
        for code, a, b in ((2, a2, t["b2"]), (3, a3, t["b3"])):
            r = np.maximum(r, np.where(a > _TOL, a / np.maximum(b, _TINY), 0.0))
            mark((a > _TOL) & (b <= _TOL), code)

        rows = []  # (code, δ, entropy, base, g, k, g_k, sound regime) of each enabled target
        if targets.delta_s != DISABLED:
            rows.append((4, targets.delta_s, src.h_s, np.maximum(src.h_s - a2, 0.0),
                         np.maximum(gqs_y - t["gqs_z"], 0.0), a3, gqu_y, a2 <= src.h_s + _TOL))
        if targets.delta_u != DISABLED:
            rows.append((5, targets.delta_u, src.h_u, np.maximum(src.h_u - a3, 0.0),
                         np.maximum(gqu_y - t["gqu_z"], 0.0), 0.0, 0.0,
                         (a1 <= _TOL) & (a3 <= src.h_u + _TOL)))
        if targets.delta_su != DISABLED:
            leak = gqs_y + gqu_y - t["gj_z"]
            rows.append((6, targets.delta_su, src.h_su, np.maximum(src.h_su - a2 - a3, 0.0),
                         np.maximum(leak, 0.0), 0.0, 0.0,
                         (a2 + a3 <= src.h_su + _TOL) & (leak >= -_TOL)))

        for code, delta, entropy, base, g, k, g_k, _ in rows:
            knee = np.where(g_k > _TINY, k / np.maximum(g_k, _TINY), np.inf)
            slope = g + g_k
            need = delta - (base - k)
            # Only draws with need > 0 use the two quotients; elsewhere they
            # are skipped, which also spares a very negative target an overflow.
            pos = need > 0.0
            before = np.divide(need, np.maximum(slope, _TINY), out=np.zeros(need.shape),
                               where=pos)
            on_first = pos & (before <= knee) & (slope > 0.0)
            beyond = pos & ~on_first
            after = knee + np.divide(delta - (base + knee * g), np.maximum(g, _TINY),
                                     out=np.zeros(need.shape), where=pos)
            reached = beyond & (g > 0.0) & np.isfinite(knee)
            r = np.maximum(r, np.where(reached, after, np.where(on_first, before, 0.0)))
            mark(beyond & ~reached, code)
            if delta > entropy:
                mark(True, code)

    for code, *_, sound in rows:
        mark(~sound, code + 3)
    accepted = reason == 0
    return np.where(accepted, np.maximum(r, 0.0), np.nan), accepted, reason


def draw_inner_samples(
    src: SemanticSourceGaussian,
    ch: WiretapChannelGaussian,
    targets: EquivocationTargets,
    case: int,
    n_samples: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """Vectorized Monte-Carlo sweep of the inner bound.

    Returns per-sample arrays: achieved distortions ``d_s``/``d_u``, minimal
    ratios ``r`` (NaN where discarded), an ``accepted`` mask, and the
    ``reason`` codes (see :data:`REASON_NAMES`). Sampling is chunked with
    per-chunk substreams spawned from the master seed, so the first k
    samples are identical for every ``n_samples >= k`` (fixed-seed prefix
    stability). This is the one inner-bound evaluator; ``n_samples=1``
    evaluates a single draw.
    """
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case}")
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    if targets.R_k != 0.0:
        raise DomainError("the inner bound is evaluated for zero key rate only")
    n_chunks = (n_samples + _CHUNK - 1) // _CHUNK
    children = SeedSequence(seed).spawn(n_chunks)
    out = {key: [] for key in ("d_s", "d_u", "r", "accepted", "reason")}
    for ci in range(n_chunks):
        rng = default_rng(children[ci])
        g = _sample_sigma1_batch(src, case, _CHUNK, rng)
        sig2, nu2 = _sample_sigma2_batch(ch, _CHUNK, rng)
        take = min(_CHUNK, n_samples - ci * _CHUNK)
        t = _inner_terms(g[..., :take], sig2[:take], nu2[:take], ch, case)
        r, accepted, reason = _accept_draws(t, targets, src)
        out["d_s"].append(t["d_s"])
        out["d_u"].append(t["d_u"])
        out["r"].append(r)
        out["accepted"].append(accepted)
        out["reason"].append(reason)
    return {key: np.concatenate(vals) for key, vals in out.items()}


def inner_bound_scan(
    src: SemanticSourceGaussian,
    ch: WiretapChannelGaussian,
    targets: EquivocationTargets,
    case: int,
    n_samples: int,
    seed: int,
    grid: int | tuple[int, int] = 40,
) -> RegionSurface:
    """Monte-Carlo inner-bound surface: per-bucket minimum feasible r.

    Draws ``n_samples`` auxiliary structures, evaluates the minimal ratio
    for each accepted draw, and keeps the minimum per (D_s, D_u) bucket.
    Buckets without accepted samples are reported as no-data (never
    interpolated). Deterministic for a fixed seed, with a stable prefix
    under sample-count growth. ``grid`` is a bucket count for both axes or
    a (D_s, D_u) pair of counts; the buckets split the source's
    ``distortion_range``, [0, P_s] and [0, P_u], evenly.
    """
    n_bs, n_bu = (grid, grid) if isinstance(grid, int) else grid
    if min(n_bs, n_bu) < 1:
        raise DomainError(f"the scan needs at least one bucket per axis, got {grid}")
    hi_s, hi_u = src.distortion_range
    edges_s = np.linspace(0.0, hi_s, n_bs + 1)
    edges_u = np.linspace(0.0, hi_u, n_bu + 1)
    samples = draw_inner_samples(src, ch, targets, case, n_samples, seed)
    acc = samples["accepted"]
    r_grid = np.full((n_bs, n_bu), np.inf)
    counts = np.zeros((n_bs, n_bu), dtype=int)
    bi = np.clip(np.digitize(samples["d_s"][acc], edges_s) - 1, 0, n_bs - 1)
    bj = np.clip(np.digitize(samples["d_u"][acc], edges_u) - 1, 0, n_bu - 1)
    np.minimum.at(r_grid, (bi, bj), samples["r"][acc])
    np.add.at(counts, (bi, bj), 1)
    reason_counts = {
        REASON_NAMES[int(code)]: int(cnt)
        for code, cnt in zip(*np.unique(samples["reason"], return_counts=True))
    }
    meta = {"accepted": int(acc.sum()), "discard_reasons": reason_counts}
    has_data = counts > 0
    return RegionSurface(
        axes={
            "D_s": 0.5 * (edges_s[:-1] + edges_s[1:]),
            "D_u": 0.5 * (edges_u[:-1] + edges_u[1:]),
        },
        values=np.where(has_data, r_grid, np.nan),
        feasible=has_data,
        samples=counts,
        metadata=meta,
    )
