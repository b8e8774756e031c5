"""Scalar and matrix information-theoretic kernels.

Conventions used throughout the package:

* all logarithms are base 2 and all information quantities are in bits;
* ``0 * log 0 == 0``;
* mutual informations that evaluate in ``[-1e-9, 0)`` due to round-off are
  clamped to 0, while values below ``-1e-9`` raise :class:`ConsistencyError`;
* positive semidefiniteness means the minimum eigenvalue of the symmetrized
  matrix is at least ``-1e-9``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.special import entr

from .errors import (
    ConsistencyError,
    DomainError,
    NotPsdError,
    SingularBlockError,
)

__all__ = [
    "LN2",
    "TWO_PI_E",
    "Pmf",
    "CovMatrix",
    "binary_entropy",
    "star",
    "entropy",
    "mutual_information",
    "schur_conditional",
    "gaussian_entropy",
    "gaussian_mi",
    "appendix_inequality_slack",
]

LN2 = math.log(2.0)
TWO_PI_E = 2.0 * math.pi * math.e

#: Negative round-off on information quantities tolerated before raising.
_MI_CLAMP_FLOOR = -1e-9
#: Eigenvalue floor for the positive-semidefiniteness test.
_PSD_EIG_FLOOR = -1e-9
#: Condition-number threshold beyond which conditioning blocks get a ridge.
_RIDGE_COND = 1e12
_RIDGE = 1e-12


def _entr(x: float) -> float:
    """``scipy.special.entr`` for one float in [0, 1] or NaN."""
    if x > 0.0:
        return -x * math.log(x)
    return 0.0 if x == 0.0 else math.nan


def binary_entropy(p):
    """Binary entropy H_b(p) in bits, with 0*log(0) = 0.

    Accepts scalars or numpy arrays; raises :class:`DomainError` outside
    [0, 1]. A float takes a ``math`` path that gives the same bits as the
    array path (both use the C library's ``log``) in a fraction of its time.
    """
    if isinstance(p, float):
        if p < 0.0 or p > 1.0:
            raise DomainError(f"binary_entropy argument outside [0, 1]: {p!r}")
        return (_entr(p) + _entr(1.0 - p)) / LN2
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"binary_entropy argument outside [0, 1]: {p!r}")
    out = (entr(arr) + entr(1.0 - arr)) / LN2
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


def star(a, b):
    """Binary convolution ``a * b = a(1-b) + (1-a)b``.

    Commutative; 0 is the identity and 0.5 is absorbing (returned exactly).
    Two floats take a plain-arithmetic path with the array path's bits.
    """
    if isinstance(a, float) and isinstance(b, float):
        if a < 0.0 or a > 1.0 or b < 0.0 or b > 1.0:
            raise DomainError(f"star arguments outside [0, 1]: ({a!r}, {b!r})")
        if a == 0.5 or b == 0.5:
            return 0.5
        return a * (1.0 - b) + (1.0 - a) * b
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr < 0.0) or np.any(a_arr > 1.0) or np.any(b_arr < 0.0) or np.any(b_arr > 1.0):
        raise DomainError(f"star arguments outside [0, 1]: ({a!r}, {b!r})")
    out = a_arr * (1.0 - b_arr) + (1.0 - a_arr) * b_arr
    # Keep the absorbing element exact despite floating-point rounding.
    out = np.where((a_arr == 0.5) | (b_arr == 0.5), 0.5, out)
    if (np.isscalar(a) or a_arr.ndim == 0) and (np.isscalar(b) or b_arr.ndim == 0):
        return float(out)
    return out


@dataclass(frozen=True)
class Pmf:
    """A discrete joint probability mass function over one or more axes.

    ``probs`` may be given as a flat vector plus ``shape`` or as an already
    shaped array. Entries must be nonnegative and sum to 1 within 1e-12.
    """

    probs: np.ndarray
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        shape = tuple(self.shape) if self.shape is not None else arr.shape
        if int(np.prod(shape)) != arr.size:
            raise DomainError(
                f"shape product {np.prod(shape)} does not match storage length {arr.size}"
            )
        arr = arr.reshape(shape)
        if np.any(arr < 0.0):
            raise DomainError("probabilities must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "shape", shape)

    @property
    def n_axes(self) -> int:
        return self.probs.ndim

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        """Marginal array over ``axes`` (in the given order)."""
        axes = _check_axes(self, axes)
        drop = tuple(i for i in range(self.n_axes) if i not in axes)
        marg = self.probs.sum(axis=drop) if drop else self.probs
        # ``sum`` preserves the relative order of kept axes; permute to match
        # the requested order.
        kept = [i for i in range(self.n_axes) if i in axes]
        perm = [kept.index(a) for a in axes]
        return np.transpose(marg, perm)


def _check_axes(p: Pmf, axes: Sequence[int]) -> tuple[int, ...]:
    axes = tuple(int(a) for a in axes)
    if len(set(axes)) != len(axes):
        raise DomainError(f"duplicate axes: {axes}")
    for a in axes:
        if not 0 <= a < p.n_axes:
            raise DomainError(f"axis {a} invalid for {p.n_axes}-axis pmf")
    return axes


def _entropy_of_array(arr: np.ndarray) -> float:
    return float(entr(arr).sum() / LN2)


def entropy(p: Pmf, axes: Sequence[int] | None = None) -> float:
    """Shannon entropy in bits of the marginal of ``p`` over ``axes``.

    ``axes=None`` means the full joint.
    """
    if axes is None:
        return _entropy_of_array(p.probs)
    axes = _check_axes(p, axes)
    if not axes:
        return 0.0
    return _entropy_of_array(p.marginal(axes))


def mutual_information(
    p: Pmf,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
    axes_cond: Sequence[int] = (),
) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    Computed as H(A,C) + H(B,C) - H(C) - H(A,B,C). The three axis sets must
    be pairwise disjoint.
    """
    a = _check_axes(p, axes_a)
    b = _check_axes(p, axes_b)
    c = _check_axes(p, axes_cond)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise DomainError(f"axis sets must be disjoint: {a}, {b}, {c}")
    h_ac = entropy(p, a + c)
    h_bc = entropy(p, b + c)
    h_c = entropy(p, c) if c else 0.0
    h_abc = entropy(p, a + b + c)
    return _clamp_information(h_ac + h_bc - h_c - h_abc, "mutual_information")


def _clamp_information(value: float, what: str) -> float:
    if value < _MI_CLAMP_FLOOR:
        raise ConsistencyError(f"{what} evaluated to {value}, below {_MI_CLAMP_FLOOR}")
    return max(value, 0.0)


@dataclass(frozen=True)
class CovMatrix:
    """A symmetric positive-semidefinite matrix with named coordinates.

    Symmetry is required within 1e-10 (the stored matrix is symmetrized);
    the minimum eigenvalue of the symmetrized matrix must be >= -1e-9.
    """

    entries: np.ndarray
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"covariance must be square, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("covariance entries must be finite")
        asym = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        if asym > 1e-10:
            raise DomainError(f"matrix asymmetry {asym} exceeds 1e-10")
        arr = 0.5 * (arr + arr.T)
        min_eig = float(np.linalg.eigvalsh(arr).min()) if arr.size else 0.0
        if min_eig < _PSD_EIG_FLOOR:
            raise NotPsdError(f"minimum eigenvalue {min_eig} below {_PSD_EIG_FLOOR}")
        labels = tuple(self.labels) if self.labels else tuple(
            f"x{i}" for i in range(arr.shape[0])
        )
        if len(labels) != arr.shape[0]:
            raise DomainError(
                f"{len(labels)} labels for dimension {arr.shape[0]}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def index(self, names: Iterable[str] | Iterable[int]) -> tuple[int, ...]:
        """Resolve labels (or pass through integer indices) to positions."""
        out = []
        for name in names:
            if isinstance(name, str):
                try:
                    out.append(self.labels.index(name))
                except ValueError:
                    raise DomainError(
                        f"unknown coordinate {name!r}; have {self.labels}"
                    ) from None
            else:
                i = int(name)
                if not 0 <= i < self.dim:
                    raise DomainError(f"index {i} out of range for dim {self.dim}")
                out.append(i)
        return tuple(out)

    def block(self, rows, cols=None) -> np.ndarray:
        r = self.index(rows)
        c = r if cols is None else self.index(cols)
        return self.entries[np.ix_(r, c)]


def schur_conditional(cov: CovMatrix, target, given) -> CovMatrix:
    """Conditional covariance of ``target`` given ``given``.

    Returns ``S_T - S_TG S_G^{-1} S_GT``. If the conditioning block has
    condition number above 1e12 it is regularized by ``+1e-12 * I``; if it is
    still effectively singular, :class:`SingularBlockError` is raised. An
    empty ``given`` set returns the target block unchanged.
    """
    t = cov.index(target)
    g = cov.index(given)
    if set(t) & set(g):
        raise DomainError("target and given sets must be disjoint")
    s_t = cov.entries[np.ix_(t, t)]
    labels = tuple(cov.labels[i] for i in t)
    if not g:
        return CovMatrix(s_t, labels)
    s_g = cov.entries[np.ix_(g, g)]
    s_tg = cov.entries[np.ix_(t, g)]
    cond = np.linalg.cond(s_g)
    if not np.isfinite(cond) or cond > _RIDGE_COND:
        s_g = s_g + _RIDGE * np.eye(len(g))
        cond = np.linalg.cond(s_g)
        if not np.isfinite(cond) or cond > 1e18:
            raise SingularBlockError(
                f"conditioning block singular (condition number {cond}) after ridge"
            )
    try:
        solved = np.linalg.solve(s_g, s_tg.T)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError(str(exc)) from exc
    result = s_t - s_tg @ solved
    result = 0.5 * (result + result.T)
    # Floor tiny negative round-off so the result stays a valid CovMatrix.
    eigvals, eigvecs = np.linalg.eigh(result)
    if eigvals.min() < _PSD_EIG_FLOOR:
        raise NotPsdError(
            f"conditional covariance has eigenvalue {eigvals.min()} below {_PSD_EIG_FLOOR}"
        )
    if eigvals.min() < 0.0:
        result = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T
        result = 0.5 * (result + result.T)
    return CovMatrix(result, labels)


def _as_cov_array(cov) -> np.ndarray:
    if isinstance(cov, CovMatrix):
        return cov.entries
    arr = np.asarray(cov, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    return arr


def gaussian_entropy(cov) -> float:
    """Differential entropy in bits of a Gaussian with covariance ``cov``.

    ``0.5 * log2((2*pi*e)^d * det)``; may be negative; returns ``-inf`` for a
    singular covariance. Accepts a CovMatrix, ndarray, or scalar variance.
    """
    arr = _as_cov_array(cov)
    if not isinstance(cov, CovMatrix):
        CovMatrix(arr)  # validate symmetry/PSD
    d = arr.shape[0]
    sign, logdet = np.linalg.slogdet(arr)
    if sign <= 0:
        return float("-inf")
    return 0.5 * (d * math.log(TWO_PI_E) + logdet) / LN2


def _logdet_block(arr: np.ndarray, idx: Sequence[int]) -> float:
    if not idx:
        return 0.0
    sub = arr[np.ix_(idx, idx)]
    sign, logdet = np.linalg.slogdet(sub)
    if sign <= 0:
        return float("-inf")
    return logdet / LN2


def gaussian_mi(cov: CovMatrix, axes_a, axes_b, axes_cond=()) -> float:
    """Conditional mutual information I(A; B | C) in bits for a Gaussian.

    Computed from log-determinants of sub-blocks; clamped at 0 from below.
    A singular conditioning or marginal block that makes the expression
    ill-defined raises :class:`SingularBlockError`.
    """
    a = cov.index(axes_a)
    b = cov.index(axes_b)
    c = cov.index(axes_cond)
    if set(a) & set(b) or set(a) & set(c) or set(b) & set(c):
        raise DomainError(f"axis sets must be disjoint: {a}, {b}, {c}")
    arr = cov.entries
    ld_ac = _logdet_block(arr, list(a) + list(c))
    ld_bc = _logdet_block(arr, list(b) + list(c))
    ld_c = _logdet_block(arr, list(c))
    ld_abc = _logdet_block(arr, list(a) + list(b) + list(c))
    terms = (ld_ac, ld_bc, ld_c, ld_abc)
    if any(t == float("-inf") for t in terms):
        raise SingularBlockError(
            "singular block in conditional mutual information "
            f"(log-determinants {terms})"
        )
    return _clamp_information(0.5 * (ld_ac + ld_bc - ld_c - ld_abc), "gaussian_mi")


def appendix_inequality_slack(p: Pmf) -> float:
    """Slack of the five-variable equivocation inequality, in bits.

    For a joint pmf over axes (S, Z, C0, C1, W) with C = (C0, C1), returns

        [H(S|Z) + H(C) + H(W|C) + H(Z|C0) + I(Z; S|C)]
        - [H(S) + H(W|C0) + H(Z|W, C)]

    which is nonnegative for every joint distribution.
    """
    if p.n_axes != 5:
        raise DomainError(f"expected a 5-axis joint, got {p.n_axes} axes")
    S, Z, C0, C1, W = 0, 1, 2, 3, 4
    h = lambda *axes: entropy(p, axes)
    h_s_given_z = h(S, Z) - h(Z)
    h_c = h(C0, C1)
    h_w_given_c = h(W, C0, C1) - h(C0, C1)
    h_z_given_c0 = h(Z, C0) - h(C0)
    i_z_s_given_c = mutual_information(p, (Z,), (S,), (C0, C1))
    rhs = h_s_given_z + h_c + h_w_given_c + h_z_given_c0 + i_z_s_given_c
    h_s = h(S)
    h_w_given_c0 = h(W, C0) - h(C0)
    h_z_given_wc = h(Z, W, C0, C1) - h(W, C0, C1)
    lhs = h_s + h_w_given_c0 + h_z_given_wc
    return rhs - lhs
