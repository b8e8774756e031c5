"""Discrete information-theoretic kernels.

Conventions used throughout the package:

* all logarithms are base 2 and all information quantities are in bits;
* ``0 * log 0 == 0``;
* mutual informations that evaluate in ``[-1e-9, 0)`` due to round-off are
  clamped to 0, while values below ``-1e-9`` raise :class:`ConsistencyError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConsistencyError, DomainError

__all__ = [
    "LN2",
    "TWO_PI_E",
    "Pmf",
    "binary_entropy",
    "star",
    "entropy",
    "mutual_information",
    "appendix_inequality_slack",
]

LN2 = math.log(2.0)
TWO_PI_E = 2.0 * math.pi * math.e

#: Negative round-off on information quantities tolerated before raising.
_MI_CLAMP_FLOOR = -1e-9


def _entr(x: float) -> float:
    """-x ln x for one float in [0, 1] (0 at 0), or NaN, with libm's ``log``."""
    if x > 0.0:
        return -x * math.log(x)
    return 0.0 if x == 0.0 else math.nan


def _entr_array(arr: np.ndarray) -> np.ndarray:
    """:func:`_entr` of every element, so arrays get the same bits as floats."""
    return np.fromiter(map(_entr, arr.ravel().tolist()), float, arr.size).reshape(arr.shape)


def binary_entropy(p):
    """Binary entropy H_b(p) in bits, with 0*log(0) = 0.

    Accepts scalars or numpy arrays; raises :class:`DomainError` outside
    [0, 1]. A float takes a ``math`` path that gives the same bits as the
    array path (both use the C library's ``log``, element by element) in a
    fraction of its time.
    """
    if isinstance(p, float):
        if p < 0.0 or p > 1.0:
            raise DomainError(f"binary_entropy argument outside [0, 1]: {p!r}")
        return (_entr(p) + _entr(1.0 - p)) / LN2
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"binary_entropy argument outside [0, 1]: {p!r}")
    out = (_entr_array(arr) + _entr_array(1.0 - arr)) / LN2
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

    ``probs`` is an array with one axis per variable. Entries must be
    nonnegative and sum to 1 within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("probabilities must be nonnegative")
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-12:  # a NaN total fails too
            raise DomainError(f"probabilities must sum to 1 within 1e-12, got {total!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

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
    return float(_entr_array(arr).sum() / LN2)


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
