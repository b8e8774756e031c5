"""Dense Gram-Schmidt oracle for the inner scan's source-side pass.

The reference for the source-side log-dets and pivots: modified
Gram-Schmidt over all six dims of every row, on draw-major factors
(draw, coordinate, factor dim). ``semsec.gaussian._prefix_logdets``, which
takes coordinate-major factors (coordinate, factor dim, draw) and carries
each row and residual on a leading slice of the factor dims, dropping the
trailing dims that are zero for every draw, is checked against it bit for
bit, NaN pivots included.
"""

from __future__ import annotations

import numpy as np


def _prefix_logdets(g: np.ndarray, chains):
    """Source-side log-dets and pivots from the factor rows, batched.

    Σ1 = g gᵀ is the Gram matrix of the rows of ``g`` (n, 6, 6). One
    modified Gram-Schmidt pass per chain (Björck, BIT 7, 1967), with the
    draws along the last, contiguous axis: the j-th pivot is the squared norm
    of row j's residual after the j - 1 rows before it, which is the
    variance of coordinate j given them. The log2 det of a prefix is the
    running sum of the log2 pivots. A pivot is a sum of squares, so it is
    never negative, at any scale of the inputs; a zero (or NaN) pivot makes
    that prefix and every longer one -inf. Chains that share a prefix share
    its work. Returns ({index set: (n,) log-dets}, {prefix: (n,) pivot of
    its last coordinate}).
    """
    rows = np.ascontiguousarray(g.transpose(1, 2, 0))  # (coordinate, factor dim, n)
    basis = {(): ([], 0.0)}  # prefix -> (its unit residual rows, its log-det)
    ld, piv = {}, {}
    for chain in chains:
        for j in range(1, len(chain) + 1):
            prefix = tuple(chain[:j])
            if prefix in basis:
                continue
            units, ld_prev = basis[prefix[:-1]]
            v = rows[prefix[-1]]
            for q in units:
                v = v - np.einsum("ij,ij->j", q, v) * q
            p = np.einsum("ij,ij->j", v, v)
            ld_cur = np.where((p > 0.0) & (ld_prev > -np.inf), ld_prev + np.log2(p), -np.inf)
            basis[prefix] = (units + [v / np.sqrt(p)], ld_cur)
            ld[frozenset(prefix)] = ld_cur
            piv[prefix] = p
    return ld, piv
