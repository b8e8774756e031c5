"""The inner scan as one concatenated sweep, bucketed afterwards.

The reference for ``semsec.gaussian.inner_bound_scan``, which folds each
chunk of draws into its bucket grid as the chunk is drawn and then drops
it. This copy first draws every sample with ``draw_inner_samples``, appends
the scan's two deterministic batches at the bucket centres
(:func:`centre_batch`, at centres laid out by ``np.meshgrid``), then
buckets the accepted draws in one pass and counts the reasons of each part
with ``np.unique``. A minimum, a count and a sum do not depend on how the
draws are split, so the two are checked against each other bit for bit:
``values`` (NaN included), ``feasible``, ``samples`` and ``metadata``.

:func:`secret_layer_batch` is the reference for the secret-layer batch
itself: one ``_inner_terms`` and ``_accept_draws`` call per power split.
"""

from __future__ import annotations

import numpy as np

from semsec.errors import DomainError
from semsec.gaussian import (_SPLITS, REASON_NAMES, _accept_draws, _constructive_draws,
                             _inner_terms, _secret_layer_draws, _source_terms, _verdicts,
                             draw_inner_samples)
from semsec.regions import RegionSurface


def centre_batch(name: str, src, ch, targets, case: int, d_s, d_u):
    """``(d_s, d_u, r, accepted, reason)`` of the scan's deterministic batch
    ``name``, ``"constructive"`` or ``"secret_layer"``, at the cells of the
    1-D arrays ``d_s`` and ``d_u``: the family's draws and channel
    candidates through ``_verdicts``, with unit private noise on every
    zero-power layer, as ``inner_bound_scan`` evaluates them."""
    if name == "constructive":
        source, sig2 = _constructive_draws(src, ch, case, d_s, d_u)
    else:
        source = _source_terms(_secret_layer_draws(src, case, d_s, d_u), case)
        sig2 = ch.P * _SPLITS[None]
    return _verdicts(src, ch, targets, case, source, sig2, (sig2 == 0.0).astype(float))


def secret_layer_batch(src, ch, targets, case: int, d_s, d_u):
    """``(d_s, d_u, r, accepted, reason)`` of the secret-layer draws at the
    cells of the 1-D arrays ``d_s`` and ``d_u``: each power split of the
    lattice evaluated on every draw in turn, then per draw the least r over
    the splits, and the highest reason code over them where none accepts
    it."""
    g = _secret_layer_draws(src, case, d_s, d_u)
    n = g.shape[2]
    rs, reasons = [], []
    for share in _SPLITS:
        sig2 = np.tile(share * ch.P, (n, 1))
        t = _inner_terms(g, sig2, (sig2 == 0.0).astype(float), ch, case)
        r, _, reason = _accept_draws(t, targets, src)
        rs.append(r)
        reasons.append(reason)
    r = np.fmin.reduce(rs)
    reason = np.where(np.isnan(r), np.max(reasons, axis=0), 0).astype(np.int8)
    floor = src.semantic_floor(1) if case == 1 else 0.0
    return np.maximum(t["d_s"], floor), t["d_u"], r, reason == 0, reason


def inner_bound_scan(src, ch, targets, case: int, n_samples: int, seed: int,
                     grid: int | tuple[int, int] = 40) -> RegionSurface:
    """Monte-Carlo inner-bound surface: per-bucket minimum feasible r.

    Draws ``n_samples`` auxiliary structures, and one constructive and one
    secret-layer draw per bucket centre, evaluates the minimal ratio for
    each accepted draw, and keeps the minimum per (D_s, D_u) bucket.
    Buckets without accepted samples are reported as no-data. ``grid`` is a
    bucket count for both axes or a (D_s, D_u) pair of counts; the buckets
    split the source's ``distortion_range`` evenly.
    """
    n_bs, n_bu = (grid, grid) if isinstance(grid, int) else grid
    if min(n_bs, n_bu) < 1:
        raise DomainError(f"the scan needs at least one bucket per axis, got {grid}")
    hi_s, hi_u = src.distortion_range
    edges_s = np.linspace(0.0, hi_s, n_bs + 1)
    edges_u = np.linspace(0.0, hi_u, n_bu + 1)
    centres_s, centres_u = 0.5 * (edges_s[:-1] + edges_s[1:]), 0.5 * (edges_u[:-1] + edges_u[1:])
    samples = draw_inner_samples(src, ch, targets, case, n_samples, seed)
    cell_s, cell_u = np.meshgrid(centres_s, centres_u, indexing="ij")
    keys = ("d_s", "d_u", "r", "accepted", "reason")
    centres = cell_s.ravel(), cell_u.ravel()
    built = dict(zip(keys, centre_batch("constructive", src, ch, targets, case, *centres)))
    secret = dict(zip(keys, centre_batch("secret_layer", src, ch, targets, case, *centres)))
    both = {key: np.concatenate([samples[key], built[key], secret[key]]) for key in samples}
    acc = both["accepted"]
    r_grid = np.full((n_bs, n_bu), np.inf)
    counts = np.zeros((n_bs, n_bu), dtype=int)
    bi = np.clip(np.digitize(both["d_s"][acc], edges_s) - 1, 0, n_bs - 1)
    bj = np.clip(np.digitize(both["d_u"][acc], edges_u) - 1, 0, n_bu - 1)
    np.minimum.at(r_grid, (bi, bj), both["r"][acc])
    np.add.at(counts, (bi, bj), 1)

    def tally(part):
        return {"accepted": int(part["accepted"].sum()),
                "discard_reasons": {
                    REASON_NAMES[int(code)]: int(cnt)
                    for code, cnt in zip(*np.unique(part["reason"], return_counts=True))}}

    meta = {**tally(samples), "constructive": tally(built), "secret_layer": tally(secret)}
    return RegionSurface(
        axes={"D_s": centres_s, "D_u": centres_u},
        values=np.where(counts > 0, r_grid, np.nan),
        samples=counts,
        metadata=meta,
    )
