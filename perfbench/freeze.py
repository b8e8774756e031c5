"""Freeze the closed-form values that the ``closed-surfaces`` checks compare against.

Usage, from the repository root, on a commit whose closed-form values are
trusted::

    python3 perfbench/freeze.py

Writes ``perfbench/reference.json``. For each converse surface of
``closed-surfaces`` it holds the resolved grid and every
``len(cells) // SURFACE_SAMPLE``-th cell in (case, D_s, D_u) order as
``[case, i, j, feasible, r_min]``; for each fig-5 curve, every point as
``[D_s, delta_s_max, capped]``. Floats are written at full precision. The
live checks recompute with the very functions the CLI calls, so only this
file catches a change to the closed-form math itself; regenerate it only
for a change that is meant to move the values, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def frozen_surface(cfg) -> dict:
    from semsec.binary import binary_min_r
    from semsec.config import build_channel, build_source, resolve_distortion_grid
    from semsec.gaussian import converse_min_r

    src, ch, targets = build_source(cfg), build_channel(cfg), cfg.targets()
    gaussian = cfg.model == "gaussian"
    min_r = converse_min_r if gaussian else binary_min_r
    hi_s, hi_u = (src.P_s, src.P_u) if gaussian else (0.5, 0.5)
    grid_s = resolve_distortion_grid(cfg.d_s_grid, hi_s).tolist()
    grid_u = resolve_distortion_grid(cfg.d_u_grid, hi_u).tolist()
    cells = [(case, i, j) for case in cfg.cases
             for i in range(len(grid_s)) for j in range(len(grid_u))]
    frozen = []
    for case, i, j in cells[::max(1, len(cells) // run.SURFACE_SAMPLE)]:
        res = min_r(src, ch, grid_s[i], grid_u[j], targets, case=case)
        frozen.append([case, i, j, bool(res.feasible), float(res.r_min) if res.feasible else None])
    return {"grid_s": grid_s, "grid_u": grid_u, "cells": frozen}


def frozen_curve(case: int, r_k: float) -> list:
    from checks import curve_grid
    from semsec.binary import delta_s_curve
    from semsec.config import build_channel, build_source, get_preset

    cfg = get_preset(run.CURVE_PRESET)
    src, ch = build_source(cfg), build_channel(cfg)
    grid = curve_grid(src, case, cfg.d_s_grid)
    curve = delta_s_curve(src, ch, r=cfg.r, R_k=r_k, case=case, d_s_grid=grid)
    return [[float(d), float(v), bool(c)]
            for d, v, c in zip(grid, curve.delta_s_max, curve.capped)]


def main() -> int:
    if not (run.ROOT / "src" / "semsec" / "cli.py").is_file():
        print("error: run from a semsec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    reference = {
        "src_sha256": run.src_sha256(),
        "surfaces": {cfg.name: frozen_surface(cfg) for cfg in run.surface_configs()},
        "curves": {run.curve_file(c, r): frozen_curve(c, r) for c, r in run.curve_variants()},
    }
    run.REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
