"""Per-cell CSV oracle for surface artifacts.

The reference for ``semsec.cli._render_surfaces``: every cell is formatted
on its own, with one f-string per row, which is how surface CSVs were
written before the renderer formatted each distinct value once. Both must
write the same bytes.
"""

from __future__ import annotations

from semsec.cli import ARTIFACT_MARKER, SURFACE_COLUMNS
from semsec.config import config_hash


def surface_csv(surfaces, cfg) -> str:
    """The CSV artifact of a {case: RegionSurface} mapping, cell by cell."""
    lines = [ARTIFACT_MARKER, f"# config-hash={config_hash(cfg)} seed={cfg.seed}",
             ",".join(SURFACE_COLUMNS)]
    for case, surface in surfaces.items():
        d_u = [f"{v:.12g}" for v in surface.axes["D_u"].tolist()]
        for d_s, values, feasible, samples in zip(
            [f"{v:.12g}" for v in surface.axes["D_s"].tolist()], surface.values.tolist(),
            surface.feasible.tolist(), surface.samples.tolist(),
        ):
            lines += [
                f"{case},{d_s},{u},{value:.12g},1,{n}" if ok else f"{case},{d_s},{u},,0,{n}"
                for u, value, ok, n in zip(d_u, values, feasible, samples)
            ]
    return "\n".join(lines) + "\n"
