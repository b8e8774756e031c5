"""Output checks: each parses one CLI artifact and says what is wrong with it.

Every check returns a ``Check``: the problems found (empty when the
artifact is correct), the number of covered cells, and the per-cell ratios
behind the ``ratio_median`` metric. CSV columns are read by header name,
so a declared format change that reorders or drops unrelated columns does
not break a check.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

MARKER = re.compile(r"# semsec-artifact v\d+")
HASH_LINE = re.compile(r"# config-hash=[0-9a-f]{16} seed=(\d+)")
NON_FINITE = re.compile(r"nan|inf", re.IGNORECASE)

#: Inner buckets may undercut the converse at their upper corner by this much.
INNER_TOL = 1e-6
#: Inner buckets enter the ratio only with at least this many accepted draws;
#: sparsely hit buckets make the pooled median swing by +-8% between seeds.
RATIO_MIN_DRAWS = 10
#: Criterion-2a tolerance for the numeric binary case-2 joint RDF.
SOLVER_TOL = 5e-3
#: Recomputed closed-form values must match the CSV to this much, beyond
#: the rounding of its 12 significant digits.
CLOSED_TOL = 1e-12


@dataclass
class Check:
    problems: list[str] = field(default_factory=list)
    covered: int = 0
    ratios: list[float] = field(default_factory=list)


def parse_csv(text: str, check: Check, seed: int | None = None) -> list[dict[str, str]]:
    """Rows of a semsec CSV artifact as dicts keyed by header name."""
    lines = text.splitlines()
    if len(lines) < 3:
        check.problems.append("artifact shorter than its three header lines")
        return []
    if not MARKER.fullmatch(lines[0]):
        check.problems.append(f"bad marker line {lines[0]!r}")
    m = HASH_LINE.fullmatch(lines[1])
    if not m:
        check.problems.append(f"bad hash line {lines[1]!r}")
    elif seed is not None and int(m.group(1)) != seed:
        check.problems.append(f"hash line names seed {m.group(1)}, expected {seed}")
    body = lines[2:]
    if any(NON_FINITE.search(line) for line in body):
        check.problems.append("NaN or infinity in the artifact")
    columns = body[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in body[1:]]
    if any(len(line.split(",")) != len(columns) for line in body[1:]):
        check.problems.append("row with the wrong number of fields")
    return rows


def _value(row: dict[str, str], key: str) -> float | None:
    text = row.get(key, "")
    return float(text) if text else None


def _h(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _grid_index(grid: np.ndarray, value: float) -> int | None:
    i = int(np.argmin(np.abs(grid - value)))
    return i if abs(grid[i] - value) <= 1e-11 * abs(grid[i]) else None


def _matches(reported: float, expected: float) -> bool:
    # %.12g keeps 12 significant digits: allow half a unit in the last one.
    digits = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 11) if expected else 0.0
    return abs(reported - expected) <= CLOSED_TOL * max(1.0, abs(expected)) + digits


def check_inner(text: str, preset: str, case: int, seed: int) -> Check:
    """Inner-scan artifact: well formed, and no bucket beats the converse.

    ``r_min`` is nonincreasing in both distortions, so a bucket's best draw
    must lie above the converse at the bucket's upper corner. The ratio is
    the bucket value over the converse at the bucket centre, for buckets
    holding at least ``RATIO_MIN_DRAWS`` accepted draws.
    """
    from semsec.config import build_channel, build_source, get_preset
    from semsec.gaussian import converse_min_r

    check = Check()
    rows = parse_csv(text, check, seed)
    cfg = get_preset(preset)
    src, ch, targets = build_source(cfg), build_channel(cfg), cfg.targets()
    n_s, n_u = cfg.d_s_grid, cfg.d_u_grid
    if len(rows) != n_s * n_u:
        check.problems.append(f"{len(rows)} rows, expected {n_s * n_u} buckets")
    w_s, w_u = src.P_s / n_s, src.P_u / n_u
    worst = math.inf
    for row in rows:
        if row.get("feasible") != "1":
            continue
        check.covered += 1
        value = _value(row, "r_min")
        d_s, d_u = float(row["D_s"]), float(row["D_u"])
        hi_s = (round(d_s / w_s - 0.5) + 1) * w_s
        hi_u = (round(d_u / w_u - 0.5) + 1) * w_u
        corner = converse_min_r(src, ch, hi_s, hi_u, targets, case=case)
        if value is None or not corner.feasible:
            check.problems.append(f"bucket ({d_s}, {d_u}) has no value or an infeasible converse")
            continue
        worst = min(worst, value - corner.r_min)
        if int(row["samples"]) < RATIO_MIN_DRAWS:
            continue
        centre = converse_min_r(src, ch, d_s, d_u, targets, case=case)
        if centre.feasible and centre.r_min > 0.0:
            check.ratios.append(value / centre.r_min)
    if worst < -INNER_TOL:
        check.problems.append(f"a bucket lies {-worst:.3g} below the converse")
    if check.covered == 0:
        check.problems.append("no covered bucket")
    return check


def check_solver(text: str, cells: list[tuple[float, float]], alpha: float, eps1: float) -> Check:
    """Binary case-2 joint RDF cells against the bounds that hold for any DSBS.

    With every target disabled, ``r_min * C`` is the joint RDF R(D_s, D_u):
    at least each marginal 1 - h(D), at most their sum, and equal to the
    Shannon lower bound 1 + h(alpha) - h(D_s) - h(D_u) where D_s * D_u <= alpha.
    The ratio is R over its larger marginal bound.
    """
    check = Check()
    rows = parse_csv(text, check)
    cap = 1.0 - _h(eps1)
    seen = set()
    for row in rows:
        d_s, d_u = float(row["D_s"]), float(row["D_u"])
        seen.add((d_s, d_u))
        value = _value(row, "r_min")
        if row.get("feasible") != "1" or value is None:
            check.problems.append(f"cell ({d_s}, {d_u}) infeasible")
            continue
        check.covered += 1
        rate = value * cap
        lo_s, lo_u = 1.0 - _h(d_s), 1.0 - _h(d_u)
        if rate < max(lo_s, lo_u) - SOLVER_TOL or rate > lo_s + lo_u + SOLVER_TOL:
            check.problems.append(f"cell ({d_s}, {d_u}): R={rate:.6g} outside its marginal bounds")
        if d_s * (1 - d_u) + (1 - d_s) * d_u <= alpha:
            slb = 1.0 + _h(alpha) - _h(d_s) - _h(d_u)
            if abs(rate - slb) > SOLVER_TOL:
                check.problems.append(f"cell ({d_s}, {d_u}): R={rate:.6g} != closed form {slb:.6g}")
        check.ratios.append(rate / max(lo_s, lo_u))
    if seen != set(cells):
        check.problems.append(f"cells {sorted(seen)} differ from the requested {sorted(cells)}")
    return check


def check_surface(text: str, config_path: str, frozen: dict, rng: np.random.Generator,
                  sample: int) -> Check:
    """Closed-form converse surface: frozen cells, then a live recomputation.

    ``frozen`` holds the grid and a stride sample of cells as computed on a
    trusted commit (see ``freeze.py``); every one must be in the artifact
    with the same feasibility flag and ``r_min``. The live check recomputes
    every ``len(rows) // sample``-th row plus ``sample`` rows drawn from
    ``rng``: Gaussian cells with ``converse_min_r`` and binary cells with
    ``binary_min_r``, at the grid the config resolves to. The ratio
    (Gaussian only, stride rows only, so it does not depend on the seed) is
    ``r_min`` over the rate bound ``R_joint / C``: what the secrecy targets
    cost beyond plain transmission.
    """
    from semsec.binary import binary_min_r
    from semsec.config import build_channel, build_source, load_config, resolve_distortion_grid
    from semsec.errors import InfeasibleError
    from semsec.gaussian import converse_min_r, gaussian_rdf_joint

    check = Check()
    rows = parse_csv(text, check)
    cfg = load_config(config_path)
    src, ch, targets = build_source(cfg), build_channel(cfg), cfg.targets()
    gaussian = cfg.model == "gaussian"
    hi_s, hi_u = (src.P_s, src.P_u) if gaussian else (0.5, 0.5)
    grid_s = resolve_distortion_grid(cfg.d_s_grid, hi_s)
    grid_u = resolve_distortion_grid(cfg.d_u_grid, hi_u)
    expected_rows = len(cfg.cases) * len(grid_s) * len(grid_u)
    if len(rows) != expected_rows:
        check.problems.append(f"{len(rows)} rows, expected {expected_rows}")
    check.covered = sum(row.get("feasible") == "1" for row in rows)
    _check_frozen_cells(rows, frozen, check)
    min_r = converse_min_r if gaussian else binary_min_r
    stride = max(1, len(rows) // sample)
    picks = set(range(0, len(rows), stride))
    picks.update(rng.choice(len(rows), size=min(sample, len(rows)), replace=False).tolist())
    for k in sorted(picks):
        row = rows[k]
        case = int(row["case"])
        i = _grid_index(grid_s, float(row["D_s"]))
        j = _grid_index(grid_u, float(row["D_u"]))
        if i is None or j is None:
            check.problems.append(f"row {k}: ({row['D_s']}, {row['D_u']}) is not a grid point")
            continue
        res = min_r(src, ch, float(grid_s[i]), float(grid_u[j]), targets, case=case)
        value = _value(row, "r_min")
        if (row.get("feasible") == "1") != res.feasible:
            check.problems.append(f"row {k}: feasible flag differs from a recomputation")
        elif res.feasible and (value is None or not _matches(value, res.r_min)):
            check.problems.append(f"row {k}: r_min {value} != recomputed {res.r_min!r}")
        elif res.feasible and gaussian and k % stride == 0:
            try:
                r_j = gaussian_rdf_joint(src, float(grid_s[i]), float(grid_u[j]), case)
            except InfeasibleError:
                continue
            if r_j > 0.0:
                check.ratios.append(res.r_min * ch.capacity_main / r_j)
    return check


def _check_frozen_cells(rows: list[dict[str, str]], frozen: dict, check: Check) -> None:
    grid_s, grid_u = np.asarray(frozen["grid_s"]), np.asarray(frozen["grid_u"])
    by_cell = {}
    for row in rows:
        i = _grid_index(grid_s, float(row["D_s"]))
        j = _grid_index(grid_u, float(row["D_u"]))
        if i is not None and j is not None:
            by_cell[(int(row["case"]), i, j)] = row
    for case, i, j, feasible, r_min in frozen["cells"]:
        row = by_cell.get((case, i, j))
        where = f"cell (case {case}, {float(grid_s[i])!r}, {float(grid_u[j])!r})"
        if row is None:
            check.problems.append(f"{where} is missing")
            continue
        value = _value(row, "r_min")
        if (row.get("feasible") == "1") != feasible:
            check.problems.append(f"{where}: feasible flag differs from the frozen reference")
        elif feasible and (value is None or not _matches(value, r_min)):
            check.problems.append(f"{where}: r_min {value} != frozen {r_min!r}")


def curve_grid(src, case: int, n: int) -> np.ndarray:
    """The D_s grid the CLI documents for an integer ``d_s_grid``: evenly
    spaced from just above the case's distortion floor to 1/2."""
    lo = src.alpha + 1e-4 if case == 1 else 1e-4
    return np.linspace(lo, 0.5, n)


def check_curve(text: str, preset: str, case: int, r_k: float, frozen: list) -> Check:
    """Tradeoff-curve artifact: every point against the frozen reference
    (``[D_s, delta_s_max, capped]`` per point, see ``freeze.py``) and
    against a live ``delta_s_curve``."""
    from semsec.binary import delta_s_curve
    from semsec.config import build_channel, build_source, get_preset

    check = Check()
    rows = parse_csv(text, check)
    cfg = get_preset(preset)
    src, ch = build_source(cfg), build_channel(cfg)
    grid = curve_grid(src, case, cfg.d_s_grid)
    curve = delta_s_curve(src, ch, r=cfg.r, R_k=r_k, case=case, d_s_grid=grid)
    live = list(zip(grid.tolist(), curve.delta_s_max.tolist(), map(bool, curve.capped)))
    for source, points in (("frozen", frozen), ("recomputed", live)):
        if len(rows) != len(points):
            check.problems.append(f"{len(rows)} curve points, {len(points)} {source}")
        for row, (d_s, value, capped) in zip(rows, points):
            if not _matches(float(row["D_s"]), d_s):
                check.problems.append(f"curve point D_s={row['D_s']} is not {source} {d_s!r}")
            elif not _matches(float(row["delta_s_max"]), value):
                check.problems.append(f"D_s={row['D_s']}: {row['delta_s_max']} != {source} {value!r}")
            elif (row.get("capped") == "1") != capped:
                check.problems.append(f"D_s={row['D_s']}: capped flag differs from {source}")
    check.covered = len(rows)
    return check
