"""Command-line interface.

Subcommands
-----------
converse   minimal channel-use ratio over a distortion grid (both models)
inner      Monte-Carlo inner-bound scan (Gaussian model)
curve      binary semantic distortion-equivocation tradeoff curve
rdf        rate-distortion values at a single distortion pair
verify     fast self-check battery (machine-readable report)
preset     list or show the bundled run presets

Exit codes: 0 success, 1 failed verification, 2 validation error, an
output path that cannot be written, or a stdout closed before the output
was written (as by ``| head``), 3 infeasible everywhere.

Artifacts are deterministic byte-for-byte for a fixed config and seed.
CSV files start with two comment lines: an artifact-format marker and the
config hash plus seed. Infeasible cells keep their row with an empty value
column and feasible=0 (never NaN or infinities in CSV output). A surface
CSV is written one block of rows at a time, so it is never held whole as
text; a JSON artifact is written in one piece.

A call imports only the model it runs: a config imports its model's module
when it is built (see :mod:`semsec.config`), and each handler imports the
code that only it needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    build_channel,
    build_source,
    config_hash,
    dump_config,
    get_preset,
    load_config,
    preset_names,
    resolve_distortion_grid,
    _encode,
    _MODE_MODEL,
    _MODES,
)
from .errors import DomainError, ValidationError
from .regions import converse_surface

ARTIFACT_MARKER = "# semsec-artifact v2"
SURFACE_COLUMNS = ("case", "D_s", "D_u", "r_min", "feasible", "samples")
CURVE_COLUMNS = ("D_s", "delta_s_max", "capped")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _csv_head(columns, cfg: RunConfig) -> str:
    """The two comment lines and the header line of a CSV artifact."""
    return "\n".join([ARTIFACT_MARKER, f"# config-hash={config_hash(cfg)} seed={cfg.seed}",
                      ",".join(columns), ""])


def _render(columns, rows, cfg: RunConfig, fmt: str, metadata=None) -> str:
    """A CSV artifact, or with ``fmt == "json"`` a JSON one carrying ``metadata``;
    ``rows`` hold Python scalars (None for an empty cell)."""
    if fmt != "json":
        return _csv_head(columns, cfg) + "".join(
            ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    payload = {
        "artifact": ARTIFACT_MARKER.lstrip("# "),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "columns": list(columns),
        "rows": list(rows),
    }
    if metadata:
        payload["metadata"] = _encode(metadata)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _each_once(array: np.ndarray, text) -> np.ndarray:
    """``text(v)`` for every element of the 1-D ``array`` as an object array,
    called once per distinct bit pattern, so -0.0 and 0.0 keep their own text."""
    keys, where = np.unique(array.view(f"u{array.itemsize}"), return_inverse=True)
    texts = np.array([text(v) for v in keys.view(array.dtype).tolist()], dtype=object)
    return texts[where.reshape(-1)]


#: CSV rows, one per grid cell, in a block. A surface is formatted and
#: written one block at a time, so an artifact is never held whole as text.
_BLOCK_CELLS = 1 << 14


def _csv_blocks(case, surface):
    """The CSV rows of one surface in row-major (D_s, D_u) order, as strings
    of at most ``_BLOCK_CELLS`` rows. Axis points are formatted once per
    surface, and values and sample counts once per distinct value in a block;
    a row joins four pieces: "case,D_s,", "D_u,", "r_min,feasible," and the
    sample count with the row's newline."""
    feasible = surface.feasible.ravel()
    values, samples = surface.values.ravel(), surface.samples.ravel()
    n_u = surface.feasible.shape[1]
    d_s = np.array([f"{case},{v:.12g}," for v in surface.axes["D_s"].tolist()], dtype=object)
    d_u = np.array([f"{v:.12g}," for v in surface.axes["D_u"].tolist()], dtype=object)
    for start in range(0, feasible.size, _BLOCK_CELLS):
        block = slice(start, start + _BLOCK_CELLS)
        ok = feasible[block]
        cells = np.arange(start, start + ok.size)
        pieces = np.empty((ok.size, 4), dtype=object)
        pieces[:, 0] = d_s[cells // n_u]
        pieces[:, 1] = d_u[cells % n_u]
        pieces[~ok, 2] = ",0,"
        pieces[ok, 2] = _each_once(values[block][ok], lambda v: f"{v:.12g},1,")
        pieces[:, 3] = _each_once(samples[block], lambda k: f"{k}\n")
        yield "".join(pieces.ravel().tolist())


def _render_surfaces(surfaces, cfg: RunConfig, fmt: str, metadata=None):
    """One surface artifact from a {case: RegionSurface} mapping, as the
    strings to write in turn, in case and then row-major (D_s, D_u) order; an
    infeasible cell has no value. JSON comes as one string, CSV as its
    header and then blocks of rows."""
    if fmt == "json":
        rows = []
        for case, surface in surfaces.items():
            grid = np.meshgrid(surface.axes["D_s"], surface.axes["D_u"], indexing="ij")
            columns = [a.ravel().tolist() for a in (*grid, surface.values, surface.feasible,
                                                      surface.samples)]
            rows += [(case, d_s, d_u, value if ok else None, ok, k)
                     for d_s, d_u, value, ok, k in zip(*columns)]
        yield _render(SURFACE_COLUMNS, rows, cfg, fmt, metadata)
        return
    yield _csv_head(SURFACE_COLUMNS, cfg)
    for case, surface in surfaces.items():
        yield from _csv_blocks(case, surface)


def _emit(texts, out: Path | None) -> None:
    """Write the strings ``texts`` in turn to ``out``, or to stdout when it is
    None, each as soon as it is made. An output path that cannot be written is
    a validation error."""
    if out is None:
        sys.stdout.writelines(texts)
        return
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as stream:
            stream.writelines(texts)
    except OSError as exc:
        raise ValidationError([f"out: cannot write {out} ({exc.strerror})"]) from exc


def _variant_path(out: Path, case: int, r_k: float) -> Path:
    return out.with_name(f"{out.stem}_case{case}_rk{r_k:g}{out.suffix}")


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _resolve_config(args, subcommand: str) -> RunConfig:
    if args.preset and args.config:
        raise ValidationError(["--preset and --config are mutually exclusive"])
    if args.preset:
        cfg = get_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        cfg = RunConfig(mode=subcommand if subcommand in _MODES else RunConfig.mode,
                        model=_MODE_MODEL.get(subcommand, RunConfig.model))
    if subcommand in _MODES and cfg.mode != subcommand:  # only a preset or a file
        raise ValidationError([
            f"config is a {cfg.mode!r} run but the {subcommand!r} subcommand "
            "was invoked"
        ])
    given = {
        "model": args.model,
        "cases": (args.case,) if args.case else None,
        "seed": args.seed,
        "samples": getattr(args, "samples", None),  # inner only
    }
    # A config is validated as it is built: rebuild it only for a new value.
    overrides = {key: val for key, val in given.items()
                 if val is not None and val != getattr(cfg, key)}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_converse(args) -> int:
    cfg = _resolve_config(args, "converse")
    src = build_source(cfg)
    ch = build_channel(cfg)
    hi_s, hi_u = src.distortion_range
    d_s_grid = resolve_distortion_grid(cfg.d_s_grid, hi_s)
    d_u_grid = resolve_distortion_grid(cfg.d_u_grid, hi_u)
    targets = cfg.targets()
    surfaces = {
        case: converse_surface(src, ch, targets, case, d_s_grid, d_u_grid)
        for case in cfg.cases
    }
    _emit(_render_surfaces(surfaces, cfg, args.format), args.out)
    if not any(surface.feasible.any() for surface in surfaces.values()):
        print("no feasible cell on the requested grid", file=sys.stderr)
        return 3
    return 0


def _cmd_inner(args) -> int:
    from .gaussian import inner_bound_scan

    cfg = _resolve_config(args, "inner")
    src = build_source(cfg)
    ch = build_channel(cfg)
    counts = (cfg.d_s_grid, cfg.d_u_grid)
    targets = cfg.targets()
    surfaces = {
        case: inner_bound_scan(src, ch, targets, case, cfg.samples, cfg.seed, grid=counts)
        for case in cfg.cases
    }
    metadata = {f"case{case}": surface.metadata for case, surface in surfaces.items()}
    _emit(_render_surfaces(surfaces, cfg, args.format, metadata), args.out)
    if not any(surface.metadata["accepted"] for surface in surfaces.values()):
        print("no draw satisfied the requested targets", file=sys.stderr)
        return 3
    return 0


def _cmd_curve(args) -> int:
    from .binary import delta_s_curve

    cfg = _resolve_config(args, "curve")
    src = build_source(cfg)
    ch = build_channel(cfg)
    variants = [(case, r_k) for case in cfg.cases for r_k in cfg.key_rates()]
    multi = len(variants) > 1
    grid = cfg.d_s_grid
    if not isinstance(grid, int):  # delta_s_curve spreads a count over each case's range
        grid = resolve_distortion_grid(grid, src.distortion_range[0])
    for case, r_k in variants:
        curve = delta_s_curve(src, ch, r=cfg.r, R_k=r_k, case=case, d_s_grid=grid)
        rows = zip(curve.d_s.tolist(), curve.delta_s_max.tolist(), curve.capped.tolist())
        text = _render(CURVE_COLUMNS, rows, cfg, args.format)
        if args.out is None:
            if multi:
                sys.stdout.write(f"# variant case={case} R_k={r_k:g}\n")
            sys.stdout.write(text)
        else:
            path = _variant_path(args.out, case, r_k) if multi else args.out
            _emit([text], path)
    return 0


def _cmd_rdf(args) -> int:
    cfg = _resolve_config(args, "rdf")
    src = build_source(cfg)
    d_s, d_u = args.d_s, args.d_u
    if d_s is None or d_u is None:
        raise ValidationError(["rdf needs both --d-s and --d-u"])
    columns = ("case", "D_s", "D_u", "feasible", "R_s", "R_u", "R_joint")
    rows = []
    for case in cfg.cases:
        r_j, ((_, _, r_s), (_, _, r_u), _), blocked = src.rdf_components(d_s, d_u, case)
        if blocked:
            rows.append((case, d_s, d_u, False, None, None, None))
        else:
            rows.append((case, d_s, d_u, True, float(r_s), float(r_u), float(r_j)))
    _emit([_render(columns, rows, cfg, args.format)], args.out)
    if not any(row[3] for row in rows):
        return 3
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    report = run_verification()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _emit([text], args.out)
    return 0 if report["passed"] else 1


def _cmd_preset(args) -> int:
    if args.action == "list":
        for name in preset_names():
            sys.stdout.write(name + "\n")
        return 0
    cfg = get_preset(args.name)
    sys.stdout.write(dump_config(cfg))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, with_samples=False):
    sub.add_argument("--config", type=Path, default=None,
                     help="path to a run-config JSON file")
    sub.add_argument("--preset", default=None,
                     help="name of a bundled preset (see 'preset list')")
    sub.add_argument("--model", choices=("gaussian", "binary"), default=None)
    sub.add_argument("--case", type=int, choices=(1, 2), default=None,
                     help="restrict to one encoder case")
    sub.add_argument("--seed", type=int, default=None)
    if with_samples:
        sub.add_argument("--samples", type=int, default=None,
                         help="Monte-Carlo sample count")
    sub.add_argument("--out", type=Path, default=None,
                     help="output path (stdout when omitted)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_inner(sub):
    _add_common(sub, with_samples=True)


def _add_rdf(sub):
    _add_common(sub)
    sub.add_argument("--d-s", type=float, default=None, dest="d_s")
    sub.add_argument("--d-u", type=float, default=None, dest="d_u")


def _add_verify(sub):
    sub.add_argument("--out", type=Path, default=None)


def _add_preset(sub):
    sub.add_argument("action", choices=("list", "show"))
    sub.add_argument("name", nargs="?", default=None)


#: name: (help line, the function that adds its arguments, its handler).
_COMMANDS = {
    "converse": ("minimal ratio over a distortion grid", _add_common, _cmd_converse),
    "inner": ("Monte-Carlo inner-bound scan", _add_inner, _cmd_inner),
    "curve": ("binary semantic tradeoff curve", _add_common, _cmd_curve),
    "rdf": ("rate-distortion values at one point", _add_rdf, _cmd_rdf),
    "verify": ("fast self-check battery", _add_verify, _cmd_verify),
    "preset": ("list or show bundled presets", _add_preset, _cmd_preset),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` only that one's.

    A one-command parser still names all six commands in its usage line, so
    its help, usage and error text are the full parser's. (On the full
    parser that name list stays the choices, not a metavar, because a
    metavar would also replace "command" in its "required" error.)
    """
    parser = argparse.ArgumentParser(
        prog="semsec",
        description="Secure semantic communication bounds: converse and "
                    "inner-bound evaluation, RDFs, and tradeoff curves.",
    )
    every = {} if command is None else {"metavar": "{" + ",".join(_COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **every)
    for name in _COMMANDS if command is None else [command]:
        help_line, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    """Run the command that ``argv`` (by default ``sys.argv[1:]``) names,
    building only that command's parser; its exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command == "preset" and args.action == "show" and not args.name:
        print("preset show needs a preset name", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # What is still buffered goes to the null device, so that the flush
        # at exit does not fail on the closed pipe again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
