"""Print the "Measured baseline" table of ROADMAP.md from one traced run.

Usage, from the repository root::

    python3 perfbench/table.py [--seed 2024]

Runs each workload once untraced and once traced (about a minute in
all) and prints a Markdown table to stdout. Times are the untraced ones
as measured, not scaled by the calibration; shares and counts come from
the traced run. Nothing is written into ROADMAP.md.
"""

from __future__ import annotations

import argparse
import sys

import run


def _fmt_list(values, fmt):
    return " / ".join(format(v, fmt) for v in values)


def table(seed: int) -> str:
    reports = {w: run.run_workload(w, seed, 0, trace=True) for w in run.WORKLOADS}
    env = run.environment(seed)
    rows = []

    inner = reports["inner-scan"]
    lay = inner["per_layer"]
    scans = list(inner["ops"].values())
    draw_s = lay["gaussian.draw_inner_samples.s"] or float("nan")
    rows += [
        ("Inner scan, 100k draws (no secrecy c1 / c2, semantic c1 / c2)",
         f"{_fmt_list([run._median(o['wall_s']) for o in scans], '.2f')} s; "
         f"`slogdet` {lay['numpy.slogdet.s']:.2f} s ({lay['numpy.slogdet.calls']:.0f} calls, "
         f"{lay['numpy.slogdet.s'] / draw_s:.0%} of sampling), "
         f"`eigvalsh` {lay['numpy.eigvalsh.s']:.2f} s ({lay['numpy.eigvalsh.s'] / draw_s:.0%})"),
        ("Inner sampler PSD rejections",
         f"{lay['gaussian.psd_rejections']:.0f} of {lay['gaussian.draws']:.0f}"),
        ("Inner draws discarded on `public_rate` (a1 > b1)",
         f"{lay['gaussian.public_rate_frac']:.1%}; accepted {lay['gaussian.accepted_frac']:.1%}"),
        ("Inner buckets covered (of 1600, per scan)",
         f"{_fmt_list([o['covered'] for o in scans], 'd')}; "
         f"total {inner['end_to_end']['buckets_covered']:.0f}"),
        ("Inner/converse ratio median (buckets with >= 10 draws)",
         f"{_fmt_list([o['ratio_median'] for o in scans], '.2f')}; "
         f"pooled {inner['end_to_end']['ratio_median']:.2f}"),
    ]

    solver = reports["binary-solver"]
    lay = solver["per_layer"]
    rows += [
        ("Binary case-2 joint RDF, one cell",
         f"median {lay['rdf.solve.s_median']:.2f} s, max {lay['rdf.solve.s_max']:.2f} s "
         f"({lay['rdf.solve.calls']:.0f} cells); Nelder-Mead "
         f"{lay['scipy.minimize.s'] / (lay['rdf.solve.s'] or float('nan')):.0%} of solve time"),
        ("`semsec converse --model binary --case 2`, {0.0625, 0.3125}^2",
         f"{solver['raw']['wall_s']:.2f} s"),
        ("Solver soundness: max rate - dual, max dual - rate, non-converged",
         f"{lay['rdf.gap_max']:.2e} / {lay['rdf.dual_excess_max']:.2e} / "
         f"{lay['rdf.nonconverged']:.0f}"),
    ]

    closed = reports["closed-surfaces"]
    ops = closed["ops"]
    fig3 = run._median(ops["gaussian-converse-fig3-300"]["wall_s"])
    bin1 = run._median(ops["binary-case1-targets-100"]["wall_s"])
    rows += [
        ("Gaussian converse, 300x300 grid, both cases",
         f"{fig3:.2f} s ({fig3 / 180_000 * 1e6:.1f} us/cell incl. CSV)"),
        ("Binary case-1 converse, 100x100, targets on",
         f"{bin1:.2f} s ({bin1 / 10_000 * 1e6:.0f} us/cell incl. CSV)"),
        ("`binary-tradeoff-fig5` curves",
         f"{run._median(ops['binary-tradeoff-fig5']['wall_s']):.3f} s"),
    ]
    rows += [
        ("Set-up (interpreter, `import semsec`, config), median",
         _fmt_list([r["raw"]["setup_s"] for r in reports.values()], ".2f") + " s"),
        ("Trace overhead (inner / solver / closed)",
         _fmt_list([r["per_layer"]["trace_overhead_frac"] for r in reports.values()], ".0%")),
    ]
    failed = sum(r["failed"] for r in reports.values())
    lines = [
        f"Environment: Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']} pinned to 1 thread, {env['nproc']} CPUs, seed {seed}, "
        f"src {env['src_sha256'][:12]}. Single run each; failed operations: {failed}.",
        "",
        "| Path | Time / result |",
        "| --- | --- |",
    ]
    lines += [f"| {path} | {result} |" for path, result in rows]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    if not (run.ROOT / "src" / "semsec" / "cli.py").is_file():
        print("error: run from a semsec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.stdout.write(table(args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
