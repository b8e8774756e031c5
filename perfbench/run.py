"""semsec benchmark: three workloads driven through the semsec CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload inner-scan --seed 1 --seconds 40 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``inner-scan``       -- ``semsec inner`` on both inner presets, cases 1 and 2
* ``binary-solver``    -- ``semsec converse --model binary --case 2``, one call per
                          cell of four
* ``closed-surfaces``  -- a 300x300 Gaussian converse, a binary case-1 converse
                          and the fig-5 tradeoff curve

Each operation is one CLI call in a fresh interpreter (``child.py``), run
one at a time from this process, all on one CPU, with BLAS pinned to one
thread. The operations run in turn until the next would end after
``--seconds`` (at least two untraced rounds, or one untraced and one
traced round with ``--trace 1``). A calibration burst of fixed work runs
in this process before the first operation and after each one; the
end-to-end times are scaled by it to the reference speed (see
``calibrate``). Every artifact is checked (``checks.py``); a nonzero exit
or a failed check fails the operation. Artifacts, the environment record
and every sample go to ``.perfbench_out/``. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
``end_to_end`` metrics of BENCHMARK.json untraced, its ``per_layer``
metrics traced.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The calibration runs in this process: pin its BLAS too, before numpy loads.
os.environ.update(BLAS_ENV)
OP_TIMEOUT_S = 60
#: No new op starts once this much time has passed, whatever the minimum.
HARD_STOP_S = 120

INNER_PRESETS = ("gaussian-inner-nosecrecy", "gaussian-inner-semantic")
INNER_DRAWS = 100_000
SOLVER_POINTS = (0.0625, 0.3125)
BINARY_SOURCE = {"alpha": 0.25}
BINARY_CHANNEL = {"eps1": 0.1, "eps2": 0.3}
SURFACE_SAMPLE = 2000
CURVE_PRESET = "binary-tradeoff-fig5"
#: Closed-form values frozen from a trusted commit; ``freeze.py`` writes it.
REFERENCE = HERE / "reference.json"
SOLVE = "rdf.TwoConstraintSolver.solve"
#: Mean time of one calibration piece at the reference speed: a typical
#: figure on a 2-CPU Intel Xeon VM at 2.0 GHz. It fixes only the unit.
CAL_REF_S = 0.030
CAL_PIECES = 15


@dataclass
class Op:
    """One CLI call: its arguments, the artifacts it writes, and their check."""

    name: str
    argv: list[str]
    artifacts: list[Path]
    check: Callable[[list[str]], "object"]
    solve_cells: int = 0


@dataclass
class Sample:
    op: Op
    traced: bool
    setup_s: float | None = None
    wall_s: float | None = None
    #: CAL_REF_S over the mean of the calibrations before and after the op.
    scale: float = 1.0
    cpu_s: float | None = None
    rss_kb: int = 0
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    observed: dict | None = None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def inner_scan(seed: int, out: Path) -> list[Op]:
    """Both inner presets, cases 1 and 2, 100k draws; the seed sets the draws."""
    from checks import check_inner

    rnd = random.Random(seed)
    ops = []
    for preset in INNER_PRESETS:
        for case in (1, 2):
            scan_seed = rnd.randrange(2**31)
            path = out / f"inner-{preset}-case{case}.csv"
            ops.append(Op(
                name=f"{preset}-case{case}",
                argv=["inner", "--preset", preset, "--case", str(case), "--seed", str(scan_seed),
                      "--samples", str(INNER_DRAWS), "--out", str(path)],
                artifacts=[path],
                check=lambda texts, p=preset, c=case, s=scan_seed: check_inner(texts[0], p, c, s),
            ))
    return ops


def binary_solver(seed: int, out: Path) -> list[Op]:
    """The product grid {0.0625, 0.3125}^2 of case-2 cells, all targets off.

    One CLI call per cell, so that each op sits between two calibrations
    that are seconds, not a whole row, apart. (0.0625, 0.0625) lies in the
    Shannon-lower-bound region; (0.0625, 0.3125) is where the dual bound
    exceeds the rate.
    """
    from checks import check_solver
    from semsec.config import RunConfig, dump_config

    ops = []
    for d_s in SOLVER_POINTS:
        for d_u in SOLVER_POINTS:
            name = f"solver-cell-{d_s}-{d_u}"
            cfg = RunConfig(
                model="binary", mode="converse", cases=(2,), source=BINARY_SOURCE,
                channel=BINARY_CHANNEL, d_s_grid={"points": [d_s]},
                d_u_grid={"points": [d_u]}, name=name,
            )
            config = out / f"{name}.json"
            dump_config(cfg, config)
            path = out / f"{name}.csv"
            ops.append(Op(
                name=name,
                argv=["converse", "--config", str(config), "--out", str(path)],
                artifacts=[path],
                check=lambda texts, cells=[(d_s, d_u)]: check_solver(
                    texts[0], cells, BINARY_SOURCE["alpha"], BINARY_CHANNEL["eps1"]),
                solve_cells=1,
            ))
    return ops


def surface_configs():
    """The two closed-form converse surfaces of ``closed-surfaces``."""
    from semsec.config import RunConfig, get_preset

    fig3 = replace(get_preset("gaussian-converse-fig3"), d_s_grid=300, d_u_grid=300,
                   name="gaussian-converse-fig3-300")
    binary1 = RunConfig(
        model="binary", mode="converse", cases=(1,), source=BINARY_SOURCE,
        channel=BINARY_CHANNEL, delta_s=0.9, delta_u=0.5, delta_su=1.2,
        d_s_grid=100, d_u_grid=100, name="binary-case1-targets-100",
    )
    return fig3, binary1


def curve_variants() -> list[tuple[int, float]]:
    """The (case, key rate) curves that ``semsec curve`` writes for ``CURVE_PRESET``."""
    from semsec.config import get_preset

    curve = get_preset(CURVE_PRESET)
    return [(case, r_k) for case in curve.cases for r_k in curve.key_rates()]


def closed_surfaces(seed: int, out: Path) -> list[Op]:
    """Closed-form paths: 180k Gaussian cells, 10k binary case-1 cells, fig-5 curves.

    Each artifact is checked against the values frozen in ``REFERENCE`` and
    against a live recomputation; the seed picks the extra random cells the
    live check recomputes.
    """
    import numpy as np

    from checks import check_curve, check_surface
    from semsec.config import dump_config

    rng = np.random.default_rng(seed)
    frozen = json.loads(REFERENCE.read_text())
    ops = []
    for cfg in surface_configs():
        config = out / f"{cfg.name}.json"
        dump_config(cfg, config)
        path = out / f"{cfg.name}.csv"
        ops.append(Op(
            name=cfg.name,
            argv=["converse", "--config", str(config), "--out", str(path)],
            artifacts=[path],
            check=lambda texts, c=str(config), ref=frozen["surfaces"][cfg.name]: check_surface(
                texts[0], c, ref, rng, SURFACE_SAMPLE),
        ))
    base = out / "curve.csv"
    variants = curve_variants()
    ops.append(Op(
        name=CURVE_PRESET,
        argv=["curve", "--preset", CURVE_PRESET, "--out", str(base)],
        artifacts=[base.with_name(curve_file(c, r)) for c, r in variants],
        check=lambda texts: _merge([
            check_curve(text, CURVE_PRESET, c, r, frozen["curves"][curve_file(c, r)])
            for text, (c, r) in zip(texts, variants)
        ]),
    ))
    return ops


def curve_file(case: int, r_k: float) -> str:
    """The file name ``semsec curve --out curve.csv`` gives one of its curves."""
    return f"curve_case{case}_rk{r_k:g}.csv"


def _merge(checks):
    from checks import Check

    merged = Check()
    for c in checks:
        merged.problems += c.problems
        merged.covered += c.covered
        merged.ratios += c.ratios
    return merged


WORKLOADS = {
    "inner-scan": inner_scan,
    "binary-solver": binary_solver,
    "closed-surfaces": closed_surfaces,
}


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_op(op: Op, traced: bool, out: Path, texts: dict) -> Sample:
    """Run ``op`` in a fresh interpreter; keep each new artifact text in ``texts``."""
    sample = Sample(op, traced)
    result = out / "child-result.json"
    result.unlink(missing_ok=True)
    for path in op.artifacts:
        path.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(result), "1" if traced else "0",
           str(out / f"spans-{op.name}.npz"), "--", *op.argv]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sample.problems.append(f"timed out after {OP_TIMEOUT_S} s")
        return sample
    if proc.returncode != 0 or not result.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        sample.problems.append(f"child exited {proc.returncode}: {' | '.join(tail)}")
        return sample
    res = json.loads(result.read_text())
    sample.setup_s = res["t_ready"] - t_spawn
    sample.wall_s = res["t_done"] - res["t_ready"]
    sample.cpu_s = res["cpu_s"]
    sample.rss_kb = res["maxrss_kb"]
    sample.trace = res.get("trace")
    sample.observed = res.get("observed")
    if res["rc"] != 0:
        sample.problems.append(f"semsec exited {res['rc']}")
    try:
        contents = [path.read_text() for path in op.artifacts]
    except FileNotFoundError as exc:
        sample.problems.append(f"missing artifact {exc.filename}")
        return sample
    sample.digest = hashlib.sha256("\0".join(contents).encode()).hexdigest()
    texts.setdefault((op.name, sample.digest), contents)
    if traced and op.solve_cells:
        solves = sample.trace["names"].get(SOLVE, {}).get("calls", 0)
        if solves != op.solve_cells:
            sample.problems.append(f"{solves} solves for {op.solve_cells} case-2 cells")
    return sample


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------


def _cal_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((6000, 4, 4))
    return a @ a.transpose(0, 2, 1) + np.eye(4), rng.uniform(0.01, 0.49, 1600).tolist()


def _cal_piece(mats, probs) -> float:
    """Fixed work in the three styles semsec spends its time in, a third each.

    A pure-Python loop (the solver and the per-cell grids), batched 4x4
    ``slogdet``/``eigvalsh`` (the inner sampler), and numpy calls on scalars
    (``info.binary_entropy`` and friends).
    """
    import numpy as np

    acc, table = 0.0, {}
    for i in range(40000):
        acc += (i % 7) * 0.5 - acc / (i + 1)
        table[i & 127] = acc
    np.linalg.slogdet(mats)
    np.linalg.eigvalsh(mats)
    for p in probs:
        h = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        acc += float(np.any(np.asarray([p, h]) > 0.5))
    return acc


def calibrate(inputs) -> float:
    """The mean time of ``CAL_PIECES`` calibration pieces, in seconds.

    The machine this benchmark was built on is a shared VM whose speed
    swings by up to 2x within seconds and drifts over minutes, in CPU time
    as much as in wall time. This code is the same before and after a
    change to semsec, so CAL_REF_S / calibrate() tracks the machine and
    not the program. It tracks the CPU the op ran on because
    ``run_workload`` pins this process and its children to one CPU;
    unpinned, op times followed the calibrations far less closely.
    """
    times = []
    for _ in range(CAL_PIECES):
        t0 = time.perf_counter()
        _cal_piece(*inputs)
        times.append(time.perf_counter() - t0)
    return statistics.mean(times)


def measure(ops: list[Op], seconds: float, trace: bool, out: Path):
    """Run the ops in turn until the next one would overrun ``seconds``.

    Untraced runs cycle through the ops and may stop after any op once
    each op has run twice, so a run ends with a partial round rather than
    idle time. Traced runs alternate an untraced and a traced round, at
    least one of each, and stop only after a traced round. A calibration
    runs before the first op and after each op, so every op sits between
    two of them; the op's scale is CAL_REF_S over their mean.
    """
    plan = [(traced, op) for traced in ((False, True) if trace else (False,)) for op in ops]
    at_least = len(plan) if trace else 2 * len(plan)
    rounds, texts, cost = [], {}, {}
    inputs = _cal_inputs()
    calibrate(inputs)  # warm-up, discarded
    cal = calibrate(inputs)
    start = time.monotonic()
    for done in itertools.count(1):
        traced, op = plan[(done - 1) % len(plan)]
        if (done - 1) % len(ops) == 0:
            rounds.append((traced, []))
        t0 = time.monotonic()
        sample = run_op(op, traced, out, texts)
        after = calibrate(inputs)
        sample.scale = CAL_REF_S / ((cal + after) / 2)
        cal = after
        rounds[-1][1].append(sample)
        cost[(done - 1) % len(plan)] = time.monotonic() - t0
        if trace and done % len(plan):
            continue
        elapsed = time.monotonic() - start
        ahead = sum(cost.values()) if trace else cost.get(done % len(plan), 0.0)
        if done % len(ops) == 0:
            print(f"round {len(rounds)}: {elapsed:.1f} s elapsed", file=sys.stderr)
        if (done >= at_least and elapsed + ahead > seconds) or elapsed > HARD_STOP_S:
            return rounds, texts


def check_outputs(ops: list[Op], rounds, texts) -> dict[str, object]:
    """Check each distinct artifact once; fail every sample it came from."""
    by_name = {op.name: op for op in ops}
    verdicts = {key: by_name[key[0]].check(contents) for key, contents in texts.items()}
    digests = defaultdict(set)
    for _, samples in rounds:
        for s in samples:
            if s.digest is not None:
                digests[s.op.name].add(s.digest)
    for _, samples in rounds:
        for s in samples:
            if s.digest is None:
                continue
            s.problems += verdicts[(s.op.name, s.digest)].problems
            if len(digests[s.op.name]) > 1:
                s.problems.append("the same inputs gave different artifact bytes")
    return {name: verdicts[(name, min(ds))] for name, ds in digests.items()}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _mean(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.mean(values) if values else default


def _scaled(value, s: Sample):
    return None if value is None else value * s.scale


def raw_times(rounds) -> dict[str, float]:
    """``setup_s`` and ``wall_s`` as measured, before scaling; for the report only."""
    plain = [s for traced, ss in rounds if not traced for s in ss]
    per_op = defaultdict(list)
    for s in plain:
        per_op[s.op.name].append(s.wall_s)
    return {
        "setup_s": _median(s.setup_s for s in plain),
        "wall_s": sum(_mean(walls) for walls in per_op.values()),
        "scale_median": _median(s.scale for s in plain),
    }


def end_to_end(rounds, verdicts) -> dict[str, float]:
    plain = [samples for traced, samples in rounds if not traced]
    per_op, per_op_rss = defaultdict(list), defaultdict(list)
    for s in (s for ss in plain for s in ss):
        per_op[s.op.name].append(_scaled(s.wall_s, s))
        per_op_rss[s.op.name].append(s.rss_kb)
    attempted = sum(len(ss) for _, ss in rounds)
    failed = sum(bool(s.problems) for _, ss in rounds for s in ss)
    ratios = [r for v in verdicts.values() for r in v.ratios]
    return {
        "setup_s": _median(_scaled(s.setup_s, s) for ss in plain for s in ss),
        "wall_ref_s": sum(_mean(walls) for walls in per_op.values()),
        "peak_rss_mb": max(_median(rss) for rss in per_op_rss.values()) / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "buckets_covered": float(sum(v.covered for v in verdicts.values())),
        "ratio_median": _median(ratios),
    }


def _round_layers(samples) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its ops."""
    names = defaultdict(lambda: defaultdict(float))
    self_s, entry = defaultdict(float), defaultdict(lambda: defaultdict(float))
    solve_durations, solves, reasons = [], [], []
    for s in samples:
        if s.trace is None:
            continue
        for name, stats in s.trace["names"].items():
            for key, val in stats.items():
                names[name][key] += val
        for layer, stats in s.trace["layers"].items():
            self_s[layer] += stats["self_s"]
            for parent, val in stats["entry_s"].items():
                entry[layer][parent] += val
        solve_durations += s.trace["durations"].get(SOLVE, [])
        solves += s.observed["solves"]
        reasons += s.observed["reasons"]

    def stat(name, key):
        return names[name][key] if name in names else 0.0

    def reason(code):
        return float(sum(r[code] for r in reasons if len(r) > code))

    draws = float(sum(sum(r) for r in reasons))
    m = {
        "config.s": sum(entry["config"].values()),
        "cli.self_s": self_s["cli"],
        "gaussian.draw_inner_samples.s": stat("gaussian.draw_inner_samples", "s"),
        "gaussian.inner_bound_scan.self_s": stat("gaussian.inner_bound_scan", "self_s"),
        "numpy.slogdet.s": stat("numpy.slogdet", "s"),
        "numpy.slogdet.calls": stat("numpy.slogdet", "calls"),
        "numpy.eigvalsh.s": stat("numpy.eigvalsh", "s"),
        "regions.rows.s": sum((v["s"] for k, v in names.items()
                               if k.startswith("regions.") and k.endswith(".rows")), 0.0),
        "gaussian.draws": draws,
        "gaussian.accepted_frac": reason(0) / draws if draws else 0.0,
        "gaussian.public_rate_frac": reason(1) / draws if draws else 0.0,
        "gaussian.psd_rejections": reason(11),
        "rdf.solve.calls": stat(SOLVE, "calls"),
        "rdf.solve.s": stat(SOLVE, "s"),
        "rdf.solve.s_median": _median(solve_durations),
        "rdf.solve.s_max": max(solve_durations, default=0.0),
        "rdf.solve.self_s": stat(SOLVE, "self_s"),
        "scipy.minimize.s": stat("scipy.minimize", "s"),
        "scipy.minimize.calls": stat("scipy.minimize", "calls"),
        "scipy.linprog.s": stat("scipy.linprog", "s"),
        "rdf.binary_rdf_joint.calls": stat("rdf.binary_rdf_joint", "calls"),
        "rdf.gap_max": max((r - d for r, d, _ in solves if d is not None), default=0.0),
        "rdf.dual_excess_max": max((d - r for r, d, _ in solves if d is not None), default=0.0),
        "rdf.nonconverged": float(sum(not c for _, _, c in solves)),
        "gaussian.converse_min_r.calls": stat("gaussian.converse_min_r", "calls"),
        "gaussian.converse_min_r.s": stat("gaussian.converse_min_r", "s"),
        "binary.binary_min_r.calls": stat("binary.binary_min_r", "calls"),
        "binary.binary_min_r.s": stat("binary.binary_min_r", "s"),
        "info.binary_entropy.calls": stat("info.binary_entropy", "calls"),
        "info.star.calls": stat("info.star", "calls"),
        "info.s": entry["info"]["binary"] + entry["info"]["rdf"],
        "binary.delta_s_curve.s": stat("binary.delta_s_curve", "s"),
    }
    for layer in ("info", "rdf", "gaussian", "binary", "regions"):
        m[f"{layer}.self_s"] = self_s[layer]
    return m


def per_layer(rounds) -> dict[str, float]:
    traced = [_round_layers(ss) for t, ss in rounds if t]
    m = {key: _median(r[key] for r in traced) for key in traced[0]}
    walls = {t: [sum(_scaled(s.wall_s, s) for s in ss) for tt, ss in rounds
                 if tt == t and all(s.wall_s is not None for s in ss)] for t in (False, True)}
    base = _median(walls[False])
    m["trace_overhead_frac"] = _median(walls[True]) / base - 1.0 if base else 0.0
    return m


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """A sha256 over ``src/semsec/*.py``: names and contents."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "semsec").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity_cpus": sorted(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": src_sha256(),
        "load": "closed loop, one client: one CLI call at a time from one process",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Build, run and check one workload; return the full report."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[workload](seed, out)
    # Compile bytecode and warm the file cache; a broken import fails every op below.
    subprocess.run([sys.executable, "-c", "import semsec.cli"], env=_child_env(), cwd=ROOT,
                   capture_output=True, timeout=OP_TIMEOUT_S)
    # One CPU for this process and every child, so that a calibration and
    # the op next to it run on the same CPU (see ``calibrate``).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    rounds, texts = measure(ops, seconds, trace, out)
    verdicts = check_outputs(ops, rounds, texts)
    samples = [s for _, ss in rounds for s in ss]
    return {
        "correct": not any(s.problems for s in samples),
        "attempted": len(samples),
        "failed": sum(bool(s.problems) for s in samples),
        "end_to_end": end_to_end(rounds, verdicts),
        "raw": raw_times(rounds),
        "per_layer": per_layer(rounds) if trace else None,
        "ops": {
            op.name: {
                "covered": verdicts[op.name].covered if op.name in verdicts else 0,
                "ratio_median": _median(verdicts[op.name].ratios) if op.name in verdicts else 0.0,
                "wall_s": [s.wall_s for s in samples if s.op is op and not s.traced],
                "setup_s": [s.setup_s for s in samples if s.op is op],
                "scale": [s.scale for s in samples if s.op is op and not s.traced],
            }
            for op in ops
        },
        "samples": [
            {"op": s.op.name, "traced": s.traced, "setup_s": s.setup_s, "wall_s": s.wall_s,
             "scale": s.scale, "cpu_s": s.cpu_s, "rss_kb": s.rss_kb, "digest": s.digest,
             "problems": s.problems}
            for s in samples
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "semsec" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from a semsec checkout (src/semsec and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads(spec_path.read_text())

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report["environment"] = environment(args.seed)
    report["args"] = vars(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=float) + "\n")
    for s in report["samples"]:
        for problem in s["problems"]:
            print(f"FAILED {s['op']}: {problem}", file=sys.stderr)
    values = report["per_layer"] if args.trace else report["end_to_end"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"environment": report["environment"], "args": report["args"]}))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
