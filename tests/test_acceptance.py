"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import time

import numpy as np
from grid_oracle import brute_force_rdf

from semsec import (
    DiscreteSemanticSource,
    EquivocationTargets,
    Pmf,
    SemanticSourceBinary,
    SemanticSourceGaussian,
    WiretapChannelBinary,
    WiretapChannelGaussian,
    appendix_inequality_slack,
    binary_converse_caps,
    binary_entropy,
    binary_rdf_obs,
    binary_rdf_sem,
    converse_equivocation_caps,
    converse_min_r,
    converse_surface,
    delta_s_curve,
    draw_inner_samples,
    gaussian_rdf_joint,
    gaussian_rdf_obs,
    gaussian_rdf_sem,
    hamming_distortion,
    inner_bound_scan,
    rdf_semantic_case1,
    rdf_semantic_case2,
)
from semsec.cli import main as cli_main
from semsec.config import build_channel, build_source, get_preset, resolve_distortion_grid
from semsec.regions import min_ratio


def _report(number, name, ok, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}{suffix}"
    print(line)
    assert ok, line


def _gaussian_pair():
    return SemanticSourceGaussian(0.7, 1.0, 0.6), WiretapChannelGaussian(1.0, 0.1, 0.4)


def _binary_pair():
    return SemanticSourceBinary(0.25), WiretapChannelBinary(0.1, 0.3)


def test_criterion_1_frozen_reference_values():
    src, ch = _gaussian_pair()
    bsrc, bch = _binary_pair()
    tg = EquivocationTargets(src.h_s, float("-inf"), src.h_s)
    checks = [
        ("H_b(1/4)", binary_entropy(0.25), 0.8113),
        ("binary secrecy slope", bch.secrecy_capacity, 0.4558),
        ("gaussian main capacity", ch.capacity_main, 1.7297),
        ("gaussian secrecy capacity", ch.secrecy_capacity, 0.9372),
        ("restricted-encoder floor", (1.0 - src.rho2) * src.P_s, 0.34),
        ("joint RDF (0.5, 0.6)", gaussian_rdf_joint(src, 0.5, 0.6, 2), 0.3849),
        ("semantic-secrecy min ratio",
         converse_min_r(src, ch, 0.5, 0.6, tg, case=2).r_min, 0.2590),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    _report(1, "frozen reference values", worst <= 1e-4,
            f"worst deviation {worst:.2e} over {len(checks)} values")


def test_criterion_2a_solver_matches_closed_forms():
    ham = hamming_distortion(2)
    dsbs = DiscreteSemanticSource.doubly_symmetric(0.25)
    copy = DiscreteSemanticSource(Pmf(np.array([[0.75, 0.0], [0.0, 0.25]])))
    gaps = []
    certified = []  # primal rate minus certified dual bound, per cell
    # Identical components, semantic constraint slack: classic binary RDF.
    for du in np.linspace(0.02, 0.24, 17):
        got = rdf_semantic_case2(copy, ham, ham, 1.0, du)
        gaps.append(abs(got.rate - (binary_entropy(0.25) - binary_entropy(du))))
        certified.append(got.rate - got.dual_bound)
    # Doubly symmetric source, observation constraint slack.
    for ds in np.linspace(0.03, 0.45, 17):
        got = rdf_semantic_case2(dsbs, ham, ham, ds, 0.5)
        gaps.append(abs(got.rate - (1.0 - binary_entropy(ds))))
        certified.append(got.rate - got.dual_bound)
    # Restricted encoder against the crossover-adjusted closed form.
    for ds in np.linspace(0.26, 0.48, 16):
        got = rdf_semantic_case1(dsbs, ham, ham, ds, 0.5)
        gaps.append(abs(got.rate - (1.0 - binary_entropy((ds - 0.25) / 0.5))))
        certified.append(got.rate - got.dual_bound)
    worst = max(gaps)
    worst_gap = max(certified)
    _report(2, "solver vs closed forms (50-point grid)", worst <= 5e-3 and worst_gap <= 1e-6,
            f"worst |solver - closed form| = {worst:.2e}, worst certified gap {worst_gap:.1e}")


def test_criterion_2b_solver_vs_exhaustive_search():
    started = time.time()
    ham = hamming_distortion(2)
    dsbs = DiscreteSemanticSource.doubly_symmetric(0.25)
    asym = DiscreteSemanticSource(Pmf(np.array([[0.4, 0.1], [0.2, 0.3]])))
    # Allowances: solver tolerance plus the measured discretization excess
    # of the exhaustive channel grid (resolution 6 and 11 respectively).
    corpus = [
        (dsbs, 0.3, 0.25, 2, 6, 0.08),
        (dsbs, 0.2, 0.2, 2, 6, 0.08),
        (asym, 0.3, 0.25, 2, 6, 0.08),
        (asym, 0.4, 0.2, 2, 6, 0.08),
        (dsbs, 0.35, 0.3, 1, 11, 0.01),
        (dsbs, 0.45, 0.4, 1, 11, 0.01),
    ]
    worst_over = worst_under = worst_gap = 0.0
    for src, ds, du, case, grid, allowance in corpus:
        brute = brute_force_rdf(src, ham, ham, ds, du, case=case, grid=grid).rate
        solve = rdf_semantic_case2 if case == 2 else rdf_semantic_case1
        point = solve(src, ham, ham, ds, du)
        solved = point.rate
        worst_over = max(worst_over, solved - brute)      # must stay <= 5e-3
        worst_under = max(worst_under, (brute - solved) - allowance)
        worst_gap = max(worst_gap, point.rate - point.dual_bound)
    elapsed = time.time() - started
    ok = worst_over <= 5e-3 and worst_under <= 0.0 and worst_gap <= 1e-6 and elapsed < 60.0
    _report(2, "solver vs exhaustive grid search", ok,
            f"max solver excess {worst_over:.2e}, grid-allowance slack "
            f"{worst_under:+.2e}, worst certified gap {worst_gap:.1e}, {elapsed:.0f}s")


def test_criterion_3_inner_bound_sandwich():
    details = []
    ok = True
    for preset_name in ("gaussian-inner-nosecrecy", "gaussian-inner-semantic"):
        cfg = get_preset(preset_name)
        src, ch = build_source(cfg), build_channel(cfg)
        tg = cfg.targets()
        for case in (1, 2):
            out = draw_inner_samples(src, ch, tg, case, cfg.samples, cfg.seed)
            idx = np.flatnonzero(out["accepted"])
            # The converse at every accepted draw, as one set of points.
            lower = min_ratio(ch, tg, *src.rdf_components(out["d_s"][idx], out["d_u"][idx], case))
            violations = int(np.sum(lower.feasible & (out["r"][idx] < lower.r_min - 1e-6)))
            scan = inner_bound_scan(src, ch, tg, case, cfg.samples, cfg.seed)
            a, b = np.nonzero(scan.feasible)
            lower = min_ratio(ch, tg, *src.rdf_components(
                np.asarray(scan.axes["D_s"])[a], np.asarray(scan.axes["D_u"])[b], case))
            priced = lower.feasible & (lower.r_min > 0)
            close = int(np.sum(scan.values[a, b][priced] / lower.r_min[priced] <= 1.15))
            run_ok = len(idx) > 0 and violations == 0 and close >= 1
            ok = ok and run_ok
            details.append(
                f"{preset_name.split('-')[-1]}/case{case}: "
                f"acc={len(idx)} viol={violations} close={close}"
            )
    _report(3, "Monte-Carlo inner bound sandwich", ok, "; ".join(details))


def test_criterion_4_surface_orderings():
    src, ch = _gaussian_pair()
    d_s_grid = resolve_distortion_grid(40, src.P_s)
    d_u_grid = resolve_distortion_grid(40, src.P_u)
    full = EquivocationTargets(src.h_s, src.h_u, src.h_su)
    sem_only = EquivocationTargets(src.h_s, float("-inf"), float("-inf"))
    surfaces = {
        (name, case): converse_surface(src, ch, tg, case, d_s_grid, d_u_grid)
        for name, tg in (("full", full), ("sem", sem_only))
        for case in (1, 2)
    }
    worst_case_gap = worst_target_gap = -np.inf
    compared_cases = compared_targets = 0
    for name in ("full", "sem"):
        s1, s2 = surfaces[(name, 1)], surfaces[(name, 2)]
        both = s1.feasible
        assert both.any()
        # Wherever the restricted encoder succeeds the informed one must too.
        assert bool(np.all(s2.feasible[both]))
        worst_case_gap = max(worst_case_gap, float((s2.values - s1.values)[both].max()))
        compared_cases += int(both.sum())
    for case in (1, 2):
        sf, ss = surfaces[("full", case)], surfaces[("sem", case)]
        both = sf.feasible
        assert bool(np.all(ss.feasible[both]))
        worst_target_gap = max(worst_target_gap, float((ss.values - sf.values)[both].max()))
        compared_targets += int(both.sum())
    ok = worst_case_gap <= 1e-9 and worst_target_gap <= 1e-9
    _report(4, "converse surface orderings", ok,
            f"case-2 minus case-1 max {worst_case_gap:.2e} over {compared_cases} "
            f"cells; dropped-target max {worst_target_gap:.2e} over "
            f"{compared_targets} cells")


def test_criterion_5_tradeoff_curve_shape():
    src, ch = _binary_pair()
    checks = []
    for case in (1, 2):
        base = delta_s_curve(src, ch, r=1.0, R_k=0.0, case=case)
        keyed = delta_s_curve(src, ch, r=1.0, R_k=0.1, case=case)
        monotone = bool(np.all(np.diff(base.raw) >= -1e-12))
        capped = base.capped
        flat_at_cap = bool(np.all(base.delta_s_max[capped] == 1.0)) if capped.any() else True
        shift = float(np.abs(keyed.raw - base.raw - 0.1).max())
        checks.append((case, monotone, flat_at_cap, shift))
    ok = all(m and f and s <= 1e-12 for _, m, f, s in checks)
    _report(5, "binary tradeoff curve shape", ok,
            "; ".join(f"case{c}: monotone={m} cap-exact={f} key-shift-err={s:.1e}"
                      for c, m, f, s in checks))


def test_criterion_6_entropy_combination_inequality():
    rng = np.random.default_rng(20240823)
    worst = np.inf
    for _ in range(10_000):
        joint = Pmf(rng.dirichlet(np.ones(32)).reshape((2,) * 5))
        worst = min(worst, appendix_inequality_slack(joint))
    _report(6, "five-variable entropy inequality", worst >= -1e-9,
            f"minimum slack {worst:.2e} over 10000 random joints")


def test_criterion_7_reduction_identities():
    rng = np.random.default_rng(7_2024)
    worst = 0.0
    for _ in range(50):
        p_s, p_u = rng.uniform(0.3, 2.0, size=2)
        rho = rng.uniform(-0.9, 0.9)
        src = SemanticSourceGaussian(p_s, p_u, rho * np.sqrt(p_s * p_u))
        ch = WiretapChannelGaussian(
            rng.uniform(0.5, 2.0), rng.uniform(0.05, 0.5), rng.uniform(0.01, 1.0)
        )
        r = rng.uniform(0.0, 2.0)
        r_k = rng.uniform(0.0, 0.5)
        floor = (1.0 - src.rho2) * src.P_s
        d_s = floor + (src.P_s - floor) * rng.uniform(0.1, 0.9)
        d_u = src.P_u * rng.uniform(0.1, 0.9)
        # Zero channel uses: every raw cap is key rate plus entropy minus RDF.
        caps0 = converse_equivocation_caps(src, ch, d_s, d_u, r=0.0, R_k=r_k, case=2)
        worst = max(
            worst,
            abs(caps0.raw_delta_s - (r_k + src.h_s - gaussian_rdf_sem(src, d_s, 2))),
            abs(caps0.raw_delta_u - (r_k + src.h_u - gaussian_rdf_obs(src, d_u))),
            abs(caps0.raw_delta_su
                - (r_k + src.h_su - gaussian_rdf_joint(src, d_s, d_u, 2))),
        )
        # Restricted encoder: the observation cap uses the full-power slope.
        caps1 = converse_equivocation_caps(src, ch, d_s, d_u, r=r, R_k=r_k, case=1)
        expect_u = r_k + r * ch.secrecy_capacity + src.h_u - gaussian_rdf_obs(src, d_u)
        worst = max(worst, abs(caps1.raw_delta_u - expect_u))
    for _ in range(50):
        alpha = rng.uniform(0.05, 0.45)
        src = SemanticSourceBinary(alpha)
        ch = WiretapChannelBinary(rng.uniform(0.01, 0.45), rng.uniform(0.01, 0.45))
        r = rng.uniform(0.0, 2.0)
        r_k = rng.uniform(0.0, 0.5)
        d_s = alpha + (0.5 - alpha) * rng.uniform(0.05, 0.95)
        d_u = rng.uniform(0.01, 0.5)
        caps0 = binary_converse_caps(src, ch, d_s, d_u, r=0.0, R_k=r_k, case=1)
        worst = max(
            worst,
            abs(caps0.raw_delta_s - (r_k + 1.0 - binary_rdf_sem(alpha, d_s, 1))),
            abs(caps0.raw_delta_u
                - (r_k + src.h_alpha - binary_rdf_obs(alpha, d_u))),
        )
        capsr = binary_converse_caps(src, ch, d_s, d_u, r=r, R_k=r_k, case=1)
        expect_u = (
            r_k + r * ch.secrecy_capacity + src.h_alpha
            - binary_rdf_obs(alpha, d_u)
        )
        worst = max(worst, abs(capsr.raw_delta_u - expect_u))
    _report(7, "converse reduction identities", worst <= 1e-9,
            f"worst identity error {worst:.2e} over 100 random points")


def test_criterion_8_cli_determinism(tmp_path):
    jobs = [
        ("inner", ["inner", "--preset", "gaussian-inner-nosecrecy",
                   "--case", "2", "--samples", "20000"]),
        ("curve", ["curve", "--preset", "binary-tradeoff-fig5"]),
        ("converse", ["converse", "--preset", "gaussian-converse-fig3",
                      "--case", "2"]),
    ]
    mismatches = []
    for name, argv in jobs:
        dirs = []
        for tag in ("a", "b"):
            run_dir = tmp_path / f"{name}_{tag}"
            run_dir.mkdir()
            out = run_dir / "artifact.csv"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, f"{name} run {tag} exited {code}"
            dirs.append(run_dir)
        blobs = [
            {f.name: f.read_bytes() for f in sorted(d.iterdir())} for d in dirs
        ]
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    _report(8, "byte-identical command reruns", not mismatches,
            f"jobs: {', '.join(name for name, _ in jobs)}"
            + (f"; mismatched: {mismatches}" if mismatches else ""))
