"""Command-line surface: artifact formats, determinism, and exit codes."""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import render_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semsec
from semsec import (DISABLED, RegionSurface, ValidationError, cli, config_hash, dump_config,
                    load_config, verify)
from semsec.cli import _render_surfaces, main
from semsec.config import (RunConfig, build_channel, build_source, get_preset, preset_names,
                           resolve_distortion_grid)
from semsec.gaussian import REASON_NAMES
from semsec.regions import converse_surface

PRESETS = (
    "binary-tradeoff-fig5",
    "gaussian-converse-fig3",
    "gaussian-inner-nosecrecy",
    "gaussian-inner-semantic",
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment of a child interpreter that imports this ``semsec``."""
    src = str(Path(semsec.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


class TestPresets:
    def test_list(self, capsys):
        code, out, _ = run_cli(["preset", "list"], capsys)
        assert code == 0
        listed = [line.strip() for line in out.strip().splitlines()]
        for name in PRESETS:
            assert any(name in line for line in listed)

    def test_show_round_trips(self, capsys):
        for name in PRESETS:
            code, out, _ = run_cli(["preset", "show", name], capsys)
            assert code == 0
            loaded = load_config(json.loads(out))
            assert config_hash(loaded) == config_hash(get_preset(name))

    def test_show_unknown(self, capsys):
        code, _, err = run_cli(["preset", "show", "nope"], capsys)
        assert code == 2
        assert "nope" in err

    def test_show_missing_name(self, capsys):
        code, _, _ = run_cli(["preset", "show"], capsys)
        assert code == 2


class TestRdfCommand:
    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["rdf", "--model", "gaussian", "--d-s", "0.5", "--d-u", "0.6"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# semsec-artifact v2"
        assert lines[1].startswith("# config-hash=")
        assert "seed=" in lines[1]
        assert lines[2] == "case,D_s,D_u,feasible,R_s,R_u,R_joint"
        fields = lines[3].split(",")
        assert fields[0] == "2" and fields[3] == "1"
        assert float(fields[6]) == pytest.approx(0.3848939535930074, abs=1e-11)

    def test_infeasible_point_exit3(self, capsys):
        code, out, _ = run_cli(
            ["rdf", "--model", "binary", "--case", "1",
             "--d-s", "0.2", "--d-u", "0.25"], capsys
        )
        assert code == 3
        row = out.strip().splitlines()[-1].split(",")
        assert row[3] == "0"
        assert row[4] == row[5] == row[6] == ""

    def test_missing_point_exit2(self, capsys):
        code, _, err = run_cli(["rdf", "--model", "gaussian"], capsys)
        assert code == 2
        assert "--d-s" in err


class TestConverseCommand:
    def test_small_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "gaussian", "mode": "converse", "cases": [1, 2],
            "delta_s": "-inf", "delta_u": "-inf", "delta_su": "-inf",
            "d_s_grid": 4, "d_u_grid": 4,
        }))
        code, out, _ = run_cli(["converse", "--config", str(cfg)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[2] == "case,D_s,D_u,r_min,feasible,samples"
        data = [line.split(",") for line in lines[3:]]
        assert len(data) == 2 * 16
        assert "nan" not in out and "inf" not in out
        for row in data:
            if row[4] == "1":
                assert float(row[3]) >= 0.0

    def test_infeasible_everywhere_exit3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "gaussian", "mode": "converse", "cases": [2],
            "channel": {"P": 1.0, "P_N1": 0.1, "P_N2": 0.0},
            "delta_s": 1.7, "delta_u": "-inf", "delta_su": "-inf",
            "d_s_grid": 2, "d_u_grid": 2,
        }))
        out_file = tmp_path / "surface.csv"
        code, _, _ = run_cli(
            ["converse", "--config", str(cfg), "--out", str(out_file)], capsys
        )
        assert code == 3
        body = out_file.read_text()
        rows = [line.split(",") for line in body.strip().splitlines()[3:]]
        assert rows and all(row[4] == "0" for row in rows)
        assert all(row[3] == "" for row in rows)

    def test_case_filter_and_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "gaussian", "mode": "converse",
            "cases": [1, 2], "d_s_grid": 3, "d_u_grid": 3,
            "delta_s": "-inf", "delta_u": "-inf", "delta_su": "-inf",
        }))
        code, out, _ = run_cli(
            ["converse", "--config", str(cfg), "--case", "1", "--seed", "9"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "seed=9" in lines[1]
        assert all(line.split(",")[0] == "1" for line in lines[3:])


#: sha256 of converse artifacts, frozen before surfaces were evaluated grid at
#: once; both paths must write the same bytes. The 300 x 300 fig-3 surface
#: (both cases, 180k cells) was frozen while CSV rows were still formatted
#: cell by cell. The digests hold for glibc's libm, since the values carry
#: its log2 and pow bits.
CONVERSE_PINS = {
    ("gaussian-fig3-300", "csv"): "244955a2531fe5c94488e48559b0f47389992b81773b6147c2d313747209946a",
    ("gaussian-fig3", "csv"): "c2ac8afa55be7b5547b9b56c9a26b584845b9128620e58e36fafc43e27553764",
    ("gaussian-fig3", "json"): "c743b44935268f972f832c59fc2e0e8016e47782d61429563d90af8e10ee0bde",
    ("binary-case1", "csv"): "4d5cea0e717a38399da999716eb061ab91b0f57bb3b90b5ea2e092c80d5d7360",
    ("binary-case1", "json"): "7291a7a3047821fa31b1747da239a6e17854f5998a464ae8620c533933c7a662",
    ("binary-case2-cell", "csv"): "bfd43f8dbbc13cfcc5c709e84f39a8583df22bc997b848aed702489926f95720",
    ("binary-case2-cell", "json"): "64ce22038d138a02a71b9f4ea1c4ff9f2a3c538b3d1f1ccccc3021cfe3bc1b70",
}


@pytest.mark.parametrize("which, fmt", sorted(CONVERSE_PINS))
def test_converse_artifact_bytes_are_pinned(which, fmt, tmp_path, capsys):
    if which == "gaussian-fig3":  # both cases, with semantic-secrecy targets
        argv = ["converse", "--preset", "gaussian-converse-fig3"]
    elif which == "gaussian-fig3-300":  # the same on the benchmark's 300 x 300 grid
        path = tmp_path / "fig3-300.json"
        dump_config(replace(get_preset("gaussian-converse-fig3"), d_s_grid=300, d_u_grid=300),
                    path)
        argv = ["converse", "--config", str(path)]
    elif which == "binary-case1":  # the default binary grid, 40 x 40
        argv = ["converse", "--model", "binary", "--case", "1"]
    else:  # one solver cell, where the dual bound exceeds the rate
        path = tmp_path / "cell.json"
        dump_config(RunConfig(model="binary", mode="converse", cases=(2,),
                              d_s_grid={"points": [0.0625]},
                              d_u_grid={"points": [0.3125]}), path)
        argv = ["converse", "--config", str(path)]
    code, out, _ = run_cli(argv + ["--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONVERSE_PINS[which, fmt]


finite = st.floats(allow_nan=False, allow_infinity=False)
#: Values that test the per-bit-pattern formatting: both zeros, the smallest
#: subnormal and normal, the largest float, and neighbours that agree in
#: their first 12 significant digits.
EDGE_VALUES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.1, 0.10000000000000002, 0.1000000000001, 1.0, 1.0000000000001, 123456789012.5,
               123456789012.25)


@st.composite
def surfaces(draw):
    """One or two {case: RegionSurface} entries, each cell picking its value
    and sample count from a small pool, so values repeat heavily."""
    out = {}
    for case in draw(st.sampled_from([(1,), (2,), (1, 2)])):
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        values = draw(st.lists(st.one_of(finite, st.sampled_from(EDGE_VALUES)),
                               min_size=1, max_size=5)) + draw(st.sampled_from([[], [0.0, -0.0]]))
        counts = draw(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**63 - 1)),
                               min_size=1, max_size=3))
        pick = st.lists(st.integers(0, 10**6), min_size=n * m, max_size=n * m)
        feasible = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
        cells = np.array([values[i % len(values)] for i in draw(pick)])
        out[case] = RegionSurface(
            axes={"D_s": np.array(draw(st.lists(finite, min_size=n, max_size=n))),
                  "D_u": np.array(draw(st.lists(finite, min_size=m, max_size=m)))},
            values=np.where(feasible, cells, np.nan).reshape(n, m),
            samples=np.array([counts[i % len(counts)] for i in draw(pick)]).reshape(n, m),
        )
    return out


def _surface(values, feasible, samples, d_s=(0.5,), d_u=(0.25,)):
    values, feasible = np.array(values, dtype=float), np.array(feasible)
    return {1: RegionSurface(axes={"D_s": np.array(d_s), "D_u": np.array(d_u)},
                             values=np.where(feasible, values, np.nan),
                             samples=np.array(samples))}


@settings(max_examples=150, deadline=None)
@given(surfaces=surfaces())
@example(surfaces=_surface([[1.0]], [[True]], [[0]]))  # 1 x 1
@example(surfaces=_surface([[0.0, 0.0]], [[False, False]], [[0, 7]], d_u=(0.25, -0.0)))
@example(surfaces=_surface([[-0.0], [0.0], [-0.0]], [[True]] * 3, [[2**63 - 1]] * 3,
                           d_s=(5e-324, 0.0, -0.0)))
@example(surfaces=_surface([[0.1, 0.10000000000000002, 0.1000000000001]], [[True] * 3],
                           [[0, 10**18, 0]], d_u=(1e308, 1.0000000000001, 1.0)))
def test_surface_csv_matches_the_per_cell_oracle(surfaces):
    cfg = RunConfig()
    text = "".join(_render_surfaces(surfaces, cfg, "csv"))
    assert text == render_oracle.surface_csv(surfaces, cfg)


@pytest.mark.parametrize("block_cells", [1, 5])  # 5 splits the rows of most surfaces
@settings(max_examples=100, deadline=None)
@given(surfaces=surfaces())
@example(surfaces=_surface([[0.5, 0.0, 2.0], [0.5, -0.0, 3.0]],
                           [[True, False, True], [True, True, True]], [[0, 1, 2], [3, 4, 5]],
                           d_s=(0.5, 0.75), d_u=(0.25, 0.5, 1.0)))
def test_surface_csv_in_small_blocks_matches_the_per_cell_oracle(block_cells, surfaces):
    cfg = RunConfig()
    with mock.patch.object(cli, "_BLOCK_CELLS", block_cells):
        blocks = list(_render_surfaces(surfaces, cfg, "csv"))
    sizes = [surface.feasible.size for surface in surfaces.values()]
    assert len(blocks) == 1 + sum(-(-size // block_cells) for size in sizes)
    assert all(0 < block.count("\n") <= block_cells for block in blocks[1:])
    assert "".join(blocks) == render_oracle.surface_csv(surfaces, cfg)


def _fig3_surfaces(n):
    """The fig-3 preset on an n x n grid and its {case: RegionSurface} mapping."""
    cfg = replace(get_preset("gaussian-converse-fig3"), d_s_grid=n, d_u_grid=n)
    src, ch = build_source(cfg), build_channel(cfg)
    hi_s, hi_u = src.distortion_range
    grids = (resolve_distortion_grid(n, hi_s), resolve_distortion_grid(n, hi_u))
    return cfg, {case: converse_surface(src, ch, cfg.targets(), case, *grids)
                 for case in cfg.cases}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_out_write_the_same_bytes(fmt, tmp_path, capsys):
    # More cells per case than one block holds, so each CSV surface is
    # written in several blocks.
    n = math.isqrt(cli._BLOCK_CELLS) + 1
    cfg, surfaces = _fig3_surfaces(n)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    out = tmp_path / "sub" / f"fig3.{fmt}"
    argv = ["converse", "--config", str(path), "--format", fmt]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert run_cli(argv + ["--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == stdout.encode()
    if fmt == "csv":
        assert stdout == render_oracle.surface_csv(surfaces, cfg)


def test_surface_csv_is_written_without_holding_the_artifact(tmp_path):
    # The 300 x 300 fig-3 artifact is 7.5 MB of text; rendering and writing
    # it must allocate far less than that above the surfaces it reads.
    # Holding it whole, with the pieces it was joined from, took 20.6 MB.
    cfg, surfaces = _fig3_surfaces(300)
    out = tmp_path / "fig3.csv"
    tracemalloc.start()
    try:
        cli._emit(cli._render_surfaces(surfaces, cfg, "csv"), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CONVERSE_PINS["gaussian-fig3-300", "csv"]
    assert peak < 6 * 2**20


#: sha256 of inner-scan artifacts (20k draws, seed 2468), frozen before the
#: sampler wrote coordinate-major factors and the Gram-Schmidt pass skipped
#: zero dims; both must write the same bytes. Frozen again when the scan
#: gained its constructive batch (the no-secrecy artifacts gained buckets,
#: every JSON a ``constructive`` entry) and the secrecy slopes became one
#: log1p each (the semantic JSONs moved in the last digits of some values;
#: their CSVs kept their bytes). The no-secrecy case-2 JSON was frozen again
#: when the constructive draws split their power by their own rate terms
#: (48 values moved by at most 7e-14 relative). All eight were frozen again
#: when the scan gained its secret-layer batch: every artifact gained the
#: buckets that batch covers (covered buckets 355 / 844 / 242 / 125 →
#: 840 / 1600 / 747 / 1439 for nosecrecy c1 / c2 and semantic c1 / c2) and
#: every JSON a ``secret_layer`` entry. The two semantic JSONs were frozen
#: again when a secret-layer centre accepted at no split began to report the
#: highest reason code over the splits, not the first split's: their
#: ``secret_layer`` ``common_rate`` counts, 102 (c1) and 163 (c2), became
#: ``unsound_s`` 80 / 120 and ``unsound_su`` 22 / 43; no other byte moved.
#: The digests hold for numpy's ``Generator`` streams (PCG64 and its
#: distribution methods) and for glibc's libm, since the draws carry both.
INNER_PINS = {
    ("nosecrecy", 1, "csv"): "76d4a4eb95fea983932995674fe265e0cc779f02876bc5428c2c114c930b3ab0",
    ("nosecrecy", 1, "json"): "81aa75fff0c834ad94231ba139ce7f514c0874944d0a7a0074fb07ae0914a9d4",
    ("nosecrecy", 2, "csv"): "5f1f7d9c4e556f1b7ee7e033ac285f3a8f8e7cb869554efc0b07bfa86f583bb6",
    ("nosecrecy", 2, "json"): "4798488c33649ce97b9b8e7de3eb499f728d23f1d9e3d190bfa44c878ece3457",
    ("semantic", 1, "csv"): "7bd222d9f57a53880683c3bbe482ec26216336c0833aeeb8f53c471c8a6707f9",
    ("semantic", 1, "json"): "9f5209b53c52a663bc85982faf09faff4ec73aabb35f40befa5091eedac08f05",
    ("semantic", 2, "csv"): "c4d26288d30a21899f8c716a62b93614e066a6a35463b76feae41c8f4b4b34b2",
    ("semantic", 2, "json"): "198fa89bbc37e00278d2137afb2851cc48bbeb52a7c02a137b4ce086de52595f",
}


@pytest.mark.parametrize("preset, case, fmt", sorted(INNER_PINS))
def test_inner_artifact_bytes_are_pinned(preset, case, fmt, capsys):
    code, out, _ = run_cli(
        ["inner", "--preset", f"gaussian-inner-{preset}", "--case", str(case),
         "--samples", "20000", "--seed", "2468", "--format", fmt], capsys
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INNER_PINS[preset, case, fmt]


#: sha256 of the artifacts that carry the secrecy slope, frozen while the
#: converse still took power-share and time-sharing parameters: the four
#: fig-5 curve files, a binary case-1 converse with all three targets enabled
#: and the ``semsec verify`` report. The report's digest was frozen again when
#: its two secrecy-capacity checks were relabelled; no value changed. The
#: digests hold for glibc's libm.
SLOPE_PINS = {
    ("binary-case1-targets", "csv"): "33dc64133e12a9fb7b5adb8b3c2a4b8243f015044673ae232104467f40810bbe",
    ("binary-case1-targets", "json"): "1825fd81893bd293003020a50bb7a8f8233d09363f22d82bc970b91860645ad0",
    ("fig5_case1_rk0", "csv"): "17d79398e58525c9ecab81541d80b87bb3c0cbeabae9bf1c67e816e32fb81009",
    ("fig5_case1_rk0", "json"): "72e9b3887ffd9f1a42d72fa5672d344e51a5deaf0883643281cfed2dc4ca191b",
    ("fig5_case1_rk0.1", "csv"): "da4a4bc5a12e5f6f4c4ef6fc7eba525e841e4680d56825632fd1cc195a965df6",
    ("fig5_case1_rk0.1", "json"): "9b211448a3c301ace7561b4df88aeddb47a5a0a613fb09c6de3f54666a231c48",
    ("fig5_case2_rk0", "csv"): "c7f8d21ec314607332fd6777b8e00240b867ff29a7633afcd52b6b2d8e138b64",
    ("fig5_case2_rk0", "json"): "8b6d61f58d1b4f063c6010a6babf7348a7138a5d29107904198ef853c63eade1",
    ("fig5_case2_rk0.1", "csv"): "394004a27f901ca18c34aefe10715e46417066596d86e57123eca16545353860",
    ("fig5_case2_rk0.1", "json"): "3dd01e15c5fe33a8dc7fc7733d8f5b3abb4e146af0a94a06674b5f1b3a626459",
    ("verify", "json"): "d680b3c6be8004284ad090049cd255b6992ba50ebd2b14fced40e2db3ae80e6b",
}


@pytest.mark.parametrize("which, fmt", sorted(SLOPE_PINS))
def test_secrecy_slope_artifact_bytes_are_pinned(which, fmt, tmp_path, capsys):
    if which.startswith("fig5"):  # one file per (case, key rate) variant
        argv = ["curve", "--preset", "binary-tradeoff-fig5",
                "--out", str(tmp_path / f"fig5.{fmt}")]
    elif which == "verify":
        argv = ["verify"]
    else:
        path = tmp_path / "targets.json"
        dump_config(RunConfig(model="binary", mode="converse", cases=(1,),
                              delta_s=0.9, delta_u=0.5, delta_su=1.2), path)
        argv = ["converse", "--config", str(path)]
    if which != "verify":
        argv += ["--format", fmt]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if which.startswith("fig5"):
        out = (tmp_path / f"{which}.{fmt}").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == SLOPE_PINS[which, fmt]


#: sha256 of ``semsec rdf`` artifacts, both cases per file, frozen while the
#: command still branched on the model and called the scalar RDFs: one
#: distortion pair below the case-1 floor and one above it per model. The
#: digests hold for glibc's libm.
RDF_PINS = {
    ("binary", 0.1, 0.25, "csv"): "c7598ea6c9681207aed8a551ea437505a89b36e68845d09ef2bb5be18834a363",
    ("binary", 0.1, 0.25, "json"): "8a428f65476e524eb4fa25af245567283056724655e92feeda1bb4151edd92b2",
    ("binary", 0.3, 0.25, "csv"): "2f35fe82212e2fbf0f6c563d932db2ca6ca9d6f8b805c4d0051fa134771d314e",
    ("binary", 0.3, 0.25, "json"): "ddd2483ddd3f99ab783426b9f698610a143c324f6ee09a71b862033b2ed83315",
    ("gaussian", 0.2, 0.6, "csv"): "147a3528b45849c5feca451ae7e58eb7d8e32fdd0319f5ed12a01ae8fc88401c",
    ("gaussian", 0.2, 0.6, "json"): "8adb80102ccc88356777075964de660e3c99d85af82a1bb076ea5757319155c5",
    ("gaussian", 0.5, 0.6, "csv"): "07ab0fdb4a9d89b49db3901f7247fc20d931a73b98a604236f316db71fa935d3",
    ("gaussian", 0.5, 0.6, "json"): "bada4023786cbec7ad287b3662e170826924e715a0d0a413cdc964f899b0b837",
}


@pytest.mark.parametrize("model, d_s, d_u, fmt", sorted(RDF_PINS))
def test_rdf_artifact_bytes_are_pinned(model, d_s, d_u, fmt, tmp_path, capsys):
    path = tmp_path / "rdf.json"
    dump_config(RunConfig(model=model, cases=(1, 2)), path)
    code, out, _ = run_cli(["rdf", "--config", str(path), "--d-s", str(d_s),
                            "--d-u", str(d_u), "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RDF_PINS[model, d_s, d_u, fmt]


class TestCurveCommand:
    def test_variant_files_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a" / "fig5.csv"
        out_a.parent.mkdir()
        code, _, _ = run_cli(
            ["curve", "--preset", "binary-tradeoff-fig5", "--out", str(out_a)], capsys
        )
        assert code == 0
        expected = [
            out_a.with_name(f"fig5_case{case}_rk{rk:g}.csv")
            for case in (1, 2) for rk in (0.0, 0.1)
        ]
        for path in expected:
            assert path.exists(), path.name
        out_b = tmp_path / "b" / "fig5.csv"
        out_b.parent.mkdir()
        code, _, _ = run_cli(
            ["curve", "--preset", "binary-tradeoff-fig5", "--out", str(out_b)], capsys
        )
        assert code == 0
        for path in expected:
            twin = out_b.parent / path.name
            assert path.read_bytes() == twin.read_bytes()

    def test_gaussian_curve(self, capsys):
        code, out, err = run_cli(["curve", "--model", "gaussian", "--case", "1"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[2] == "D_s,delta_s_max,capped"
        assert "nan" not in out and "inf" not in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields, message", [
        ({"cases": [1], "source": {"P_su": 0.0}},
         "error: the case-1 floor 0.7 leaves no D_s range below 0.7\n"),
        ({"d_s_grid": {"points": [1e-320, 0.5]}},
         "error: the semantic RDF is not finite at D_s = 1e-320: the distortion is too small "
         "to evaluate\n"),
    ], ids=("floor", "overflow"))
    def test_gaussian_curve_out_of_range_exit2(self, fields, message, tmp_path, capsys):
        # With P_su = 0 the case-1 floor is P_s itself, so no D_s grid lies
        # above it; a D_s near the smallest floats overflows R_S(D_s). One
        # error line each, and no numpy warning.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian", "mode": "curve", **fields}))
        assert run_cli(["curve", "--config", str(path)], capsys) == (2, "", message)

    def test_curve_schema(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--preset", "binary-tradeoff-fig5", "--case", "1"], capsys
        )
        assert code == 0
        # Two key-rate variants are concatenated on stdout.
        headers = [l for l in out.splitlines() if l.startswith("D_s,")]
        assert headers and all(h == "D_s,delta_s_max,capped" for h in headers)


class TestInnerCommand:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["inner", "--preset", "gaussian-inner-nosecrecy",
                "--case", "2", "--samples", "3000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        blob = a.read_bytes()
        assert blob == b.read_bytes()
        assert b"nan" not in blob and b"inf" not in blob

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["inner", "--preset", "gaussian-inner-nosecrecy", "--case", "2",
             "--samples", "2000", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["artifact"] == "semsec-artifact v2"
        assert doc["rows"]
        samples_col = doc["columns"].index("samples")
        accepted = sum(row[samples_col] for row in doc["rows"])
        assert accepted > 0

    @pytest.mark.parametrize("delta_s, code_want", [("-inf", 0), (5.0, 3)])
    def test_exit_3_only_when_no_bucket_is_covered(self, delta_s, code_want, tmp_path, capsys):
        # Seed 3's one random draw is discarded; without targets the
        # constructive batch still covers buckets, and a target above h_s
        # leaves every bucket empty.
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"model": "gaussian", "mode": "inner", "cases": [2],
                                   "samples": 1, "seed": 3, "d_s_grid": 4, "d_u_grid": 4,
                                   "delta_s": delta_s}))
        code, out, err = run_cli(["inner", "--config", str(cfg), "--format", "json"], capsys)
        assert code == code_want
        meta = json.loads(out)["metadata"]["case2"]
        assert meta["accepted"] == 0
        assert (meta["constructive"]["accepted"] > 0) == (code == 0)
        assert ("no draw satisfied" in err) == (code == 3)

    def test_large_variances(self, tmp_path, capsys):
        # Variances near 1e9: no draw is gated, so the scan still accepts.
        cfg = tmp_path / "large.json"
        cfg.write_text(json.dumps({
            "model": "gaussian", "mode": "inner", "cases": [1, 2], "samples": 3000, "seed": 3,
            "d_s_grid": 10, "d_u_grid": 10,
            "source": {"P_s": 0.7e9, "P_u": 1e9, "P_su": 0.6e9},
            "channel": {"P": 1e9, "P_N1": 1e8, "P_N2": 4e8},
        }))
        code, out, _ = run_cli(["inner", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        for case in ("case1", "case2"):
            meta = doc["metadata"][case]
            assert meta["accepted"] > 0
            reasons = meta["discard_reasons"]
            assert "degenerate" not in reasons
            assert set(reasons) <= set(REASON_NAMES.values())


class TestExitCodes:
    def test_bad_config_exit2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": "gaussian", "mystery_knob": 3}))
        code, _, err = run_cli(["converse", "--config", str(cfg)], capsys)
        assert code == 2
        assert "mystery_knob" in err

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gaussian"}))
        code, _, _ = run_cli(
            ["converse", "--config", str(cfg),
             "--preset", "gaussian-converse-fig3"], capsys
        )
        assert code == 2

    def test_mode_mismatch_exit2(self, capsys):
        code, _, _ = run_cli(
            ["inner", "--preset", "binary-tradeoff-fig5"], capsys
        )
        assert code == 2

    def test_verify_exit0(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "pass" in out.lower()

    def test_floor_check_passes_only_on_infeasible(self, monkeypatch):
        # Only the restricted encoder's InfeasibleError counts as the
        # expected raise; any other error is a defect and must surface.
        real = verify.equivocation_caps

        def broken(src, ch, d_s, d_u, r, R_k=0.0, case=2):
            if case == 1:  # the floor check's call
                raise TypeError("broken")
            return real(src, ch, d_s, d_u, r, R_k, case)

        monkeypatch.setattr(verify, "equivocation_caps", broken)
        with pytest.raises(TypeError, match="broken"):
            verify.run_verification()

    @pytest.mark.parametrize("fields", [
        {"mode": "converse", "d_s_grid": {"n": 4}},
        {"mode": "inner", "d_u_grid": [0.1, 0.2]},
        {"mode": "converse", "d_s_grid": {"points": 5}},
        {"mode": "converse", "d_u_grid": [[0.1], [0.2, 0.3]]},
        {"mode": "converse", "d_u_grid": ["a"]},
    ], ids=("n-mapping", "inner-point-list", "points-not-a-list", "ragged", "not-numbers"))
    def test_unsupported_grid_exit2(self, fields, tmp_path, capsys):
        raw = {"model": "gaussian", **fields}
        with pytest.raises(ValidationError, match="grid"):
            load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli([raw["mode"], "--config", str(path)], capsys)
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("fields, field", [
        ({"cases": 2}, "cases"),
        ({"cases": ["a"]}, "cases"),
        ({"cases": [1.5]}, "cases"),
        ({"cases": [True]}, "cases"),
        ({"R_k_values": 0.1}, "R_k_values"),
        ({"R_k_values": ["x"]}, "R_k_values"),
        ({"source": [1, 2]}, "source"),
        ({"model": ["gaussian"]}, "model"),
        ({"samples": True}, "samples"),
        ({"cases": [2, 2]}, "cases"),
        ({"R_k_values": [0.1, 0.1]}, "R_k_values"),
        ({"name": [1]}, "name"),
        ({"name": {}}, "name"),
        ({"name": float("nan")}, "name"),
    ], ids=("cases-int", "cases-string", "cases-float", "cases-bool", "rk-values-float",
            "rk-values-string", "source-list", "model-list", "samples-bool",
            "cases-repeated", "rk-values-repeated", "name-list", "name-mapping", "name-nan"))
    def test_malformed_field_exit2(self, fields, field, tmp_path, capsys):
        # Checked before any coercion: a ValidationError, never a TypeError,
        # and never silently read as another value. A repeated case or key
        # rate would write one variant twice.
        raw = {"model": "gaussian", "mode": "converse", **fields}
        with pytest.raises(ValidationError, match=field):
            load_config(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(["converse", "--config", str(path)], capsys)
        assert code == 2
        assert field in err

    def test_name_minus_inf_stays_a_string(self):
        cfg = load_config({"name": "-inf"})
        assert cfg.name == "-inf"
        assert load_config(json.loads(dump_config(cfg))) == cfg

    def test_missing_config_file_exit2(self, tmp_path, capsys):
        # A path names a file; it is never read as JSON text.
        missing = tmp_path / "absent" / "cfg.json"
        with pytest.raises(ValidationError, match=f"cannot read {re.escape(str(missing))}"):
            load_config(missing)
        with pytest.raises(ValidationError, match="cannot read"):
            load_config('{"model": "gaussian"}')
        code, _, err = run_cli(["converse", "--config", str(missing)], capsys)
        assert code == 2
        assert f"cannot read {missing} (No such file or directory)" in err

    @pytest.mark.parametrize("command", ["converse", "curve"])
    @pytest.mark.parametrize("target", ["under-a-file", "a-directory"])
    def test_unwritable_out_exit2(self, command, target, tmp_path, capsys):
        blocker = tmp_path / "taken.csv"
        blocker.write_text("kept\n")
        out = blocker / "x.csv" if target == "under-a-file" else tmp_path
        if command == "converse":
            argv = ["converse", "--model", "gaussian", "--case", "1"]
        else:  # one variant, so --out names the file itself and not a sibling
            path = tmp_path / "curve.json"
            dump_config(replace(get_preset("binary-tradeoff-fig5"), cases=(1,),
                                R_k_values=(0.1,)), path)
            argv = ["curve", "--config", str(path)]
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith(f"error: out: cannot write {out} (")
        assert err.count("\n") == 1 and err.endswith(")\n")
        assert blocker.read_text() == "kept\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command, fields, cell", [
        ("converse", {"d_s_grid": {"points": [1e-160, 0.5]},
                      "d_u_grid": {"points": [1e-160, 0.5]}}, "(1e-160, 1e-160)"),
        ("rdf", {}, "(1e-320, 0.5)"),
        ("rdf", {"source": {"P_s": 2.0**-511, "P_u": 2.0**-511, "P_su": 0.0}},
         f"({2.0**-600}, {math.nextafter(2.0**-511, 0.0)})"),
    ], ids=("converse", "rdf", "rdf-no-regime"))
    def test_overflowing_rdf_exit2(self, command, fields, cell, tmp_path, capsys):
        # Distortions near the smallest floats overflow the Gaussian closed
        # forms: one error line that names the cell, and no numpy warning.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian", "cases": [2], **fields}))
        argv = [command, "--config", str(path)]
        if command == "rdf":
            d_s, d_u = cell.strip("()").split(", ")
            argv += ["--d-s", d_s, "--d-u", d_u]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at (D_s, D_u) = {cell}" in err or f"degenerate at {cell}" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_very_negative_target_scans_without_warnings(self, tmp_path, capsys):
        # Every draw meets a target of -1e308 at r = 0, and the acceptance
        # rule does not divide it by a near-zero slope on the way there.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "inner", "delta_s": -1e308}))
        code, out, err = run_cli(["inner", "--config", str(path), "--samples", "2000"], capsys)
        assert code == 0 and err == ""
        assert "\ncase,D_s,D_u,r_min,feasible,samples\n" in out

    def test_undecodable_config_file_exit2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe\x00{")
        code, _, err = run_cli(["converse", "--config", str(path)], capsys)
        assert code == 2
        assert f"{path} is not valid JSON" in err

    @pytest.mark.parametrize("source", [
        {"P_s": 1e170, "P_u": 1e170, "P_su": 1e170},  # P_su^2 overflows
        {"P_s": 1e200, "P_u": 1e200, "P_su": 0.0},  # P_s P_u overflows
        {"P_s": 1e-200, "P_u": 1e-200, "P_su": 0.0},  # P_s P_u underflows
    ], ids=("square-overflows", "product-overflows", "product-underflows"))
    def test_source_products_out_of_range_exit2(self, source, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian", "source": source}))
        code, out, err = run_cli(["converse", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: source parameters out of range") and err.count("\n") == 1

    def test_closed_stdout_exit2(self, tmp_path):
        # The reader takes one line and closes the pipe while the artifact of
        # a 300 x 300 grid, about 6 MB, is still being written.
        path = tmp_path / "fig3-300.json"
        dump_config(replace(get_preset("gaussian-converse-fig3"), d_s_grid=300, d_u_grid=300),
                    path)
        child = subprocess.Popen(
            [sys.executable, "-m", "semsec.cli", "converse", "--config", str(path)],
            env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 2
        assert first == "# semsec-artifact v2\n"
        assert err == "error: stdout was closed before the output was written\n"


TOP_USAGE = "usage: semsec [-h] {converse,inner,curve,rdf,verify,preset} ...\n"
COMMON_OPTIONS = """\
  --config CONFIG       path to a run-config JSON file
  --preset PRESET       name of a bundled preset (see 'preset list')
  --model {gaussian,binary}
  --case {1,2}          restrict to one encoder case
  --seed SEED
"""
CONVERSE_USAGE = """\
usage: semsec converse [-h] [--config CONFIG] [--preset PRESET]
                       [--model {gaussian,binary}] [--case {1,2}]
                       [--seed SEED] [--out OUT] [--format {csv,json}]
"""
INNER_USAGE = """\
usage: semsec inner [-h] [--config CONFIG] [--preset PRESET]
                    [--model {gaussian,binary}] [--case {1,2}] [--seed SEED]
                    [--samples SAMPLES] [--out OUT] [--format {csv,json}]
"""
PRESET_USAGE = "usage: semsec preset [-h] {list,show} [name]\n"
OUT_FORMAT = """\
  --out OUT             output path (stdout when omitted)
  --format {csv,json}
"""

#: (exit code, stdout, stderr) of the parser's help, usage and error text,
#: frozen when every call built the parser of all six commands.
PARSER_TEXT = {
    (): (2, "", TOP_USAGE + "semsec: error: the following arguments are required: command\n"),
    ("--help",): (0, TOP_USAGE + """
Secure semantic communication bounds: converse and inner-bound evaluation,
RDFs, and tradeoff curves.

positional arguments:
  {converse,inner,curve,rdf,verify,preset}
    converse            minimal ratio over a distortion grid
    inner               Monte-Carlo inner-bound scan
    curve               semantic tradeoff curve
    rdf                 rate-distortion values at one point
    verify              fast self-check battery
    preset              list or show bundled presets

options:
  -h, --help            show this help message and exit
""", ""),
    ("bogus",): (2, "", TOP_USAGE + "semsec: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'converse', 'inner', 'curve', 'rdf', 'verify', 'preset')\n"),
    ("converse", "--help"): (0, CONVERSE_USAGE + """
options:
  -h, --help            show this help message and exit
""" + COMMON_OPTIONS + OUT_FORMAT, ""),
    ("inner", "--help"): (0, INNER_USAGE + """
options:
  -h, --help            show this help message and exit
""" + COMMON_OPTIONS + "  --samples SAMPLES     Monte-Carlo sample count\n" + OUT_FORMAT, ""),
    ("curve", "--help"): (0, """\
usage: semsec curve [-h] [--config CONFIG] [--preset PRESET]
                    [--model {gaussian,binary}] [--case {1,2}] [--seed SEED]
                    [--out OUT] [--format {csv,json}]

options:
  -h, --help            show this help message and exit
""" + COMMON_OPTIONS + OUT_FORMAT, ""),
    ("rdf", "--help"): (0, """\
usage: semsec rdf [-h] [--config CONFIG] [--preset PRESET]
                  [--model {gaussian,binary}] [--case {1,2}] [--seed SEED]
                  [--out OUT] [--format {csv,json}] [--d-s D_S] [--d-u D_U]

options:
  -h, --help            show this help message and exit
""" + COMMON_OPTIONS + OUT_FORMAT + "  --d-s D_S\n  --d-u D_U\n", ""),
    ("verify", "--help"): (0, """\
usage: semsec verify [-h] [--out OUT]

options:
  -h, --help  show this help message and exit
  --out OUT
""", ""),
    ("preset", "--help"): (0, PRESET_USAGE + """
positional arguments:
  {list,show}
  name

options:
  -h, --help   show this help message and exit
""", ""),
    ("converse", "--samples", "3"): (
        2, "", TOP_USAGE + "semsec: error: unrecognized arguments: --samples 3\n"),
    ("inner", "--d-s", "1"): (2, "", TOP_USAGE + "semsec: error: unrecognized arguments: --d-s 1\n"),
    ("curve", "--bogus"): (2, "", TOP_USAGE + "semsec: error: unrecognized arguments: --bogus\n"),
    ("rdf", "--samples", "3"): (
        2, "", TOP_USAGE + "semsec: error: unrecognized arguments: --samples 3\n"),
    ("verify", "--seed", "1"): (
        2, "", TOP_USAGE + "semsec: error: unrecognized arguments: --seed 1\n"),
    ("preset", "list", "x", "y"): (2, "", TOP_USAGE + "semsec: error: unrecognized arguments: y\n"),
    ("converse", "--case", "3"): (2, "", CONVERSE_USAGE + "semsec converse: error: argument "
                                  "--case: invalid choice: 3 (choose from 1, 2)\n"),
    ("inner", "--samples", "x"): (2, "", INNER_USAGE + "semsec inner: error: argument --samples: "
                                  "invalid int value: 'x'\n"),
    ("preset",): (2, "", PRESET_USAGE + "semsec preset: error: the following arguments are "
                  "required: action\n"),
}


class TestParser:
    @pytest.mark.parametrize("argv", sorted(PARSER_TEXT), ids=" ".join)
    def test_help_usage_and_errors_are_pinned(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out, captured.err) == PARSER_TEXT[argv]

    @staticmethod
    def _count_parsers(monkeypatch):
        made = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return made

    def test_a_command_builds_only_its_own_parser(self, monkeypatch, capsys):
        made = self._count_parsers(monkeypatch)
        assert main(["preset", "list"]) == 0
        assert made == ["semsec", "semsec preset"]

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]], ids=("help", "empty", "bogus"))
    def test_no_command_builds_every_parser(self, argv, monkeypatch, capsys):
        made = self._count_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        assert len(made) == 7

    @pytest.mark.parametrize("extra", [[], ["--model", "gaussian", "--case", "2", "--seed", "5"]],
                             ids=("none", "equal"))
    def test_a_config_is_validated_once(self, extra, tmp_path, monkeypatch, capsys):
        # Overrides equal to the config's values leave it as it is.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "gaussian", "mode": "converse", "cases": [2],
                                    "seed": 5, "d_s_grid": 2, "d_u_grid": 2}))
        calls = []
        real = semsec.config.validate_config

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)

        monkeypatch.setattr(semsec.config, "validate_config", counted)
        assert main(["converse", "--config", str(path)] + extra) == 0
        assert len(calls) == 1


class TestConfigModule:
    def test_round_trip_with_disabled_targets(self, tmp_path):
        cfg = RunConfig(model="gaussian", mode="converse", delta_s=1.2)
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        again = load_config(path)
        assert again.delta_s == 1.2
        assert again.delta_u == DISABLED
        assert config_hash(again) == config_hash(cfg)

    def test_dump_rejects_nan(self):
        with pytest.raises(Exception):
            dump_config(RunConfig(delta_s=float("nan")))

    def test_hash_ignores_key_order(self):
        a = load_config({"model": "gaussian", "seed": 7})
        b = load_config({"seed": 7, "model": "gaussian"})
        assert config_hash(a) == config_hash(b)

    def test_mode_model_coupling(self):
        with pytest.raises(ValidationError):
            RunConfig(model="binary", mode="inner")
        # The tradeoff curve runs for both models.
        assert RunConfig(model="gaussian", mode="curve").model == "gaussian"
        with pytest.raises(ValidationError):
            RunConfig(model="gaussian", mode="inner", R_k=0.5)

    def test_channel_key_whitelist(self):
        with pytest.raises(ValidationError):
            RunConfig(model="binary", mode="converse", channel={"P_N1": 0.1})

    def test_preset_names_sorted(self):
        names = preset_names()
        assert list(names) == sorted(names)
        assert set(PRESETS) <= set(names)


class TestLazyNamespace:
    """The package root imports a module the first time one of its names is
    read, and otherwise behaves as if it had imported them all."""

    def test_dir_covers_all(self):
        assert set(semsec.__all__) <= set(dir(semsec))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from semsec import *", namespace)
        assert set(semsec.__all__) <= set(namespace)
        assert namespace["converse_surface"] is converse_surface

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'semsec' has no attribute 'nothing'"):
            semsec.nothing
        assert not hasattr(semsec, "rdf_components")


class TestImportPath:
    """The runtime needs numpy only: no CLI path may load scipy."""

    SCRIPT = """
import json, sys
from semsec.cli import main
cfg, out = sys.argv[1], sys.argv[2]
codes = [
    main(["verify", "--out", out + "/verify.json"]),
    main(["converse", "--config", cfg, "--out", out + "/cell.csv"]),
    main(["inner", "--preset", "gaussian-inner-nosecrecy", "--samples", "2000",
          "--out", out + "/inner.csv"]),
]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules if m.startswith("scipy")]}))
"""

    def test_cli_runs_without_scipy(self, tmp_path):
        cfg = tmp_path / "cell.json"
        cfg.write_text(json.dumps({
            "model": "binary", "mode": "converse", "cases": [2],
            "d_s_grid": [0.3], "d_u_grid": [0.25],
        }))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, str(cfg), str(tmp_path)],
                              env=_src_env(), capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert result["scipy"] == []
        rows = (tmp_path / "cell.csv").read_text().strip().splitlines()[3:]
        assert len(rows) == 1 and rows[0].split(",")[4] == "1"

    ONE_MODEL = """
import json, sys
import semsec
bare = sorted(m for m in sys.modules if m.startswith("semsec"))
from semsec import cli, config
target, out = sys.argv[1], sys.argv[2]
given = ["--config" if target.endswith(".json") else "--preset", target]
cfg = config.load_config(target) if target.endswith(".json") else config.get_preset(target)
resolved = set(sys.modules)
samples = ["--samples", "2000"] if cfg.mode == "inner" else []
code = cli.main([cfg.mode, *given, *samples, "--out", out])
print(json.dumps({"code": code, "bare": bare, "resolved": sorted(resolved),
                  "added": sorted(set(sys.modules) - resolved)}))
"""

    @pytest.mark.parametrize("target, absent", [
        ("binary-case2.json", {"semsec.gaussian", "semsec.verify", "numpy.random"}),
        ("gaussian-inner-nosecrecy", {"semsec.binary", "semsec.rdf", "semsec.verify"}),
        ("gaussian-converse-fig3", {"semsec.binary", "semsec.rdf", "semsec.verify"}),
    ])
    def test_a_call_loads_only_its_model(self, target, absent, tmp_path):
        # A config loads its model when it is resolved, and main loads no
        # further semsec module, so a call never pays for the other model.
        if target.endswith(".json"):
            target = str(tmp_path / target)
            Path(target).write_text(json.dumps({
                "model": "binary", "mode": "converse", "cases": [2],
                "d_s_grid": [0.0625], "d_u_grid": [0.3125],
            }))
        done = subprocess.run(
            [sys.executable, "-c", self.ONE_MODEL, target, str(tmp_path / "out.csv")],
            env=_src_env(), capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["code"] == 0
        assert result["bare"] == ["semsec"]
        assert absent & {*result["resolved"], *result["added"]} == set()
        assert [m for m in result["added"] if m.split(".")[0] == "semsec"] == []

    def test_no_scipy_import_in_src(self):
        pattern = re.compile(r"^\s*(import|from)\s+scipy\b", re.MULTILINE)
        sources = sorted(Path(semsec.__file__).parent.glob("*.py"))
        assert sources
        assert [p.name for p in sources if pattern.search(p.read_text())] == []
