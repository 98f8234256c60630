"""End-to-end experiment runs: files, manifests, determinism."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import lecollapse.exact as exact
import lecollapse.fokker_planck as fokker_planck
import lecollapse.runner as runner
import lecollapse.wave as wave
from lecollapse.config import load_config
from lecollapse.fokker_planck import boundary_current, edge_mass, fp_step
from lecollapse.runner import format_csv, run_experiment


def parse_csv(text: str):
    """(header, float rows) back from format_csv output."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty CSV text")
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, rows


def run(tmp_path, sub="out", **overrides):
    overrides.setdefault("out", str(tmp_path / sub))
    cfg = load_config(overrides=overrides)
    manifest = run_experiment(cfg)
    return cfg, manifest


def fast_collapse(**extra):
    over = {
        "mode": "collapse",
        "extent": "16.0",
        "rate_calibration": "20000",
    }
    over.update(extra)
    return over


def read_manifest(out_dir):
    return json.loads((Path(out_dir) / "manifest.json").read_text())


# --- csv round trip ---


def test_csv_round_trip_is_exact():
    # repr floats survive the text round trip bit for bit
    rows = [
        [0.1 + 0.2, 1.0 / 3.0, 1e-300],
        [math.pi, -0.0, 2.5e17],
        [5e-324, 1.7976931348623157e308, 42.0],
    ]
    text = format_csv(["a", "b", "c"], rows)
    header, parsed = parse_csv(text)
    assert header == ["a", "b", "c"]
    for row, back in zip(rows, parsed):
        for x, y in zip(row, back):
            assert x == y


def test_csv_cells_for_ints_and_bools():
    text = format_csv(["n", "flag", "x"], [[3, True, 0.5]])
    assert text.splitlines()[1] == "3,true,0.5"


def test_csv_rows_match_the_cell_by_cell_path():
    # rows of plain floats take a joined fast path; every row must read
    # as the per-cell formatting makes it
    rows = [
        [0.5, -0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1 + 0.2],
        [np.float64(0.1), np.float64(-0.0), np.float64(math.nan), 2.5],
        [3, True, False, np.int64(-7), np.bool_(True), 0.25],
        [np.float32(0.1), np.float64(math.inf), 0.5],
        [1.0, 2],
        [],
    ]
    want = "\n".join(
        ["h"] + [",".join(runner._cell(v) for v in row) for row in rows]
    ) + "\n"
    assert format_csv(["h"], rows) == want


# --- per-mode smoke, files and manifest inventory ---


def test_exact_mode_writes_scalars_and_summary(tmp_path):
    cfg, manifest = run(tmp_path, mode="exact", t_final="2.0")
    out = Path(cfg.out_dir)
    header, rows = parse_csv((out / "scalars.csv").read_text())
    assert header[:3] == ["time", "norm", "hermitian_defect"]
    assert rows[-1][0] == pytest.approx(2.0)
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["norm_drift"]) < 1e-8
    assert manifest.status == "success"
    # one step per call reaches the same clock as the default chunks
    cfg, _ = run(tmp_path, sub="single", mode="exact", t_final="2.0",
                 record_every="1")
    out = Path(cfg.out_dir)
    single = json.loads((out / "summary.json").read_text())
    assert single["t_final"] == summary["t_final"]
    _, single_rows = parse_csv((out / "scalars.csv").read_text())
    assert {r[0] for r in rows} <= {r[0] for r in single_rows}


def test_wave_mode_writes_front_and_speed(tmp_path):
    cfg, manifest = run(
        tmp_path, mode="wave", extent="120.0", t_final="45.0", transient="12.0"
    )
    out = Path(cfg.out_dir)
    header, rows = parse_csv((out / "front.csv").read_text())
    assert header == ["time", "position", "width", "speed_estimate"]
    speed = json.loads((out / "speed.json").read_text())
    # c* = 2 sqrt(D) = 2/sqrt(6) at unit lam, tau; fitted to within 10%
    assert speed["speed"] == pytest.approx(2.0 / math.sqrt(6.0), rel=0.1)
    assert speed["ratio_to_kpp"] == pytest.approx(1.0, abs=0.1)
    assert manifest.status == "success"


def test_collapse_mode_run_json_uses_one_based_winner(tmp_path):
    cfg, manifest = run(tmp_path, **fast_collapse(), trajectory="true")
    out = Path(cfg.out_dir)
    record = json.loads((out / "run.json").read_text())
    assert record["status"] == "collapsed"
    assert record["winner"] in (1, 2)
    assert record["seed"] == 0
    header, rows = parse_csv((out / "trajectory.csv").read_text())
    assert header == ["time", "p_1", "p_2"]
    # probabilities stay normalised along the recorded walk
    for row in rows:
        assert row[1] + row[2] == pytest.approx(1.0)
    assert manifest.status == "success"


def test_fp_mode_conserves_mass(tmp_path):
    cfg, manifest = run(tmp_path, mode="fp", n_steps="200")
    out = Path(cfg.out_dir)
    header, rows = parse_csv((out / "current.csv").read_text())
    assert header == ["time", "boundary_current", "mass", "clamped"]
    assert rows[-1][2] == pytest.approx(1.0, abs=1e-9)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["edge_mass"] + summary["interior_mass"] == pytest.approx(1.0)
    assert manifest.status == "success"


def test_fp_chunks_write_what_single_steps_give(tmp_path):
    # the runner steps in chunks that end at each current row, snapshot
    # and the end; rows, snapshots and summary must equal a one-step-per-
    # call loop, in two dimensions (the triangle's cells, repaired) and in
    # one (every cell)
    for channels, p0, resolution in ((3, "0.2,0.3,0.5", 60),
                                     (2, "0.3,0.7", 100)):
        cfg, manifest = run(tmp_path, sub=f"fp{channels}", mode="fp",
                            channels=str(channels), p0=p0,
                            resolution=str(resolution), n_steps="53",
                            current_every="7", snapshot_every="10")
        out = Path(cfg.out_dir)
        snapshots = sorted(p.name for p in out.glob("density_*.csv"))
        assert snapshots == [f"density_{s:06d}.csv"
                             for s in (10, 20, 30, 40, 50)]

        grid, density, summary, scheme = cfg.setup
        rows = []
        for step in range(54):
            if step:
                density = fp_step(density, scheme)
            if step % 7 == 0 or step == 53:
                rows.append([density.time, boundary_current(density, scheme),
                             density.mass, density.clamped])
            if step in (10, 20, 30, 40, 50):
                assert (out / f"density_{step:06d}.csv").read_text() == \
                    format_csv(*runner._cell_table(grid, density=density.phi))
        assert (out / "current.csv").read_text() == format_csv(
            ["time", "boundary_current", "mass", "clamped"], rows)
        written = json.loads((out / "summary.json").read_text())
        assert written == {
            "channels": channels,
            "resolution": resolution,
            "dt": scheme.dt,
            "n_steps": 53,
            "t_final": density.time,
            "overlap": list(summary.overlap),
            "mass": density.mass,
            "clamped": density.clamped,
            "edge_mass": edge_mass(density),
            "interior_mass": 1.0 - edge_mass(density),
            "boundary_current_final": rows[-1][1],
        }
        assert manifest.status == "success"


@pytest.mark.parametrize("channels,p0s", [
    ("3", ("0.3046,0.2357,0.4597", "0.3915,0.3924,0.21610000000000001")),
    ("2", ("0.683,0.31699999999999995", "0.2365,0.7635000000000001")),
])
def test_uniform_background_overlap_does_not_depend_on_p0(tmp_path, channels,
                                                          p0s):
    # f0 = 1 - f_init on a uniform background whatever p0 is; these p0
    # pairs once gave overlaps an ulp apart, and so two schemes
    configs = [load_config(overrides={
        "mode": "fp", "channels": channels, "p0": p0, "resolution": "20",
        "n_steps": "5", "out": str(tmp_path / f"fp{k}")})
        for k, p0 in enumerate(p0s)]
    first, second = (c.setup[2] for c in configs)
    assert first.overlap.tobytes() == second.overlap.tobytes()
    assert configs[0].setup[3] is configs[1].setup[3]


@pytest.mark.parametrize("mode,overrides,phases", [
    ("exact", {"t_final": "0.5"}, {"solve", "write"}),
    ("wave", {"t_final": "5.0"}, {"solve", "write"}),
    ("fp", {"n_steps": "50"}, {"solve", "write"}),
    ("compare", {"n_runs": "100", "t_final": "1.0", "resolution": "40"},
     {"fp", "ensemble"}),
    ("collapse", {"extent": "16.0"}, {"solve", "write"}),
    ("sweep", {"seeds": "0..2", "extent": "16.0"}, {"solve", "write"}),
])
def test_manifest_records_phase_timers(tmp_path, mode, overrides, phases):
    cfg, manifest = run(tmp_path, mode=mode, **overrides)
    clocks = read_manifest(cfg.out_dir)["wall_clock"]
    assert set(clocks) == {"total"} | phases
    assert all(v >= 0.0 for v in clocks.values())
    assert sum(clocks[p] for p in phases) <= clocks["total"]


def test_compare_mode_emits_comparison_json(tmp_path):
    cfg, manifest = run(
        tmp_path,
        mode="compare",
        n_runs="100",
        t_final="1.0",
        resolution="40",
    )
    out = Path(cfg.out_dir)
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["n_runs"] == 100
    assert 0.0 <= comparison["total_variation"] <= 1.0
    header, rows = parse_csv((out / "histogram.csv").read_text())
    assert header[0] == "p_1"
    assert manifest.status == "success"


def test_manifest_inventory_matches_the_files(tmp_path):
    cfg, manifest = run(tmp_path, mode="fp", n_steps="50")
    out = Path(cfg.out_dir)
    listed = {entry["path"] for entry in manifest.outputs}
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    for entry in manifest.outputs:
        blob = (out / entry["path"]).read_bytes()
        assert entry["bytes"] == len(blob)
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()


def test_manifest_json_written_even_without_json_format(tmp_path):
    cfg, manifest = run(tmp_path, mode="fp", n_steps="50", formats="csv")
    assert (Path(cfg.out_dir) / "manifest.json").exists()
    assert all(not e["path"].endswith(".json") for e in manifest.outputs)


def test_formats_gate_file_emission(tmp_path):
    cfg, _ = run(tmp_path, "svg_only", mode="fp", n_steps="50", formats="svg")
    names = {p.name for p in Path(cfg.out_dir).iterdir()}
    assert "density.svg" in names
    assert not any(n.endswith(".csv") for n in names)

    cfg2, _ = run(tmp_path, "no_svg", mode="fp", n_steps="50", formats="csv,json")
    names2 = {p.name for p in Path(cfg2.out_dir).iterdir()}
    assert not any(n.endswith(".svg") for n in names2)
    assert "density.csv" in names2


# --- sweep aggregation [aggregate equals recomputation from run files] ---


def test_sweep_aggregate_matches_recomputation_from_run_files(tmp_path):
    over = fast_collapse()
    over["mode"] = "sweep"
    over["seeds"] = "0..9"
    cfg, manifest = run(tmp_path, **over)
    out = Path(cfg.out_dir)

    records = []
    for seed in range(10):
        records.append(json.loads((out / f"run_{seed:05d}.json").read_text()))
    assert [r["seed"] for r in records] == list(range(10))

    born = json.loads((out / "born.json").read_text())
    counts = [0, 0]
    for r in records:
        assert r["status"] == "collapsed"
        counts[r["winner"] - 1] += 1
    assert born["counts"] == counts
    assert born["frequencies"] == pytest.approx([c / 10 for c in counts])
    assert born["n_results"] == 10 and born["n_resolved"] == 10
    # the full interval-and-test block needs at least 100 resolved runs
    assert born["wilson_low"] is None
    assert born["chi_square"] is None


def test_sweep_with_a_timed_out_run_reports_timeout(tmp_path):
    over = fast_collapse(max_steps="5")
    over["mode"] = "sweep"
    over["seeds"] = "0..2"
    cfg, manifest = run(tmp_path, **over)
    assert manifest.status == "timeout"
    born = json.loads((Path(cfg.out_dir) / "born.json").read_text())
    assert born["n_timeout"] == 3


# --- determinism [identical config -> identical bytes] ---


def test_identical_runs_are_byte_identical(tmp_path):
    over = fast_collapse(trajectory="true", formats="csv,json,svg")
    cfg_a, man_a = run(tmp_path, "a", **over)
    cfg_b, man_b = run(tmp_path, "b", **over)
    assert cfg_a.config_hash() == cfg_b.config_hash()

    files_a = sorted(p.name for p in Path(cfg_a.out_dir).iterdir())
    files_b = sorted(p.name for p in Path(cfg_b.out_dir).iterdir())
    assert files_a == files_b
    for name in files_a:
        if name == "manifest.json":
            continue
        blob_a = (Path(cfg_a.out_dir) / name).read_bytes()
        blob_b = (Path(cfg_b.out_dir) / name).read_bytes()
        assert blob_a == blob_b, name

    a = read_manifest(cfg_a.out_dir)
    b = read_manifest(cfg_b.out_dir)
    a.pop("wall_clock")
    b.pop("wall_clock")
    assert a == b


@pytest.mark.parametrize("mode,overrides", [
    ("exact", {"t_final": "0.5"}),
    ("wave", {"t_final": "5.0"}),
    ("fp", {"channels": "3", "p0": "0.2,0.3,0.5", "resolution": "30",
            "n_steps": "20", "snapshot_every": "10"}),
    ("compare", {"n_runs": "100", "t_final": "1.0", "resolution": "40"}),
    ("collapse", {"extent": "16.0", "rate_calibration": "20000",
                  "trajectory": "true"}),
    ("sweep", {"seeds": "0..2", "extent": "16.0",
               "rate_calibration": "20000", "trajectory": "true"}),
])
def test_one_loaded_config_runs_twice_to_the_same_bytes(tmp_path, mode,
                                                        overrides):
    # the run uses the objects loading built, so a driver that changed
    # them would make a second run of the same config differ from the first
    cfg = load_config(overrides={"mode": mode, "formats": "csv,json,svg",
                                 "out": str(tmp_path / "a"), **overrides})
    again = dataclasses.replace(cfg, out_dir=str(tmp_path / "b"))
    assert again.setup is cfg.setup
    first, second = run_experiment(cfg), run_experiment(again)
    assert first.outputs and first.outputs == second.outputs


SEEDED = {"seed_region_1": "0,2", "seed_region_2": "30,32"}


@pytest.mark.parametrize("mode,overrides", [
    ("exact", {}),
    ("wave", {}),
    ("collapse", {}),
    ("collapse", SEEDED),
    ("fp", {}),
    ("sweep", {}),
    ("sweep", SEEDED),
    ("compare", {}),
], ids=["exact", "wave", "collapse", "collapse-seeded", "fp", "sweep",
        "sweep-seeded", "compare"])
def test_the_run_builds_no_operator(tmp_path, monkeypatch, mode, overrides):
    # loading builds every operator a run needs; the run steps and writes
    wave._step_operator.cache_clear()
    fokker_planck._scheme.cache_clear()
    cfg = load_config(overrides={"mode": mode, "out": str(tmp_path),
                                 **overrides})

    def refuse(*args, **kwargs):
        raise AssertionError("the run built a branch generator")

    monkeypatch.setattr(exact, "build_branch_hamiltonian", refuse)
    monkeypatch.setattr(runner, "build_branch_hamiltonian", refuse)
    caches = (wave._step_operator, fokker_planck._scheme)
    misses = [c.cache_info().misses for c in caches]
    run_experiment(cfg)
    assert [c.cache_info().misses for c in caches] == misses


def test_different_seed_changes_the_payload(tmp_path):
    cfg_a, _ = run(tmp_path, "a", **fast_collapse(), seed="1")
    cfg_b, _ = run(tmp_path, "b", **fast_collapse(), seed="2")
    blob_a = (Path(cfg_a.out_dir) / "run.json").read_text()
    blob_b = (Path(cfg_b.out_dir) / "run.json").read_text()
    assert blob_a != blob_b


# --- failure paths ---


def test_timeout_manifest_and_null_winner(tmp_path):
    cfg, manifest = run(tmp_path, **fast_collapse(max_steps="5"))
    assert manifest.status == "timeout"
    assert manifest.partial is False
    record = json.loads((Path(cfg.out_dir) / "run.json").read_text())
    assert record["status"] == "timeout"
    assert record["winner"] is None


def test_driver_crash_still_writes_partial_manifest(tmp_path, monkeypatch):
    def boom(job):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(runner._DRIVERS, "fp", boom)
    cfg = load_config(overrides={"mode": "fp", "out": str(tmp_path / "x")})
    with pytest.raises(RuntimeError, match="synthetic failure"):
        run_experiment(cfg)
    manifest = read_manifest(cfg.out_dir)
    assert manifest["status"] == "error"
    assert manifest["partial"] is True
    assert "synthetic failure" in manifest["error"]
