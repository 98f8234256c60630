"""End-to-end experiment runs: files, manifests, determinism."""

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lecollapse.exact as exact
import lecollapse.fokker_planck as fokker_planck
import lecollapse.runner as runner
import lecollapse.wave as wave
from lecollapse.config import ConfigError, load_config
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
    # list rows go cell by cell: ints and bools as such, floats as repr,
    # numpy scalars as their Python values, ragged rows as they come
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


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


# a float64 as its bit pattern: any non-NaN (+-0.0, +-inf, subnormals),
# or a NaN of either sign with any payload
_FLOAT_BITS = st.one_of(
    st.floats(width=64, allow_nan=False).map(_bits),
    st.sampled_from([_bits(v) for v in (0.0, -0.0, math.inf, -math.inf,
                                        5e-324, -2.2e-308)]),
    st.builds(lambda sign, payload: sign << 63 | 0x7FF << 52 | payload,
              st.integers(0, 1), st.integers(1, 2**52 - 1)),
)


@st.composite
def float_tables(draw):
    """Float64 tables of 0-12 rows and 1-4 columns drawn from a pool of a
    few values, so values repeat, with neighbours one ulp apart."""
    pool = draw(st.lists(_FLOAT_BITS, min_size=1, max_size=8))
    for x in draw(st.lists(st.floats(width=64, allow_nan=False,
                                     allow_infinity=False), max_size=2)):
        pool += [_bits(x), _bits(np.nextafter(x, 0.0))]
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=rows * cols, max_size=rows * cols))
    table = np.array(pool, dtype=np.uint64)[np.array(picks, dtype=np.intp)]
    return table.reshape(rows, cols).view(np.float64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(float_tables())
@example(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]]))
@example(np.array([0x7FF8 << 48, 0xFFF8 << 48 | 7, 0x7FF0 << 48 | 1],
                  dtype=np.uint64).view(np.float64).reshape(3, 1))
@example(np.empty((0, 3)))
def test_float_tables_format_by_column_as_cell_by_cell(table):
    # a float64 table formats each distinct float once per column; the
    # text must be the list path's and read back bit for bit, NaN payloads
    # aside (every NaN prints nan)
    header = [f"c{k}" for k in range(table.shape[1])]
    text = format_csv(header, table)
    assert text == format_csv(header, table.tolist())
    lines = text.splitlines()
    assert lines[0].split(",") == header
    back = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]],
                    dtype=np.float64).reshape(table.shape)
    nan = np.isnan(table)
    assert np.array_equal(np.isnan(back), nan)
    assert np.array_equal(back.view(np.uint64)[~nan],
                          table.view(np.uint64)[~nan])


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


@pytest.mark.parametrize("coupling", ["diagonal", "none"])
@pytest.mark.parametrize("atoms", ["2", "3"])
@pytest.mark.parametrize("tracks", [("0", "2"), ("1", "1"), ("0,1", "2")])
def test_a_two_channel_exact_config_runs_to_t_final_or_is_refused(
        tmp_path, coupling, atoms, tracks):
    # at the default dt and t_final: only the coupling that breaks the
    # branch-sum identity is refused, and it is refused at load
    overrides = {"mode": "exact", "channels": "2", "atoms": atoms,
                 "track_1": tracks[0], "track_2": tracks[1],
                 "cross_channel_coupling": coupling}
    try:
        cfg, manifest = run(tmp_path, **overrides)
    except ConfigError as err:
        assert coupling == "none" and "cross_channel_coupling" in str(err)
        return
    assert manifest.status == "success"
    summary = json.loads((Path(cfg.out_dir) / "summary.json").read_text())
    assert summary["t_final"] == pytest.approx(cfg.params["t_final"])


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


# sha256 of each wave payload, and the number of front samples, as the
# per-sample front tracker wrote them before tracking went to batches
WAVE_PAYLOADS = {
    "1d": ({"extent": "100"}, 671, {
        "front.csv": "9ddaea49e7eb8833f5aeceade1298331"
                     "b490764b69e76408db4a353e81bdbba9",
        "speed.json": "243eb686e57ac96b05f34f72a994ecbb"
                      "4e6c1098fd5eafe52087c4eddf0a9991",
        "front.svg": "5ed5999ff12c35bc24055fa8dd0e8368"
                     "e82657837cb4a474f3b468b06c0376e2",
        "profile.svg": "afec622cc73c80dc9aa97285a7895101"
                       "b6900b6367bfd9521c03b18d625d85f1",
    }),
    # the front leaves the box: tracking stops at sample 145 of 448
    "front-leaves": ({"extent": "12", "t_final": "40"}, 145, {
        "front.csv": "b70fd5ba480fd953c83f502d8ed382b2"
                     "20ceb82b5fd52a4613d0dcdd7e6b30b6",
        "speed.json": "2485d9864b64c25aef8103fea4f1ac3c"
                      "8be65a8ba1bd42296b1dbbfa4ae26c7b",
        "front.svg": "d7125935a944c6d92dc0fe932eded641"
                     "2780f90ca01678b91d6438cebeaee9e1",
        "profile.svg": "858df09ef6e2ed43e77cc76c99892026"
                       "610e1eda8ad56a5d04b1d0c820138305",
    }),
    # 559 steps = 79 * 7 + 6: the last chunk is short
    "short-chunk": ({"extent": "20", "t_final": "5",
                     "record_every": "7"}, 81, {
        "front.csv": "e33660f978095499076a749c14bcd715"
                     "a8b83ca13363f0da775c40457332dcfd",
        "speed.json": "8e817d91b933dc00a8d0c883e2f8bc4c"
                      "74cec94caa0c19daec0bc59d25875551",
        "front.svg": "4b4219f6f910f2e131bf97cc50b49239"
                     "71e5b9ff8916c43f5c9442c0746d0fb6",
        "profile.svg": "25830fa04def16c5a3ae46e2b4a6d216"
                       "9282f203e075bab53e9ec7f521e80000",
    }),
    "2d": ({"extent": "20,6", "seed_region": "0,2,0,6",
            "t_final": "20"}, 438, {
        "front.csv": "14e64aabc0e37f9a269844d2ac5f87f6"
                     "0e09fbb21adeb113276263c1e75cc5ac",
        "speed.json": "1b174320bb04b6c58a68ca2bc29404bd"
                      "44668b0d10c5dd667c34b780b03acfa3",
        "front.svg": "c9c746f1202c21aec23db29db0310dd6"
                     "61ef49311cd941eab0e033975a5a4989",
        "profile.svg": "f01a03f901baa4301cfba2f027b47581"
                       "f3bc51737f84d12fa814a0b4be5d3906",
    }),
}


@pytest.mark.parametrize("case", sorted(WAVE_PAYLOADS))
def test_wave_payloads_keep_their_bytes(tmp_path, case):
    overrides, samples, want = WAVE_PAYLOADS[case]
    cfg, manifest = run(tmp_path, mode="wave", formats="csv,json,svg",
                        **overrides)
    speed = json.loads((Path(cfg.out_dir) / "speed.json").read_text())
    assert speed["front_samples"] == samples
    got = {o["path"]: o["sha256"] for o in manifest.outputs}
    assert {name: got[name] for name in want} == want


# the front position is lost at sample 164, the width at sample 145: the
# batch holding them is cut before the first such field, then before the
# second, and tracking stops there
@pytest.mark.parametrize("fields,cuts", [
    (1, [(1,), (0,)]),
    (3, [(3,), (1,)]),
    (64, [(64,), (36,), (17,)]),
    (1000, [(64,), (36,), (17,)]),
], ids=["1", "3", "64", "1000"])
def test_front_tracking_batches_by_bytes_and_keeps_the_payloads(
        tmp_path, monkeypatch, fields, cuts):
    # a field of 96 cells; the byte cap allows ``fields`` of them
    overrides, samples, want = WAVE_PAYLOADS["front-leaves"]
    monkeypatch.setattr(runner, "_TRACK_BYTES", fields * 96 * 8)
    stacks = []
    locate = runner.front_position

    def spy(f, grid, *args):
        stacks.append(f.shape[:f.ndim - grid.dims])
        return locate(f, grid, *args)

    monkeypatch.setattr(runner, "front_position", spy)
    _, manifest = run(tmp_path, mode="wave", formats="csv,json,svg",
                      **overrides)
    got = {o["path"]: o["sha256"] for o in manifest.outputs}
    assert {name: got[name] for name in want} == want
    # full batches up to the one the front leaves in, then its cuts
    size = min(fields, runner._TRACK_FIELDS)
    assert stacks == [(size,)] * (samples // size) + cuts



@pytest.mark.parametrize("overrides", [
    {"extent": "20,6", "seed_region": "0,2,0,4", "t_final": "10"},
    {"extent": "12,2,3", "seed_region": "0,3,0,2,0.5,3", "t_final": "5"},
], ids=["2d", "3d"])
def test_the_profile_is_the_tracked_line(tmp_path, overrides):
    # profile.csv and front.csv read one line of the final field: the one
    # front_position tracks, not merely one with the same coordinates
    cfg, _ = run(tmp_path, mode="wave", **overrides)
    kin, grid, f, dt, n_steps = cfg.setup
    final = wave.kpp_step(f, grid, kin, dt, steps=n_steps)
    off_line = final.reshape(len(final), -1)
    assert (off_line != off_line[:, :1]).any()  # the lines differ
    out = Path(cfg.out_dir)
    header, rows = parse_csv((out / "profile.csv").read_text())
    assert header == ["position", "f"]
    got = np.array([r[1] for r in rows])
    assert got.tobytes() == wave._line_profile(final, grid).tobytes()
    _, fronts = parse_csv((out / "front.csv").read_text())
    assert len(fronts) == 1 + -(-n_steps // cfg.params["record_every"])
    assert fronts[-1][1] == wave.front_position(final, grid)


# sha256 of each exact payload as written since a step became one
# degree-10 Taylor step at a tenth of the old step count, sampled every step
EXACT_PAYLOADS = {
    "defaults": ({}, {
        "scalars.csv": "e2e7dfd147e9f5c7664f35c9a4d5574c"
                       "bda730fb06fe07fffc6de163e0338b19",
        "summary.json": "7d83224fb1e343e5d9a79188b46732de"
                        "e13471622f990ce65c9ecca96b1cb66c",
    }),
    "two-channels": ({"channels": "2", "track_1": "0", "track_2": "2"}, {
        "scalars.csv": "1ee3a1783c1ffb059750157f76db955a"
                       "f8a691e9d29d7cbd0aab397b30df63ba",
        "summary.json": "1dd61a887e2672ed0f011b79aed9a677"
                        "94448a5c6781f47ea6a5ae5e6912a71a",
    }),
    # distinguishable atoms start and evolve as bosons do
    "distinguishable": ({"bosonic": "false"}, {
        "scalars.csv": "e2e7dfd147e9f5c7664f35c9a4d5574c"
                       "bda730fb06fe07fffc6de163e0338b19",
        "summary.json": "7d83224fb1e343e5d9a79188b46732de"
                        "e13471622f990ce65c9ecca96b1cb66c",
    }),
}


@pytest.mark.parametrize("case", sorted(EXACT_PAYLOADS))
def test_exact_payloads_keep_their_bytes(tmp_path, case):
    overrides, want = EXACT_PAYLOADS[case]
    _, manifest = run(tmp_path, mode="exact", **overrides)
    got = {o["path"]: o["sha256"] for o in manifest.outputs}
    assert {name: got[name] for name in want} == want


# sha256 of every payload of the other modes at csv,json,svg, as written
# while out, formats, seed, seeds and trajectory were parsed by hand
MODE_PAYLOADS = {
    "collapse": ({"mode": "collapse", "trajectory": "true"}, {
        "run.json": "dd5c42d81dbef0ec1ba60684fbe265aa"
                    "e470fdfd8ceece0e95b88bd0aeb9ed8b",
        "trajectory.csv": "1efedd82cae0426ba2a68db41663c842"
                          "2b59bff480aeeeae7e8f3184f809dded",
        "trajectory.svg": "aa3f8f4c25072713f139c6a0e3479be1"
                          "cfd647d5545fe56da096f45021ed3567",
    }),
    "fp": ({"mode": "fp"}, {
        "current.csv": "a6fb2e9564b9bafe987afb21c066c401"
                       "51ada24f25ec26bc0bfa4d5f92f64806",
        "density.csv": "ceb1d0e64a30af704a21f8e08b24b8c7"
                       "d40663ace0139f5092f6a8ea44f163bb",
        "density.svg": "52af9303a82378184919251dcba42984"
                       "37a56cbc93ad8bdf7e36f9e124245d99",
        "summary.json": "6dbaf14d236e70fa3048056f6eca48b4"
                        "c85aa86d3afd8525446092fe0437ec2a",
    }),
    # 2D: no density.svg, three snapshots
    "fp-three-channels": ({"mode": "fp", "channels": "3",
                           "p0": "0.2, 0.3, 0.5",
                           "snapshot_every": "500"}, {
        "current.csv": "febdcac8f2245b02c3b7c958581f8d1a"
                       "7d6d6dca915bac1cdac52458321675ef",
        "density.csv": "10b99fe1581e6c848305fd861deb36a6"
                       "377bd9946e2263a206c01d4932e8fa59",
        "density_000500.csv": "506d7612c12ab9183c25185fdced2823"
                              "a243c86ea012a3d7e6d6bd4385f3ad4f",
        "density_001000.csv": "8b50aa20c858bb774765a2300b5b3b0a"
                              "6f80834893a243cfded2891db59c14f9",
        "density_001500.csv": "093518dab277d27a29b90df26bbeb78c"
                              "f13406d4e126574e7e27d327769e8637",
        "summary.json": "178b11202e6ca0f68eb30c3e1b018d17"
                        "c19db34389a01d2027ab4598194f1fd2",
    }),
    "compare": ({"mode": "compare"}, {
        "comparison.json": "97b1f52263c0f2429bf76adca380bd49"
                           "eefc5a444890ed9262fbdd3c99b6572e",
        "histogram.csv": "c57fb2a583f2e55a6e293a2b2e879788"
                         "f6d10f7a0c4da76f4a70d34d42a79822",
        "histogram.svg": "128ab6684963578aba52c6d8f416f3aa"
                         "79d5b3beca15167374a3c3b804f42e29",
    }),
}


@pytest.mark.parametrize("case", sorted(MODE_PAYLOADS))
def test_mode_payloads_keep_their_bytes(tmp_path, case):
    overrides, want = MODE_PAYLOADS[case]
    _, manifest = run(tmp_path, formats="csv,json,svg", **overrides)
    assert {o["path"]: o["sha256"] for o in manifest.outputs} == want


def test_sweep_payloads_keep_their_bytes(tmp_path):
    # seeds 0..9 with trajectories write 31 files: born.json is pinned on
    # its own, every file through the sorted "path sha256" lines
    _, manifest = run(tmp_path, mode="sweep", trajectory="true",
                      formats="csv,json,svg")
    outputs = sorted(manifest.outputs, key=lambda o: o["path"])
    lines = "".join(f"{o['path']} {o['sha256']}\n" for o in outputs)
    assert len(outputs) == 31
    assert {o["path"]: o["sha256"] for o in outputs}["born.json"] == (
        "451f6224a34689466c62411ff6f66077ea994d3200b5835aac7207394248ef62")
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "755be03647feae856de84130239440598d83b9e259999a679e4de0658e9ea66e")

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
     {"fp", "ensemble", "write"}),
    ("collapse", {"extent": "16.0"}, {"solve", "write"}),
    ("sweep", {"seeds": "0..2", "extent": "16.0"}, {"solve", "write"}),
])
def test_manifest_records_phase_timers(tmp_path, mode, overrides, phases):
    cfg, manifest = run(tmp_path, mode=mode, **overrides)
    clocks = read_manifest(cfg.out_dir)["wall_clock"]
    assert set(clocks) == {"total"} | phases
    assert all(v >= 0.0 for v in clocks.values())
    assert sum(clocks[p] for p in phases) <= clocks["total"]


@pytest.mark.parametrize("mode,overrides,reduction,phase", [
    ("sweep", {"seeds": "0..2", "extent": "16.0"}, "born_statistics",
     "solve"),
    ("compare", {"n_runs": "100", "t_final": "0.5", "resolution": "20"},
     "compare_histogram", "ensemble"),
])
def test_the_reduction_is_timed_with_the_solve_not_the_write(
        tmp_path, monkeypatch, mode, overrides, reduction, phase):
    # wall_clock.write holds only file output: a slow reduction of the
    # runs lands in the phase that made them
    reduce = getattr(runner, reduction)

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(runner, reduction, slow)
    cfg, _ = run(tmp_path, mode=mode, **overrides)
    clocks = read_manifest(cfg.out_dir)["wall_clock"]
    assert clocks[phase] >= 0.2
    assert clocks["write"] < 0.2


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


# every payload each mode writes, snapshots and trajectories included
INVENTORY_RUNS = {
    "exact": {"t_final": "0.5"},
    "wave": {"t_final": "5.0"},
    "fp": {"n_steps": "50", "snapshot_every": "20"},
    "compare": {"n_runs": "100", "t_final": "1.0", "resolution": "40"},
    "collapse": {"extent": "16.0", "trajectory": "true"},
    "sweep": {"seeds": "0..2", "extent": "16.0", "trajectory": "true"},
}


@pytest.mark.parametrize("mode", sorted(INVENTORY_RUNS))
def test_manifest_inventory_matches_the_files(tmp_path, mode):
    cfg, manifest = run(tmp_path, mode=mode, formats="csv,json,svg",
                        **INVENTORY_RUNS[mode])
    out = Path(cfg.out_dir)
    listed = [entry["path"] for entry in manifest.outputs]
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == sorted(on_disk)
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
    # the full interval-and-test block needs at least 100 results
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


# born.json of `sweep --seeds 0..119 --max-steps 1500` at the defaults:
# 67 of 120 runs collapse, so it holds intervals and a chi-square
BORN_120 = {
    "chi_square": 2.644633972992181,
    "counts": [14, 53],
    "expected": [0.3, 0.7],
    "frequencies": [0.208955223880597, 0.7910447761194029],
    "n_resolved": 67,
    "n_results": 120,
    "n_timeout": 53,
    "p_value": 0.10390008529859654,
    "wilson_high": [0.3207180650688247, 0.8712431481097087],
    "wilson_low": [0.12875685189029118, 0.6792819349311752],
}


def test_born_json_keeps_its_values_bit_for_bit(tmp_path):
    cfg, _ = run(tmp_path, mode="sweep", seeds="0..119", max_steps="1500",
                 formats="json")
    born = json.loads((Path(cfg.out_dir) / "born.json").read_text())
    for key, value in BORN_120.items():
        assert born[key] == value, key


def test_a_partly_timed_out_sweep_reports_all_run_means(tmp_path):
    # the defaults cut at 1500 steps: some runs collapse, some time out
    seeds = range(200, 240)
    cfg, manifest = run(tmp_path, mode="sweep", seeds="200..239",
                        max_steps="1500", formats="json")
    out = Path(cfg.out_dir)
    records = [json.loads((out / f"run_{s:05d}.json").read_text())
               for s in seeds]
    collapsed = [r for r in records if r["status"] == "collapsed"]
    assert 0 < len(collapsed) < len(records)
    assert manifest.status == "timeout"
    for r in collapsed:  # a collapsed run ends on its winner's vertex
        assert r["p_final"] == [float(k == r["winner"]) for k in (1, 2)]

    born = json.loads((out / "born.json").read_text())
    final = np.array([r["p_final"] for r in records])
    assert born["p_final_mean"] == final.mean(axis=0).tolist()
    se = final.std(axis=0, ddof=1) / math.sqrt(len(records))
    assert born["p_final_se"] == se.tolist()
    assert born["collapsed_fraction"] == len(collapsed) / len(records)
    assert born["conditional_on_collapse"] is True
    assert born["n_timeout"] == len(records) - len(collapsed)
    assert born["n_resolved"] == len(collapsed)


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


def test_a_crash_manifest_lists_the_payloads_written_before_it(
        tmp_path, monkeypatch):
    def half(job):
        job.json("summary.json", {"written": True})
        raise RuntimeError("after one payload")

    monkeypatch.setitem(runner._DRIVERS, "fp", half)
    cfg = load_config(overrides={"mode": "fp", "out": str(tmp_path / "x")})
    with pytest.raises(RuntimeError, match="after one payload"):
        run_experiment(cfg)
    manifest = read_manifest(cfg.out_dir)
    assert manifest["partial"] is True
    blob = (Path(cfg.out_dir) / "summary.json").read_bytes()
    assert manifest["outputs"] == [{
        "path": "summary.json",
        "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }]
