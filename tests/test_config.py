"""Config parsing, validation, derived quantities and hashing."""

import math
import re

import pytest

from lecollapse.config import (
    MAX_RUNS,
    MAX_STEPS,
    ConfigError,
    ExperimentConfig,
    MODES,
    load_config,
)
from lecollapse.engine import SlipParams
from lecollapse.exact import default_timestep


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def load_text(tmp_path, text):
    return load_config(write_cfg(tmp_path, text))


# --- parsing the key=value format ---


def test_minimal_collapse_config_derives_n_c(tmp_path):
    # n_a = 100 at lam = 1 gives N_c = n_a * lam^3 = 100
    cfg = load_text(tmp_path, "mode = collapse\n")
    assert cfg.mode == "collapse"
    assert cfg.params["n_c"] == pytest.approx(100.0)
    assert cfg.seeds == (0,)


def test_n_c_scales_with_lam_cubed(tmp_path):
    cfg = load_text(tmp_path, "mode = collapse\nlam = 2.0\ntau = 2.0\n")
    assert cfg.params["n_c"] == pytest.approx(100.0 * 8.0)


def test_d_coeff_derived_from_lam_and_tau(tmp_path):
    cfg = load_text(tmp_path, "mode = wave\nlam = 3.0\ntau = 2.0\n")
    assert cfg.params["d_coeff"] == pytest.approx(9.0 / 12.0)


def test_negative_w_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="w"):
        load_text(tmp_path, "mode = collapse\nw = -0.4\n")


def test_parse_error_reports_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line 3"):
        load_text(tmp_path, "mode = collapse\n\nnot a key value pair\n")


def test_empty_value_reports_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_text(tmp_path, "mode = collapse\nw =\n")


def test_duplicate_key_names_both_lines(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        load_text(tmp_path, "mode = collapse\nmode = wave\n")


def test_comments_and_blank_lines_are_ignored(tmp_path):
    cfg = load_text(tmp_path, "# a comment\n\nmode = fp\nchannels = 2\n")
    assert cfg.mode == "fp"


def test_unknown_key_names_key_and_mode(tmp_path):
    with pytest.raises(ConfigError, match="quux.*fp|fp.*quux"):
        load_text(tmp_path, "mode = fp\nquux = 3\n")


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.cfg"))


def test_mode_is_required(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        load_text(tmp_path, "w = 0.4\n")


def test_unknown_mode_is_rejected():
    with pytest.raises(ConfigError, match="mode"):
        load_config(overrides={"mode": "teleport"})


def test_non_numeric_value_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="line 2"):
        load_text(tmp_path, "mode = collapse\nw = banana\n")


def test_nan_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_text(tmp_path, "mode = collapse\nw = nan\n")


# --- overrides and the seed machinery ---


def test_cli_override_beats_file_value(tmp_path):
    path = write_cfg(tmp_path, "mode = collapse\nseed = 3\n")
    cfg = load_config(path, {"seed": "11"})
    assert cfg.seed == 11


def test_subcommand_conflicting_with_file_mode_errors(tmp_path):
    path = write_cfg(tmp_path, "mode = wave\n")
    with pytest.raises(ConfigError, match="mode = wave.*collapse"):
        load_config(path, {"mode": "collapse"})


def test_seed_range_is_inclusive():
    cfg = load_config(overrides={"mode": "sweep", "seeds": "3..6"})
    assert cfg.seeds == (3, 4, 5, 6)


def test_backwards_seed_range_is_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        load_config(overrides={"mode": "sweep", "seeds": "6..3"})


def test_garbled_seed_range_is_rejected():
    with pytest.raises(ConfigError, match="seeds"):
        load_config(overrides={"mode": "sweep", "seeds": "3..x"})


def test_sweep_rejects_single_seed_key():
    with pytest.raises(ConfigError, match="seed"):
        load_config(overrides={"mode": "sweep", "seed": "4"})


def test_single_run_modes_reject_seed_range():
    with pytest.raises(ConfigError, match="seed range"):
        load_config(overrides={"mode": "collapse", "seeds": "0..9"})


def test_sweep_default_is_ten_seeds():
    cfg = load_config(overrides={"mode": "sweep"})
    assert cfg.seeds == tuple(range(10))


def test_trajectory_override_only_for_collapse_modes():
    cfg = load_config(overrides={"mode": "collapse", "trajectory": "true"})
    assert cfg.params["record_every"] >= 1
    with pytest.raises(ConfigError, match="trajectory"):
        load_config(overrides={"mode": "wave", "trajectory": "true"})


def test_formats_are_canonicalised():
    cfg = load_config(overrides={"mode": "fp", "formats": "svg,csv"})
    assert cfg.formats == ("csv", "svg")


def test_unknown_format_is_rejected():
    with pytest.raises(ConfigError, match="formats"):
        load_config(overrides={"mode": "fp", "formats": "csv,png"})


# --- mode-specific validation ---


def test_exact_single_channel_gets_default_track():
    cfg = load_config(overrides={"mode": "exact"})
    assert cfg.params["track_1"] == (0,)


def test_exact_multi_channel_requires_explicit_tracks():
    # which atom belongs to which channel cannot be guessed
    with pytest.raises(ConfigError, match="track"):
        load_config(overrides={"mode": "exact", "channels": "2", "track_1": "0"})
    cfg = load_config(
        overrides={"mode": "exact", "channels": "2", "track_1": "0", "track_2": "1"}
    )
    assert cfg.params["track_2"] == (1,)


@pytest.mark.parametrize("t_final", ["0.01", "2", "7.3", "20"])
def test_the_default_exact_step_lands_on_t_final(t_final):
    # n steps of t_final / n, n as many default steps as t_final needs: the
    # last step ends on t_final instead of up to one step past it
    h, dt, n = load_config(overrides={"mode": "exact",
                                      "t_final": t_final}).setup
    step = default_timestep(h)
    assert n == math.ceil(float(t_final) / step)
    assert dt == float(t_final) / n <= step


def test_a_given_exact_dt_keeps_its_size():
    _, dt, n = load_config(overrides={"mode": "exact", "t_final": "2",
                                      "dt": "0.3"}).setup
    assert (dt, n) == (0.3, 7)


def test_exact_none_coupling_is_refused_from_two_channels():
    # it drops the cross-channel term the branch-sum identity needs at
    # K >= 2, so the run would only stop at the norm watchdog
    base = {"mode": "exact", "cross_channel_coupling": "none"}
    with pytest.raises(ConfigError, match="cross_channel_coupling = none "
                                          ".* channels >= 2"):
        load_config(overrides={**base, "channels": "2", "track_1": "0",
                               "track_2": "2"})
    assert load_config(overrides=base).params["channels"] == 1


def test_collapse_p0_must_be_a_distribution():
    with pytest.raises(ConfigError, match="p0"):
        load_config(overrides={"mode": "collapse", "p0": "0.3,0.3"})


def test_collapse_defaults_to_uniform_background():
    cfg = load_config(overrides={"mode": "collapse"})
    assert cfg.params["f_init"] == pytest.approx(0.4)
    assert cfg.params["advance_fields"] is False


def test_seed_regions_switch_advance_fields_on():
    cfg = load_config(
        overrides={
            "mode": "collapse",
            "seed_region_1": "0,4",
            "seed_region_2": "28,32",
        }
    )
    assert cfg.params["f_init"] is None
    assert cfg.params["advance_fields"] is True


def test_regions_and_f_init_together_are_rejected():
    with pytest.raises(ConfigError, match="not both"):
        load_config(
            overrides={
                "mode": "collapse",
                "f_init": "0.4",
                "seed_region_1": "0,4",
                "seed_region_2": "28,32",
            }
        )


def test_region_count_must_match_channels():
    with pytest.raises(ConfigError, match="seed_region"):
        load_config(
            overrides={
                "mode": "collapse",
                "p0": "0.2,0.3,0.5",
                "seed_region_1": "0,4",
                "seed_region_2": "28,32",
            }
        )


def test_region_must_fit_inside_the_grid():
    with pytest.raises(ConfigError, match="extent"):
        load_config(
            overrides={
                "mode": "collapse",
                "seed_region_1": "0,4",
                "seed_region_2": "28,40",
            }
        )


@pytest.mark.parametrize("mode,overrides", [
    ("wave", {"seed_region": "-5,2"}),
    ("wave", {"seed_region": "390,410"}),
    ("sweep", {"seed_region_1": "-5,2", "seed_region_2": "28,32"}),
])
def test_every_seed_box_is_checked_against_the_extent(mode, overrides):
    with pytest.raises(ConfigError, match=r"interval \(.*\) does not fit "
                                          r"in axis 0 extent"):
        load_config(overrides={"mode": mode, **overrides})


def test_compare_rejects_seed_regions():
    with pytest.raises(ConfigError, match="f_init"):
        load_config(
            overrides={
                "mode": "compare",
                "seed_region_1": "0,4",
                "seed_region_2": "12,16",
            }
        )


def test_compare_rejects_advancing_fields():
    with pytest.raises(ConfigError, match="advance_fields"):
        load_config(overrides={"mode": "compare", "advance_fields": "true"})


def test_wave_dt_fraction_capped_at_monotone_limit():
    with pytest.raises(ConfigError, match="dt_fraction"):
        load_config(overrides={"mode": "wave", "dt_fraction": "1.5"})


def test_fp_resolution_floor():
    with pytest.raises(ConfigError, match="resolution"):
        load_config(overrides={"mode": "fp", "resolution": "2"})


def test_fp_channels_limited_to_two_or_three():
    with pytest.raises(ConfigError, match="channels"):
        load_config(overrides={"mode": "fp", "channels": "4", "p0": "0.25,0.25,0.25,0.25"})


# Each row is a single-value check that a domain constructor makes during
# the load-time build; the config must still report it as a ConfigError
# that names the key, never as a bare ZeroDivisionError or the like.
CONSTRUCTOR_CHECKS = [
    ("wave", {"tau": "0"}, "tau"),
    ("wave", {"lam": "-1"}, "lam"),
    ("collapse", {"spacing": "0"}, "spacing"),
    ("wave", {"extent": "0"}, "extent"),
    ("collapse", {"extent": "8,8,8,8"}, "extent"),
    ("compare", {"dt": "0"}, "dt"),
    ("collapse", {"dt": "-0.1"}, "dt"),
    ("collapse", {"w": "0.5"}, "w"),  # above 4/(3 pi)
    ("fp", {"n_a": "0"}, "n_a"),
    ("collapse", {"rate_calibration": "0"}, "rate_calibration"),
    ("collapse", {"absorb_floor": "0"}, "absorb_floor"),
    ("compare", {"absorb_floor": "1"}, "absorb_floor"),
    ("collapse", {"p0": "0.3,0.3"}, "p0"),
    ("collapse", {"p0": "1.0"}, "p0"),
    ("sweep", {"p0": "-0.5,1.5"}, "p0"),
    ("fp", {"channels": "3"}, "p0"),  # default p0 has two entries
    ("fp", {"resolution": "2"}, "resolution"),
    ("compare", {"resolution": "3"}, "resolution"),
    ("fp", {"width_cells": "0"}, "width_cells"),
    ("collapse", {"max_steps": "0"}, "max_steps"),
    ("collapse", {"record_every": "-1"}, "record_every"),
    ("collapse", {"f_init": "1.5"}, "f_init"),
    ("wave", {"inside": "1.5"}, "inside"),
    ("exact", {"sites": "0"}, "sites"),
    ("exact", {"atoms": "0"}, "atoms"),
    # grids too large to allocate: caps in Grid and SimplexGrid
    ("wave", {"extent": "1e9"}, "extent"),
    ("wave", {"spacing": "1e-12"}, "spacing"),
    ("fp", {"extent": "1e9"}, "extent"),
    ("compare", {"spacing": "1e-12"}, "spacing"),
    ("fp", {"channels": "3", "p0": "0.2,0.3,0.5", "resolution": "100000"},
     "resolution"),
    ("compare", {"resolution": "1001"}, "resolution"),
    # an infinite extent used to escape as a bare OverflowError
    ("wave", {"extent": "inf"}, "extent"),
    ("collapse", {"spacing": "inf"}, "spacing"),
    ("collapse", {"tau": "inf"}, "tau"),
    ("wave", {"lam": "inf"}, "lam"),
    ("collapse", {"rate_calibration": "inf"}, "rate_calibration"),
]


@pytest.mark.parametrize(
    "mode,override,key", CONSTRUCTOR_CHECKS,
    ids=[f"{m}-" + ",".join(f"{k}={v}" for k, v in o.items())
         for m, o, _ in CONSTRUCTOR_CHECKS],
)
def test_constructor_checks_are_config_errors_naming_the_key(
    mode, override, key
):
    with pytest.raises(ConfigError) as info:
        load_config(overrides={"mode": mode, **override})
    assert re.search(rf"\b{key}\b", str(info.value)), str(info.value)


# Each row is a range check made by the key's own parser, so the error
# names the line (or the command line) and the key.
KEY_CHECKS = [
    ("wave", "dt_fraction", "1.5"),
    ("fp", "dt_fraction", "0"),
    ("compare", "dt_fraction", "-0.5"),
    ("wave", "t_final", "0"),
    ("exact", "t_final", "-1"),
    ("wave", "record_every", "0"),
    ("exact", "record_every", "0"),
    ("wave", "transient", "-1"),
    ("exact", "dt", "0"),
    ("fp", "n_steps", "0"),
    ("fp", "snapshot_every", "-1"),
    ("fp", "current_every", "0"),
    ("compare", "n_runs", "99"),
    ("compare", "boundary_cells", "0"),
    ("fp", "p0", "0,1"),
    ("compare", "p0", "1,0"),
    ("fp", "f_init", "1"),
    ("compare", "f_init", "0"),
]


@pytest.mark.parametrize("mode,key,value", KEY_CHECKS,
                         ids=[f"{m}-{k}={v}" for m, k, v in KEY_CHECKS])
def test_key_range_checks_name_the_place_and_key(tmp_path, mode, key, value):
    with pytest.raises(ConfigError, match=rf"^line 2: {key}: .*, got {value}$"):
        load_text(tmp_path, f"mode = {mode}\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^command line: {key}: "):
        load_config(overrides={"mode": mode, key: value})


def test_seed_must_fit_64_bits():
    assert load_config(overrides={"mode": "collapse",
                                  "seed": str(2**64 - 1)}).seed == 2**64 - 1
    for overrides in ({"mode": "collapse", "seed": "-1"},
                      {"mode": "fp", "seed": str(2**64)},
                      {"mode": "sweep", "seeds": "-2..3"}):
        with pytest.raises(ConfigError, match=r"0\.\.2\^64-1"):
            load_config(overrides=overrides)


def test_infinity_is_rejected(tmp_path):
    with pytest.raises(ConfigError, match="line 2: t_final: inf"):
        load_text(tmp_path, "mode = wave\nt_final = inf\n")
    with pytest.raises(ConfigError, match="line 2: w: -inf"):
        load_text(tmp_path, "mode = collapse\nw = -inf\n")


def test_zero_absorb_floor_is_rejected():
    # jumps are multiplicative, so a floor of exactly 0 is never reached
    with pytest.raises(ValueError, match="absorb_floor"):
        SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0, absorb_floor=0.0)
    with pytest.raises(ConfigError, match="absorb_floor"):
        load_config(overrides={"mode": "collapse", "absorb_floor": "0"})


def test_exact_basis_over_the_cap_is_rejected_at_load():
    # 8^6 configurations times 2^6 words = 16 777 216 > 2^20 basis states
    with pytest.raises(ConfigError, match="basis size 16777216"):
        load_config(overrides={"mode": "exact", "sites": "8", "atoms": "6"})


def test_caps_admit_their_own_value():
    # each cap rejects one past it (tests/test_cli.py) and loads at it
    fp = load_config(overrides={"mode": "fp", "n_steps": str(MAX_STEPS)})
    assert fp.params["n_steps"] == MAX_STEPS
    sweep = load_config(overrides={"mode": "sweep",
                                   "seeds": f"7..{6 + MAX_RUNS}"})
    assert len(sweep.seeds) == MAX_RUNS
    # a wave t_final just inside the cap at the default dt loads
    dt = load_config(overrides={"mode": "wave"}).setup[3]
    edge = load_config(overrides={"mode": "wave",
                                  "t_final": repr(0.999 * MAX_STEPS * dt)})
    assert edge.setup[4] <= MAX_STEPS
    seven = ",".join(["0.125"] * 6 + ["0.25"])
    assert len(load_config(overrides={"mode": "collapse",
                                      "p0": seven}).params["p0"]) == 7


def test_region_covering_no_cell_is_rejected_at_load():
    # (0, 0.1) fits the extent but holds no cell center at spacing 0.25
    with pytest.raises(ConfigError, match="covers no grid cell"):
        load_config(
            overrides={
                "mode": "collapse",
                "seed_region_1": "0,0.1",
                "seed_region_2": "28,32",
            }
        )


def test_trajectory_raises_only_a_zero_record_every():
    cfg = load_config(overrides={"mode": "collapse", "trajectory": "true",
                                 "record_every": "5"})
    assert cfg.params["record_every"] == 5
    for traj in ("true", "false"):
        with pytest.raises(ConfigError, match="record_every"):
            load_config(overrides={"mode": "collapse", "trajectory": traj,
                                   "record_every": "-3"})


def test_unparsable_trajectory_is_a_config_error():
    with pytest.raises(ConfigError, match="trajectory"):
        load_config(overrides={"mode": "collapse", "trajectory": "maybe"})


# --- hashing and canonical source ---


def test_hash_ignores_out_dir():
    a = load_config(overrides={"mode": "collapse", "out": "runs/a"})
    b = load_config(overrides={"mode": "collapse", "out": "runs/b"})
    assert a.config_hash() == b.config_hash()
    assert a.out_dir != b.out_dir


def test_hash_sees_parameter_changes():
    a = load_config(overrides={"mode": "collapse"})
    b = load_config(overrides={"mode": "collapse", "w": "0.3"})
    assert a.config_hash() != b.config_hash()


def test_hash_stable_across_spelling(tmp_path):
    # additional whitespace and comments collapse to the same canonical source
    one = load_text(tmp_path, "mode = fp\nn_steps = 100\n")
    two = load_text(tmp_path, "# hi\n  mode   =  fp\n\nn_steps=100\n")
    assert one.config_hash() == two.config_hash()


def test_defaulted_and_explicit_values_hash_alike():
    a = load_config(overrides={"mode": "collapse"})
    b = load_config(overrides={"mode": "collapse", "f_init": "0.4"})
    assert a.config_hash() == b.config_hash()


# the sha256 of each canonical source, pinned: a derived value (d_coeff,
# n_c, a default track_1, f_init or advance_fields) that drops out of the
# text, a changed default or a changed value format moves its hash
PINNED_HASHES = {
    "exact": (
        "mode = exact\n",
        "2d96ea765065c3a5ee1f872d825617458f4da6dd8b9bb1497ae68044d13eefe8"),
    "wave": (
        "mode = wave\n",
        "705ad80d8893882bcdb8c98151163ae777b61b4466430b0fc22312e254b75cf5"),
    "collapse": (
        "mode = collapse\n",
        "9aab065972e4a305ed5dc867cf8965ebee59de83dcd415af558bbd622b3acf8d"),
    "fp": (
        "mode = fp\n",
        "65afff4e0271f9e2395b5eee5aace0a0f1f54820f8af588b5aa9dc0074d7ced2"),
    "sweep": (
        "mode = sweep\n",
        "e80ff2185bf6dd1d67dcc7bbce5d721de986693b454964d360702e1047ac8cb8"),
    "compare": (
        "mode = compare\n",
        "e7fc2ac69ec443211dfab158646bd0e0032b6dad7c0628d22bec3c91ac6ad418"),
    "collapse_lam2_regions": (
        "mode = collapse\nlam = 2\nseed_region_1 = 0, 4\n"
        "seed_region_2 = 28, 32\n",
        "49442f52425f5a26134f4f0fc7cc6219a58488ec8605603065616366d674ad19"),
    "sweep_trajectory": (
        "mode = sweep\ntrajectory = true\n",
        "463d814bf144ec40c9a20e011a42ecb315b79a6569f8d4ef1f2f3cdc2da4e51c"),
    "exact_two_channels": (
        "mode = exact\nchannels = 2\ntrack_1 = 0\ntrack_2 = 2\n",
        "d23056afdef582cb64d2e56d77c9139b3dfa981a5285aa5883286bacee1002fe"),
    "fp_three_channels": (
        "mode = fp\nchannels = 3\np0 = 0.2, 0.3, 0.5\n"
        "snapshot_every = 500\n",
        "49fa8834e70c69242b778ded1c6b708d71947c84e8663f3d701571c129661047"),
    "collapse_seed_formats": (
        "mode = collapse\nseed = 7\nformats = svg,json\n",
        "0de1da32cfbc67bd16dd1f7034732f7cefceb81b111e1bea9eb1eff8bfcce849"),
    # the output directory stays out of the hash: fp's default digest
    "fp_out": (
        "mode = fp\nout = elsewhere\n",
        "65afff4e0271f9e2395b5eee5aace0a0f1f54820f8af588b5aa9dc0074d7ced2"),
    "sweep_seeds": (
        "mode = sweep\nseeds = 3..6\n",
        "a7682467a1f292c6e73b5b8f655c678ee06793b11f8f9c06138d62c987f35d9c"),
}


@pytest.mark.parametrize("text,digest", PINNED_HASHES.values(),
                         ids=PINNED_HASHES)
def test_config_hash_is_pinned(tmp_path, text, digest):
    assert load_text(tmp_path, text).config_hash() == digest


# --- loading builds each mode's module objects ---


def test_every_mode_builds_on_defaults():
    for mode in MODES:
        cfg = load_config(overrides={"mode": mode})
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.setup is not None


def test_collapse_builder_honours_max_steps_override():
    cfg = load_config(overrides={"mode": "collapse", "max_steps": "17"})
    assert cfg.setup.max_steps == 17


@pytest.mark.parametrize("mode,density_at", [("fp", 1), ("compare", 2)])
def test_start_density_sits_on_the_cached_schemes_grid(mode, density_at):
    # a second, equal load gets the scheme cached by the first, built on
    # the first load's grid object; fp_step then tests only identity
    for _ in range(2):
        setup = load_config(overrides={"mode": mode}).setup
        density, scheme = setup[density_at], setup[3]
        assert density.grid is scheme.grid
