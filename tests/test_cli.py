"""Command-line behaviour: flags, messages and exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lecollapse.config import MAX_STEPS, load_config
from lecollapse.exact import default_timestep
from lecollapse.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_SUCCESS,
    EXIT_TIMEOUT,
    main,
)


def fast_collapse_args(tmp_path, *extra):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "mode = collapse\nextent = 16.0\nrate_calibration = 20000\n"
    )
    return ["collapse", "--config", str(cfg), "--out", str(tmp_path / "out"),
            *extra]


def test_success_exit_and_message(tmp_path, capsys):
    rc = main(fast_collapse_args(tmp_path))
    assert rc == EXIT_SUCCESS
    out = capsys.readouterr().out
    assert "collapse: success" in out
    assert "manifest.json" in out


def test_exit_codes_are_the_documented_values():
    assert (EXIT_SUCCESS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_TIMEOUT) == (0, 2, 3, 4)


def test_config_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = collapse\nw = -1\n")
    rc = main(["collapse", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["collapse", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG


def test_mode_conflict_between_file_and_subcommand_exits_2(tmp_path, capsys):
    cfg = tmp_path / "wave.cfg"
    cfg.write_text("mode = wave\n")
    rc = main(["collapse", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "mode" in capsys.readouterr().err


def test_numerical_blowup_exits_3(tmp_path, capsys):
    # a 10 tau step with strong couplings trips the divergence watchdog
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "mode = exact\ndt = 10.0\nt_final = 100.0\n"
        "u_strength = 5.0\nv_strength = 5.0\n"
    )
    rc = main(["exact", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_NUMERICAL
    assert "numerical error" in capsys.readouterr().err
    # the error manifest was still committed
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "error"
    assert manifest["partial"] is True


def test_timeout_exits_4(tmp_path, capsys):
    rc = main(fast_collapse_args(tmp_path, "--max-steps", "5"))
    assert rc == EXIT_TIMEOUT
    assert "timeout" in capsys.readouterr().out


def test_seed_flag_reaches_the_run(tmp_path):
    rc = main(fast_collapse_args(tmp_path, "--seed", "9"))
    assert rc == EXIT_SUCCESS
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert record["seed"] == 9


def test_seeds_flag_drives_a_sweep(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "mode = sweep\nextent = 16.0\nrate_calibration = 20000\n"
    )
    rc = main(["sweep", "--config", str(cfg), "--seeds", "0..3",
               "--out", str(tmp_path / "s")])
    assert rc == EXIT_SUCCESS
    born = json.loads((tmp_path / "s" / "born.json").read_text())
    assert born["n_results"] == 4


def test_formats_flag_limits_outputs(tmp_path):
    rc = main(fast_collapse_args(tmp_path, "--formats", "json"))
    assert rc == EXIT_SUCCESS
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {"run.json", "manifest.json"}


def test_trajectory_flag_adds_the_walk_csv(tmp_path):
    rc = main(fast_collapse_args(tmp_path, "--trajectory"))
    assert rc == EXIT_SUCCESS
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_defaults_run_without_a_config_file(tmp_path):
    rc = main(["fp", "--out", str(tmp_path / "fp")])
    assert rc == EXIT_SUCCESS
    assert (tmp_path / "fp" / "summary.json").exists()


def test_wave_without_a_front_notes_the_short_history(tmp_path):
    # a seed region over the whole box leaves no front to track
    cfg = tmp_path / "full.cfg"
    cfg.write_text("seed_region = 0.0,400.0\n")
    rc = main(["wave", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == EXIT_SUCCESS
    speed = json.loads((tmp_path / "o" / "speed.json").read_text())
    assert speed["front_samples"] == 0 and speed["speed"] is None
    assert speed["fit_note"].startswith("front history too short")


def config_error(tmp_path, capsys, mode, text, *flags):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = main([mode, "--config", str(cfg), "--out", str(tmp_path / "o"),
               *flags])
    assert rc == EXIT_CONFIG
    assert not (tmp_path / "o").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("mode,text,flags,where", [
    ("collapse", "", ("--seed", "-1"), "command line: seed: "),
    ("compare", "", ("--seed", "-1"), "command line: seed: "),
    ("collapse", "seed = 18446744073709551616\n", (), "line 1: seed: "),
    ("sweep", "", ("--seeds=-1..2",), "command line: seeds: "),
    ("sweep", "seeds = 0..18446744073709551616\n", (), "line 1: seeds: "),
])
def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, mode, text, flags,
                                      where):
    err = config_error(tmp_path, capsys, mode, text, *flags)
    assert f"config error: {where}must lie in 0..2^64-1" in err


@pytest.mark.parametrize("mode,key", [
    ("wave", "t_final"),
    ("exact", "t_final"),
    ("compare", "t_final"),
    ("exact", "hop_amplitude"),
    ("exact", "u_strength"),
    ("collapse", "dt"),
])
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, mode, key, value):
    err = config_error(tmp_path, capsys, mode, f"{key} = {value}\n")
    assert f"config error: line 1: {key}: {value} is not a valid" in err


def test_step_count_overflow_exits_2(tmp_path, capsys):
    # t_final / dt overflows to inf before it becomes a step count
    err = config_error(tmp_path, capsys, "compare",
                       "t_final = 1e300\ndt = 1e-10\n")
    assert "config error: invalid compare parameters" in err


@pytest.mark.parametrize("mode,text,key", [
    ("exact", "t_final = 1e300\n", "t_final"),  # at the default dt
    ("exact", "t_final = 2e6\ndt = 1\n", "t_final"),
    ("wave", "t_final = 1e300\n", "t_final"),
    # the engine side first, then the density side alone
    ("compare", "t_final = 1e300\n", "t_final"),
    ("compare", "t_final = 1e5\ndt = 1\n", "t_final"),
    ("fp", "n_steps = 1000001\n", "n_steps"),
    ("collapse", "max_steps = 1000001\n", "max_steps"),
], ids=["exact-default-dt", "exact", "wave", "compare-engine",
        "compare-density", "fp", "collapse"])
def test_step_counts_past_the_cap_exit_2(tmp_path, capsys, mode, text, key):
    err = config_error(tmp_path, capsys, mode, text)
    assert key in err and "1000000" in err


def test_the_exact_cap_counts_the_steps_of_the_dt_the_run_uses(tmp_path,
                                                               capsys):
    # the default step comes from the built generator and the run takes
    # ceil(t_final / step) steps, so the largest t_final with t_final / step
    # <= MAX_STEPS loads, and one float more of t_final does not
    step = default_timestep(load_config(overrides={"mode": "exact"}).setup[0])
    t_final = MAX_STEPS * step
    while t_final / step > MAX_STEPS:
        t_final = math.nextafter(t_final, 0.0)
    while math.nextafter(t_final, math.inf) / step <= MAX_STEPS:
        t_final = math.nextafter(t_final, math.inf)
    edge = load_config(overrides={"mode": "exact", "t_final": repr(t_final)})
    assert edge.setup[1:] == (t_final / MAX_STEPS, MAX_STEPS)
    over = math.nextafter(t_final, math.inf)
    err = config_error(tmp_path, capsys, "exact", f"t_final = {over!r}\n")
    assert f"t_final = {over!r}" in err and f"dt = {step!r}" in err


def test_snapshot_counts_past_the_cap_exit_2(tmp_path, capsys):
    # a million one-step snapshots would write a million density files
    err = config_error(tmp_path, capsys, "fp", "n_steps = 1000000\n"
                       "snapshot_every = 1\nresolution = 1000\nchannels = 3\n")
    assert "snapshot_every = 1 writes 1000000 density snapshots" in err
    assert "more than the 100" in err


def test_a_zero_exact_generator_without_dt_exits_2(tmp_path, capsys):
    err = config_error(tmp_path, capsys, "exact", "hop_amplitude = 0\n"
                       "u_strength = 0\nv_strength = 0\n")
    assert "give dt" in err


@pytest.mark.parametrize("mode,text,flags,key", [
    ("sweep", "seeds = 0..999999999\n", (), "line 1: seeds: "),
    ("sweep", "", ("--seeds", "5..100005"), "command line: seeds: "),
    ("compare", "n_runs = 100001\n", (), "line 1: n_runs: "),
])
def test_run_counts_past_the_cap_exit_2(tmp_path, capsys, mode, text, flags,
                                        key):
    err = config_error(tmp_path, capsys, mode, text, *flags)
    assert f"config error: {key}" in err and "100000" in err


@pytest.mark.parametrize("mode", ["collapse", "sweep"])
def test_eight_channels_exit_2(tmp_path, capsys, mode):
    # CollapseSetup holds the cap, so the message is its ValueError's
    err = config_error(tmp_path, capsys, mode, "p0 = " + ",".join(
        ["0.125"] * 8) + "\n")
    assert f"config error: invalid {mode} parameters: got 8 channels" in err
    assert "at most 7 channels" in err


# each at the value every mode derives at its defaults
DERIVED = {"d_coeff": "0.16666666666666666", "n_c": "100.0"}


@pytest.mark.parametrize("key", DERIVED)
@pytest.mark.parametrize("mode", ["wave", "collapse", "sweep", "fp",
                                  "compare"])
def test_derived_values_are_unknown_keys_exit_2(tmp_path, capsys, mode, key):
    err = config_error(tmp_path, capsys, mode, f"{key} = {DERIVED[key]}\n")
    assert f"config error: line 1: unknown key {key!r} for mode {mode}" in err


@pytest.mark.parametrize("mode", ["collapse", "sweep"])
def test_extent_off_the_cell_size_exits_2(tmp_path, capsys, mode):
    err = config_error(tmp_path, capsys, mode, "extent = 32.5\n")
    assert "extent 32.5 must be an integral multiple of lam" in err


def scipy_modules(tmp_path, code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return set(out.stdout.splitlines()[-1].split())


def run_at_defaults(mode):
    return ("from lecollapse.cli import main\n"
            f"assert main(['{mode}', '--out', 'out']) == 0")


@pytest.mark.parametrize("code", [
    "import lecollapse", "import lecollapse.cli",
    run_at_defaults("collapse"), run_at_defaults("sweep"),
], ids=["import", "import-cli", "collapse", "sweep"])
def test_engine_only_runs_leave_scipy_out(tmp_path, code):
    assert scipy_modules(tmp_path, code) == set()


def test_wave_loads_scipy_sparse_but_not_special(tmp_path):
    loaded = scipy_modules(tmp_path, run_at_defaults("wave"))
    assert "scipy.sparse" in loaded
    assert "scipy.special" not in loaded


def test_seeded_collapse_loads_scipy_sparse_but_not_special(tmp_path):
    # seeded fronts advance on the wave's step operator, built at load
    code = ("from pathlib import Path\n"
            "Path('seeded.cfg').write_text('seed_region_1 = 0, 2\\n"
            "seed_region_2 = 30, 32\\nmax_steps = 50\\n')\n"
            "from lecollapse.cli import main\n"
            "assert main(['collapse', '--config', 'seeded.cfg', "
            "'--out', 'out']) in (0, 4)")
    loaded = scipy_modules(tmp_path, code)
    assert "scipy.sparse" in loaded
    assert "scipy.special" not in loaded
