"""Command-line front end: a simulation mode, then flags.

    lecollapse collapse --config run.cfg --seed 7 --out runs/demo
    lecollapse sweep --config born.cfg --seeds 0..99 --formats csv,json
    lecollapse wave --trajectory ...        (collapse/sweep only flag)

Flags override the corresponding config-file keys; a missing --config
runs the mode entirely on defaults. Exit codes: 0 success, 2 config
error, 3 numerical-stability error, 4 timeout.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from lecollapse.config import MODES, ConfigError, load_config
from lecollapse.engine import DegenerateStateError
from lecollapse.exact import DivergenceError
from lecollapse.runner import run_experiment
from lecollapse.wave import FrontUndefinedError, StabilityError

__all__ = ["main"]

EXIT_SUCCESS = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_TIMEOUT = 4

_MODE_BLURBS = {
    "exact": "branch evolution of a small lattice model",
    "wave": "entanglement probability front on a grid",
    "collapse": "one stochastic collapse trajectory",
    "fp": "diffusion-limit density on the probability simplex",
    "sweep": "collapse ensemble over a seed range plus statistics",
    "compare": "density solver against a matched trajectory ensemble",
}

_NUMERICAL_ERRORS = (
    StabilityError,
    FrontUndefinedError,
    DivergenceError,
    DegenerateStateError,
    FloatingPointError,
)


# flag, then its add_argument options; every flag but --config overrides
# the config key named by its dest, as the text a config file would hold
_FLAGS = {
    "--config": dict(metavar="PATH",
                     help="key=value config file (defaults apply without "
                          "one)"),
    "--seed": dict(type=int, metavar="N", help="rng seed (single-run modes)"),
    "--seeds": dict(metavar="A..B", help="inclusive seed range (sweep)"),
    "--out": dict(metavar="DIR", help="output directory (default runs)"),
    "--formats": dict(metavar="LIST", help="comma list from csv,json,svg"),
    "--trajectory": dict(action="store_const", const="true",
                         help="log per-step channel probabilities "
                              "(collapse, sweep)"),
    "--max-steps": dict(type=int, metavar="N",
                        help="step budget per trajectory"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lecollapse",
        description="Desk-scale collapse-from-entanglement simulations.",
    )
    parser.add_argument("mode", choices=MODES, metavar="mode", help="; ".join(
        f"{mode}: {blurb}" for mode, blurb in _MODE_BLURBS.items()))
    for flag, options in _FLAGS.items():
        parser.add_argument(flag, **options)
    return parser


_PARSER = _build_parser()


def _plain_warnings() -> None:
    """One clean stderr line per warning instead of the traceback form."""

    def show(message, category, filename, lineno, file=None, line=None):
        print(f"warning: {message}", file=sys.stderr)

    warnings.showwarning = show


def main(argv=None) -> int:
    args = vars(_PARSER.parse_args(argv))
    _plain_warnings()

    path = args.pop("config")
    overrides = {k: str(v) for k, v in args.items() if v is not None}
    try:
        config = load_config(path, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        manifest = run_experiment(config)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(
        f"{config.mode}: {manifest.status}; "
        f"{len(manifest.outputs)} outputs + manifest.json in {config.out_dir}"
    )
    return EXIT_SUCCESS if manifest.status == "success" else EXIT_TIMEOUT


if __name__ == "__main__":
    raise SystemExit(main())
