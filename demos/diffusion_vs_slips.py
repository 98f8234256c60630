"""Why the diffusion picture cannot collapse but the slips can.

Averaging the slip process gives a Fokker-Planck equation on the
probability simplex whose diffusion coefficient vanishes at the edges:
the probability current dies exactly where absorption would happen, so
an initially narrow density only leans against the boundary and piles
up without ever crossing. The discrete process behind it has no such
obstruction: each slip is a finite kick, and a kick from close enough
to the edge lands on it. The script runs both descriptions from the
same starting point and matched coefficients, then compares where the
probability mass ends up.

Run:  python3 demos/diffusion_vs_slips.py
"""

import dataclasses
import warnings

import numpy as np

from lecollapse.engine import (
    CollapseSetup,
    SlipParams,
    SmallNumbersWarning,
    run_ensemble,
    variance_matched_rate_scale,
)
from lecollapse.fokker_planck import (
    FPDensity,
    SimplexGrid,
    boundary_current,
    edge_mass,
    field_summary,
    fp_scheme,
    fp_step,
    stable_step,
)
from lecollapse.wave import Grid, KineticParams

# aggregated-slip regime is intentional here, as in the other demos
warnings.filterwarnings("ignore", category=SmallNumbersWarning)


def main():
    base = SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0)
    rc = variance_matched_rate_scale(base, 2)
    params = dataclasses.replace(base, rate_calibration=rc,
                                 absorb_floor=1e-5)

    box = Grid((16.0,), 0.25)
    p0 = (0.3, 0.7)
    summary = field_summary(box, np.full((2,) + box.shape, 0.4), p0, params)

    grid = SimplexGrid(channels=2, resolution=100)
    density = FPDensity.near_delta(grid, p0)
    scheme = fp_scheme(grid, summary, params,
                       0.5 * stable_step(grid, summary, params))
    n_steps = 80_000

    print("diffusion limit on the simplex:")
    print(f"{'t':>7} {'mass':>10} {'edge mass':>10} {'boundary current':>17}")
    for block in range(5):
        density = fp_step(density, scheme,
                          steps=n_steps // 4 if block else 1)
        print(f"{density.time:7.1f} {density.mass:10.6f} "
              f"{edge_mass(density):10.4f} "
              f"{boundary_current(density, scheme):17.3e}")
    print("-> the density leans on the boundary; nothing gets through.")
    print()

    setup = CollapseSetup(
        kinetics=KineticParams(lam=1.0, tau=1.0),
        slips=params,
        grid=box,
        p0=p0,
        dt=0.04,
        max_steps=int(np.ceil(density.time / 0.04)),
        f_init=0.4,
        advance_fields=False,
    )
    ensemble = run_ensemble(setup, seed=7, n_runs=400)
    finished = sum(r.status == "collapsed" for r in ensemble.results)
    winners = np.array([r.winner for r in ensemble.results
                        if r.winner is not None])

    print(f"discrete slips over the same horizon (t = {density.time:.0f}):")
    print(f"  collapsed {finished}/400 runs "
          f"({(winners == 0).sum()} on channel 1, "
          f"{(winners == 1).sum()} on channel 2); the rest still walking")
    print("-> same second moments, opposite fate: finite kicks absorb.")


if __name__ == "__main__":
    main()
