"""Watch the entanglement probability wave pick its speed.

A marked region seeds the left end of a long box. Diffusion leaks the
local marking probability forward, the contagion term amplifies it, and
the two together select a traveling front: the pulled speed
2 sqrt(D / tau), noticeably faster than the bare transport estimate
lam / (sqrt(3) tau). The script measures the speed from the simulated
front trajectory and prints both references.

Run:  python3 demos/front_speed.py
"""

import numpy as np

from lecollapse.wave import (
    Grid,
    KineticParams,
    front_position,
    front_speed,
    front_width,
    kpp_step,
    seed_field,
)


def main():
    params = KineticParams(lam=1.0, tau=1.0)
    grid = Grid((200.0,), 0.125)
    dt = 0.4 * min(grid.cfl_limit(params), grid.monotone_limit(params))
    f = seed_field(grid, (0.0, 5.0))

    sample_every = max(1, int(round(0.5 / dt)))
    n_steps = int(np.ceil(100.0 / dt))
    # one call steps every sample, one more the steps past the last
    fields = kpp_step(f, grid, params, dt, sample_every, out=np.empty(
        (n_steps // sample_every,) + grid.shape))
    times = np.arange(sample_every, n_steps + 1, sample_every) * dt
    fronts = front_position(fields, grid)  # every sample at once

    fit = front_speed(times, fronts, params)
    f = kpp_step(fields[-1], grid, params, dt, n_steps % sample_every)
    width = front_width(f, grid)

    print(f"grid: {grid.extent[0]:.0f} lam long, spacing {grid.spacing}, "
          f"dt {dt:.4f}")
    print(f"fitted front speed:   {fit.speed:.4f} lam/tau "
          f"(rms residual {fit.residual:.3f})")
    print(f"pulled-front value:   {fit.kpp_speed:.4f} lam/tau "
          f"-> ratio {fit.speed / fit.kpp_speed:.3f}")
    print(f"transport estimate:   {fit.transport_speed:.4f} lam/tau "
          f"-> ratio {fit.speed / fit.transport_speed:.3f}")
    print(f"converged front width (10%-90%): {width:.2f} lam")
    print()
    print("the measured speed sits a few percent under the pulled value;")
    print("the approach is logarithmically slow in time, so longer runs on")
    print("finer grids close the gap from below.")


if __name__ == "__main__":
    main()
