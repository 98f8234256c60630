"""Desk-scale simulator of collapse by local-entanglement contagion.

The package follows one mechanism through four levels of description:

- ``exact``: branch dynamics of a few atoms on a small lattice, where the
  le-contagion rules and the branch-sum identity can be checked against
  exact unitary evolution.
- ``wave``: coarse-grained le probability waves, reaction-diffusion fronts
  that propagate entanglement at a fixed fraction of the sound speed.
- ``engine``: stochastic slips in coherence driving a zero-sum random walk
  of channel probabilities until a single channel absorbs everything.
- ``fokker_planck``: the matching diffusion equation for the ensemble
  density of channel probabilities on the simplex.

``config``, ``runner``, ``plotting`` and ``cli`` wrap the four cores in a
reproducible command-line workflow.
"""

__version__ = "0.1.0"

from lecollapse.exact import (
    BranchHamiltonian,
    BranchState,
    ContagionMatrices,
    DivergenceError,
    LatticeBasis,
    LatticeModel,
    build_branch_hamiltonian,
    evolve,
    le_occupation,
    local_probabilities,
    reconstruct_standard,
)
from lecollapse.wave import (
    FrontSpeedFit,
    FrontUndefinedError,
    Grid,
    KineticParams,
    ScalarFieldSet,
    StabilityError,
    front_position,
    front_speed,
    front_width,
    kpp_step,
    seed_field,
)
from lecollapse.engine import (
    CollapseSetup,
    DegenerateStateError,
    EnsembleResult,
    RunResult,
    SlipParams,
    SmallNumbersWarning,
    born_statistics,
    run_collapse,
    run_ensemble,
)
from lecollapse.fokker_planck import (
    FPDensity,
    SimplexGrid,
    boundary_current,
    compare_histogram,
    edge_mass,
    ensemble_histogram,
    fp_step,
    stable_step,
)
from lecollapse.config import ConfigError, ExperimentConfig, load_config
from lecollapse.runner import RunManifest, run_experiment
from lecollapse.plotting import PLOT_KINDS, PlotSchemaError, emit_plot
