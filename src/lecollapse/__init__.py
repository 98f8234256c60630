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

# the library quick start; everything else is imported from its module
from lecollapse.engine import (CollapseSetup, SlipParams, born_statistics,
                               run_ensemble)
from lecollapse.wave import Grid, KineticParams
