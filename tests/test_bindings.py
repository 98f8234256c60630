"""Names that code outside a module reaches for must exist.

The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by (module, attribute) at the place their callers look them up, and each
module's ``__all__`` promises its exports. A refactor that moves or
renames one of these would otherwise surface only as a crashed or
silently untraced ``--trace 1`` run, or as a failing star import.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.tracing import PATCHES, Tracer  # noqa: E402

from lecollapse.config import load_config  # noqa: E402
from lecollapse.engine import CollapseSetup, SlipParams, run_collapse  # noqa: E402
from lecollapse import runner  # noqa: E402
from lecollapse.runner import run_experiment  # noqa: E402
from lecollapse.wave import Grid, KineticParams  # noqa: E402

MODULES = ("cli", "config", "engine", "exact", "fokker_planck", "plotting",
           "runner", "wave")
PACKAGE = ROOT / "src" / "lecollapse"


def unused_imports(source: str, keep=frozenset()) -> list[str]:
    """Names a module imports and never reads, except those in ``keep``.

    One pass over the whole module: a name imported inside a function
    counts as used if any code in the module reads it.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(imported) - read - keep)


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, *_ in PATCHES}
                                               | {("lecollapse.engine",
                                                   "philox_stream")}))
def test_every_traced_binding_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def bound_kernels() -> set[str]:
    """The ``_sparsetools`` kernels the package's source calls by name."""
    return {node.attr for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "_sparsetools"}


def test_every_bound_sparse_kernel_resolves():
    # the binders and the CSR assembly in lecollapse._csr skip scipy's
    # operator dispatch and call private kernels, which a scipy release
    # may rename or drop
    from scipy.sparse import _sparsetools

    kernels = bound_kernels()
    assert kernels == {"csr_matvec", "dia_matvec", "coo_tocsr",
                       "csr_has_sorted_indices", "csr_sort_indices",
                       "csr_sum_duplicates"}
    for name in kernels:
        assert callable(getattr(_sparsetools, name))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"lecollapse.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_engine_field_step_binding_is_the_wave_kernel():
    # the tracer times the field step by this binding, so it must be the
    # shared kernel itself, not a leftover the engine no longer calls
    engine = importlib.import_module("lecollapse.engine")
    wave = importlib.import_module("lecollapse.wave")
    assert engine._laplacian is wave.reaction_diffusion


def test_traced_run_reaches_the_field_step_bindings():
    # an advancing-field trajectory must call the engine's laplacian and
    # cell-average bindings, which the tracer counts as the field step
    setup = CollapseSetup(
        kinetics=KineticParams(lam=1.0, tau=1.0),
        slips=SlipParams(w=0.4, tau=1.0, lam=1.0, n_a=100.0,
                         rate_calibration=2e4),
        grid=Grid((8.0,), 0.25),
        p0=(0.5, 0.5),
        dt=0.02,
        max_steps=5,
        f_init=0.4,
    )
    plain = run_collapse(setup, seed=1)
    tracer = Tracer()
    with tracer.installed():
        traced = run_collapse(setup, seed=1)
    names = [s.name for s in tracer.spans]
    assert names.count("wave.laplacian") == 5
    assert names.count("wave.cell_averages") == 2 * 5
    assert "engine.poisson" in names
    assert (traced.winner, traced.collapse_time, traced.slip_count) == (
        plain.winner, plain.collapse_time, plain.slip_count)


def test_traced_fp_run_steps_once_per_current_row(tmp_path):
    # the runner steps in chunks that end at each row of current.csv, so
    # there is one fp_step span per current_every steps and one
    # boundary_current span per row (the initial row, then every chunk)
    config = load_config(overrides={"mode": "fp", "n_steps": "20",
                                    "current_every": "10",
                                    "out": str(tmp_path / "fp")})
    tracer = Tracer()
    with tracer.installed():
        run_experiment(config)
    names = [s.name for s in tracer.spans]
    assert names.count("fokker_planck.fp_step") == 2
    assert names.count("fokker_planck.boundary_current") == 3


def test_traced_sweep_is_one_engine_run_over_every_seed(tmp_path):
    # the runner reaches the batch through its run_ensemble binding, so
    # the engine time of a sweep lands in one span holding every seed
    config = load_config(overrides={
        "mode": "sweep", "seeds": "0..3", "extent": "32",
        "seed_region_1": "0,2", "seed_region_2": "30,32",
        "rate_calibration": "2e4", "dt": "0.02",
        "out": str(tmp_path / "sweep"),
    })
    tracer = Tracer()
    with tracer.installed():
        run_experiment(config)
    runs = [s for s in tracer.spans if s.name == "engine.run"]
    assert len(runs) == 1
    assert runs[0].extra["trajectories"] == 4


def test_traced_wave_steps_once_per_tracking_batch(tmp_path):
    # the runner fills each tracking batch with whole record_every chunks
    # in one kpp_step call, the first batch after the initial field, and
    # takes one more call for the short last chunk
    config = load_config(overrides={"mode": "wave", "extent": "20",
                                    "t_final": "5", "record_every": "7",
                                    "out": str(tmp_path / "wave")})
    tracer = Tracer()
    with tracer.installed():
        run_experiment(config)
    n_steps = json.loads((tmp_path / "wave" / "speed.json").read_text())[
        "n_steps"]
    assert n_steps % 7  # the last chunk is a short one
    whole, batch = n_steps // 7, runner._TRACK_FIELDS
    assert whole > batch  # the whole chunks fill more than one batch
    names = [s.name for s in tracer.spans]
    assert names.count("wave.kpp_step") == whole // batch + 1 + 1


# __init__.py imports only to re-export, so it is left out
@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_every_imported_name_is_used(path):
    # a binding the tracer patches may be imported only to be patched
    module = f"lecollapse.{path.removesuffix('.py')}"
    traced = frozenset(a for m, a, *_ in PATCHES if m == module)
    source = (PACKAGE / path).read_text(encoding="utf-8")
    assert unused_imports(source, traced) == []


def test_unused_import_check_finds_a_leftover():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from math import ceil, floor\n"
              "def f():\n    from scipy import sparse\n"
              "    return np.zeros(ceil(1.5)), os.sep\n")
    assert unused_imports(source) == ["floor", "sparse"]
    assert unused_imports(source, frozenset({"floor"})) == ["sparse"]
