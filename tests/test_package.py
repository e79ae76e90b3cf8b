"""Package surface: every exported name resolves, and removed names stay removed."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import snmix

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(snmix.__path__, prefix="snmix.")
)


def test_package_exports_resolve():
    missing = [name for name in snmix.__all__ if not hasattr(snmix, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", MODULES)
def test_module_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


# names removed from the API; each is gone, not kept as an alias
REMOVED = {
    "snmix": ["TangentVector", "project_to_tangent", "exp_map", "log_map"],
    "snmix.distribution": [
        "_stencil_log_partition", "_STENCIL_OFFSETS", "_radial_moments", "_node_moments",
    ],
    "snmix.geometry": [
        "TangentVector", "project_to_tangent", "exp_map", "log_map", "TANGENCY_TOL", "_coords",
    ],
}


@pytest.mark.parametrize("module_name", sorted(REMOVED))
def test_removed_names_stay_removed(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in REMOVED[module_name] if hasattr(module, name)] == []


def test_mixture_model_component_api_removed():
    # a model stores the arrays mus, lams and weights; the per-component view is gone
    from snmix import MixtureModel

    model = MixtureModel([[0.0, 0.0, 1.0]], [5.0], [1.0])
    assert [name for name in ("components", "locations", "concentrations")
            if hasattr(model, name)] == []
    assert [f.name for f in dataclasses.fields(MixtureModel)] == [
        "mus", "lams", "weights", "concentration_mode"]


def test_finite_difference_step_removed():
    # the concentration derivatives are exact, so no step size is left to set
    from snmix import ConcentrationConfig, grad_log_partition
    from snmix.cli import build_parser

    assert "h_scale" not in {f.name for f in dataclasses.fields(ConcentrationConfig)}
    assert "h" not in inspect.signature(grad_log_partition).parameters
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fit", "--input", "x.csv", "--h-scale", "1e-4"])


# parameters that had one value in use and are now module constants
REMOVED_PARAMETERS = [
    ("snmix.metrics", "kmeans", ["restarts", "max_iter"]),
    ("snmix.metrics", "spherical_kmeans", ["restarts", "max_iter"]),
    ("snmix.simulate", "small_mix", ["n_per_component"]),
    ("snmix.simulate", "large_mix", ["n_total"]),
    ("snmix.simulate", "household_mix", ["sizes"]),
    ("snmix.distribution", "log_density", ["order"]),
    ("snmix.distribution", "grad_log_partition", ["quad_order"]),
    ("snmix.geometry", "unitize", ["axis"]),
    # private parameters that only passed these values along
    ("snmix.metrics", "_lloyd", ["restarts", "max_iter"]),
    ("snmix.geometry", "_norms", ["axis"]),
    ("snmix.distribution", "_radial_cdf", ["cells"]),
    ("snmix.distribution", "_log_partition_moments", ["order"]),
]


@pytest.mark.parametrize("module_name, function, names", REMOVED_PARAMETERS,
                         ids=[f"{m}.{f}" for m, f, _ in REMOVED_PARAMETERS])
def test_one_value_parameters_removed(module_name, function, names):
    params = inspect.signature(getattr(importlib.import_module(module_name), function)).parameters
    assert [name for name in names if name in params] == []


def test_one_value_settings_removed():
    # the fixed rule always takes the 1/L step and the concentration solve has
    # one iteration cap, so neither is a config field or a CLI flag
    from snmix import ConcentrationConfig, FrechetConfig
    from snmix import io as dataio
    from snmix.cli import build_parser

    assert "alpha" not in {f.name for f in dataclasses.fields(FrechetConfig)}
    assert "max_iter" not in {f.name for f in dataclasses.fields(ConcentrationConfig)}
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fit", "--input", "x.csv", "--alpha", "0.5"])
    assert not hasattr(dataio, "Dataset")


def test_import_loads_no_scipy():
    # SciPy is a test dependency only; a fresh interpreter that imports the
    # package (and its CLI) must not load any SciPy module
    src = str(Path(snmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, snmix, snmix.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
