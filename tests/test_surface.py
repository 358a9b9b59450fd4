"""The public surface: every name a module lists in __all__ exists, and the
README's examples run against it."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hotuner

README = (Path(__file__).parents[1] / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# The package's public names, each declared once in its module's __all__, and
# the names that their modules keep out of that list.
PUBLIC = set("""
    BASELINE_KINDS BUFFER_KINDS CertificateReport DataBuffer Gains HIGH_ORDER_KINDS KINDS
    NumericalDivergence PEReport POINTWISE_KINDS RATE_CONDITION_KINDS RegressorSignal
    RichnessReport SOFT_RESET_KINDS SignalGrid SimConfig SystemKind Trajectory TunerState
    buffer_csv check_decrease_along check_decrease_pointwise check_pe compile_field
    energy_matrix estimate_decay_rate lyapunov_along matrosov_check
    p_matrix pe_gram record_steps richness simulate simulate_with_buffer
""".split())
MODULE_ONLY = {
    "certificates": ["POINTWISE_TOLERANCE"],
    "databuffer": ["DataAggregates", "data_aggregates", "data_term"],
    "dynamics": ["KindSpec"],
    "integrator": [],
    "signals": ["M_HAT_GRID_STEP", "PE_TOLERANCE", "row_dots"],
}


def test_every_listed_name_resolves():
    """A function deleted without its __all__ entry fails here, not at import *."""
    # __main__ runs the command line when imported.
    names = [info.name for info in pkgutil.iter_modules(hotuner.__path__)
             if info.name != "__main__"]
    assert names, "no modules found"
    for module in [hotuner] + [importlib.import_module(f"hotuner.{name}") for name in names]:
        listed = module.__all__
        assert len(set(listed)) == len(listed), f"{module.__name__}.__all__ repeats a name"
        missing = [name for name in listed if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


def test_package_republishes_each_module_share_once():
    """hotuner.__all__ is the union of its five modules' lists, which share out
    the public names with none listed twice; the names a module keeps out of
    its list still import from it and stay out of the package's."""
    modules = {name: importlib.import_module(f"hotuner.{name}") for name in MODULE_ONLY}
    listed = [name for module in modules.values() for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is in two module lists"
    assert set(hotuner.__all__) == set(listed) == PUBLIC
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert hasattr(modules[module], name) and name not in PUBLIC, f"{module}.{name}"


@pytest.mark.parametrize("index", range(len(README_BLOCKS)))
def test_readme_python_block_runs(index):
    """Each python block of README.md runs on its own, in a fresh namespace."""
    source = compile(README_BLOCKS[index], f"README.md python block {index}", "exec")
    exec(source, {"__name__": "readme_example"})


def test_readme_cites_only_names_that_exist():
    """Every `module.name` that README.md cites for a hotuner module resolves, so a
    rename that leaves the README behind fails here."""
    modules = {info.name for info in pkgutil.iter_modules(hotuner.__path__)}
    cited = sorted({(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", README)
                    if module in modules})
    assert cited, "README.md cites no module.name"
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"hotuner.{module}"), name)]
    assert not missing, f"README.md cites missing names {missing}"


def test_readme_has_python_blocks():
    assert README_BLOCKS, "README.md has no python block"
