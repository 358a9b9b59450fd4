"""The public surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import hotuner


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
