import importlib
import pkgutil

import pytest

import affine_kit

SUBMODULES = [name for _, name, _ in pkgutil.iter_modules(affine_kit.__path__, "affine_kit.")]


@pytest.mark.parametrize("module", ["affine_kit", *SUBMODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}, which the module does not define"


def test_star_import_runs_in_a_fresh_namespace():
    namespace = {}
    exec("from affine_kit import *", namespace)
    assert set(affine_kit.__all__) <= namespace.keys()
