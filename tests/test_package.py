import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import affine_kit

ROOT = Path(__file__).resolve().parents[1]
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


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"affine_kit"}
    assert third_party <= declared, (f"src/ imports {sorted(third_party - declared)}, "
                                     "which pyproject.toml does not declare")


def test_simulate_imports_no_name_from_transform():
    # the Monte Carlo estimators take their Riccati references from the caller
    imported = set()
    for node in ast.walk(ast.parse((ROOT / "src" / "affine_kit" / "simulate.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            # a relative import, `from .transform` or `from . import transform`, is the package's
            base = ".".join(filter(None, ["affine_kit" if node.level else "", node.module]))
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert "affine_kit.transform" not in imported, sorted(imported)


def test_no_module_imports_a_private_name_from_another():
    # a module reads another through its public names, a TransformBatch by require_ok and value
    private = []
    for path in sorted((ROOT / "src" / "affine_kit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "affine_kit"):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, private


PACKAGE_MODULES = ("params", "simulate", "state_space", "transform")


def test_the_package_exports_its_modules_public_names_and_presets():
    names = [n for m in PACKAGE_MODULES
             for n in importlib.import_module(f"affine_kit.{m}").__all__]
    assert sorted(affine_kit.__all__) == sorted([*names, "presets"])
    assert len(set(names)) == len(names), "a name is public in two modules"


def test_the_suite_names_come_from_the_suite_table():
    from affine_kit import cli
    assert cli.ALL_SUITES == tuple(cli._SUITES)
