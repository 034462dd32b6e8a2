"""Import layering of the package's modules, read from the source with ast,
and the standard-library modules a fresh CLI process must not load."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import weylkit

PACKAGE = Path(weylkit.__file__).parent

# {errors, intlinalg, config} -> rootdata -> weyl -> charring ->
# {demazure, covers} -> {hecke, repring} -> parsing -> selftest -> cli: a
# module may import only modules of a strictly lower layer
LAYERS = {
    "errors": 0,
    "intlinalg": 0,
    "config": 0,
    "rootdata": 1,
    "weyl": 2,
    "charring": 3,
    "demazure": 4,
    "covers": 4,
    "hecke": 5,
    "repring": 5,
    "parsing": 6,
    "selftest": 7,
    "cli": 8,
}


def package_imports(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("weylkit."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("weylkit.")
            )
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"} == LAYERS.keys()


def test_core_modules_import_only_lower_layers():
    for module, layer in LAYERS.items():
        for imported in package_imports(module):
            assert LAYERS[imported] < layer, f"{module} imports {imported}"
    # the two top layers are independent of each other
    assert "repring" not in package_imports("hecke")
    assert "hecke" not in package_imports("repring")


def test_cli_import_loads_no_introspection_modules():
    # -S skips site, so no .pth file in the environment can import them first
    code = "import sys, weylkit.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "weylkit.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
