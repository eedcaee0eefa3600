import ast
import types
from pathlib import Path

import nok


def test_star_import_gives_every_public_name_and_no_submodule():
    namespace = {}
    exec("from nok import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    public = {name for name, value in vars(nok).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert exported == public
    assert not any(isinstance(namespace[name], types.ModuleType)
                   for name in exported)
    assert {"newton_polyhedron", "stabilization_check", "NokError",
            "InvalidVertexBudget", "DEFAULT_VERTEX_BUDGET"} <= exported
    assert not {"linalg", "polyhedron", "cli"} & exported


# (module, name) imports that the module never uses, kept on purpose:
# bench/tests/test_bench.py reads nok.simis.power to check that the
# tracer rebinds a function in every module that imports it
KEPT_IMPORTS = {("simis", "power")}


def test_every_imported_name_is_used():
    unused = set()
    for path in sorted(Path(nok.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0]
                                for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported.update(alias.asname or alias.name
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.update((path.stem, name) for name in imported - used)
    assert unused == KEPT_IMPORTS
