import types

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
