"""The library imports only at module level: no ``if TYPE_CHECKING:`` block and no
import inside a function, so the modules' import graph is plain to read."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "setgames"


def test_every_import_is_a_direct_child_of_the_module_body():
    nested = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []
