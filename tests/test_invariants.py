import ast
import pathlib

import hermhull


def test_no_assert_statements_in_package():
    # invariant checks must survive python -O, which strips assert
    root = pathlib.Path(hermhull.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
