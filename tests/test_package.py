import ast
from pathlib import Path

import batchfront

PACKAGE = Path(batchfront.__file__).parent


def test_no_plain_assert_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # silently stop running; the package raises explicit exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
