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


def _names_int(node) -> bool:
    """``int``, or a tuple of classes that includes it."""
    if isinstance(node, ast.Tuple):
        return any(map(_names_int, node.elts))
    return isinstance(node, ast.Name) and node.id == "int"


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _integer_type_tests(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Is, ast.IsNot)) and any(
                    _is_call_to(a, "type") and _names_int(b) for a, b in ((left, right), (right, left))
                ):
                    yield node
        elif _is_call_to(node, "isinstance") and len(node.args) == 2 and _names_int(node.args[1]):
            yield node


def test_the_integer_rule_lives_only_in_the_model():
    # whether a value is an exact integer is decided by one private helper in
    # model.py; a second test elsewhere could drift from it (argparse's
    # type=int is a conversion, not a test, and is not flagged)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "model.py"
        for node in _integer_type_tests(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert found == []
