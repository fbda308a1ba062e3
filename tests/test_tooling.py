import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "surfbraid"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; every internal check must use
    # surfbraid.errors.check so that it still runs there.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"
