import ast
from pathlib import Path

import eqmap


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly
    sources = sorted(Path(eqmap.__file__).parent.glob("*.py"))
    assert any(p.name == "endpoints.py" for p in sources)
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
