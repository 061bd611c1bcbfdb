import ast
import pathlib

import polarfact


def test_every_export_resolves():
    assert [name for name in polarfact.__all__ if not hasattr(polarfact, name)] == []


def test_every_tolerance_lives_in_the_tolerances_module():
    # a float this small is a threshold, and thresholds belong to one policy
    src = pathlib.Path(polarfact.__file__).parent
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(src.glob("*.py"))
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6
    ]
    assert found == []
