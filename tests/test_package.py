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


def _package_trees(skip="tolerances.py"):
    src = pathlib.Path(polarfact.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != skip:
            yield path.name, ast.parse(path.read_text(), str(path))


def test_relative_bounds_are_judged_in_the_tolerances_module():
    # a relative tolerance may be handed to a predicate, never applied in place
    names = {"RTOL", "SOLVER_RTOL", "EXACT_RTOL", "DOMINANT_FRACTION"}
    found = []
    for name, tree in _package_trees():
        handed_on = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                handed_on.update(map(id, node.args))
                handed_on.update(id(k.value) for k in node.keywords)
            elif isinstance(node, ast.arguments):
                handed_on.update(map(id, node.defaults))
                handed_on.update(id(d) for d in node.kw_defaults if d is not None)
        found += [
            f"{name}:{node.lineno}: {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in names and id(node) not in handed_on
        ]
    assert found == []


def _is_one(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 1


def _is_abs(node) -> bool:
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "abs" or getattr(node.func, "attr", None) == "abs"
    )


def test_no_unit_floor_anywhere():
    # max(1.0, x), np.maximum(1.0, x) and 1 + abs(x) are the floor of a
    # relative bound, in the tolerances module as anywhere else
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees(skip=None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "max" or getattr(node.func, "attr", None) == "maximum")
        and any(isinstance(a, ast.Constant) and type(a.value) is float and a.value == 1.0
                for a in node.args)
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
        and (_is_one(node.left) and _is_abs(node.right) or _is_abs(node.left) and _is_one(node.right))
    ]
    assert found == []


def test_no_module_reads_the_environment():
    # a setting read from the environment is a knob no command line shows
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees(skip=None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv", "environb")
        or isinstance(node, ast.alias) and node.name in ("environ", "getenv", "environb")
    ]
    assert found == []


# waiting on the re-pin of perfbench's per-op solve count, which deleting
# the solve cache moves
STATE_WAITING = {("transport.py", "_reuse")}
STATEFUL_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Lock", "RLock", "ContextVar"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _holds_state(value) -> bool:
    if isinstance(value, ast.Call):
        return (getattr(value.func, "id", None) or getattr(value.func, "attr", None)) in STATEFUL_CALLS
    return isinstance(value, CONTAINERS)


def _imports_threading(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "threading" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading"


def test_no_module_level_state():
    # a module-level container, lock or context variable is state that every
    # caller in the process shares; a result is handed to its caller instead
    found = []
    for name, tree in _package_trees(skip=None):
        found += [f"{name}:{node.lineno}: threading" for node in ast.walk(tree) if _imports_threading(node)]
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            found += [
                f"{name}:{node.lineno}: {t.id}"
                for t in targets
                if isinstance(t, ast.Name) and _holds_state(node.value)
                and t.id != "__all__" and (name, t.id) not in STATE_WAITING
            ]
    assert found == []


def _owned_nodes(tree):
    """(name of the innermost enclosing function or None, node) for every node."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            yield inner, child
            yield from visit(child, inner)
    yield from visit(tree, None)


def _kernel(node):
    """Which certificate kernel a node computes, if any: a product against
    site coordinates (the score u . y - psi) or a row minimum (the support
    gap of the reduced costs)."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and any(isinstance(n, ast.Attribute) and n.attr == "coords" for n in ast.walk(node))):
        return "score"
    if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "min" and not node.args
            and any(k.arg == "axis" and getattr(k.value, "value", None) == 1 for k in node.keywords)):
        return "row minimum"
    return None


def test_each_inclusion_certificate_has_one_kernel():
    # a second copy of a certificate formula is a second place a rule for
    # it has to land: scores live in convex._scores, row minima of the
    # reduced costs in DualPair.__post_init__, which keeps them as row_min
    homes = {"score": ("convex.py", "_scores"), "row minimum": ("convex.py", "__post_init__")}
    seen, found = set(), []
    for name, tree in _package_trees(skip=None):
        for owner, node in _owned_nodes(tree):
            kernel = _kernel(node)
            if kernel is None:
                continue
            if homes[kernel] == (name, owner):
                seen.add(kernel)
            else:
                found.append(f"{name}:{node.lineno}: {kernel} in {owner}")
    assert found == []
    assert seen == set(homes)


def test_frozen_objects_are_set_only_while_constructed():
    # a frozen dataclass gets its derived fields in __post_init__; an
    # attribute set later, a lazy cache, is state a result carries that
    # its constructor never checked or accounted for
    found = [
        f"{name}:{node.lineno}: in {owner}"
        for name, tree in _package_trees(skip=None)
        for owner, node in _owned_nodes(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and getattr(node.func.value, "id", None) == "object"
        and owner != "__post_init__"
    ]
    assert found == []
