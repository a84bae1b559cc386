"""Every top-level name in src/robustsgd is used somewhere besides its definition.

A function, class or module constant that nothing reads is dead code. A use
is a load of the name, an attribute of that name or an import of it in any
module of src/robustsgd, or a mention in perfbench/, whose tracer resolves
the sites it wraps from strings such as "SyntheticClassificationTask.loss_grad".
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "robustsgd").glob("*.py"))


def _defined(tree):
    """The non-dunder names a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _used(tree):
    """The names a module loads, takes as attributes or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def _perfbench_words():
    words = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        words.update(_used(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.update(node.value.split("."))
    return words


def test_every_top_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SRC}
    used = set(_perfbench_words())
    for tree in trees.values():
        used.update(_used(tree))
    dead = [f"{module}:{name}" for module, tree in trees.items()
            for name in _defined(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert dead == []
