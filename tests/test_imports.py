"""The import rule of the source tree: every import sits at module level, and
each name comes from the module that defines it, not one that re-exports it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _module_path(name: tuple[str, ...]) -> Path:
    package = SRC.joinpath(*name, "__init__.py")
    return package if package.is_file() else SRC.joinpath(*name).with_suffix(".py")


def _defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at module level other than by importing them."""
    names: set[str] = set()
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        else:  # the bodies of module-level if and try statements bind at module level too
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, ()))
    return names


def _nested_imports(node: ast.AST, scope: str | None = None):
    """(import, name of the innermost def or class holding it) of every
    import below `node` that is not at module level."""
    for child in ast.iter_child_nodes(node):
        if scope is not None and isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _nested_imports(child, child.name if inner else scope)


def _import_faults(path: Path) -> list[str]:
    tree = ast.parse(path.read_text("utf-8"), str(path))
    where = path.relative_to(SRC)
    faults = [f"{where}:{node.lineno}: import inside {scope}"
              for node, scope in _nested_imports(tree)]
    package = where.parent.parts  # an __init__.py's too: its package is its directory
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        source = package[: len(package) - node.level + 1]
        source += tuple(node.module.split(".")) if node.module else ()
        source_path = _module_path(source)
        defined = _defined_names(ast.parse(source_path.read_text("utf-8")))
        for alias in node.names:
            submodule = (source_path.name == "__init__.py"
                         and _module_path((*source, alias.name)).is_file())
            if alias.name not in defined and not submodule:
                faults.append(f"{where}:{node.lineno}: {alias.name} is not defined in "
                              f"{'.'.join(source)}")
    return faults


def test_imports_sit_at_module_level_and_name_the_defining_module():
    paths = sorted((SRC / "adlrec").rglob("*.py"))
    assert len(paths) > 10
    assert [fault for path in paths for fault in _import_faults(path)] == []
