"""The package has no dead definitions: every module-level function, class
and assigned name in src/certkit, private helpers included, is named
somewhere in the package besides its own definition.  Dunder names such as
`__all__` and `__version__` are read from outside the package and are
exempt."""

import ast
import pathlib

import certkit

PACKAGE = pathlib.Path(certkit.__file__).parent

# names kept without a caller in the package, each for a stated job
UNCALLED = {
    "exactcore.solve": "the tests' reference for cone membership and span coefficients",
}


def _names(node) -> set:
    """Every name a node refers to: variables, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_definition_is_named_in_the_package():
    """Uncalled definitions are exactly the listed exceptions: a new dead
    entry point or helper fails, and so does an exception that gained a
    caller or was deleted."""
    defined, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{path.stem}.{node.name}")
                # a recursive call does not make a function live
                used |= _names(node) - {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stored = {n.id for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                defined += [f"{path.stem}.{name}" for name in stored
                            if not (name.startswith("__") and name.endswith("__"))]
                used |= _names(node) - stored
            else:
                used |= _names(node)
    assert len(defined) > len(UNCALLED)
    uncalled = sorted(d for d in defined if d.split(".")[1] not in used)
    assert uncalled == sorted(UNCALLED)
