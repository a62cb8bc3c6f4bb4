"""Every function, class and method of the package, public or private, has
a caller in the package itself, so no API or helper exists only for its
own test, and every name a package module imports is read in that module.

The definitions checked are the module-level functions and classes and
the methods of those classes, whatever their name, except dunders
(``__init__``, ``__post_init__``, ...), which Python calls itself.  A
definition counts as used when its name appears as a ``Name`` (read) or
as an ``Attribute`` anywhere in ``src/graphconf`` outside its own body.
Attribute names are matched without their owner, so the guard can miss an
unused method that shares a name with a used one; it never flags a used one.
"""

import ast
from pathlib import Path

import graphconf

PACKAGE = Path(graphconf.__file__).parent

# qualified name -> why it may have no caller in the package
ALLOWED: dict[str, str] = {}


def _checked(node) -> bool:
    """A function or class definition that is not a dunder."""
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def _scan():
    """Checked definitions as 'module.qualname', and every reference as
    (name, 'module.qualname' of the innermost enclosing definition)."""
    defs, refs = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        mod = path.stem
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{mod}.{getattr(top, 'name', '')}"
            scopes = [(top, owner)]
            if isinstance(top, ast.ClassDef):
                scopes += [(m, f"{owner}.{m.name}") for m in top.body
                           if isinstance(m, ast.FunctionDef)]
            if _checked(top):
                defs.append(owner)
                defs += [q for m, q in scopes[1:] if _checked(m)]
            in_methods = {id(n) for m, _ in scopes[1:] for n in ast.walk(m)}
            for scope, q in scopes:
                for n in ast.walk(scope):
                    if scope is top and id(n) in in_methods:
                        continue
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        refs.append((n.id, q))
                    elif isinstance(n, ast.Attribute):
                        refs.append((n.attr, q))
    return defs, refs


def _unreferenced() -> set[str]:
    defs, refs = _scan()
    out = set()
    for q in defs:
        name = q.rpartition(".")[2]
        if not any(r == name and o != q and not o.startswith(q + ".") for r, o in refs):
            out.add(q)
    return out


def _private(q: str) -> bool:
    """A private helper: its name, or its class's name, starts with '_'."""
    return any(part.startswith("_") for part in q.split(".")[1:])


def test_every_public_definition_has_a_caller_in_the_package():
    assert {q for q in _unreferenced() if not _private(q)} - set(ALLOWED) == set()


def test_every_private_helper_has_a_caller_in_the_package():
    assert {q for q in _unreferenced() if _private(q)} - set(ALLOWED) == set()


def test_allow_list_is_not_stale():
    # an allowed entry that gained a caller, or was deleted, leaves the list
    assert set(ALLOWED) <= _unreferenced()


def _unread_imports() -> list[str]:
    """'module.name' for each name a package module imports and never reads.
    ``__init__`` is skipped, as its imports are the package's exports, and
    so are ``__future__`` imports."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        out.append(f"{path.stem}.{name}")
    return out


def test_every_imported_name_is_read():
    assert _unread_imports() == []
