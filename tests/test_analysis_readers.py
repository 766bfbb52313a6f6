"""Every analysis function and ``ProtocolConfig`` member has a production reader.

The checked names are the public top-level functions of each
``repro.analysis`` module and the public members (fields, properties and
methods) of ``ProtocolConfig``.  A name is *read* when code under
``src/repro`` that is itself read refers to it: code outside every checked
definition is read, and a definition's body is read once its own name is.
Iterating to that fixed point, a chain of test-only functions that call one
another does not count.  A function is referred to through an import
(``name``, or ``module.name`` for an imported analysis module) or from its
own module; a member by ``.name`` on anything, so a same-named attribute of
another class counts for it too.

``python tests/test_analysis_readers.py`` prints every name with its readers.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Optional, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
CONFIG_CLASS = "ProtocolConfig"


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _import_source(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module
    base = module.split(".")[: None if is_package else -1]
    base = base[: len(base) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _definitions(trees) -> Tuple[Dict[int, str], Set[str]]:
    """``({id(def node): key}, public keys)`` of every checked definition.

    Keys are ``module.function`` and ``ProtocolConfig.member``; private
    analysis functions are scopes too (their calls count only once they are
    read), but only public names are checked.
    """
    scopes, public = {}, set()
    for module, tree in trees.items():
        if module.startswith("repro.analysis."):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    scopes[id(node)] = f"{module}.{node.name}"
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == CONFIG_CLASS:
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign):
                        public.add(f"{CONFIG_CLASS}.{node.target.id}")
                    elif isinstance(node, ast.FunctionDef) and not (
                        node.name.startswith("__")
                    ):
                        scopes[id(node)] = f"{CONFIG_CLASS}.{node.name}"
    public |= {
        key for key in scopes.values() if not key.rsplit(".", 1)[1].startswith("_")
    }
    return scopes, public


class _References(ast.NodeVisitor):
    """Collects ``(scope, key, module)``: ``scope`` is the checked definition
    the reference sits in, None outside every one."""

    def __init__(self, module, names, modules, scopes, keys, out):
        self.module, self.names, self.modules = module, names, modules
        self.scopes, self.keys, self.out = scopes, keys, out
        self.scope: Optional[str] = None

    def _add(self, key: str) -> None:
        if key in self.keys and key != self.scope:
            self.out.add((self.scope, key, self.module))

    def visit_FunctionDef(self, node):
        outer = self.scope
        self.scope = self.scopes.get(id(node), outer)
        self.generic_visit(node)
        self.scope = outer

    def visit_Name(self, node):
        if node.id in self.names:
            self._add(self.names[node.id])

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.modules:
            self._add(f"{self.modules[node.value.id]}.{node.attr}")
        self._add(f"{CONFIG_CLASS}.{node.attr}")
        self.generic_visit(node)


def reference_graph():
    """``(public keys, {(scope, key, module)})`` over ``src/repro``."""
    paths = {_module_name(p): p for p in sorted(PACKAGE.rglob("*.py"))}
    trees = {m: ast.parse(p.read_text()) for m, p in paths.items()}
    scopes, public = _definitions(trees)
    keys = set(scopes.values()) | public
    out: set = set()
    for module, tree in trees.items():
        is_package = paths[module].name == "__init__.py"
        names = {
            key.rsplit(".", 1)[1]: key
            for key in keys
            if key.rsplit(".", 1)[0] == module
        }
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _import_source(module, is_package, node)
                for alias in node.names:
                    target = f"{source}.{alias.name}"
                    local = alias.asname or alias.name
                    if target in trees:
                        modules[local] = target
                    else:
                        names[local] = target
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
        _References(module, names, modules, scopes, keys, out).visit(tree)
    return public, out


def read_names(references) -> Set[str]:
    """The fixed point: keys referred to from read code."""
    read: Set[str] = set()
    while True:
        grown = {key for scope, key, _m in references if scope is None or scope in read}
        if grown == read:
            return read
        read = grown


def test_every_analysis_function_and_config_member_has_a_reader():
    public, references = reference_graph()
    assert any(key.startswith("repro.analysis.") for key in public)
    unread = sorted(public - read_names(references))
    assert not unread, "read by no production code: " + ", ".join(unread)


def test_a_chain_of_unread_functions_stays_unread():
    references = {
        (None, "a", "m"), ("a", "b", "m"), ("c", "d", "m"), ("d", "c", "m"),
    }
    assert read_names(references) == {"a", "b"}


if __name__ == "__main__":
    public, references = reference_graph()
    read = read_names(references)
    for key in sorted(public):
        readers = sorted(
            {scope or module for scope, k, module in references
             if k == key and (scope is None or scope in read)}
        )
        print(f"{key}: {', '.join(readers) or 'UNREAD'}")
