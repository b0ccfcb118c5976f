"""Every top-level function and class in ``src/repro`` is referenced.

A definition counts as reached when its name appears outside its own
body in ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/``: as
a name, an attribute, an import, or a word inside a string literal
(``getattr`` names, patch targets). Docstrings and comments do not
count, and neither do a package ``__init__``'s re-exports (its imports,
``__all__`` and lazy-export table). Tests do not count either: a
definition only tests call is library surface no command reaches.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SEARCHED = ("src", "benchmarks", "examples", "perfbench")

#: unreferenced definitions kept on purpose, each with its reason
ALLOWED = {
    "ghost_exchange_failure_probability": "paper §5.2 model, README",
    "write_vti": "VTK .vti export of the §3.4 ParaView claim, README",
}

_WORD = re.compile(r"\w+")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> Counter:
    """Words ``node`` references: names, attributes, imported names
    and the words of string literals other than docstrings."""
    words: Counter = Counter()
    docstrings = set()
    for sub in ast.walk(node):  # breadth-first: a def before its body
        if isinstance(sub, ast.Name):
            words[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            words[sub.attr] += 1
        elif isinstance(sub, ast.Constant):
            if isinstance(sub.value, str) and id(sub) not in docstrings:
                words.update(_WORD.findall(sub.value))
        elif isinstance(sub, ast.alias):
            words.update(sub.name.split("."))
        elif isinstance(sub, _DEFS) and sub.body:
            first = sub.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    return words


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


@functools.lru_cache(maxsize=None)
def _reference_counts() -> tuple[Counter, tuple[tuple[str, str, Counter], ...]]:
    """Words referenced across the searched trees, and each package
    definition's (path, name, references of its own body)."""
    total: Counter = Counter()
    defs = []
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            rel = str(path.relative_to(ROOT))
            for node in tree.body[ast.get_docstring(tree) is not None:]:
                if path.name == "__init__.py" and not isinstance(node, _DEFS):
                    continue  # re-exports: imports, __all__, lazy tables
                if _is_all(node):
                    continue
                own = _references(node)
                total.update(own)
                if isinstance(node, _DEFS) and not node.name.startswith("__") \
                        and path.is_relative_to(PACKAGE):
                    defs.append((rel, node.name, own))
    return total, tuple(defs)


def test_every_definition_is_referenced():
    total, defs = _reference_counts()
    unreached = sorted(
        f"{path}: {name}"
        for path, name, own in defs
        if total[name] - own[name] <= 0 and name not in ALLOWED
    )
    assert not unreached, (
        "definitions nothing outside tests references (delete them, move a "
        "test-only oracle to tests/oracles/, or allowlist with a reason):\n"
        + "\n".join(unreached)
    )


def test_allowlist_is_current():
    total, defs = _reference_counts()
    names = {name for _, name, _ in defs}
    for name in ALLOWED:
        assert name in names, f"{name} is allowlisted but no longer defined"
        own = next(own for _, n, own in defs if n == name)
        assert total[name] - own[name] <= 0, f"{name} is referenced now"
