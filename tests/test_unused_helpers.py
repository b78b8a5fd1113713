"""Every module-level private function of the package is used by the
package itself.  A helper that only its own `def` (or its own recursive
calls) names, and that only tests reach, is code the program no longer
runs: delete it, or move it into the test that needs it.  Every name a
module exports in `__all__` is bound in that module."""

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "riskshare"


def _names(node) -> Counter:
    """The identifiers that `node` reads, as names or attributes."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
    return seen


def test_every_private_function_is_used_in_the_package():
    uses, helpers = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += _names(tree)
        helpers += [(path.name, node) for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
    assert helpers
    unused = [f"{module}:{node.lineno} {node.name}"
              for module, node in helpers
              if uses[node.name] == _names(node)[node.name]]
    assert not unused, unused


def test_every_exported_name_is_bound():
    # a name left in __all__ after its definition went breaks
    # `from riskshare.<module> import *` only when someone runs it
    unbound = []
    for path in sorted(SRC.glob("*.py")):
        name = "riskshare" if path.stem == "__init__" else f"riskshare.{path.stem}"
        module = importlib.import_module(name)
        unbound += [f"{path.name} {exported}"
                    for exported in getattr(module, "__all__", ())
                    if not hasattr(module, exported)]
    assert not unbound, unbound
