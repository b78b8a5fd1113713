"""Every module-level private function of the package is used by the
package itself.  A helper that only its own `def` (or its own recursive
calls) names, and that only tests reach, is code the program no longer
runs: delete it, or move it into the test that needs it.  Every name a
module exports in `__all__` is bound in that module, and every defaulted
parameter is passed by some call: a default that no call overrides is a
constant."""

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskshare"


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


def _defaulted(tree):
    """(name, position, keyword) of every defaulted parameter of every
    function and method in `tree`, position counting the arguments a call
    writes (a method's self or cls is not written), None for a
    keyword-only parameter."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)
               and "staticmethod" not in map(ast.unparse, f.decorator_list)}
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        params = f.args.posonlyargs + f.args.args
        first = len(params) - len(f.args.defaults)
        skip = id(f) in methods
        out += [(f.name, i - skip, a.arg)
                for i, a in enumerate(params) if i >= first]
        out += [(f.name, None, a.arg)
                for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
                if d is not None]
    return out


def _passes(call, position, keyword) -> bool:
    """Whether `call` passes the parameter by position or by keyword."""
    if any(k.arg in (None, keyword) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed():
    calls = defaultdict(list)
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    calls[getattr(func, "id", getattr(func, "attr", None))
                          ].append(node)
    defaulted = [(path.name, *d) for path in sorted(SRC.glob("*.py"))
                 for d in _defaulted(ast.parse(path.read_text()))]
    assert defaulted
    unpassed = [f"{module} {name}({keyword})"
                for module, name, position, keyword in defaulted
                if not any(_passes(c, position, keyword) for c in calls[name])]
    assert not unpassed, unpassed
