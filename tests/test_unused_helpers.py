"""Every module-level private function of the package is used by the
package itself.  A helper that only its own `def` (or its own recursive
calls) names, and that only tests reach, is code the program no longer
runs: delete it, or move it into the test that needs it.  Every name a
module exports in `__all__` is bound in that module and read by the
package outside its own definition, or named by perfbench: a public name
that only tests reach belongs in the tests (tests/oracles.py).  So does a
public method of a public class that the package never reads, or reads
only from methods no one reads.  Every defaulted parameter is passed by
some call: a default that no call overrides is a constant."""

import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskshare"
PERFBENCH = ROOT / "perfbench"


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


def _exported(tree) -> list:
    """The names a module's `__all__` lists."""
    return [elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts]


def _perfbench_names() -> set:
    """The identifiers perfbench reads, and the function names of the
    (module, function) pairs that spans.TRACED wraps by name."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= set(_names(tree))
        names |= {elt.elts[1].value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED"
                          for t in node.targets)
                  for elt in node.value.keys}
    return names


def test_every_exported_name_is_read_outside_its_definition():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    perfbench = _perfbench_names()
    assert {"convolution_split", "law_invariant_requirement"} <= perfbench
    unread = []
    for module, tree in trees.items():
        definitions = {node.name: node for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        definitions.update((target.id, node) for node in tree.body
                           if isinstance(node, ast.Assign)
                           for target in node.targets
                           if isinstance(target, ast.Name))
        for name in _exported(tree):
            own = _names(definitions[name])[name] if name in definitions else 0
            if uses[name] == own and name not in perfbench:
                unread.append(f"{module} {name}")
    assert not unread, unread


def _attributes(node) -> Counter:
    """The attribute names that `node` reads (x.name)."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def test_every_public_method_is_read_outside_its_definition():
    # a method is read as an attribute; one that only unread methods read
    # is unread too, so the scan repeats until the unread set stays
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))]
    perfbench = _perfbench_names()
    methods = {f"{cls.name}.{f.name}": f for tree in trees
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               and not cls.name.startswith("_")
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not f.name.startswith("_") and f.name not in perfbench}
    assert methods
    reads = sum((_attributes(tree) for tree in trees), Counter())
    unread = set()
    while True:
        dead = sum((_attributes(methods[key]) for key in unread), Counter())
        now = {key for key, f in methods.items()
               if (reads - dead - (Counter() if key in unread
                                   else _attributes(f)))[f.name] == 0}
        if now == unread:
            break
        unread = now
    assert not unread, sorted(unread)


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
