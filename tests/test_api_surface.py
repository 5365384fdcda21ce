"""Every public top-level function and class of the package is used by the
package itself, the package namespace holds only `__version__`, and the
package defines two exception classes.

A name that only tests call belongs in an oracle module under tests/, not
in src/.  The scan parses each module of src/siegeltoric/ and counts a name
as used when a Name or Attribute node refers to it in package code outside
its own definition.  Callers import each name from its module, so
`__init__.py` re-exports nothing and `import siegeltoric` loads no module.
"""

import ast
import builtins
import os
import subprocess
import sys

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "siegeltoric")

# public names kept without a package caller, one reason each
KEEP = {
    "det_t_symbolic": "perfbench/tracer.py wraps it by name (ROADMAP item 6)",
    "ma_rhs": "perfbench/tracer.py wraps it by name (ROADMAP item 6)",
    "gl_act": "perfbench/tracer.py wraps it by name (ROADMAP item 6); tests build "
              "translates with it",
    "cone_to_json": "writer of the cone file format that cone_from_json reads",
}


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=name)


def _scan():
    """The public top-level names defined in the package, and every name
    referred to outside its own top-level definition."""
    defs, used = set(), set()
    for _, tree in _modules():
        for top in tree.body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own and not own.startswith("_"):
                defs.add(own)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    ref = node.id
                elif isinstance(node, ast.Attribute):
                    ref = node.attr
                else:
                    continue
                if ref != own:
                    used.add(ref)
    return defs, used


def test_public_names_have_a_package_caller():
    defs, used = _scan()
    assert sorted(defs - used - set(KEEP)) == []


def test_keep_list_is_minimal():
    # an entry that gains a caller, or whose definition is gone, leaves the list
    defs, used = _scan()
    assert sorted(set(KEEP) - (defs - used)) == []


def test_package_namespace_is_only_the_version():
    with open(os.path.join(PACKAGE, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.alias):
                bound.add((node.asname or node.name).split(".")[0])
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
    assert bound == {"__version__"}
    # a fresh interpreter, since this one has the submodules loaded already
    script = ("import sys, siegeltoric; "
              "print(sorted(m for m in sys.modules if m.startswith('siegeltoric.')))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE)),
                          timeout=60, check=True)
    assert proc.stdout == "[]\n"


def test_two_exception_classes():
    # every input fault is a ValueError; a subclass exists only where a
    # handler or a report tells it apart
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for _, tree in _modules() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(b) for b in bases.get(name, ()))

    assert sorted(n for n in bases if is_exception(n)) == ["ConeShapeError", "CostGuardError"]
