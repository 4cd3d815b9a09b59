"""Scans of the package source, with the standard library's ``ast``.

The dead-name scan fails on a function-local name that is bound and never
read, on a parameter that is never read, and on an assignment whose value is
never read because a later statement of the same block assigns the name again
with no read in between.  Names starting with ``_`` are exempt, as are
``self`` and ``cls``.  A read anywhere inside the function counts, nested
functions and comprehensions included, so a closure's use of an outer local
counts for the outer function.

The import scan fails on any import of scipy, in a function body too: the
package runs on numpy alone.  Balls and nearest distances have one index,
``geometry.SortedIndex``, and the SIO operator's products and Ritz solves
are numpy's; scipy stays a test dependency, for the oracles.

The distance scan fails on any ``linalg.norm`` call whose argument is a
subtraction: every |y - x| comes from ``geometry.lengths`` or
``geometry.square_lengths``, so one arithmetic decides every tie.

The reachability scan fails on a top-level function or class that no command
reaches, walking names from ``cli``'s ``_cmd_*`` functions, ``run`` and
``_build_parser``, and on a method of a package class, other than a dunder,
whose name the package never reads as an attribute.  Wrappers are deleted,
and oracles and paper checks live in ``tests/``; the only exceptions are the
definitions in ``KEPT_UNREACHED``, each with the open ROADMAP item that
needs it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "conical_gmt"
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested functions or
    classes, whose bindings are their own."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCS, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(fn) -> list:
    """(name, line) of every local binding in fn's own body, less the names
    it declares global or nonlocal."""
    bound, declared = [], set()
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append((node.id, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.append((node.name, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [((a.asname or a.name).split(".")[0], node.lineno)
                      for a in node.names]
    return [(name, line) for name, line in bound if name not in declared]


def _reads(tree) -> set:
    """Names read anywhere in tree; ``x += 1`` reads x."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _params(fn):
    a = fn.args
    for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
        if arg is not None:
            yield arg.arg, arg.lineno


def _stored(stmt) -> set:
    """Names a plain assignment statement binds."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _overwritten(fn):
    """(name, line) of assignments that a later assignment in the same block
    replaces before any statement between them reads the name."""
    for node in (fn, *_own_nodes(fn)):
        if node is not fn and isinstance(node, (*_FUNCS, ast.ClassDef)):
            continue
        for block in (getattr(node, f, None) for f in ("body", "orelse", "finalbody")):
            if not isinstance(block, list):
                continue
            pending = {}                       # name -> line of its store
            for stmt in block:
                read = _reads(stmt)
                for name in _stored(stmt) - read:
                    if name in pending:
                        yield name, pending[name]
                pending = {k: v for k, v in pending.items() if k not in read}
                pending.update((name, stmt.lineno) for name in _stored(stmt))


def dead_names(source: str, filename: str = "<source>") -> list[str]:
    """Unread locals and parameters, and overwritten values, of every
    function in ``source``."""
    found = []
    for fn in ast.walk(ast.parse(source, filename)):
        if not isinstance(fn, _FUNCS):
            continue
        reads = _reads(fn)
        for kind, names in (("local", _bindings(fn)), ("parameter", _params(fn))):
            for name, line in names:
                if name.startswith("_") or name in ("self", "cls") or name in reads:
                    continue
                found.append(f"{filename}:{line}: {kind} {name!r} of "
                             f"{fn.name}() is never read")
        for name, line in _overwritten(fn):
            if not name.startswith("_"):
                found.append(f"{filename}:{line}: value of {name!r} in "
                             f"{fn.name}() is overwritten before it is read")
    return found


def test_scan_finds_unread_locals_and_parameters():
    src = ("def f(a, b, _c):\n"
           "    x = 1\n"
           "    y, _z = 2, 3\n"
           "    k = n = 0\n"
           "    for t in range(3):\n"
           "        k += t\n"
           "    n = k\n"
           "    def g():\n"
           "        v = 1\n"
           "        v = 2\n"
           "        return b + v\n"
           "    return y + g() + n\n")
    assert [s.split(": ", 1)[1] for s in dead_names(src)] == [
        "local 'x' of f() is never read", "parameter 'a' of f() is never read",
        "value of 'n' in f() is overwritten before it is read",
        "value of 'v' in g() is overwritten before it is read"]


def test_package_has_no_unread_locals_or_parameters():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += dead_names(path.read_text(), path.name)
    assert found == []


def scipy_imports(source: str, filename: str = "<source>") -> list[str]:
    """Every import of scipy or a module under it, wherever it sits, function
    bodies included, in line order: import statements (``from m import a``
    loads m) and ``__import__`` or ``import_module`` calls on a string."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              in ("__import__", "import_module")):
            names = [node.args[0].value]
        else:
            continue
        hits = [n for n in names if n == "scipy" or n.startswith("scipy.")]
        if hits:
            found.append((node.lineno, f"{filename}:{node.lineno}: import of {hits[0]}"))
    return [hit for _, hit in sorted(found)]


def test_scan_finds_scipy_anywhere():
    src = ("import numpy as np\n"
           "import scipy\n"
           "from . import scipy_like\n"
           "import scipy_like\n"
           "from scipy import linalg, spatial\n"
           "try:\n"
           "    import scipy.linalg as la\n"
           "except ImportError:\n"
           "    pass\n"
           "def f():\n"
           "    from scipy.spatial import cKDTree\n"
           "    return cKDTree\n"
           "class A:\n"
           "    import scipy.sparse\n"
           "    def g(self):\n"
           "        import scipy.spatial.distance as ssd\n"
           "        return ssd\n"
           "def h():\n"
           "    return importlib.import_module('scipy.linalg'), __import__('scipy_like')\n")
    assert [s.split(": ", 1)[1] for s in scipy_imports(src)] == [
        "import of scipy", "import of scipy", "import of scipy.linalg",
        "import of scipy.spatial", "import of scipy.sparse",
        "import of scipy.spatial.distance", "import of scipy.linalg"]


def test_package_imports_no_scipy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += scipy_imports(path.read_text(), path.name)
    assert found == []


def difference_norms(source: str, filename: str = "<source>") -> list[str]:
    """Every call of ``linalg.norm`` (``np.linalg.norm``, ``numpy.linalg.norm``
    or ``linalg.norm``) whose first argument is a subtraction."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm" and node.args):
            continue
        owner = node.func.value
        if not (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                or isinstance(owner, ast.Name) and owner.id == "linalg"):
            continue
        if isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Sub):
            found.append(f"{filename}:{node.lineno}: norm of a difference")
    return found


def test_scan_finds_norms_of_differences():
    src = ("import numpy as np\n"
           "from numpy import linalg\n"
           "def f(a, b, v):\n"
           "    d = np.linalg.norm(a - b, axis=1)\n"
           "    e = linalg.norm(a[0] - b)\n"
           "    g = np.linalg.norm(v) + np.linalg.norm(a + b)\n"
           "    return d, e, g\n")
    assert [s.split(": ", 1)[0] for s in difference_norms(src)] == ["<source>:4", "<source>:5"]


def test_package_measures_no_difference_with_linalg_norm():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += difference_norms(path.read_text(), path.name)
    assert found == []


# Definitions that no command reaches yet, each with the number of the open
# ROADMAP item that needs it.
KEPT_UNREACHED = {
    "diagnostics.beta_square_function": 9,
    "energy.bme_check": 6,
    "sio.TruncationGrid.breakpoints": 6,
    "sio.maximal_transform": 6,
    "sio.norm_vs_generation": 6,
}


def _package_imports(tree) -> dict:
    """What the package's relative imports bind anywhere in a module:
    alias -> (mod, name) for ``from .mod import name``, and alias ->
    (mod, None) for ``from . import mod``."""
    return {a.asname or a.name: (node.module, a.name) if node.module else (a.name, None)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names}


def _uses(node, local=frozenset()):
    """The Name and Attribute nodes under node, less the Names that a
    parameter or binding of an enclosing function makes local there;
    decorators, defaults and annotations belong to the enclosing scope."""
    if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and node.id not in local:
        yield node
    body, inner = [], local
    if isinstance(node, _FUNCS):
        body = node.body
        inner = local | {name for name, _ in (*_params(node), *_bindings(node))}
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, inner if any(child is b for b in body) else local)


def unreached_definitions(sources: dict) -> list[str]:
    """``module.name`` of every top-level function or class in ``sources``
    (module name -> source) that no command reaches, sorted.

    The walk starts from ``cli``'s ``_cmd_*`` functions, ``run`` and
    ``_build_parser``, and from every top-level statement that is neither an
    import nor a definition, since it runs on import (``__main__``'s call of
    ``main``).  A reached definition reaches the definitions that its body
    names, class bodies and their methods included, resolved by owner: a
    bare name reaches a definition of its own module, or the one that
    ``from .mod import name`` binds it to, unless a parameter or binding of
    an enclosing function makes it local; an attribute ``x.name`` reaches
    ``mod.name`` only where ``from . import mod`` binds x.  So a local, a
    parameter or an attribute of another object that shares a definition's
    name reaches nothing.  A name bound in a class body, a lambda or a
    comprehension still counts as a use: the scan can miss an unreached definition but
    never reports a reached one.  The re-exports of ``__init__`` are
    imports, so they reach nothing."""
    defs, imports, todo = {}, {}, []
    for module, source in sources.items():
        tree = ast.parse(source, module)
        imports[module] = _package_imports(tree)
        for stmt in tree.body:
            if isinstance(stmt, (*_FUNCS, ast.ClassDef)):
                defs[f"{module}.{stmt.name}"] = (module, stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append((module, stmt))

    def resolve(module: str, name: str):
        key = f"{module}.{name}"
        if key in defs:
            return key
        source = imports.get(module, {}).get(name, (None, None))
        return resolve(*source) if source[1] else None

    reached = {key for key, (module, node) in defs.items() if module == "cli" and (
        node.name.startswith("_cmd_") or node.name in ("run", "_build_parser"))}
    todo += [defs[key] for key in reached]
    while todo:
        module, stmt = todo.pop()
        for n in _uses(stmt):
            if isinstance(n, ast.Name):
                key = resolve(module, n.id)
            else:
                owner = isinstance(n.value, ast.Name) and imports[module].get(n.value.id)
                key = resolve(owner[0], n.attr) if owner and owner[1] is None else None
            if key is not None and key not in reached:
                reached.add(key)
                todo.append(defs[key])
    return sorted(set(defs) - reached)


def test_scan_finds_unreached_definitions():
    sources = {
        "cli": ("from . import lib\n"
                "from .lib import imported as alias\n"
                "def _cmd_go(args):\n"
                "    shadowed = lib.reached(args)\n"
                "    return alias(shadowed)\n"
                "def run(argv=None):\n"
                "    return _cmd_go(argv)\n"
                "def main():\n"
                "    run()\n"
                "if __name__ == '__main__':\n"
                "    main()\n"),
        "lib": ("class Reached:\n"
                "    def method(self):\n"
                "        return _helper()\n"
                "def reached(shadowed):\n"
                "    obj = Reached()\n"
                "    obj.shadowed = shadowed\n"
                "    return obj\n"
                "def imported(x):\n"
                "    return x\n"
                "def _helper():\n"
                "    return 1\n"
                "def wrapper(x):\n"
                "    return reached(x)\n"
                "def shadowed():\n"
                "    return 0\n"
                "class Planted:\n"
                "    pass\n"),
        "__init__": "from .lib import Planted, shadowed, wrapper\n",
    }
    assert unreached_definitions(sources) == ["lib.Planted", "lib.shadowed", "lib.wrapper"]


def unread_methods(sources: dict) -> list[str]:
    """``module.Class.method`` of every method of a top-level class in
    ``sources`` (module name -> source), dunders aside, whose name no module
    reads as an attribute, sorted.  Any ``x.name`` read counts, whatever x
    is, so the scan can miss an unread method but never reports a read one;
    a property is read as an attribute like any other method."""
    read, methods = set(), []
    for module, source in sources.items():
        tree = ast.parse(source, module)
        read.update(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
        methods += [(f"{module}.{cls.name}.{fn.name}", fn.name)
                    for cls in tree.body if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, _FUNCS)
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))]
    return sorted(key for key, name in methods if name not in read)


def test_scan_finds_unread_methods():
    sources = {
        "cli": ("from .lib import Shape\n"
                "def _cmd_go(args):\n"
                "    s = Shape.make(args)\n"
                "    return s.area, s.scaled(2)\n"),
        "lib": ("class Shape:\n"
                "    def __init__(self, x):\n"
                "        self.x = x\n"
                "    @staticmethod\n"
                "    def make(x):\n"
                "        return Shape(x)\n"
                "    @property\n"
                "    def area(self):\n"
                "        return self._side() ** 2\n"
                "    def _side(self):\n"
                "        return self.x\n"
                "    def scaled(self, k):\n"
                "        return Shape(k * self.x)\n"
                "    def planted(self):\n"
                "        return self.x\n"
                "    def _planted(self):\n"
                "        return 0\n"
                "def helper(obj):\n"
                "    obj.planted = None\n"
                "    return obj\n"),
    }
    assert unread_methods(sources) == ["lib.Shape._planted", "lib.Shape.planted"]


def test_package_ships_only_what_a_command_reaches():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = unreached_definitions(sources) + unread_methods(sources)
    assert sorted(found) == sorted(KEPT_UNREACHED)

