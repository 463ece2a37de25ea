"""Source hygiene, found with ast alone.

Every name a module imports is used in that module: the package
re-exports its API from __init__.py, so that file is exempt; everywhere
else an unused import is dead code.  Every module-level private function
of the package is referenced somewhere in the package outside its own
body: one only the tests call is dead code too.  Every module-level
public function is re-exported from __init__.py or referenced elsewhere
in the package, but for TRACER_ONLY, the functions that only the
benchmark's tracer names.  Module-level classes, private and public, are
held to the same two rules.  No module but __init__.py imports ntt, which
is off the product path and kept only for the benchmark's tracer, and
ntt.py defines only the functions the tracer looks up there.  No
module but approx.py (the order-basis engine) and polymat.py reaches the
coefficient-array helpers, so PolyMat stays the one matrix type passed
between modules.  One function, polymat._array_mul, picks each product's
path: it alone reads the crossover and calls either path."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/pmat/*.py"))
FILES = sorted(
    f for f in [*ROOT.glob("src/pmat/*.py"), *ROOT.glob("tests/*.py")]
    if f.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_unused_and_spares_used():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "import x.y\nprint(np.zeros(1), e, x.y)\n")
    assert unused_imports(src) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda f: str(f.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _references(tree):
    """How often each name is referenced: as a bare name, an attribute or
    a from-import."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _unreferenced_functions(sources, wanted):
    """(module, name) of each module-level function or class whose name
    passes wanted and that no module references outside its own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and wanted(node.name)):
                own = _references(node)[node.name]
                if refs[node.name] == own:
                    out.append((mod, node.name))
    return sorted(out)


def unreferenced_private_functions(sources):
    """(module, name) of each module-level function or class named _x (not
    a dunder) that no module references outside its own body."""
    return _unreferenced_functions(
        sources, lambda n: n.startswith("_") and not n.startswith("__"))


def test_scan_flags_unreferenced_private_functions():
    sources = {
        "a.py": ("def _used(n):\n    return _used(n - 1) if n else 0\n"
                 "def _recursive_only(n):\n    return _recursive_only(n)\n"
                 "def _dead():\n    pass\n"
                 "def public():\n    return _used(2)\n"
                 "def __dunder__():\n    pass\n"),
        "b.py": ("from .c import _imported\nimport c\n"
                 "def f():\n    return _imported() + c._by_attribute()\n"),
        "c.py": "def _imported():\n    pass\ndef _by_attribute():\n    pass\n",
    }
    assert unreferenced_private_functions(sources) == [
        ("a.py", "_dead"), ("a.py", "_recursive_only")]


def test_scan_flags_unreferenced_classes():
    # a class counts as referenced through a call, a base, an annotation
    # or an attribute, but not through its own methods
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": ("class Exported:\n    pass\n"
                 "class _Base:\n    pass\n"
                 "class _Child(_Base):\n"
                 "    def make(self):\n        return _Child()\n"
                 "class _Used:\n    pass\n"
                 "class Dead:\n"
                 "    @classmethod\n    def make(cls):\n"
                 "        return Dead()\n"
                 "def f():\n    return _Used()\n"),
    }
    assert unreferenced_private_functions(sources) == [("a.py", "_Child")]
    assert unreferenced_public_functions(sources) == [
        ("a.py", "Dead"), ("a.py", "f")]


def test_no_unreferenced_private_functions():
    sources = {f.name: f.read_text() for f in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def unreferenced_public_functions(sources):
    """(module, name) of each module-level public function or class that
    neither __init__.py re-exports nor anything else in the package
    references: an import in __init__.py is a reference like any other."""
    return _unreferenced_functions(sources, lambda n: not n.startswith("_"))


def test_scan_flags_unreferenced_public_functions():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("def exported():\n    return helper()\n"
                 "def helper():\n    pass\n"
                 "def recursive_only(n):\n    return recursive_only(n)\n"
                 "def dead():\n    pass\n"
                 "def _private():\n    pass\n"),
        "b.py": "import a\ndef f():\n    return a.by_attribute()\n",
        "c.py": "def by_attribute():\n    pass\n",
    }
    assert unreferenced_public_functions(sources) == [
        ("a.py", "dead"), ("a.py", "recursive_only"), ("b.py", "f")]


# public functions that only the benchmark's tracer (bench/tracer.py)
# reaches; each leaves this set once the benchmark stops timing it
TRACER_ONLY = frozenset({"known_degree_relations", "relations_mod_single_poly",
                         "mul_ntt", "matmul_ntt", "const_mul",
                         "matmul_unbalanced"})


def tracer_targets():
    """bench/tracer.py's TARGETS: (module, attribute, label) triples."""
    tree = ast.parse((ROOT / "bench/tracer.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def tracer_functions():
    """The plain function names in bench/tracer.py's TARGETS."""
    return {attr for _, attr, _ in tracer_targets() if "." not in attr}


def test_no_unreferenced_public_functions():
    sources = {f.name: f.read_text() for f in PACKAGE}
    dead = {name for _, name in unreferenced_public_functions(sources)}
    assert dead == TRACER_ONLY
    assert TRACER_ONLY <= tracer_functions()


def imported_names(source):
    """Every module path component and name that an import mentions."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.update((node.module or "").split("."))
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out.update(alias.name.split("."))
    return out


def test_scan_finds_every_form_of_import():
    for src in ("from . import ntt\n", "from .ntt import mul_ntt\n",
                "import pmat.ntt\n", "from pmat import ntt as t\n"):
        assert "ntt" in imported_names(src)
    assert "ntt" not in imported_names("from .poly import pack\nntt = 1\n")


@pytest.mark.parametrize("path", [f for f in PACKAGE
                                  if f.name != "__init__.py"],
                         ids=lambda f: f.name)
def test_no_module_imports_ntt(path):
    assert "ntt" not in imported_names(path.read_text())


def test_ntt_defines_only_the_tracer_anchors():
    # one multiplication kernel: ntt.py holds the names the tracer looks
    # up and no transform of its own
    tree = ast.parse((ROOT / "src/pmat/ntt.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    assert defined == {attr for mod, attr, _ in tracer_targets()
                       if mod == "ntt"}


# polymat's coefficient-array layout, the order-basis engine's own
ARRAY_HELPERS = frozenset({"_array_of", "_from_array", "_array_mul",
                           "_sized", "_reverse_columns", "_newton_inverse"})
ARRAY_MODULES = ("approx.py", "polymat.py")


def array_helpers_used(source):
    """The array helpers a module imports or reaches as an attribute."""
    return ARRAY_HELPERS & set(_references(ast.parse(source)))


def test_array_helper_scan():
    polymat = ast.parse((ROOT / "src/pmat/polymat.py").read_text())
    defined = {node.name for node in polymat.body
               if isinstance(node, ast.FunctionDef)}
    assert ARRAY_HELPERS <= defined
    for src in ("from .polymat import _array_of as t\n",
                "from . import polymat\npolymat._array_of(x)\n",
                "import pmat.polymat\npmat.polymat._array_of(x)\n"):
        assert array_helpers_used(src) == {"_array_of"}
    assert not array_helpers_used("from .polymat import PolyMat, vstack\n")


@pytest.mark.parametrize("path", [f for f in PACKAGE
                                  if f.name not in ARRAY_MODULES],
                         ids=lambda f: f.name)
def test_only_the_engine_uses_array_helpers(path):
    assert not array_helpers_used(path.read_text())


# the crossover and the two product paths, which only _array_mul may name
DISPATCH_NAMES = frozenset({"_DENSE_MAX", "_dense_mul", "_kronecker"})


def dispatch_references(source):
    """(enclosing module-level definition, name) of the references to a
    dispatch name: a load, an attribute or a from-import; None stands for
    module level, and the count of each.  Binding a name (its def or
    assignment) is no reference."""
    out = Counter()
    for top in ast.parse(source).body:
        where = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                names = []
            out.update((where, n) for n in names if n in DISPATCH_NAMES)
    return out


def test_dispatch_scan():
    src = ("from .polymat import _kronecker\n_DENSE_MAX = 4\n"
           "def _dense_mul(a):\n    return _dense_mul(a.T)\n"
           "def f(m):\n    return m._DENSE_MAX + len(_DENSE_MAX)\n")
    assert dispatch_references(src) == {
        (None, "_kronecker"): 1, ("_dense_mul", "_dense_mul"): 1,
        ("f", "_DENSE_MAX"): 2}


def test_only_array_mul_picks_a_product_path():
    # one dispatch: the crossover is read, and each path called, exactly
    # once in the package, all inside _array_mul
    found = Counter()
    for f in PACKAGE:
        for (where, name), count in dispatch_references(
                f.read_text()).items():
            found[f.name, where, name] += count
    assert found == {("polymat.py", "_array_mul", name): 1
                     for name in DISPATCH_NAMES}
