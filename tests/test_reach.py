"""Every module-level function and class, and every private method, of
the package is reached.

A name defined at the top level of a module in ``src/pipedreams`` must be
used in the code of a package module beyond its own definition, be
exported by ``pipedreams/__init__.py``, or be named in the benchmark
(``perfbench/*.py`` or ``benchmarks/*.py``, whose tracer names functions in
strings).  The package is read token by token, so a docstring or a comment
does not count as a use, and neither does an import statement: a name that
only the tests call belongs in ``tests/oracles.py``.  A private method
(``_name``, not a dunder) of a module-level class must likewise be used in
package code beyond its own definition or be named in the benchmark.

No module of the package (but ``__init__``, whose imports are its exports),
the tests or ``benchmarks/`` imports a name it does not use.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pipedreams

PACKAGE = Path(pipedreams.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _top_level(tree):
    """The module-level function and class names of a parsed module."""
    return [node.name for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _private_methods(tree):
    """(class, name) of each private method (one leading underscore, not a
    dunder) of the module-level classes of a parsed module."""
    return [(node.name, item.name)
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name.startswith("_") and not item.name.endswith("__")]


def _code_names(text, tree):
    """The NAME tokens of a module outside its import statements, without
    the name that follows each `def` or `class`."""
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.update(range(node.lineno, node.end_lineno + 1))
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    return [t.string for prev, t in zip([None] + tokens, tokens)
            if t.type == tokenize.NAME and t.start[0] not in imports
            and not (prev and prev.string in ("def", "class"))]


def _exports(tree):
    """(module, name) of each name `__init__` imports from a package module,
    and (`__init__`, name) of each name it defines."""
    out = {("__init__", name) for name in _top_level(tree)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            out.update((node.module, a.name) for a in node.names)
    return out


def _benchmark_names():
    """Every identifier in the code and strings of the benchmark scripts."""
    names = set()
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(
            ROOT.glob("benchmarks/*.py")):
        for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if t.type in (tokenize.NAME, tokenize.STRING):
                names.update(re.findall(r"[A-Za-z_]\w*", t.string))
    return names


def unreached(package=PACKAGE):
    """The `module.name` of each module-level function or class of the
    package directory that no package code uses, `__init__` does not export
    and the benchmark does not name, and the `module.Class._name` of each
    private method that no package code uses and the benchmark does not
    name."""
    modules = {path.stem: (path.read_text(), ast.parse(path.read_text()))
               for path in sorted(package.glob("*.py"))}
    used = set()
    for text, tree in modules.values():
        used.update(_code_names(text, tree))
    exported = _exports(modules["__init__"][1])
    bench = _benchmark_names()
    return ["%s.%s" % (module, name)
            for module, (_, tree) in modules.items()
            for name in _top_level(tree)
            if name not in used and (module, name) not in exported
            and name not in bench] + [
        "%s.%s.%s" % (module, cls, name)
        for module, (_, tree) in modules.items()
        for cls, name in _private_methods(tree)
        if name not in used and name not in bench]


def test_every_module_level_name_is_reached():
    assert unreached() == []


def test_the_scan_sees_an_unreached_name(tmp_path):
    # a copy of the package with a helper that only a test would call, named
    # in a docstring, a comment and an import, none of which is a use
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "combinat.py", "a") as f:
        f.write('\n\ndef _only_tested(n):\n    """`_only_tested(n)` is n."""'
                '\n    return n  # _only_tested\n')
    with open(tmp_path / "poly.py", "a") as f:
        f.write("\nfrom .combinat import _only_tested  # noqa: F401\n")
    assert (set(unreached(tmp_path)) - set(unreached())
            == {"combinat._only_tested"})


def test_the_scan_sees_an_unreached_private_method(tmp_path):
    # a copy of the package whose `Poly` gains a private method that only a
    # docstring and a comment name, and a dunder that nothing calls
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    text = (tmp_path / "poly.py").read_text()
    (tmp_path / "poly.py").write_text(text.replace(
        "    # -- constructors", '    def _only_tested(self):\n'
        '        """`self._only_tested()` is self."""\n'
        '        return self  # _only_tested\n\n'
        '    def __only_dunder__(self):\n        return self\n\n'
        "    # -- constructors", 1))
    assert (set(unreached(tmp_path)) - set(unreached())
            == {"poly.Poly._only_tested"})


def _unused_imports(path):
    """The names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_no_module_imports_a_name_it_does_not_use():
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += list(ROOT.glob("tests/*.py")) + list(ROOT.glob("benchmarks/*.py"))
    found = {"%s: %s" % (p.relative_to(p.parents[1]), name)
             for p in paths for name in _unused_imports(p)}
    assert sorted(found) == []
