"""The documented examples: the package docstring runs as a doctest, the
README quick start reproduces the values its comments print, the README
module map names exactly the package's modules, every exported name
exists, every call the README names resolves, and every module-level name
of the package is read by package code."""

import ast
import doctest
import importlib
import re
from pathlib import Path

import cellmimo

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(cellmimo.__file__).resolve().parent


def test_package_docstring_examples():
    result = doctest.testmod(cellmimo)
    assert result.attempted > 0
    assert result.failed == 0


def _quick_start():
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _matches(value, anchor):
    if anchor.endswith("..."):
        return repr(value).startswith(anchor[:-3])
    if "." in anchor:
        return round(value, len(anchor.split(".")[1])) == float(anchor)
    return value == int(anchor)


def test_readme_quick_start_anchors():
    code = _quick_start()
    lines = code.splitlines()
    namespace: dict = {}
    anchors = 0
    for node in ast.parse(code).body:
        source = ast.get_source_segment(code, node)
        if "simulate_sinr(" in source or source.startswith("(sinr "):
            continue  # the Monte Carlo cross-check prints no anchor and takes ~20 s
        tail = lines[node.end_lineno - 1][node.end_col_offset:]
        if not (isinstance(node, ast.Expr) and "#" in tail):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        expected = [a.strip() for a in tail.split("#", 1)[1].split(",")]
        values = value if isinstance(value, tuple) else (value,)
        assert len(values) == len(expected), source
        for v, a in zip(values, expected):
            assert _matches(v, a), (source, v, a)
        anchors += len(expected)
    assert anchors == 6


def test_module_map_matches_package():
    section = README.read_text().split("## Module map", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(named) == sorted(modules)


def _modules():
    return [cellmimo] + [
        importlib.import_module(f"cellmimo.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    ]


def test_exports_resolve():
    """Every name in the package's and each module's ``__all__`` is defined,
    so a deletion cannot leave a stale export behind."""
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


# Calls in README code spans that are math notation, or numpy's, not the
# package's.
_NOTATION = {"Beta", "Gamma", "J", "SeedSequence", "ceil", "exp", "f", "log2"}


def _resolves(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj is not None


def test_readme_calls_resolve():
    """Every ``name(`` call in a README code span is an attribute of
    ``cellmimo`` or one of its modules, so a renamed or deleted function
    cannot stay documented."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    modules = _modules()
    calls = {
        name
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"(?<![\w.])([A-Za-z_][\w.]*)\(", span)
    }
    assert calls - _NOTATION
    for name in sorted(calls - _NOTATION):
        assert any(_resolves(module, name) for module in modules), name


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_public_names_have_callers_in_the_package():
    """Every public top-level function or class of ``src/cellmimo`` is in
    ``cellmimo.__all__``, is the CLI's ``main``, or is read by package code
    outside its own definition, so a helper that only tests call cannot
    stay in the program.  Docstrings and ``__all__`` strings do not count."""
    reads = set()  # (name, module, top-level definition reading it or None)
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, _DEFINITIONS) else None
            if owner and not owner.startswith("_"):
                public.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((node.attr, module, owner))
    unused = [
        f"{module}.{name}" for module, name in public
        if name not in cellmimo.__all__ and (module, name) != ("cli", "main")
        and not any(n == name and (m, o) != (module, name) for n, m, o in reads)
    ]
    assert not unused, unused


def _bound_names(stmt):
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, _DEFINITIONS):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_module_names_are_read_in_the_package():
    """Every module-level name of ``src/cellmimo`` (constant, function or
    class) is read or imported by package code outside the statement that
    binds it, so a constant or helper left behind by a deletion cannot stay
    in the program.  Dunder names are exempt."""
    bound, reads = [], set()  # (module, name, statement) and (name, statement)
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            bound += [(path.stem, name, stmt) for name in _bound_names(stmt)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.id, stmt))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.attr, stmt))
                elif isinstance(node, ast.alias):
                    reads.add((node.name, stmt))
    unread = [
        f"{module}.{name}" for module, name, stmt in bound
        if not name.startswith("__") and not any(n == name and s is not stmt for n, s in reads)
    ]
    assert not unread, unread
