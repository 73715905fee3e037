"""The documented examples: the package docstring runs as a doctest, the
README quick start reproduces the values its comments print, the README
module map names exactly the package's modules, and every exported name
exists."""

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
        if "estimate_coverage(" in source or source.startswith("est."):
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


def test_exports_resolve():
    """Every name in the package's and each module's ``__all__`` is defined,
    so a deletion cannot leave a stale export behind."""
    modules = [cellmimo] + [
        importlib.import_module(f"cellmimo.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
