"""Every name ``frontlab`` exports has a reader outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frontlab"


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _reads(source: str) -> set:
    """The names a module reads: plain names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_export_is_read_by_the_package_the_benchmark_or_the_readme():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))
               if path != PACKAGE / "__init__.py"]
    sources += [path.read_text(encoding="utf-8") for path in sorted((ROOT / "bench").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    read = set().union(*map(_reads, sources))
    assert sorted(_exports() - read) == []
