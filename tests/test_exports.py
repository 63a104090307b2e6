"""The package exports what its callers use.

Every name ``gdcscan/__init__.py`` exports must be used somewhere besides
its own definition: by the package's code (``src/gdcscan``, leaving out
``__init__.py``), by the benchmark harness (``perfbench/``) or in the
README's "Library entry points". A name only the tests use belongs in
``tests/``, next to the oracles there. The README's entry-point block
itself runs, so it cannot go stale.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gdcscan"

# Exported, used only by tests, and kept on a decision of their own.
KNOWN_EXCEPTIONS = {
    "genF_cdf": "the paper's generalized-F law, cited by name in the acceptance criteria",
    "asymptotic_pvalue": "the paper's large-sample law, cited by name in the acceptance criteria",
    "draw_heterozygous_effect": "the simulation's random heterozygous-effect law",
    "competitor_tests": "the simulation's classical competitors for one replication",
}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _names(node) -> set:
    """Identifiers a piece of code reads: names, attributes, and strings
    spelled like identifiers (``getattr``/``setattr`` targets)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            out.add(sub.value)
    return out


def _defined(node) -> set:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _used_in_package(name: str) -> bool:
    """True when a module of the package other than ``__init__`` reads
    ``name`` outside the top-level statement that defines it."""
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or name in _defined(node):
                continue
            if name in _names(node):
                return True
    return False


def _perfbench_names() -> set:
    out = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        out |= _names(ast.parse(path.read_text()))
    return out


def _readme_entry_points() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library entry points")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _unused_exports() -> set:
    perfbench = _perfbench_names()
    entry_points = _readme_entry_points()
    return {
        name for name in _exports()
        if name not in perfbench
        and not re.search(rf"\b{re.escape(name)}\b", entry_points)
        and not _used_in_package(name)
    }


def test_every_export_has_a_caller():
    unused = _unused_exports()
    assert unused - set(KNOWN_EXCEPTIONS) == set(), (
        "exported but used only by tests; move them to tests/ or drop the export"
    )
    # a listed exception that gained a caller, or lost its export, leaves the list
    assert set(KNOWN_EXCEPTIONS) - unused == set()


def test_readme_entry_points_run():
    """The README's "Library entry points" code block runs as written, in
    a fresh interpreter with only ``src`` on the path."""
    blocks = re.findall(r"```python\n(.*?)```", _readme_entry_points(), re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ScanRecord(" in done.stdout  # the block's last line prints a record
