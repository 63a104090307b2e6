"""The declared dependencies cover what the tests import, and CI installs
them from the declaration.

The README installs the test requirements with ``pip install -e .[test]``,
so every third-party module a file in ``tests/`` imports must be named in
``pyproject.toml``, under ``dependencies`` or the ``test`` extra, and the
CI workflow installs the same way instead of keeping its own list.
"""

import ast
import pathlib
import re
import shlex
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _requirement_names(specs) -> set:
    """Distribution names of requirement strings such as ``numpy>=1.24``,
    spelled as their import names."""
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
            for spec in specs}


def _local_modules() -> set:
    """Modules the repository provides itself: the package, the test
    helpers, and the benchmark modules some tests put on the path."""
    files = {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    return files | {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}


def _top_level_imports(path: pathlib.Path) -> set:
    """First components of the modules a file imports anywhere: absolute
    imports, and ``pytest.importorskip`` of a named module."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "importorskip" \
                and node.args and isinstance(node.args[0], ast.Constant):
            out.add(node.args[0].value.partition(".")[0])
    return out


def _declared() -> set:
    """Import names of the runtime dependencies and the ``test`` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return _requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])


def test_every_third_party_test_import_is_declared():
    known = _declared() | set(sys.stdlib_module_names) | _local_modules()
    imports = {path.name: _top_level_imports(path)
               for path in sorted((ROOT / "tests").glob("*.py"))}
    undeclared = {name: sorted(mods - known) for name, mods in imports.items()}
    assert {name: mods for name, mods in undeclared.items() if mods} == {}
    # the walk finds the third-party imports it guards
    assert {"numpy", "scipy", "mpmath", "hypothesis"} <= set().union(*imports.values())


def test_ci_installs_what_pyproject_declares():
    """Each ``pip install`` of the CI workflow installs the package with its
    ``test`` extra and names no declared dependency by hand, so a package
    missing from ``pyproject.toml`` fails CI as it fails the README's
    install.  A build tool the declaration leaves out, such as
    ``setuptools`` for the in-place build, may still be named."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = [shlex.split(args) for args in re.findall(r"pip install ([^\n&;|]+)", workflow)]
    assert installs
    for args in installs:
        by_hand = _requirement_names(a for a in args if not a.startswith(("-", ".")))
        assert not by_hand & _declared(), args
        assert ".[test]" in args, args
