"""Static checks on the package source."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ncgram"


def test_package_source_has_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rely on one; raise an exception instead.
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    # a stale __all__ entry only fails on `from ncgram import *`
    import ncgram

    missing = [name for name in ncgram.__all__ if not hasattr(ncgram, name)]
    assert missing == []
