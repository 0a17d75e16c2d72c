"""Docstrings and comments name only Markdown files that exist."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: Trees whose docstrings and comments are checked.
CHECKED_TREES = ("src", "benchmarks", "tests", "examples")

_MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _docstrings_and_comments(source: str) -> "list[tuple[int, str]]":
    """``(line, text)`` of every docstring and comment in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            docstring = ast.get_docstring(node, clean=False)
            if docstring is not None:
                found.append((node.body[0].lineno, docstring))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            found.append((token.start[0], token.string))
    return found


def test_docstrings_and_comments_name_existing_markdown():
    # A bare name resolves against the repository root or the file's own
    # directory; a name with a directory resolves against the root.
    missing = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for tree in CHECKED_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        for line, text in _docstrings_and_comments(path.read_text())
        for name in _MARKDOWN_NAME.findall(text)
        if not (REPO / name).is_file() and not (path.parent / name).is_file()
    ]
    assert not missing, "\n".join(["names of missing files:", *missing])
