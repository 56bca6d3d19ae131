"""Guard: the per-segment requests are built positionally.

A ``Consume`` is built for every simulated CPU segment and a ``GWork``
for most guest ops, and a keyword argument costs the call more than its
work does: on CPython 3.11.7, ``Consume(n, MODE_GUEST, interruptible=True)``
takes ~330 ns and ``Consume(n, MODE_GUEST, True)`` ~190 ns (DESIGN.md §12,
"The polling data path").

The check parses every module of ``src/repro`` and fails, naming the file
and line, on any call of either class that passes a keyword.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

HOT_CONSTRUCTORS = ("Consume", "GWork")
SRC = Path(repro.__file__).resolve().parent


def keyword_calls(source: str, filename: str = "<src>"):
    """``["<file> line N: Name(kw=)", ...]`` for every call of a hot
    constructor in ``source`` that passes a keyword, in line order."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in HOT_CONSTRUCTORS:
            kws = ", ".join(f"{k.arg}=" if k.arg else "**" for k in node.keywords)
            found.append((node.lineno, f"{filename} line {node.lineno}: {name}({kws})"))
    return [text for _, text in sorted(found)]


def test_hot_constructors_are_called_positionally():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += keyword_calls(path.read_text(encoding="utf-8"),
                               str(path.relative_to(SRC.parent)))
    assert found == []


def test_the_guard_sees_a_keyword_call():
    source = (
        "def ops(n, mode):\n"
        "    yield Consume(n, mode, interruptible=True)\n"
        "    yield thread.GWork(ns=n)\n"
        "    yield Consume(n, mode, True)\n"
        "    yield Consume(n, **options)\n"
    )
    assert keyword_calls(source) == [
        "<src> line 2: Consume(interruptible=)",
        "<src> line 3: GWork(ns=)",
        "<src> line 5: Consume(**)",
    ]
