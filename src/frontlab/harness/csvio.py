"""Deterministic CSV emission: 17 significant digits, fixed row order."""

from __future__ import annotations

import os
from pathlib import Path


def fmt(value) -> str:
    """Lossless text for floats (``nan``, ``inf``, ``-inf`` included)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else str(value)


def _stream(out, header: str, rows) -> None:
    out.write(header + "\n")
    for row in rows:
        out.write(row if isinstance(row, str) else ",".join(map(fmt, row)) + "\n")


def write_csv(path, header: str, rows):
    """Stream ``header`` and ``rows`` to ``path`` or to an open text stream.

    A row is a value tuple or a block of ready CSV lines.  A file appears
    only when complete: it is written to a sibling temporary file that
    then replaces ``path``.
    """
    if hasattr(path, "write"):
        _stream(path, header, rows)
        return path
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as out:
            _stream(out, header, rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path
