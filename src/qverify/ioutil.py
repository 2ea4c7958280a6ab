"""Atomic file helpers and error text shared by the repository and the CLI."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file in the same directory + rename, so readers never
    observe partial content and failures leave no partial output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def append_line(path: Path, line: str) -> None:
    """Append one newline-terminated record (POSIX appends are atomic enough
    for single-writer use under the repository lock)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line if line.endswith("\n") else line + "\n")


def error_text(exc: BaseException) -> str:
    """An exception's message as raised: a KeyError's str() is its key's repr."""
    return str(exc.args[0]) if isinstance(exc, KeyError) and len(exc.args) == 1 else str(exc)
