"""Shared exception types and the reader of the line-based text formats."""
from __future__ import annotations

from typing import Iterable, Iterator


class QTError(Exception):
    """Base class for all library errors."""


class ParseError(QTError, ValueError):
    """Malformed textual input; carries the position of the offending token."""

    def __init__(self, message: str, *, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where += f" at line {line}"
        if column is not None:
            where += f"{',' if line is not None else ' at'} position {column}"
        super().__init__(message + where)


def content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped line) of each line that is neither
    blank nor a '#' comment, as every text format reads them."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


class DimensionMismatch(QTError, ValueError):
    """Operands act on different numbers of qubits or bits."""


class CodeConstructionError(QTError, ValueError):
    """Inputs do not define a valid code (dependent/non-commuting generators, ...)."""
