"""Machine-readable key-value reports.

One `key = value` pair per line; keys are bare words, values arbitrary
strings without newlines. emit/parse round-trip at the string level.
"""
from __future__ import annotations

from .errors import ParseError, content_lines


def emit(fields: dict[str, object]) -> str:
    lines = []
    for key, value in fields.items():
        if any(ch.isspace() for ch in key):
            raise ValueError(f"report key {key!r} contains whitespace")
        text = str(value)
        if "\n" in text:
            raise ValueError(f"report value for {key!r} contains a newline")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in content_lines(text.splitlines()):
        if " = " not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, value = line.partition(" = ")
        out[key.strip()] = value
    return out
