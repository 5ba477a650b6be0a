"""The text rule of every reader.

Netlists, corpora and their labels files, model files, ``fp`` expressions,
``--input`` entries and option values are read by one rule: lines break
only at the ASCII line ends of ``str.splitlines``, tokens split only at
the ASCII whitespace of ``str.split``, and a number is read only from
ASCII text without ``_``, since ``int`` and ``Fraction`` alone would also
read other scripts' digits and ``_`` separators.  Another script's space,
digit or line break (U+3000, U+0661, U+2028, ...) stays inside its token,
where the reader refuses the token by name.  ASCII text, which is all a
generated input holds, costs one plain ``str`` method per call.
"""

from __future__ import annotations

import re

__all__: list[str] = []

_ASCII_DIGITS = "0123456789"
# The ASCII characters that ``str.split`` drops, and of them the line ends
# of ``str.splitlines``.
_ASCII_WHITESPACE = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
_ASCII_SPACE = re.compile(f"[{_ASCII_WHITESPACE}]+")
_ASCII_BREAKS = re.compile(r"\r\n|[\n\r\v\f\x1c-\x1e]")


def _ascii_number(text: str) -> bool:
    """Whether a number may be read from ``text``: it is ASCII and holds no
    ``_``."""
    return text.isascii() and "_" not in text


def _ascii_int(text: str) -> int | None:
    """``int(text)`` when ``text`` is an ASCII decimal integer, with an
    optional sign and surrounding ASCII whitespace; ``None`` otherwise.
    ``int`` alone would refuse ``\\x1c``-``\\x1f``, which :func:`_ascii_split`
    splits at."""
    if _ascii_number(text):
        try:
            return int(text.strip(_ASCII_WHITESPACE))
        except ValueError:
            pass
    return None


def _ascii_split(text: str) -> list[str]:
    """``text.split()``, splitting at ASCII whitespace only."""
    if text.isascii():
        return text.split()
    return [t for t in _ASCII_SPACE.split(text) if t]


def _ascii_lines(text: str) -> list[str]:
    """``text.splitlines()``, breaking at ASCII line ends only."""
    if text.isascii():
        return text.splitlines()
    lines = _ASCII_BREAKS.split(text)
    if not lines[-1]:
        lines.pop()  # a final line break ends the last line, as in splitlines
    return lines


def _token_lines(text: str) -> tuple[list[tuple[int, str]], int]:
    """``(line number, line)`` for each line of ``text`` that holds a token,
    numbered from 1, and the number of lines.  A line of ASCII whitespace
    is blank; a line of other scripts' spaces holds a token."""
    lines = _ascii_lines(text)
    numbered = [
        (line_no, line) for line_no, line in enumerate(lines, start=1)
        if line and not _ASCII_SPACE.fullmatch(line)
    ]
    return numbered, len(lines)
