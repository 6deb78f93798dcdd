"""Text round-tripping for field elements, polynomials, and matrices.

Element tokens.  A prime field element is a bare digit string ("0", "2").
An extension element is a bracket list of its coefficients over the level
below, lowest degree first ("[0,1]", "[[0,1],[1,0]]").  Levels of relative
degree 1 are collapsed: their elements print as elements of the level
below.  On input, a bare integer d is always read as the prime field
constant d (so it must satisfy 0 <= d < p), and short bracket lists are
zero padded on the right.

Polynomial tokens are comma separated coefficient lists, constant term
first ("1,0,1" is x**2 + 1).  Matrix tokens are the four entries row major,
joined by semicolons ("a;b;c;d").

All tokens are valid JSON fragments, so parsing is json.loads plus digit
validation, and formatting is deterministic: the same object always yields
byte identical text.
"""

from __future__ import annotations

import json
from functools import partial

from .errors import ParseError
from .gftower import _ROW_CAP


def format_element(level, a: int) -> str:
    if level.base is None:
        return str(a)
    if level.deg == 1:
        return format_element(level.base, a)
    return "[" + ",".join(format_element(level.base, c) for c in level.decode(a)) + "]"


def coerce_element(level, obj) -> int:
    """Turn a parsed JSON value into an element code at the given level."""
    if isinstance(obj, bool) or not isinstance(obj, (int, list)):
        raise ParseError(f"cannot read a field element from {obj!r}")
    if isinstance(obj, int):
        if 0 <= obj < level.p:
            return obj
        raise ParseError(
            f"bare integer {obj} must be a prime field digit in [0, {level.p})"
        )
    if level.base is None:
        raise ParseError("prime field elements are bare digits, not lists")
    if level.deg == 1:
        return coerce_element(level.base, obj)
    if not 1 <= len(obj) <= level.deg:
        raise ParseError(
            f"coefficient list of length {len(obj)} does not fit degree {level.deg}"
        )
    return level.encode([coerce_element(level.base, entry) for entry in obj])


def parse_element(level, text: str) -> int:
    try:
        obj = json.loads(text.strip())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad element token {text!r}: {exc}") from None
    return coerce_element(level, obj)


def _element_tokens(level):
    """a -> format_element(level, a); on a level of at most _ROW_CAP
    elements one lookup in a table of every code's token, built on first
    use."""
    if level.size > _ROW_CAP:
        return partial(format_element, level)
    if level._tokens is None:
        level._tokens = [format_element(level, a) for a in range(level.size)]
    return level._tokens.__getitem__


def format_poly(level, coeffs) -> str:
    if not coeffs:
        return "0"
    return ",".join(map(_element_tokens(level), coeffs))


def parse_poly(level, text: str) -> list[int]:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial token")
    try:
        obj = json.loads("[" + text + "]")
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad polynomial token {text!r}: {exc}") from None
    coeffs = [coerce_element(level, entry) for entry in obj]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def format_matrix(level, entries) -> str:
    entries = tuple(entries)
    if len(entries) != 4:
        raise ParseError("a matrix has exactly four entries")
    return ";".join(format_element(level, x) for x in entries)


def parse_matrix(level, text: str) -> tuple[int, int, int, int]:
    parts = text.strip().split(";")
    if len(parts) != 4:
        raise ParseError(
            f"matrix token needs four ';'-separated entries, got {len(parts)}"
        )
    a, b, c, d = (parse_element(level, part) for part in parts)
    return (a, b, c, d)
