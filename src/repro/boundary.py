"""Echoing untrusted input in boundary error messages.

A boundary error names the offending value so the caller can fix it, but
the value may be any size: a 200,000-character JSON string must not become
a 200,000-character HTTP 400 body or ``repro run --plan`` error line.
"""

from __future__ import annotations

import reprlib

#: Longest echo of an offending value, in characters.
ECHO_LIMIT = 64

_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxother = ECHO_LIMIT


def bounded_repr(value: object) -> str:
    """``repr(value)`` in at most :data:`ECHO_LIMIT` characters.

    Short values echo exactly; a long one keeps its head and ends in
    ``...``.  Nested containers are cut by :mod:`reprlib` before the full
    text is ever built.
    """
    text = _REPR.repr(value)
    if len(text) > ECHO_LIMIT:
        text = text[:ECHO_LIMIT - 3] + "..."
    return text
