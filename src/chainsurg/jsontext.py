"""Indented JSON text for plans and reports.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)``
and also takes ``uint8`` arrays, which it prints as the nested lists their
``.tolist()`` gives. Dict keys must be ``str``. With ``indent`` set,
CPython's encoder runs in pure Python and writes each matrix entry through
a chain of generator frames; here a 0/1 row is one ``bytes.translate`` and
one ``str.join``.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

INDENT = "  "
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def dumps(doc) -> str:
    return _encode(doc, "\n")


def _encode(value, newline: str) -> str:
    """``value`` as JSON text; ``newline`` is the line break and indent it starts after."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        inner = newline + INDENT
        items = (
            f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(value.items())
        )
        return _container("{", items, "}", newline)
    if isinstance(value, (list, tuple)):
        return _container("[", (_encode(v, newline + INDENT) for v in value), "]", newline)
    if isinstance(value, np.ndarray) and value.dtype == np.uint8:
        if value.ndim not in (1, 2) or value.max(initial=0) > 1:
            return _encode(value.tolist(), newline)
        if value.ndim == 1:
            return _bit_row(value, newline)
        inner = newline + INDENT
        return _container("[", (_bit_row(row, inner) for row in value), "]", newline)
    return json.dumps(value)  # numbers, true, false, null; TypeError for anything else


def _container(open_: str, items, close: str, newline: str) -> str:
    body = ("," + newline + INDENT).join(items)
    return f"{open_}{newline}{INDENT}{body}{newline}{close}" if body else open_ + close


def _bit_row(row: np.ndarray, newline: str) -> str:
    """A 1-D 0/1 array as a JSON list of ints."""
    bits = row.tobytes().translate(_BIT_CHARS).decode()
    return _container("[", bits, "]", newline)
