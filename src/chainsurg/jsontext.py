"""Indented JSON text for plans and reports.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)``
and also takes ``uint8`` arrays, which it prints as the nested lists their
``.tolist()`` gives. Dict keys must be ``str``. With ``indent`` set,
CPython's encoder runs in pure Python and writes each matrix entry through
a chain of generator frames. Here a 0/1 array is written from one byte
template: the text of one row with '0' at every entry, and the separator
to the next row. The template is tiled once per row, the array is added
to the '0's at the entries' offsets with one strided assignment, and the
last separator is dropped. A 1-D array is written as a one-row array.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

INDENT = "  "


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
            return _bit_rows(value[None], newline)
        if not len(value):
            return "[]"
        inner = newline + INDENT
        return f"[{inner}{_bit_rows(value, inner)}{newline}]"
    return json.dumps(value)  # numbers, true, false, null; TypeError for anything else


def _container(open_: str, items, close: str, newline: str) -> str:
    body = ("," + newline + INDENT).join(items)
    return f"{open_}{newline}{INDENT}{body}{newline}{close}" if body else open_ + close


def _bit_rows(a: np.ndarray, newline: str) -> str:
    """Each row of a 2-D 0/1 array as a JSON list of ints, joined by ',' and ``newline``.

    The template is one row's text with '0' at every entry, then the
    separator. The first entry follows '[' and the entry indent, and each
    next one follows ',' and the entry indent, so the entries sit at one
    stride: adding the array to a strided view of the tiled template turns
    each '0' into its digit.
    """
    separator = "," + newline
    entry = newline + INDENT
    template = (_container("[", "0" * a.shape[1], "]", newline) + separator).encode()
    text = bytearray(template * len(a))
    first, step = len("[" + entry), len("," + entry) + 1
    np.frombuffer(text, dtype=np.uint8).reshape(len(a), -1)[:, first : first + step * a.shape[1] : step] += a
    return text[: -len(separator)].decode()
