"""Indented JSON text for plans and reports.

``dumps(doc)`` returns exactly ``json.dumps(doc, indent=2, sort_keys=True)``
and also takes ``uint8`` arrays, which it prints as the nested lists their
``.tolist()`` gives. Dict keys must be ``str``. With ``indent`` set,
CPython's encoder runs in pure Python and writes each matrix entry through
a chain of generator frames. Here every piece of text is appended to one
list, joined once at the end. ``int``, finite ``float``, ``True``,
``False`` and ``None`` are written as the encoder writes them
(``int.__repr__``, ``float.__repr__``, ``true``, ``false``, ``null``);
any other value that is not a string, container or array goes through
``json.dumps``, so NaN, the infinities, numpy scalars and the
``TypeError`` for an unknown type come out as there. A 0/1 array is
written from one byte template: the text of one row with '0' at every
entry, and the separator to the next row. The template is tiled once per
row, the array is added to the '0's at the entries' offsets with one
strided assignment, and the last separator is dropped. A 1-D array is
written as a one-row array.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

INDENT = "  "


def dumps(doc) -> str:
    out: list[str] = []
    _encode(doc, "\n", out)
    return "".join(out)


def _encode(value, newline: str, out: list[str]) -> None:
    """Append ``value`` as JSON text to ``out``; ``newline`` is the line break and indent it starts after."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + INDENT
        lead = "{" + inner
        for k, v in sorted(value.items()):
            out += (lead, encode_basestring_ascii(k), ": ")
            _encode(v, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + INDENT
        lead = "[" + inner
        for v in value:
            out.append(lead)
            _encode(v, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, np.ndarray) and value.dtype == np.uint8:
        if value.ndim not in (1, 2) or value.max(initial=0) > 1:
            _encode(value.tolist(), newline, out)
        elif value.ndim == 1:
            out.append(_bit_rows(value[None], newline))
        elif len(value):
            inner = newline + INDENT
            out += ("[", inner, _bit_rows(value, inner), newline, "]")
        else:
            out.append("[]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif type(value) is float and math.isfinite(value):
        out.append(float.__repr__(value))
    else:
        out.append(json.dumps(value))  # NaN, infinities, numpy scalars; TypeError for anything else


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
    row = f"[{entry}{(',' + entry).join('0' * a.shape[1])}{newline}]" if a.shape[1] else "[]"
    text = bytearray((row + separator).encode() * len(a))
    first, step = len("[" + entry), len("," + entry) + 1
    np.frombuffer(text, dtype=np.uint8).reshape(len(a), -1)[:, first : first + step * a.shape[1] : step] += a
    return text[: -len(separator)].decode()
