"""Fuzzing the input readers: every input is read or refused with a ChainsurgError.

Text inputs (matrices, section files, codes, subcodes) get character-level
edits. Plan documents get field edits chosen by the field's type in the
plan step table, plus step-level edits; a plan that still loads must also
simulate (n <= 20) or refuse with a ChainsurgError, and its JSON must load
again. The examples are derandomized, so every run tries the same inputs.
"""
import functools
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.csscode import CssCode
from chainsurg.errors import ChainsurgError
from chainsurg.f2linalg import format_matrix, parse_matrix, split_sections
from chainsurg.protocols import (
    AncillaStrategy,
    _STEP_KINDS,
    build_cnot_plan,
    code_switch_plan,
    direct_sum_code,
    plan_channel,
    plan_from_json,
    plan_to_json,
)
from chainsurg.surgery import Subcode

FUZZ = settings(derandomize=True, deadline=None, suppress_health_check=list(HealthCheck))


def _refused_or_read(read, *args):
    try:
        return read(*args)
    except ChainsurgError:
        return None


# --- text readers -----------------------------------------------------------------


@functools.cache
def _text_readers() -> dict:
    steane = catalog.steane()
    welding = catalog.worked_example("welding")
    steane_sub = catalog.worked_example("steane_z_subcode")
    return {
        "matrix": (format_matrix(steane.hx), parse_matrix),
        "sections": (steane.to_text(), lambda text: split_sections(text, ("hx", "hz", "zl", "xl"))),
        "steane": (steane.to_text(), CssCode.from_text),
        "toric2": (catalog.toric(2).to_text(), CssCode.from_text),
        "steane_subcode": (
            steane_sub.subcode.to_text(),
            lambda text: Subcode.from_text(text, steane_sub.parent),
        ),
        "welding_subcode": (
            welding.subcode.to_text(),
            lambda text: Subcode.from_text(text, welding.parent),
        ),
    }


# (operation, position, chunk); digits other than 0 and 1 stay out of the
# alphabet so that no edit turns a matrix header into a huge dimension
TEXT_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "duplicate_line", "drop_line"]),
        st.integers(0, 1 << 16),
        st.text(alphabet="01 \n:vhxz-#\t", max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _edit_text(text: str, edits) -> str:
    for op, at, chunk in edits:
        i = at % (len(text) + 1)
        lines = text.splitlines(keepends=True) or [""]
        j = at % len(lines)
        if op == "insert":
            text = text[:i] + chunk + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1 + len(chunk):]
        elif op == "duplicate_line":
            text = "".join(lines[: j + 1] + lines[j:])
        else:
            text = "".join(lines[:j] + lines[j + 1:])
    return text


@settings(FUZZ, max_examples=400)
@given(reader=st.sampled_from(["matrix", "sections", "steane", "toric2", "steane_subcode",
                               "welding_subcode"]), edits=TEXT_EDITS)
def test_text_readers_read_or_refuse(reader, edits):
    text, read = _text_readers()[reader]
    _refused_or_read(read, _edit_text(text, edits))


# --- plan documents ---------------------------------------------------------------


@functools.cache
def _plan_texts() -> dict:
    """Plans on at most 22 qubits, one per step layout the builders make."""
    patch = catalog.surface_patch(2, 2)
    two_patches = build_cnot_plan(
        direct_sum_code(patch, patch), 0, 1, locality=True, max_weight=2
    )
    plans = {
        "toric2_target": build_cnot_plan(catalog.toric(2), 0, 1),
        "steane_anc_target": build_cnot_plan(catalog.steane(), 0, None),
        "steane_provided": build_cnot_plan(
            catalog.steane(), 0, None, ancilla=AncillaStrategy.provided(catalog.steane())
        ),
        "toric2_embedded": build_cnot_plan(
            catalog.toric(2), 0, None, ancilla=AncillaStrategy.embedded(1)
        ),
        "two_patch_locality": two_patches,
        "code_switch": code_switch_plan(),
    }
    return {name: plan_to_json(plan) for name, plan in plans.items()}


# top-level plan fields -> their type as plan_from_json reads them
TOP_FIELDS = {
    "name": "str", "control": "int", "target": "int", "ancilla_index": "int",
    "data_indices": "ints", "locality": "bool", "base_hx": "matrix", "base_hz": "matrix",
    "base_zl": "matrix", "base_xl": "matrix", "class_correction": "pauli",
    "correction_rules": "rules",
}

ANY_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.sampled_from(["", "Z", "X", "plus", "zero", "merge", "split", "zmerge.zz0", "final.za"]),
    st.lists(st.integers(-1, 2), max_size=4),
    st.lists(st.lists(st.integers(0, 1), max_size=3), max_size=3),
    st.fixed_dictionaries({"x": st.lists(st.integers(0, 1), max_size=3),
                           "z": st.lists(st.integers(0, 1), max_size=3)}),
)


def _near_matrix(rows, data):
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list) or not rows[0]:
        return data.draw(ANY_JSON)
    rows = [list(r) for r in rows]
    op = data.draw(st.sampled_from(["flip", "drop_row", "drop_col", "repeat_row", "swap_rows"]))
    if op == "flip":
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] ^= 1
    elif op == "drop_row":
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    elif op == "drop_col":
        rows = [r[:-1] for r in rows]
    elif op == "repeat_row":
        rows.append(rows[data.draw(st.integers(0, len(rows) - 1))])
    else:
        rows.reverse()
    return rows


def _near_pauli(p, data):
    if not isinstance(p, dict):
        return data.draw(ANY_JSON)
    p = dict(p)
    op = data.draw(st.sampled_from(["flip", "truncate", "extend", "shorten", "sign", "drop_sign",
                                    "null"]))
    side = data.draw(st.sampled_from(["x", "z"]))
    if op == "flip" and p[side]:
        bits = list(p[side])
        bits[data.draw(st.integers(0, len(bits) - 1))] ^= 1
        p[side] = bits
    elif op == "truncate":
        p[side] = p[side][:-1]
    elif op == "extend":
        p[side] = p[side] + [1]
    elif op == "shorten":  # both sides, so that x and z still agree in length
        p["x"], p["z"] = p["x"][:3], p["z"][:3]
    elif op == "sign":
        p["sign"] = data.draw(st.sampled_from([-1, 0, 2, True]))
    elif op == "drop_sign":
        p.pop("sign", None)
    elif op == "null":
        return None
    return p


def _near(kind: str, value, data):
    """``value`` edited as a value of ``kind``, or any JSON value a fifth of the time."""
    if data.draw(st.integers(0, 4)) == 0:
        return data.draw(ANY_JSON)
    if kind == "matrix":
        return _near_matrix(value, data)
    if kind == "pauli":
        return _near_pauli(value, data)
    if kind == "paulis" and isinstance(value, list) and value:
        value = list(value)
        op = data.draw(st.sampled_from(["entry", "append_null", "drop", "all_null"]))
        if op == "entry":
            i = data.draw(st.integers(0, len(value) - 1))
            value[i] = _near_pauli(value[i], data)
        elif op == "append_null":
            value.append(None)
        elif op == "drop":
            value.pop()
        else:
            value = [None] * len(value)
        return value
    if kind == "rules" and isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
        value = dict(value)
        if data.draw(st.booleans()):
            value[key] = _near_pauli(value[key], data)
        else:
            value[key + "_"] = value.pop(key)
        return value
    if kind in ("ints", "strs") and isinstance(value, list):
        extra = data.draw(st.integers(-1, 30)) if kind == "ints" else "zmerge.zz1"
        return data.draw(st.sampled_from([value + [extra], value[:-1], value[::-1]]))
    if kind == "int":
        return data.draw(st.one_of(st.integers(-2, 30), st.none()))
    if kind == "str":
        return data.draw(st.sampled_from(["Z", "X", "plus", "zero", "zmerge.zz0", "xmerge.xx0",
                                          "final.za", "final.xa", f"{value}_"]))
    if kind == "bool":
        return not value
    return data.draw(ANY_JSON)


def _edit_plan(doc: dict, data) -> None:
    """One edit: a field of the plan or of a step, its type drawn first, or a step-level edit."""
    steps = doc["steps"]
    spots: dict = {}  # field type -> [(holder, name)]
    for name, kind in TOP_FIELDS.items():
        spots.setdefault(kind, []).append((doc, name))
    for step in steps:
        fields = _STEP_KINDS[step["kind"]][0] if step.get("kind") in _STEP_KINDS else ()
        for name, kind, _, _ in fields:
            spots.setdefault(kind, []).append((step, name))
    kind = data.draw(st.sampled_from(sorted(spots) + ["steps"]))
    if kind != "steps":
        holder, name = data.draw(st.sampled_from(spots[kind]))
        if data.draw(st.integers(0, 9)) == 0:
            holder.pop(name, None)
        else:
            holder[name] = _near(kind, holder.get(name), data)
        return
    op = data.draw(st.sampled_from(["drop", "repeat", "swap", "kind"]))
    i = data.draw(st.integers(0, len(steps) - 1))
    if op == "drop" and len(steps) > 1:
        del steps[i]
    elif op == "repeat":
        steps.insert(i, json.loads(json.dumps(steps[i])))
    elif op == "swap" and i + 1 < len(steps):
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
    elif op == "kind":
        steps[i]["kind"] = data.draw(st.sampled_from(sorted(_STEP_KINDS) + ["bogus"]))


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_plan_mutations_load_or_refuse(data):
    name = data.draw(st.sampled_from(sorted(_plan_texts())))
    doc = json.loads(_plan_texts()[name])
    for _ in range(data.draw(st.integers(1, 2))):
        _edit_plan(doc, data)
    plan = _refused_or_read(plan_from_json, json.dumps(doc))
    if plan is None:
        return
    plan_from_json(plan_to_json(plan))  # what loaded writes a plan that loads again
    if plan.base_code.n <= 20:
        outcomes = {m: data.draw(st.sampled_from([1, -1])) for m in plan.measurement_ids()}
        _refused_or_read(plan_channel, plan, outcomes, data.draw(st.booleans()))
