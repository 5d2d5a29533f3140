"""docs/plan_schema.json: the golden plans validate, and its steps follow the step table."""
import json
from pathlib import Path

import jsonschema
import pytest

from chainsurg.protocols import _STEP_TABLE, plan_to_json
from test_plan_golden import PLANS

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "plan_schema.json").read_text()
)


def test_schema_is_valid_draft_07():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_golden_plan_validates(name):
    jsonschema.validate(json.loads(plan_to_json(PLANS[name]())), SCHEMA)


def test_step_fields_follow_the_step_table():
    kinds = [kind for kind, _, _ in _STEP_TABLE.values()]
    refs = [ref["$ref"] for ref in SCHEMA["properties"]["steps"]["items"]["oneOf"]]
    assert refs == [f"#/definitions/{kind}" for kind in kinds]
    for kind, fields, _ in _STEP_TABLE.values():
        step = SCHEMA["definitions"][kind]
        names = ["kind"] + [name for name, _, _, _ in fields]
        assert list(step["properties"]) == names
        assert step["required"] == names
        assert step["properties"]["kind"] == {"const": kind}
