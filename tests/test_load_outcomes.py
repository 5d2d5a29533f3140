"""What ``plan_from_json`` does with edited plan documents, pinned by digest.

Each of the fuzz suite's six plans gets the same 200 derandomized edits
(``test_fuzz._edit_plan``, one or two per document). A load's outcome is
the refusal's error type, message and section, or ``plan_to_json`` of the
plan it loaded; the outcomes of one plan, in order, hash to one SHA-256.
A refusal that is reworded, that names another section, or that another
check now makes first changes the digest, and so does a loaded plan that
writes other bytes.
"""
import hashlib
import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from chainsurg import catalog
from chainsurg.errors import ChainsurgError
from chainsurg.protocols import build_cnot_plan, plan_from_json, plan_to_json
from test_f2linalg import rref_inputs
from test_fuzz import _edit_plan, _plan_texts

EDITS = settings(
    derandomize=True,
    database=None,
    max_examples=200,
    phases=[Phase.generate],
    deadline=None,
    suppress_health_check=list(HealthCheck),
)

DIGESTS = {
    "code_switch": "e51906d1c158347930092740b3fa53163c040328c22ec1d64970607cba5ca1e4",
    "steane_anc_target": "f1636a2bacf65f77a2df351ed8c2fc012c8045e05b100ca08f663f4ad0a504a7",
    "steane_provided": "26a2fb2d7ab2d771b8428e1293df1597eeb51ffe16d279a2e797aab0566db0f6",
    "toric2_embedded": "b4451d1bea880c1740671117c2eafecd2db62e4d723adf771ba7bc036be55385",
    "toric2_target": "652d1cfb7528214c64a8e3bb461d6a4ec9f2e105339298aef3b62423fb5b1114",
    "two_patch_locality": "45d57d50992917a729086bc2eba4d4bc15f13ca4c4ed68bbc6f6dd394265e2da",
}


def _outcome(text: str) -> str:
    try:
        return plan_to_json(plan_from_json(text))
    except ChainsurgError as exc:
        return f"{type(exc).__name__}\n{exc}\n{getattr(exc, 'section', None)}"


def _outcomes_digest(name: str) -> str:
    text = _plan_texts()[name]
    digest = hashlib.sha256()

    @EDITS
    @given(data=st.data())
    def edit_and_load(data):
        doc = json.loads(text)
        for _ in range(data.draw(st.integers(1, 2))):
            _edit_plan(doc, data)
        digest.update(_outcome(json.dumps(doc)).encode() + b"\0")

    edit_and_load()
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_load_outcomes_of_edited_plans(name):
    assert _outcomes_digest(name) == DIGESTS[name]


def test_plan_load_on_toric_2_eliminates_six_inputs():
    # the base code's cycles and boundaries and its transpose's, and per merge
    # the one elimination of the pushed logicals' reductions
    text = plan_to_json(build_cnot_plan(catalog.toric(2), 0, 1))
    assert len(rref_inputs(lambda: plan_from_json(text))) <= 6
