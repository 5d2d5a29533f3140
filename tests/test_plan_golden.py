"""Byte identity of plan JSON: SHA-256 digests of a fixed set of catalog
plans, as written and after a load/save round trip.

The digests pin the serialized bytes, so any change to plan synthesis or
to the JSON layout shows up here. Re-record them only for a deliberate
format change.
"""
import hashlib

import pytest

from chainsurg import catalog
from chainsurg.protocols import (
    AncillaStrategy,
    build_cnot_plan,
    code_switch_plan,
    direct_sum_code,
    plan_from_json,
    plan_to_json,
)


def _two_patches():
    patch = catalog.surface_patch(2, 2)
    return direct_sum_code(patch, patch).with_distance(2)


PLANS = {
    "toric3_full": lambda: build_cnot_plan(catalog.toric(3), 0, 1),
    "steane_anc_target": lambda: build_cnot_plan(catalog.steane(), 0, None),
    "steane_provided_steane": lambda: build_cnot_plan(
        catalog.steane(), 0, None, ancilla=AncillaStrategy.provided(catalog.steane())
    ),
    "toric2_embedded": lambda: build_cnot_plan(
        catalog.toric(2), 0, None, ancilla=AncillaStrategy.embedded(1)
    ),
    "two_patch_locality_w2": lambda: build_cnot_plan(
        _two_patches(), 0, 1, locality=True, max_weight=2
    ),
    "surface5_locality_w3": lambda: build_cnot_plan(
        catalog.surface_patch(5, 5), 0, None, locality=True, max_weight=3
    ),
    "code_switch": code_switch_plan,
}

# name -> (plan_to_json digest, digest after plan_from_json + plan_to_json)
DIGESTS = {
    "toric3_full": (
        "daaf590901e3c753881efa5297ab333ba79e23949e0f75bec09f0fa06a54e57d",
        "daaf590901e3c753881efa5297ab333ba79e23949e0f75bec09f0fa06a54e57d",
    ),
    "steane_anc_target": (
        "d85460847aefcfbcd71d93865e1181c55f8525e5dce62a5a5d8d42f3ea81f23c",
        "d85460847aefcfbcd71d93865e1181c55f8525e5dce62a5a5d8d42f3ea81f23c",
    ),
    "steane_provided_steane": (
        "22246b5c90a015416d63bf2dbc2f9ff0537fb2f8f34a2942cb1854c1f9f146a7",
        "22246b5c90a015416d63bf2dbc2f9ff0537fb2f8f34a2942cb1854c1f9f146a7",
    ),
    "toric2_embedded": (
        "009beda71b6c4916f3e3dc21ed99b4702b790e8b62b38da2efdf2822e70ebb69",
        "009beda71b6c4916f3e3dc21ed99b4702b790e8b62b38da2efdf2822e70ebb69",
    ),
    "two_patch_locality_w2": (
        "2ce356654ac71ce41c57401b970fa5b32fb5a8dd845b9a31c9d527423e9cf53b",
        "2ce356654ac71ce41c57401b970fa5b32fb5a8dd845b9a31c9d527423e9cf53b",
    ),
    "surface5_locality_w3": (
        "285ad5579438ab2ee500b33458e082ecbd640fea3f8640d66cfa50af60a0e3be",
        "285ad5579438ab2ee500b33458e082ecbd640fea3f8640d66cfa50af60a0e3be",
    ),
    "code_switch": (
        "9e4a0fe74e4d3c408e2e3651e7d025640a8f08b70fbeea6e83d6f0303cc39701",
        "9e4a0fe74e4d3c408e2e3651e7d025640a8f08b70fbeea6e83d6f0303cc39701",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_bytes_and_round_trip(name):
    text = plan_to_json(PLANS[name]())
    written, reloaded = DIGESTS[name]
    assert _sha(text) == written
    assert _sha(plan_to_json(plan_from_json(text))) == reloaded
