"""``jsontext.dumps`` prints exactly what ``json.dumps(indent=2, sort_keys=True)``
prints for the same document with every array replaced by its ``.tolist()``."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chainsurg.jsontext import dumps


def plain(doc):
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(v) for v in doc]
    return doc


def reference(doc) -> str:
    return json.dumps(plain(doc), indent=2, sort_keys=True)


def bit_arrays(shape):
    return arrays(np.uint8, shape, elements=st.integers(0, 1))


SHAPES = st.one_of(
    st.sampled_from([(0, 0), (1, 1), (0,), (1,)]),
    st.integers(1, 6).map(lambda n: (0, n)),
    st.integers(1, 6).map(lambda n: (n, 0)),
    st.tuples(st.integers(1, 8), st.integers(1, 40)),
    st.tuples(st.integers(1, 40)),
)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1e16, float("nan"), float("inf")]))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.text(), SHAPES.flatmap(bit_arrays)
)
DOCS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_matches_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"m": np.zeros((0, 0), dtype=np.uint8), "r": np.zeros((3, 0), dtype=np.uint8)},
        {"ü€": [np.eye(3, dtype=np.uint8)], "\x00\n\"": np.ones(4, dtype=np.uint8)},
        np.arange(6, dtype=np.uint8).reshape(2, 3),  # entries above 1
        np.ones((2, 2, 2), dtype=np.uint8),
        np.array(1, dtype=np.uint8),
    ],
)
def test_edge_documents(doc):
    assert dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "array",
    [
        np.ones((2, 2), dtype=np.int64),
        np.ones(3, dtype=bool),
        np.zeros((2, 2), dtype=np.float64),
        np.zeros(0, dtype=np.int8),
    ],
)
def test_non_uint8_array_raises(array):
    with pytest.raises(TypeError):
        dumps({"a": [array]})


@pytest.mark.parametrize("doc", [{(1, 2): 0}, {"a": object()}, {"a": np.int64(1)}])
def test_unserializable_raises_like_json(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_non_str_key_raises(key):
    with pytest.raises(TypeError):
        dumps({key: 0})


def nested(value, depth: int):
    """``value`` under ``depth`` levels of alternating dicts and lists."""
    for level in range(depth):
        value = {"k": value, "a": 1} if level % 2 == 0 else [0, value]
    return value


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "shape",
    [(1, 1), (1, 9), (9, 1), (0, 9), (9, 0), (0, 0), (2, 3), (8, 20), (44, 117), (117, 44), (1,), (0,), (200,)],
)
def test_bit_array_template_at_every_depth(shape, depth):
    a = np.random.RandomState(sum(shape) + depth).randint(0, 2, shape).astype(np.uint8)
    for array in (a, np.ascontiguousarray(a.T), a.T, np.ones_like(a), np.zeros_like(a)):
        doc = nested(array, depth)
        assert dumps(doc) == reference(doc)


# the scalars dumps writes itself (int, finite float, bools, null) beside those it passes
# to json.dumps (NaN, the infinities, numpy floats), in nested and empty containers
WRITTEN_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**80]),
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.sampled_from([np.float64("nan"), np.float64("inf"), np.float64("-inf"), np.float64(-0.0)]),
    SHAPES.flatmap(bit_arrays),
)
WRITTEN_DOCS = st.recursive(
    WRITTEN_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(WRITTEN_DOCS)
def test_scalars_match_json_dumps(doc):
    assert dumps(doc) == json.dumps(plain(doc), indent=2, sort_keys=True)
