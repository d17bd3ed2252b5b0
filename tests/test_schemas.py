"""`schemas.validate` against jsonschema: same message and JSON path.

The CLI validates requests with `schemas.validate`; jsonschema is a test
dependency only, used here as the reference.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahol import schemas
from parahol.errors import SchemaViolation

jsonschema = pytest.importorskip("jsonschema")


def outcome_ours(payload, schema):
    try:
        schemas.validate(payload, schema)
    except SchemaViolation as exc:
        return exc.message, exc.json_path
    return None


def outcome_reference(payload, schema):
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return exc.message, exc.json_path
    return None


@functools.cache
def reference_validator(command):
    """What `jsonschema.validate` builds, with the meta-schema check made
    once instead of on every call."""
    schema = schemas.BY_COMMAND[command]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# values that break a schema in different ways: booleans where integers are
# expected, integral and fractional floats, malformed rationals, nulls and
# containers in place of scalars
_JUNK = st.one_of(
    st.booleans(), st.none(),
    st.sampled_from([1.0, 0.0, -1.0, 2.5, -0.5, 501, 500.0, -3]),
    st.sampled_from(["1/x", "1.5", "", " 1", "1\n", "-", "a", "cr", "CR"]),
    st.just([]), st.just({}), st.just([1, "x"]), st.just({"D": 1}),
)

# property names not in any schema, some needing bracket notation in a
# JSON path; drawn in random order so the extras are not sorted
_EXTRA_NAMES = ["zeta", "alpha", "Mid", "b", "_x", "1/x", "a'b", "P_1", "D", "t\\"]


def _valid_leaf(schema):
    types = schema.get("type")
    types = [types] if isinstance(types, str) else (types or [])
    options = []
    if "enum" in schema:
        options.append(st.sampled_from(schema["enum"]))
    if "integer" in types or "number" in types:
        # mostly in range, with the bounds and integral floats
        options.append(st.integers(0, 9))
        options.append(st.sampled_from([1.0, 2.0, -1, 500, 501]))
    if "number" in types:
        options.append(st.floats(-5, 5, allow_nan=False))
    if "string" in types:
        options.append(st.sampled_from(["1/2", "-3", "7", "0/5", "2/0"]))
    return st.one_of(*options) if options else _JUNK


@st.composite
def instances(draw, schema):
    """Payloads near `schema`: mostly its shape, so that one payload can
    hold several errors at different depths."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JUNK)
    kind = schema.get("type")
    if kind == "object":
        properties = schema.get("properties", {})
        out = [(name, draw(instances(sub))) for name, sub in properties.items()
               if draw(st.integers(0, 9))]     # now and then leave one out
        extra = schema.get("additionalProperties", True)
        if extra is not False or draw(st.integers(0, 3)) == 0:
            names = draw(st.lists(st.sampled_from(_EXTRA_NAMES), unique=True,
                                  max_size=4))
            out += [(name, draw(instances(extra if isinstance(extra, dict)
                                          else {})))
                    for name in names if name not in properties]
        order = draw(st.permutations(range(len(out))))
        return {out[i][0]: out[i][1] for i in order}
    if kind == "array":
        return draw(st.lists(instances(schema["items"]), max_size=4))
    return draw(_valid_leaf(schema))


@pytest.mark.parametrize("command", sorted(schemas.BY_COMMAND))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_validate_matches_jsonschema(command, data):
    schema = schemas.BY_COMMAND[command]
    payload = data.draw(instances(schema))
    error = jsonschema.exceptions.best_match(
        reference_validator(command).iter_errors(payload))
    reference = None if error is None else (error.message, error.json_path)
    assert outcome_ours(payload, schema) == reference


def _classify(**fields):
    body = {"family": "conformal", "params": [3, 0], "element": {"D": 1}}
    body.update(fields)
    return body


def _field(**parts):
    body = {"a": [0, 0], "A": [[0, 0], [0, 0]], "s": 1, "b": [0, 0],
            "signature": [2, 0]}
    body.update(parts)
    return {"field": body, "point": [0, 0]}


@pytest.mark.parametrize("command,payload", [
    # booleans where integers are expected
    ("classify", _classify(params=[True, 0])),
    ("verify-identities", {"samples": True}),
    ("verify-identities", {"t": False}),
    ("classify", _classify(element={"D": True})),
    # integral floats count as integers, others do not
    ("classify", _classify(params=[3.0, 0])),
    ("verify-identities", {"samples": 2.0, "signature": [3.0, 0.0]}),
    ("verify-identities", {"samples": 0.0}),
    ("verify-identities", {"samples": 501.0}),
    ("classify", _classify(params=[2.5, -1])),
    # several unexpected keys, inserted out of sorted order
    ("algebra-info", {"family": "cr", "params": [1], "zeta": 1, "alpha": 2,
                      "Mid": 3}),
    ("flat-classify", {**_field(), "z": 0, "a": 0}),
    ("flat-classify", _field(zz=1, b=[0, 0], aa=2)),
    # several bad element values: the last one is reported
    ("classify", _classify(params=[-1, -2])),
    ("classify", _classify(element={"D": "1/x", "K_1": 0.5, "M_12": None})),
    ("flat-classify", _field(A=[[0, "x"], ["y", 0]])),
    # errors at different depths: the shallowest wins
    ("classify", _classify(params=[-1], element={"D": "x"}, extra=1)),
    ("flat-classify", {"field": {"a": ["q"], "A": [[0]], "s": 0, "b": [0],
                                 "signature": [1]}, "point": "0"}),
    ("flat-classify", _field(signature=[2, -1], s=[])),
    # one node failing several keywords; required before additionalProperties
    ("classify", {"params": [3, 0], "extra": 1}),
    ("classify", {"family": "so", "params": [], "element": []}),
    ("verify-identities", {"signature": [-1, -1, -1]}),
    # bracket notation in paths, and non-objects at the root
    ("classify", _classify(element={"a'b": "x", "1/x": "y"})),
    ("classify", []),
    ("verify-identities", None),
])
def test_validate_matches_jsonschema_on_named_cases(command, payload):
    schema = schemas.BY_COMMAND[command]
    assert outcome_ours(payload, schema) == outcome_reference(payload, schema)
