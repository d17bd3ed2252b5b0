"""`schemas.validate` against jsonschema: same message and JSON path.

The CLI validates requests with `schemas.validate`; jsonschema is a test
dependency only, used here as the reference. The named cases carry
jsonschema 4.26.0's answer as a pin, so they run without jsonschema, and
also compare the live answer with the pin where it is installed. The
Hypothesis comparisons need jsonschema and skip without it.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parahol import schemas
from parahol.errors import SchemaViolation

try:
    import jsonschema
except ImportError:
    jsonschema = None


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


@pytest.mark.skipif(jsonschema is None, reason="jsonschema is not installed")
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


# (command, payload, pin): the pin is jsonschema 4.26.0's (message, path)
# answer, None for a valid payload
NAMED_CASES = [
    # booleans where integers are expected
    ("classify", _classify(params=[True, 0]),
     ("True is not of type 'integer'", "$.params[0]")),
    ("verify-identities", {"samples": True},
     ("True is not of type 'integer'", "$.samples")),
    ("verify-identities", {"t": False},
     ("False is not of type 'number'", "$.t")),
    ("classify", _classify(element={"D": True}),
     ("True is not of type 'integer', 'string'", "$.element.D")),
    # integral floats count as integers, others do not
    ("classify", _classify(params=[3.0, 0]), None),
    ("verify-identities", {"samples": 2.0, "signature": [3.0, 0.0]}, None),
    ("verify-identities", {"samples": 0.0},
     ("0.0 is less than the minimum of 1", "$.samples")),
    ("verify-identities", {"samples": 501.0},
     ("501.0 is greater than the maximum of 500", "$.samples")),
    ("classify", _classify(params=[2.5, -1]),
     ("-1 is less than the minimum of 0", "$.params[1]")),
    # several unexpected keys, inserted out of sorted order
    ("algebra-info", {"family": "cr", "params": [1], "zeta": 1, "alpha": 2,
                      "Mid": 3},
     ("Additional properties are not allowed ('Mid', 'alpha', 'zeta' were "
      "unexpected)", "$")),
    ("flat-classify", {**_field(), "z": 0, "a": 0},
     ("Additional properties are not allowed ('a', 'z' were unexpected)", "$")),
    ("flat-classify", _field(zz=1, b=[0, 0], aa=2),
     ("Additional properties are not allowed ('aa', 'zz' were unexpected)",
      "$.field")),
    # several bad element values: the last one is reported
    ("classify", _classify(params=[-1, -2]),
     ("-2 is less than the minimum of 0", "$.params[1]")),
    ("classify", _classify(element={"D": "1/x", "K_1": 0.5, "M_12": None}),
     ("None is not of type 'integer', 'string'", "$.element.M_12")),
    ("flat-classify", _field(A=[[0, "x"], ["y", 0]]),
     (r"'y' does not match '^-?[0-9]+(/[0-9]+)?$(?!\\n)'", "$.field.A[1][0]")),
    # errors at different depths: the shallowest wins
    ("classify", _classify(params=[-1], element={"D": "x"}, extra=1),
     ("Additional properties are not allowed ('extra' was unexpected)", "$")),
    ("flat-classify", {"field": {"a": ["q"], "A": [[0]], "s": 0, "b": [0],
                                 "signature": [1]}, "point": "0"},
     ("'0' is not of type 'array'", "$.point")),
    ("flat-classify", _field(signature=[2, -1], s=[]),
     ("[] is not of type 'integer', 'string'", "$.field.s")),
    # one node failing several keywords; required before additionalProperties
    ("classify", {"params": [3, 0], "extra": 1},
     ("'family' is a required property", "$")),
    ("classify", {"family": "so", "params": [], "element": []},
     ("[] should be non-empty", "$.params")),
    ("verify-identities", {"signature": [-1, -1, -1]},
     ("[-1, -1, -1] is too long", "$.signature")),
    # bracket notation in paths, and non-objects at the root
    ("classify", _classify(element={"a'b": "x", "1/x": "y"}),
     (r"'x' does not match '^-?[0-9]+(/[0-9]+)?$(?!\\n)'", r"$.element['a\'b']")),
    ("classify", [], ("[] is not of type 'object'", "$")),
    ("verify-identities", None, ("None is not of type 'object'", "$")),
]


# each case's id as pytest names a (command, payload) pair: a payload by its
# position, None by itself
@pytest.mark.parametrize(
    "command,payload,pin", NAMED_CASES,
    ids=[f"{command}-{'None' if payload is None else f'payload{i}'}"
         for i, (command, payload, _) in enumerate(NAMED_CASES)])
def test_validate_matches_jsonschema_on_named_cases(command, payload, pin):
    schema = schemas.BY_COMMAND[command]
    assert outcome_ours(payload, schema) == pin
    if jsonschema is not None:
        assert outcome_reference(payload, schema) == pin
