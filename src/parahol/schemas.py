"""JSON request schemas, one per CLI command, and their validator.

The same dicts are shipped as files under docs/schemas/; a test pins the
two copies together.

`validate` implements the draft 2020-12 keywords these schemas use and no
others: `type`, `enum` (of strings), `pattern`, `items` (a schema),
`minItems`, `maxItems`, `minimum`, `maximum`, `properties`, `required` and
`additionalProperties` (a boolean or a schema). `$schema` and `title` are
annotations and are skipped. Any other keyword raises NotImplementedError,
so no part of a schema goes unchecked by accident.
"""

import numbers
import re

from .errors import SchemaViolation

_RATIONAL = {"type": ["integer", "string"], "pattern": "^-?[0-9]+(/[0-9]+)?$"}

_FAMILY_FIELDS = {
    "family": {"enum": ["conformal", "cr"]},
    "params": {
        "type": "array",
        "items": {"type": "integer", "minimum": 0},
        "minItems": 1,
        "maxItems": 2,
    },
}

_NAMED_ELEMENT = {
    "type": "object",
    "additionalProperties": _RATIONAL,
}

_ALGEBRA_REQUEST = {
    "type": "object",
    "properties": dict(_FAMILY_FIELDS),
    "required": ["family", "params"],
    "additionalProperties": False,
}

CLASSIFY = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "classify request",
    "type": "object",
    "properties": {
        **_FAMILY_FIELDS,
        "element": _NAMED_ELEMENT,
    },
    "required": ["family", "params", "element"],
    "additionalProperties": False,
}

ALGEBRA_INFO = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "algebra-info request",
    **_ALGEBRA_REQUEST,
}

ALGEBRA_VERIFY = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "algebra-verify request",
    **_ALGEBRA_REQUEST,
}

FLAT_CLASSIFY = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "flat-classify request",
    "type": "object",
    "properties": {
        "field": {
            "type": "object",
            "properties": {
                "a": {"type": "array", "items": _RATIONAL},
                "A": {"type": "array",
                      "items": {"type": "array", "items": _RATIONAL}},
                "s": _RATIONAL,
                "b": {"type": "array", "items": _RATIONAL},
                "signature": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
            "required": ["a", "A", "s", "b", "signature"],
            "additionalProperties": False,
        },
        "point": {"type": "array", "items": _RATIONAL},
    },
    "required": ["field", "point"],
    "additionalProperties": False,
}

VERIFY_IDENTITIES = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "verify-identities request",
    "type": "object",
    "properties": {
        "signature": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 2,
            "maxItems": 2,
        },
        "samples": {"type": "integer", "minimum": 1, "maximum": 500},
        "t": {"type": "number"},
    },
    "additionalProperties": False,
}

ORACLE_COMPARE = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "oracle-compare request",
    **_ALGEBRA_REQUEST,
}

BY_COMMAND = {
    "algebra-info": ALGEBRA_INFO,
    "algebra-verify": ALGEBRA_VERIFY,
    "classify": CLASSIFY,
    "flat-classify": FLAT_CLASSIFY,
    "verify-identities": VERIFY_IDENTITIES,
    "oracle-compare": ORACLE_COMPARE,
}


# every keyword `validate` implements; `$schema` and `title` are annotations
KEYWORDS = frozenset({
    "$schema", "title", "type", "enum", "pattern", "items", "minItems",
    "maxItems", "minimum", "maximum", "properties", "required",
    "additionalProperties",
})

# draft 2020-12 types; an integral float counts as an integer, a boolean
# as neither an integer nor a number
_TYPES = {
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "null": lambda v: v is None,
    "number": lambda v: not isinstance(v, bool) and isinstance(v, numbers.Number),
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
}

# a property name that a JSON path may write as `.name`
_PLAIN_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def validate(payload, schema):
    """Raise SchemaViolation unless `payload` matches `schema`.

    The violation carries the message and JSON path that
    `jsonschema.validate` (4.26) reports. Of all errors, its `best_match`
    keeps the first one with the greatest key (-depth, path, not
    type-matched): the shallowest error, then the greatest path among
    equally shallow ones. With these keywords every node of the payload
    is checked against one subschema only, so errors on one path agree on
    the type match, and the earliest in schema order wins.
    """
    _check_keywords(schema)
    best = None
    for path, message in _errors(payload, schema, ()):
        if best is None or (-len(path), path) > (-len(best[0]), best[0]):
            best = path, message
    if best is not None:
        raise SchemaViolation(best[1], _json_path(best[0]))


def _subschemas(keyword, arg):
    if keyword == "properties":
        return arg.values()
    if keyword == "items" or keyword == "additionalProperties" and not isinstance(arg, bool):
        return (arg,)
    return ()


def _check_keywords(schema):
    if not isinstance(schema, dict):
        raise NotImplementedError(f"subschema {schema!r} is not an object")
    for keyword, arg in schema.items():
        if keyword not in KEYWORDS:
            raise NotImplementedError(f"schema keyword {keyword!r} is not supported")
        elif keyword == "enum" and not all(isinstance(v, str) for v in arg):
            raise NotImplementedError("only enums of strings are supported")
        elif keyword == "type" and not all(t in _TYPES for t in _type_names(arg)):
            raise NotImplementedError(f"unknown type in {arg!r}")
        for sub in _subschemas(keyword, arg):
            _check_keywords(sub)


def _errors(value, schema, path):
    """(path, message) of each error, in jsonschema's order: schema
    keywords in order, properties in schema order, items by index."""
    for keyword, arg in schema.items():
        if keyword == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(value[name], sub, path + (name,))
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _errors(item, arg, path + (i,))
        elif keyword == "additionalProperties" and isinstance(arg, dict):
            # jsonschema visits the extras in set order; their errors lie on
            # distinct paths, so the order does not change the best match
            if isinstance(value, dict):
                for name in _extras(value, schema):
                    yield from _errors(value[name], arg, path + (name,))
        else:
            message = _message(keyword, arg, value, schema)
            if message is not None:
                yield path, message


def _message(keyword, arg, value, schema):
    """jsonschema's message when `value` fails this keyword, else None.

    Of several missing required properties only the first is reported:
    the others share its path and key and so never win.
    """
    if keyword == "type":
        types = _type_names(arg)
        if not any(_TYPES[t](value) for t in types):
            return f"{value!r} is not of type {', '.join(map(repr, types))}"
    elif keyword == "enum":
        if value not in arg:
            return f"{value!r} is not one of {arg!r}"
    elif keyword == "pattern":
        if isinstance(value, str) and not re.search(arg, value):
            return f"{value!r} does not match {arg!r}"
    elif keyword == "minItems":
        if isinstance(value, list) and len(value) < arg:
            return f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
    elif keyword == "maxItems":
        if isinstance(value, list) and len(value) > arg:
            return f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
    elif keyword == "minimum":
        if _TYPES["number"](value) and value < arg:
            return f"{value!r} is less than the minimum of {arg!r}"
    elif keyword == "maximum":
        if _TYPES["number"](value) and value > arg:
            return f"{value!r} is greater than the maximum of {arg!r}"
    elif keyword == "required":
        if isinstance(value, dict):
            missing = [name for name in arg if name not in value]
            if missing:
                return f"{missing[0]!r} is a required property"
    elif keyword == "additionalProperties":
        if arg is False and isinstance(value, dict):
            extras = sorted(_extras(value, schema), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                return ("Additional properties are not allowed "
                        f"({', '.join(map(repr, extras))} {verb} unexpected)")
    return None


def _type_names(arg):
    return [arg] if isinstance(arg, str) else arg


def _extras(value, schema):
    properties = schema.get("properties", {})
    return [name for name in value if name not in properties]


def _json_path(path):
    out = "$"
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        elif _PLAIN_NAME.match(part):
            out += f".{part}"
        else:
            out += "['" + part.replace("\\", "\\\\").replace("'", "\\'") + "']"
    return out
