"""JSON encoding/decoding of exact rationals and named elements.

Integers stay JSON integers; non-integral rationals are "p/q" strings so
reports remain exact and byte-deterministic. Parsing, of requests and of
library arguments, accepts Fractions unchanged, integers and strings of
RATIONAL_PATTERN, the request schemas' grammar: "p" or "p/q" in decimal
digits with an optional leading minus. Parse errors carry a `path`
attribute with the offending field locus for the CLI's error reports;
`at_path` gives the same locus to errors raised while a request field is
being used.
"""

import re
from contextlib import contextmanager
from fractions import Fraction

from .errors import DomainError, ParaholError

# `$(?!\n)` ends the string in Python's `re.search` as in JSON Schema's
# ECMA-262 `pattern`; Python's bare `$` also matches before a final newline
RATIONAL_PATTERN = r"^-?[0-9]+(/[0-9]+)?$(?!\n)"


def fraction_to_json(v):
    """A Fraction as a JSON integer when integral, else a "p/q" string."""
    return int(v) if v.denominator == 1 else str(v)


def _domain_error(message, path):
    err = DomainError(message)
    err.path = f"$.{path}"
    return err


@contextmanager
def at_path(path):
    """Give a domain error raised in the block the locus `$.path`.

    An error that already names a (more precise) locus keeps it.
    """
    try:
        yield
    except (ParaholError, ValueError) as exc:
        if getattr(exc, "path", None) is None:
            exc.path = f"$.{path}"
        raise


def fraction_from_json(v, path="value"):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise _domain_error(f"{path}: expected a rational, got a boolean", path)
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if re.search(RATIONAL_PATTERN, v):
            try:
                return Fraction(v)
            except ZeroDivisionError:
                pass
        raise _domain_error(f"{path}: not a rational: {v!r}", path)
    raise _domain_error(f"{path}: expected an integer or 'p/q' string", path)


def parse_named_element(algebra, mapping, path="element"):
    """Element from {basis name: coefficient}; unknown names are an error."""
    named = {}
    for name, value in mapping.items():
        if name not in algebra.basis_names:
            raise _domain_error(
                f"{path}.{name}: unknown basis vector for "
                f"{algebra.family}{list(algebra.params)}",
                f"{path}.{name}",
            )
        named[name] = fraction_from_json(value, path=f"{path}.{name}")
    return algebra.element(named)


def element_to_named_json(element, grades=None):
    """Full named coefficient table (zeros included) over the given grades.

    Fixed key set and order make reports byte-deterministic.
    """
    alg = element.algebra
    indices = (range(alg.dim) if grades is None else
               [i for g in grades for i in alg.indices_of_grade(g)])
    coeffs = element.coeffs
    return {alg.basis_names[i]: fraction_to_json(coeffs[i]) for i in sorted(indices)}


def vector_from_json(values, path="point"):
    return [fraction_from_json(v, path=f"{path}[{i}]")
            for i, v in enumerate(values)]
