"""Seeded input generator owned by the benchmark.

Everything here is plain Python over basis names, so a change to the
program cannot change the load; the program only sees the elements and
requests built from it. `parahol.sampling` is deliberately not used.
Planted instances are the one exception: they are a grade-0 element moved
by a lattice conjugation, which needs the algebra's `conjugate_by_exp`.
"""

import random
from fractions import Fraction

# family -> name of the grading element, which is also the default scale
GRADING_ELEMENT = {"conformal": "D", "cr": "E"}

CORNERS = ("generic", "zero_grade0", "grade0_in_kernel", "zero_positive")


def rng_for(seed, *labels):
    """Independent stream per (seed, label...) so workloads do not share draws."""
    return random.Random(":".join([str(seed), *map(str, labels)]))


def basis(family, params):
    """[(name, grade)] in the program's basis order for a built-in family."""
    if family == "conformal":
        p, q = params
        n = p + q
        out = [(f"P_{a}", -1) for a in range(1, n + 1)]
        out.append(("D", 0))
        out += [(f"M_{a}{b}", 0) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        out += [(f"K_{a}", 1) for a in range(1, n + 1)]
        return out
    (n,) = params
    out = [("T", -2)] + [(f"P_{a}", -1) for a in range(1, 2 * n + 1)]
    out.append(("E", 0))
    out += [(f"J_{a}", 0) for a in range(1, n + 1)]
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            out += [(f"U_{a}{b}", 0), (f"V_{a}{b}", 0)]
    out += [(f"K_{a}", 1) for a in range(1, 2 * n + 1)]
    out.append(("S", 2))
    return out


def depth(family):
    return 1 if family == "conformal" else 2


def rational(rng, max_abs=9, denominators=(1, 2, 3)):
    return Fraction(rng.randint(-max_abs, max_abs), rng.choice(denominators))


def corner_element(rng, family, params, corner):
    """{name: Fraction} on the nonnegative part, shaped by one structural corner.

    generic: every grade 0..k; zero_grade0: no grade-0 part;
    grade0_in_kernel: the grading element's coefficient is zero, which puts
    the grade-0 part in Ker(lambda') for the default scale (the grading
    element is Killing-orthogonal to the rest of grade 0);
    zero_positive: grade 0 only.
    """
    k = depth(family)
    e_name = GRADING_ELEMENT[family]
    out = {}
    for name, grade in basis(family, params):
        if grade < 0 or (corner == "zero_grade0" and grade == 0):
            continue
        if corner == "zero_positive" and grade > 0:
            continue
        if corner == "grade0_in_kernel" and name == e_name:
            continue
        if grade <= k:
            out[name] = rational(rng)
    return out


def planted_parts(rng, family, params):
    """(x0, z): a grade-0 element, half of them in Ker(lambda'), and a
    positive-part point with coordinates in {-1, 0, 1}."""
    e_name = GRADING_ELEMENT[family]
    in_kernel = rng.randrange(2) == 1
    x0, z = {}, {}
    for name, grade in basis(family, params):
        if grade == 0 and not (in_kernel and name == e_name):
            x0[name] = rational(rng, max_abs=4)
        elif grade > 0:
            z[name] = Fraction(rng.randint(-1, 1))
    return x0, z


def instance_kinds(family, count):
    """Fixed kind schedule: corners in rotation; depth 2 alternates planted."""
    kinds = []
    corner = 0
    for i in range(count):
        if depth(family) == 2 and i % 2 == 0:
            kinds.append("planted")
        else:
            kinds.append(CORNERS[corner % len(CORNERS)])
            corner += 1
    return kinds


def instances(algebra, conjugate_by_exp, seed, count):
    """`count` (kind, element) pairs for one built algebra."""
    family, params = algebra.family, tuple(algebra.params)
    rng = rng_for(seed, "instances", family, *params)
    out = []
    for kind in instance_kinds(family, count):
        if kind == "planted":
            x0, z = planted_parts(rng, family, params)
            x = conjugate_by_exp(algebra.element(z), algebra.element(x0))
        else:
            x = algebra.element(corner_element(rng, family, params, kind))
        out.append((kind, x))
    return out


# -- CLI request stream ----------------------------------------------------------

CLI_CLASSIFY_ALGEBRAS = (("conformal", (3, 0)), ("conformal", (2, 1)), ("cr", (1,)))
FLAT_SIGNATURES = ((3, 0), (2, 1))

# one block of 20 requests: 14 classify (70%), 3 flat-classify (15%),
# 1 algebra-info (5%), 2 invalid (10%); the order inside a block is seeded
BLOCK = ("classify",) * 14 + ("flat-classify",) * 3 + ("algebra-info",) + ("invalid",) * 2

INVALID_KINDS = ("params_type", "missing_element", "extra_key", "negative_param",
                 "unknown_basis", "bad_rational")


def _json_rational(v):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def cli_requests(seed, count):
    """`count` CLI requests: dicts with command, body (JSON-ready) and expect."""
    rng = rng_for(seed, "cli")
    out = []
    invalid_turn = rng.randrange(len(INVALID_KINDS))
    while len(out) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        for command in block:
            if command == "classify":
                out.append(_classify_request(rng))
            elif command == "flat-classify":
                out.append(_flat_request(rng))
            elif command == "algebra-info":
                out.append({"command": "algebra-info",
                            "body": {"family": "conformal", "params": [3, 0]},
                            "expect": {"exit": 0}})
            else:
                kind = INVALID_KINDS[invalid_turn % len(INVALID_KINDS)]
                invalid_turn += 1
                out.append(_invalid_request(rng, kind))
    return out[:count]


def _classify_request(rng):
    family, params = CLI_CLASSIFY_ALGEBRAS[rng.randrange(len(CLI_CLASSIFY_ALGEBRAS))]
    corner = CORNERS[rng.randrange(len(CORNERS))]
    element = corner_element(rng, family, params, corner)
    return {"command": "classify",
            "body": {"family": family, "params": list(params),
                     "element": {k: _json_rational(v) for k, v in element.items()}},
            "expect": {"exit": 0}}


def _flat_request(rng):
    """A field with a zero at a seeded rational point, built exactly.

    X(x) = a + A x + s x + <x,x> b - 2 <b,x> x, with A skew for the metric;
    a is solved so that X(point) = 0.
    """
    p, q = FLAT_SIGNATURES[rng.randrange(len(FLAT_SIGNATURES))]
    n = p + q
    metric = [1] * p + [-1] * q
    lin = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rational(rng, max_abs=3, denominators=(1, 2))
            lin[i][j] = v
            lin[j][i] = -metric[i] * metric[j] * v
    s = rational(rng, max_abs=3, denominators=(1, 2))
    b = [rational(rng, max_abs=2, denominators=(1, 2)) for _ in range(n)]
    point = [Fraction(rng.randint(-2, 2), 2) for _ in range(n)]
    xx = sum(metric[i] * point[i] * point[i] for i in range(n))
    bx = sum(metric[i] * b[i] * point[i] for i in range(n))
    a = [-(sum(lin[i][j] * point[j] for j in range(n)) + s * point[i]
           + xx * b[i] - 2 * bx * point[i]) for i in range(n)]
    field = {"a": [_json_rational(v) for v in a],
             "A": [[_json_rational(v) for v in row] for row in lin],
             "s": _json_rational(s),
             "b": [_json_rational(v) for v in b],
             "signature": [p, q]}
    return {"command": "flat-classify",
            "body": {"field": field, "point": [_json_rational(v) for v in point]},
            "expect": {"exit": 0}}


def _invalid_request(rng, kind):
    """A request the CLI must refuse with exit 1 and this JSON error path."""
    family, params = CLI_CLASSIFY_ALGEBRAS[rng.randrange(len(CLI_CLASSIFY_ALGEBRAS))]
    element = {k: _json_rational(v)
               for k, v in corner_element(rng, family, params, "generic").items()}
    body = {"family": family, "params": list(params), "element": element}
    if kind == "params_type":
        body["params"] = "p,q"
        path = "$.params"
    elif kind == "missing_element":
        del body["element"]
        path = "$"
    elif kind == "extra_key":
        body["scale"] = "E"
        path = "$"
    elif kind == "negative_param":
        body["params"] = [-1] + list(params)[1:]
        path = "$.params[0]"
    elif kind == "unknown_basis":
        body["element"]["Q_9"] = 1
        path = "$.element.Q_9"
    else:
        name = next(iter(element))
        body["element"][name] = "1/x"
        path = f"$.element.{name}"
    return {"command": "classify", "body": body,
            "expect": {"exit": 1, "path": path}}
