"""Correctness checks on every op's output. Each returns None or a reason.

They run outside the timed interval and use the program's own exact
`conjugate_by_exp` and rank oracle as the independent references.
"""

import json
from fractions import Fraction

from gen import GRADING_ELEMENT, basis


def closed_form(family, params):
    """(dim, grade dims from -k to k, B(E, E)) of a built-in family."""
    if family == "conformal":
        n = sum(params)
        return (n + 2) * (n + 1) // 2, (n, 1 + n * (n - 1) // 2, n), 2 * n
    (n,) = params
    return (n + 1) * (n + 3), (1, 2 * n, n * n + 1, 2 * n, 1), 4 * (n + 2)


def check_algebra(algebra):
    family, params = algebra.family, tuple(algebra.params)
    dim, grade_dims, bee = closed_form(family, params)
    if algebra.dim != dim:
        return f"dim {algebra.dim} != {dim}"
    if tuple(algebra.grade_dims()) != grade_dims:
        return f"grade dims {algebra.grade_dims()} != {grade_dims}"
    e = algebra.grading_element
    if e != algebra.basis_element(GRADING_ELEMENT[family]):
        return "grading element is not the named basis vector"
    if algebra.killing_form(e, e) != bee:
        return f"B(E,E) = {algebra.killing_form(e, e)} != {bee}"
    return None


def _kills(parahol, witness, x):
    """Whether exp(ad witness) moves x into grade 0, checked exactly."""
    if any(g <= 0 for g in witness.grades()):
        return False
    conj = parahol.conjugate_by_exp(witness, x)
    return all(g == 0 for g in conj.grades())


def check_verdict(parahol, datum, verdict, witness, planted=False, rank_oracle=True):
    """Witness, lambda' sign and, at depth 1, agreement with the rank oracle.

    `verdict` is "Inessential", "WeylReducible" or "Essential".
    """
    ell = datum.scale.lambda_prime_of_grade0(datum.x)
    if verdict == "Essential":
        if witness is not None:
            return "Essential verdict carries a witness"
        if planted:
            return "planted instance classified Essential"
    else:
        if witness is None:
            return f"{verdict} without a witness"
        if not _kills(parahol, witness, datum.x):
            return "witness does not conjugate into grade 0"
        if (ell == 0) != (verdict == "Inessential"):
            return f"{verdict} with lambda' = {ell}"
    if rank_oracle and datum.algebra.k == 1:
        report = parahol.brute_force_oracle(datum, grid_steps=0)
        if report.classification.verdict.value != verdict:
            return f"rank oracle says {report.classification.verdict.value}, classify {verdict}"
    return None


def report_verdict(body):
    """Three-way verdict from a CLI report's verdict and weyl_reducible fields."""
    if body["weyl_reducible"]:
        return "WeylReducible"
    return body["verdict"]


def _named(algebra, mapping):
    return algebra.element({k: Fraction(v) for k, v in mapping.items()})


def check_cli(parahol, algebras, request, code, stdout):
    """Exit code, JSON body and, on success, a verified report."""
    expect = request["expect"]
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    try:
        body = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if expect["exit"] == 1:
        error = body.get("error") if isinstance(body, dict) else None
        if not isinstance(error, dict) or error.get("path") != expect["path"]:
            return f"error path {error and error.get('path')!r}, expected {expect['path']!r}"
        return None
    command = request["command"]
    req = request["body"]
    if command == "algebra-info":
        return _check_info(req, body)
    if command == "classify":
        algebra = algebras[(req["family"], tuple(req["params"]))]
        x = _named(algebra, req["element"])
        if _named(algebra, body["element"]) != x:
            return "report element differs from the request"
        witness = None if body["witness"] is None else _named(algebra, body["witness"])
        datum = parahol.HolonomyDatum(algebra, x)
        return check_verdict(parahol, datum, report_verdict(body), witness)
    field = parahol.FlatConformalField.from_json_dict(req["field"])
    point = [Fraction(v) for v in req["point"]]
    if not body["singular"]:
        return "seeded singular point reported non-singular"
    datum = parahol.holonomy_at(field, point)
    witness = (None if body["witness"] is None else
               field.algebra.element_from_coeffs([Fraction(v) for v in body["witness"]]))
    return check_verdict(parahol, datum, report_verdict(body), witness)


def _check_info(req, body):
    family, params = req["family"], tuple(req["params"])
    dim, grade_dims, bee = closed_form(family, params)
    k = (len(grade_dims) - 1) // 2
    expected = {
        "dim": dim, "k": k,
        "grade_dims": {str(g): d for g, d in zip(range(-k, k + 1), grade_dims)},
        "killing_of_grading_element": bee,
        "kernel_dim": grade_dims[k] - 1,
        "basis": [name for name, _ in basis(family, params)],
    }
    for key, value in expected.items():
        if body.get(key) != value:
            return f"algebra-info {key} = {body.get(key)!r}, expected {value!r}"
    return None
