"""Command-line front door.

Commands: algebra-info, algebra-verify, classify, flat-classify,
verify-identities, oracle-compare. Request bodies are JSON on stdin or via
--file; reports go to stdout as JSON (default) or text. Exit status: 0 on
success, 1 on domain/schema errors, 2 on internal invariant violations.

All randomness flows through --seed, so identical requests with identical
seeds produce byte-identical JSON reports. The flat model, the identity
suite, the oracle and the instance sampler are imported by the commands that
use them, so that other requests neither compile nor load them.
"""

import argparse
import json
import sys

from . import schemas
from .classify import HolonomyDatum, classify
from .errors import (
    DomainError,
    OracleRefusedError,
    ParaholError,
    SchemaViolation,
    StructureError,
)
from .families import build
from .jsonio import (
    at_path,
    element_to_named_json,
    fraction_from_json,
    fraction_to_json,
    parse_named_element,
    vector_from_json,
)
from .scales import default_scale

DEFAULT_SEED = 42

_DOMAIN_ERRORS = (ParaholError, ValueError, KeyError)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = _read_payload(args)
        schemas.validate(payload, schemas.BY_COMMAND[args.command])
        report = _dispatch(args.command, payload, args)
    except SchemaViolation as exc:
        _emit_error(args, f"schema violation: {exc.message}", exc.json_path)
        return 1
    except json.JSONDecodeError as exc:
        _emit_error(args, f"request is not valid JSON: {exc}", "$")
        return 1
    except StructureError as exc:
        _emit_error(args, f"internal invariant violation: {exc}", None)
        return 2
    except _DOMAIN_ERRORS as exc:
        _emit_error(args, str(exc), getattr(exc, "path", None))
        return 1
    except AssertionError as exc:
        _emit_error(args, f"internal invariant violation: {exc}", None)
        return 2
    _emit(args, report)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="parahol",
        description="graded Lie algebras and the holonomy essentiality dictionary",
    )
    parser.add_argument("command", choices=sorted(schemas.BY_COMMAND))
    parser.add_argument("--file", help="read the JSON request body from this file")
    parser.add_argument("--output", choices=["json", "text"], default="json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"seed for random instances (default {DEFAULT_SEED})")
    parser.add_argument("--instances", type=int, default=100,
                        help="instance count for oracle-compare")
    parser.add_argument("--grid-radius", default="1",
                        help="lattice radius for the brute-force oracle (nonzero rational)")
    parser.add_argument("--grid-steps", type=int, default=1,
                        help="lattice steps per half-axis for the brute-force oracle")
    return parser


def _read_payload(args):
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif not sys.stdin.isatty():
        text = sys.stdin.read()
    else:
        text = ""
    text = text.strip()
    if not text:
        return {}
    return json.loads(text)


def _dispatch(command, payload, args):
    if command == "algebra-info":
        return _algebra_info(payload)
    if command == "algebra-verify":
        return _algebra_verify(payload)
    if command == "classify":
        return _classify(payload)
    if command == "flat-classify":
        return _flat_classify(payload)
    if command == "verify-identities":
        return _verify_identities(payload, args)
    if command == "oracle-compare":
        return _oracle_compare(payload, args)
    raise AssertionError(f"unhandled command {command}")


def _build(payload):
    with at_path("params"):
        return build(payload["family"], payload["params"])


def _algebra_info(payload):
    algebra = _build(payload)
    e = algebra.grading_element
    return {
        "command": "algebra-info",
        "family": algebra.family,
        "params": list(algebra.params),
        "dim": algebra.dim,
        "k": algebra.k,
        "grade_dims": {str(g): len(algebra.indices_of_grade(g))
                       for g in range(-algebra.k, algebra.k + 1)},
        "killing_of_grading_element": fraction_to_json(
            algebra.killing_form(e, e)),
        # Ker(lambda') is a hyperplane of g_0 at every scale c·E, since
        # lambda'(c·E) = c²·B(E, E) = c²·Σ_i i²·dim g_i is nonzero
        "kernel_dim": len(algebra.indices_of_grade(0)) - 1,
        "basis": list(algebra.basis_names),
    }


def _algebra_verify(payload):
    algebra = _build(payload)
    # "exact" for antisymmetry and jacobi holds by construction: the build
    # reconstructed every matrix bracket exactly from its coordinates in a
    # linearly independent basis, so the table is that of a matrix Lie
    # algebra. validate() re-runs the other three checks so that the
    # report is a statement about this run.
    algebra.validate()
    return {
        "command": "algebra-verify",
        "family": algebra.family,
        "params": list(algebra.params),
        "checks": {
            "antisymmetry": "exact",
            "jacobi": "exact",
            "grading_additivity": "exact",
            "generated_by_grade_minus_one": "exact",
            "killing_nondegenerate": "exact",
        },
        "pass": True,
    }


def _classify(payload):
    algebra = _build(payload)
    element = parse_named_element(algebra, payload["element"])
    with at_path("element"):
        datum = HolonomyDatum(algebra, element)
    result = classify(datum)
    body = result.to_json_dict()
    witness = result.witness
    return {
        "command": "classify",
        "family": algebra.family,
        "params": list(algebra.params),
        "element": element_to_named_json(element,
                                         grades=range(0, algebra.k + 1)),
        "verdict": body["verdict"],
        "weyl_reducible": body["weyl_reducible"],
        "witness": (None if witness is None else
                    element_to_named_json(witness,
                                          grades=range(1, algebra.k + 1))),
        "certificate": body["certificate"],
        "exact": body["exact"],
        "residual": body["residual"],
    }


def _flat_classify(payload):
    from .flat import FlatConformalField, classify_at

    with at_path("field.signature"):
        algebra = build("conformal", payload["field"]["signature"])
    field = FlatConformalField.from_json_dict(payload["field"], algebra=algebra)
    with at_path("point"):
        point = vector_from_json(payload["point"])
        if len(point) != field.n:
            raise ParaholError(
                f"point has dimension {len(point)}, field expects {field.n}")
    result = classify_at(field, point)
    return {
        "command": "flat-classify",
        "field": field.to_json_dict(),
        "point": [fraction_to_json(v) for v in point],
        **result.to_json_dict(),
    }


def _verify_identities(payload, args):
    from .identities import run_flat_identity_suite

    # the schema counts an integral float such as 4.0 as an integer
    samples = int(payload.get("samples", 20))
    t = payload.get("t", 0.1)
    with at_path("signature"):
        algebra = build("conformal", payload.get("signature", [3, 0]))
    p, q = algebra.params
    # the signature is built above and the schema bounds the sample count,
    # so a domain error in the suite (a flow leaving the chart) is due to t
    with at_path("t"):
        residuals = run_flat_identity_suite(p=p, q=q, samples=samples,
                                            seed=args.seed, t=t, algebra=algebra)
    return {"command": "verify-identities", **residuals}


def _oracle_compare(payload, args):
    from .oracle import brute_force_oracle, check_search_budget
    from .sampling import comparison_instances

    if args.instances < 1:
        raise _flag_error("--instances", "must be at least 1")
    if args.grid_steps < 0:
        raise _flag_error("--grid-steps", "must be nonnegative")
    # the request grammar of every rational; the report prints str(radius),
    # which keeps "1" a string where fraction_to_json would give 1
    try:
        radius = fraction_from_json(args.grid_radius)
    except DomainError:
        raise _flag_error("--grid-radius", "must be a rational") from None
    if radius == 0:
        raise _flag_error("--grid-radius", "must be nonzero")
    algebra = _build(payload)
    if args.grid_steps == 0 and algebra.k > 1:
        raise _flag_error("--grid-steps", "must be at least 1 on a depth-2 "
                          "family, whose planted instances lie on the lattice")
    try:
        check_search_budget(algebra, args.grid_steps)
    except OracleRefusedError as exc:
        exc.path = "$.params" if exc.argument == "algebra" else "--grid-steps"
        raise
    scale = default_scale(algebra)
    elements = comparison_instances(algebra, scale, args.instances,
                                    args.seed, radius, args.grid_steps)
    certified = 0
    agreements = 0
    disagreements = []
    for index, element in enumerate(elements):
        datum = HolonomyDatum(algebra, element, scale)
        ours = classify(datum)
        report = brute_force_oracle(datum, grid_radius=radius,
                                    grid_steps=args.grid_steps)
        if not report.decided:
            continue
        certified += 1
        if report.classification.verdict is ours.verdict:
            agreements += 1
        else:
            disagreements.append(index)
    return {
        "command": "oracle-compare",
        "family": algebra.family,
        "params": list(algebra.params),
        "instances": args.instances,
        "seed": args.seed,
        "grid_radius": str(radius),
        "grid_steps": args.grid_steps,
        "certified": certified,
        "agreements": agreements,
        "disagreements": disagreements,
        "agreement": f"{agreements}/{certified}",
        "all_agree": agreements == certified,
    }


def _flag_error(flag, message):
    err = ParaholError(f"{flag}: {message}")
    err.path = flag
    return err


def _emit(args, report):
    if args.output == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        for line in _render_text(report):
            sys.stdout.write(line + "\n")


def _render_text(report, prefix=""):
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_text(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _emit_error(args, message, path):
    doc = {"error": {"message": message, "path": path}}
    if args.output == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        sys.stdout.write(f"error: {message}" +
                         (f" (at {path})" if path else "") + "\n")


if __name__ == "__main__":
    sys.exit(main())
