"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here and match the library's documented
contract; nothing is calibrated after the fact.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from parahol.classify import (
    HolonomyDatum,
    Verdict,
    classify,
    conjugate_by_exp,
)
from parahol.families import build_conformal, build_cr
from parahol.identities import TOLERANCES, run_flat_identity_suite
from parahol.oracle import brute_force_oracle
from parahol.sampling import (
    comparison_instances,
    random_instance,
    random_positive_element,
)
from parahol.scales import default_scale

REPO = Path(__file__).resolve().parent.parent

_so41 = None
_su21 = None


def so41():
    global _so41
    if _so41 is None:
        _so41 = build_conformal(3, 0)
    return _so41


def su21():
    global _su21
    if _su21 is None:
        _su21 = build_cr(1)
    return _su21


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_algebra_axioms():
    """Exact Jacobi/antisymmetry/grading/nondegeneracy on all constructors, < 30 s."""
    start = time.monotonic()
    built = []
    for p, q in [(2, 0), (3, 0), (1, 1), (2, 1)]:
        built.append(build_conformal(p, q))
    built.append(build_cr(1))
    for algebra in built:
        # construction validates; re-run to make this test self-contained
        algebra.validate()
    elapsed = time.monotonic() - start
    report("algebra-axioms", elapsed < 30.0, f"{elapsed:.2f}s, residuals exactly 0")


def test_grading_element():
    """grading_element recovers the designated basis vector; B(E,E) matches
    the eigenvalue count exactly."""
    ok = True
    for p, q in [(2, 0), (3, 0), (1, 1), (2, 1)]:
        algebra = build_conformal(p, q)
        e = algebra.grading_element
        ok = ok and e == algebra.basis_element("D")
        ok = ok and algebra.killing_form(e, e) == 2 * (p + q)
    cr = su21()
    e = cr.grading_element
    ok = ok and e == cr.basis_element("E")
    ok = ok and cr.killing_form(e, e) == 12
    by_count = sum(g * g * len(cr.indices_of_grade(g)) for g in range(-2, 3))
    ok = ok and by_count == 12
    report("grading-element", ok)


def test_dictionary_vs_oracle_depth_one():
    """500 seeded random elements of the nonnegative part of so(4,1):
    classifier and rank-certificate oracle agree 500/500, witnesses verify
    exactly, runtime < 10 s."""
    algebra = so41()
    scale = default_scale(algebra)
    start = time.monotonic()
    elements = comparison_instances(algebra, scale, 500, seed=42)
    agreements = 0
    for x in elements:
        datum = HolonomyDatum(algebra, x, scale)
        ours = classify(datum)
        oracle = brute_force_oracle(datum, grid_steps=0)
        assert oracle.decided
        if oracle.classification.verdict is ours.verdict:
            agreements += 1
        if ours.witness is not None:
            conj = (conjugate_by_exp(ours.witness, x)
                    if not ours.witness.is_zero else x)
            assert conj.component(1).is_zero
            if ours.verdict is Verdict.INESSENTIAL:
                assert scale.lambda_prime_of_grade0(conj) == 0
    elapsed = time.monotonic() - start
    report("dictionary-vs-oracle-k1",
           agreements == 500 and elapsed < 10.0,
           f"{agreements}/500 in {elapsed:.2f}s")


def test_dictionary_vs_oracle_depth_two():
    """200 seeded su(2,1) instances: agreement on every oracle-certified
    instance; cokernel <= 1 instances (all of them here) decided exactly."""
    algebra = su21()
    scale = default_scale(algebra)
    elements = comparison_instances(algebra, scale, 200, seed=42)
    certified = agreements = 0
    all_exact = True
    for x in elements:
        datum = HolonomyDatum(algebra, x, scale)
        ours = classify(datum)
        all_exact = all_exact and ours.to_json_dict()["exact"] is True
        oracle = brute_force_oracle(datum, grid_radius=Fraction(1), grid_steps=1)
        if not oracle.decided:
            continue
        certified += 1
        if oracle.classification.verdict is ours.verdict:
            agreements += 1
    report("dictionary-vs-oracle-k2",
           certified > 0 and agreements == certified and all_exact,
           f"{agreements}/{certified} certified agree, all exact={all_exact}")


def test_conformal_catalog():
    """Rotation/dilation/special/rotation-plus-special verdicts, all matching
    the brute-force oracle."""
    algebra = so41()
    cases = [
        ({"M_12": 1}, Verdict.INESSENTIAL, None),
        ({"D": 1}, Verdict.WEYL_REDUCIBLE, "lambda_nonzero"),
        ({"K_1": 1}, Verdict.ESSENTIAL, "degree_d_unkillable"),
        ({"M_12": 1, "K_1": 1}, Verdict.INESSENTIAL, None),
    ]
    ok = True
    for named, verdict, cert_kind in cases:
        x = algebra.element(named)
        datum = HolonomyDatum(algebra, x)
        result = classify(datum)
        ok = ok and result.verdict is verdict
        if cert_kind is None:
            ok = ok and result.certificate is None
            conj = (conjugate_by_exp(result.witness, x)
                    if not result.witness.is_zero else x)
            ok = ok and conj.component(1).is_zero
        else:
            ok = ok and cert_kind in json.dumps(result.to_json_dict()["certificate"])
        oracle = brute_force_oracle(datum, grid_steps=0)
        ok = ok and oracle.classification.verdict is result.verdict
    # dilation is reported essential, rotation-plus-special is not
    ok = ok and classify(HolonomyDatum(algebra, algebra.element({"D": 1}))).is_essential
    report("conformal-catalog", ok)


def test_flat_identities():
    """20 random fields/points: adjoint derivative < 1e-6, curvature exactly
    zero, equivariance < 1e-6 at |t| = 0.1, Weyl section < 1e-6 where it
    applies."""
    suite = run_flat_identity_suite(p=3, q=0, samples=20, seed=42, t=0.1,
                                    algebra=so41())
    res = suite["max_residuals"]
    ok = (suite["pass"]
          and res["conformal_killing"] < TOLERANCES["conformal_killing"]
          and res["tractor_derivative"] < TOLERANCES["tractor_derivative"]
          and res["curvature"] == 0.0
          and res["equivariance"] < TOLERANCES["equivariance"]
          and res["weyl_section"] < TOLERANCES["weyl_section"]
          and suite["weyl_section_cases"] > 0)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in res.items())
    report("flat-identities", ok, detail)


def test_conjugation_invariance():
    """50 instances x 100 conjugations: verdict unchanged, grade-0
    functional exactly invariant."""
    algebra = so41()
    scale = default_scale(algebra)
    rng = random.Random(42)
    ok = True
    for _ in range(50):
        x = random_instance(algebra, scale, rng)
        base = classify(HolonomyDatum(algebra, x, scale))
        ell = scale.lambda_prime_of_grade0(x)
        for _ in range(100):
            z = random_positive_element(algebra, rng, max_abs=5)
            moved = conjugate_by_exp(z, x)
            ok = ok and scale.lambda_prime_of_grade0(moved) == ell
            result = classify(HolonomyDatum(algebra, moved, scale))
            ok = ok and result.verdict is base.verdict
        if not ok:
            break
    report("conjugation-invariance", ok, "50x100 conjugations")


def test_cli_determinism():
    """Identical requests + seeds give byte-identical JSON across runs."""
    def run(command, payload, *flags):
        proc = subprocess.run(
            [sys.executable, "-m", "parahol.cli", command, *flags],
            input=json.dumps(payload), capture_output=True, text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout

    requests = [
        ("classify", {"family": "conformal", "params": [3, 0],
                      "element": {"D": 1, "K_1": "1/3"}}, ()),
        ("oracle-compare", {"family": "conformal", "params": [3, 0]},
         ("--instances", "50", "--seed", "42", "--grid-steps", "0")),
        ("oracle-compare", {"family": "cr", "params": [1]},
         ("--instances", "40", "--seed", "7")),
        ("verify-identities", {"samples": 5}, ("--seed", "42")),
    ]
    ok = True
    for command, payload, flags in requests:
        first = run(command, payload, *flags)
        second = run(command, payload, *flags)
        ok = ok and first == second and first.strip()
    report("cli-determinism", bool(ok), f"{len(requests)} request pairs")
