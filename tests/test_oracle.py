"""Brute-force oracle: rank certificates, lattice search, refusals."""

import ast
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from parahol import linalg, oracle
from parahol.classify import HolonomyDatum, Verdict, classify, conjugate_by_exp
from parahol.errors import DomainError, OracleRefusedError, UnsupportedDepthError
from parahol.families import build, build_conformal, build_cr
from parahol.oracle import _lattice_search, brute_force_oracle, check_search_budget
from parahol.sampling import comparison_instances, lattice_point, planted_instance
from parahol.scales import default_scale


@pytest.fixture(scope="module")
def so41():
    return build_conformal(3, 0)


@pytest.fixture(scope="module")
def su21():
    return build_cr(1)


@pytest.fixture(scope="module")
def su31():
    return build_cr(2)


def reference_lattice_search(datum, pos_idx, radius, steps):
    """The lattice search as a full exact conjugation at every point, in the
    order `_lattice_search` walks; the reference it must match exactly."""
    algebra = datum.algebra
    axis = [Fraction(i) * radius / steps for i in range(-steps, steps + 1)]
    axis.sort(key=lambda v: (abs(v), v))
    checked = 0
    for combo in itertools.product(axis, repeat=len(pos_idx)):
        checked += 1
        coeffs = [Fraction(0)] * algebra.dim
        for value, i in zip(combo, pos_idx):
            coeffs[i] = value
        z = algebra.element_from_coeffs(coeffs)
        conj = conjugate_by_exp(z, datum.x)
        if all(conj.component(g).is_zero for g in range(1, algebra.k + 1)):
            return z, checked
    return None, checked


def _assert_lattice_matches_reference(algebra, elements, steps, radius):
    scale = default_scale(algebra)
    pos_idx = check_search_budget(algebra, steps)
    witnesses = []
    for x in elements:
        datum = HolonomyDatum(algebra, x, scale)
        ours = _lattice_search(datum, pos_idx, radius, steps)
        assert ours == reference_lattice_search(datum, pos_idx, radius, steps)
        witnesses.append(ours[0])
    return witnesses


@pytest.mark.parametrize("radius", [Fraction(1), Fraction(3, 2)], ids=["1", "3/2"])
@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("family, params, count", [("cr", (1,), 12), ("cr", (2,), 8),
                                                   ("conformal", (3, 0), 12)],
                         ids=["cr1", "cr2", "conformal30"])
def test_lattice_search_matches_the_per_point_reference(family, params, count, steps, radius):
    algebra = build(family, params)
    elements = comparison_instances(algebra, default_scale(algebra), count, seed=1)
    _assert_lattice_matches_reference(algebra, elements, steps, radius)


def test_lattice_search_matches_the_reference_on_planted_depth_two_at_grid_three(su31):
    # planted cr(2) instances whose witnesses have nonzero g_1 and g_2
    # parts, so the quadratic term and the g_2 block walk both decide
    pool = comparison_instances(su31, default_scale(su31), 9, seed=1)
    elements = [pool[0], pool[8]]
    for radius in (Fraction(1), Fraction(3, 2)):
        witnesses = _assert_lattice_matches_reference(su31, elements, 3, radius)
        assert witnesses[0].grades() == [1, 2]


def test_zero_element_inessential_with_zero_witness(so41):
    report = brute_force_oracle(HolonomyDatum(so41, so41.zero()), grid_steps=1)
    assert report.decided
    assert report.classification.verdict is Verdict.INESSENTIAL
    assert report.classification.witness == so41.zero()


def test_rank_certificate_matches_classify_on_catalog(so41):
    for named in ({"D": 1}, {"M_12": 1}, {"K_1": 1}, {"M_12": 1, "K_1": 1}):
        datum = HolonomyDatum(so41, so41.element(named))
        ours = classify(datum)
        report = brute_force_oracle(datum, grid_steps=0)
        assert report.decided
        assert report.method == "rank-certificate"
        assert report.classification.verdict is ours.verdict


def test_rank_certificate_witness_verifies(so41):
    x = so41.element({"M_12": 1, "K_1": 1})
    datum = HolonomyDatum(so41, x)
    report = brute_force_oracle(datum, grid_steps=0)
    witness = report.classification.witness
    conj = conjugate_by_exp(witness, x) if not witness.is_zero else x
    assert conj.component(1).is_zero


def test_lattice_certifies_planted_depth_two(su21):
    scale = default_scale(su21)
    rng = random.Random(88)
    for _ in range(15):
        x = planted_instance(su21, scale, rng)
        datum = HolonomyDatum(su21, x, scale)
        report = brute_force_oracle(datum, grid_radius=Fraction(1), grid_steps=1)
        assert report.decided
        ours = classify(datum)
        assert report.classification.verdict is ours.verdict
        # the lattice witness itself must verify exactly
        w = report.classification.witness
        conj = conjugate_by_exp(w, x) if not w.is_zero else x
        assert conj.component(1).is_zero and conj.component(2).is_zero


def test_lattice_leaves_essential_instances_undecided(su21):
    datum = HolonomyDatum(su21, su21.element({"J_1": 1, "K_1": 1}))
    report = brute_force_oracle(datum, grid_radius=Fraction(1), grid_steps=2)
    assert not report.decided
    assert report.classification is None
    assert report.points_checked == 5 ** 3


@pytest.mark.parametrize("grid_steps", [0, 1])
def test_zero_grid_radius_is_refused(su21, grid_steps):
    # a zero radius puts every lattice point at Z = 0
    datum = HolonomyDatum(su21, su21.element({"J_1": 1, "K_1": 1}))
    with pytest.raises(DomainError, match="grid_radius must be nonzero"):
        brute_force_oracle(datum, grid_radius=0, grid_steps=grid_steps)


@pytest.mark.parametrize("radius", [0.1, True, "1.5", " 1e-1 "],
                         ids=["float", "boolean", "decimal", "padded_exponent"])
@pytest.mark.parametrize("call", [
    pytest.param(lambda datum, radius: brute_force_oracle(
        datum, grid_radius=radius, grid_steps=1), id="brute_force_oracle"),
    pytest.param(lambda datum, radius: lattice_point(
        datum.algebra, random.Random(0), radius=radius), id="lattice_point"),
])
def test_inexact_radius_is_refused(su21, call, radius):
    # 0.1 would be a binary fraction over 2^55 and True the radius 1; the
    # radius is read as every library rational is, by fraction_from_json
    datum = HolonomyDatum(su21, su21.element({"J_1": 1, "K_1": 1}))
    with pytest.raises(DomainError):
        call(datum, radius)


@pytest.mark.parametrize("steps", [0, -1])
def test_a_lattice_without_steps_is_refused(su21, steps):
    # steps = 0 divided by zero and steps = -1 chose from an empty lattice
    with pytest.raises(DomainError, match="steps must be at least 1"):
        lattice_point(su21, random.Random(0), steps=steps)
    with pytest.raises(DomainError, match="steps must be at least 1"):
        comparison_instances(su21, default_scale(su21), 2, 0, steps=steps)


@pytest.mark.parametrize("family,params", [("conformal", (3, 0)), ("cr", (1,))])
@pytest.mark.parametrize("x", ["E", "zero"])
def test_negative_grid_steps_are_refused(family, params, x):
    # a negative grid was searched as grid 0: an undecided report, or on a
    # grade-0 X a "lattice" verdict from the one point Z = 0
    algebra = build(family, list(params))
    element = algebra.grading_element if x == "E" else algebra.zero()
    datum = HolonomyDatum(algebra, element)
    with pytest.raises(DomainError, match="grid_steps must be nonnegative"):
        check_search_budget(algebra, -1)
    with pytest.raises(DomainError, match="grid_steps must be nonnegative"):
        brute_force_oracle(datum, grid_steps=-1)


def test_agreement_on_comparison_stream(su21):
    scale = default_scale(su21)
    elements = comparison_instances(su21, scale, 40, seed=7)
    certified = agreements = 0
    for x in elements:
        datum = HolonomyDatum(su21, x, scale)
        report = brute_force_oracle(datum, grid_steps=1)
        if not report.decided:
            continue
        certified += 1
        if report.classification.verdict is classify(datum).verdict:
            agreements += 1
    assert certified >= 20   # planted half guarantees a non-vacuous set
    assert agreements == certified


def test_refuses_large_positive_part():
    fake_algebra = SimpleNamespace(
        k=1, indices_of_grade=lambda g: tuple(range(9)) if g == 1 else ())
    fake = SimpleNamespace(algebra=fake_algebra, x=None, scale=None)
    with pytest.raises(OracleRefusedError):
        brute_force_oracle(fake)


def test_refuses_depth_three():
    fake = SimpleNamespace(algebra=SimpleNamespace(k=3), x=None, scale=None)
    with pytest.raises(UnsupportedDepthError):
        brute_force_oracle(fake)


def test_refuses_oversized_lattice(su21):
    datum = HolonomyDatum(su21, su21.zero())
    with pytest.raises(OracleRefusedError):
        brute_force_oracle(datum, grid_steps=80)


def test_report_serialization(so41):
    report = brute_force_oracle(HolonomyDatum(so41, so41.element({"D": 1})),
                                grid_steps=0)
    doc = report.to_json_dict()
    assert doc["decided"] is True
    assert doc["method"] == "rank-certificate"
    assert doc["classification"]["verdict"] == "Essential"


def test_oracle_reads_no_name_from_linalg():
    """The rank certificate's elimination is the oracle's own, so that it
    shares no solver with the classifier: `oracle.py` imports nothing from
    `linalg`, never names the module, and every `linalg` name that it
    reads (`ZERO`, `_dot`) is one that it defines itself."""
    with open(oracle.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    with open(linalg.__file__, encoding="utf-8") as f:
        linalg_tree = ast.parse(f.read())
    linalg_names = {node.name for node in linalg_tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    linalg_names |= {target.id for node in linalg_tree.body if isinstance(node, ast.Assign)
                     for target in node.targets}
    own = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    own |= {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "linalg" not in (node.module or "").split(".")
            assert all(alias.name != "linalg" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all("linalg" not in alias.name.split(".") for alias in node.names)
        elif isinstance(node, ast.Name):
            assert node.id != "linalg"
            assert node.id not in linalg_names or node.id in own, node.id
        elif isinstance(node, ast.Attribute):
            assert node.attr != "linalg"
    assert {"ZERO", "_dot"} <= linalg_names & own
    for name, value in vars(oracle).items():
        assert getattr(value, "__module__", None) != linalg.__name__, name
