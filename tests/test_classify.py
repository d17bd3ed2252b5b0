"""The holonomy dictionary: elimination, verdicts, witnesses, certificates."""

import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from parahol import linalg
from parahol.classify import (
    Classification,
    DegreeUnkillable,
    HolonomyDatum,
    LambdaNonzero,
    Verdict,
    classify,
    conjugable_verdict,
    conjugate_by_exp,
    kill_positive_part,
)
from parahol.errors import DomainError, UnsupportedDepthError
from parahol.families import build_conformal, build_cr
from parahol.flat import holonomy_flow
from parahol.sampling import (
    kernel_instance,
    planted_instance,
    random_element,
    random_instance,
    random_p_element,
    random_positive_element,
)
from parahol.scales import default_scale, scale_from_element
from dense_reference import ReferenceRealization, dense_min_norm


@pytest.fixture(scope="module")
def so41():
    return build_conformal(3, 0)


@pytest.fixture(scope="module")
def su21():
    return build_cr(1)


def _dense_matmul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


# -- conjugation ----------------------------------------------------------------


def test_conjugate_by_zero_is_identity(so41):
    x = so41.basis_element("D") + so41.basis_element("K_2")
    assert conjugate_by_exp(so41.zero(), x) == x


def test_conjugation_preserves_grade_zero_part(so41, su21):
    rng = random.Random(3)
    for algebra in (so41, su21):
        for _ in range(20):
            x = random_p_element(algebra, rng)
            z = random_positive_element(algebra, rng)
            assert conjugate_by_exp(z, x).component(0) == x.component(0)


def test_conjugation_is_an_automorphism():
    # exact check on the smallest conformal constructor
    algebra = build_conformal(2, 0)
    rng = random.Random(5)
    from parahol.sampling import random_element

    for _ in range(20):
        x = random_element(algebra, rng)
        y = random_element(algebra, rng)
        z = random_positive_element(algebra, rng)
        lhs = conjugate_by_exp(z, algebra.bracket(x, y))
        rhs = algebra.bracket(conjugate_by_exp(z, x), conjugate_by_exp(z, y))
        assert lhs == rhs


def test_conjugation_rejects_nonpositive(so41):
    x = so41.basis_element("D")
    with pytest.raises(DomainError):
        conjugate_by_exp(so41.basis_element("P_1"), x)
    with pytest.raises(DomainError):
        conjugate_by_exp(so41.basis_element("D"), x)


# -- datum validation -----------------------------------------------------------


def test_datum_rejects_negative_components(so41):
    with pytest.raises(DomainError):
        HolonomyDatum(so41, so41.basis_element("P_1"))


def test_datum_rejects_floats(so41):
    with pytest.raises(DomainError):
        HolonomyDatum(so41, so41.element_from_coeffs([0.0] * (so41.dim - 1) + [1.5]))


def test_depth_three_unsupported():
    fake = SimpleNamespace(algebra=SimpleNamespace(k=3), x=None)
    with pytest.raises(UnsupportedDepthError):
        kill_positive_part(fake)


# -- killing the positive part ----------------------------------------------------


def test_pure_grade_zero_needs_no_witness(so41):
    datum = HolonomyDatum(so41, so41.basis_element("M_13"))
    assert kill_positive_part(datum) == so41.zero()


def test_zero_grade_zero_part_is_unkillable(so41):
    datum = HolonomyDatum(so41, so41.basis_element("K_1"))
    assert kill_positive_part(datum) is None


def test_rotation_plus_special_witness_frozen(so41):
    # solved by hand: [M_12, z1 K_1 + z2 K_2 + z3 K_3] = K_1 forces
    # z2 = 1, z1 = 0, z3 free; minimum norm picks z3 = 0
    x = so41.element({"M_12": 1, "K_1": 1})
    datum = HolonomyDatum(so41, x)
    witness = kill_positive_part(datum)
    assert witness == so41.basis_element("K_2")
    conj = conjugate_by_exp(witness, x)
    assert conj == so41.basis_element("M_12")


# -- conformal catalog ------------------------------------------------------------


def test_dilation_is_essential_weyl_reducible(so41):
    result = classify(HolonomyDatum(so41, so41.basis_element("D")))
    assert result.verdict is Verdict.WEYL_REDUCIBLE
    assert result.is_essential
    assert result.certificate == LambdaNonzero(Fraction(6))
    assert result.witness == so41.zero()
    assert result.to_json_dict()["exact"] is True


def test_rotation_is_inessential(so41):
    result = classify(HolonomyDatum(so41, so41.basis_element("M_12")))
    assert result.verdict is Verdict.INESSENTIAL
    assert not result.is_essential
    assert result.witness == so41.zero()


def test_special_conformal_is_unkillable(so41):
    result = classify(HolonomyDatum(so41, so41.basis_element("K_1")))
    assert result.verdict is Verdict.ESSENTIAL
    assert result.certificate == DegreeUnkillable(1)
    assert result.witness is None


def test_rotation_plus_special_inessential_with_witness(so41):
    x = so41.element({"M_12": 1, "K_1": 1})
    result = classify(HolonomyDatum(so41, x))
    assert result.verdict is Verdict.INESSENTIAL
    conj = conjugate_by_exp(result.witness, x)
    scale = default_scale(so41)
    assert all(conj.component(g).is_zero for g in (1,))
    assert scale.lambda_prime_of_grade0(conj) == 0


# -- depth-two catalog --------------------------------------------------------------


def test_cr_rotation_inessential(su21):
    result = classify(HolonomyDatum(su21, su21.basis_element("J_1")))
    assert result.verdict is Verdict.INESSENTIAL
    assert result.witness == su21.zero()


def test_cr_grading_plus_top_is_weyl_reducible(su21):
    x = su21.element({"E": 1, "S": 1})
    result = classify(HolonomyDatum(su21, x))
    assert result.verdict is Verdict.WEYL_REDUCIBLE
    assert result.certificate == LambdaNonzero(Fraction(12))
    assert result.witness == Fraction(1, 2) * su21.basis_element("S")
    conj = conjugate_by_exp(result.witness, x)
    assert conj == su21.basis_element("E")


def test_cr_rotation_plus_special_has_degree_two_obstruction(su21):
    # hand computation: the unique degree-1 solution leaves the residual
    # -(2/3) S, and ad(J_1) vanishes on grade 2
    x = su21.element({"J_1": 1, "K_1": 1})
    result = classify(HolonomyDatum(su21, x))
    assert result.verdict is Verdict.ESSENTIAL
    assert result.certificate == DegreeUnkillable(2)
    assert result.to_json_dict()["exact"] is True


def test_cr_pure_top_grade_unkillable(su21):
    result = classify(HolonomyDatum(su21, su21.basis_element("S")))
    assert result.verdict is Verdict.ESSENTIAL
    assert result.certificate == DegreeUnkillable(2)


def test_cr_planted_witness_recovered(su21):
    planted = su21.exp_ad(su21.basis_element("K_1"), su21.basis_element("J_1"))
    result = classify(HolonomyDatum(su21, planted))
    assert result.verdict is Verdict.INESSENTIAL
    assert result.witness == -1 * su21.basis_element("K_1")
    assert conjugate_by_exp(result.witness, planted) == su21.basis_element("J_1")


def test_cr_depth_two_instances_all_exact(su21):
    scale = default_scale(su21)
    rng = random.Random(2024)
    for _ in range(60):
        x = random_instance(su21, scale, rng)
        result = classify(HolonomyDatum(su21, x, scale))
        assert result.to_json_dict()["exact"] is True
        if result.witness is not None:
            conj = conjugate_by_exp(result.witness, x)
            for g in (1, 2):
                assert conj.component(g).is_zero


def test_numeric_witness_assembly_reports_residual(su21):
    """A witness that needs a degree-2 correction is assembled exactly, and
    the report keeps its constant "exact": true and "residual": null."""
    x0 = su21.element({"E": 1, "J_1": 1})
    planted = su21.exp_ad(su21.element({"K_1": 1, "S": 1}), x0)
    result = classify(HolonomyDatum(su21, planted))
    assert result.verdict is Verdict.WEYL_REDUCIBLE
    assert result.witness == su21.element({"K_1": -1, "S": -1})
    assert all(type(c) is Fraction for c in result.witness.coeffs)
    assert conjugate_by_exp(result.witness, planted) == x0
    report = result.to_json_dict()
    assert report["exact"] is True
    assert report["residual"] is None


# -- invariance of the verdict --------------------------------------------------------


@pytest.mark.parametrize("family", ["conformal", "cr"])
def test_verdict_invariant_under_positive_conjugation(family, so41, su21):
    algebra = so41 if family == "conformal" else su21
    scale = default_scale(algebra)
    rng = random.Random(97)
    for i in range(25):
        x = random_instance(algebra, scale, rng) if i < 15 else kernel_instance(algebra, rng)
        base = classify(HolonomyDatum(algebra, x, scale))
        for _ in range(15):
            z = random_positive_element(algebra, rng, max_abs=4)
            moved = conjugate_by_exp(z, x)
            result = classify(HolonomyDatum(algebra, moved, scale))
            assert result.verdict is base.verdict
            assert (scale.lambda_prime_of_grade0(moved)
                    == scale.lambda_prime_of_grade0(x))


def test_verdict_invariant_under_grade_preserving_rotations(so41):
    """Exact 90-degree rotations realize grade-preserving conjugations; the
    verdict must not depend on them (the elimination never searches them)."""
    real = so41.realization
    size = real.size
    scale = default_scale(so41)
    reference = ReferenceRealization(
        [real.matrix_of(so41.basis_element(i)) for i in range(so41.dim)])

    def rotation_matrix(a, b):
        g = [[Fraction(1) if i == j else Fraction(0) for j in range(size)]
             for i in range(size)]
        g[1 + a][1 + a] = Fraction(0)
        g[1 + b][1 + b] = Fraction(0)
        g[1 + a][1 + b] = Fraction(-1)
        g[1 + b][1 + a] = Fraction(1)
        return g

    def conjugate_element(g, x):
        gm = _dense_matmul(g, real.matrix_of(x))
        g_inv = [list(col) for col in zip(*g)]  # orthogonal for the Euclidean block
        coords = reference.coordinates(_dense_matmul(gm, g_inv))
        assert coords is not None
        return so41.element_from_coeffs(coords)

    rng = random.Random(13)
    for _ in range(10):
        x = random_instance(so41, scale, rng)
        base = classify(HolonomyDatum(so41, x, scale))
        for a, b in [(0, 1), (1, 2), (0, 2)]:
            moved = conjugate_element(rotation_matrix(a, b), x)
            result = classify(HolonomyDatum(so41, moved, scale))
            assert result.verdict is base.verdict


def test_depth_one_completeness(so41):
    """Inessential iff X1 in image(ad X0) and lambda'(X0) = 0, both sides
    checked against independent rank computations."""
    scale = default_scale(so41)
    rng = random.Random(55)
    for _ in range(100):
        x = random_instance(so41, scale, rng)
        result = classify(HolonomyDatum(so41, x, scale))
        image = so41.ad_block(x.component(0), 1, 1)
        augmented = [row + [v] for row, v in zip(image, so41.grade_coords(x, 1))]
        killable = linalg.rank(image) == linalg.rank(augmented)
        inessential = killable and scale.lambda_prime_of_grade0(x) == 0
        assert (result.verdict is Verdict.INESSENTIAL) == inessential


# -- the Fraction classifier that the scaled-integer one replaced -------------------


def reference_classify(datum):
    """Grade-by-grade elimination on Fraction elements with the dense
    Fraction minimum-norm solve (`dense_min_norm`), the witness checked by
    conjugating every grade, and lambda' as B(e_lambda, X_0) through the
    public Killing form."""
    algebra, x = datum.algebra, datum.x
    z = algebra.zero()
    for d in range(1, algebra.k + 1):
        r = algebra.grade_coords(algebra.exp_ad(z, x), d)
        if not any(r):
            continue
        z_d = dense_min_norm(algebra.ad_block(x, d, d), r)
        if z_d is None:
            return Classification(Verdict.ESSENTIAL, certificate=DegreeUnkillable(d))
        z = z + algebra.from_grade_coords(d, z_d)
    conj = conjugate_by_exp(z, x)
    assert all(conj.component(g).is_zero for g in range(1, algebra.k + 1))
    ell = algebra.killing_form(datum.scale.e_lambda, x.component(0))
    return conjugable_verdict(ell, z)


def _assert_matches_reference(datum):
    ours, expected = classify(datum), reference_classify(datum)
    assert ours == expected
    assert ours.to_json_dict() == expected.to_json_dict()
    return ours


REFERENCE_ALGEBRAS = {
    "conformal30": lambda: build_conformal(3, 0),
    "conformal41": lambda: build_conformal(4, 1),
    "conformal60": lambda: build_conformal(6, 0),
    "cr1": lambda: build_cr(1),
    "cr2": lambda: build_cr(2),
    "cr3": lambda: build_cr(3),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_ALGEBRAS))
def test_classify_matches_fraction_reference(name):
    """Verdict, witness and certificate equal the Fraction classifier's on
    seeded corner, planted and kernel pools, and on elements whose
    coefficients mix denominators up to about 10^12."""
    algebra = REFERENCE_ALGEBRAS[name]()
    scale = default_scale(algebra)
    rng = random.Random(21)
    mixed = (1, 4, 9, 25, 49, 10**12 + 39)
    verdicts = set()
    for _ in range(40):
        pool = [random_instance(algebra, scale, rng),
                planted_instance(algebra, scale, rng),
                kernel_instance(algebra, rng),
                random_p_element(algebra, rng, denominators=mixed)]
        pool.append(algebra.exp_ad(
            random_positive_element(algebra, rng, denominators=mixed),
            random_element(algebra, rng, grades=(0,), denominators=mixed)))
        for x in pool:
            verdicts.add(_assert_matches_reference(HolonomyDatum(algebra, x, scale)).verdict)
    assert verdicts == set(Verdict)


def test_classify_matches_fraction_reference_off_the_default_scale(so41):
    """With the scale -E/3, lambda' and its kernel change; verdicts and
    LambdaNonzero values still equal the reference's."""
    scale = scale_from_element(so41, Fraction(-1, 3) * so41.grading_element)
    rng = random.Random(8)
    values = set()
    for _ in range(60):
        x = random_instance(so41, scale, rng)
        result = _assert_matches_reference(HolonomyDatum(so41, x, scale))
        if result.verdict is Verdict.WEYL_REDUCIBLE:
            values.add(result.certificate.value)
    datum = HolonomyDatum(so41, so41.basis_element("D"), scale)
    assert classify(datum).certificate == LambdaNonzero(Fraction(-2))
    assert len(values) > 5


def test_a_wrong_degree_two_solution_fails_verification(su21, monkeypatch):
    """The exact check of exp(ad Z)X catches a wrong Z_2: the degree-2
    solve is patched to return its solution plus one on the first entry."""
    x0 = su21.element({"E": 1, "J_1": 1})
    datum = HolonomyDatum(su21, su21.exp_ad(su21.element({"K_1": 1, "S": 1}), x0))
    assert classify(datum).witness == su21.element({"K_1": -1, "S": -1})
    solve = linalg.solve_min_norm_scaled
    calls = []

    def wrong_second_solve(a_rows, b):
        calls.append(len(b))
        den, w = solve(a_rows, b)
        if len(calls) == 2:
            w = [w[0] + den] + w[1:]
        return den, w

    monkeypatch.setattr(linalg, "solve_min_norm_scaled", wrong_second_solve)
    with pytest.raises(AssertionError, match="witness failed exact verification"):
        classify(datum)
    assert calls == [len(su21.indices_of_grade(1)), len(su21.indices_of_grade(2))]


# -- flows -----------------------------------------------------------------------


def test_holonomy_flow_identity_and_group_property(so41):
    datum = HolonomyDatum(so41, so41.element({"M_12": 1, "D": Fraction(1, 2)}))
    assert np.allclose(holonomy_flow(datum, 0.0), np.eye(5))
    s, t = 0.3, -0.45
    left = holonomy_flow(datum, s + t)
    right = holonomy_flow(datum, s) @ holonomy_flow(datum, t)
    assert np.max(np.abs(left - right)) < 1e-10


def test_holonomy_flow_nilpotent_polynomial(so41):
    """For a special-conformal generator the flow is polynomial in t of
    degree <= 2: the symbolic exponential terminates after the square."""
    datum = HolonomyDatum(so41, so41.basis_element("K_1"))
    real = so41.realization
    mat = real.matrix_of(datum.x)
    sq = _dense_matmul(mat, mat)
    cube = _dense_matmul(sq, mat)
    assert all(v == 0 for row in cube for v in row)
    t = 0.7
    expected = (np.eye(real.size)
                + t * np.array([[float(v) for v in r] for r in mat])
                + (t * t / 2) * np.array([[float(v) for v in r] for r in sq]))
    assert np.max(np.abs(holonomy_flow(datum, t) - expected)) < 1e-12


# -- serialization ------------------------------------------------------------------


def test_classification_json_shapes(so41, su21):
    d = classify(HolonomyDatum(so41, so41.basis_element("D"))).to_json_dict()
    assert d["verdict"] == "Essential"
    assert d["weyl_reducible"] is True
    assert d["certificate"] == {"lambda_nonzero": 6}
    assert d["exact"] is True

    k = classify(HolonomyDatum(so41, so41.basis_element("K_1"))).to_json_dict()
    assert k["verdict"] == "Essential"
    assert k["weyl_reducible"] is False
    assert k["certificate"] == {"degree_d_unkillable": 1}
    assert k["witness"] is None

    m = classify(HolonomyDatum(so41, so41.basis_element("M_12"))).to_json_dict()
    assert m["verdict"] == "Inessential"
    assert m["witness"] == [0] * so41.dim

    j = classify(HolonomyDatum(su21, su21.element({"J_1": 1, "K_1": 1})))
    assert j.to_json_dict()["certificate"] == {"degree_d_unkillable": 2}
