"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer equalities; there are no tolerances.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import functools
import itertools
import random
from pathlib import Path

from surfbraid.bieberbach import make_bieberbach
from surfbraid.core import CoeffVector, Element, GroupDescriptor, verify_crystallographic
from surfbraid.intmatrix import IntMatrix
from surfbraid.invariants import CyclicRep, anosov_check, betti_numbers, kahler_check
from surfbraid.permutations import Permutation
from surfbraid.torsion import (
    FrobeniusEmbedding,
    conjugacy_test,
    frobenius_conjugator,
    frobenius_embed,
    frobenius_torsion_element,
    order,
    symmetric_copy_conjugator,
)
from surfbraid.words import check_relations

from helpers import (
    X,
    basis_vector,
    brute_force_conjugating_permutations,
    cycle_type,
    faddeev_leverrier_char_poly,
    handle_sums,
    poly_from_sympy,
    power_by_repeated_mul,
    product_over_strands,
    scaled,
    sum_principal_minors,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {description}")
                raise
            print(f"criterion {number:2d}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "presentation relations and classical words (n <= 6, g <= 3)")
def test_criterion_1_presentation_soundness():
    for n in range(2, 7):
        for g in range(1, 4):
            report = check_relations(GroupDescriptor.orientable(n, g))
            assert report.ok, f"(n={n}, g={g}): {report.failures}"


@criterion(2, "closed power formula equals repeated multiplication (500 per case)")
def test_criterion_2_power_formula():
    rng = random.Random(2024)
    for n in range(2, 7):
        for g in range(1, 4):
            group = GroupDescriptor.orientable(n, g)
            for _ in range(500):
                m = rng.randint(2, n)
                cycle = tuple(rng.sample(range(1, n + 1), m))
                rows = tuple(
                    tuple(rng.randint(-3, 3) for _ in range(2 * g)) for _ in range(n)
                )
                z = Element(group, CoeffVector(rows), Permutation.from_cycles(n, cycle))
                k = m * rng.randint(1, 24 // m)
                assert z**k == power_by_repeated_mul(z, k)


@criterion(3, "conjugacy of all finite-order elements (n=3, g=1) and of all elements (n=2, g=1), "
              "coefficients in {-1,0,1}")
def test_criterion_3_conjugacy_classification():
    group = GroupDescriptor.torus(3)
    finite = []
    for images in itertools.permutations(range(1, 4)):
        perm = Permutation(images)
        for flat in itertools.product((-1, 0, 1), repeat=6):
            coeffs = CoeffVector((flat[0:2], flat[2:4], flat[4:6]))
            x = Element(group, coeffs, perm)
            if order(x).is_finite:
                finite.append(x)
    # counting argument: 1 identity, 9 lattice choices over each of the 3
    # transpositions, 49 over each of the 2 three-cycles
    assert len(finite) == 1 + 3 * 9 + 2 * 49 == 126
    for e1 in finite:
        type1 = cycle_type(e1.perm)
        for e2 in finite:
            witness = conjugacy_test(e1, e2)
            if type1 == cycle_type(e2.perm):
                assert witness is not None
                assert e1.conjugated_by(witness) == e2
            else:
                assert witness is None
    # every element, infinite order included, against the search over S_2
    group = GroupDescriptor.torus(2)
    everything = [Element(group, CoeffVector((flat[0:2], flat[2:4])), Permutation(images))
                  for images in ((1, 2), (2, 1)) for flat in itertools.product((-1, 0, 1), repeat=4)]
    assert len(everything) == 2 * 3**4 == 162
    conjugate = 0
    for e1 in everything:
        for e2 in everything:
            witness = conjugacy_test(e1, e2)
            brute = brute_force_conjugating_permutations(e1, e2)
            if brute:
                conjugate += 1
                assert witness is not None and witness.perm == brute[0]
                assert e1.conjugated_by(witness) == e2
            else:
                assert witness is None
    # counting argument: over the identity, pairs of equal row multisets
    # (9 with equal rows, 36 with two different rows, each class squared);
    # over the transposition, pairs with equal row sums (1, 2, 3, 2, 1 ways
    # to reach each sum per handle, so 19 per handle)
    assert conjugate == 9 * 1 + 36 * 2**2 + 19**2 == 514


@criterion(4, "symmetric-copy and Frobenius conjugators verify (200 random each)")
def test_criterion_4_subgroup_conjugators():
    rng = random.Random(4096)
    for _ in range(200):
        n = rng.randint(2, 4)
        g = rng.randint(1, 2)
        group = GroupDescriptor.orientable(n, g)
        images = []
        for i in range(1, n):
            vec = CoeffVector.zero(n, 2 * g)
            for r in range(1, 2 * g + 1):
                value = rng.randint(-5, 5)
                vec = (
                    vec
                    + scaled(basis_vector(n, 2 * g, i, r), value)
                    + scaled(basis_vector(n, 2 * g, i + 1, r), -value)
                )
            images.append(Element(group, vec, Permutation.transposition(n, i)))
        x = symmetric_copy_conjugator(group, images)
        for i in range(1, n):
            section = Element.section(group, Permutation.transposition(n, i))
            assert section.conjugated_by(x) == images[i - 1]
    five_cycle = Permutation.from_cycles(5, (1, 2, 3, 4, 5))
    double_transposition = Permutation.from_cycles(5, (1, 4), (2, 3))
    for _ in range(200):
        g = rng.randint(1, 2)
        emb = FrobeniusEmbedding(
            g, tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2 * g))
        )
        conj = frobenius_conjugator(emb)
        v1, v2 = frobenius_embed(emb)
        assert Element.section(emb.group, five_cycle).conjugated_by(conj) == v1
        assert Element.section(emb.group, double_transposition).conjugated_by(conj) == v2


@criterion(5, "Bieberbach structure: power identity, char poly, det, centre (n <= 6, g <= 3)")
def test_criterion_5_bieberbach_structure():
    for n in range(2, 7):
        for g in range(1, 4):
            desc = make_bieberbach(n, g)
            assert desc.generator**n == product_over_strands(desc.group, 1, 1)
            matrix = desc.holonomy_matrix()
            assert faddeev_leverrier_char_poly(matrix) == poly_from_sympy((X**n - 1) ** (2 * g))
            assert matrix.det() == 1
            centre = desc.centre()
            assert len(centre) == 2 * g
            for z in centre:
                for gen in desc.x_generators:
                    assert z * gen == gen * z


@criterion(6, "no nontrivial torsion in exhaustive scans (n <= 3, g = 1, coords in {-1,0,1})")
def test_criterion_6_torsion_freeness():
    for n in (2, 3):
        report = make_bieberbach(n, 1).torsion_scan(1)
        assert report.passed
        assert report.scanned == 3 ** (2 * n) * n


@criterion(7, "Betti numbers, Anosov and Kaehler verdicts (n <= 6, g <= 3)")
def test_criterion_7_invariants():
    # the independent oracle for the pinned case: averaged principal minors
    rep21 = CyclicRep(make_bieberbach(2, 1).holonomy_matrix(), 2)
    oracle = tuple(
        sum(sum_principal_minors(power, i) for power in (IntMatrix.identity(4), rep21.matrix)) // 2
        for i in range(5)
    )
    assert oracle == (1, 2, 2, 2, 1)
    assert betti_numbers(rep21) == oracle
    for n in range(2, 7):
        for g in range(1, 4):
            rep = CyclicRep(make_bieberbach(n, g).holonomy_matrix(), n)
            betti = betti_numbers(rep)
            assert betti[1] == 2 * g
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0
            assert anosov_check(rep)
            assert kahler_check(rep)


@criterion(8, "Frobenius torsion elements have order exactly p with zero augmentations")
def test_criterion_8_frobenius_torsion():
    rng = random.Random(8192)
    for p, l in ((5, 4), (7, 2)):
        for _ in range(100):
            g = rng.randint(1, 2)
            group = GroupDescriptor.orientable(p, g)
            lifts = [
                CoeffVector(
                    tuple(tuple(rng.randint(-3, 3) for _ in range(2 * g)) for _ in range(p))
                )
                for _ in range(2)
            ]
            v = frobenius_torsion_element(group, p, l, lifts[0], lifts[1])
            assert handle_sums(v.coeffs) == (0,) * (2 * g)
            assert not v.is_identity()
            assert power_by_repeated_mul(v, p).is_identity()
            assert order(v).value == p


@criterion(9, "crystallographic verdicts with verified witnesses")
def test_criterion_9_verdicts():
    for n in range(3, 7):
        verdict = verify_crystallographic(GroupDescriptor.sphere(n))
        assert not verdict.is_crystallographic
        assert verdict.witness["order"] == 2
    for g in range(1, 4):
        for n in range(1, 5):
            verdict = verify_crystallographic(GroupDescriptor.nonorientable(n, g))
            assert not verdict.is_crystallographic
            assert verdict.witness["order"] == 2**n
            assert verdict.witness["normality_verified"]
    for n in range(2, 5):
        for g in (1, 2):
            verdict = verify_crystallographic(GroupDescriptor.orientable(n, g))
            assert verdict.is_crystallographic
            assert verdict.dimension == 2 * n * g


@criterion(10, "external space-group database identification documented as excluded")
def test_criterion_10_carat_exclusion_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "CARAT" in text, "README must document the external-database exclusion"
