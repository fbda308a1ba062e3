"""Built-in property suites for the `selftest` CLI subcommand.

Each suite raises VerificationError (:func:`surfbraid.errors.check`) on
failure, so the checks also run under ``python -O``; the runner prints one
TAP-style line per suite.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from typing import Callable, TextIO

from . import nonorientable, torsion, words
from .bieberbach import make_bieberbach
from .core import CoeffVector, Element, GroupDescriptor, verify_crystallographic
from .errors import check
from .intmatrix import IntMatrix
from .invariants import CyclicRep, anosov_check, betti_numbers, kahler_check, orientability
from .permutations import Permutation


def _random_element(rng: random.Random, group: GroupDescriptor, bound: int = 3) -> Element:
    n, handles = group.n, group.handle_count
    rows = tuple(
        tuple(rng.randint(-bound, bound) for _ in range(handles)) for _ in range(n)
    )
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Element(group, CoeffVector(rows), Permutation(tuple(images)))


def _suite_group_axioms() -> None:
    rng = random.Random(101)
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        group = GroupDescriptor.orientable(n, g)
        e = Element.identity(group)
        for _ in range(40):
            x, y, z = (_random_element(rng, group) for _ in range(3))
            check((x * y) * z == x * (y * z), "multiplication must be associative")
            check(x * e == x and e * x == x, "the identity must be neutral")
            check(x * x.inverse() == e, "x * x^-1 must be the identity")
            check((x * y).perm == x.perm * y.perm, "the permutation map must be a homomorphism")


def _suite_relations() -> None:
    for n, g in [(3, 1), (4, 2)]:
        report = words.check_relations(GroupDescriptor.orientable(n, g))
        check(report.ok, f"relation failures: {report.failures}")


def _suite_power_formula() -> None:
    rng = random.Random(202)
    for n, g in [(3, 1), (5, 2)]:
        group = GroupDescriptor.orientable(n, g)
        for i in range(40):
            m = rng.randint(2, n)
            cycle = tuple(rng.sample(range(1, n + 1), m))
            perm = Permutation.from_cycles(n, cycle)
            rows = tuple(
                tuple(rng.randint(-2, 2) for _ in range(group.handle_count))
                for _ in range(n)
            )
            z = Element(group, CoeffVector(rows), perm)
            k = m * rng.randint(1, 4)
            expected = [()] * n  # the paper's formula: every strand of C gets (k/|C|) * S_C
            for orbit, sums in torsion.cycle_sums(z):
                for c in orbit:
                    expected[c - 1] = tuple([(k // len(orbit)) * s for s in sums])
            check(z**k == Element(group, CoeffVector(tuple(expected)), Permutation.identity(n)),
                  f"cycle power formula fails at k={k}")
            if i % 4 == 0:  # plain repeated products, a path independent of __pow__
                product = reduce(Element.__mul__, [z] * k, Element.identity(group))
                check(z**k == product and z**-k == product.inverse(), f"z**k is not the k-fold product at k={k}")


def _suite_conjugacy() -> None:
    group = GroupDescriptor.torus(3)
    t1 = Element.section(group, Permutation.transposition(3, 1))
    t2 = Element.section(group, Permutation.transposition(3, 2))
    three = Element.section(group, Permutation.from_cycles(3, (1, 2, 3)))
    check(torsion.conjugacy_test(t1, t2) is not None, "two transpositions must be conjugate")
    check(torsion.conjugacy_test(t1, three) is None, "a transposition and a 3-cycle must not be conjugate")
    rng = random.Random(303)
    for i in range(20):
        c = _random_element(rng, group)
        theta = three.conjugated_by(c)
        if i % 4 == 0:  # two products and an inverse, a path independent of the closed form
            check(theta == c * three * c.inverse(), "the closed-form conjugate must be by * x * by^-1")
        check(torsion.order(theta).value == 3, "a conjugate of a 3-cycle section must have order 3")
        check(torsion.conjugacy_test(theta, three) is not None, "a conjugate must be found conjugate")
    x = Element.strand_generator(group, 1, 1) * t1  # infinite order: its 2-cycle sums to (1, 0)
    y = x.conjugated_by(_random_element(rng, group))
    c = torsion.conjugacy_test(x, y)
    check(c is not None and x.conjugated_by(c) == y, "an infinite-order conjugate must be found conjugate")
    check(torsion.conjugacy_test(x, t1) is None, "equal cycle types with different cycle sums must not be conjugate")


def _check_char_poly(matrix: IntMatrix, coeffs: tuple[int, ...], what: str) -> None:
    """P = det(xI - M) for P monic of degree m = dim M (coefficients constant
    first): the difference has degree below m, so P(t) == det(tI - M) at
    t = 0, ..., m - 1 proves it.  The determinants come from the echelon
    kernel, which shares no code with the power-trace derivation."""
    m = matrix.nrows
    check(len(coeffs) == m + 1 and coeffs[-1] == 1, f"{what} must be monic of degree {m}")
    for t in range(m):
        shifted = IntMatrix.from_rows(tuple([tuple([(t if i == j else 0) - v for j, v in enumerate(row)])
                                             for i, row in enumerate(matrix.rows)]))
        value = sum([c * t**k for k, c in enumerate(coeffs)])
        check(value == shifted.det(), f"{what} must be det(xI - M) at x = {t}")


def _suite_bieberbach() -> None:
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        desc = make_bieberbach(n, g)
        closed = [0] * (2 * n * g + 1)  # (x^n - 1)^2g, whose value at x = 0 makes det(H) = 1
        for k in range(2 * g + 1):
            closed[n * k] = (-1) ** k * math.comb(2 * g, k)
        _check_char_poly(desc.holonomy_matrix(), tuple(closed), "(x^n - 1)^2g")
        check(len(desc.centre()) == 2 * g, "the centre must have rank 2g")
    scan = make_bieberbach(2, 1).torsion_scan(1)
    check(scan.passed and scan.scanned == 162, "the bound-1 torsion scan at n = 2, g = 1 must pass on 162 elements")


def _suite_invariants() -> None:
    for n, g in [(2, 1), (3, 1), (4, 2)]:
        rep = CyclicRep(make_bieberbach(n, g).holonomy_matrix(), n)
        _check_char_poly(rep.matrix, rep.char_poly, "the trace char poly")  # x = 0 checks rep.det
        betti = betti_numbers(rep)
        check(betti[1] == 2 * g, "beta_1 must be 2g")
        check(sum((-1) ** i * b for i, b in enumerate(betti)) == 0, "the Euler characteristic must vanish")
        check(orientability(rep) and anosov_check(rep) and kahler_check(rep),
              "the flat manifold must be orientable, Anosov and Kaehler")
    # the order-6 rotation: M^2 != I, so its chain is cut after dim = 2 traces
    # and runs on to the period 6 of its power sums, found by their recurrence;
    # [[1, -1], [1, 0]] is written in the stored form, through the checked constructor
    rotation = CyclicRep(IntMatrix(2, (((0, 1), (1, -1)), ((0, 1),))), 6)
    _check_char_poly(rotation.matrix, rotation.char_poly, "the cut chain's char poly")
    check(rotation.cyclotomic == {6: 1}, "the order-6 rotation must have the single factor Phi_6")
    check(betti_numbers(rotation) == (1, 0, 1), "the order-6 rotation must have Betti numbers (1, 0, 1)")


def _suite_frobenius() -> None:
    rng = random.Random(404)
    for _ in range(20):
        emb = torsion.FrobeniusEmbedding(
            1, (tuple(rng.randint(-3, 3) for _ in range(4)), tuple(rng.randint(-3, 3) for _ in range(4)))
        )
        v1, v2 = torsion.frobenius_embed(emb)
        check((v1**5).is_identity() and (v2**2).is_identity(), "v1 must have order 5 and v2 order 2")
        check(v1.conjugated_by(v2) == v1**4, "v2 must conjugate v1 to v1^4")
        torsion.frobenius_conjugator(emb)
    group = GroupDescriptor.torus(5)
    v = torsion.frobenius_torsion_element(group, 5, 4)
    check(torsion.order(v).value == 5, "the Frobenius torsion element must have order 5")


def _suite_nonorientable() -> None:
    rng = random.Random(505)
    for n, g in [(2, 2), (3, 3), (3, 1)]:
        group = GroupDescriptor.nonorientable(n, g)
        e = Element.identity(group)
        for i in range(1, n):
            s = Element.section(group, Permutation.transposition(n, i))
            check(s * s == e, "sections of transpositions must be involutions")
        for i in range(20):
            xs = []
            for _ in range(3):
                bits = tuple(rng.randint(0, 1) for _ in range(n))
                free = tuple(
                    tuple(rng.randint(-2, 2) for _ in range(g - 1)) for _ in range(n)
                )
                images = list(range(1, n + 1))
                rng.shuffle(images)
                xs.append(nonorientable.MixedElement(group, bits, free, Permutation(tuple(images))))
            x, y, z = xs
            check((x * y) * z == x * (y * z), "mixed multiplication must be associative")
            check(x * x.inverse() == e, "x * x^-1 must be the identity")
            if i % 4 == 0:  # the closed form behind the verdict's normality checks, against products
                check(x.conjugated_by(y) == y * x * y.inverse(), "the closed-form conjugate must be by * x * by^-1")
        check(not verify_crystallographic(group).is_crystallographic,
              "non-orientable quotients are not crystallographic")
    check(not verify_crystallographic(GroupDescriptor.sphere(4)).is_crystallographic,
          "the sphere quotient is not crystallographic")
    check(verify_crystallographic(GroupDescriptor.orientable(3, 2)).is_crystallographic,
          "orientable quotients are crystallographic")


SUITES: list[tuple[str, Callable[[], None]]] = [
    ("group axioms hold on random elements", _suite_group_axioms),
    ("presentation relations normalize to equal elements", _suite_relations),
    ("cycle power formula matches repeated multiplication", _suite_power_formula),
    ("conjugacy decided by cycle lengths and cycle sums", _suite_conjugacy),
    ("bieberbach holonomy matrices and centre", _suite_bieberbach),
    ("flat manifold invariants", _suite_invariants),
    ("frobenius embeddings and torsion", _suite_frobenius),
    ("non-orientable and sphere models", _suite_nonorientable),
]


def run_selftest(out: TextIO) -> bool:
    ok = True
    print(f"1..{len(SUITES)}", file=out)
    for idx, (name, suite) in enumerate(SUITES, start=1):
        try:
            suite()
        except Exception as exc:  # report and keep going
            ok = False
            print(f"not ok {idx} - {name}: {exc}", file=out)
        else:
            print(f"ok {idx} - {name}", file=out)
    return ok
