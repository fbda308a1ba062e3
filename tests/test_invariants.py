import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from functools import reduce
from operator import mul
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.bieberbach import make_bieberbach
from surfbraid.errors import VerificationError
from surfbraid.intmatrix import IntMatrix
from surfbraid.intpoly import totient
from surfbraid.invariants import (
    CyclicRep,
    _elementary_symmetric_from_traces,
    _multiplicities_by_characters,
    _rational_characters,
    _trace_period,
    anosov_check,
    betti_numbers,
    invariant_report,
    kahler_check,
    orientability,
)

from helpers import (
    DERANDOMIZED,
    X,
    block_diag,
    char_poly_by_cofactors,
    eigenvalue_multiplicities,
    faddeev_leverrier_char_poly,
    int_matrix,
    poly_from_sympy,
    random_permutation,
    reference_betti_numbers,
    reference_elementary_symmetric,
    reference_kahler_check,
    sum_principal_minors,
    sympy_cyclotomic_multiplicities,
)


def holonomy_rep(n, g):
    return CyclicRep(make_bieberbach(n, g).holonomy_matrix(), n)


def diag(*entries):
    m = len(entries)
    return int_matrix([[entries[i] if i == j else 0 for j in range(m)] for i in range(m)])


def companion_x_pow_minus_one(k):
    """The companion matrix of x^k - 1: the k-cycle on the unit vectors."""
    return int_matrix([[1 if i == (j + 1) % k else 0 for j in range(k)] for i in range(k)])


def companion(*coeffs):
    """The companion matrix of the monic polynomial with these coefficients,
    constant term first and the leading 1 left out."""
    m = len(coeffs)
    return int_matrix([[(1 if i == j + 1 else 0) if j < m - 1 else -coeffs[i] for j in range(m)] for i in range(m)])


def cyclotomic_companion(d):
    """The companion matrix of Phi_d, its coefficients by sympy."""
    return companion(*[int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(d, X), X).all_coeffs()[1:])])


def test_cyclic_rep_validation():
    with pytest.raises(ValueError):
        CyclicRep(int_matrix([[1, 1], [0, 1]]), 2)  # infinite order
    with pytest.raises(ValueError):
        CyclicRep(IntMatrix.identity(2), 0)
    rep = CyclicRep(diag(-1, -1), 2)
    assert rep.dimension == 2


@pytest.mark.parametrize("order", [True, 2.0, "2"])
def test_cyclic_rep_order_must_be_an_int(order, monkeypatch):
    def refuse(self, other):
        raise AssertionError("the power chain ran")

    matrix = diag(-1)
    monkeypatch.setattr(IntMatrix, "__mul__", refuse)
    with pytest.raises(ValueError, match="group order must be an integer"):
        CyclicRep(matrix, order)


@pytest.mark.parametrize("matrix", [((1,),), [[1]], (1,)])
def test_cyclic_rep_matrix_must_be_an_int_matrix(matrix):
    with pytest.raises(ValueError, match="must be an IntMatrix"):
        CyclicRep(matrix, 1)


def test_orientability():
    for n in range(2, 7):
        for g in (1, 2):
            assert orientability(holonomy_rep(n, g))
    assert not orientability(CyclicRep(diag(-1, 1), 2))
    assert orientability(CyclicRep(IntMatrix.identity(3), 1))


def test_betti_torus_two_strand_case():
    # Eigenvalues of the generator are {1, 1, -1, -1}; averaging the
    # characteristic coefficients of I and the generator gives the oracle:
    # (binom(4,i) + [t^i](1-t^2)^2) / 2 = (1, 2, 2, 2, 1).
    rep = holonomy_rep(2, 1)
    betti = betti_numbers(rep)
    signed = poly_from_sympy((1 - X**2) ** 2)
    binom = poly_from_sympy((1 + X) ** 4)
    oracle = tuple(
        (binom[i] + (signed[i] if i < len(signed) else 0)) // 2
        for i in range(5)
    )
    assert betti == oracle == (1, 2, 2, 2, 1)


def test_betti_against_principal_minor_oracle():
    # Independent route: [t^i] det(I + t M^j) is the sum of principal
    # i x i minors of M^j.
    for n, g in [(2, 1), (3, 1), (2, 2)]:
        rep = holonomy_rep(n, g)
        m = rep.dimension
        oracle = []
        for i in range(m + 1):
            total = sum(sum_principal_minors(reduce(mul, [rep.matrix] * j, IntMatrix.identity(m)), i)
                        for j in range(n))
            assert total % n == 0
            oracle.append(total // n)
        assert betti_numbers(rep) == tuple(oracle)


def test_betti_three_strand_frozen():
    # Derived from the eigenvalue multiset {1,1,w,w,w^2,w^2}: the nontrivial
    # powers contribute (1 + t^3)^2, so beta = (C(6,i) + 2*[t^i](1+t^3)^2)/3.
    assert betti_numbers(holonomy_rep(3, 1)) == (1, 2, 5, 8, 5, 2, 1)


def test_betti_genus_two_frozen():
    # (2, 2): nontrivial power contributes (1 - t^2)^4.
    assert betti_numbers(holonomy_rep(2, 2)) == (1, 4, 12, 28, 38, 28, 12, 4, 1)


def test_betti_trivial_group():
    assert betti_numbers(CyclicRep(IntMatrix.identity(4), 1)) == (1, 4, 6, 4, 1)


def test_betti_structure_properties():
    for n in range(2, 6):
        for g in (1, 2, 3):
            betti = betti_numbers(holonomy_rep(n, g))
            m = 2 * n * g
            assert betti[0] == 1
            assert betti[1] == 2 * g
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == 0
            assert all(betti[i] == betti[m - i] for i in range(m + 1))


def test_eigenvalue_multiplicities():
    rep = holonomy_rep(3, 2)
    mult = eigenvalue_multiplicities(rep)
    assert mult == {0: 4, 1: 4, 2: 4}
    assert sum(mult.values()) == rep.dimension
    rep2 = CyclicRep(diag(-1, -1), 2)
    assert eigenvalue_multiplicities(rep2) == {0: 0, 1: 2}
    # identity with declared order 2: all eigenvalues are 1
    assert eigenvalue_multiplicities(CyclicRep(IntMatrix.identity(2), 2)) == {0: 2, 1: 0}


def test_anosov():
    for n in range(2, 6):
        for g in (1, 2):
            assert anosov_check(holonomy_rep(n, g))
    assert not anosov_check(CyclicRep(companion_x_pow_minus_one(3), 3))
    doubled = block_diag(companion_x_pow_minus_one(3), companion_x_pow_minus_one(3))
    assert anosov_check(CyclicRep(doubled, 3))


def test_kahler():
    for n in range(2, 6):
        for g in (1, 2):
            assert kahler_check(holonomy_rep(n, g))
    assert not kahler_check(CyclicRep(diag(1, -1, -1), 2))  # odd dimension
    assert kahler_check(CyclicRep(diag(-1, -1), 2))  # sign representation twice
    assert not kahler_check(CyclicRep(diag(1, -1), 2))  # both real summands once
    assert kahler_check(CyclicRep(IntMatrix.identity(2), 1))


def test_anosov_and_kahler_on_representations_with_a_factor_once():
    # companion(Phi_3) + I_2 is the holonomy of a bielliptic surface: Kaehler,
    # and Phi_3 once is a single plane, so no Anosov diffeomorphism;
    # companion(Phi_5) + I_2 splits Phi_5 into two planes and has both; an
    # odd dimension has no complex structure
    bielliptic = CyclicRep(block_diag(cyclotomic_companion(3), IntMatrix.identity(2)), 3)
    assert bielliptic.cyclotomic == {1: 2, 3: 1}
    assert kahler_check(bielliptic) and not anosov_check(bielliptic)
    quintic = CyclicRep(block_diag(cyclotomic_companion(5), IntMatrix.identity(2)), 5)
    assert quintic.cyclotomic == {1: 2, 5: 1}
    assert kahler_check(quintic) and anosov_check(quintic)
    odd = CyclicRep(block_diag(cyclotomic_companion(3), IntMatrix.identity(1)), 3)
    assert not kahler_check(odd) and not anosov_check(odd)
    report = invariant_report(quintic)
    assert (report["betti"], report["anosov"], report["kahler"]) == ([1, 2, 3, 4, 3, 2, 1], True, True)


def test_anosov_and_kahler_match_the_factor_list_oracle():
    # Every block sum of one to three companions of Phi_d, d <= 12, at the lcm
    # of its indices.  The oracle reads the multiplicities from sympy's
    # factor_list and applies Porteous's and the Johnson-Rees rule; the old
    # criteria (every multiplicity >= 2, every multiplicity even) each imply
    # the new one.
    blocks = {d: cyclotomic_companion(d) for d in range(1, 13)}
    verdicts = Counter()
    for size in (1, 2, 3):
        for chosen in itertools.combinations_with_replacement(sorted(blocks), size):
            rep = CyclicRep(block_diag(*[blocks[d] for d in chosen]), math.lcm(*chosen))
            mults = sympy_cyclotomic_multiplicities(rep.char_poly)
            assert rep.cyclotomic == mults
            anosov = all(k >= 2 or d not in (1, 2, 3, 4, 6) for d, k in mults.items())
            kahler = mults.get(1, 0) % 2 == 0 and mults.get(2, 0) % 2 == 0
            assert (anosov_check(rep), kahler_check(rep)) == (anosov, kahler)
            assert anosov or not all(k >= 2 for k in mults.values())
            assert kahler or not all(k % 2 == 0 for k in mults.values())
            verdicts[anosov, kahler] += 1
    assert len(verdicts) == 4


def test_kahler_check_matches_the_pairing_reference():
    # Holonomy reps, permutation matrices at their order and at multiples of
    # it, and block sums of the companions of Phi_3, Phi_4 and Phi_6 with
    # the signs +-1, each with odd and even multiplicities.
    reps = [holonomy_rep(n, g) for n in range(2, 9) for g in (1, 2, 3)]
    rng = random.Random(223)
    for _ in range(40):
        size = rng.randint(1, 6)
        w = random_permutation(rng, size)
        matrix = int_matrix([[1 if w(j) == i else 0 for j in range(1, size + 1)] for i in range(1, size + 1)])
        reps += [CyclicRep(matrix, k * w.order()) for k in (1, 2, 3)]
    blocks = {3: int_matrix([[0, -1], [1, -1]]), 4: int_matrix([[0, -1], [1, 0]]),
              6: int_matrix([[0, -1], [1, 1]]), 1: diag(1), 2: diag(-1)}
    for _ in range(40):
        chosen = [d for d in blocks for _ in range(rng.randint(0, 2))] or [1]
        reps.append(CyclicRep(block_diag(*[blocks[d] for d in chosen]), math.lcm(*chosen)))
    verdicts = [kahler_check(rep) for rep in reps]
    assert verdicts == [reference_kahler_check(rep) for rep in reps]
    assert any(verdicts) and not all(verdicts)


def test_char_poly_of_holonomy():
    for n in range(2, 9):
        for g in (1, 3):
            matrix = make_bieberbach(n, g).holonomy_matrix()
            assert faddeev_leverrier_char_poly(matrix) == poly_from_sympy((X**n - 1) ** (2 * g))


def test_invariant_report_shape():
    report = invariant_report(holonomy_rep(2, 1))
    assert list(report.keys()) == [
        "char_poly",
        "det",
        "betti",
        "anosov",
        "kahler",
        "orientable",
        "cyclotomic",
    ]
    assert report["char_poly"] == [1, 0, -2, 0, 1]
    assert report["det"] == 1
    assert report["betti"] == [1, 2, 2, 2, 1]
    assert report["anosov"] and report["kahler"] and report["orientable"]
    assert report["cyclotomic"] == {"1": 2, "2": 2}
    json.dumps(report)


def assert_coefficient_tuple(poly, dim):
    """A characteristic polynomial as CyclicRep keeps it: a tuple of exact
    ints, constant term first, monic, of length dim + 1, and hashable."""
    assert type(poly) is tuple and all(type(c) is int for c in poly), poly
    assert len(poly) == dim + 1 and poly[-1] == 1, poly
    hash(poly)


def test_char_poly_is_a_monic_coefficient_tuple():
    # The order-6 rotation's chain is cut after dim = 2 traces; its polynomial is Phi_6.
    rotation = CyclicRep(IntMatrix(((1, -1), (1, 0))), 6)
    assert rotation.char_poly == (1, -1, 1)
    assert_coefficient_tuple(rotation.char_poly, rotation.dimension)
    # the check rejects a list, a tuple one term short or one term long, and
    # coefficients that are not exact ints
    for bad in ([1, -1, 1], (1, -1), (1, -1, True), (1.0, -1, 1), (1, -1, 1, 0)):
        with pytest.raises(AssertionError):
            assert_coefficient_tuple(bad, 2)


def test_trace_char_poly_and_det_match_oracles_on_holonomy_sweep():
    for n in range(2, 7):
        for g in range(1, 4):
            rep = holonomy_rep(n, g)
            assert_coefficient_tuple(rep.char_poly, rep.dimension)
            assert rep.char_poly == faddeev_leverrier_char_poly(rep.matrix)
            assert rep.det == rep.matrix.det() == 1  # the echelon kernel
            if rep.dimension <= 6:
                assert rep.char_poly == char_poly_by_cofactors(rep.matrix)


def test_echelon_det_and_rank_on_holonomy_sweep():
    # det(H) and the beta_1 cross-check dim - rank(H - I) both read the echelon kernel
    for n in range(2, 9):
        for g in range(1, 5):
            rep = holonomy_rep(n, g)
            m = rep.dimension
            assert rep.matrix.det() == rep.det == 1
            assert m - (rep.matrix - IntMatrix.identity(m)).rank() == betti_numbers(rep)[1] == 2 * g


def test_trace_char_poly_and_det_match_oracles_off_holonomy():
    odd = block_diag(companion_x_pow_minus_one(3), diag(1), diag(-1))
    for rep in [
        CyclicRep(diag(-1, 1), 2),
        CyclicRep(companion_x_pow_minus_one(3), 3),
        CyclicRep(IntMatrix.identity(4), 1),
        CyclicRep(IntMatrix.identity(2), 2),  # declared order a multiple of the exact order
        CyclicRep(odd, 6),  # dimension 5
    ]:
        assert rep.char_poly == faddeev_leverrier_char_poly(rep.matrix) == char_poly_by_cofactors(rep.matrix)
        assert rep.det == rep.matrix.det()
        assert orientability(rep) == (rep.matrix.det() == 1)
        report = invariant_report(rep)
        assert report["char_poly"] == list(char_poly_by_cofactors(rep.matrix))
        assert report["det"] == rep.matrix.det()
    assert CyclicRep(diag(-1, 1), 2).det == -1


def test_power_traces_stop_at_the_exact_order():
    assert holonomy_rep(3, 1).power_traces == (6, 0, 0)
    assert CyclicRep(IntMatrix.identity(3), 10**12).power_traces == (3,)
    # averaging over the exact order gives the declared order's average
    assert betti_numbers(CyclicRep(IntMatrix.identity(2), 10**12)) == (1, 2, 1)
    with pytest.raises(ValueError):
        CyclicRep(diag(-1, -1), 3)  # order 2 does not divide 3
    with pytest.raises(ValueError):
        CyclicRep(companion_x_pow_minus_one(3), 2)


def test_cyclotomic_index_must_divide_the_order(monkeypatch):
    import surfbraid.invariants as invariants_module

    monkeypatch.setattr(invariants_module, "_multiplicities_by_characters",
                        lambda traces, char_poly: {1: 1, 3: 1})
    with pytest.raises(ValueError, match="cyclotomic index 3"):
        CyclicRep(diag(-1, -1, 1), 2)


def test_invariant_report_needs_at_most_order_products(monkeypatch):
    calls = 0
    original = IntMatrix.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    for n, g in [(2, 1), (3, 2), (4, 2), (6, 1), (8, 1)]:
        matrix = make_bieberbach(n, g).holonomy_matrix()
        calls = 0
        rep = CyclicRep(matrix, n)
        invariant_report(rep)
        assert calls <= rep.order


def test_verification_error_is_not_a_domain_error():
    assert issubclass(VerificationError, RuntimeError)
    assert not issubclass(VerificationError, ValueError)
    assert _elementary_symmetric_from_traces([2, 2], 2) == [1, 2, 1]
    with pytest.raises(VerificationError):
        _elementary_symmetric_from_traces([1, 0], 2)  # e_2 = 1/2


def test_newton_check_survives_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from surfbraid.invariants import _elementary_symmetric_from_traces\n"
        "_elementary_symmetric_from_traces([1, 0], 2)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert res.returncode != 0
    assert "VerificationError" in res.stderr


def test_infinite_order_matrix_is_rejected_within_max_of_dimension_and_trace_period_products(monkeypatch):
    calls = 0
    original = IntMatrix.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_mul)
    cases = [
        int_matrix([[1, 1], [0, 1]]),  # unipotent: cyclotomic char poly, infinite order
        int_matrix([[2, 1], [1, 1]]),  # hyperbolic: char poly not cyclotomic
        block_diag(int_matrix([[0, -1], [1, 0]]), int_matrix([[1, 1], [0, 1]])),
    ]
    for matrix in cases:
        calls = 0
        with pytest.raises(ValueError):
            CyclicRep(matrix, 10**5)
        assert calls <= matrix.nrows + 2
    # infinite order, every eigenvalue a root of unity: the power sums of
    # Phi_5 + Phi_3 + a Jordan block have period P = 15 > dim + 1 = 9, and the
    # chain runs to the period before the order check rejects it, at an
    # order divisible by P and at one that is not
    jordan = block_diag(cyclotomic_companion(5), cyclotomic_companion(3), int_matrix([[1, 1], [0, 1]]))
    for order in (15, 150_000, 10**6):
        calls = 0
        with pytest.raises(ValueError):
            CyclicRep(jordan, order)
        assert calls <= max(jordan.nrows + 1, 15)
    # finite order above the dimension: the bound is the exact order, 6 here
    calls = 0
    rep = CyclicRep(int_matrix([[1, -1], [1, 0]]), 6 * 10**4)
    assert len(rep.power_traces) == 6 and calls <= 6
    with pytest.raises(ValueError):  # order 6 does not divide 10^5
        CyclicRep(int_matrix([[1, -1], [1, 0]]), 10**5)


def test_rejection_without_a_period_takes_no_recurrence_run(monkeypatch):
    # At order 10^6 each of these is rejected within dim + 1 products, and
    # the power-sum recurrence stops at once: a singular matrix fails the
    # |det| = 1 test before any step, the unipotent one repeats its first
    # window, and the others reach a power sum above the dimension within a
    # few steps.  Every multiplication of the recurrence (and of Newton's
    # identities) goes through the module's mul.
    import surfbraid.invariants as invariants_module

    products = multiplications = 0
    original_product, original_mul = IntMatrix.__mul__, invariants_module.mul

    def counting_product(self, other):
        nonlocal products
        products += 1
        return original_product(self, other)

    def counting_mul(a, b):
        nonlocal multiplications
        multiplications += 1
        return original_mul(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", counting_product)
    monkeypatch.setattr(invariants_module, "mul", counting_mul)
    lehmer = companion(1, 1, 0, -1, -1, -1, -1, -1, 0, 1)  # Lehmer's degree-10 Salem polynomial
    for matrix in [int_matrix([[1, 1], [0, 1]]), int_matrix([[2, 1], [1, 1]]), lehmer,
                   int_matrix([[0, 1], [0, 0]]), diag(0, 1)]:
        products = multiplications = 0
        with pytest.raises(ValueError, match="does not have order dividing 1000000"):
            CyclicRep(matrix, 10**6)
        assert products <= matrix.nrows + 1
        assert multiplications <= 2 * matrix.nrows * (matrix.nrows + 1)  # Newton takes half of it


def random_unimodular_pair(rng, m):
    """A random U in GL(m, Z) and its inverse, from 3m elementary operations:
    U gains s * row j in row i, and U^-1 loses s * column i from column j."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [row[:] for row in u]
    for _ in range(3 * m if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        for row in v:
            row[j] -= s * row[i]
    return int_matrix(u), int_matrix(v)


def test_trace_period_is_the_lcm_of_the_cyclotomic_indices():
    # Random unimodular conjugates of block sums of Phi_d companions (total
    # degree <= 10) whose exact order L exceeds the dimension, so the chain
    # is cut: the period is sympy's lcm of the cyclotomic indices, at the
    # order L and at 2L; no period lies below L; and L does not divide L + 1.
    rng = random.Random(2611)
    blocks = {d: cyclotomic_companion(d) for d in range(1, 31) if totient(d) <= 10}
    tried = 0
    while tried < 60:
        chosen = []
        while sum(map(totient, chosen)) < rng.randint(1, 10):
            chosen.append(rng.choice([d for d in blocks if totient(d) + sum(map(totient, chosen)) <= 10]))
        base = block_diag(*[blocks[d] for d in chosen])
        m, order = base.nrows, math.lcm(*chosen)
        if order <= m:
            continue
        tried += 1
        u, v = random_unimodular_pair(rng, m)
        assert u * v == IntMatrix.identity(m)
        matrix = u * base * v
        rep = CyclicRep(matrix, order)
        expected = math.lcm(*sympy_cyclotomic_multiplicities(rep.char_poly))
        assert len(rep.power_traces) == expected == order
        head = list(rep.power_traces[:m + 1])
        assert _trace_period(head, rep.char_poly, order) == _trace_period(head, rep.char_poly, 2 * order) == order
        assert _trace_period(head, rep.char_poly, order - 1) == 0
        with pytest.raises(ValueError, match="does not have order dividing"):
            CyclicRep(matrix, order + 1)


def test_trace_period_of_infinite_order_matrices():
    # Eigenvalues all roots of unity but not diagonalizable: the power sums
    # are periodic all the same, and the period is the lcm of the indices;
    # any other polynomial has no period.
    def period(matrix, order):
        traces = [matrix.nrows]
        power = matrix
        for _ in range(matrix.nrows):
            traces.append(power.trace())
            power = matrix * power
        char_poly = faddeev_leverrier_char_poly(matrix)
        return _trace_period(traces, char_poly, order)

    jordan = int_matrix([[1, 1], [0, 1]])
    assert period(jordan, 10) == 1
    assert period(block_diag(cyclotomic_companion(5), cyclotomic_companion(3), jordan), 10**6) == 15
    assert period(block_diag(cyclotomic_companion(4), int_matrix([[-1, 1], [0, -1]])), 10**6) == 4
    assert period(int_matrix([[2, 1], [1, 1]]), 10**6) == 0
    assert period(int_matrix([[0, 1], [0, 0]]), 10**6) == 0
    assert period(diag(2, -1), 10**6) == 0


def test_char_poly_and_its_factors_are_derived_once_per_rep(monkeypatch):
    import surfbraid.invariants as invariants_module

    calls = Counter()

    def counting(name):
        original = getattr(invariants_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(invariants_module, name, wrapper)

    for name in ("_char_poly", "_multiplicities_by_characters", "_trace_period"):
        counting(name)
    # a holonomy chain closes before dim + 1 products and needs no period; the
    # second chain is cut at dim + 1, where the period of its power sums bounds
    # the chain, and its multiplicities too come from the characters
    cases = [(make_bieberbach(4, 2).holonomy_matrix(), 4, {1: 4, 2: 4, 4: 4}, 0),
             (int_matrix([[1, -1], [1, 0]]), 6 * 10**4, {6: 1}, 1)]
    for matrix, order, factors, periods in cases:
        calls.clear()
        assert CyclicRep(matrix, order).cyclotomic == factors
        assert calls == Counter({"_char_poly": 1, "_multiplicities_by_characters": 1,
                                 "_trace_period": periods})


ROTATIONS = {3: int_matrix([[0, -1], [1, -1]]), 4: int_matrix([[0, -1], [1, 0]]), 6: int_matrix([[1, -1], [1, 0]])}


def character_cases():
    """Every holonomy rep with n <= 8 and g <= 4, every block sum of one to
    three of the order-1/2/3/4/6 rotations at the lcm of their orders, and
    the companions of x^k - 1 for k <= 12."""
    reps = [holonomy_rep(n, g) for n in range(2, 9) for g in range(1, 5)]
    blocks = [(diag(1), 1), (diag(-1), 2), (ROTATIONS[3], 3), (ROTATIONS[4], 4), (ROTATIONS[6], 6)]
    for size in (1, 2, 3):
        for chosen in itertools.combinations_with_replacement(blocks, size):
            reps.append(CyclicRep(block_diag(*[b for b, _ in chosen]), math.lcm(*[d for _, d in chosen])))
    reps += [CyclicRep(companion_x_pow_minus_one(k), k) for k in range(1, 13)]
    return reps


def test_multiplicities_by_characters_match_factoring_and_sympy():
    for rep in character_cases():
        mults = rep.cyclotomic
        assert mults == sympy_cyclotomic_multiplicities(rep.char_poly)
        assert list(mults) == sorted(mults) and all(rep.order % d == 0 and k > 0 for d, k in mults.items())
        assert sum(totient(d) * k for d, k in mults.items()) == rep.dimension
    assert CyclicRep(companion_x_pow_minus_one(12), 12).cyclotomic == {d: 1 for d in (1, 2, 3, 4, 6, 12)}


MUTATION_REPS = [
    (make_bieberbach(4, 2).holonomy_matrix(), 4),
    (make_bieberbach(6, 1).holonomy_matrix(), 6),
    (block_diag(ROTATIONS[3], ROTATIONS[4], ROTATIONS[6], diag(-1)), 12),
    (ROTATIONS[6], 6 * 10**4),  # a chain cut at dim + 1 products
    (IntMatrix.identity(3), 1),  # p = 1: one trace, one character
]


@pytest.mark.parametrize("matrix, order", MUTATION_REPS)
def test_a_trace_off_by_one_is_rejected(matrix, order):
    rep = CyclicRep(matrix, order)
    traces = list(rep.power_traces)
    for j in range(len(traces)):
        for delta in (1, -1):
            mutated = traces[:j] + [traces[j] + delta] + traces[j + 1:]
            with pytest.raises(VerificationError):
                _multiplicities_by_characters(mutated, rep.char_poly)


@pytest.mark.parametrize("matrix, order", MUTATION_REPS)
def test_a_dropped_divisor_is_rejected(matrix, order, monkeypatch):
    import surfbraid.invariants as invariants_module

    real = invariants_module._rational_characters
    for d in CyclicRep(matrix, order).cyclotomic:
        monkeypatch.setattr(invariants_module, "_rational_characters",
                            lambda p: tuple([row for row in real(p) if row[0] != d]))
        with pytest.raises(VerificationError):
            CyclicRep(matrix, order)


@pytest.mark.parametrize("matrix, order", MUTATION_REPS)
def test_a_flipped_ramanujan_sign_is_rejected(matrix, order, monkeypatch):
    # every single sign flip that changes a character sum: c_d(h) != 0 on a
    # class gcd(j, p) = h whose traces do not sum to 0
    import surfbraid.invariants as invariants_module

    rep = CyclicRep(matrix, order)
    p = len(rep.power_traces)
    divisors = [h for h in range(1, p + 1) if p % h == 0]
    class_sums = [sum([t for j, t in enumerate(rep.power_traces) if math.gcd(j, p) == h]) for h in divisors]
    real = invariants_module._rational_characters
    flips = 0
    for index, (d, phi, character) in enumerate(real(p)):
        for i, (c, class_sum) in enumerate(zip(character, class_sums)):
            if c * class_sum == 0:
                continue
            flipped = (d, phi, character[:i] + (-c,) + character[i + 1:])
            monkeypatch.setattr(invariants_module, "_rational_characters",
                                lambda p: real(p)[:index] + (flipped,) + real(p)[index + 1:])
            with pytest.raises(VerificationError):
                CyclicRep(matrix, order)
            flips += 1
    assert flips > 0


def test_rational_characters_are_the_ramanujan_sums():
    # Kluyver's formula c_d(j) = sum over e | gcd(d, j) of e mu(d/e), with
    # sympy's Moebius function, at the class representatives j = h | p
    for p in range(1, 31):
        divisors = [h for h in range(1, p + 1) if p % h == 0]
        table = _rational_characters(p)
        assert [d for d, _, _ in table] == divisors
        for d, phi, character in table:
            assert phi == totient(d)
            assert list(character) == [sum([e * int(sympy.mobius(d // e)) for e in range(1, d + 1)
                                            if math.gcd(d, h) % e == 0]) for h in divisors]


def test_a_polynomial_equal_only_at_x0_is_rejected():
    # (x - 1)^2 + (x - 16) agrees with (x - 1)^2 at x0 = 2^(2 + 2) = 16; its
    # coefficient -15 exceeds 2^2, the bound that makes x0 decide equality
    assert _multiplicities_by_characters((2,), (1, -2, 1)) == {1: 2}
    with pytest.raises(VerificationError, match="coefficients must be at most 2\\^dim"):
        _multiplicities_by_characters((2,), (-15, -1, 1))
    with pytest.raises(VerificationError, match="product of its cyclotomic factors"):
        _multiplicities_by_characters((2,), (1, -1, 1))
    with pytest.raises(VerificationError, match="total degree 3, got 2"):
        _multiplicities_by_characters((2,), (-1, 3, -3, 1))


def test_character_mutants_are_rejected_under_python_O():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from surfbraid import invariants\n"
        "from surfbraid.bieberbach import make_bieberbach\n"
        "from surfbraid.errors import VerificationError\n"
        "matrix = make_bieberbach(4, 2).holonomy_matrix()\n"
        "rep = invariants.CyclicRep(matrix, 4)\n"
        "real_characters, real_mobius = invariants._rational_characters, invariants._mobius\n"
        "def trace_off_by_one():\n"
        "    invariants._multiplicities_by_characters((16, 1) + rep.power_traces[2:], rep.char_poly)\n"
        "def dropped_divisor():\n"
        "    invariants._rational_characters = lambda p: real_characters(p)[:-1]\n"
        "    invariants.CyclicRep(matrix, 4)\n"
        "def flipped_sign():\n"
        "    invariants._rational_characters = real_characters.__wrapped__\n"
        "    invariants._mobius = lambda n: -real_mobius(n) if n > 1 else 1\n"
        "    invariants.CyclicRep(matrix, 4)\n"
        "for mutant in (trace_off_by_one, dropped_divisor, flipped_sign):\n"
        "    try:\n"
        "        mutant()\n"
        "    except VerificationError:\n"
        "        print(mutant.__name__, 'rejected')\n"
    )
    res = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n") == ["trace_off_by_one rejected", "dropped_divisor rejected",
                                      "flipped_sign rejected", ""]


def test_betti_numbers_match_the_per_element_newton_reference():
    for n in range(2, 9):
        for g in range(1, 5):
            rep = holonomy_rep(n, g)
            assert betti_numbers(rep) == reference_betti_numbers(rep)
    r3, r4, r6 = ROTATIONS[3], ROTATIONS[4], ROTATIONS[6]
    for matrix, order in [
        (block_diag(r3, r4, r6), 12),
        (block_diag(r3, r3, r4, diag(1)), 12),
        (block_diag(r6, r6, diag(-1), diag(1)), 6),
        (block_diag(r4, diag(-1, -1, 1)), 4),
        (block_diag(r3, companion_x_pow_minus_one(3)), 3),
        (r6, 6 * 10**3),
        (diag(-1, -1, -1), 2),
    ]:
        rep = CyclicRep(matrix, order)
        assert betti_numbers(rep) == reference_betti_numbers(rep)


@settings(DERANDOMIZED, max_examples=300)
@given(st.lists(st.integers(-40, 40), max_size=9))
def test_dot_product_newton_matches_the_term_by_term_loop(power_sums):
    # most random power sums make some division by k inexact: the check must fire there
    m = len(power_sums)
    try:
        expected = reference_elementary_symmetric(power_sums, m)
    except ArithmeticError as exc:
        with pytest.raises(VerificationError, match=rf"\({exc}\)"):
            _elementary_symmetric_from_traces(power_sums, m)
    else:
        assert _elementary_symmetric_from_traces(power_sums, m) == expected


@settings(DERANDOMIZED, max_examples=100)
@given(st.lists(st.sampled_from([1, -1, 0]), min_size=1, max_size=12))
def test_dot_product_newton_on_exact_power_sums(eigenvalues):
    # power sums of roots of unity +-1, 0: every division is exact
    m = len(eigenvalues)
    power_sums = [sum([v**s for v in eigenvalues]) for s in range(1, m + 1)]
    assert _elementary_symmetric_from_traces(power_sums, m) == reference_elementary_symmetric(power_sums, m)


def test_newton_needs_m_power_sums():
    with pytest.raises(ValueError, match="need 3 power sums"):
        _elementary_symmetric_from_traces([2, 2], 3)


@pytest.mark.parametrize("n, g, passes", [(4, 2, 3), (8, 2, 4)])
def test_betti_runs_newton_once_per_distinct_power_sum_sequence(n, g, passes, monkeypatch):
    # counted over construction and report: the j = 1 sequence that gave the
    # characteristic polynomial is not run through Newton again
    import surfbraid.invariants as invariants_module

    seen = []
    original = invariants_module._elementary_symmetric_from_traces

    def recording(power_sums, m):
        seen.append(tuple(power_sums))
        return original(power_sums, m)

    monkeypatch.setattr(invariants_module, "_elementary_symmetric_from_traces", recording)
    rep = holonomy_rep(n, g)
    betti = invariant_report(rep)["betti"]
    p, m = len(rep.power_traces), rep.dimension
    distinct = {tuple([rep.power_traces[(j * s) % p] for s in range(1, m + 1)]) for j in range(p)}
    assert len(seen) == len(set(seen)) == len(distinct) == passes
    assert set(seen) == distinct
    assert tuple(betti) == reference_betti_numbers(rep)
