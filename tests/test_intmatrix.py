import copy
import itertools
import pickle
import random
from functools import reduce
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.bieberbach import make_bieberbach
from surfbraid.intmatrix import IntMatrix
from surfbraid.invariants import CyclicRep, invariant_report

from helpers import (
    DERANDOMIZED,
    bareiss_det,
    char_poly_by_cofactors,
    cofactor_det,
    faddeev_leverrier_char_poly,
    gcd_rank,
    int_matrix,
    matmul_by_triple_loop,
    power_traces_by_triple_loop,
    smith_invariant_factors,
)


def random_matrix(rng, m, bound=4):
    return int_matrix([[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)])


def sparse_random_matrix(rng, nrows, ncols, density=0.3, bound=5):
    return int_matrix(
        [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def companion_of_x_pow_minus_one(n):
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1] = 1
    for j in range(1, n):
        rows[j][j - 1] = 1
    return int_matrix(rows)


def test_shape_validation():
    for rows in (((1, 2), (3,)), [(1, 0), (0, 1)], ((1, 0), [0, 1]), ((1, 0), 1)):
        with pytest.raises(ValueError):
            IntMatrix.from_rows(rows)
    with pytest.raises(ValueError):
        int_matrix([[1, 2]]).det()


@pytest.mark.parametrize("rows", [((1.5, 0), (0, True)), ((1, 0), (0, 2.0)), ((False, 0), (0, 1)), (("1",),)])
def test_entries_are_rejected_never_coerced(rows):
    # bad input, not a failed internal check (VerificationError) further on
    with pytest.raises(ValueError, match="integers"):
        IntMatrix.from_rows(rows).det()


@pytest.mark.parametrize("ncols, entries", [
    (True, ()), (2.0, ()), ("2", ()), (-1, ()), (None, ()),  # the column count
    (2, [((0, 1),)]), (2, (((0, 1),), [(1, 1)])), (2, ((0, 1),)),  # rows not a tuple of tuples
    (2, (((0,),),)), (2, (((0, 1, 2),),)), (2, ([0, 1],)),  # entries not pairs
    (2, (((0, 1.0),),)), (2, (((0, True),),)), (2, (((False, 1),),)), (2, ((("0", 1),),)),  # not integers
    (2, (((0, 0),),)),  # a stored zero
    (2, (((2, 1),),)), (2, (((-1, 1),),)), (0, (((0, 1),),)),  # a column outside [0, ncols)
    (3, (((1, 1), (0, 1)),)), (3, (((1, 1), (1, 2)),)),  # columns not increasing
])
def test_the_constructor_checks_the_stored_form(ncols, entries):
    with pytest.raises(ValueError):
        IntMatrix(ncols, entries)


def test_the_stored_form_drops_zeros_and_the_dense_view_restores_them():
    a = IntMatrix.from_rows(((0, 3, 0), (0, 0, 0), (-1, 0, 2)))
    assert (a.ncols, a.entries) == (3, (((1, 3),), (), ((0, -1), (2, 2))))
    assert a.rows == ((0, 3, 0), (0, 0, 0), (-1, 0, 2)) and a.to_json_obj() == [[0, 3, 0], [0, 0, 0], [-1, 0, 2]]
    rng = random.Random(37)
    for _ in range(50):
        b = sparse_random_matrix(rng, rng.randint(0, 5), rng.randint(0, 5), density=rng.choice([0.0, 0.3, 1.0]))
        assert IntMatrix.from_rows(b.rows) == b and IntMatrix(b.ncols, b.entries) == b


def test_a_row_that_cancels_to_zero_equals_and_hashes_like_the_zero_matrix():
    product = int_matrix([[1, 1]]) * int_matrix([[1], [-1]])
    zero = int_matrix([[0]])
    assert product == zero and hash(product) == hash(zero) and product.entries == ((),)
    difference = int_matrix([[2, -1], [0, 3]]) - int_matrix([[2, -1], [0, 3]])
    assert difference == int_matrix([[0, 0], [0, 0]]) == IntMatrix(2, ((), ()))
    assert hash(difference) == hash(IntMatrix(2, ((), ())))


def test_empty_and_zero_matrices_of_different_shapes_are_unequal():
    shapes = {(0, 0): IntMatrix(0, ()), (2, 0): IntMatrix(0, ((), ())), (0, 2): IntMatrix(2, ()),
              (1, 1): int_matrix([[0]]), (1, 2): int_matrix([[0, 0]]), (2, 1): int_matrix([[0], [0]])}
    for shape, m in shapes.items():
        assert (m.nrows, m.ncols) == shape
    for a, b in itertools.combinations(shapes.values(), 2):
        assert a != b and not a == b
    assert len(set(shapes.values())) == len(shapes)


def test_pickling_and_copying_keep_equality_and_hash():
    h = make_bieberbach(8, 2).holonomy_matrix()
    for clone in [copy.copy(h), copy.deepcopy(h)] + [
            pickle.loads(pickle.dumps(h, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(clone) is IntMatrix and clone == h and hash(clone) == hash(h)
        assert clone.entries == h.entries and clone.ncols == h.ncols
        assert clone * h == h * h and clone - h == h - h


def test_holonomy_to_report_reads_no_dense_row(monkeypatch):
    # the stored entries are the one form on the path from the holonomy
    # matrix to the invariant report: no step there builds a dense row
    def report():
        return invariant_report(CyclicRep(make_bieberbach(8, 2).holonomy_matrix(), 8))

    expected = report()

    def refuse(self):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(IntMatrix, "rows", property(refuse))
    assert report() == expected


def test_arithmetic_builds_matrices_without_validation(monkeypatch):
    rng = random.Random(31)
    a, b = random_matrix(rng, 4), random_matrix(rng, 4)

    def results():
        return [a * b, a - b, a * a * a, IntMatrix.identity(4)]

    expected = results()

    def refuse(self):
        raise AssertionError("IntMatrix.__post_init__ ran on an arithmetic result")

    monkeypatch.setattr(IntMatrix, "__post_init__", refuse)
    assert results() == expected


@pytest.mark.parametrize("op", ["__sub__"])
def test_sum_and_difference_need_equal_shapes(op):
    a = int_matrix([[1, 2], [3, 4]])
    for b in (int_matrix([[1]]), int_matrix([[1, 2]]), int_matrix([[1], [2]]), IntMatrix.from_rows(())):
        with pytest.raises(ValueError, match="shapes differ"):
            getattr(a, op)(b)
        with pytest.raises(ValueError, match="shapes differ"):
            getattr(b, op)(a)


@pytest.mark.parametrize("other", [True, 2, 2.0, ((1,),)])
def test_product_rejects_an_operand_that_is_not_a_matrix(other):
    # bad input, not an AttributeError from deep inside the product or difference
    with pytest.raises(ValueError, match="multiplies only an IntMatrix"):
        int_matrix([[1]]) * other
    with pytest.raises(ValueError, match="subtracts only an IntMatrix"):
        int_matrix([[1]]) - other


def test_product_and_power():
    a = int_matrix([[1, 1], [0, 1]])
    assert a * a == int_matrix([[1, 2], [0, 1]])
    assert reduce(mul, [a] * 5) == int_matrix([[1, 5], [0, 1]])
    assert a * IntMatrix.identity(2) == IntMatrix.identity(2) * a == a
    assert (a - a) == int_matrix([[0, 0], [0, 0]])
    assert a.trace() == 2


def test_sparse_product_against_triple_loop_oracle():
    rng = random.Random(97)
    for _ in range(200):
        p, q, r = (rng.randint(1, 7) for _ in range(3))
        a = sparse_random_matrix(rng, p, q, density=rng.choice([0.0, 0.15, 0.4, 1.0]))
        b = sparse_random_matrix(rng, q, r, density=rng.choice([0.0, 0.15, 0.4, 1.0]))
        assert a * b == matmul_by_triple_loop(a, b)
    with pytest.raises(ValueError):
        int_matrix([[1, 2]]) * int_matrix([[1, 2]])


def test_sparse_product_keeps_big_integers_exact():
    big = 10**30
    a = int_matrix([[big, 0], [0, -big]])
    b = int_matrix([[big + 1, 3], [0, big]])
    assert a * b == matmul_by_triple_loop(a, b)
    assert (a * b).rows[0][0] == big * (big + 1)


def signed_permutation_matrix(rng, m, signs=(1,)):
    images = list(range(m))
    rng.shuffle(images)
    return int_matrix([[rng.choice(signs) if j == images[i] else 0 for j in range(m)] for i in range(m)])


def test_product_of_permutation_and_signed_permutation_matrices_against_triple_loop():
    rng = random.Random(211)
    for _ in range(60):
        m = rng.randint(1, 7)
        p = signed_permutation_matrix(rng, m)
        s = signed_permutation_matrix(rng, m, signs=(1, -1))
        a = sparse_random_matrix(rng, m, rng.randint(1, 6), density=0.5)
        for x, y in [(p, a), (s, a), (p, s), (s, p), (p, p), (s, s)]:
            assert x * y == matmul_by_triple_loop(x, y)
        # a unit row takes the right operand's row tuple itself
        assert all([row is a.entries[r[0][0]] for row, r in zip((p * a).entries, p.entries)])


def test_product_rows_with_one_nonzero_entry_against_triple_loop():
    rng = random.Random(223)
    for value in (1, -1, 3, -7, 10**20):
        for _ in range(20):
            nrows, ncols, width = (rng.randint(1, 6) for _ in range(3))
            rows = [[0] * ncols for _ in range(nrows)]
            for row in rows:
                row[rng.randrange(ncols)] = value
            a = int_matrix(rows)
            b = sparse_random_matrix(rng, ncols, width, density=0.6)
            assert a * b == matmul_by_triple_loop(a, b)


def test_product_with_zero_rows_and_non_square_shapes_against_triple_loop():
    rng = random.Random(227)
    for _ in range(100):
        p, q, r = (rng.randint(1, 7) for _ in range(3))
        rows = [[rng.choice([0, 0, 1, -1, 2]) for _ in range(q)] for _ in range(p)]
        for i in rng.sample(range(p), rng.randint(0, p)):
            rows[i] = [0] * q
        a = int_matrix(rows)
        b = sparse_random_matrix(rng, q, r, density=rng.choice([0.0, 0.5, 1.0]))
        assert a * b == matmul_by_triple_loop(a, b)
        assert (a * b).nrows == p and (a * b).ncols == r
    zero = int_matrix([[0, 0, 0], [0, 0, 0]])
    assert zero * int_matrix([[1], [2], [3]]) == int_matrix([[0], [0]])


def test_holonomy_products_and_power_traces_against_triple_loop():
    for n in range(2, 9):
        for g in range(1, 5):
            h = make_bieberbach(n, g).holonomy_matrix()
            power = h
            for _ in range(n):
                expected = matmul_by_triple_loop(h, power)
                assert h * power == expected
                power = expected
            assert power == h  # h has order n
            assert CyclicRep(h, n).power_traces == power_traces_by_triple_loop(h)


@pytest.mark.parametrize("m", ["3", None, 3.0, True, -1])
def test_identity_rejects_a_dimension_that_is_not_an_int(m):
    # a bool would be stored as the column count
    with pytest.raises(ValueError, match="dimension must be an integer"):
        IntMatrix.identity(m)


def test_identity_and_trace():
    for m in range(6):
        identity = IntMatrix.identity(m)
        assert identity == int_matrix([[int(i == j) for j in range(m)] for i in range(m)])
        assert identity.trace() == m
    assert int_matrix([[1, 2], [3, -4]]).trace() == -3


def test_det_against_cofactor_oracle():
    rng = random.Random(79)
    for m in range(1, 6):
        for _ in range(20):
            a = random_matrix(rng, m)
            assert a.det() == cofactor_det([list(r) for r in a.rows])
    singular = int_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert singular.det() == 0


def test_det_of_sparse_and_permutation_matrices_against_cofactor_oracle():
    # the echelon's sign counts both its swaps and the order its pivot rows
    # are left in; permutation-like and zero-row matrices exercise both
    rng = random.Random(233)
    for m in range(1, 7):
        for _ in range(20):
            for a in (signed_permutation_matrix(rng, m, signs=(1, -1, 2)),
                      sparse_random_matrix(rng, m, m, density=rng.choice([0.2, 0.4]))):
                assert a.det() == cofactor_det([list(r) for r in a.rows])
                assert a.rank() == len(smith_invariant_factors([list(r) for r in a.rows]))


def test_rank():
    assert IntMatrix.identity(4).rank() == 4
    assert int_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 5]]).rank() == 2
    assert int_matrix([[0, 0], [0, 0]]).rank() == 0
    assert int_matrix([[1, 2, 3], [0, 1, 1]]).rank() == 2


def test_rank_against_smith_oracle():
    # the rank is the number of nonzero invariant factors
    rng = random.Random(101)
    for _ in range(60):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        a = sparse_random_matrix(rng, p, q, density=rng.choice([0.2, 0.5, 1.0]), bound=3)
        assert a.rank() == len(smith_invariant_factors([list(r) for r in a.rows]))


@st.composite
def integer_matrices(draw):
    """Square and rectangular matrices, 0x0 included, with entries up to
    10**30; some all zero, some with a last row that is an integer
    combination of the first two (singular or rank-deficient)."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.one_of(st.just(nrows), st.integers(0, 5)))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    shape = draw(st.sampled_from(["any", "zero", "dependent"]))
    if shape == "zero":
        rows = [[0] * ncols for _ in range(nrows)]
    elif shape == "dependent" and nrows >= 3:
        c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
    return int_matrix(rows)


@settings(DERANDOMIZED, max_examples=400)
@given(integer_matrices())
def test_rank_and_det_match_the_reference_eliminations_and_sympy(a):
    # rank and det read one echelon kernel; the Bareiss det and the gcd-reduced
    # rank (tests/helpers.py) and sympy are three independent answers
    oracle = sympy.Matrix(a.nrows, a.ncols, [v for row in a.rows for v in row])
    assert a.rank() == gcd_rank(a) == oracle.rank()
    if a.nrows == a.ncols:
        assert a.det() == bareiss_det(a) == oracle.det()


# The library derives the characteristic polynomial only from power traces
# (surfbraid.invariants); tests/helpers.py keeps Faddeev-LeVerrier as a
# reference, checked here against cofactor expansion and sympy.


def test_char_poly_identity():
    assert faddeev_leverrier_char_poly(IntMatrix.identity(2)) == (1, -2, 1)


def test_char_poly_companion():
    for n in range(2, 7):
        assert faddeev_leverrier_char_poly(companion_of_x_pow_minus_one(n)) == (-1, *[0] * (n - 1), 1)


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(83)
    for m in range(1, 6):
        for _ in range(12):
            a = random_matrix(rng, m)
            assert faddeev_leverrier_char_poly(a) == char_poly_by_cofactors(a)


def test_char_poly_consistent_with_det():
    rng = random.Random(89)
    for m in range(1, 6):
        a = random_matrix(rng, m)
        p = faddeev_leverrier_char_poly(a)
        # det(xI - M) at x = 0 is (-1)^m det(M)
        assert p[0] == (-1) ** m * a.det()
        assert p[-1] == 1 and len(p) == m + 1


@st.composite
def small_square_matrices(draw):
    """Square matrices of size 0 to 4 with entries up to 50 in absolute value;
    some with a last row that is an integer combination of the first two, so
    singular."""
    m = draw(st.integers(0, 4))
    rows = [[draw(st.integers(-50, 50)) for _ in range(m)] for _ in range(m)]
    if m >= 3 and draw(st.booleans()):
        c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [c1 * x + c2 * y for x, y in zip(rows[0], rows[1])]
    return int_matrix(rows)


@settings(DERANDOMIZED, max_examples=200)
@given(small_square_matrices())
def test_reference_char_polys_match_sympy(a):
    x = sympy.Symbol("x")
    oracle = sympy.Matrix(a.nrows, a.ncols, [v for row in a.rows for v in row]).charpoly(x).all_coeffs()
    expected = tuple([int(c) for c in reversed(oracle)])
    assert faddeev_leverrier_char_poly(a) == char_poly_by_cofactors(a) == expected
