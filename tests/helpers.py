"""Shared test oracles, kept independent of the code paths they check:
brute-force multiplication, rational linear algebra on flattened vectors,
cofactor determinants, the Bareiss determinant, the gcd-reduced rank
elimination, the Faddeev-LeVerrier characteristic polynomial and the
cofactor one on coefficient lists, sympy for products of polynomials,
triple-loop matrix products and power traces, term-by-term Newton
identities, Betti numbers with one Newton run per group element,
Euclidean division by rescanning, Smith normal form, principal-minor
sums, the Bieberbach lattice basis and holonomy blocks written out by
hand, column-sum cycle sums, the coordinate-by-coordinate torsion scan,
the eigenvalue-pairing Kaehler criterion, the conjugacy witness composed
from two section conjugators and the search over all of S_n for a
conjugator's permutation part.  Plus the constructors only tests need:
matrices, lattice elements and Frobenius blocks from nested lists, words
from text, and Bieberbach elements from coordinates.  None of them
coerces an entry.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import sympy
from hypothesis import settings

from surfbraid import torsion
from surfbraid.bieberbach import BieberbachDescriptor, TorsionScanReport
from surfbraid.core import CoeffVector, Element, GroupDescriptor
from surfbraid.errors import InfiniteOrderError
from surfbraid.intmatrix import IntMatrix
from surfbraid.permutations import Permutation
from surfbraid.torsion import FrobeniusEmbedding, conjugating_permutation, conjugator_to_section
from surfbraid.words import normalize, parse

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 is deterministic and no earlier failure is replayed.
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None)

# The variable of the sympy polynomials that coefficient tuples are checked against.
X = sympy.Symbol("x")


def int_matrix(rows) -> IntMatrix:
    """The integer matrix with the given rows, entries taken as they are."""
    return IntMatrix(tuple([tuple(row) for row in rows]))


def lattice_element(group: GroupDescriptor, rows) -> Element:
    """The pure-lattice element with the given coefficient rows, entries
    taken as they are; the Element constructor validates the shape."""
    return Element(group, CoeffVector(tuple([tuple(row) for row in rows])), Permutation.identity(group.n))


def single_block(genus: int, r: int, params: tuple[int, int, int, int]) -> FrobeniusEmbedding:
    """The Frobenius embedding whose only nonzero parameter block is block r."""
    blocks = [(0, 0, 0, 0)] * (2 * genus)
    blocks[r - 1] = tuple(params)
    return FrobeniusEmbedding(genus, tuple(blocks))


def normalize_text(group: GroupDescriptor, text: str) -> Element:
    """The normal form of a braid word given as text."""
    return normalize(group, parse(group, text))


def element_from_coords(desc: BieberbachDescriptor, j: int, coords: tuple[int, ...]) -> Element:
    """theta * generator**j, theta the lattice vector with the given
    coordinates: theta's rows added to those of generator**j, through the
    validating Element constructor."""
    gj = desc.powers[j]
    return Element(desc.group, desc.coeffs_from_coords(coords) + gj.coeffs, gj.perm)


def random_element(rng: random.Random, group: GroupDescriptor, bound: int = 3) -> Element:
    rows = tuple(
        tuple(rng.randint(-bound, bound) for _ in range(group.handle_count))
        for _ in range(group.n)
    )
    images = list(range(1, group.n + 1))
    rng.shuffle(images)
    return Element(group, CoeffVector(rows), Permutation(tuple(images)))


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def power_by_repeated_mul(x: Element, k: int) -> Element:
    """Plain left-to-right multiplication, no squaring shortcuts."""
    assert k >= 0
    acc = Element.identity(x.group)
    for _ in range(k):
        acc = acc * x
    return acc


def order_by_repeated_mul(x: Element, cap: int) -> int | None:
    acc = x
    for k in range(1, cap + 1):
        if acc.is_identity():
            return k
        acc = acc * x
    return None


def reference_conjugacy_witness(e1: Element, e2: Element) -> Element | None:
    """The conjugacy witness composed from two walks: alpha2 * section(xi) *
    alpha1^{-1}, where alpha_i carries section(w_i) to e_i and xi is the
    least permutation with xi * w1 * xi^{-1} == w2 (every cycle sum of a
    finite-order element vanishes, so that is :func:`conjugating_permutation`);
    None when the cycle types differ.  Each walk raises InfiniteOrderError
    for an element of infinite order, e1 first."""
    alpha1 = conjugator_to_section(e1)
    alpha2 = conjugator_to_section(e2)
    xi = conjugating_permutation(e1, e2)
    if xi is None:
        return None
    return alpha2 * Element.section(e1.group, xi) * alpha1.inverse()


def brute_force_conjugating_permutations(e1: Element, e2: Element) -> list[Permutation]:
    """Every xi of S_n, in lexicographic order, that is the permutation part
    of a conjugator carrying e1 = v1 * section(w1) to e2 = v2 * section(w2):
    xi * w1 * xi^{-1} == w2, and the walk of :func:`conjugator_to_section`
    closes over (v2 - xi(v1)) * section(w2)."""
    group, w1, w2 = e1.group, e1.perm, e2.perm
    found = []
    for images in itertools.permutations(range(1, group.n + 1)):
        xi = Permutation(images)
        if xi * w1 * xi.inverse() != w2:
            continue
        try:
            conjugator_to_section(Element(group, e2.coeffs - e1.coeffs.permuted(xi), w2))
        except InfiniteOrderError:
            continue
        found.append(xi)
    return found


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths including fixed points, in decreasing order."""
    return tuple(sorted([len(c) for c in p.orbits], reverse=True))


def basis_vector(n: int, handles: int, i: int, r: int) -> CoeffVector:
    """The vector with a single 1 at strand i, handle r."""
    if not (1 <= i <= n and 1 <= r <= handles):
        raise ValueError(f"basis index ({i},{r}) out of range")
    rows = [(0,) * handles] * n
    rows[i - 1] = (0,) * (r - 1) + (1,) + (0,) * (handles - r)
    return CoeffVector(tuple(rows))


def scaled(vec: CoeffVector, k: int) -> CoeffVector:
    """k times vec, entry by entry."""
    return CoeffVector(tuple(tuple(k * v for v in row) for row in vec.rows))


def handle_sums(vec: CoeffVector) -> tuple[int, ...]:
    """Coordinate sum over strands, one integer per handle index."""
    return tuple(sum(column) for column in zip(*vec.rows))


def product_over_strands(group: GroupDescriptor, r: int, exponent: int) -> Element:
    """The pure-lattice element a[1,r]^e a[2,r]^e ... a[n,r]^e."""
    rows = [[exponent if col == r else 0 for col in range(1, group.handle_count + 1)]
            for _ in range(group.n)]
    return lattice_element(group, rows)


def reference_lattice_basis(n: int, g: int) -> list[Element]:
    """The Bieberbach lattice basis in the order of the module docstring:
    u = a[1,1] ... a[n,1], then a[i,1]^n for i >= 2, then a[j,r]^n for
    r = 2..2g and j = 1..n, built without the coordinate codec."""
    group = GroupDescriptor.orientable(n, g)
    basis = [product_over_strands(group, 1, 1)]
    for r in range(1, 2 * g + 1):
        for i in range(1 if r > 1 else 2, n + 1):
            basis.append(Element(group, scaled(basis_vector(n, 2 * g, i, r), n),
                                 Permutation.identity(n)))
    return basis


def reference_cycle_sums(x: Element) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """For each orbit of x's permutation, fixed points included, least strand
    first and orbits by least strand: the orbit and the column sums of the
    rows of x over it, added entry by entry."""
    images, rows = x.perm.images, x.coeffs.rows
    seen: set[int] = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        orbit = [start]
        while images[orbit[-1] - 1] != start:
            orbit.append(images[orbit[-1] - 1])
        seen.update(orbit)
        sums = [0] * len(rows[0])
        for c in orbit:
            for r, v in enumerate(rows[c - 1]):
                sums[r] += v
        out.append((tuple(orbit), tuple(sums)))
    return out


def reference_torsion_scan(desc: BieberbachDescriptor, bound: int) -> TorsionScanReport:
    """The coordinate-by-coordinate scan: every coordinate tuple of the box
    from itertools.product, in lexicographic order, and every residue j, each
    element built with :func:`element_from_coords` and checked with
    ``torsion.order``, element by element; ``torsion.order`` is looked up at
    call time, so a patch applies."""
    n, g = desc.n, desc.genus
    hits, mismatches, scanned = [], [], 0
    for coords in itertools.product(range(-bound, bound + 1), repeat=2 * n * g):
        handle1 = n * sum(coords[:n])
        for j in range(n):
            scanned += 1
            elt = element_from_coords(desc, j, coords)
            if torsion.order(elt).is_finite:
                obstruction = handle1 + j
                if obstruction != 0:
                    mismatches.append({"coords": list(coords), "j": j, "obstruction": obstruction})
                if not elt.is_identity():
                    hits.append({"coords": list(coords), "j": j})
    return TorsionScanReport(n, g, bound, scanned, tuple(hits), tuple(mismatches))


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    """The block-diagonal matrix with the given square blocks."""
    size = sum(b.nrows for b in blocks)
    rows = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        assert b.nrows == b.ncols
        for i, row in enumerate(b.rows):
            rows[offset + i][offset:offset + b.nrows] = row
        offset += b.nrows
    return int_matrix(rows)


def reference_holonomy_matrix(n: int, g: int) -> IntMatrix:
    """Conjugation by a[1,1] * s_1 ... s_{n-1} on the reference lattice
    basis, by hand: one n-by-n block per handle.  Handle 1 (u, a[2,1]^n, ...,
    a[n,1]^n): u is invariant, a[i,1]^n moves to a[i+1,1]^n, and a[n,1]^n
    lands on a[1,1]^n = u^n * (a[2,1]^n ... a[n,1]^n)^{-1}, giving a last
    column (n, -1, ..., -1).  Handles r >= 2 get the cyclic-shift companion
    block of x^n - 1."""
    block1 = [[0] * n for _ in range(n)]
    block1[0][0] = 1
    for j in range(2, n):  # column j holds the image of a[j,1]^n
        block1[j][j - 1] = 1
    block1[0][n - 1] = n
    for i in range(1, n):
        block1[i][n - 1] = -1
    shift = [[0] * n for _ in range(n)]
    shift[0][n - 1] = 1
    for j in range(1, n):
        shift[j][j - 1] = 1
    blocks = [int_matrix(block1)] + [int_matrix(shift)] * (2 * g - 1)
    return block_diag(*blocks)


def flatten(vec: CoeffVector) -> tuple[int, ...]:
    return tuple(v for row in vec.rows for v in row)


def rational_solve(columns: list[tuple[int, ...]], target: tuple[int, ...]) -> list[Fraction] | None:
    """Solve sum_j x_j * columns[j] == target exactly over Q, or None."""
    m, k = len(target), len(columns)
    a = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((i for i in range(row, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = 1 / a[row][col]
        a[row] = [v * inv for v in a[row]]
        for i in range(m):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
    for i in range(row, m):
        if a[i][k] != 0:
            return None
    solution = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        solution[col] = a[r][k]
    return solution


def integer_span_coords(basis: list[CoeffVector], target: CoeffVector) -> tuple[int, ...] | None:
    """Coordinates of target in the integer span of basis, or None.

    The bases used in tests are Q-linearly independent, so the rational
    solution is unique and membership reduces to integrality.
    """
    sol = rational_solve([flatten(b) for b in basis], flatten(target))
    if sol is None:
        return None
    if any(v.denominator != 1 for v in sol):
        return None
    return tuple(int(v) for v in sol)


def matrix_column(matrix: IntMatrix, j: int) -> tuple[int, ...]:
    """Column j (0-based) of an integer matrix."""
    return tuple(row[j] for row in matrix.rows)


def matrix_apply(matrix: IntMatrix, vec: tuple[int, ...]) -> tuple[int, ...]:
    """The matrix-vector product, row by row."""
    assert len(vec) == matrix.ncols
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix.rows)


def cofactor_det(rows: list[list[int]]) -> int:
    m = len(rows)
    if m == 0:
        return 1
    if m == 1:
        return rows[0][0]
    total = 0
    for j in range(m):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][jj] for jj in range(m) if jj != j] for i in range(1, m)]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def bareiss_det(matrix: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination, every division
    checked to be exact."""
    m = matrix.nrows
    assert m == matrix.ncols
    if m == 0:
        return 1
    a = [list(row) for row in matrix.rows]
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                q, r = divmod(a[i][j] * a[k][k] - a[i][k] * a[k][j], prev)
                assert r == 0, "Bareiss division must be exact"
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


def gcd_rank(matrix: IntMatrix) -> int:
    """Rank by fraction-free elimination: each row below the pivot becomes
    pivot * row - entry * pivot_row, divided by the gcd of its entries."""
    a = [list(row) for row in matrix.rows]
    rank = 0
    for col in range(matrix.ncols):
        pivot = next((i for i in range(rank, matrix.nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pivot_row = a[rank]
        p = pivot_row[col]
        for i in range(rank + 1, matrix.nrows):
            f = a[i][col]
            if f:
                row = [p * v - f * w for v, w in zip(a[i], pivot_row)]
                g = math.gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
        rank += 1
        if rank == matrix.nrows:
            break
    return rank


def char_poly_by_cofactors(matrix: IntMatrix) -> tuple[int, ...]:
    """The coefficients of det(xI - M), constant term first, via cofactor
    expansion along the first row, with each entry a plain coefficient list
    (small m only)."""

    def det(rows: list[list[list[int]]]) -> list[int]:
        if not rows:
            return [1]
        total = [0] * (len(rows) + 1)  # a k x k determinant of degree-1 entries has degree <= k
        for j, entry in enumerate(rows[0]):
            minor = det([row[:j] + row[j + 1:] for row in rows[1:]])
            for a, c in enumerate(entry):
                for b, d in enumerate(minor):
                    total[a + b] += (-1) ** j * c * d
        return total

    rows = [[[-v, 1] if i == j else [-v] for j, v in enumerate(row)] for i, row in enumerate(matrix.rows)]
    return tuple(det(rows))


def poly_from_sympy(expr) -> tuple[int, ...]:
    """The coefficients, constant term first, of a nonzero sympy expression
    or Poly in X with integer coefficients."""
    return tuple([int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())])


def poly_to_sympy(p: tuple[int, ...]) -> sympy.Poly:
    """Coefficients, constant term first, as a sympy Poly in X over the integers."""
    return sympy.Poly.from_list(list(reversed(p)), X, domain="ZZ")


def sympy_cyclotomic_multiplicities(p: tuple[int, ...]) -> dict[int, int]:
    """{d: multiplicity} of a product of cyclotomic polynomials, by sympy's
    factor_list: each irreducible factor is matched to the Phi_d of its
    degree phi(d) that it equals; any other factor fails."""
    content, factors = sympy.factor_list(poly_to_sympy(p))
    assert content == 1, content
    out = {}
    for factor, mult in factors:
        degree = factor.degree()
        index = [d for d in range(1, 2 * degree * degree + 2)
                 if sympy.totient(d) == degree and sympy.Poly(sympy.cyclotomic_poly(d, X), X) == factor]
        assert len(index) == 1, factor
        out[index[0]] = mult
    return dict(sorted(out.items()))


def faddeev_leverrier_char_poly(matrix: IntMatrix) -> tuple[int, ...]:
    """The coefficients of det(xI - M), constant term first, by the
    Faddeev-LeVerrier recurrence: c_(m-k) = -tr(M A_k)/k with A_1 = I and
    A_(k+1) = M A_k + c_(m-k) I, every division by k checked to be exact over
    the integers."""
    m = matrix.nrows
    assert m == matrix.ncols
    coeffs = [0] * (m + 1)
    coeffs[m] = 1
    aux = matrix
    for k in range(1, m + 1):
        q, r = divmod(-aux.trace(), k)
        assert r == 0, "Faddeev-LeVerrier division must be exact"
        coeffs[m - k] = q
        if k < m:
            shifted = [row[:i] + (row[i] + q,) + row[i + 1:] for i, row in enumerate(aux.rows)]
            aux = matrix * IntMatrix(tuple(shifted))
    return tuple(coeffs)


def matmul_by_triple_loop(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The textbook product: entry (i, j) is sum_k a[i][k] * b[k][j]."""
    assert a.ncols == b.nrows
    rows = [[0] * b.ncols for _ in range(a.nrows)]
    for i in range(a.nrows):
        for j in range(b.ncols):
            for k in range(a.ncols):
                rows[i][j] += a.rows[i][k] * b.rows[k][j]
    return int_matrix(rows)


def power_traces_by_triple_loop(matrix: IntMatrix) -> tuple[int, ...]:
    """(tr M^0, tr M^1, ...) up to the first power equal to the identity,
    every power a textbook product M * M^k."""
    identity = IntMatrix.identity(matrix.nrows)
    traces, power = [matrix.nrows], matrix
    while power != identity:
        traces.append(sum(power.rows[i][i] for i in range(matrix.nrows)))
        power = matmul_by_triple_loop(matrix, power)
    return tuple(traces)


def reference_elementary_symmetric(power_sums, m: int) -> list[int]:
    """Newton's identities term by term: k * e_k = sum_s (-1)^(s-1) e_(k-s) p_s,
    s = 1..k.  Raises ArithmeticError naming e_k when the division by k
    is not exact."""
    e = [1] + [0] * m
    for k in range(1, m + 1):
        acc = 0
        for s in range(1, k + 1):
            acc += (-1) ** (s - 1) * e[k - s] * power_sums[s - 1]
        q, r = divmod(acc, k)
        if r:
            raise ArithmeticError(f"e_{k}")
        e[k] = q
    return e


def reference_betti_numbers(rep) -> tuple[int, ...]:
    """beta_i = (1/p) sum_j [t^i] det(I + t M^j) over the exact order p of a
    CyclicRep's generator: Newton run for every j, on the power sums
    tr(M^(js)) read from the rep's power traces."""
    m, traces = rep.dimension, rep.power_traces
    p = len(traces)
    totals = [0] * (m + 1)
    for j in range(p):
        e = reference_elementary_symmetric([traces[(j * s) % p] for s in range(1, m + 1)], m)
        totals = [t + c for t, c in zip(totals, e)]
    assert all(t % p == 0 for t in totals)
    return tuple(t // p for t in totals)


def eigenvalue_multiplicities(rep) -> dict[int, int]:
    """Multiplicity of each eigenvalue zeta_N^k of a CyclicRep's generator,
    k = 0..N-1: as often as the cyclotomic factor of index N/gcd(N, k)."""
    mults, n = rep.cyclotomic, rep.order
    out = {k: mults.get(n // math.gcd(n, k), 0) for k in range(n)}
    assert sum(out.values()) == rep.dimension
    return out


def reference_kahler_check(rep) -> bool:
    """The eigenvalue-pairing Kaehler criterion: the real eigenvalues, zeta_N^0
    and zeta_N^(N/2) (N even), must have even multiplicities m_0 and
    m_(N/2); each conjugate pair {k, N-k} spans planes on which a rotation by
    a right angle commutes, whatever m_k is.  m_k counts the eigenvalue
    zeta_N^k."""
    m = eigenvalue_multiplicities(rep)
    n = rep.order
    for k in range(1, (n + 1) // 2):
        assert m[k] == m[n - k]
    real_mults = [m[0]] + ([m[n // 2]] if n % 2 == 0 else [])
    return all(mult % 2 == 0 for mult in real_mults)


def sum_principal_minors(matrix: IntMatrix, k: int) -> int:
    """Trace of the k-th exterior power, as an explicit sum of k x k minors."""
    m = matrix.nrows
    total = 0
    for subset in itertools.combinations(range(m), k):
        sub = [[matrix.rows[i][j] for j in subset] for i in subset]
        total += cofactor_det(sub)
    return total


def smith_invariant_factors(rows: list[list[int]]) -> list[int]:
    """Invariant factors of a small integer matrix via determinant divisors:
    s_k = gcd of all k x k minors divided by the gcd of the (k-1) x (k-1)
    minors, stopping at the rank."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    factors = []
    prev_gcd = 1
    for k in range(1, min(n_rows, n_cols) + 1):
        g = 0
        for ri in itertools.combinations(range(n_rows), k):
            for ci in itertools.combinations(range(n_cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, cofactor_det(sub))
        if g == 0:
            break
        factors.append(g // prev_gcd)
        prev_gcd = g
    return factors
