import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfbraid import torsion
from surfbraid.core import CoeffVector, Element, GroupDescriptor
from surfbraid.errors import (
    BadMultiplierError,
    BadPrimeError,
    GroupMismatchError,
    InfiniteOrderError,
    NotAnSnEmbeddingError,
    UnsupportedSurfaceError,
    VerificationError,
)
from surfbraid.permutations import Permutation
from surfbraid.torsion import (
    OrderResult,
    FrobeniusEmbedding,
    conjugacy_test,
    conjugating_permutation,
    conjugator_to_section,
    cycle_sums,
    default_multiplier,
    frobenius_conjugator,
    frobenius_embed,
    frobenius_pair,
    frobenius_torsion_element,
    multiplication_permutation,
    order,
    symmetric_copy_conjugator,
)

from helpers import (
    DERANDOMIZED,
    basis_vector,
    brute_force_conjugating_permutations,
    cycle_type,
    reference_cycle_sums,
    handle_sums,
    lattice_element,
    order_by_repeated_mul,
    power_by_repeated_mul,
    random_element,
    random_permutation,
    reference_conjugacy_witness,
    scaled,
    single_block,
)

T2 = GroupDescriptor.torus(2)
T3 = GroupDescriptor.torus(3)
FIVE_CYCLE = Permutation.from_cycles(5, (1, 2, 3, 4, 5))
DOUBLE_TRANSPOSITION = Permutation.from_cycles(5, (1, 4), (2, 3))


def a(group, i, r):
    return Element.strand_generator(group, i, r)


def psi(group, *cycles):
    return Element.section(group, Permutation.from_cycles(group.n, *cycles))


def test_cycle_power_examples():
    z = a(T2, 1, 1) * psi(T2, (1, 2))
    t = (z**2).coeffs
    assert t == CoeffVector(((1, 0), (1, 0)))
    assert t == power_by_repeated_mul(z, 2).coeffs

    z2 = psi(T3, (1, 2, 3))
    assert (z2**3).coeffs.is_zero()

    z3 = a(T2, 1, 1) * a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    assert (z3**2).coeffs.is_zero()


def test_cycle_power_matches_repeated_mul_randomized():
    rng = random.Random(97)
    for n, g in [(2, 1), (3, 2), (6, 3)]:
        group = GroupDescriptor.orientable(n, g)
        for _ in range(60):
            m = rng.randint(2, n)
            cycle = tuple(rng.sample(range(1, n + 1), m))
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(group.handle_count)) for _ in range(n)
            )
            z = Element(group, CoeffVector(rows), Permutation.from_cycles(n, cycle))
            k = m * rng.randint(1, 24 // m if m <= 24 else 1)
            assert z**k == power_by_repeated_mul(z, k)


def test_order_examples():
    rng = random.Random(101)
    w = random_permutation(rng, 5)
    group5 = GroupDescriptor.orientable(5, 2)
    assert order(Element.section(group5, w)).value == w.order()
    assert not order(a(T2, 1, 1) * psi(T2, (1, 2))).is_finite
    assert order(a(T2, 1, 1) * a(T2, 2, 1).inverse() * psi(T2, (1, 2))).value == 2


def test_order_matches_repeated_mul():
    rng = random.Random(103)
    for n, g in [(3, 1), (4, 2), (5, 1)]:
        group = GroupDescriptor.orientable(n, g)
        for _ in range(80):
            x = random_element(rng, group, bound=1)
            cap = 2 * n * n + 4
            assert order(x).value == order_by_repeated_mul(x, cap)


def test_finite_order_equals_permutation_order_and_divisors_fail():
    rng = random.Random(107)
    group = GroupDescriptor.orientable(6, 1)
    found = 0
    while found < 30:
        x = random_element(rng, group, bound=1)
        result = order(x)
        if not result.is_finite:
            continue
        found += 1
        k = result.value
        assert k == x.perm.order()
        assert (x**k).is_identity()
        for d in range(1, k):
            if k % d == 0:
                assert not (x**d).is_identity()


def test_conjugator_to_section_examples():
    w = Permutation.from_cycles(3, (1, 2, 3))
    assert conjugator_to_section(Element.section(T3, w)).is_identity()

    theta = a(T2, 1, 1) * a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    alpha = conjugator_to_section(theta)
    assert alpha.perm.is_identity()
    assert Element.section(T2, theta.perm).conjugated_by(alpha) == theta

    rng = random.Random(109)
    for _ in range(40):
        c = random_element(rng, T3)
        theta = psi(T3, (1, 2, 3)).conjugated_by(c)
        alpha = conjugator_to_section(theta)
        assert alpha.perm.is_identity()
        assert Element.section(T3, theta.perm).conjugated_by(alpha) == theta

    with pytest.raises(InfiniteOrderError):
        conjugator_to_section(a(T2, 1, 1) * psi(T2, (1, 2)))


def test_conjugating_permutation_is_lex_least():
    # over elements: the least xi of S_n whose conjugator walk closes
    rng = random.Random(113)
    for n in range(2, 6):
        group = GroupDescriptor.torus(n)
        for i in range(25):
            e1 = random_element(rng, group, bound=1)
            if i % 3 == 0:
                e2 = random_element(rng, group, bound=1)
            else:  # a conjugate, its lattice part kept small so that cycle labels repeat
                e2 = e1.conjugated_by(random_element(rng, group, bound=i % 3 - 1))
            result = conjugating_permutation(e1, e2)
            brute = brute_force_conjugating_permutations(e1, e2)
            assert result == (brute[0] if brute else None)


def test_conjugacy_examples():
    t1 = Element.section(T3, Permutation.transposition(3, 1))
    t2 = Element.section(T3, Permutation.transposition(3, 2))
    c = conjugacy_test(t1, t2)
    assert c is not None and t1.conjugated_by(c) == t2

    three = psi(T3, (1, 2, 3))
    assert conjugacy_test(t1, three) is None

    e1 = a(T2, 1, 1) * a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    e2 = psi(T2, (1, 2))
    c = conjugacy_test(e1, e2)
    assert c is not None and e1.conjugated_by(c) == e2

    # infinite order, decided by the 2-cycle sum: (1, 0) is neither (0, 0) nor (2, 0),
    # and (2, 0) + (-1, 0) is (1, 0)
    infinite = a(T2, 1, 1) * psi(T2, (1, 2))
    assert conjugacy_test(infinite, e2) is None
    assert conjugacy_test(infinite, a(T2, 1, 1) ** 2 * psi(T2, (1, 2))) is None
    other = a(T2, 1, 1) ** 2 * a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    c = conjugacy_test(infinite, other)
    assert c is not None and infinite.conjugated_by(c) == other
    with pytest.raises(GroupMismatchError):
        conjugacy_test(Element.identity(T2), Element.identity(T3))


def test_conjugacy_decides_infinite_order_whatever_the_cycle_types():
    three = psi(T3, (1, 2, 3))
    infinite_transposition = a(T3, 1, 1) * psi(T3, (1, 2))
    infinite_fixed_strand = a(T3, 3, 2) * psi(T3, (1, 2))
    rng = random.Random(139)
    for x in (infinite_transposition, infinite_fixed_strand):
        assert cycle_type(x.perm) != cycle_type(three.perm)
        for pair in ((x, three), (three, x), (x, Element.identity(T3))):
            assert conjugacy_test(*pair) is None
        for _ in range(10):
            y = x.conjugated_by(random_element(rng, T3))
            c = conjugacy_test(x, y)
            assert c is not None and x.conjugated_by(c) == y
    # one cycle type, different cycle sums on the fixed strand
    assert conjugacy_test(infinite_transposition, infinite_fixed_strand) is None


def test_conjugator_to_section_raises_exactly_on_infinite_order():
    rng = random.Random(157)
    group = GroupDescriptor.orientable(4, 2)
    for _ in range(60):
        w = random_permutation(rng, 4)
        finite = Element.section(group, w).conjugated_by(random_element(rng, group))
        for x in (finite, random_element(rng, group)):
            if order(x).is_finite:
                assert Element.section(group, x.perm).conjugated_by(conjugator_to_section(x)) == x
            else:
                with pytest.raises(InfiniteOrderError):
                    conjugator_to_section(x)


def _frobenius_sections(group, p):
    w1 = Permutation.from_cycles(p, tuple(range(1, p + 1)))
    w2 = multiplication_permutation(p, default_multiplier(p))
    return Element.section(group, w1), Element.section(group, w2)


def test_one_walk_conjugates_any_finite_generating_set():
    # conjugated Frobenius copies beyond n = 5: the walk closes on the pair
    rng = random.Random(167)
    for p in (5, 7, 11, 13):
        for g in (1, 2):
            group = GroupDescriptor.orientable(p, g)
            for _ in range(3):
                c = random_element(rng, group)
                v1, v2 = [s.conjugated_by(c) for s in _frobenius_sections(group, p)]
                alpha = conjugator_to_section(v1, v2)
                assert alpha.perm.is_identity()
                for x in (v1, v2):
                    assert Element.section(group, x.perm).conjugated_by(alpha) == x


def test_one_walk_rejects_infinite_generating_sets():
    rng = random.Random(173)
    for p in (5, 7):
        group = GroupDescriptor.torus(p)
        for _ in range(5):
            c = random_element(rng, group)
            v1, v2 = [s.conjugated_by(c) for s in _frobenius_sections(group, p)]
            i, r = rng.randint(1, p), rng.randint(1, 2)
            perturbed = Element(group, v2.coeffs + basis_vector(p, 2, i, r), v2.perm)
            with pytest.raises(InfiniteOrderError):
                conjugator_to_section(v1, perturbed)
            # each element of finite order, but no common conjugator: strand 1
            # lies on a 2-cycle or longer of w2, so the pair is infinite
            shifted = c * Element(group, basis_vector(p, 2, 1, r), Permutation.identity(p))
            v2_other = _frobenius_sections(group, p)[1].conjugated_by(shifted)
            assert order(v1).is_finite and order(v2_other).is_finite
            with pytest.raises(InfiniteOrderError):
                conjugator_to_section(v1, v2_other)


def test_one_walk_anchors_at_root_then_least_unreached_strand():
    group = GroupDescriptor.orientable(5, 2)
    rng = random.Random(179)
    zero = (0,) * 4
    for root in range(1, 6):
        for _ in range(5):
            lattice = Element(group, random_element(rng, group).coeffs, Permutation.identity(5))
            x = psi(group, (1, 2), (3, 4, 5)).conjugated_by(lattice)
            alpha = conjugator_to_section(x, root=root)
            assert alpha.coeffs.rows[root - 1] == zero
            other = 3 if root <= 2 else 1
            assert alpha.coeffs.rows[other - 1] == zero
            assert Element.section(group, x.perm).conjugated_by(alpha) == x
    for root in (0, 6, -1):
        with pytest.raises(ValueError):
            conjugator_to_section(Element.identity(group), root=root)
    for root in (True, 1.0, "1"):  # True would anchor at strand 1
        with pytest.raises(ValueError, match="root strand"):
            conjugator_to_section(Element.identity(group), root=root)


def test_one_walk_rejects_mixed_groups():
    with pytest.raises(GroupMismatchError):
        conjugator_to_section(Element.identity(T2), Element.identity(T3))
    with pytest.raises(GroupMismatchError):
        conjugator_to_section(Element.identity(T3), Element.identity(T3), Element.identity(T2))


def test_conjugacy_randomized_round_trip():
    rng = random.Random(127)
    group = GroupDescriptor.orientable(4, 2)
    for _ in range(30):
        w = random_permutation(rng, 4)
        base = Element.section(group, w)
        e1 = base.conjugated_by(random_element(rng, group))
        e2 = base.conjugated_by(random_element(rng, group))
        c = conjugacy_test(e1, e2)
        assert c is not None and e1.conjugated_by(c) == e2


def test_conjugacy_witness_is_the_composed_witness_of_two_walks():
    # One walk over the cycles of the second element gives the witness that
    # two section conjugators composed as alpha2 * section(xi) * alpha1^{-1}
    # give, and None on the same pairs.
    rng = random.Random(181)
    conjugate = 0
    for n in range(1, 9):
        for g in (1, 2, 3):
            group = GroupDescriptor.orientable(n, g)
            for _ in range(30):
                w1 = random_permutation(rng, n)
                w2 = w1 if rng.random() < 0.8 else random_permutation(rng, n)
                e1 = Element.section(group, w1).conjugated_by(random_element(rng, group))
                e2 = Element.section(group, w2).conjugated_by(random_element(rng, group))
                c = conjugacy_test(e1, e2)
                assert c == reference_conjugacy_witness(e1, e2)
                if c is not None:
                    conjugate += 1
                    assert e1.conjugated_by(c) == e2
                else:
                    assert cycle_type(w1) != cycle_type(w2)
    assert conjugate >= 500
    group = GroupDescriptor.orientable(32, 4)
    for _ in range(3):
        base = Element.section(group, random_permutation(rng, 32))
        e1, e2 = [base.conjugated_by(random_element(rng, group, bound=50)) for _ in range(2)]
        assert conjugacy_test(e1, e2) == reference_conjugacy_witness(e1, e2)


def test_conjugacy_test_is_one_walk_and_at_most_four_products(monkeypatch):
    rng = random.Random(191)
    group = GroupDescriptor.orientable(8, 2)
    base = Element.section(group, Permutation.from_cycles(8, (1, 2, 3), (4, 5), (6, 7)))
    e1, e2 = [base.conjugated_by(random_element(rng, group)) for _ in range(2)]
    products = walks = 0
    original_mul, original_walk = Element.__mul__, torsion.conjugator_to_section

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return original_mul(self, other)

    def counting_walk(*args, **kwargs):
        nonlocal walks
        walks += 1
        return original_walk(*args, **kwargs)

    monkeypatch.setattr(Element, "__mul__", counting_mul)
    monkeypatch.setattr(torsion, "conjugator_to_section", counting_walk)
    c = conjugacy_test(e1, e2)
    monkeypatch.undo()
    assert e1.conjugated_by(c) == e2
    assert walks == 1 and products <= 4


@st.composite
def elements(draw, group, bound=2):
    rows = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * group.handle_count),
                         min_size=group.n, max_size=group.n))
    images = draw(st.permutations(range(1, group.n + 1)))
    return Element(group, CoeffVector(tuple(rows)), Permutation(tuple(images)))


def groups(max_n):
    return st.builds(GroupDescriptor.orientable, st.integers(1, max_n), st.integers(1, 2))


def cycle_labels(x):
    return sorted([(len(cycle), sums) for cycle, sums in cycle_sums(x)])


@DERANDOMIZED
@given(st.data())
def test_every_conjugate_gets_a_checked_witness(data):
    # infinite order included: the labels (length, S_C) survive conjugation
    group = data.draw(groups(max_n=6))
    x, c = data.draw(elements(group)), data.draw(elements(group))
    y = x.conjugated_by(c)
    assert cycle_labels(x) == cycle_labels(y)
    witness = conjugacy_test(x, y)
    assert witness is not None and x.conjugated_by(witness) == y


@DERANDOMIZED
@given(st.data())
def test_conjugacy_agrees_with_the_search_over_s_n(data):
    group = data.draw(groups(max_n=4))
    x = data.draw(elements(group, bound=1))
    y = data.draw(elements(group, bound=1) | elements(group, bound=1).map(x.conjugated_by))
    brute = brute_force_conjugating_permutations(x, y)
    witness = conjugacy_test(x, y)
    if not brute:
        assert witness is None and cycle_labels(x) != cycle_labels(y)
    else:
        assert witness is not None and witness.perm == brute[0] and x.conjugated_by(witness) == y


@DERANDOMIZED
@given(st.data())
def test_matching_cycles_with_different_sums_makes_the_walk_raise(data):
    # two m-cycles of x with different sums, their images under xi swapped
    m, extra = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
    n = 2 * m + extra
    group = GroupDescriptor.orientable(n, data.draw(st.integers(1, 2)))
    relabel = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    cycle1, cycle2 = [tuple([relabel(i) for i in range(k + 1, k + m + 1)]) for k in (0, m)]
    w = Permutation.from_cycles(n, cycle1, cycle2)
    rows = [list(row) for row in data.draw(elements(group)).coeffs.rows]
    if sum([rows[c - 1][0] for c in cycle1]) == sum([rows[c - 1][0] for c in cycle2]):
        rows[cycle1[0] - 1][0] += 1
    x = Element(group, CoeffVector(tuple([tuple(row) for row in rows])), w)
    y = x.conjugated_by(data.draw(elements(group)))
    xi = conjugating_permutation(x, y)
    images = list(xi.images)
    for c1, c2 in zip(cycle1, cycle2):
        images[c1 - 1], images[c2 - 1] = xi(c2), xi(c1)
    swapped = Permutation(tuple(images))
    assert swapped * x.perm * swapped.inverse() == y.perm
    with pytest.raises(InfiniteOrderError):
        conjugator_to_section(Element(group, y.coeffs - x.coeffs.permuted(swapped), y.perm))


def test_a_mutated_partial_sum_never_yields_a_witness(monkeypatch):
    # The walk builds alpha from partial sums made with torsion.add.  One sum
    # off by one, at any call of the walk, must make the walk or the final
    # check fail; conjugacy_test must never return the wrong conjugator.
    group = GroupDescriptor.orientable(4, 1)
    finite = psi(group, (1, 2, 3)).conjugated_by(a(group, 2, 1) * a(group, 4, 2).inverse())
    infinite = a(group, 1, 1) * a(group, 3, 2) ** 2 * a(group, 4, 1) * psi(group, (1, 2, 3))
    conjugators = (a(group, 1, 2), a(group, 3, 1) ** 2 * psi(group, (1, 4)),
                   a(group, 2, 2) * psi(group, (2, 4, 3)))
    pairs = [(x, x.conjugated_by(c)) for x in (finite, infinite) for c in conjugators]
    true_add, calls, mutated = torsion.add, 0, 0

    def add(u, v):
        nonlocal calls
        calls += 1
        return true_add(u, v) + (calls == mutated)

    monkeypatch.setattr(torsion, "add", add)
    for x, y in pairs:
        calls, mutated = 0, 0
        assert x.conjugated_by(conjugacy_test(x, y)) == y
        reached = calls
        assert reached >= group.n * group.handle_count  # one sum per strand and coordinate
        for mutated in range(1, reached + 1):
            calls = 0
            with pytest.raises((InfiniteOrderError, VerificationError)):
                conjugacy_test(x, y)
            assert calls >= mutated


def test_symmetric_copy_trivial_images():
    images = [Element.section(T3, Permutation.transposition(3, i)) for i in (1, 2)]
    assert symmetric_copy_conjugator(T3, images).is_identity()


def test_symmetric_copy_two_strands():
    alpha = a(T2, 1, 1) * a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    x = symmetric_copy_conjugator(T2, [alpha])
    assert x.perm.is_identity()
    assert Element.section(T2, Permutation.transposition(2, 1)).conjugated_by(x) == alpha


def test_symmetric_copy_three_strands_block_one():
    # involutions with parameters a1 = 2, a2 = -1 in handle 1
    def involution(i, value):
        vec = scaled(basis_vector(3, 2, i, 1), value) + scaled(basis_vector(3, 2, i + 1, 1), -value)
        return Element(T3, vec, Permutation.transposition(3, i))

    images = [involution(1, 2), involution(2, -1)]
    x = symmetric_copy_conjugator(T3, images)
    for i, alpha in enumerate(images, start=1):
        assert Element.section(T3, Permutation.transposition(3, i)).conjugated_by(x) == alpha


def test_symmetric_copy_randomized():
    rng = random.Random(131)
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        group = GroupDescriptor.orientable(n, g)
        for _ in range(25):
            images = []
            for i in range(1, n):
                vec = CoeffVector.zero(n, group.handle_count)
                for r in range(1, group.handle_count + 1):
                    value = rng.randint(-4, 4)
                    vec = (
                        vec
                        + scaled(basis_vector(n, group.handle_count, i, r), value)
                        + scaled(basis_vector(n, group.handle_count, i + 1, r), -value)
                    )
                images.append(Element(group, vec, Permutation.transposition(n, i)))
            x = symmetric_copy_conjugator(group, images)
            for i in range(1, n):
                sect = Element.section(group, Permutation.transposition(n, i))
                assert sect.conjugated_by(x) == images[i - 1]


def test_symmetric_copy_conjugator_is_one_schreier_graph_walk(monkeypatch):
    # The images of a copy determine x up to a constant; with x_1 = 0 it is
    # found by one breadth-first walk of the Schreier graph of the
    # transpositions.  The involution checks read `order` and the walk's
    # final verification the closed-form conjugate, so no product runs.
    rng = random.Random(163)
    n = 12
    group = GroupDescriptor.orientable(n, 2)
    rows = [[0] * 4] + [[rng.randint(-5, 5) for _ in range(4)] for _ in range(n - 1)]
    expected = lattice_element(group, rows)
    images = [
        Element.section(group, Permutation.transposition(n, i)).conjugated_by(expected)
        for i in range(1, n)
    ]
    calls = 0
    original = Element.__mul__

    def counting_mul(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(Element, "__mul__", counting_mul)
    x = symmetric_copy_conjugator(group, images)
    monkeypatch.undo()
    assert x == expected
    assert calls == 0


def test_symmetric_copy_one_strand():
    # no images: the identity alone leads the walk
    for g in (1, 2):
        group = GroupDescriptor.orientable(1, g)
        assert symmetric_copy_conjugator(group, []).is_identity()


def test_symmetric_copy_rejections():
    with pytest.raises(NotAnSnEmbeddingError):
        symmetric_copy_conjugator(T3, [Element.identity(T3), Element.identity(T3)])
    with pytest.raises(NotAnSnEmbeddingError):
        symmetric_copy_conjugator(T3, [psi(T3, (1, 2))])
    not_involution = a(T3, 1, 1) * psi(T3, (1, 2))
    with pytest.raises(NotAnSnEmbeddingError):
        symmetric_copy_conjugator(T3, [not_involution, psi(T3, (2, 3))])


def test_frobenius_embed_zero_gives_sections():
    emb = FrobeniusEmbedding.zero(1)
    v1, v2 = frobenius_embed(emb)
    assert v1 == Element.section(emb.group, FIVE_CYCLE)
    assert v2 == Element.section(emb.group, DOUBLE_TRANSPOSITION)


def test_frobenius_embed_forced_coefficients():
    emb = single_block(1, 1, (1, 2, 3, 4))
    v1, v2 = frobenius_embed(emb)
    assert [row[0] for row in v1.coeffs.rows] == [1, 2, 3, 4, -10]
    # x = -(2+3+4) = -9 and y = -3
    assert [row[0] for row in v2.coeffs.rows] == [-9, -3, 3, 9, 0]


def _partial_sum_alpha(emb):
    """The pure-lattice element whose row i holds a1 + ... + ai of each block
    (i = 1..4) and whose row 5 is zero, summed entry by entry."""
    rows = [[0] * len(emb.blocks) for _ in range(5)]
    for r, block in enumerate(emb.blocks):
        total = 0
        for i in range(4):
            total += block[i]
            rows[i][r] = total
    return lattice_element(emb.group, rows)


def test_frobenius_embed_is_the_pair_conjugated_by_the_partial_sums():
    rng = random.Random(191)
    w1, w2 = frobenius_pair(5)
    for g in (1, 2, 3):
        for _ in range(40):
            emb = FrobeniusEmbedding(
                g, tuple(tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(2 * g))
            )
            alpha = _partial_sum_alpha(emb)
            v1, v2 = frobenius_embed(emb)
            assert v1 == Element.section(emb.group, w1).conjugated_by(alpha)
            assert v2 == Element.section(emb.group, w2).conjugated_by(alpha)
            assert frobenius_conjugator(emb) == alpha
            for r, (a1, a2, a3, a4) in enumerate(emb.blocks):  # the lift formulas of the docstring
                assert [row[r] for row in v1.coeffs.rows] == [a1, a2, a3, a4, -a1 - a2 - a3 - a4]
                x, y = -a2 - a3 - a4, -a3
                assert [row[r] for row in v2.coeffs.rows] == [x, y, -y, -x, 0]


def test_order_of_float_coefficients_is_refused_not_computed():
    # Coefficients 0.5 and -0.5 sum to zero over the 2-cycle; a float
    # entry is rejected by the constructor, so no order is computed.
    with pytest.raises(ValueError, match="integers"):
        order(Element(T2, CoeffVector(((0.5, 0), (-0.5, 0))), Permutation((2, 1))))


def test_order_stops_at_the_first_nonzero_cycle_sum():
    # The first cycle (1 2) has a nonzero sum, so the rows of the later
    # cycles are never read.
    read = []

    class RecordingRows(tuple):
        def __getitem__(self, i):
            read.append(i)
            return super().__getitem__(i)

    rows = RecordingRows(((1, 0),) + ((0, 0),) * 5)
    x = Element(GroupDescriptor.torus(6), CoeffVector(rows), Permutation.from_cycles(6, (1, 2), (3, 4), (5, 6)))
    read.clear()
    assert order(x) == OrderResult(None)
    assert sorted(read) == [0, 1]


@pytest.mark.parametrize("x", [
    Element.identity(GroupDescriptor.nonorientable(3, 2)),
    Element.strand_generator(GroupDescriptor.nonorientable(3, 2), 2, 2),  # a torsion class, of order 2
    Element.section(GroupDescriptor.nonorientable(2, 1), Permutation((2, 1))),
], ids=["identity", "torsion-class", "projective-plane-section"])
def test_order_on_a_nonorientable_element_raises_the_surface_error(x):
    with pytest.raises(UnsupportedSurfaceError) as info:
        order(x)
    assert str(info.value) == "element order requires an orientable surface, got nonorientable"


def test_order_result_derives_is_finite_from_its_value():
    assert order(Element.identity(T2)).is_finite is True
    assert order(Element.strand_generator(T2, 1, 1)).is_finite is False
    assert [OrderResult(v).is_finite for v in (None, 1, 6)] == [False, True, True]


def test_frobenius_blocks_are_rejected_not_coerced():
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="four integers"):
            FrobeniusEmbedding(1, ((bad, 2, 3, 4), (0, 0, 0, 0)))
    with pytest.raises(ValueError, match="four integers"):
        FrobeniusEmbedding(1, ((1, 2, 3, 4), (0, 0, 0)))
    for genus in (1.0, True, "1", None):
        with pytest.raises(ValueError, match="genus must be an integer"):
            FrobeniusEmbedding(genus, ((1, 2, 3, 4), (0, 0, 0, 0)))
    # lists would pass here and fail later, when the embedding is hashed
    for blocks in ([(1, 2, 3, 4), (0, 0, 0, 0)], ([1, 2, 3, 4], (0, 0, 0, 0)), ((1, 2, 3, 4), None)):
        with pytest.raises(ValueError, match="a tuple of tuples"):
            FrobeniusEmbedding(1, blocks)
    # the coercing nested-list constructors are gone from the library
    with pytest.raises(AttributeError):
        Element.from_coeffs(T2, [[1.7, "3"], [True, 0]])
    assert not hasattr(CoeffVector, "from_rows")


def test_frobenius_relations_hold():
    rng = random.Random(137)
    for g in (1, 2):
        for _ in range(25):
            emb = FrobeniusEmbedding(
                g, tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2 * g))
            )
            v1, v2 = frobenius_embed(emb)
            assert (v1**5).is_identity()
            assert (v2**2).is_identity()
            assert v1.conjugated_by(v2) == v1**4


def test_frobenius_conjugator_examples():
    assert frobenius_conjugator(FrobeniusEmbedding.zero(2)).is_identity()
    emb = single_block(1, 1, (1, 0, 0, 0))
    conj = frobenius_conjugator(emb)
    assert [row[0] for row in conj.coeffs.rows] == [1, 1, 1, 1, 0]
    rng = random.Random(139)
    for _ in range(25):
        emb = FrobeniusEmbedding(
            2, tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4))
        )
        conj = frobenius_conjugator(emb)
        v1, v2 = frobenius_embed(emb)
        assert Element.section(emb.group, FIVE_CYCLE).conjugated_by(conj) == v1
        assert Element.section(emb.group, DOUBLE_TRANSPOSITION).conjugated_by(conj) == v2


def test_frobenius_conjugator_is_the_walk_anchored_at_strand_5():
    rng = random.Random(181)
    for g in (1, 2):
        for _ in range(10):
            emb = FrobeniusEmbedding(
                g, tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2 * g))
            )
            assert frobenius_conjugator(emb) == conjugator_to_section(*frobenius_embed(emb), root=5)


def test_any_two_frobenius_copies_are_conjugate():
    # conjugators to the canonical copy compose into a conjugator between copies
    rng = random.Random(141)
    for _ in range(10):
        embs = [
            FrobeniusEmbedding(
                1, tuple(tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2))
            )
            for _ in range(2)
        ]
        (v1a, v2a), (v1b, v2b) = frobenius_embed(embs[0]), frobenius_embed(embs[1])
        c = frobenius_conjugator(embs[1]) * frobenius_conjugator(embs[0]).inverse()
        assert v1a.conjugated_by(c) == v1b
        assert v2a.conjugated_by(c) == v2b


def test_frobenius_pair(monkeypatch):
    assert frobenius_pair(5) == (FIVE_CYCLE, DOUBLE_TRANSPOSITION)
    assert frobenius_pair(5, 4) == frobenius_pair(5)
    for p, ls in [(7, (2, 4)), (11, (3, 4, 5, 9)), (13, (4, 10))]:
        for l in (None, *ls):
            w1, w2 = frobenius_pair(p, l)
            assert w1 == Permutation.from_cycles(p, tuple(range(1, p + 1)))
            assert w2 == multiplication_permutation(p, default_multiplier(p) if l is None else l)
            assert w2 * w1 * w2.inverse() == w1 ** (default_multiplier(p) if l is None else l)
    for p in (-5, 0, 1, 2, 3, 4, 9, 15, 25):
        with pytest.raises(BadPrimeError):
            frobenius_pair(p)
    for p, l in [(5, 1), (5, 2), (5, 5), (5, 0), (7, 6), (7, 3), (13, 3)]:
        with pytest.raises(BadMultiplierError):
            frobenius_pair(p, l)
    # the conjugation check runs: a w2 that does not normalize w1 is caught
    monkeypatch.setattr(torsion, "multiplication_permutation", lambda p, l: Permutation.transposition(p, 1))
    with pytest.raises(VerificationError):
        frobenius_pair(7)


def test_frobenius_inputs_must_be_ints():
    # checked before any arithmetic: math.isqrt, the unit search and Permutation never see them
    for p in (5.0, True, "5", None):
        with pytest.raises(BadPrimeError, match="odd prime >= 5"):
            frobenius_pair(p)
        with pytest.raises(BadPrimeError, match="odd prime >= 5"):
            frobenius_pair(p, 4)
    for l in (4.0, True, "4"):
        with pytest.raises(BadMultiplierError, match="multiplier must be an integer"):
            frobenius_pair(5, l)
    with pytest.raises(BadMultiplierError, match="multiplier must be an integer"):
        frobenius_torsion_element(GroupDescriptor.torus(5), 5, 4.0)


def test_multiplication_permutation():
    w2 = multiplication_permutation(5, 4)
    assert [w2(i) for i in range(1, 6)] == [4, 3, 2, 1, 5]
    assert w2 == Permutation.from_cycles(5, (1, 4), (2, 3))
    assert default_multiplier(5) == 4
    assert default_multiplier(7) == 2


@pytest.mark.parametrize("bad", ["5", None, 5.0, True])
def test_multiplication_permutation_rejects_arguments_that_are_not_ints(bad):
    for p, l in ((bad, 2), (5, bad)):
        with pytest.raises(ValueError, match="modulus and multiplier must be integers"):
            multiplication_permutation(p, l)


@pytest.mark.parametrize("bad", ["x", None, 1, Permutation.identity(2)], ids=["str", "None", "int", "perm"])
def test_order_and_conjugacy_take_only_elements(bad):
    # a ValueError naming the type, never the AttributeError of bad.group
    x = Element.identity(T2)
    with pytest.raises(ValueError, match=f"^the order is taken of an Element, got {type(bad).__name__}$"):
        order(bad)
    name = type(bad).__name__
    for e1, e2, names in ((x, bad, f"Element and {name}"), (bad, x, f"{name} and Element")):
        with pytest.raises(ValueError, match=f"^conjugacy is tested between two Elements, got {names}$"):
            conjugacy_test(e1, e2)


@pytest.mark.parametrize("genus", ["1", None, 1.0, True])
def test_zero_embedding_rejects_a_genus_that_is_not_an_int(genus):
    # a ValueError, never the TypeError of 2 * "1" repeating a tuple
    with pytest.raises(ValueError, match="genus must be an integer"):
        FrobeniusEmbedding.zero(genus)


def test_default_multiplier_rejects_what_is_not_an_odd_prime_from_5():
    # the prime check runs before the unit search, which assumes a prime modulus
    for p in (1, 3, 4, 9, 2, 0, -5):
        with pytest.raises(BadPrimeError, match="odd prime >= 5"):
            default_multiplier(p)


def test_frobenius_torsion_pure_section_case():
    group = GroupDescriptor.torus(5)
    v = frobenius_torsion_element(group, 5, 4)
    w1 = Permutation.from_cycles(5, (1, 2, 3, 4, 5))
    assert v == Element.section(group, w1**3)
    assert order(v).value == 5


def test_frobenius_torsion_with_lifts():
    group = GroupDescriptor.torus(5)
    lift = basis_vector(5, 2, 1, 1)
    v = frobenius_torsion_element(group, 5, 4, lift1=lift)
    assert order(v).value == 5
    assert handle_sums(v.coeffs) == (0, 0)

    rng = random.Random(149)
    group7 = GroupDescriptor.orientable(7, 2)
    for _ in range(20):
        lifts = [
            CoeffVector(
                tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(7))
            )
            for _ in range(2)
        ]
        v = frobenius_torsion_element(group7, 7, 2, lifts[0], lifts[1])
        assert order(v).value == 7
        assert handle_sums(v.coeffs) == (0, 0, 0, 0)


def test_frobenius_torsion_element_is_the_commutator_of_the_lifts():
    # v1^(-l) * v1^(l-1) == v1^(-1): the element equals the longer word
    # v2 v1 v2^-1 v1^(-l) v1^(l-1) of the construction.
    rng = random.Random(167)
    for p in (5, 7, 11, 13):
        group = GroupDescriptor.orientable(p, 1)
        l = default_multiplier(p)
        for _ in range(5):
            lift1, lift2 = (
                CoeffVector(tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(p)))
                for _ in range(2)
            )
            v1 = Element(group, lift1, Permutation.from_cycles(p, tuple(range(1, p + 1))))
            v2 = Element(group, lift2, multiplication_permutation(p, l))
            word = v2 * v1 * v2.inverse() * v1 ** (-l) * v1 ** (l - 1)
            v = frobenius_torsion_element(group, p, l, lift1, lift2)
            assert v == word
            assert order(v).value == p


def test_frobenius_torsion_rejections():
    with pytest.raises(BadPrimeError):
        frobenius_torsion_element(GroupDescriptor.torus(4), 4)
    with pytest.raises(BadPrimeError):
        frobenius_torsion_element(GroupDescriptor.torus(3), 3)
    with pytest.raises(BadPrimeError):
        frobenius_torsion_element(GroupDescriptor.torus(9), 9)
    with pytest.raises(GroupMismatchError):
        frobenius_torsion_element(GroupDescriptor.torus(6), 5)
    with pytest.raises(BadMultiplierError):
        frobenius_torsion_element(GroupDescriptor.torus(5), 5, 2)  # order 4, not 2
    with pytest.raises(BadMultiplierError):
        frobenius_torsion_element(GroupDescriptor.torus(7), 7, 6)  # order 2, not 3
    with pytest.raises(BadMultiplierError):
        frobenius_torsion_element(GroupDescriptor.torus(5), 5, 1)


def test_handle_sums_are_additive_under_mul():
    rng = random.Random(151)
    group = GroupDescriptor.orientable(4, 2)
    for _ in range(40):
        x, y = random_element(rng, group), random_element(rng, group)
        product = x * y
        assert handle_sums(product.coeffs) == tuple(
            a + b for a, b in zip(handle_sums(x.coeffs), handle_sums(y.coeffs))
        )


def _pure_lattice(rng, group):
    return Element(group, random_element(rng, group).coeffs, Permutation.identity(group.n))


def test_cycle_sums_are_invariant_under_pure_lattice_conjugation():
    rng = random.Random(311)
    for n in range(1, 7):
        for g in (1, 2):
            group = GroupDescriptor.orientable(n, g)
            for _ in range(10):
                x = random_element(rng, group)
                assert cycle_sums(x.conjugated_by(_pure_lattice(rng, group))) == cycle_sums(x)


def test_order_is_finite_exactly_when_every_cycle_sum_vanishes():
    rng = random.Random(313)
    seen = set()
    for n in range(1, 6):
        for g in (1, 2):
            group = GroupDescriptor.orientable(n, g)
            for trial in range(20):
                x = random_element(rng, group, bound=1)
                if trial % 2:  # a conjugate of a section has finite order
                    x = Element.section(group, x.perm).conjugated_by(_pure_lattice(rng, group))
                vanishing = all(not any(sums) for _, sums in cycle_sums(x))
                seen.add(vanishing)
                assert order(x).is_finite == vanishing
                # every permutation of at most 5 strands has order dividing 60
                assert order(x).value == order_by_repeated_mul(x, 60)
    assert seen == {True, False}


def _with_fixed_strands(rng, n, fixed):
    """A random permutation of 1..n fixing at least the strands in ``fixed``."""
    moved = [i for i in range(1, n + 1) if i not in fixed]
    shuffled = moved[:]
    rng.shuffle(shuffled)
    images = list(range(1, n + 1))
    for i, v in zip(moved, shuffled):
        images[i - 1] = v
    return Permutation(tuple(images))


def test_cycle_sums_match_column_sums_with_and_without_fixed_strands():
    # A fixed strand's cycle sum is its own row; every other cycle sums its
    # rows column by column.  Both paths are checked against the reference.
    rng = random.Random(331)
    kinds = set()
    for n in range(1, 9):
        for g in (1, 2):
            group = GroupDescriptor.orientable(n, g)
            for trial in range(24):
                x = random_element(rng, group)
                if trial % 3:
                    fixed = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
                    x = Element(group, x.coeffs, _with_fixed_strands(rng, n, fixed))
                lengths = {len(c) for c in x.perm.orbits}
                kinds.add((1 in lengths, max(lengths) > 1))
                assert cycle_sums(x) == reference_cycle_sums(x)
    assert kinds == {(True, False), (True, True), (False, True)}


def test_order_value_follows_the_column_sums():
    rng = random.Random(337)
    seen = set()
    for n in range(1, 9):
        group = GroupDescriptor.orientable(n, 1)
        for trial in range(20):
            x = random_element(rng, group, bound=1)
            if trial % 4 == 1:  # a conjugate of a section has finite order
                x = Element.section(group, x.perm).conjugated_by(_pure_lattice(rng, group))
            elif trial % 4 == 2:  # a pure-lattice element: every strand is fixed
                x = _pure_lattice(rng, group)
            finite = not any([any(sums) for _, sums in reference_cycle_sums(x)])
            seen.add(finite)
            result = order(x)
            assert result == OrderResult(x.perm.order() if finite else None)
            if finite:
                # the order of a permutation of at most 8 strands divides 840
                assert result.value == order_by_repeated_mul(x, 840)
    assert seen == {True, False}
