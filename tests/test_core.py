import itertools
import json
import random
import re

import pytest

from surfbraid.core import (
    CoeffVector,
    Element,
    GroupDescriptor,
    verify_crystallographic,
)
from surfbraid.errors import GroupMismatchError, UnsupportedSurfaceError
from surfbraid.permutations import Permutation

from helpers import (
    basis_vector,
    normalize_text,
    power_by_repeated_mul,
    random_element,
    random_permutation,
    scaled,
)

T2 = GroupDescriptor.torus(2)
T3 = GroupDescriptor.torus(3)


def a(group, i, r):
    return Element.strand_generator(group, i, r)


def psi(group, *cycles):
    return Element.section(group, Permutation.from_cycles(group.n, *cycles))


def test_descriptor_validation():
    with pytest.raises(ValueError):
        GroupDescriptor.orientable(0, 1)
    with pytest.raises(ValueError):
        GroupDescriptor.orientable(2, 0)
    with pytest.raises(ValueError):
        GroupDescriptor("klein", 2, 1)
    for n, genus in [(3, 1.5), (3, 1.0), (3, True), (3.0, 1), (True, 1)]:
        with pytest.raises(ValueError, match="integers"):
            GroupDescriptor.orientable(n, genus)
    with pytest.raises(ValueError, match="integers"):
        GroupDescriptor.nonorientable(2, 2.0)
    with pytest.raises(ValueError, match="integers"):
        GroupDescriptor.sphere(4.0)
    assert GroupDescriptor.sphere(3).genus is None
    assert GroupDescriptor.torus(4).lattice_rank == 8
    assert GroupDescriptor.nonorientable(2, 3).handle_count == 3
    with pytest.raises(UnsupportedSurfaceError):
        GroupDescriptor.sphere(3).handle_count


def test_identity_element():
    e = Element.identity(T2)
    assert e.coeffs.is_zero() and e.perm.is_identity()
    x = a(T2, 1, 1) * psi(T2, (1, 2))
    assert e * x == x and x * e == x
    assert e.inverse() == e


def test_section_is_homomorphism():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 5)
        group = GroupDescriptor.orientable(n, rng.randint(1, 3))
        w1, w2 = random_permutation(rng, n), random_permutation(rng, n)
        assert Element.section(group, w1 * w2) == Element.section(group, w1) * Element.section(group, w2)
    # adjacent transposition sections square to the identity
    assert (psi(T2, (1, 2)) ** 2).is_identity()
    # a 3-cycle section has order 3
    s = psi(T3, (1, 2, 3))
    assert not (s**2).is_identity() and (s**3).is_identity()


def test_action_examples():
    # transposition sends a[1,1] to a[2,1]
    v = basis_vector(2, 2, 1, 1)
    assert v.permuted(Permutation.transposition(2, 1)) == basis_vector(2, 2, 2, 1)
    # identity acts trivially
    rng = random.Random(3)
    w = Permutation.identity(3)
    vec = random_element(rng, T3).coeffs
    assert vec.permuted(w) == vec


def test_action_on_cycle_matches_composed_transpositions():
    # (1,2,3) applied to a[1,2] + 2 a[3,1] gives a[2,2] + 2 a[1,1]; the cycle
    # equals t1 * t2, so composing the transposition actions is the oracle.
    cycle = Permutation.from_cycles(3, (1, 2, 3))
    t1, t2 = Permutation.transposition(3, 1), Permutation.transposition(3, 2)
    assert cycle == t1 * t2
    vec = basis_vector(3, 2, 1, 2) + scaled(basis_vector(3, 2, 3, 1), 2)
    expected = basis_vector(3, 2, 2, 2) + scaled(basis_vector(3, 2, 1, 1), 2)
    assert vec.permuted(cycle) == expected
    assert vec.permuted(t2).permuted(t1) == expected


def test_action_preserves_handles_and_is_faithful():
    rng = random.Random(5)
    for n in range(2, 5):
        group = GroupDescriptor.orientable(n, 2)
        for w in map(Permutation, itertools.permutations(range(1, n + 1))):
            moved = any(
                basis_vector(n, 4, i, r).permuted(w) != basis_vector(n, 4, i, r)
                for i in range(1, n + 1)
                for r in range(1, 5)
            )
            assert moved == (not w.is_identity())
        for _ in range(10):
            w = random_permutation(rng, n)
            i, r = rng.randint(1, n), rng.randint(1, 4)
            assert basis_vector(n, 4, i, r).permuted(w) == basis_vector(n, 4, w(i), r)


def test_mul_moves_section_across_generator():
    # section(t1) * a[1,1] == a[2,1] * section(t1)
    lhs = psi(T2, (1, 2)) * a(T2, 1, 1)
    rhs = a(T2, 2, 1) * psi(T2, (1, 2))
    assert lhs == rhs


def test_squared_mixed_element():
    x = a(T2, 1, 1) * psi(T2, (1, 2))
    assert x * x == a(T2, 1, 1) * a(T2, 2, 1)


def test_inverse_of_mixed_element():
    x = a(T2, 1, 1) * psi(T2, (1, 2))
    assert x.inverse() == a(T2, 2, 1).inverse() * psi(T2, (1, 2))
    assert (x * x.inverse()).is_identity()


def test_power_examples():
    rng = random.Random(31)
    x = random_element(rng, T3)
    assert (x**0).is_identity()
    assert x**-3 == (x.inverse()) ** 3
    # (a[1,1] * section(ladder))^3 == a[1,1] a[2,1] a[3,1] for n = 3
    ladder = Permutation.transposition(3, 1) * Permutation.transposition(3, 2)
    y = a(T3, 1, 1) * Element.section(T3, ladder)
    assert y**3 == a(T3, 1, 1) * a(T3, 2, 1) * a(T3, 3, 1)


def _power_cases():
    # Orientable and non-orientable groups with n <= 8, a random permutation
    # and one with fixed strands (a random subset of strands forms one
    # cycle) each, entries up to 3 and up to 10**12, and two elements at n = 32.
    rng = random.Random(37)
    groups = [GroupDescriptor.orientable(n, g) for n, g in [(1, 1), (2, 1), (3, 2), (5, 1), (8, 2)]]
    groups += [GroupDescriptor.nonorientable(n, g) for n, g in [(1, 1), (2, 2), (4, 3), (7, 1), (8, 2)]]
    cases = []
    for group in groups:
        n, handles = group.n, group.handle_count
        for bound in (3, 10**12):
            one_cycle = Permutation.from_cycles(n, tuple(rng.sample(range(1, n + 1), rng.randint(1, n))))
            for perm in (random_permutation(rng, n), one_cycle):
                rows = [[rng.randint(-bound, bound) for _ in range(handles)] for _ in range(n)]
                if not group.is_orientable:
                    for row in rows:
                        row[0] %= 2  # the torsion bit
                cases.append(Element(group, CoeffVector(tuple([tuple(row) for row in rows])), perm))
    return cases + [random_element(rng, GroupDescriptor.orientable(32, 4)) for _ in range(2)]


def test_power_is_repeated_multiplication():
    for x in _power_cases():
        inverse = x.inverse()
        for k in range(-40, 41):
            expected = power_by_repeated_mul(x, k) if k >= 0 else power_by_repeated_mul(inverse, -k)
            assert x**k == expected, (x, k)


def test_power_adds_exponents():
    rng = random.Random(41)
    for x in _power_cases():
        for _ in range(10):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            assert x**a * x**b == x ** (a + b), (x, a, b)


def test_power_makes_no_product(monkeypatch):
    # Powers are read off the cycles of the permutation part in closed
    # form, not multiplied out.
    cases = _power_cases()
    expected = [[x**k for k in (-7, -1, 0, 1, 2, 13, 40)] for x in cases]

    def refuse(self, other):
        raise AssertionError("Element.__pow__ called Element.__mul__")

    monkeypatch.setattr(Element, "__mul__", refuse)
    assert [[x**k for k in (-7, -1, 0, 1, 2, 13, 40)] for x in cases] == expected


def test_group_axioms_randomized():
    rng = random.Random(41)
    for n, g in [(2, 1), (3, 2), (4, 3), (5, 1)]:
        group = GroupDescriptor.orientable(n, g)
        e = Element.identity(group)
        for _ in range(40):
            x, y, z = (random_element(rng, group) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * e == x and e * x == x
            assert (x * x.inverse()).is_identity()
            assert (x * y).perm == x.perm * y.perm


def test_conjugation_relabels_strands():
    rng = random.Random(43)
    for n in range(2, 6):
        group = GroupDescriptor.orientable(n, 2)
        for _ in range(8):
            x = random_element(rng, group)
            for i in range(1, n + 1):
                for r in range(1, 5):
                    assert a(group, i, r).conjugated_by(x) == a(group, x.perm(i), r)


def _conjugation_rows(rng, group, bound):
    """Random rows with entries in [-bound, bound]; non-orientable torsion bits 0 or 1."""
    bits = 0 if group.is_orientable else 1
    return CoeffVector(tuple([tuple([rng.randint(0, 1) for _ in range(bits)]
                                    + [rng.randint(-bound, bound) for _ in range(group.handle_count - bits)])
                              for _ in range(group.n)]))


def test_closed_form_conjugate_matches_its_definition():
    # Besides random conjugators, the lattices where the closed form places
    # rows of u.v as they are: a section (one shared zero row), shared zero
    # rows around random ones, equal rows that are distinct objects, and
    # every strand generator.
    rng, shapes = random.Random(47), random.Random(59)
    big = 10**12
    for n in range(1, 9):
        # identity, a transposition (fixed points from n = 3 on), the n-cycle and a random one
        perms = [Permutation.identity(n), Permutation.from_cycles(n, tuple(range(1, n + 1))),
                 Permutation.from_cycles(n, (1, 2)[:n]), random_permutation(rng, n)]
        for group in (GroupDescriptor.orientable(n, 2), GroupDescriptor.nonorientable(n, 1),
                      GroupDescriptor.nonorientable(n, 3)):
            zero = CoeffVector.zero(n, group.handle_count)
            shared = list(zero.rows)
            for i in shapes.sample(range(n), shapes.randint(0, n)):
                shared[i] = _conjugation_rows(shapes, group, 3).rows[i]
            row = _conjugation_rows(shapes, group, 3).rows[0]
            lattices = [zero, CoeffVector(tuple(shared)), CoeffVector(tuple([tuple(list(row)) for _ in range(n)]))]
            lattices += [Element.strand_generator(group, j, r).coeffs
                         for j in range(1, n + 1) for r in range(1, group.handle_count + 1)]
            for w, u in itertools.product(perms, repeat=2):
                for bound in (0, 3, big):
                    x = Element(group, _conjugation_rows(rng, group, bound), w)
                    by = Element(group, _conjugation_rows(rng, group, big), u)
                    assert x.conjugated_by(by) == by * x * by.inverse()
                    assert by.conjugated_by(x) == x * by * x.inverse()
                for a in lattices:
                    by = Element(group, a, u)
                    z = x.conjugated_by(by)
                    assert z == by * x * by.inverse()
                    if a is zero:  # a section: every row of the conjugate is a row of x, placed as it is
                        assert all(any(row is v for v in x.coeffs.rows) for row in z.coeffs.rows)


def test_group_mismatch_rejected():
    with pytest.raises(GroupMismatchError):
        Element.identity(T2) * Element.identity(T3)


def test_conjugation_by_another_group_keeps_the_product_message():
    x, by = Element.identity(T2), Element.identity(T3)
    with pytest.raises(GroupMismatchError) as product:
        by * x
    with pytest.raises(GroupMismatchError) as closed:
        x.conjugated_by(by)
    assert str(closed.value) == str(product.value) == f"operands live in different groups: {T3} vs {T2}"


def test_element_requires_orientable_surface():
    with pytest.raises(UnsupportedSurfaceError):
        Element.identity(GroupDescriptor.sphere(3))


def test_json_round_trip():
    obj = {"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [0, 0]]}
    x = Element.from_json_obj(T2, obj)
    assert x == a(T2, 1, 1) * psi(T2, (1, 2))
    assert x.to_json_obj() == obj
    assert json.loads(json.dumps(x.to_json_obj())) == obj
    rng = random.Random(47)
    for _ in range(20):
        y = random_element(rng, GroupDescriptor.orientable(4, 2), bound=10**12)
        assert Element.from_json_obj(y.group, y.to_json_obj()) == y
    with pytest.raises(ValueError):
        Element.from_json_obj(T3, obj)


def test_word_text_round_trips_through_normalize():
    rng = random.Random(53)
    for _ in range(20):
        x = random_element(rng, GroupDescriptor.orientable(4, 2))
        assert normalize_text(x.group, x.as_word_text()) == x


def test_verify_crystallographic_orientable():
    verdict = verify_crystallographic(T2)
    assert verdict.is_crystallographic
    assert verdict.dimension == 4
    assert verdict.holonomy_order == 2
    assert verdict.witness["kind"] == "faithful_strand_action"
    big = verify_crystallographic(GroupDescriptor.orientable(3, 2))
    assert big.dimension == 12 and big.holonomy_order == 6


def test_verify_crystallographic_runs_the_strand_action_per_generator(monkeypatch):
    # The witness is checked by the product rule's own strand action: one
    # `permuted` call per adjacent transposition t(i), on a[i,1]'s row.
    seen = []
    original = CoeffVector.permuted

    def recording(self, w):
        seen.append((self.rows.index((1, 0, 0, 0)), w))
        return original(self, w)

    monkeypatch.setattr(CoeffVector, "permuted", recording)
    verdict = verify_crystallographic(GroupDescriptor.orientable(40, 2))
    assert seen == [(i - 1, Permutation.transposition(40, i)) for i in range(1, 40)]
    assert verdict.witness["generator_moves"] == [
        {"transposition": i, "from": [i, 1], "to": [i + 1, 1]} for i in range(1, 40)
    ]


def test_arithmetic_builds_permutations_without_validation(monkeypatch):
    def refuse(self):
        raise AssertionError("Permutation.__post_init__ ran on an arithmetic result")

    rng = random.Random(23)
    for group in (T3, GroupDescriptor.orientable(5, 2)):
        x, y = random_element(rng, group), random_element(rng, group)
        expected = [x * y, x.inverse(), x**5, x**-3, x**0]
        monkeypatch.setattr(Permutation, "__post_init__", refuse)
        assert [x * y, x.inverse(), x**5, x**-3, x**0] == expected
        monkeypatch.undo()


def test_verify_crystallographic_single_strand():
    verdict = verify_crystallographic(GroupDescriptor.orientable(1, 2))
    assert verdict.is_crystallographic and verdict.dimension == 4 and verdict.holonomy_order == 1


def test_verify_crystallographic_is_false_for_sphere_and_nonorientable():
    assert not verify_crystallographic(GroupDescriptor.sphere(3)).is_crystallographic
    assert not verify_crystallographic(GroupDescriptor.nonorientable(2, 2)).is_crystallographic


def test_element_validates_every_row():
    with pytest.raises(ValueError):
        Element(T2, CoeffVector(((1, 0),)), Permutation.identity(2))
    with pytest.raises(ValueError):
        Element(T2, CoeffVector.zero(2, 2), Permutation.identity(3))
    with pytest.raises(ValueError):
        Element(T2, CoeffVector(((1, 0), (1,))), Permutation.identity(2))
    with pytest.raises(ValueError):
        Element(T2, CoeffVector(((1, 0), (1, 0, 0))), Permutation.identity(2))
    # lists where tuples are meant would compare unequal and not hash
    with pytest.raises(ValueError, match="tuple"):
        Element(T2, CoeffVector([(1, 0), (0, 0)]), Permutation.identity(2))
    with pytest.raises(ValueError, match="tuple"):
        Element(T2, CoeffVector(([1, 0], [0, 0])), Permutation.identity(2))
    klein = GroupDescriptor.nonorientable(2, 2)
    with pytest.raises(ValueError):  # the torsion bit in column 1 must be reduced
        Element(klein, CoeffVector(((0, 5), (2, 0))), Permutation.identity(2))
    assert Element(klein, CoeffVector(((1, 5), (0, 0))), Permutation.identity(2)).coeffs.rows[0] == (1, 5)


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_power_rejects_an_exponent_that_is_not_an_int(k):
    x = a(T2, 1, 1) * Element.section(T2, Permutation((2, 1)))
    with pytest.raises(ValueError, match=f"^exponent must be an integer, got {re.escape(repr(k))}$"):
        x ** k


@pytest.mark.parametrize("fields, types", [
    ((T2, "x", Permutation.identity(2)), "GroupDescriptor, str and Permutation"),
    ((T2, CoeffVector.zero(2, 2), "p"), "GroupDescriptor, CoeffVector and str"),
    ((T2, ((0, 0), (0, 0)), Permutation.identity(2)), "GroupDescriptor, tuple and Permutation"),
    ((T2, CoeffVector.zero(2, 2), (1, 2)), "GroupDescriptor, CoeffVector and tuple"),
    (("orientable", CoeffVector.zero(2, 2), Permutation.identity(2)), "str, CoeffVector and Permutation"),
    ((None, None, None), "NoneType, NoneType and NoneType"),
], ids=["coeffs str", "perm str", "coeffs tuple", "perm tuple", "group str", "all None"])
def test_element_constructor_checks_its_field_types_before_its_rows(fields, types):
    # a ValueError naming the types, never the AttributeError of reading
    # .rows, .images or .kind off the wrong object
    message = f"an element is a GroupDescriptor, a CoeffVector and a Permutation, got {types}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Element(*fields)


@pytest.mark.parametrize("bad", ["2", None, 2.0, True], ids=["str", "None", "float", "bool"])
def test_zero_coefficients_reject_a_size_that_is_not_an_int(bad):
    # a ValueError, never the TypeError of repeating a tuple "2" times
    for n, handles in ((bad, 2), (2, bad)):
        with pytest.raises(ValueError, match="^row count and row length must be integers, got "):
            CoeffVector.zero(n, handles)


def test_strand_generator_indices_must_be_ints():
    # True would pass the range check as 1 and give a[1,1]
    for i, r in [(True, 1), (1, True), (1.0, 1), (1, 1.0), ("1", 1)]:
        with pytest.raises(ValueError, match="generator indices must be integers"):
            Element.strand_generator(T2, i, r)


@pytest.mark.parametrize("operation, message", [
    (lambda: a(T2, 1, 1) * 3, "an element multiplies only an Element"),
    (lambda: a(T2, 1, 1) * Permutation.identity(2), "an element multiplies only an Element"),
    (lambda: a(T2, 1, 1).conjugated_by(5), "an element is conjugated only by an Element, got 5"),
    (lambda: a(T2, 1, 1).conjugated_by(Permutation.identity(2)), "an element is conjugated only by an Element"),
    (lambda: Permutation.identity(2) * 3, "a permutation composes only with a Permutation"),
    (lambda: Permutation.identity(2) * a(T2, 1, 1), "a permutation composes only with a Permutation"),
    (lambda: CoeffVector.zero(2, 2) + 3, "a coefficient vector combines only with a CoeffVector"),
    (lambda: CoeffVector.zero(2, 2) - 3, "a coefficient vector combines only with a CoeffVector"),
    (lambda: CoeffVector.zero(2, 2) + ((0, 0), (0, 0)), "a coefficient vector combines only with a CoeffVector"),
], ids=["element*int", "element*permutation", "element^int", "element^permutation", "permutation*int",
        "permutation*element", "coeffs+int", "coeffs-int", "coeffs+rows"])
def test_foreign_operands_are_rejected(operation, message):
    with pytest.raises(ValueError, match=message):
        operation()


def test_element_rejects_entries_that_are_not_ints():
    klein = GroupDescriptor.nonorientable(2, 2)
    for group, bad in [(T2, 0.5), (T2, 1.0), (T2, True), (T2, "1"), (klein, 1.0), (klein, False)]:
        for rows in [((bad, 0), (0, 0)), ((0, 0), (0, bad))]:
            with pytest.raises(ValueError, match="integers"):
                Element(group, CoeffVector(rows), Permutation.identity(2))


@pytest.mark.parametrize("left, right", [
    (CoeffVector(((1, 2),)), CoeffVector(((1, 2), (3, 4)))),  # row counts differ
    (CoeffVector(((1, 2), (0, 0))), CoeffVector(((1,), (3,)))),  # row lengths differ
], ids=["rows", "columns"])
def test_coefficient_vectors_of_different_shapes_do_not_combine(left, right):
    # map would stop at the shorter operand and truncate the result
    for x, y in [(left, right), (right, left)]:
        with pytest.raises(ValueError, match="coefficient vector shapes differ"):
            x + y
        with pytest.raises(ValueError, match="coefficient vector shapes differ"):
            x - y
    assert left + left == CoeffVector(tuple([tuple([2 * v for v in row]) for row in left.rows]))
    assert (right - right).is_zero()
