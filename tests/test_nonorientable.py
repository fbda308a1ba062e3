import itertools
import json
import random

import pytest

from surfbraid import nonorientable
from surfbraid.core import CoeffVector, Element, GroupDescriptor, verify_crystallographic
from surfbraid.errors import GeneratorIndexError, UnsupportedSurfaceError, VerificationError
from surfbraid.nonorientable import (
    AbelianInvariants,
    MixedElement,
    finite_normal_subgroup,
    kernel_structure,
    normalize_word,
    torsion_subgroup_elements,
)
from surfbraid.permutations import Permutation
from surfbraid.words import parse

from helpers import random_permutation, smith_invariant_factors


def random_mixed(rng, group, bound=2):
    n, g = group.n, group.genus
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    free = tuple(tuple(rng.randint(-bound, bound) for _ in range(g - 1)) for _ in range(n))
    return MixedElement(group, bits, free, random_permutation(rng, n))


def test_kernel_structure_sphere():
    assert kernel_structure(GroupDescriptor.sphere(3)) == AbelianInvariants((2,), 0, ("s1 s2 s1 s2 s1 s2",))
    four = kernel_structure(GroupDescriptor.sphere(4))
    assert four.torsion == (2,) and four.free_rank == 2
    with pytest.raises(UnsupportedSurfaceError):
        kernel_structure(GroupDescriptor.sphere(2))
    with pytest.raises(UnsupportedSurfaceError):
        kernel_structure(GroupDescriptor.torus(3))


def test_kernel_structure_nonorientable():
    projective = kernel_structure(GroupDescriptor.nonorientable(2, 1))
    assert projective.torsion == (2, 2) and projective.free_rank == 0
    assert projective.torsion_generator_words == ("a[1,1]", "a[2,1]")
    klein = kernel_structure(GroupDescriptor.nonorientable(3, 2))
    assert klein.torsion == (2, 2, 2) and klein.free_rank == 3


def test_kernel_structure_matches_smith_oracle():
    # Per strand the kernel is Z^g modulo the single relation 2(1,...,1);
    # the Smith invariant factors of the relation matrix give the torsion.
    for n in (1, 2, 3):
        for g in (1, 2, 3, 4):
            relation_rows = []
            for j in range(n):
                row = [0] * (n * g)
                for r in range(g):
                    row[j * g + r] = 2
                relation_rows.append(row)
            factors = smith_invariant_factors(relation_rows)
            torsion = tuple(f for f in factors if f != 1)
            free_rank = n * g - len(factors)
            invariants = kernel_structure(GroupDescriptor.nonorientable(n, g))
            assert invariants.torsion == torsion
            assert invariants.free_rank == free_rank


def test_basis_change_kernel_and_surjectivity():
    # The per-strand coordinate map must kill exactly the relation subgroup
    # generated by 2(1,...,1) and reach every (bit, free) pair.
    for g in (1, 2, 3):
        group = GroupDescriptor.nonorientable(1, g)

        def image(exponents):
            acc = Element.identity(group)
            for r, e in enumerate(exponents, start=1):
                acc = acc * Element.strand_generator(group, 1, r) ** e
            return acc

        kernel = [
            c
            for c in itertools.product(range(-2, 3), repeat=g)
            if image(c).is_identity()
        ]
        expected_kernel = [tuple(t for _ in range(g)) for t in (-2, 0, 2)]
        assert sorted(kernel) == sorted(expected_kernel)

        reached = {
            (image(c).bits[0], image(c).free[0])
            for c in itertools.product(range(-2, 3), repeat=g)
        }
        box = {
            (b, f)
            for b in (0, 1)
            for f in itertools.product(range(-1, 2), repeat=g - 1)
        }
        assert box <= reached


def test_sections_are_involutions():
    for n, g in [(2, 1), (3, 2), (4, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        e = Element.identity(group)
        for i in range(1, n):
            s = Element.section(group, Permutation.transposition(n, i))
            assert s * s == e


def test_torsion_bits_square_to_identity():
    group = GroupDescriptor.nonorientable(3, 2)
    for t in torsion_subgroup_elements(group):
        assert (t * t).is_identity()
        assert not t.is_identity()


def test_per_strand_relation_holds_identically():
    for n, g in [(1, 1), (2, 2), (2, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        for j in range(1, n + 1):
            acc = Element.identity(group)
            for r in range(1, g + 1):
                acc = acc * Element.strand_generator(group, j, r) ** 2
            assert acc.is_identity()


def test_conjugation_moves_torsion_bits_between_strands():
    group = GroupDescriptor.nonorientable(2, 2)
    s = Element.section(group, Permutation.transposition(2, 1))
    bit1, bit2 = torsion_subgroup_elements(group)
    assert s * bit1 * s.inverse() == bit2


def test_presentation_relations_in_mixed_model():
    # all defining relation instances: braid/commuting relations among the
    # sections, involutivity, kernel commutativity, strand relabelling
    for n, g in [(3, 1), (3, 2), (4, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        e = Element.identity(group)
        sections = {
            i: Element.section(group, Permutation.transposition(n, i))
            for i in range(1, n)
        }
        gens = {
            (j, r): Element.strand_generator(group, j, r)
            for j in range(1, n + 1)
            for r in range(1, g + 1)
        }
        for i, s in sections.items():
            assert s * s == e
            for k, t in sections.items():
                if abs(i - k) >= 2:
                    assert s * t == t * s
            if i + 1 in sections:
                t = sections[i + 1]
                assert s * t * s == t * s * t
        for x in gens.values():
            for y in gens.values():
                assert x * y == y * x
        for i, s in sections.items():
            tau = Permutation.transposition(n, i)
            for (j, r), x in gens.items():
                assert s * x * s.inverse() == gens[tau(j), r]


def test_group_axioms_randomized():
    rng = random.Random(179)
    for n, g in [(2, 1), (3, 2), (5, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        e = Element.identity(group)
        for _ in range(40):
            x, y, z = (random_mixed(rng, group) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * e == x and e * x == x
            assert (x * x.inverse()).is_identity()
            assert (x * y).perm == x.perm * y.perm
            assert (x**3) == x * x * x


def test_strand_relabelling_is_equivariant():
    rng = random.Random(181)
    group = GroupDescriptor.nonorientable(4, 2)
    for _ in range(30):
        x = random_mixed(rng, group)
        w = random_permutation(rng, 4)
        s = Element.section(group, w)
        assert (s * x * s.inverse()).perm == w * x.perm * w.inverse()
    # pure-kernel case: bits and free rows move exactly by the permutation
    for _ in range(30):
        bits = tuple(rng.randint(0, 1) for _ in range(4))
        free = tuple(tuple(rng.randint(-2, 2) for _ in range(1)) for _ in range(4))
        x = MixedElement(group, bits, free, Permutation.identity(4))
        w = random_permutation(rng, 4)
        s = Element.section(group, w)
        conj = s * x * s.inverse()
        for j in range(1, 5):
            assert conj.bits[w(j) - 1] == bits[j - 1]
            assert conj.free[w(j) - 1] == free[j - 1]


def test_normalize_word_matches_letter_products():
    rng = random.Random(191)
    group = GroupDescriptor.nonorientable(3, 2)
    gens = {
        (j, r): Element.strand_generator(group, j, r)
        for j in range(1, 4)
        for r in range(1, 3)
    }
    for _ in range(30):
        text_parts = []
        acc = Element.identity(group)
        for _ in range(rng.randint(0, 20)):
            if rng.random() < 0.5:
                i = rng.randint(1, 2)
                text_parts.append(f"s{i}")
                acc = acc * Element.section(group, Permutation.transposition(3, i))
            else:
                j, r = rng.randint(1, 3), rng.randint(1, 2)
                e = rng.choice([-2, -1, 1, 2])
                text_parts.append(f"a[{j},{r}]^{e}")
                acc = acc * gens[j, r] ** e
        word = parse(group, " ".join(text_parts))
        assert normalize_word(group, word) == acc


def test_normalize_word_index_bounds():
    group = GroupDescriptor.nonorientable(2, 2)
    with pytest.raises(GeneratorIndexError):
        parse(group, "a[1,3]")
    with pytest.raises(UnsupportedSurfaceError):
        normalize_word(GroupDescriptor.torus(2), parse(GroupDescriptor.torus(2), "s1"))


def test_finite_normal_subgroup_sphere():
    witness = finite_normal_subgroup(GroupDescriptor.sphere(4))
    assert witness.subgroup_order == 2
    assert not witness.normality_verified
    assert witness.generator_words == ("s1 s2 s3 s1 s2 s3 s1 s2 s3 s1 s2 s3",)
    with pytest.raises(UnsupportedSurfaceError):
        finite_normal_subgroup(GroupDescriptor.sphere(2))


def test_finite_normal_subgroup_nonorientable():
    witness = finite_normal_subgroup(GroupDescriptor.nonorientable(2, 2))
    assert witness.subgroup_order == 4
    assert witness.normality_verified
    assert witness.generator_words == ("a[1,1] a[1,2]", "a[2,1] a[2,2]")

    projective = finite_normal_subgroup(GroupDescriptor.nonorientable(3, 1))
    assert projective.subgroup_order == 8
    assert "entire kernel" in projective.note


def test_finite_normal_subgroup_checks_every_pair_with_no_product_or_inverse(monkeypatch):
    # (6,3): 5 transpositions and 18 strand generators conjugate 6 torsion
    # generators, 138 checks, each by the closed form.
    counts = {"inverse": 0, "mul": 0, "checked": 0}
    inverse, mul, in_torsion = Element.inverse, Element.__mul__, nonorientable._in_torsion_subgroup

    def counting(key, real):
        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(Element, "inverse", counting("inverse", inverse))
    monkeypatch.setattr(Element, "__mul__", counting("mul", mul))
    monkeypatch.setattr(nonorientable, "_in_torsion_subgroup", counting("checked", in_torsion))
    assert finite_normal_subgroup(GroupDescriptor.nonorientable(6, 3)).normality_verified
    assert counts == {"inverse": 0, "mul": 0, "checked": 138}



def test_finite_normal_subgroup_fails_when_any_one_conjugate_has_a_free_coordinate(monkeypatch):
    # Each of the 138 (generator, conjugator) pairs at (6,3) is checked:
    # one wrong free coordinate in any one conjugate raises.
    group = GroupDescriptor.nonorientable(6, 3)
    conjugated_by = Element.conjugated_by
    for target in range(138):
        calls = []

        def faulty(self, by, target=target, calls=calls):
            z = conjugated_by(self, by)
            if len(calls) == target:
                rows = [list(row) for row in z.coeffs.rows]
                rows[target % 6][1 + target % 2] = 1
                z = Element(group, CoeffVector(tuple(map(tuple, rows))), z.perm)
            calls.append(by)
            return z

        monkeypatch.setattr(Element, "conjugated_by", faulty)
        with pytest.raises(VerificationError, match="^torsion subgroup failed the normality check$"):
            finite_normal_subgroup(group)
        assert len(calls) == 138


def test_torsion_subgroup_membership_reads_the_permutation_and_every_free_column():
    group = GroupDescriptor.nonorientable(3, 3)
    identity, zero = Permutation.identity(3), ((0, 0),) * 3
    assert nonorientable._in_torsion_subgroup(MixedElement(group, (1, 0, 1), zero, identity))
    assert not nonorientable._in_torsion_subgroup(
        MixedElement(group, (1, 0, 1), zero, Permutation.transposition(3, 2)))
    for strand, col in itertools.product(range(3), range(2)):
        free = [[0, 0] for _ in range(3)]
        free[strand][col] = -1
        assert not nonorientable._in_torsion_subgroup(
            MixedElement(group, (0, 0, 0), tuple(map(tuple, free)), identity))


def test_torsion_subgroup_closed_under_random_conjugation():
    rng = random.Random(193)
    for n, g in [(2, 2), (3, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        for t in torsion_subgroup_elements(group):
            for _ in range(25):
                c = random_mixed(rng, group)
                conj = t.conjugated_by(c)
                assert conj == c * t * c.inverse()
                assert conj.perm.is_identity()
                assert all(v == 0 for row in conj.free for v in row)


def test_verdicts():
    for n in range(3, 7):
        verdict = verify_crystallographic(GroupDescriptor.sphere(n))
        assert not verdict.is_crystallographic
        assert verdict.witness["order"] == 2
    for g in (1, 2, 3):
        for n in (1, 2, 4):
            verdict = verify_crystallographic(GroupDescriptor.nonorientable(n, g))
            assert not verdict.is_crystallographic
            assert verdict.witness["order"] == 2**n
            assert verdict.witness["kind"] == "finite_normal_subgroup"
    assert verify_crystallographic(GroupDescriptor.orientable(3, 2)).is_crystallographic
    assert verify_crystallographic(GroupDescriptor.nonorientable(2, 2)).witness["normality_verified"]
    with pytest.raises(UnsupportedSurfaceError):
        verify_crystallographic(GroupDescriptor.sphere(2))


def test_mixed_json_round_trip():
    group = GroupDescriptor.nonorientable(2, 2)
    x = MixedElement(group, (1, 0), ((3, ), (-2, )), Permutation.transposition(2, 1))
    obj = x.to_json_obj()
    assert obj == {
        "n": 2,
        "g": 2,
        "perm": [2, 1],
        "torsion_bits": [1, 0],
        "coeffs": [[3], [-2]],
    }
    assert Element.from_json_obj(group, json.loads(json.dumps(obj))) == x
    rng = random.Random(211)
    for n in range(1, 5):
        for g in (1, 2, 3):
            group = GroupDescriptor.nonorientable(n, g)
            for _ in range(10):
                x = random_mixed(rng, group)
                obj = json.loads(json.dumps(x.to_json_obj()))
                assert list(obj) == ["n", "g", "perm", "torsion_bits", "coeffs"]
                assert obj["torsion_bits"] == list(x.bits)
                assert obj["coeffs"] == [list(f) for f in x.free]
                assert Element.from_json_obj(group, obj) == x


def test_mixed_element_validation():
    group = GroupDescriptor.nonorientable(2, 2)
    with pytest.raises(ValueError):
        MixedElement(group, (2, 0), ((0,), (0,)), Permutation.identity(2))
    with pytest.raises(ValueError):
        MixedElement(group, (1, 0), ((0, 0), (0, 0)), Permutation.identity(2))
    with pytest.raises(UnsupportedSurfaceError):
        MixedElement(GroupDescriptor.torus(2), (0, 0), ((), ()), Permutation.identity(2))


def test_nonorientable_constructors_and_views_reject_other_surfaces():
    for group in (GroupDescriptor.torus(2), GroupDescriptor.sphere(3)):
        with pytest.raises(UnsupportedSurfaceError):
            MixedElement(group, (0, 0), ((), ()), Permutation.identity(2))
        with pytest.raises(UnsupportedSurfaceError):
            normalize_word(group, parse(group, "s1"))
    x = Element.identity(GroupDescriptor.torus(2))
    with pytest.raises(UnsupportedSurfaceError):
        x.bits
    with pytest.raises(UnsupportedSurfaceError):
        x.free


def test_orientable_only_torsion_functions_reject_nonorientable_elements():
    from surfbraid import torsion

    group = GroupDescriptor.nonorientable(3, 2)
    x = MixedElement(group, (1, 0, 1), ((2,), (-1,), (0,)), Permutation.from_cycles(3, (1, 2)))
    with pytest.raises(UnsupportedSurfaceError):
        torsion.order(x)
    with pytest.raises(UnsupportedSurfaceError):
        torsion.conjugator_to_section(x)
    with pytest.raises(UnsupportedSurfaceError):
        torsion.conjugacy_test(x, x)


def test_products_and_inverses_stay_mixed_views():
    rng = random.Random(197)
    group = GroupDescriptor.nonorientable(4, 3)
    for _ in range(20):
        x, y = random_mixed(rng, group), random_mixed(rng, group)
        for z in (x * y, x.inverse(), x**-3, Element.identity(group)):
            assert type(z) is Element
            assert all(b in (0, 1) for b in z.bits)
            assert z.coeffs.rows == tuple((b,) + f for b, f in zip(z.bits, z.free))


def test_word_text_round_trips_through_normalize_word():
    rng = random.Random(199)
    for n, g in [(2, 1), (3, 2), (4, 3)]:
        group = GroupDescriptor.nonorientable(n, g)
        for _ in range(20):
            x = random_mixed(rng, group)
            assert normalize_word(group, parse(group, x.as_word_text())) == x
