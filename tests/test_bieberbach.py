import collections
import functools
import itertools
import math
import operator
import random

import pytest

from surfbraid import bieberbach, torsion
from surfbraid.bieberbach import BieberbachDescriptor, GnMembership, make_bieberbach
from surfbraid.core import CoeffVector, Element
from surfbraid.errors import DomainError, VerificationError
from surfbraid.intmatrix import IntMatrix
from surfbraid.permutations import Permutation
from surfbraid.torsion import OrderResult, order

from helpers import (
    basis_vector,
    element_from_coords,
    int_matrix,
    integer_span_coords,
    matrix_apply,
    matrix_column,
    normalize_text,
    product_over_strands,
    reference_holonomy_matrix,
    reference_lattice_basis,
    reference_torsion_scan,
    scaled,
)

GRID = [(n, g) for n in range(2, 7) for g in range(1, 4)]


def test_sizes_and_generator_identity():
    desc = make_bieberbach(2, 1)
    assert len(desc.x_generators) == 5
    assert len(desc.lattice_basis) == 4
    assert desc.generator**2 == product_over_strands(desc.group, 1, 1)
    with pytest.raises(ValueError):
        make_bieberbach(1, 1)
    # True == 1 as a number: a bool genus must not pass for genus 1
    for n, genus in [(2, True), (2, 1.0), (2.0, 1)]:
        with pytest.raises(ValueError, match="integers"):
            make_bieberbach(n, genus)


@pytest.mark.parametrize("n, message", [
    ("3", "integers"), (None, "integers"), (1.5, "integers"), (False, "integers"),
    (0, "strand count must be >= 2, got 0"), (1, "strand count must be >= 2, got 1"),
], ids=["str", "None", "float", "bool", "zero", "one"])
def test_make_bieberbach_rejects_a_strand_count_that_is_not_an_int_greater_than_1(n, message):
    # the type is read before any comparison: a ValueError, never the
    # TypeError of "3" < 2, and a bool is not taken for 0 or 1
    with pytest.raises(ValueError, match=message):
        make_bieberbach(n, 1)


def test_generator_is_sigma_ladder_lift():
    # the distinguished generator is a[1,1] * s1 * s2 * ... * s_{n-1}
    for n in (2, 3, 4):
        desc = make_bieberbach(n, 1)
        word = "a[1,1] " + " ".join(f"s{i}" for i in range(1, n))
        assert desc.generator == normalize_text(desc.group, word)


def test_generator_power_identity_across_range():
    for n in range(2, 7):
        for g in (1, 2, 3):
            desc = make_bieberbach(n, g)
            assert desc.generator**n == product_over_strands(desc.group, 1, 1)


def test_conjugation_by_generator_cycles_strands():
    for n in (2, 3, 5):
        desc = make_bieberbach(n, 2)
        for i in range(1, n + 1):
            for r in range(1, 5):
                gen_image = Element.strand_generator(desc.group, i, r).conjugated_by(desc.generator)
                expected = Element.strand_generator(desc.group, i % n + 1, r)
                assert gen_image == expected


def test_descriptor_holds_the_group_and_the_generator_only():
    assert BieberbachDescriptor._fields == ("group", "generator")
    desc = make_bieberbach(32, 4)
    with pytest.raises(TypeError):  # the constructor takes the two fields and nothing else
        BieberbachDescriptor(desc.group, desc.generator, ())
    # the basis and the generating set are derived on first use, not built
    assert "lattice_basis" not in vars(desc) and "x_generators" not in vars(desc)


def test_lattice_basis_matches_the_docstring_basis():
    # the reference writes u and the n-th powers out row by row, without the codec
    for n, g in GRID:
        assert make_bieberbach(n, g).lattice_basis == tuple(reference_lattice_basis(n, g))


def test_x_generators_and_centre_match_hand_built_elements():
    for n, g in GRID:
        desc = make_bieberbach(n, g)
        powers = [
            Element(desc.group, scaled(basis_vector(n, 2 * g, i, r), n), Permutation.identity(n))
            for r in range(1, 2 * g + 1)
            for i in range(1, n + 1)
        ]
        assert desc.x_generators == (desc.generator, *powers)
        centre = [product_over_strands(desc.group, 1, 1)]
        centre += [product_over_strands(desc.group, r, n) for r in range(2, 2 * g + 1)]
        assert desc.centre() == tuple(centre)


def test_first_lattice_generator_has_the_typed_coordinates():
    # a[1,1]^n is derived as a power of the strand generator; in the fixed
    # basis it has the coordinates (n, -1, ..., -1, 0, ...), written out here
    for n in range(2, 7):
        for g in (1, 2):
            desc = make_bieberbach(n, g)
            typed = (n,) + (-1,) * (n - 1) + (0,) * (2 * n * g - n)
            first = desc.x_generators[1]
            assert first == element_from_coords(desc, 0, typed)
            assert desc.lattice_coords(first.coeffs) == typed
            assert len(desc.centre()) == 2 * g  # commutes with every generator, checked inside


def test_holonomy_matrix_matches_the_hand_built_blocks():
    for n, g in GRID:
        assert make_bieberbach(n, g).holonomy_matrix() == reference_holonomy_matrix(n, g)


def test_holonomy_matrix_matches_the_hand_built_blocks_up_to_eight_strands():
    for n in range(2, 9):
        for g in range(1, 5):
            assert make_bieberbach(n, g).holonomy_matrix() == reference_holonomy_matrix(n, g), (n, g)


def test_holonomy_matrix_checks_every_column(monkeypatch):
    # A decoder that disagrees with the encoder (here: one that forgets the
    # coset of u) must fail the column check, not build a matrix.
    decode = BieberbachDescriptor.lattice_coords

    def strict(self, vec):
        if any(v % self.n for row in vec.rows for v in row):
            return None
        return decode(self, vec)

    monkeypatch.setattr(BieberbachDescriptor, "lattice_coords", strict)
    with pytest.raises(VerificationError):
        make_bieberbach(3, 1).holonomy_matrix()


def test_coeffs_from_coords_rejects_a_wrong_coordinate_count():
    desc = make_bieberbach(3, 1)
    for count in (5, 7):
        with pytest.raises(ValueError, match="need 6 coordinates"):
            desc.coeffs_from_coords((0,) * count)


def test_membership_examples():
    desc = make_bieberbach(3, 1)
    g = desc.group
    result = desc.membership(desc.generator)
    assert result.in_group and result.j == 1 and all(c == 0 for c in result.coords)

    alone = Element.strand_generator(g, 1, 1)
    assert not desc.membership(alone).in_group

    u = product_over_strands(g, 1, 1)
    result = desc.membership(u)
    assert result.in_group and result.j == 0
    assert result.coords == (1, 0, 0, 0, 0, 0)

    outside = Element.section(g, Permutation.transposition(3, 1))
    assert not desc.membership(outside).in_group


def test_membership_reconstruction_round_trip():
    rng = random.Random(157)
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        desc = make_bieberbach(n, g)
        dim = 2 * n * g
        for _ in range(40):
            coords = tuple(rng.randint(-4, 4) for _ in range(dim))
            j = rng.randint(0, n - 1)
            x = element_from_coords(desc, j, coords)
            result = desc.membership(x)
            assert result.in_group and result.j == j and result.coords == coords
            assert desc.checked_membership(x) == result


def test_lattice_characterisation_against_span_oracle():
    # The implementation decides membership by congruences; the oracle solves
    # the exact linear system over the basis and demands integer coordinates.
    rng = random.Random(163)
    for n, g in [(2, 1), (3, 1), (3, 2)]:
        desc = make_bieberbach(n, g)
        basis = [b.coeffs for b in desc.lattice_basis]
        for _ in range(150):
            vec = CoeffVector(
                tuple(
                    tuple(rng.randint(-2 * n, 2 * n) for _ in range(2 * g)) for _ in range(n)
                )
            )
            oracle = integer_span_coords(basis, vec)
            ours = desc.lattice_coords(vec)
            assert (ours is None) == (oracle is None)
            if ours is not None:
                assert tuple(oracle) == ours
                assert desc.coeffs_from_coords(ours) == vec


def test_holonomy_matrix_two_strands_frozen():
    matrix = make_bieberbach(2, 1).holonomy_matrix()
    assert matrix == int_matrix([[1, 2, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_holonomy_matrix_three_strands_block_pattern():
    matrix = make_bieberbach(3, 1).holonomy_matrix()
    assert matrix == int_matrix(
        [
            [1, 0, 3, 0, 0, 0],
            [0, 0, -1, 0, 0, 0],
            [0, 1, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
        ]
    )


def test_holonomy_matrix_order():
    for n in range(2, 6):
        for g in (1, 2):
            matrix = make_bieberbach(n, g).holonomy_matrix()
            powers = list(itertools.accumulate([matrix] * n, operator.mul))  # M^1 .. M^n
            assert powers[-1] == IntMatrix.identity(2 * n * g)
            assert IntMatrix.identity(2 * n * g) not in powers[:-1]


def test_holonomy_matrix_matches_conjugation_oracle():
    # Column k of the matrix must be the basis coordinates of the conjugate
    # of the k-th basis element by the distinguished generator.
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        desc = make_bieberbach(n, g)
        matrix = desc.holonomy_matrix()
        for k, basis_elt in enumerate(desc.lattice_basis):
            conj = basis_elt.conjugated_by(desc.generator)
            coords = desc.lattice_coords(conj.coeffs)
            assert conj.perm.is_identity()
            assert coords is not None
            assert matrix_column(matrix, k) == coords


def test_inverse_generator_is_matrix_inverse():
    # conjugation by the generator's inverse acts as the inverse matrix,
    # i.e. as the (n-1)-st matrix power; no separate derivation
    for n, g in [(2, 1), (3, 2), (4, 1)]:
        desc = make_bieberbach(n, g)
        matrix_inv = functools.reduce(operator.mul, [desc.holonomy_matrix()] * (n - 1))
        for k, basis_elt in enumerate(desc.lattice_basis):
            conj = basis_elt.conjugated_by(desc.generator.inverse())
            assert desc.lattice_coords(conj.coeffs) == matrix_column(matrix_inv, k)


def test_centre_rank_and_coordinates():
    for n, g in [(2, 1), (3, 2), (5, 1)]:
        desc = make_bieberbach(n, g)
        basis = desc.centre()
        assert len(basis) == 2 * g
        matrix = desc.holonomy_matrix()
        for z in basis:
            coords = desc.lattice_coords(z.coeffs)
            assert coords is not None
            # centre coordinates are fixed by the holonomy action
            assert matrix_apply(matrix, coords) == coords
        # first centre element is the full handle-1 product, coordinate e_1
        assert desc.lattice_coords(basis[0].coeffs) == (1,) + (0,) * (2 * n * g - 1)


def test_centre_commutes_with_generators():
    desc = make_bieberbach(4, 2)
    for z in desc.centre():
        for gen in desc.x_generators:
            assert z * gen == gen * z
        assert z * desc.generator == desc.generator * z


def test_centre_exhaustive_small():
    # n = 2, g = 1: over all lattice coordinates in [-2, 2] and residues j,
    # exactly the span of the centre basis commutes with every generator.
    desc = make_bieberbach(2, 1)
    centre_coords = set()
    for lam, mu in itertools.product(range(-2, 3), repeat=2):
        centre_coords.add((lam, 0, mu, mu))  # lam * u + mu * (a[1,2]^2 a[2,2]^2)
    commuting = set()
    for coords in itertools.product(range(-2, 3), repeat=4):
        for j in range(2):
            x = element_from_coords(desc, j, coords)
            if all(x * gen == gen * x for gen in desc.x_generators):
                assert j == 0
                commuting.add(coords)
    assert commuting == centre_coords


def test_centre_no_extra_commuting_elements_sampled():
    rng = random.Random(167)
    for n, g in [(3, 1), (4, 2)]:
        desc = make_bieberbach(n, g)
        dim = 2 * n * g
        for _ in range(300):
            coords = tuple(rng.randint(-2, 2) for _ in range(dim))
            j = rng.randint(0, n - 1)
            # skip members of the centre span: handle-1 block (lam, 0..0),
            # other blocks constant, j = 0
            in_span = (
                j == 0
                and all(c == 0 for c in coords[1:n])
                and all(
                    len({coords[n + (r - 2) * n + i] for i in range(n)}) == 1
                    for r in range(2, 2 * g + 1)
                )
            )
            if in_span:
                continue
            x = element_from_coords(desc, j, coords)
            assert not all(x * gen == gen * x for gen in desc.x_generators)


def test_torsion_scan_small():
    report = make_bieberbach(2, 1).torsion_scan(1)
    assert report.passed
    assert report.scanned == 3**4 * 2
    assert report.torsion_hits == ()
    assert report.obstruction_mismatches == ()


def test_torsion_scan_rejects_negative_bound():
    with pytest.raises(DomainError):
        make_bieberbach(2, 1).torsion_scan(-1)
    assert make_bieberbach(2, 1).torsion_scan(0).scanned == 2


@pytest.mark.parametrize("bound", [True, 1.5, 1.0, "1", None])
def test_torsion_scan_rejects_a_bound_that_is_not_an_int(monkeypatch, bound):
    # a bool is not taken as 0 or 1, nor a float truncated; no row is built
    def no_strand_row(*args):
        raise AssertionError("a strand row was built before the bound was rejected")

    desc = make_bieberbach(2, 1)
    monkeypatch.setattr(bieberbach, "_strand_row", no_strand_row)
    with pytest.raises(DomainError, match="scan bound must be an integer"):
        desc.torsion_scan(bound)


def test_generator_itself_has_infinite_order():
    desc = make_bieberbach(2, 1)
    assert not order(desc.generator).is_finite
    assert not (desc.generator**2).is_identity()


def test_random_subgroup_members_are_torsion_free():
    rng = random.Random(173)
    for n, g in [(3, 1), (4, 2)]:
        desc = make_bieberbach(n, g)
        dim = 2 * n * g
        for _ in range(200):
            coords = tuple(rng.randint(-3, 3) for _ in range(dim))
            j = rng.randint(0, n - 1)
            x = element_from_coords(desc, j, coords)
            if x.is_identity():
                continue
            assert not order(x).is_finite


def test_scan_and_membership_raise_no_power_after_construction(monkeypatch):
    # The descriptor caches generator**0 .. generator**(n-1); only
    # make_bieberbach raises the generator to a power.
    desc = make_bieberbach(3, 1)

    def no_power(self, k):
        raise AssertionError("Element.__pow__ called after make_bieberbach")

    monkeypatch.setattr(Element, "__pow__", no_power)
    report = desc.torsion_scan(1)
    assert report.passed and report.scanned == 3**6 * 3
    for j in range(3):
        coords = (1, -1, 0, 2, 0, -3)
        x = element_from_coords(desc, j, coords)
        assert desc.membership(x) == GnMembership(True, j, coords)
    # the lattice part of generator**1 over another permutation: not a member
    for w in (Permutation.transposition(3, 1), Permutation.from_cycles(3, (1, 2, 3)).inverse()):
        outside = Element(desc.group, desc.powers[1].coeffs, w)
        assert desc.membership(outside) == GnMembership(False, None, None)
    assert desc.powers[1] == desc.generator


def test_scanned_elements_are_built_without_a_product(monkeypatch):
    # A scanned lattice part theta is pure lattice, so theta * generator**j
    # is one addition of lattice parts over the permutation of generator**j.
    for n, g in [(2, 1), (3, 1)]:
        desc = make_bieberbach(n, g)
        rng = random.Random(n)
        expected = []
        for j in range(n):
            coords = tuple(rng.randint(-2, 2) for _ in range(2 * n * g))
            theta = Element(desc.group, desc.coeffs_from_coords(coords), Permutation.identity(n))
            expected.append((j, coords, theta * desc.powers[j]))

        def no_product(self, other):
            raise AssertionError("Element.__mul__ called after the powers were cached")

        monkeypatch.setattr(Element, "__mul__", no_product)
        report = desc.torsion_scan(1)
        assert report.passed and report.scanned == 3 ** (2 * n * g) * n
        for j, coords, x in expected:
            assert element_from_coords(desc, j, coords) == x
        monkeypatch.undo()


def test_torsion_scan_walks_one_orbit_decomposition_per_residue(monkeypatch):
    # Every scanned element of residue j lies over the permutation of
    # generator**j, whose orbit decomposition is cached on first use.
    walk = Permutation.orbits.func
    walks = []

    def counted(self):
        walks.append(self.images)
        return walk(self)

    orbits = functools.cached_property(counted)
    orbits.__set_name__(Permutation, "orbits")
    monkeypatch.setattr(Permutation, "orbits", orbits)
    for n, g in [(2, 2), (3, 1)]:
        desc = make_bieberbach(n, g)
        walks.clear()
        report = desc.torsion_scan(1)
        assert report.passed and report.scanned == 3 ** (2 * n * g) * n
        assert len(walks) <= n


SCAN_CASES = [(2, 1, 0), (2, 1, 1), (3, 1, 1), (2, 2, 1)]


def _every_tuple(tables, cycle, target):
    """A join that reports too much: every tuple of rows of the cycle's
    tables, whatever their sum."""
    return list(itertools.product(*[tables[c - 1] for c in cycle]))


def _record_order(monkeypatch, seen):
    """Wrap the finite-order test torsion.order, which the scan's re-check
    and the reference scan both look up at call time: count each (orbits,
    rows) pair it calls finite in seen[0]."""
    real = torsion.order

    def recorded(x):
        result = real(x)
        if result.is_finite:
            seen[0][(x.perm.orbits, x.coeffs.rows)] += 1
        return result

    monkeypatch.setattr(torsion, "order", recorded)


def test_torsion_scan_matches_the_coordinate_scan(monkeypatch):
    # The strand tables and the join cover the same box as the
    # coordinate-by-coordinate scan: the same report, and the (orbits, rows)
    # pairs the join yields, each re-checked by `order`, are the pairs `order`
    # calls finite among the reference's elements.
    seen = [None]
    _record_order(monkeypatch, seen)
    for n, g, b in SCAN_CASES:
        desc = make_bieberbach(n, g)
        seen[0] = ours = collections.Counter()
        report = desc.torsion_scan(b)
        seen[0] = theirs = collections.Counter()
        assert report == reference_torsion_scan(desc, b)
        assert ours == theirs and sum(ours.values()) == 1  # the identity
        assert report.scanned == (2 * b + 1) ** (2 * n * g) * n


def test_torsion_scan_reports_finite_elements_in_coordinate_order(monkeypatch):
    # With a chosen subset of each cycle's row tuples called finite, by the
    # join and by `order` alike, the scan puts the joined parts back in
    # strand order, and the lazily decoded coordinates and the sort reproduce
    # the coordinate-lexicographic report entry for entry.  The join sees
    # offsets, whose entries sum to those of the scanned rows minus those of
    # the cycle's shifts, that is plus those of the target.
    real_join = torsion.zero_sum_rows

    def chosen(total, length):
        return (total + 3 * length) % 7 == 0

    def join(tables, cycle, target):
        hits = set(real_join(tables, cycle, target))
        return [part for part in _every_tuple(tables, cycle, target)
                if part in hits or chosen(sum(map(sum, part)) - sum(target), len(part))]

    def order(x):
        finite = all(not any(sums) or chosen(sum(sums), len(cycle)) for cycle, sums in torsion.cycle_sums(x))
        return OrderResult(x.perm.order() if finite else None)

    monkeypatch.setattr(torsion, "zero_sum_rows", join)
    monkeypatch.setattr(torsion, "order", order)
    for n, g, b in SCAN_CASES:
        desc = make_bieberbach(n, g)
        report, reference = desc.torsion_scan(b), reference_torsion_scan(desc, b)
        assert report.torsion_hits == reference.torsion_hits
        assert report.obstruction_mismatches == reference.obstruction_mismatches
        if b:
            assert report.torsion_hits and report.obstruction_mismatches


def test_torsion_scan_validates_and_checks_every_element(monkeypatch):
    # The scan checks each row of its two offset tables once, each (j, lam)'s
    # n shift rows once and each joined tuple once with the constructor's row
    # check, and hands the join only checked rows: each join call gets the n
    # tables, every row an object that passed the check (held here, so no id
    # is reused), one cycle of the residue's orbits and a target of 2g ints;
    # for each (j, lam) the join runs once per cycle, and the cycles cover
    # the n strands.  Every tuple it yields is re-checked by `order`, an
    # element of n checked rows over orbits that cover the n strands: in the
    # torsion-free subgroup, the identity alone.  The scan counts the
    # elements of the box.
    checked: dict[int, tuple[int, ...]] = {}
    calls = collections.Counter()
    real_join, real_order, real_check_rows = torsion.zero_sum_rows, torsion.order, Element._check_rows

    def recorded_check_rows(group, rows):
        real_check_rows(group, rows)
        calls["row checks"] += 1
        checked.update((id(row), row) for row in rows)

    def checked_join(tables, cycle, target):
        calls["join"] += 1
        calls["cycle strands"] += len(cycle)
        if len(tables) != n or not set(cycle) <= set(range(1, n + 1)):
            calls["bad size"] += 1
        if type(target) is not tuple or len(target) != 2 * g or any(type(v) is not int for v in target):
            calls["bad target"] += 1
        calls["unchecked rows"] += sum(1 for table in tables for row in table if checked.get(id(row)) is not row)
        return real_join(tables, cycle, target)

    def checked_order(x):
        calls["order"] += 1
        rows, orbits = x.coeffs.rows, x.perm.orbits
        if type(rows) is not tuple or len(rows) != n or sorted(itertools.chain(*orbits)) != list(range(1, n + 1)):
            calls["bad size"] += 1
        calls["unchecked rows"] += sum(1 for row in rows if checked.get(id(row)) is not row)
        return real_order(x)

    monkeypatch.setattr(Element, "_check_rows", staticmethod(recorded_check_rows))
    monkeypatch.setattr(torsion, "zero_sum_rows", checked_join)
    monkeypatch.setattr(torsion, "order", checked_order)
    for n, g, b in SCAN_CASES:
        desc = make_bieberbach(n, g)
        assert len(desc.powers) == n  # cached before counting
        checked.clear()
        calls.clear()
        report = desc.torsion_scan(b)
        assert report.scanned == (2 * b + 1) ** (2 * n * g) * n
        assert calls["join"] == (2 * b + 1) * sum(len(gj.perm.orbits) for gj in desc.powers)
        assert calls["cycle strands"] == (2 * b + 1) * n * n
        assert calls["order"] == 1
        assert calls["row checks"] == 2 + (2 * b + 1) * n + 1
        assert calls["bad size"] == calls["bad target"] == calls["unchecked rows"] == 0


def test_a_kernel_that_calls_everything_finite_fails_order_and_the_scan(monkeypatch):
    # The scan decides finiteness in one place, `order`, looked up at call
    # time; the join only proposes tuples.  A join that yields every tuple
    # fails the re-check; with an `order` that also calls everything finite,
    # the generator's infinite order turns finite and the passing scan into a
    # failing one.  A join that drops the identity, or finds it twice, fails
    # the identity check.
    desc = make_bieberbach(2, 1)
    assert not order(desc.generator).is_finite and desc.torsion_scan(1).passed
    real_join = torsion.zero_sum_rows
    with monkeypatch.context() as patch:
        patch.setattr(torsion, "zero_sum_rows", _every_tuple)
        with pytest.raises(VerificationError, match="a joined tuple of rows must have vanishing cycle sums"):
            desc.torsion_scan(1)
        patch.setattr(torsion, "order", lambda x: OrderResult(x.perm.order()))
        assert torsion.order(desc.generator) == OrderResult(desc.generator.perm.order())
        assert not desc.torsion_scan(1).passed
    for join in (lambda tables, cycle, target: [],
                 lambda tables, cycle, target: 2 * real_join(tables, cycle, target)):
        monkeypatch.setattr(torsion, "zero_sum_rows", join)
        with pytest.raises(VerificationError, match="the join must find the identity exactly once"):
            desc.torsion_scan(1)


def _shifted(tables, shifts):
    """The scanned rows: each offset table with its strand's shift row added."""
    return [tuple([tuple(map(operator.add, row, shift)) for row in table]) for table, shift in zip(tables, shifts)]


def test_join_finds_exactly_the_tuples_of_finite_order():
    # Per (j, lam) and per cycle, the join's tuples of offsets are the
    # brute-force set {offsets in the product of the tables : they sum to
    # minus the cycle's shift sum}, each once, and the joined rows are
    # {rows in the product of the shifted tables : `order` calls them
    # finite}.  (4,1,1) has the cycle types 4, 2+2 and 1^4.
    joined_any = False
    for n, g, b in SCAN_CASES + [(4, 1, 1), (3, 1, 2)]:
        desc = make_bieberbach(n, g)
        for j, gj, tables, shifts in desc._strand_tables(b):
            orbits = gj.perm.orbits
            for cycle in orbits:
                target = tuple([-v for v in map(sum, zip(*[shifts[c - 1] for c in cycle]))])
                part = collections.Counter(torsion.zero_sum_rows(tables, cycle, target))
                brute = collections.Counter(rows for rows in itertools.product(*[tables[c - 1] for c in cycle])
                                            if tuple(map(sum, zip(*rows))) == target)
                assert part == brute, (n, g, b, j, cycle)
                joined_any = joined_any or bool(part)
            finite = collections.Counter(rows for rows in itertools.product(*_shifted(tables, shifts))
                                         if order(Element(desc.group, CoeffVector(rows), gj.perm)).is_finite)
            assert collections.Counter(bieberbach._joined_rows(tables, shifts, orbits)) == finite, (n, g, b, j)
    assert joined_any
    assert {tuple(map(len, gj.perm.orbits)) for gj in make_bieberbach(4, 1).powers} == {(4,), (2, 2), (1,) * 4}
    # In the torsion-free subgroup a cycle of length 3 or more never sums to
    # zero, so random tables of small rows and sizes give the join's halves
    # sums with many matches each, against the zero target and random
    # nonzero ones.
    rng = random.Random(281)
    nonzero = 0
    for m in range(1, 6):
        for _ in range(20):
            tables = [tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(rng.randint(1, 6)))
                      for _ in range(m)]
            cycle = tuple(rng.sample(range(1, m + 1), m))
            for target in [(0, 0)] + [(rng.randint(-m, m), rng.randint(-m, m)) for _ in range(3)]:
                brute = collections.Counter(rows for rows in itertools.product(*[tables[c - 1] for c in cycle])
                                            if tuple(map(sum, zip(*rows))) == target)
                assert collections.Counter(torsion.zero_sum_rows(tables, cycle, target)) == brute, (tables, cycle)
                nonzero += bool(any(target) and brute)
    assert nonzero >= 50


def test_join_indexes_the_half_with_fewer_row_tuples(monkeypatch):
    # The join holds only the half of a cycle that it indexes, the one with
    # fewer row tuples, and streams the other: per call of a cycle of length
    # 2 or more, one half is folded from the target by subtraction (the
    # index) and the other from zero by addition, and the index is never the
    # larger half.
    real_partial_sums = torsion._partial_sums
    halves = []

    def recorded(tables, strands, start, op):
        halves.append((op, math.prod(len(tables[c - 1]) for c in strands)))
        return real_partial_sums(tables, strands, start, op)

    monkeypatch.setattr(torsion, "_partial_sums", recorded)
    rng = random.Random(30)
    for m in range(2, 6):
        for _ in range(10):
            tables = [tuple(tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(rng.randint(1, 9)))
                      for _ in range(m)]
            halves.clear()
            torsion.zero_sum_rows(tables, tuple(rng.sample(range(1, m + 1), m)), (0, 0))
            (index_op, indexed), (stream_op, streamed) = halves
            assert (index_op, stream_op) == (operator.sub, operator.add) and indexed <= streamed
    halves.clear()
    assert make_bieberbach(4, 1).torsion_scan(1).passed
    assert halves and all(indexed <= streamed for (_, indexed), (_, streamed) in zip(halves[::2], halves[1::2]))


def test_offset_tables_plus_shifts_are_the_codec_rows():
    # The hoist matches the codec: for every (j, lam), strand i and choice
    # of strand i's coordinates, offset + shift is the row that _strand_row
    # writes plus that of generator**j.  Strand 0's handle-1 coordinate is lam.
    for n, g, b in SCAN_CASES:
        desc = make_bieberbach(n, g)
        box = range(-b, b + 1)
        free = [box] * (2 * g - 1)
        residues = list(itertools.product(range(n), box))
        yielded = list(desc._strand_tables(b))
        assert [j for j, *_ in yielded] == [j for j, _ in residues]
        for (j, gj, tables, shifts), (_, lam) in zip(yielded, residues):
            assert gj == desc.powers[j] and len(tables) == len(shifts) == n
            for i, (table, shift) in enumerate(zip(tables, shifts)):
                strands = list(itertools.product((lam,) if i == 0 else box, *free))
                assert len(table) == len(strands)
                for offset, strand in zip(table, strands):
                    assert (tuple(map(operator.add, offset, shift)) == tuple(map(
                        operator.add, bieberbach._strand_row(n, lam, i, strand), gj.coeffs.rows[i]))), (n, g, b, j, lam, i)


@pytest.mark.parametrize("n, g, b", [(n, 1, b) for n in range(2, 7) for b in (0, 1)]
                         + [(2, 1, 2), (2, 2, 1), (3, 2, 0), (3, 2, 1)])
def test_a_scan_builds_each_offset_row_once(monkeypatch, n, g, b):
    # One scan calls the codec's row writer once per offset row: strand 0's
    # table and the table shared by strands 1..n-1, so the count depends on
    # neither n nor the number of residues.
    real_strand_row = bieberbach._strand_row
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return real_strand_row(*args)

    desc = make_bieberbach(n, g)
    monkeypatch.setattr(bieberbach, "_strand_row", counted)
    assert desc.torsion_scan(b).passed
    assert calls[0] == (2 * b + 1) ** (2 * g - 1) + (2 * b + 1) ** (2 * g)


@pytest.mark.parametrize("b", [0, 1, 2])
def test_torsion_scan_calls_order_once_per_reported_tuple(monkeypatch, b):
    # The scan's only finite-order test is `order`, called once on each
    # tuple the join reports; the torsion-free subgroup reports the
    # identity alone, so once per scan.
    real_join, real_order = bieberbach._joined_rows, torsion.order
    calls = collections.Counter()

    def counted_join(*args):
        for rows in real_join(*args):
            calls["reported"] += 1
            yield rows

    def counted_order(x):
        calls["order"] += 1
        return real_order(x)

    desc = make_bieberbach(2, 1)
    monkeypatch.setattr(bieberbach, "_joined_rows", counted_join)
    monkeypatch.setattr(torsion, "order", counted_order)
    assert desc.torsion_scan(b).passed
    assert calls == {"reported": 1, "order": 1}


def test_bound_one_scans_of_larger_boxes_pass():
    # The join reaches boxes of millions of elements: 3^12 * 3 and 3^12 * 6.
    for (n, g), scanned in [((3, 2), 1_594_323), ((6, 1), 3_188_646)]:
        report = make_bieberbach(n, g).torsion_scan(1)
        assert report.passed and report.scanned == scanned


def test_torsion_scan_builds_an_element_only_for_finite_rows(monkeypatch):
    # The scan builds one element, with the checked constructor, per tuple
    # of rows the join yields, and re-checks it with `order`: in the
    # torsion-free subgroup, the identity alone.  No element is built
    # unchecked.
    real_trusted, real_post_init = Element._trusted, Element.__post_init__
    built = collections.Counter()

    def counted_trusted(group, coeffs, perm):
        built["unchecked"] += 1
        return real_trusted(group, coeffs, perm)

    def counted_post_init(self):
        built["checked"] += 1
        real_post_init(self)

    for n, g, b in SCAN_CASES:
        desc = make_bieberbach(n, g)
        assert len(desc.powers) == n  # cached before counting
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Element, "_trusted", staticmethod(counted_trusted))
            patch.setattr(Element, "__post_init__", counted_post_init)
            report = desc.torsion_scan(b)
        assert report.passed and report.scanned == (2 * b + 1) ** (2 * n * g) * n
        assert built == {"checked": 1}


@pytest.mark.parametrize("fault, message", [
    (lambda row: (float(row[0]),) + row[1:], "coefficients must be integers"),
    (lambda row: (True,) + row[1:], "coefficients must be integers"),
    (lambda row: row[:-1], "every coefficient row must have 2 entries (rows as a tuple of tuples)"),
], ids=["float", "bool", "short"])
def test_torsion_scan_rejects_a_faulty_strand_row(monkeypatch, fault, message):
    # One faulty row, the last of the offset table shared by strands
    # 1..n-1, built once with lam = 0, is rejected with the validating
    # constructor's message before any table reaches the join or any element
    # the finite-order test.
    desc = make_bieberbach(2, 1)
    real_strand_row = bieberbach._strand_row
    faulted = []

    def faulty_strand_row(n, lam, i, strand):
        row = real_strand_row(n, lam, i, strand)
        if (i, lam, strand) == (n - 1, 0, (1, 1)):
            faulted.append(row)
            return fault(row)
        return row

    def no_check(*args):
        raise AssertionError("rows were joined or checked before the faulty row was rejected")

    monkeypatch.setattr(bieberbach, "_strand_row", faulty_strand_row)
    monkeypatch.setattr(torsion, "zero_sum_rows", no_check)
    monkeypatch.setattr(torsion, "order", no_check)
    with pytest.raises(ValueError) as excinfo:
        desc.torsion_scan(1)
    assert str(excinfo.value) == message
    assert faulted == [(2, 2)]


@pytest.mark.parametrize("fault, message", [
    (lambda row: (row[0], float(row[1])), "coefficients must be integers"),
    (lambda row: (row[0], True), "coefficients must be integers"),
    (lambda row: row[:-1], "every coefficient row must have 2 entries (rows as a tuple of tuples)"),
], ids=["float", "bool", "short"])
def test_torsion_scan_rejects_a_faulty_shift_row(monkeypatch, fault, message):
    # A faulty row in a cached power of the generator, the base of one
    # residue's shift rows, is rejected with the validating constructor's
    # message before any table reaches the join or any element the
    # finite-order test.
    desc = make_bieberbach(2, 1)
    g1 = desc.powers[1]
    rows = (fault(g1.coeffs.rows[0]),) + g1.coeffs.rows[1:]
    desc.__dict__["powers"] = (desc.powers[0], Element._trusted(desc.group, CoeffVector(rows), g1.perm))

    def no_check(*args):
        raise AssertionError("rows were joined or checked before the faulty shift row was rejected")

    monkeypatch.setattr(torsion, "zero_sum_rows", no_check)
    monkeypatch.setattr(torsion, "order", no_check)
    with pytest.raises(ValueError) as excinfo:
        desc.torsion_scan(1)
    assert str(excinfo.value) == message
