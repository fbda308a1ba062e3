"""Finite-order elements and finite subgroups: detection, conjugacy of every
element, one constructive conjugator, and the order-p element living over a
Frobenius permutation group.

Detection reads the cycle-sum map S_w of :func:`cycle_sums`: v * section(w)
has finite order iff the rows of v sum to zero over every cycle of w.  The
test is written once, in :func:`order`; the Bieberbach torsion scan finds
its finite tuples with :func:`zero_sum_rows` and re-checks each with
:func:`order`.  The closed power formula read from the same sums is
:meth:`surfbraid.core.Element.__pow__`, with which :func:`checked_order`
backs the order that the commands print.
Conjugators come from one breadth-first walk of the Schreier graph,
:func:`conjugator_to_section`.  The lattice is a sum of permutation modules,
so by Shapiro's lemma that walk closes exactly on finite subgroups.  Two
elements are conjugate iff their multisets of pairs (cycle length, S_C)
agree, and the witness is one walk over the cycles of the second; the S_n
copies and the Frobenius copies, the sections of :func:`frobenius_pair`
conjugated by a partial-sum alpha, are two more named cases.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import Callable, Iterator

from .core import CoeffVector, Element, GroupDescriptor
from .errors import (
    BadMultiplierError,
    BadPrimeError,
    Frozen,
    GroupMismatchError,
    InfiniteOrderError,
    NotAnSnEmbeddingError,
    check,
)
from .permutations import Permutation


class OrderResult(Frozen):
    """Order of a group element: a positive integer or infinite (value None)."""

    __slots__ = _fields = ("value",)

    @property
    def is_finite(self) -> bool:
        return self.value is not None


def cycle_sums(x: Element) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The cycle-sum map S_w of x = v * section(w): for each cycle C of w,
    fixed strands included, the pair (C, S_C) where S_C sums the rows of v
    over C.  x has finite order iff every S_C vanishes.  Conjugation by a
    pure-lattice alpha adds alpha - w(alpha) to v, which sums to zero over
    every cycle of w, so the sums are conjugation invariant.

    The cycles are w's cached :attr:`~surfbraid.permutations.Permutation.orbits`,
    and each S_C is summed column by column straight from the rows of v; a
    fixed strand c, the 1-cycle (c,), gets its own row."""
    rows = x.coeffs.rows
    return [(cycle, tuple(list(map(sum, zip(*[rows[c - 1] for c in cycle]))))) for cycle in x.perm.orbits]


def zero_sum_rows(tables: list[tuple[tuple[int, ...], ...]], cycle: tuple[int, ...],
                  target: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The finite-order test of :func:`order` on one cycle, solved over row
    tables against a target: every tuple of rows, one from ``tables[c - 1]``
    for each strand c of ``cycle`` in cycle order, whose rows sum to
    ``target``.

    A fixed strand keeps its rows equal to the target.  A longer cycle is
    split in two (meet in the middle, Horowitz-Sahni 1974) where the two
    halves have the fewest row tuples between them.  The half with fewer
    tuples is indexed by target minus its row sums and held in memory; the
    tuples of the other half are streamed, each looking up its own sum.
    Sums are tuples of ints, so every match is an exact comparison."""
    if len(cycle) == 1:
        return [(row,) for row in tables[cycle[0] - 1] if row == target]
    sizes = [len(tables[c - 1]) for c in cycle]
    half = min(range(1, len(cycle)), key=lambda h: math.prod(sizes[:h]) + math.prod(sizes[h:]))
    first_indexed = math.prod(sizes[:half]) <= math.prod(sizes[half:])
    indexed, streamed = (cycle[:half], cycle[half:]) if first_indexed else (cycle[half:], cycle[:half])
    matches: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
    for part, rest in _partial_sums(tables, indexed, target, sub):
        matches.setdefault(rest, []).append(part)
    return [other + part if first_indexed else part + other
            for part, total in _partial_sums(tables, streamed, (0,) * len(target), add)
            for other in matches.get(total, ())]


def _partial_sums(tables: list[tuple[tuple[int, ...], ...]], strands: tuple[int, ...], start: tuple[int, ...],
                  op: Callable[[int, int], int]) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """Each tuple of rows, one from ``tables[c - 1]`` for each strand c of
    ``strands`` in order, with ``start`` folded with its rows by ``op``,
    yielded one at a time: only the tuples of the strands before the last
    are held."""
    out = [((), start)]
    for c in strands[:-1]:
        out = [(part + (row,), tuple(list(map(op, total, row)))) for part, total in out for row in tables[c - 1]]
    last = tables[strands[-1] - 1]
    for part, total in out:
        for row in last:
            yield part + (row,), tuple(list(map(op, total, row)))


def order(x: Element) -> OrderResult:
    """Order of x = v * section(w): finite iff the rows of v sum to zero over
    every cycle of w, read up to the first nonzero sum (a fixed strand's sum
    is its own row); then it is the order of w.  The one place the
    finite-order test is written."""
    x.group.require_orientable("element order")
    rows = x.coeffs.rows
    for cycle in x.perm.orbits:
        if any(rows[cycle[0] - 1] if len(cycle) == 1 else map(sum, zip(*[rows[c - 1] for c in cycle]))):
            return OrderResult(None)
    return OrderResult(x.perm.order())


def checked_order(x: Element) -> OrderResult:
    """:func:`order`, backed by closed-form powers for the commands that print
    it.  A finite order k needs x**k to be the identity and x**(k // q) not
    to be, for each prime q dividing k.  Infinite order needs x**m, m the
    order of the permutation part, to be a nonzero lattice element: a finite
    order would be a multiple of m, and the lattice is torsion free."""
    result = order(x)
    if not result.is_finite:
        check(not (x ** x.perm.order()).is_identity(),
              "an infinite-order element must have a nonzero power over the identity permutation")
        return result
    k = result.value
    check((x ** k).is_identity(), f"x**{k} must be the identity for an element of order {k}")
    rest, q = k, 2  # each prime factor of k divides a cycle length, so q stays at most n
    while rest > 1:
        if rest % q == 0:
            check(not (x ** (k // q)).is_identity(),
                  f"x**{k // q} must not be the identity for an element of order {k}")
            while rest % q == 0:
                rest //= q
        q += 1
    return result


def conjugator_to_section(theta: Element, *others: Element, root: int = 1) -> Element:
    """A pure-lattice alpha with alpha * section(w) * alpha^{-1} == x for
    each given x = v * section(w), that is alpha[w(c)] == alpha[c] + v[w(c)]
    on every edge c -> w(c) of the Schreier graph of the permutations.

    A breadth-first walk sets alpha = 0 at one anchor per orbit, ``root``
    first, then the least unreached strand; tree edges build alpha and every
    other edge checks it.  The lattice is a sum of permutation modules, so by
    Shapiro's lemma the walk closes exactly when the elements generate a
    finite subgroup (for one element, the criterion of :func:`order`);
    otherwise it raises InfiniteOrderError.
    """
    group = theta.group
    group.require_orientable("a conjugator to the section")
    elements = (theta, *others)
    if any([x.group != group for x in others]):
        raise GroupMismatchError("the elements must live in the same group")
    n = group.n
    if type(root) is not int or not 1 <= root <= n:
        raise ValueError(f"root strand {root!r} is not an integer in 1..{n}")
    edges = [(x.perm.images, x.coeffs.rows) for x in elements]
    rows: list[tuple[int, ...] | None] = [None] * n
    for anchor in (root, *range(1, n + 1)):
        if rows[anchor - 1] is not None:
            continue
        rows[anchor - 1] = (0,) * group.handle_count
        queue = [anchor]
        for c in queue:  # the queue grows while it is read: breadth first
            here = rows[c - 1]
            for images, coeffs in edges:
                d = images[c - 1]
                there = tuple(list(map(add, here, coeffs[d - 1])))
                if rows[d - 1] is None:
                    rows[d - 1] = there
                    queue.append(d)
                elif rows[d - 1] != there:
                    raise InfiniteOrderError("only finite-order elements are conjugate to a section")
    alpha = Element._trusted(group, CoeffVector(tuple(rows)), Permutation.identity(n))
    zero = CoeffVector.zero(n, group.handle_count)
    for x in elements:
        check(Element._trusted(group, zero, x.perm).conjugated_by(alpha) == x,
              "the conjugator must carry the section to the element")
    return alpha


def conjugating_permutation(e1: Element, e2: Element) -> Permutation | None:
    """Lexicographically least xi with xi * w1 * xi^{-1} == w2 that sends each
    cycle C of w1 to a cycle of w2 with the same pair (len(C), S_C) of
    :func:`cycle_sums`, for e_i = v_i * section(w_i) of one group; None when
    the multisets of pairs differ.

    Greedy and O(n): each cycle of w1, in orbit order, takes the first unused
    cycle of w2 with its pair, and the two are zipped, xi(w1^t(i)) = w2^t(v).
    Whole cycles go at once and each starts at its least strand, so the
    greedy minimum is the lexicographic minimum."""
    buckets: dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]] = {}
    for cycle, sums in reversed(cycle_sums(e2)):  # so that pop() takes the first in orbit order
        buckets.setdefault((len(cycle), sums), []).append(cycle)
    images = [0] * e1.group.n
    for cycle, sums in cycle_sums(e1):
        bucket = buckets.get((len(cycle), sums))
        if not bucket:
            return None
        for c, d in zip(cycle, bucket.pop()):
            images[c - 1] = d
    return Permutation._trusted(tuple(images))


def conjugacy_test(e1: Element, e2: Element) -> Element | None:
    """Decide conjugacy of two elements of the orientable quotient: conjugate
    iff their multisets of pairs (cycle length, S_C) of :func:`cycle_sums`
    agree.  Returns a verified conjugator c with c * e1 * c^{-1} == e2, or
    None.

    For e_i = v_i * section(w_i), c = alpha * section(xi) with xi from
    :func:`conjugating_permutation` conjugates e1 to
    (alpha - w2(alpha) + xi(v1)) * section(w2), so alpha is the one walk of
    :func:`conjugator_to_section` over (v2 - xi(v1)) * section(w2); xi
    matches the cycle sums, so that element has finite order and the walk
    closes."""
    group = e1.group
    if group != e2.group:
        raise GroupMismatchError("conjugacy test requires elements of the same group")
    group.require_orientable("conjugacy")
    xi = conjugating_permutation(e1, e2)
    if xi is None:
        return None
    alpha = conjugator_to_section(Element._trusted(group, e2.coeffs - e1.coeffs.permuted(xi), e2.perm))
    c = Element._trusted(group, alpha.coeffs, xi)
    check(e1.conjugated_by(c) == e2, "the conjugacy witness must conjugate the first element to the second")
    return c


def symmetric_copy_conjugator(group: GroupDescriptor, images: list[Element]) -> Element:
    """Given involutions alpha_1..alpha_{n-1} over the adjacent transpositions,
    the pure-lattice x with x_1 = 0 and x * section(t_i) * x^{-1} == alpha_i
    for every i.  Once the images are checked to form an S_n copy, this is the
    walk of :func:`conjugator_to_section` over the identity and the images;
    the identity covers n = 1, and S_n is finite, so the walk always closes.
    """
    group.require_orientable("symmetric-group copies")
    n = group.n
    if len(images) != n - 1:
        raise NotAnSnEmbeddingError(f"need {n - 1} images, got {len(images)}")
    identity = Element.identity(group)
    for i, alpha in enumerate(images, start=1):
        if alpha.group != group:
            raise GroupMismatchError("images must live in the given group")
        if alpha.perm != Permutation.transposition(n, i):
            raise NotAnSnEmbeddingError(f"image {i} does not project to the transposition ({i},{i + 1})")
        if not order(alpha).is_finite:  # over a transposition, finite order is order 2
            raise NotAnSnEmbeddingError(f"image {i} is not an involution")
    return conjugator_to_section(identity, *images)


class FrobeniusEmbedding(Frozen):
    """Parameters of an embedded order-10 Frobenius group over five strands:
    per handle block r, the pure-lattice alpha has rows a1, a1+a2, a1+a2+a3,
    a1+..+a4 and 0.  Conjugating the sections by alpha yields the lattice
    part (a1, a2, a3, a4, -a1-a2-a3-a4) over the 5-cycle and (x, y, -y, -x, 0)
    with x = -a2-a3-a4 and y = -a3 over (1 4)(2 3).
    """

    __slots__ = _fields = ("genus", "blocks")

    def __post_init__(self):
        if type(self.genus) is not int:
            raise ValueError(f"genus must be an integer, got {self.genus!r}")
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        if not isinstance(self.blocks, tuple) or any([not isinstance(b, tuple) for b in self.blocks]):
            raise ValueError(f"parameter blocks must be a tuple of tuples, got {self.blocks!r}")
        if len(self.blocks) != 2 * self.genus:
            raise ValueError(f"need {2 * self.genus} parameter blocks, got {len(self.blocks)}")
        if any([len(b) != 4 or any([type(v) is not int for v in b]) for b in self.blocks]):
            raise ValueError("each parameter block has exactly four integers")  # never coerced

    @classmethod
    def zero(cls, genus: int) -> FrobeniusEmbedding:
        return cls(genus, ((0, 0, 0, 0),) * (2 * genus))

    @property
    def group(self) -> GroupDescriptor:
        return GroupDescriptor.orientable(5, self.genus)


def frobenius_embed(emb: FrobeniusEmbedding) -> tuple[Element, Element]:
    """Images (v1, v2) of the order-5 and order-2 generators: the sections of
    the 5-cycle and of (1 4)(2 3), :func:`frobenius_pair` at p = 5, conjugated
    by the partial-sum alpha of :class:`FrobeniusEmbedding`.  As conjugates of
    sections, v1**5 == 1, v2**2 == 1 and v2 * v1 * v2^{-1} == v1**4."""
    group = emb.group
    rows = [tuple([sum(block[:i]) for block in emb.blocks]) for i in range(1, 5)]
    alpha = Element(group, CoeffVector(tuple(rows + [(0,) * len(emb.blocks)])), Permutation.identity(5))
    v1, v2 = [Element.section(group, w).conjugated_by(alpha) for w in frobenius_pair(5)]
    return v1, v2


def frobenius_conjugator(emb: FrobeniusEmbedding) -> Element:
    """The pure-lattice a with a[5] = 0 carrying both sections to the
    :func:`frobenius_embed` images: the walk of :func:`conjugator_to_section`
    anchored at strand 5, which finds the partial-sum alpha again from the
    images alone."""
    return conjugator_to_section(*frobenius_embed(emb), root=5)


def _multiplicative_order(l: int, p: int) -> int:
    """Order of l modulo p; callers pass a prime p and 2 <= l <= p - 1, a unit."""
    acc, k = l % p, 1
    while acc != 1:
        acc = (acc * l) % p
        k += 1
    return k


def _require_frobenius_prime(p: int) -> None:
    """The one prime check of the Frobenius constructions, by trial division."""
    if type(p) is not int or p < 5 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise BadPrimeError(f"p must be an odd prime >= 5, got {p!r}")


def default_multiplier(p: int) -> int:
    """Smallest unit of multiplicative order (p-1)/2 modulo an odd prime p >= 5;
    one exists because the units modulo a prime form a cyclic group."""
    _require_frobenius_prime(p)
    return next(l for l in range(2, p) if _multiplicative_order(l, p) == (p - 1) // 2)


def multiplication_permutation(p: int, l: int) -> Permutation:
    """The permutation of 1..p given by i -> l*i mod p, with p playing the
    role of the zero residue (so p is a fixed point)."""
    images = [((l * i - 1) % p) + 1 for i in range(1, p + 1)]
    return Permutation(tuple(images))


def frobenius_pair(p: int, l: int | None = None) -> tuple[Permutation, Permutation]:
    """The generators of the Frobenius group of order p(p-1)/2: the p-cycle
    w1 = (1,2,...,p) and the multiplication-by-l permutation w2, where l has
    multiplicative order (p-1)/2 modulo p (by default :func:`default_multiplier`).
    Checked: w2 * w1 * w2^{-1} == w1**l.  At p = 5 the default l = 4 gives the
    5-cycle and (1 4)(2 3)."""
    if l is None:
        l = default_multiplier(p)  # which runs the prime check
    else:
        _require_frobenius_prime(p)
    if type(l) is not int:
        raise BadMultiplierError(f"the multiplier must be an integer, got {l!r}")
    if not 2 <= l <= p - 1 or _multiplicative_order(l, p) != (p - 1) // 2:
        raise BadMultiplierError(f"{l} does not have multiplicative order {(p - 1) // 2} mod {p}")
    w1 = Permutation.from_cycles(p, tuple(range(1, p + 1)))
    w2 = multiplication_permutation(p, l)
    check(w2 * w1 * w2.inverse() == w1**l, "w2 must conjugate the p-cycle to its l-th power")
    return w1, w2


def frobenius_torsion_element(
    group: GroupDescriptor,
    p: int,
    l: int | None = None,
    lift1: CoeffVector | None = None,
    lift2: CoeffVector | None = None,
) -> Element:
    """An order-p element in any subgroup projecting onto the Frobenius group
    generated by the pair (w1, w2) of :func:`frobenius_pair`.

    Given arbitrary lattice lifts v_i = lift_i * section(w_i), the
    commutator [v2, v1] = v2 * v1 * v2^{-1} * v1^{-1} lies over
    w1**l * w1^{-1} = w1**(l-1), a p-cycle because l != 1 mod p, and, as a
    commutator, has zero coefficient sum in every handle; hence it has
    order exactly p.  This is why no such subgroup is torsion free.  It is
    formed as the closed-form conjugate ``v1.conjugated_by(v2)`` times
    v1^{-1}: one product and one inverse.
    """
    group.require_orientable("Frobenius torsion construction")
    w1, w2 = frobenius_pair(p, l)
    if group.n != p:
        raise GroupMismatchError(f"group has {group.n} strands, need n = p = {p}")
    handles = group.handle_count
    if lift1 is None:
        lift1 = CoeffVector.zero(p, handles)
    if lift2 is None:
        lift2 = CoeffVector.zero(p, handles)
    v1 = Element(group, lift1, w1)
    v2 = Element(group, lift2, w2)
    v = v1.conjugated_by(v2) * v1.inverse()
    check(not v.perm.is_identity(), "the torsion element must lie over a p-cycle")
    return v
