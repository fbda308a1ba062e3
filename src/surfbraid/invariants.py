"""Invariants of an exact integral representation of a finite cyclic group:
orientability, Betti numbers of the associated flat manifold, and the
multiplicity criteria deciding Anosov diffeomorphisms and Kaehler structure.

Every invariant is exact and read from the power traces tr(M^k) that
:class:`CyclicRep` computes once, and from what it derives from them when
it is built: the characteristic polynomial (:func:`_char_poly`), the exact
order (:func:`_trace_period`) and the cyclotomic multiplicities
(:func:`_multiplicities_by_characters`).  :func:`orientability`,
:func:`betti_numbers`, :func:`anosov_check` and :func:`kahler_check` read
those; no polynomial is divided or factored.  The checks that run: the
order check M^k = I for some k dividing the order; every division of
Newton's identities exact; every multiplicity a non-negative integer whose
index divides the order, the factors of total degree dim and of product
the characteristic polynomial; every Betti number a non-negative integer,
beta_0 = 1, beta_1 = dim - rank(M - I), and Poincare duality when det = 1.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from operator import mul
from typing import Any

from .errors import Frozen, check
from .intmatrix import IntMatrix
from .intpoly import totient


class CyclicRep(Frozen):
    """A generator matrix of finite order: matrix ** order == identity, the
    matrix an :class:`IntMatrix` and the order an ``int`` >= 1 (not a bool),
    both checked before any product runs.

    Construction multiplies out the chain M, M^2, ... until it reaches the
    identity, which must happen at a power dividing ``order``; that is the
    order check.  A chain still open at M^m, m the dimension, runs on only
    up to the period of its power sums (:func:`_trace_period`, read from
    the characteristic polynomial of the first m traces), and no period
    dividing ``order`` rejects M after m + 1 products.  It keeps
    ``power_traces`` = (tr M^0, ..., tr M^(p-1)), where p is the exact order
    of M; ``char_poly``, the coefficients of det(xI - M), constant term
    first, monic, of length m + 1 (:func:`_char_poly`); and ``cyclotomic``,
    its cyclotomic factor multiplicities {d: mult}
    (:func:`_multiplicities_by_characters`), each index d checked to divide
    ``order``.  Only the matrix and the order make up the value: they alone
    are compared, hashed and shown by repr.
    """

    __slots__ = ("matrix", "order", "power_traces", "char_poly", "cyclotomic")
    _fields = ("matrix", "order")

    def __post_init__(self):
        if not isinstance(self.matrix, IntMatrix):
            raise ValueError(f"the generator must be an IntMatrix, got {type(self.matrix).__name__}")
        self.matrix.require_square()
        if type(self.order) is not int:
            raise ValueError(f"group order must be an integer, got {self.order!r}")
        if self.order < 1:
            raise ValueError(f"group order must be >= 1, got {self.order}")
        m = self.dimension
        identity = IntMatrix.identity(m)
        traces = [m]
        power = self.matrix
        limit = self.order
        char_poly = None
        while power != identity and len(traces) < limit:
            traces.append(power.trace())
            if len(traces) == m + 1:
                char_poly = _char_poly(traces, m)
                period = _trace_period(traces, char_poly, self.order)
                limit = period if period and self.order % period == 0 else 0
            power = self.matrix * power
        if power != identity or self.order % len(traces) != 0:
            raise ValueError(f"matrix does not have order dividing {self.order}")
        if char_poly is None:
            char_poly = _char_poly(traces, m)
        mults = _multiplicities_by_characters(traces, char_poly)
        for d in mults:
            if self.order % d != 0:
                raise ValueError(f"cyclotomic index {d} does not divide the group order {self.order}")
        object.__setattr__(self, "power_traces", tuple(traces))
        object.__setattr__(self, "char_poly", char_poly)
        object.__setattr__(self, "cyclotomic", mults)

    @property
    def dimension(self) -> int:
        return self.matrix.nrows

    @property
    def det(self) -> int:
        """det(M) = e_m, read off the constant term (-1)^m det(M) of det(xI - M)."""
        return (-1) ** self.dimension * self.char_poly[0]


def orientability(rep: CyclicRep) -> bool:
    """True iff the generator lies in SL, i.e. has determinant +1."""
    return rep.det == 1


def _elementary_symmetric_from_traces(traces: tuple[int, ...] | list[int], m: int) -> list[int]:
    """Newton's identities: e_0..e_m from power sums p_1..p_m, exactly.

    e_k is the k-th elementary symmetric function of the eigenvalues, i.e.
    the coefficient of t^k in det(I + tA) when traces[s-1] = trace(A^s).
    The signs of k*e_k = sum_s (-1)^(s-1) p_s e_(k-s) are folded into the
    power sums once, reversed, so each e_k is one dot product of e_0..e_(k-1)
    with the last k signed sums; every division by k is checked exact.
    """
    if len(traces) < m:
        raise ValueError(f"Newton's identities need {m} power sums, got {len(traces)}")
    signed = [-p if s % 2 else p for s, p in enumerate(traces[:m])][::-1]
    e = [1]
    for k in range(1, m + 1):
        q, r = divmod(sum(map(mul, e, signed[m - k:])), k)
        check(r == 0, f"Newton identity division must be exact (e_{k})")
        e.append(q)
    return e


def _power_sums(traces: tuple[int, ...] | list[int], m: int, j: int) -> tuple[int, ...]:
    """The power sums tr(M^(j*s)), s = 1..m, of the eigenvalues of M^j, read
    from traces = (tr M^0, tr M^1, ...) periodically: the list is a whole
    period, or runs at least to tr M^m."""
    p = len(traces)
    return tuple([traces[(j * s) % p] for s in range(1, m + 1)])


def _char_poly(traces: list[int], m: int) -> tuple[int, ...]:
    """The one derivation of det(xI - M) = sum_k (-1)^k e_k x^(m-k), from the
    traces as in :func:`_power_sums`: its coefficients, constant term first,
    monic (e_0 = 1) and of length m + 1."""
    e = _elementary_symmetric_from_traces(_power_sums(traces, m, 1), m)
    return tuple([(-1) ** k * e[k] for k in range(m, -1, -1)])


def _trace_period(traces: list[int], char_poly: tuple[int, ...], order: int) -> int:
    """The least period P <= ``order`` of the power sums t_k = tr(M^k), from
    t_0, ..., t_m and char_poly = (c_0, ..., c_m), det(xI - M) = sum_j c_j
    x^j; 0 when there is none.

    A matrix of finite order has det = +-1, so |c_0| != 1 gives 0 at once.
    Past t_m the sums follow from Cayley-Hamilton, tr(char_poly(M) M^k) = 0:
    t_(k+m) = -sum_(j<m) c_j t_(k+j), one dot product per step.  P is the
    first shift at which the window t_P, ..., t_(P+m-1) repeats t_0, ...,
    t_(m-1), since the recurrence then repeats the whole sequence; a sum
    with |t_k| > m, which no m roots of unity give, gives 0 at once.
    Bounded power sums put every eigenvalue in the closed unit disc, and
    |det| = 1 then puts each on the unit circle, so each is a root of unity
    (Kronecker, J. reine angew. Math. 53, 1857): t_k = sum_d mult_d c_d(k)
    over the Ramanujan sums c_d of :func:`_rational_characters`.  These are
    linearly independent, so P is the lcm of the cyclotomic indices d of
    char_poly, the exact order of M when M has finite order.
    """
    m = len(char_poly) - 1
    if abs(char_poly[0]) != 1 or any([abs(t) > m for t in traces]):
        return 0
    negated = [-c for c in char_poly[:m]]
    sums = list(traces)
    for period in range(1, order + 1):
        while len(sums) < period + m:
            nxt = sum(map(mul, negated, sums[-m:]))
            if abs(nxt) > m:
                return 0
            sums.append(nxt)
        if sums[period:period + m] == sums[:m]:
            return period
    return 0


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n: int) -> int:
    """The Moebius function: 0 if a square divides n, else (-1)^(number of
    prime factors of n)."""
    sign, rest, q = 1, n, 2
    while q * q <= rest:
        if rest % q == 0:
            rest //= q
            if rest % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if rest > 1 else sign


@functools.lru_cache(maxsize=None)
def _rational_characters(p: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(d, phi(d), (c_d(h) for each h dividing p)) for each d dividing p, in
    increasing order of d and of h.

    c_d is the character of the rational irreducible representation of Z/p
    whose generator has characteristic polynomial Phi_d: c_d(j), the sum of
    zeta^j over the primitive d-th roots of unity zeta, is the Ramanujan sum
    mu(d/g) phi(d)/phi(d/g) with g = gcd(d, j), an integer.  It depends on
    j only through gcd(j, p) = h, since gcd(d, j) = gcd(d, h), so the table
    has one value per divisor h, not one per group element.
    """
    divisors = _divisors(p)
    table = []
    for d in divisors:
        phi = totient(d)
        quotients = [d // math.gcd(d, h) for h in divisors]
        table.append((d, phi, tuple([_mobius(q) * (phi // totient(q)) for q in quotients])))
    return tuple(table)


def _multiplicities_by_characters(traces: tuple[int, ...] | list[int], char_poly: tuple[int, ...]) -> dict[int, int]:
    """The cyclotomic multiplicities {d: mult_d} of a rep of Z/p, p = len(traces),
    from its traces (tr M^0, ..., tr M^(p-1)) over one whole period.

    mult_d = (1/(p phi(d))) sum_j tr(M^j) c_d(j) is the inner product of the
    trace character with the rational character c_d of
    :func:`_rational_characters` (Serre, Linear Representations of Finite
    Groups, 13.1), summed over the classes gcd(j, p) = h; every division is
    checked exact and non-negative.  The result is then checked against
    ``char_poly`` = det(xI - M) of degree m, constant term first:
    sum_d phi(d) mult_d = m, every |coefficient| of ``char_poly`` is at most
    2^m (as for any product of cyclotomics of degree m, whose roots lie on
    the unit circle), and both sides agree at x0 = 2^(m+2).  Two polynomials of degree <= m whose
    coefficients are bounded so are equal once they agree at x0, so
    char_poly == prod_d Phi_d^mult_d.  The right side is evaluated as
    prod_e (x0^e - 1)^(b_e), with b_e = sum over e | d of mu(d/e) mult_d,
    from Phi_d = prod_{e | d} (x^e - 1)^mu(d/e): integer products only, no
    division.
    """
    p, m = len(traces), len(char_poly) - 1
    class_sums = dict.fromkeys(_divisors(p), 0)
    for j, trace in enumerate(traces):
        class_sums[math.gcd(j, p)] += trace
    mults = {}
    degree = 0
    for d, phi, character in _rational_characters(p):
        mult, r = divmod(sum(map(mul, class_sums.values(), character)), p * phi)
        check(r == 0 and mult >= 0, f"the multiplicity of Phi_{d} must be a non-negative integer")
        if mult:
            mults[d] = mult
            degree += phi * mult
    check(degree == m, f"the cyclotomic factors must have total degree {m}, got {degree}")
    check(max(map(abs, char_poly)) <= 1 << m,
          "the characteristic polynomial's coefficients must be at most 2^dim")
    shift = m + 2  # x0 = 2^shift
    value = sum([c << (shift * k) for k, c in enumerate(char_poly)])
    exponents = Counter()
    for d, mult in mults.items():
        for e in _divisors(d):
            exponents[e] += _mobius(d // e) * mult
    left, right = value, 1
    for e, b in exponents.items():
        if b > 0:
            right *= ((1 << (shift * e)) - 1) ** b
        elif b < 0:
            left *= ((1 << (shift * e)) - 1) ** -b
    check(left == right, "the characteristic polynomial must be the product of its cyclotomic factors")
    return mults


def betti_numbers(rep: CyclicRep) -> tuple[int, ...]:
    """Betti numbers of the flat manifold with this cyclic holonomy.

    beta_i is the dimension of the invariant subspace of the i-th exterior
    power, computed by averaging the trace of the exterior-power action
    over the group: beta_i = (1/p) * sum_j [t^i] det(I + t M^j), over the
    exact order p of M (a divisor of the declared order, which gives the
    same average).  The coefficients come from Newton's identities on the
    power sums of M^j, read from the cached power traces tr(M^u), which are
    periodic with period p.  Newton runs once per distinct power-sum
    sequence, weighted by how many j share it: equal inputs give equal
    coefficients, and nothing else is assumed.  The sequence of j = 1 is
    the one Newton already ran on at construction, so its coefficients are
    read off ``rep.char_poly``.  The first Betti number is cross-checked
    against dim - rank(M - I); beta_0 must be 1, and when det = 1 Poincare
    duality beta_i = beta_(dim - i) must hold.
    """
    m = rep.dimension
    p = len(rep.power_traces)
    counts = Counter([_power_sums(rep.power_traces, m, j) for j in range(p)])
    first = _power_sums(rep.power_traces, m, 1)
    from_char_poly = [(-1) ** k * c for k, c in enumerate(reversed(rep.char_poly))]
    totals = [0] * (m + 1)
    for sums, count in counts.items():
        e = from_char_poly if sums == first else _elementary_symmetric_from_traces(sums, m)
        totals = [t + count * e_i for t, e_i in zip(totals, e)]
    betti = []
    for i, total in enumerate(totals):
        q, r = divmod(total, p)
        check(r == 0 and q >= 0, f"Betti number beta_{i} = {total}/{p} must be a non-negative integer")
        betti.append(q)
    if m >= 1:
        rank_check = m - (rep.matrix - IntMatrix.identity(m)).rank()
        check(
            betti[1] == rank_check,
            f"first Betti number mismatch: averaging gives {betti[1]}, rank formula {rank_check}",
        )
    check(betti[0] == 1, f"beta_0 must be 1, got {betti[0]}")
    check(rep.det != 1 or betti == betti[::-1], f"Betti numbers {betti} of det 1 must satisfy Poincare duality")
    return tuple(betti)


def anosov_check(rep: CyclicRep) -> bool:
    """Porteous's criterion (Topology 11, 1972) for an Anosov diffeomorphism
    on the flat manifold: every rationally irreducible summand of the
    holonomy representation (cyclotomic factor Phi_d of the characteristic
    polynomial) that occurs once must split over R into more than one
    summand.  Over R, Phi_d is one line for d <= 2 and phi(d)/2 planes for
    d >= 3, so multiplicity 1 is allowed exactly where phi(d) > 2, that is
    for d not in {1, 2, 3, 4, 6}."""
    return all(mult >= 2 or totient(d) > 2 for d, mult in rep.cyclotomic.items())


def kahler_check(rep: CyclicRep) -> bool:
    """The criterion for a Kaehler structure on the flat manifold
    (Johnson-Rees, Math. Proc. Cambridge Philos. Soc. 109, 1991): the
    holonomy representation must commute with a complex structure on
    R^dim, i.e. every real-irreducible summand of real type must occur with
    even multiplicity.

    For a cyclic group the summands of real type are the eigenvalue-1 and
    eigenvalue-(-1) lines, Phi_1 and Phi_2; each plane of Phi_d, d >= 3, is
    a rotation that commutes with the rotation by a right angle.  So the
    multiplicities of Phi_1 and Phi_2 must be even, and an even dimension
    follows, since dim = sum of phi(d) * mult_d and phi(d) is even for
    d >= 3.
    """
    return rep.cyclotomic.get(1, 0) % 2 == 0 and rep.cyclotomic.get(2, 0) % 2 == 0


def invariant_report(rep: CyclicRep) -> dict[str, Any]:
    """All invariants as a JSON-ready mapping with fixed key order.

    Everything is read off the rep's cached power traces and what was
    derived from them at construction; no matrix product runs here.
    """
    return {
        "char_poly": list(rep.char_poly),
        "det": rep.det,
        "betti": list(betti_numbers(rep)),
        "anosov": anosov_check(rep),
        "kahler": kahler_check(rep),
        "orientable": orientability(rep),
        "cyclotomic": {str(d): mult for d, mult in rep.cyclotomic.items()},
    }
