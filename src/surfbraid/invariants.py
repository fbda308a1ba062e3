"""Invariants of an exact integral representation of a finite cyclic group:
orientability, Betti numbers of the associated flat manifold, and the
multiplicity criteria deciding Anosov diffeomorphisms and Kaehler structure.

Every invariant is derived from one vector of power traces tr(M^k), computed
once per CyclicRep: Newton's identities turn the traces of M^j into the
coefficients of det(I + t M^j), which give the characteristic polynomial
(j = 1), the determinant and the Betti numbers (all j).  Factoring that
polynomial into cyclotomic polynomials gives the multiplicities that decide
the Anosov and Kaehler criteria.

The work is sized to what the inputs need: the power chain runs on sparse
row products (:meth:`IntMatrix.__mul__`), in which most rows of a
permutation-like holonomy matrix reuse a row of the previous power as it
is; each e_k of Newton's identities is one dot product; and the Betti
average runs Newton once per distinct power-sum sequence, not once per
group element.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import mul
from typing import Any

from .errors import Frozen, NotProductOfCyclotomicsError, check
from .intmatrix import IntMatrix
from .intpoly import IntPoly, cyclotomic_multiplicities


class CyclicRep(Frozen):
    """A generator matrix of finite order: matrix ** order == identity, the
    matrix an :class:`IntMatrix` and the order an ``int`` >= 1 (not a bool),
    both checked before any product runs.

    Construction multiplies out the chain M, M^2, ... until it reaches the
    identity, which must happen at a power dividing ``order``; that is the
    order check.  If M, ..., M^m (m the dimension) all differ from the
    identity, the chain is cut at the lcm L of the cyclotomic indices of
    the characteristic polynomial derived from their traces: a matrix of
    finite order is diagonalizable with root-of-unity eigenvalues, so its
    exact order is L, and a polynomial that is no product of cyclotomics,
    or an L not dividing ``order``, rejects M after m + 1 products.  It keeps
    ``power_traces`` = (tr M^0, ..., tr M^(p-1)), where
    p is the exact order of M, the characteristic polynomial det(xI - M)
    and its cyclotomic factor multiplicities {d: mult} (read-only), each
    index d checked to divide ``order``.  The polynomial and its factors are
    derived once: at the cut, or from the whole period of a chain that
    closes sooner.  Only the matrix and the order make up the value: they
    alone are compared, hashed and shown by repr.
    """

    __slots__ = ("matrix", "order", "power_traces", "char_poly", "cyclotomic")
    _fields = ("matrix", "order")

    def __init__(self, matrix: IntMatrix, order: int):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "order", order)
        self.__post_init__()

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
        factored = None
        while power != identity and len(traces) < limit:
            traces.append(power.trace())
            if len(traces) == m + 1:
                try:
                    factored = _factored_char_poly(traces, m)
                    bound = math.lcm(*factored[1])
                except NotProductOfCyclotomicsError:
                    bound = 0
                limit = bound if bound and self.order % bound == 0 else 0
            power = self.matrix * power
        if power != identity or self.order % len(traces) != 0:
            raise ValueError(f"matrix does not have order dividing {self.order}")
        char_poly, mults = factored or _factored_char_poly(traces, m)
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
        return (-1) ** self.dimension * self.char_poly.coeffs[0]


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


def _factored_char_poly(traces: list[int], m: int) -> tuple[IntPoly, dict[int, int]]:
    """The one derivation of det(xI - M) = sum_k (-1)^k e_k x^(m-k), from the
    traces as in :func:`_power_sums`, and its cyclotomic multiplicities;
    raises NotProductOfCyclotomicsError when it is no product of cyclotomics."""
    e = _elementary_symmetric_from_traces(_power_sums(traces, m, 1), m)
    poly = IntPoly.of(*[(-1) ** k * e[k] for k in range(m, -1, -1)])
    return poly, cyclotomic_multiplicities(poly)


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
    coefficients, and nothing else is assumed.  The first Betti number is
    cross-checked against dim - rank(M - I).
    """
    m = rep.dimension
    p = len(rep.power_traces)
    counts = Counter([_power_sums(rep.power_traces, m, j) for j in range(p)])
    totals = [0] * (m + 1)
    for sums, count in counts.items():
        totals = [t + count * e_i for t, e_i in zip(totals, _elementary_symmetric_from_traces(sums, m))]
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
    return tuple(betti)


def anosov_check(rep: CyclicRep) -> bool:
    """Multiplicity criterion for Anosov diffeomorphisms on the flat manifold:
    every rationally irreducible summand (cyclotomic factor of the
    characteristic polynomial) must occur with multiplicity >= 2."""
    return all(mult >= 2 for mult in rep.cyclotomic.values())


def kahler_check(rep: CyclicRep) -> bool:
    """Even-multiplicity criterion for a Kaehler structure on the flat manifold:
    every real-irreducible summand must have even multiplicity.

    For a cyclic group of order N the eigenvalue zeta_N^k occurs as often as
    the cyclotomic factor of index N/gcd(N, k), so the real-irreducible
    multiplicities (m_0, m_{N/2} for N even, and m_k for each conjugate pair
    {k, N-k}) are the cyclotomic multiplicities plus zeros.  An even
    dimension follows, since dim = sum of phi(d) * mult_d and phi(d) is even
    for d >= 3.
    """
    return all(mult % 2 == 0 for mult in rep.cyclotomic.values())


def invariant_report(rep: CyclicRep) -> dict[str, Any]:
    """All invariants as a JSON-ready mapping with fixed key order.

    Everything is read off the rep's cached power traces and what was
    derived from them at construction; no matrix product runs here.
    """
    return {
        "char_poly": list(rep.char_poly.coeffs),
        "det": rep.det,
        "betti": list(betti_numbers(rep)),
        "anosov": anosov_check(rep),
        "kahler": kahler_check(rep),
        "orientable": orientability(rep),
        "cyclotomic": {str(d): mult for d, mult in rep.cyclotomic.items()},
    }
