"""Output oracles that share no code with surfbraid (this module never imports it).

Reference normal-form model: an element is ``(perm, rows)`` where ``perm``
holds 1-based images and ``rows[i-1]`` is the coefficient row of strand i.
Products follow the package's convention (the right factor acts first and
the strand action sends row i to row w(i)), written out directly from the
semidirect-product rule.  ``mods`` gives one modulus per column, 0 for a
free column; the non-orientable model puts its torsion bit in column 0 with
modulus 2.
"""

from __future__ import annotations

import math


def compose(p, q):
    return tuple(p[q[i] - 1] for i in range(len(p)))


def invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p, start=1):
        out[v - 1] = i
    return tuple(out)


def act(w, rows):
    out = [None] * len(rows)
    for i, row in enumerate(rows):
        out[w[i] - 1] = row
    return tuple(out)


def _add(a, b, mods):
    return tuple(tuple((u + v) % m if m else u + v for u, v, m in zip(ra, rb, mods))
                 for ra, rb in zip(a, b))


def identity(n, mods):
    return tuple(range(1, n + 1)), tuple((0,) * len(mods) for _ in range(n))


def section(w, mods):
    """The permutation w with zero lattice part."""
    return w, identity(len(w), mods)[1]


def mul(x, y, mods):
    (p, a), (q, b) = x, y
    return compose(p, q), _add(a, act(p, b), mods)


def inverse(x, mods):
    p, a = x
    neg = tuple(tuple(-u % m if m else -u for u, m in zip(row, mods)) for row in a)
    return invert(p), act(invert(p), neg)


def power(x, k, mods):
    """Plain repeated multiplication, no squaring."""
    base = x if k >= 0 else inverse(x, mods)
    acc = identity(len(x[0]), mods)
    for _ in range(abs(k)):
        acc = mul(acc, base, mods)
    return acc


def conjugate(x, by, mods):
    """by * x * by^-1."""
    return mul(mul(by, x, mods), inverse(by, mods), mods)


def cycles(p):
    seen, out = set(), []
    for start in range(1, len(p) + 1):
        if start not in seen:
            cyc = [start]
            seen.add(start)
            while p[cyc[-1] - 1] != start:
                cyc.append(p[cyc[-1] - 1])
                seen.add(cyc[-1])
            out.append(tuple(cyc))
    return out


def cycle_type(p):
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def order(x):
    """Finite iff every cycle (fixed points included) has zero coefficient
    sum in every column; then the order is that of the permutation."""
    p, rows = x
    for cyc in cycles(p):
        if any(sum(rows[i - 1][r] for i in cyc) for r in range(len(rows[0]))):
            return None
    return math.lcm(*(len(c) for c in cycles(p)))


def transposition(n, i):
    images = list(range(1, n + 1))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def orientable_letter(handles):
    """Column increment of a[j,r]^e in the orientable model."""
    return lambda r, e: tuple(e if c == r - 1 else 0 for c in range(handles))


def nonorientable_letter(genus):
    """a[j,r]^e in torsion-bit/free coordinates: r < g adds e to free
    column r; r == g adds e to the bit and -e to every free column."""
    def vec(r, e):
        if r == genus:
            return (e % 2,) + (-e,) * (genus - 1)
        return (0,) + tuple(e if c == r else 0 for c in range(1, genus))
    return vec


def normalize(letters, n, mods, letter_vec):
    """Left fold of (kind, i, r, exp) letters into a normal form."""
    perm = tuple(range(1, n + 1))
    rows = [(0,) * len(mods) for _ in range(n)]
    for kind, i, r, e in letters:
        if kind == "s":
            if e % 2:
                perm = compose(perm, transposition(n, i))
        else:
            j = perm[i - 1] - 1
            rows[j] = _add((rows[j],), (letter_vec(r, e),), mods)[0]
    return perm, tuple(rows)


# --- Bieberbach subgroup: the lattice basis fixed in the paper ---------------

def bieberbach_generator(n, genus):
    """a[1,1] * section(i -> i+1)."""
    rows = tuple(tuple(1 if (i, c) == (0, 0) else 0 for c in range(2 * genus)) for i in range(n))
    return tuple(list(range(2, n + 1)) + [1]), rows


def lattice_from_coords(n, genus, coords):
    """u = prod_i a[i,1], then a[i,1]^n (i >= 2), then a[j,r]^n (r >= 2)."""
    rows = [[coords[0]] + [0] * (2 * genus - 1) for _ in range(n)]
    for i in range(1, n):
        rows[i][0] += n * coords[i]
    pos = n
    for r in range(1, 2 * genus):
        for i in range(n):
            rows[i][r] = n * coords[pos]
            pos += 1
    return tuple(range(1, n + 1)), tuple(tuple(row) for row in rows)


# --- closed forms -------------------------------------------------------------

def x_pow_minus_one_power(n, k):
    """Coefficients (constant first) of (x^n - 1)^k by the binomial theorem."""
    out = [0] * (n * k + 1)
    for i in range(k + 1):
        out[n * i] = math.comb(k, i) * (-1) ** (k - i)
    return out


def flat_invariants_ok(report, n, genus):
    """Closed forms for the holonomy representation of the cyclic-holonomy
    subgroup: char poly (x^n - 1)^(2g), det 1, every cyclotomic index
    dividing n with multiplicity 2g, b_1 = 2g, alternating Betti sum 0,
    palindromic Betti numbers; all multiplicities are 2g >= 2 and even, so
    the Anosov and Kaehler criteria hold."""
    betti = report["betti"]
    dim = 2 * n * genus
    return (
        report["char_poly"] == x_pow_minus_one_power(n, 2 * genus)
        and report["det"] == 1
        and report["cyclotomic"] == {str(d): 2 * genus for d in range(1, n + 1) if n % d == 0}
        and len(betti) == dim + 1 and betti[0] == 1 and betti[1] == 2 * genus
        and sum((-1) ** i * b for i, b in enumerate(betti)) == 0
        and betti == betti[::-1]
        and report["anosov"] is True and report["kahler"] is True and report["orientable"] is True
    )


def scan_size(n, genus, bound):
    return n * (2 * bound + 1) ** (2 * n * genus)


def relation_count(n, handles):
    """Instances checked by the presentation: s_i^2, far commutations,
    braid relations, a-commutators, strand relabelling, T and A words for
    each strand pair, the full twist and the empty word."""
    far = sum(1 for i in range(1, n) for j in range(1, n) if abs(i - j) >= 2)
    return ((n - 1) + far + max(n - 2, 0) + (n * handles) ** 2
            + (n - 1) * n * handles + n * (n - 1) + (1 if n >= 2 else 0) + 1)
