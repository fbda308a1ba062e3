"""Braid words over the generators s_i and a[j,r], and rewriting to normal form.

Grammar (ASCII whitespace or '*' separates terms, indices 1-based, every
integer written in ASCII digits)::

    word := term (('*' | whitespace) term)*
    term := gen ('^' signed-int)?
    gen  := 's' int | 'a[' int ',' int ']'

The empty string is the identity word.  Parsing reads one whole term,
exponent included, per match of one regular expression.  Rewriting is a
single left fold: the quotient presentation has an abelian kernel and a
splitting, so a running normal form absorbs one letter at a time and no
confluence machinery is needed.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .core import CoeffVector, Element, GroupDescriptor
from .errors import Frozen, GeneratorIndexError, WordSyntaxError, check_exponent
from .permutations import Permutation

SIGMA = "s"
HANDLE = "a"


class _LetterFields(NamedTuple):
    kind: str
    i: int
    r: int = 0
    exp: int = 1


class Letter(_LetterFields):
    """One signed generator: kind 's' uses index i; kind 'a' uses (i, r).
    The index, handle and exponent must be exact ``int``s: bools, floats and
    strings are rejected, never coerced.

    A tuple, so :func:`parse`, which has already checked the kind and the
    integers it read, builds it with ``tuple.__new__`` and skips these checks.
    """

    __slots__ = ()

    def __new__(cls, kind: str, i: int, r: int = 0, exp: int = 1) -> Letter:
        if kind not in (SIGMA, HANDLE):
            raise ValueError(f"unknown letter kind {kind!r}")
        if not (type(i) is type(r) is type(exp) is int):
            name, value = next(f for f in (("index", i), ("handle", r), ("exponent", exp)) if type(f[1]) is not int)
            raise ValueError(f"letter {name} must be an integer, got {value!r}")
        if exp == 0:
            raise ValueError("letter exponent must be nonzero")
        return tuple.__new__(cls, (kind, i, r, exp))

    # The inherited _make skips __new__; through it _replace would too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def text(self) -> str:
        base = f"s{self.i}" if self.kind == SIGMA else f"a[{self.i},{self.r}]"
        return base if self.exp == 1 else f"{base}^{self.exp}"


class BraidWord(Frozen):
    """A sequence of signed generator letters; the empty word is the identity.
    The letters must be a tuple of :class:`Letter`, so a plain tuple never
    gets past the letter checks."""

    __slots__ = _fields = ("letters",)

    def __post_init__(self):
        if not isinstance(self.letters, tuple) or not {Letter}.issuperset(map(type, self.letters)):
            raise ValueError(f"braid word letters must be a tuple of Letters, got {self.letters!r}")

    @staticmethod
    def _trusted(letters: tuple[Letter, ...]) -> BraidWord:
        """Constructor for a tuple of :class:`Letter` values: no check.  Parsing,
        products, powers and inverses build their words here."""
        word = _new(BraidWord)
        _set_letters(word, letters)
        return word

    def __mul__(self, other: BraidWord) -> BraidWord:
        if not isinstance(other, BraidWord):
            raise ValueError(f"a braid word multiplies only a BraidWord, got {other!r}")
        return BraidWord._trusted(self.letters + other.letters)

    def inverse_word(self) -> BraidWord:
        return BraidWord._trusted(tuple([tuple.__new__(Letter, (kind, i, r, -e))  # -e is a nonzero int
                                         for kind, i, r, e in reversed(self.letters)]))

    def __pow__(self, k: int) -> BraidWord:
        check_exponent(k)
        if k < 0:
            return self.inverse_word() ** (-k)
        return BraidWord._trusted(self.letters * k)

    def text(self) -> str:
        return " ".join(l.text() for l in self.letters)

    def __str__(self) -> str:
        return self.text()


_new = object.__new__
_set_letters = BraidWord.letters.__set__  # the unchecked store of BraidWord._trusted (see Frozen)


def check_letter(group: GroupDescriptor, kind: str, i: int, r: int) -> None:
    """Check the indices of the letter s_i (kind 's') or a[i,r] (kind 'a') against the group."""
    if kind == SIGMA:
        if not 1 <= i <= group.n - 1:
            raise GeneratorIndexError(f"s{i}: index {i} out of range 1..{group.n - 1}")
    else:
        handles = group.handle_count  # raises UnsupportedSurfaceError on the sphere
        if not 1 <= i <= group.n:
            raise GeneratorIndexError(f"a[{i},{r}]: strand {i} out of range 1..{group.n}")
        if not 1 <= r <= handles:
            raise GeneratorIndexError(f"a[{i},{r}]: handle {r} out of range 1..{handles}")


# One match per term: a separator, a generator with its exponent (or a
# caret that starts no exponent), or the first character of anything else.
_TERM = re.compile(
    r"""\s*(?:
        (?P<sep>\*)
      | (?:s(?P<si>\d+) | a\[\s*(?P<aj>\d+)\s*,\s*(?P<ar>\d+)\s*\])
        (?:\^(?P<exp>[+-]?\d+) | (?P<caret>\^))?
      | (?P<bad>\S)
    )""",
    re.VERBOSE | re.ASCII,
)
# The longest start of a generator, to name the character that breaks one.
_GEN_PREFIX = re.compile(r"s\d*|a(?:\[\s*(?:\d+\s*(?:,\s*(?:\d+\s*)?)?)?)?", re.ASCII)


def parse(group: GroupDescriptor, text: str) -> BraidWord:
    """Parse a braid word string, validating all generator indices against the group.
    Every non-blank character starts a term, so the matches tile the text."""
    letters: list[Letter] = []
    for m in _TERM.finditer(text):
        sep, si, aj, ar, exp, caret, bad = m.groups()
        if sep:
            continue
        if bad:
            prefix = _GEN_PREFIX.match(text, m.start("bad"))
            pos = prefix.end() if prefix else m.start("bad")
            if pos == len(text):
                raise WordSyntaxError("unexpected end of word", pos)
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if caret:
            raise WordSyntaxError("malformed exponent", m.start("caret"))
        e = 1 if exp is None else int(exp)
        if e == 0:
            raise WordSyntaxError("exponent 0 is not allowed", m.start("exp"))
        kind, i, r = (SIGMA, int(si), 0) if si is not None else (HANDLE, int(aj), int(ar))
        check_letter(group, kind, i, r)
        letters.append(tuple.__new__(Letter, (kind, i, r, e)))  # kind and exponent checked above
    return BraidWord._trusted(tuple(letters))


def _fold(group: GroupDescriptor, letters: Iterable[Letter], images) -> tuple[list[list[int]], list[int]]:
    """The left fold of :func:`normalize` on its raw state: the coefficient rows
    and the image list of w, as mutable lists.  ``images`` is
    ``group.letter_images()``, built once by the caller.

    Folding left to right: an s_i letter multiplies the permutation part by
    the transposition (i, i+1) (its section squares to the identity, so the
    sign of the exponent is irrelevant); an a[j,r]^e letter adds e times the
    letter image of a[j,r] (:meth:`GroupDescriptor.letter_images`) to the
    row of strand w(j), where w is the permutation accumulated so far.
    Every letter's indices pass :func:`check_letter` first.

    w is kept as one mutable image list: (w * t_i)(k) = w(t_i(k)), so an
    odd power of s_i swaps entries i-1 and i in O(1).
    """
    n = group.n
    rows = [[0] * len(images) for _ in range(n)]
    w = list(range(1, n + 1))
    for kind, i, r, e in letters:
        check_letter(group, kind, i, r)
        if kind == SIGMA:
            if e % 2:
                w[i - 1], w[i] = w[i], w[i - 1]
        else:
            row = rows[w[i - 1] - 1]
            for col, v in images[r - 1]:
                row[col] += v * e
    return rows, w


def normalize(group: GroupDescriptor, word: BraidWord) -> Element:
    """Rewrite a word to its unique normal form (any surface but the sphere):
    the element of the state :func:`_fold` leaves."""
    rows, w = _fold(group, word.letters, group.letter_images())
    coeffs = CoeffVector(tuple([tuple(r) for r in rows]))
    return Element._trusted(group, coeffs, Permutation._trusted(tuple(w)))


def sigma_word(indices: Iterable[int], exp: int = 1) -> BraidWord:
    return BraidWord(tuple([Letter(SIGMA, i, 0, exp) for i in indices]))


def t_word(group: GroupDescriptor, i: int, j: int) -> BraidWord:
    """The two-strand twist word: s_i ... s_{j-2} s_{j-1}^2 s_{j-2} ... s_i."""
    if type(i) is not int or type(j) is not int or not 1 <= i < j <= group.n:
        raise GeneratorIndexError(f"need 1 <= i < j <= n, got ({i!r},{j!r}) with n={group.n}")
    ascent = list(range(i, j - 1))
    return sigma_word(ascent) * BraidWord((Letter(SIGMA, j - 1, 0, 2),)) * sigma_word(reversed(ascent))


def a_word(group: GroupDescriptor, i: int, j: int) -> BraidWord:
    """The pure-braid band generator word: s_{j-1} ... s_{i+1} s_i^2 s_{i+1}^-1 ... s_{j-1}^-1."""
    if type(i) is not int or type(j) is not int or not 1 <= i < j <= group.n:
        raise GeneratorIndexError(f"need 1 <= i < j <= n, got ({i!r},{j!r}) with n={group.n}")
    descent = list(range(j - 1, i, -1))
    return (
        sigma_word(descent)
        * BraidWord((Letter(SIGMA, i, 0, 2),))
        * sigma_word(reversed(descent), exp=-1)
    )


def full_twist_word(group: GroupDescriptor) -> BraidWord:
    """The full twist (s_1 ... s_{n-1})^n, expanded letter by letter."""
    return sigma_word(range(1, group.n)) ** group.n


class RelationReport(Frozen):
    """Result of checking every defining relation instance for one group."""

    __slots__ = _fields = ("group", "checked", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def check_relations(group: GroupDescriptor) -> RelationReport:
    """Check every defining relation of the quotient presentation by one fold each.

    Checked: commuting and braid relations among the s_i, the involutivity
    s_i^2 = 1, commutativity of the a[j,r], the strand-relabelling relation
    s_i a[j,r] s_i^-1 = a[t_i(j),r], and triviality of the two-strand twist
    words, band generator words, and the full twist.

    Each relation is one word that must fold to the identity state (w the
    identity list, every row zero), read on the raw state of :func:`_fold`;
    an equation lhs = rhs is the word lhs rhs^-1.  This is exact: every
    letter acts on the fold state by a bijection and its inverse letter by
    the inverse bijection, so folding rhs^-1 after lhs reaches the identity
    state exactly when lhs and rhs fold to the same state.
    """
    group.require_orientable("relation checking")
    n, handles = group.n, group.handle_count
    images = group.letter_images()
    identity = list(range(1, n + 1))
    checked = 0
    failures: list[str] = []

    def expect_trivial(letters: tuple[Letter, ...], label: str) -> None:
        nonlocal checked
        checked += 1
        rows, w = _fold(group, letters, images)
        if w != identity or any(map(any, rows)):
            failures.append(label)

    def expect_equal(lhs: BraidWord, rhs: BraidWord, label: str) -> None:
        expect_trivial(lhs.letters + rhs.inverse_word().letters, label)

    for i in range(1, n):
        expect_trivial(sigma_word([i, i]).letters, f"s{i}^2 = 1")
        for j in range(1, n):
            if abs(i - j) >= 2:
                expect_equal(sigma_word([i, j]), sigma_word([j, i]), f"s{i} s{j} = s{j} s{i}")
        if i <= n - 2:
            expect_equal(
                sigma_word([i, i + 1, i]),
                sigma_word([i + 1, i, i + 1]),
                f"braid relation at s{i}",
            )
    # Each handle letter a[j,r] with its inverse, built once: the handle
    # relations below are written out as their words lhs rhs^-1.
    handle = {(j, r): (Letter(HANDLE, j, r), Letter(HANDLE, j, r, -1))
              for j in range(1, n + 1) for r in range(1, handles + 1)}
    for (i, r), (x, x_inverse) in handle.items():
        for (j, s), (y, y_inverse) in handle.items():
            expect_trivial((x, y, x_inverse, y_inverse), f"[a[{i},{r}], a[{j},{s}]] = 1")
    for i in range(1, n):
        tau = Permutation.transposition(n, i)
        si, si_inverse = Letter(SIGMA, i), Letter(SIGMA, i, 0, -1)
        for (j, r), (x, _) in handle.items():
            expect_trivial((si, x, si_inverse, handle[tau(j), r][1]),
                           f"s{i} a[{j},{r}] s{i}^-1 = a[{tau(j)},{r}]")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            expect_trivial(t_word(group, i, j).letters, f"T({i},{j}) = 1")
            expect_trivial(a_word(group, i, j).letters, f"A({i},{j}) = 1")
    if n >= 2:
        expect_trivial(full_twist_word(group).letters, "full twist = 1")
    expect_trivial((), "empty word = 1")
    return RelationReport(group, checked, tuple(failures))
