import json
import random
import re
from functools import reduce
from pathlib import Path

import pytest

from surfbraid import words
from surfbraid.core import Element, GroupDescriptor
from surfbraid.errors import GeneratorIndexError, UnsupportedSurfaceError, WordSyntaxError
from surfbraid.permutations import Permutation
from surfbraid.words import (
    BraidWord,
    Letter,
    a_word,
    check_relations,
    full_twist_word,
    normalize,
    parse,
    sigma_word,
    t_word,
)

from helpers import normalize_text


T2 = GroupDescriptor.torus(2)
RELATION_LABELS = Path(__file__).resolve().parent / "data" / "relation_labels.json"


def test_parse_basic():
    word = parse(T2, "s1^-1 a[2,1]^3")
    assert word.letters == (Letter("s", 1, 0, -1), Letter("a", 2, 1, 3))
    assert parse(T2, "").letters == ()
    assert parse(T2, "  \t ").letters == ()
    assert parse(T2, "s1*a[1,1]") == parse(T2, "s1 a[1,1]")
    assert parse(T2, "a[ 1 , 2 ]").letters == (Letter("a", 1, 2),)


def test_parse_index_errors():
    with pytest.raises(GeneratorIndexError):
        parse(T2, "a[3,1]")
    with pytest.raises(GeneratorIndexError):
        parse(T2, "a[1,3]")
    with pytest.raises(GeneratorIndexError):
        parse(T2, "s2")
    with pytest.raises(GeneratorIndexError):
        parse(GroupDescriptor.nonorientable(2, 2), "a[1,3]")


def test_parse_syntax_errors():
    with pytest.raises(WordSyntaxError) as info:
        parse(T2, "s1 q2")
    assert info.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse(T2, "a[1")
    with pytest.raises(WordSyntaxError):
        parse(T2, "s1^x")
    with pytest.raises(WordSyntaxError):
        parse(T2, "s1^0")


# Malformed words with their WordSyntaxError message and position on the
# torus with two strands; the literals pin both, so a rewrite of the parser
# cannot move them.
MALFORMED = [
    ("s1 q2", "unexpected character 'q'", 3),
    ("a[1", "unexpected end of word", 3),
    ("s1^x", "malformed exponent", 2),
    ("s1^0", "exponent 0 is not allowed", 3),
    ("s", "unexpected end of word", 1),
    ("a", "unexpected end of word", 1),
    ("a[", "unexpected end of word", 2),
    ("a[1,", "unexpected end of word", 4),
    ("a[1,1", "unexpected end of word", 5),
    ("a[1,1]^", "malformed exponent", 6),
    ("s1^", "malformed exponent", 2),
    ("s1^-", "malformed exponent", 2),
    ("s1^+", "malformed exponent", 2),
    ("s1^^2", "malformed exponent", 2),
    ("^2", "unexpected character '^'", 0),
    ("s1 ^2", "unexpected character '^'", 3),
    ("s1^2^3", "unexpected character '^'", 4),
    ("s\u0661", "unexpected character '\u0661'", 1),
    ("a[\u0661,1]", "unexpected character '\u0661'", 2),
    ("a[1,\u0661]", "unexpected character '\u0661'", 4),
    ("a[1;1]", "unexpected character ';'", 3),
    ("b1", "unexpected character 'b'", 0),
    ("S1", "unexpected character 'S'", 0),
    ("s-1", "unexpected character '-'", 1),
    ("a[-1,1]", "unexpected character '-'", 2),
    ("a[1,1]x", "unexpected character 'x'", 6),
    ("s1,", "unexpected character ','", 2),
    ("[1,1]", "unexpected character '['", 0),
    ("a 1", "unexpected character ' '", 1),
    ("a(1,1)", "unexpected character '('", 1),
    ("s1^2.5", "unexpected character '.'", 4),
    ("s1^ 2", "malformed exponent", 2),
    ("s 1", "unexpected character ' '", 1),
    ("a[1 1]", "unexpected character '1'", 4),
    ("a[1,1]]", "unexpected character ']'", 6),
    ("s1\u00a0s1", "unexpected character '\\xa0'", 2),
    ("s1^00", "exponent 0 is not allowed", 3),
    ("a[1,1]^-0", "exponent 0 is not allowed", 7),
    ("s1^+0", "exponent 0 is not allowed", 3),
    ("\ts1 \n q", "unexpected character 'q'", 6),
    ("s1 a[1,2]^3 z", "unexpected character 'z'", 12),
    ("s1^\u0661", "malformed exponent", 2),
    ("a[ 1 , 2 ]^-0", "exponent 0 is not allowed", 11),
    ("s1*^2", "unexpected character '^'", 3),
    ("a[1,2]^3^", "unexpected character '^'", 8),
    ("s1 * * a[2,", "unexpected end of word", 11),
    ("a [1,1]", "unexpected character ' '", 1),
    ("s1s1x", "unexpected character 'x'", 4),
    # the syntax of a whole term is checked before its indices
    ("s9^x", "malformed exponent", 2),
    ("a[9,1]^0", "exponent 0 is not allowed", 7),
    ("a[1,9]^^", "malformed exponent", 6),
]


def test_parse_pins_every_syntax_error_message_and_position():
    assert len(MALFORMED) >= 30
    for word, message, position in MALFORMED:
        with pytest.raises(WordSyntaxError) as info:
            parse(T2, word)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})", position), word


def test_parse_builds_one_letter_per_term():
    word = parse(T2, "s1^-1 a[2,1]^3 * s1 a[1,2]")
    assert list(word.letters) == [Letter("s", 1, 0, -1), Letter("a", 2, 1, 3),
                                  Letter("s", 1), Letter("a", 1, 2)]
    assert all(type(letter) is Letter for letter in word.letters)


def test_letter_checks_its_kind_and_exponent():
    assert repr(Letter("a", 2, 1, 3)) == "Letter(kind='a', i=2, r=1, exp=3)"
    assert Letter("s", 1) == ("s", 1, 0, 1)  # a tuple of its fields
    with pytest.raises(ValueError, match="^unknown letter kind 'b'$"):
        Letter("b", 1)
    with pytest.raises(ValueError, match="^letter exponent must be nonzero$"):
        Letter("s", 1, 0, 0)
    # the namedtuple constructors run the same checks
    assert Letter("s", 1)._replace(exp=-2) == Letter("s", 1, 0, -2)
    assert type(Letter._make(("a", 2, 1, 3))) is Letter
    with pytest.raises(ValueError, match="^letter exponent must be nonzero$"):
        Letter("s", 1)._replace(exp=0)
    with pytest.raises(ValueError, match="^unknown letter kind 'q'$"):
        Letter._make(("q", 1, 0, 1))


@pytest.mark.parametrize("fields, message", [
    (("a", 1, 1, 2.5), "letter exponent must be an integer, got 2.5"),
    (("a", 1.0, 1), "letter index must be an integer, got 1.0"),
    (("s", True), "letter index must be an integer, got True"),
    (("s", "1"), "letter index must be an integer, got '1'"),
    (("a", 1, 2.0), "letter handle must be an integer, got 2.0"),
    (("a", 1, False), "letter handle must be an integer, got False"),
    (("s", 1, 0, True), "letter exponent must be an integer, got True"),
    (("s", 1, 0, False), "letter exponent must be an integer, got False"),
    (("s", 1, 0, "-1"), "letter exponent must be an integer, got '-1'"),
])
def test_letter_rejects_an_index_handle_or_exponent_that_is_not_an_int(fields, message):
    # Rejected, never coerced: a float exponent used to reach an Element's
    # JSON, and a float index failed in normalize with a raw TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Letter(*fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Letter._make(fields + (0, 1)[len(fields) - 2:])


@pytest.mark.parametrize("letters", [
    (("a", 1, 1, 2.5),),  # a plain tuple used to carry the float exponent into the Element's JSON
    (Letter("s", 1), ("s", 1, 0, 1)),
    [Letter("s", 1)],
    "s1",
])
def test_braid_word_takes_only_a_tuple_of_letters(letters):
    with pytest.raises(ValueError, match="^braid word letters must be a tuple of Letters, got "):
        normalize(T2, BraidWord(letters))
    assert BraidWord(()).letters == () and normalize(T2, BraidWord(())).is_identity()


def test_parse_rejects_handle_letters_on_sphere():
    sphere = GroupDescriptor.sphere(3)
    assert len(parse(sphere, "s1 s2").letters) == 2
    with pytest.raises(UnsupportedSurfaceError):
        parse(sphere, "a[1,1]")


def test_word_text_round_trip():
    rng = random.Random(61)
    group = GroupDescriptor.orientable(4, 2)
    for _ in range(30):
        letters = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.5:
                letters.append(Letter("s", rng.randint(1, 3), 0, rng.choice([-2, -1, 1, 3])))
            else:
                letters.append(
                    Letter("a", rng.randint(1, 4), rng.randint(1, 4), rng.choice([-3, -1, 1, 2]))
                )
        word = BraidWord(tuple(letters))
        assert parse(group, word.text()) == word


def test_normalize_single_letters_match_group_generators():
    assert normalize_text(T2, "a[1,1]") == Element.strand_generator(T2, 1, 1)
    assert normalize_text(T2, "s1") == Element.section(T2, Permutation.transposition(2, 1))
    assert normalize_text(T2, "s1^-1") == Element.section(T2, Permutation.transposition(2, 1))


def test_normalize_matches_product_of_single_letters():
    # Oracle: normal form of a word equals the group product of its letters.
    rng = random.Random(67)
    for n, g in [(2, 1), (4, 2), (5, 3)]:
        group = GroupDescriptor.orientable(n, g)
        for _ in range(25):
            letters = []
            for _ in range(rng.randint(0, 40)):
                if rng.random() < 0.5:
                    letters.append(Letter("s", rng.randint(1, n - 1), 0, rng.choice([-1, 1])))
                else:
                    letters.append(
                        Letter("a", rng.randint(1, n), rng.randint(1, 2 * g), rng.randint(-3, 3) or 1)
                    )
            word = BraidWord(tuple(letters))
            product = reduce(
                lambda acc, l: acc * normalize(group, BraidWord((l,))),
                letters,
                Element.identity(group),
            )
            assert normalize(group, word) == product


def test_normalize_worked_example():
    # a[1,1] s1 a[1,1]  ->  a[1,1] a[2,1] section(t1)
    expected = (
        Element.strand_generator(T2, 1, 1)
        * Element.strand_generator(T2, 2, 1)
        * Element.section(T2, Permutation.transposition(2, 1))
    )
    assert normalize_text(T2, "a[1,1] s1 a[1,1]") == expected


def test_normalize_is_monoid_homomorphism():
    rng = random.Random(71)
    for n, g in [(3, 1), (5, 3)]:
        group = GroupDescriptor.orientable(n, g)
        for _ in range(20):
            w1 = random_word(rng, n, g, 20)
            w2 = random_word(rng, n, g, 20)
            assert normalize(group, w1 * w2) == normalize(group, w1) * normalize(group, w2)
            assert normalize(group, w1 * w1.inverse_word()).is_identity()


@pytest.mark.parametrize("k", [True, 2.0, "2"])
def test_word_power_rejects_an_exponent_that_is_not_an_int(k):
    with pytest.raises(ValueError, match=f"^exponent must be an integer, got {re.escape(repr(k))}$"):
        BraidWord((Letter("s", 1, 0, 1),)) ** k


def random_word(rng, n, g, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        if rng.random() < 0.5:
            letters.append(Letter("s", rng.randint(1, n - 1), 0, rng.choice([-1, 1])))
        else:
            letters.append(Letter("a", rng.randint(1, n), rng.randint(1, 2 * g), rng.choice([-2, -1, 1, 2])))
    return BraidWord(tuple(letters))


def test_normalize_builds_one_unchecked_permutation(monkeypatch):
    # s_i letters swap entries of one image list, so no product, no
    # transposition and no validated permutation is built per letter.
    rng = random.Random(29)
    groups = (GroupDescriptor.orientable(5, 2), GroupDescriptor.nonorientable(4, 4))  # 4 handles each
    cases = [(group, random_word(rng, group.n, 2, 40)) for group in groups for _ in range(10)]
    expected = [normalize(group, word) for group, word in cases]

    def refuse(self, *args):
        raise AssertionError("normalize built a permutation per letter")

    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    monkeypatch.setattr(Permutation, "__mul__", refuse)
    monkeypatch.setattr(Permutation, "transposition", refuse)
    assert [normalize(group, word) for group, word in cases] == expected


def test_full_twist_normalizes_to_identity():
    for n in range(2, 6):
        group = GroupDescriptor.orientable(n, 2)
        word = full_twist_word(group)
        assert len(word.letters) == n * (n - 1)
        assert normalize(group, word).is_identity()


def test_twist_words_normalize_to_identity():
    for n in range(2, 6):
        group = GroupDescriptor.torus(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert normalize(group, t_word(group, i, j)).is_identity()
                assert normalize(group, a_word(group, i, j)).is_identity()


def test_classical_word_spellings():
    g3 = GroupDescriptor.torus(3)
    assert t_word(GroupDescriptor.torus(2), 1, 2).text() == "s1^2"
    assert t_word(g3, 1, 3).text() == "s1 s2^2 s1"
    assert a_word(g3, 1, 3).text() == "s2 s1^2 s2^-1"
    assert full_twist_word(g3).text() == "s1 s2 s1 s2 s1 s2"
    with pytest.raises(GeneratorIndexError):
        t_word(g3, 2, 2)


@pytest.mark.parametrize("bad", ["2", None, 2.0, True], ids=["str", "None", "float", "bool"])
@pytest.mark.parametrize("word", [t_word, a_word], ids=["t_word", "a_word"])
def test_twist_words_reject_an_index_that_is_not_an_int(word, bad):
    # the type is read before any comparison: a GeneratorIndexError (a
    # ValueError), never the TypeError of 1 <= "2", and a bool is not taken
    # for 1
    g3 = GroupDescriptor.torus(3)
    for i, j in [(1, bad), (bad, 3)]:
        with pytest.raises(GeneratorIndexError, match="need 1 <= i < j <= n"):
            word(g3, i, j)


def test_artin_relation_lands_on_long_transposition():
    g3 = GroupDescriptor.torus(3)
    lhs = normalize(g3, sigma_word([1, 2, 1]))
    rhs = normalize(g3, sigma_word([2, 1, 2]))
    assert lhs == rhs == Element.section(g3, Permutation.from_cycles(3, (1, 3)))


def test_handle_generators_commute():
    lhs = normalize_text(T2, "a[1,1] a[2,2]")
    rhs = normalize_text(T2, "a[2,2] a[1,1]")
    assert lhs == rhs


def test_check_relations_small():
    for n, g in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        report = check_relations(GroupDescriptor.orientable(n, g))
        assert report.ok, report.failures
        assert report.checked > 0


def test_braid_word_product_takes_only_a_braid_word():
    word = BraidWord((Letter("s", 1),))
    for other in [(Letter("s", 1),), "s1", None]:
        with pytest.raises(ValueError, match="^a braid word multiplies only a BraidWord, got "):
            word * other


def test_braid_word_products_powers_and_inverses_are_plain_letter_tuples():
    rng = random.Random(83)
    for _ in range(20):
        w1, w2 = random_word(rng, 4, 2, 12), random_word(rng, 4, 2, 12)
        k = rng.randint(-3, 3)
        for word, letters in [
            (w1 * w2, w1.letters + w2.letters),
            (w1.inverse_word(), tuple([Letter(l.kind, l.i, l.r, -l.exp) for l in reversed(w1.letters)])),
            (w1 ** k, (w1.letters if k >= 0 else w1.inverse_word().letters) * abs(k)),
        ]:
            assert type(word) is BraidWord and word == BraidWord(letters)
            assert {Letter}.issuperset(map(type, word.letters))


def _faulty_fold(fault):
    """words._fold with one fault; letters are checked as in the real fold."""
    def fold(group, letters, images):
        n = group.n
        rows = [[0] * len(images) for _ in range(n)]
        w = list(range(1, n + 1))
        for kind, i, r, e in letters:
            words.check_letter(group, kind, i, r)
            if kind == "s":
                if e % 2 or fault == "s_i swaps on even exponents too":
                    w[i - 1], w[i] = w[i], w[i - 1]
                continue
            if fault == "a-letter exponent loses its sign":
                e = abs(e)
            if fault == "every power of the last handle gets its image once" and r == len(images):
                e = 1
            row = rows[i - 1] if fault == "a-letter lands on row j, not w(j)" else rows[w[i - 1] - 1]
            for col, v in images[r - 1]:
                row[col] += v * e
        return rows, w
    return fold


FOLD_FAULTS = [
    "a-letter exponent loses its sign",
    "s_i swaps on even exponents too",
    "a-letter lands on row j, not w(j)",
    "every power of the last handle gets its image once",
]


def test_faulty_fold_without_a_fault_passes(monkeypatch):
    monkeypatch.setattr(words, "_fold", _faulty_fold(None))
    assert check_relations(GroupDescriptor.orientable(3, 2)).ok


@pytest.mark.parametrize("fault", FOLD_FAULTS)
def test_check_relations_catches_a_broken_fold(monkeypatch, fault):
    # The sign and last-handle faults break only inverse a-letters, which
    # the relations reach through lhs rhs^-1.
    monkeypatch.setattr(words, "_fold", _faulty_fold(fault))
    assert not check_relations(GroupDescriptor.orientable(3, 2)).ok


@pytest.mark.parametrize("n, g", [(4, 1), (4, 2)])
def test_check_relations_labels_and_count_are_pinned(monkeypatch, n, g):
    # Every relation made to fail lists every label, in order.
    pinned = json.loads(RELATION_LABELS.read_text(encoding="utf-8"))[f"{n},{g}"]
    monkeypatch.setattr(words, "_fold", lambda group, letters, images: ([], [0]))
    report = check_relations(GroupDescriptor.orientable(n, g))
    assert report.checked == pinned["checked"] == len(report.failures)
    assert list(report.failures) == pinned["labels"]


def test_check_relations_folds_once_per_relation_and_builds_no_element(monkeypatch):
    counts = {"fold": 0, "element": 0}
    fold, trusted, post_init = words._fold, Element._trusted, Element.__post_init__

    def counting_fold(*args):
        counts["fold"] += 1
        return fold(*args)

    def counting_trusted(*args):
        counts["element"] += 1
        return trusted(*args)

    def counting_post_init(self):
        counts["element"] += 1
        post_init(self)

    monkeypatch.setattr(words, "_fold", counting_fold)
    monkeypatch.setattr(Element, "_trusted", staticmethod(counting_trusted))
    monkeypatch.setattr(Element, "__post_init__", counting_post_init)
    report = check_relations(GroupDescriptor.orientable(4, 1))
    assert report.ok and report.checked == 109
    assert counts == {"fold": 109, "element": 0}
