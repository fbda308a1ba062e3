"""Property test of the CLI's input boundary: whatever text reaches the word
parser or a JSON loader, `surfbraid` exits 0 or 2 and no exception escapes
``cli.main``."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.cli import main

from helpers import DERANDOMIZED

FUZZ = settings(DERANDOMIZED, max_examples=60)

# Word text: the grammar's own characters, non-ASCII digits and spaces, and
# anything else.
WORD_CHARS = list("sa[],^*+-0123456789 \t") + ["\u0661", "\u0662", "\u00b2", "\u00a0", "\u2003", "x"]
words = st.text(alphabet=st.sampled_from(WORD_CHARS), max_size=24) | st.text(max_size=12)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-4, 4)
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4)
)
KEYS = st.sampled_from(["n", "g", "perm", "coeffs", "torsion_bits"]) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=5),
    max_leaves=8,
)
small_rows = st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=5), max_size=6)
# Near-miss element encodings reach the validators behind the JSON parser.
element_objs = st.fixed_dictionaries(
    {
        "n": st.sampled_from([2, 3]) | json_values,
        "g": st.sampled_from([1, 2]) | json_values,
        "perm": st.permutations([1, 2, 3]) | st.lists(st.integers(0, 4), max_size=4) | json_values,
        "coeffs": small_rows | json_values,
    },
    optional={"torsion_bits": st.lists(st.integers(-1, 2), max_size=4) | json_values},
)
json_texts = st.one_of(
    json_values.map(json.dumps),
    element_objs.map(json.dumps),
    st.lists(element_objs, max_size=3).map(json.dumps),
    small_rows.map(json.dumps),
    st.text(max_size=16),
)

GROUPS = [
    ["--n", "3"],
    ["--surface", "orientable", "--n", "3", "--genus", "2"],
    ["--surface", "nonorientable", "--n", "3", "--genus", "2"],
]


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith("surfbraid: ") and not out.getvalue(), (argv, err.getvalue())


@FUZZ
@given(group=st.sampled_from(GROUPS), word=words)
def test_any_word_exits_0_or_2(group, word):
    assert_clean_exit(["normalize", *group, "--", word])


@FUZZ
@given(
    command=st.sampled_from(["order", "inv", "pow", "conjugacy", "mul"]),
    group=st.sampled_from(GROUPS),
    x=json_texts,
    y=element_objs.map(json.dumps),
)
def test_any_element_json_exits_0_or_2(command, group, x, y):
    operands = {"pow": [x, "-2"], "conjugacy": [x, y], "mul": [x, y]}.get(command, [x])
    assert_clean_exit([command, *group, "--", *operands])


@FUZZ
@given(
    flag=st.sampled_from(
        [
            ["bieberbach", "membership", "--n", "2", "--genus", "1", "--x"],
            ["subgroup-conjugator", "--n", "3", "--images"],
            ["frobenius", "embed", "--blocks"],
            ["frobenius", "conjugator", "--blocks"],
            ["frobenius", "torsion", "--lift1"],
        ]
    ),
    text=json_texts,
)
def test_any_flag_json_exits_0_or_2(flag, text):
    *command, name = flag
    assert_clean_exit([*command, f"{name}={text}"])
