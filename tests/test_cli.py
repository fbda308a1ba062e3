import itertools
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from surfbraid.bieberbach import make_bieberbach
from surfbraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_normalize_worked_example(capsys):
    code, out, _ = run(
        capsys, "normalize", "--surface", "torus", "--n", "2", "--genus", "1", "s1 a[1,1] s1"
    )
    assert code == 0
    assert out.strip() == '{"n": 2, "g": 1, "perm": [1, 2], "coeffs": [[0, 0], [1, 0]]}'


def test_normalize_text_format(capsys):
    code, out, _ = run(capsys, "normalize", "--n", "2", "--format", "text", "s1 a[1,1] s1")
    assert code == 0
    assert out.strip() == "a[2,1]"


def test_normalize_nonorientable(capsys):
    obj = run_json(
        capsys, "normalize", "--surface", "nonorientable", "--n", "2", "--genus", "2", "a[1,2] s1"
    )
    assert obj["torsion_bits"] == [1, 0]
    assert obj["coeffs"] == [[-1], [0]]
    assert obj["perm"] == [2, 1]


def test_mul_inv_pow_round_trip(capsys):
    x = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [0, 0]]})
    square = run_json(capsys, "pow", "--n", "2", x, "2")
    assert square == {"n": 2, "g": 1, "perm": [1, 2], "coeffs": [[1, 0], [1, 0]]}
    inverse = run_json(capsys, "inv", "--n", "2", x)
    product = run_json(capsys, "mul", "--n", "2", x, json.dumps(inverse))
    assert product == {"n": 2, "g": 1, "perm": [1, 2], "coeffs": [[0, 0], [0, 0]]}


def test_order_and_conjugacy(capsys):
    x = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [0, 0]]})
    assert run_json(capsys, "order", "--n", "2", x) == {"finite": False, "order": None}
    finite = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [-1, 0]]})
    assert run_json(capsys, "order", "--n", "2", finite) == {"finite": True, "order": 2}
    section = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[0, 0], [0, 0]]})
    result = run_json(capsys, "conjugacy", "--n", "2", finite, section)
    assert result["conjugate"] is True and result["witness"] is not None
    zero = json.dumps({"n": 2, "g": 1, "perm": [1, 2], "coeffs": [[0, 0], [0, 0]]})
    result = run_json(capsys, "conjugacy", "--n", "2", finite, zero)
    assert result == {"conjugate": False, "witness": None}
    # infinite order is decided too, by the 2-cycle sum: (1, 0) against (1, 0) and (2, 0)
    other = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[2, 0], [-1, 0]]})
    result = run_json(capsys, "conjugacy", "--n", "2", x, other)
    assert result["conjugate"] is True and result["witness"] is not None
    apart = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[2, 0], [0, 0]]})
    assert run_json(capsys, "conjugacy", "--n", "2", x, apart) == {"conjugate": False, "witness": None}


def test_subgroup_conjugator(capsys):
    images = json.dumps([{"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [-1, 0]]}])
    obj = run_json(capsys, "subgroup-conjugator", "--n", "2", "--images", images)
    assert obj["perm"] == [1, 2]


def test_frobenius_commands(capsys):
    obj = run_json(capsys, "frobenius", "embed", "--blocks", "[[1,2,3,4],[0,0,0,0]]")
    assert [row[0] for row in obj["v2"]["coeffs"]] == [-9, -3, 3, 9, 0]
    conj = run_json(capsys, "frobenius", "conjugator", "--blocks", "[[1,0,0,0],[0,0,0,0]]")
    assert [row[0] for row in conj["coeffs"]] == [1, 1, 1, 1, 0]
    torsion = run_json(capsys, "frobenius", "torsion", "--p", "5", "--l", "4")
    assert torsion["order"] == 5
    assert run_json(capsys, "frobenius", "torsion", "--p", "7")["order"] == 7


# Recorded stdout of the Frobenius commands, zero and nonzero blocks at each
# genus and the default and an explicit multiplier at each prime: the copies
# built by conjugating the sections of the pair, their conjugators and the
# torsion elements stay byte-identical.
FROBENIUS_STDOUT = [
    ('frobenius embed --genus 1',
     '{"v1": {"n": 5, "g": 1, "perm": [2, 3, 4, 5, 1], "coeffs": [[0, 0], [0, 0], [0, 0], '
     '[0, 0], [0, 0]]}, "v2": {"n": 5, "g": 1, "perm": [4, 3, 2, 1, 5], "coeffs": [[0, '
     '0], [0, 0], [0, 0], [0, 0], [0, 0]]}}'),
    ("frobenius embed --genus 1 --blocks '[[-3,1,0,2],[5,-1,2,-2]]'",
     '{"v1": {"n": 5, "g": 1, "perm": [2, 3, 4, 5, 1], "coeffs": [[-3, 5], [1, -1], [0, '
     '2], [2, -2], [0, -4]]}, "v2": {"n": 5, "g": 1, "perm": [4, 3, 2, 1, 5], "coeffs": '
     '[[-3, 1], [0, -2], [0, 2], [3, -1], [0, 0]]}}'),
    ('frobenius embed --genus 2',
     '{"v1": {"n": 5, "g": 2, "perm": [2, 3, 4, 5, 1], "coeffs": [[0, 0, 0, 0], [0, 0, 0, '
     '0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}, "v2": {"n": 5, "g": 2, "perm": [4, '
     '3, 2, 1, 5], "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, '
     '0, 0, 0]]}}'),
    ("frobenius embed --genus 2 --blocks '[[1,2,3,4],[-1,-2,-3,-4],[7,0,-7,1],[2,2,2,2]]'",
     '{"v1": {"n": 5, "g": 2, "perm": [2, 3, 4, 5, 1], "coeffs": [[1, -1, 7, 2], [2, -2, '
     '0, 2], [3, -3, -7, 2], [4, -4, 1, 2], [-10, 10, -1, -8]]}, "v2": {"n": 5, "g": 2, '
     '"perm": [4, 3, 2, 1, 5], "coeffs": [[-9, 9, 6, -6], [-3, 3, 7, -2], [3, -3, -7, 2], '
     '[9, -9, -6, 6], [0, 0, 0, 0]]}}'),
    ('frobenius embed --genus 3',
     '{"v1": {"n": 5, "g": 3, "perm": [2, 3, 4, 5, 1], "coeffs": [[0, 0, 0, 0, 0, 0], [0, '
     '0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]}, "v2": '
     '{"n": 5, "g": 3, "perm": [4, 3, 2, 1, 5], "coeffs": [[0, 0, 0, 0, 0, 0], [0, 0, 0, '
     '0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]}}'),
    ("frobenius embed --genus 3 --blocks '[[1,2,3,4],[0,0,0,0],[5,6,7,8],[-1,0,1,0],[9,-9,9,-9],[0,0,0,1]]'",
     '{"v1": {"n": 5, "g": 3, "perm": [2, 3, 4, 5, 1], "coeffs": [[1, 0, 5, -1, 9, 0], '
     '[2, 0, 6, 0, -9, 0], [3, 0, 7, 1, 9, 0], [4, 0, 8, 0, -9, 1], [-10, 0, -26, 0, 0, '
     '-1]]}, "v2": {"n": 5, "g": 3, "perm": [4, 3, 2, 1, 5], "coeffs": [[-9, 0, -21, -1, '
     '9, -1], [-3, 0, -7, -1, -9, 0], [3, 0, 7, 1, 9, 0], [9, 0, 21, 1, -9, 1], [0, 0, 0, '
     '0, 0, 0]]}}'),
    ('frobenius conjugator --genus 1',
     '{"n": 5, "g": 1, "perm": [1, 2, 3, 4, 5], "coeffs": [[0, 0], [0, 0], [0, 0], [0, '
     '0], [0, 0]]}'),
    ("frobenius conjugator --genus 1 --blocks '[[-3,1,0,2],[5,-1,2,-2]]'",
     '{"n": 5, "g": 1, "perm": [1, 2, 3, 4, 5], "coeffs": [[-3, 5], [-2, 4], [-2, 6], [0, '
     '4], [0, 0]]}'),
    ('frobenius conjugator --genus 2',
     '{"n": 5, "g": 2, "perm": [1, 2, 3, 4, 5], "coeffs": [[0, 0, 0, 0], [0, 0, 0, 0], '
     '[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}'),
    ("frobenius conjugator --genus 2 --blocks '[[1,2,3,4],[-1,-2,-3,-4],[7,0,-7,1],[2,2,2,2]]'",
     '{"n": 5, "g": 2, "perm": [1, 2, 3, 4, 5], "coeffs": [[1, -1, 7, 2], [3, -3, 7, 4], '
     '[6, -6, 0, 6], [10, -10, 1, 8], [0, 0, 0, 0]]}'),
    ('frobenius conjugator --genus 3',
     '{"n": 5, "g": 3, "perm": [1, 2, 3, 4, 5], "coeffs": [[0, 0, 0, 0, 0, 0], [0, 0, 0, '
     '0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]}'),
    ("frobenius conjugator --genus 3 --blocks '[[1,2,3,4],[0,0,0,0],[5,6,7,8],[-1,0,1,0],[9,-9,9,-9],[0,0,0,1]]'",
     '{"n": 5, "g": 3, "perm": [1, 2, 3, 4, 5], "coeffs": [[1, 0, 5, -1, 9, 0], [3, 0, '
     '11, -1, 0, 0], [6, 0, 18, 0, 9, 0], [10, 0, 26, 0, 0, 1], [0, 0, 0, 0, 0, 0]]}'),
    ('frobenius torsion --p 5',
     '{"element": {"n": 5, "g": 1, "perm": [4, 5, 1, 2, 3], "coeffs": [[0, 0], [0, 0], '
     '[0, 0], [0, 0], [0, 0]]}, "order": 5}'),
    ('frobenius torsion --p 5 --l 4',
     '{"element": {"n": 5, "g": 1, "perm": [4, 5, 1, 2, 3], "coeffs": [[0, 0], [0, 0], '
     '[0, 0], [0, 0], [0, 0]]}, "order": 5}'),
    ('frobenius torsion --p 7',
     '{"element": {"n": 7, "g": 1, "perm": [2, 3, 4, 5, 6, 7, 1], "coeffs": [[0, 0], [0, '
     '0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}, "order": 7}'),
    ('frobenius torsion --p 7 --l 4',
     '{"element": {"n": 7, "g": 1, "perm": [4, 5, 6, 7, 1, 2, 3], "coeffs": [[0, 0], [0, '
     '0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}, "order": 7}'),
    ('frobenius torsion --p 11',
     '{"element": {"n": 11, "g": 1, "perm": [3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 2], '
     '"coeffs": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], '
     '[0, 0], [0, 0]]}, "order": 11}'),
    ('frobenius torsion --p 11 --l 5',
     '{"element": {"n": 11, "g": 1, "perm": [5, 6, 7, 8, 9, 10, 11, 1, 2, 3, 4], '
     '"coeffs": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], '
     '[0, 0], [0, 0]]}, "order": 11}'),
    ('frobenius torsion --p 13',
     '{"element": {"n": 13, "g": 1, "perm": [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 1, 2, 3], '
     '"coeffs": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], '
     '[0, 0], [0, 0], [0, 0], [0, 0]]}, "order": 13}'),
    ('frobenius torsion --p 13 --l 10',
     '{"element": {"n": 13, "g": 1, "perm": [10, 11, 12, 13, 1, 2, 3, 4, 5, 6, 7, 8, 9], '
     '"coeffs": [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], '
     '[0, 0], [0, 0], [0, 0], [0, 0]]}, "order": 13}'),
]


def test_frobenius_commands_print_their_recorded_output(capsys):
    for command, stdout in FROBENIUS_STDOUT:
        code, out, err = run(capsys, *shlex.split(command))
        assert (code, out, err) == (0, stdout + "\n", ""), command


def test_bieberbach_commands(capsys):
    info = run_json(capsys, "bieberbach", "info", "--n", "2", "--genus", "1")
    assert info["dimension"] == 4 and info["num_generators"] == 5 and info["centre_rank"] == 2
    holonomy = run_json(capsys, "bieberbach", "holonomy", "--n", "2", "--genus", "1")
    assert holonomy["matrix"] == [[1, 2, 0, 0], [0, -1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    member = run_json(
        capsys,
        "bieberbach",
        "membership",
        "--n",
        "2",
        "--genus",
        "1",
        "--x",
        json.dumps(info["generator"]),
    )
    assert member == {"in_group": True, "j": 1, "coords": [0, 0, 0, 0]}
    centre = run_json(capsys, "bieberbach", "centre", "--n", "2", "--genus", "1")
    assert centre["rank"] == 2
    scan = run_json(capsys, "bieberbach", "torsion-scan", "--n", "2", "--genus", "1", "--bound", "1")
    assert scan["passed"] is True and scan["scanned"] == 162


def test_bieberbach_info_counts_the_generating_set(capsys):
    for n, g in [(2, 1), (3, 2), (5, 3)]:
        info = run_json(capsys, "bieberbach", "info", "--n", str(n), "--genus", str(g))
        assert info["num_generators"] == len(make_bieberbach(n, g).x_generators)


def test_invariants_command(capsys):
    report = run_json(capsys, "invariants", "--n", "2", "--genus", "1")
    assert list(report.keys()) == [
        "char_poly", "det", "betti", "anosov", "kahler", "orientable", "cyclotomic",
    ]
    assert report["betti"] == [1, 2, 2, 2, 1]
    assert report["anosov"] is True and report["kahler"] is True


def test_verdict_command(capsys):
    sphere = run_json(capsys, "verdict", "--surface", "sphere", "--n", "3")
    assert sphere["is_crystallographic"] is False
    torus = run_json(capsys, "verdict", "--surface", "torus", "--n", "2", "--genus", "1")
    assert torus["is_crystallographic"] is True and torus["dimension"] == 4
    klein = run_json(capsys, "verdict", "--surface", "nonorientable", "--n", "2", "--genus", "2")
    assert klein["is_crystallographic"] is False


def test_domain_errors_exit_2(capsys):
    code, _, err = run(capsys, "normalize", "--n", "2", "a[3,1]")
    assert code == 2 and "strand 3" in err
    code, _, err = run(capsys, "normalize", "--surface", "sphere", "--n", "3", "a[1,1]")
    assert code == 2
    code, _, err = run(capsys, "mul", "--n", "2", "{bad json", "{}")
    assert code == 2 and "malformed JSON" in err
    code, _, err = run(capsys, "verdict", "--surface", "sphere", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "bieberbach", "info", "--n", "1", "--genus", "1")
    assert code == 2
    code, _, err = run(capsys, "frobenius", "torsion", "--p", "5", "--l", "2")
    assert code == 2 and "order" in err


def test_torsion_scan_negative_bound_exits_2(capsys):
    code, out, err = run(
        capsys, "bieberbach", "torsion-scan", "--n", "2", "--genus", "1", "--bound", "-1"
    )
    assert code == 2 and out == "" and "bound" in err


@pytest.mark.parametrize("x", ["[1]", '{"n":2,"g":1}', '"text"', "{bad json"])
def test_membership_bad_element_exits_2(capsys, x):
    code, out, err = run(capsys, "bieberbach", "membership", "--n", "2", "--genus", "1", "--x", x)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("surfbraid: ")


def test_subgroup_conjugator_bad_image_exits_2(capsys):
    code, _, err = run(capsys, "subgroup-conjugator", "--n", "2", "--images", "[[1]]")
    assert code == 2 and "Traceback" not in err


@pytest.mark.parametrize(
    "surface, images",
    [
        (["--surface", "nonorientable", "--genus", "1"], "[]"),
        (["--surface", "nonorientable", "--genus", "1"],
         '[{"n":2,"g":1,"perm":[2,1],"torsion_bits":[0,0],"coeffs":[[],[]]}]'),
        (["--surface", "sphere"], "[]"),
        (["--surface", "sphere"], "[{}]"),
    ],
)
def test_subgroup_conjugator_outside_orientable_model_exits_2(capsys, surface, images):
    code, out, err = run(capsys, "subgroup-conjugator", *surface, "--n", "2", "--images", images)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("surfbraid: ")


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        main(["normalize"])  # missing --n and word
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 1


def test_genus_flag_validation(capsys):
    code, _, err = run(capsys, "normalize", "--surface", "orientable", "--n", "2", "s1")
    assert code == 2 and "--genus" in err
    code, _, err = run(capsys, "normalize", "--surface", "torus", "--n", "2", "--genus", "3", "s1")
    assert code == 2
    code, _, err = run(capsys, "normalize", "--surface", "sphere", "--n", "3", "--genus", "1", "s1")
    assert code == 2


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1..8"
    assert all(line.startswith("ok") for line in lines[1:])


def test_selftest_failure_exits_3(capsys, monkeypatch):
    import surfbraid.selftest as selftest_module

    def broken():
        raise AssertionError("forced failure")

    monkeypatch.setattr(selftest_module, "SUITES", [("forced", broken)])
    code, out, _ = run(capsys, "selftest")
    assert code == 3
    assert "not ok 1 - forced" in out


KLEIN = ["--surface", "nonorientable", "--n", "2", "--genus", "2"]
MIXED = json.dumps({"n": 2, "g": 2, "perm": [2, 1], "torsion_bits": [1, 0], "coeffs": [[3], [-3]]})


def test_orientable_only_commands_reject_nonorientable_elements(capsys):
    for argv in (["order", *KLEIN, MIXED], ["conjugacy", *KLEIN, MIXED, MIXED]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "orientable" in err


def test_nonorientable_text_format_prints_indented_json(capsys):
    # A non-orientable element has no word rendering on the command line;
    # --format text prints its JSON encoding, indented.
    code, out, _ = run(capsys, "inv", *KLEIN, "--format", "text", MIXED)
    assert code == 0
    assert json.loads(out) == {"n": 2, "g": 2, "perm": [2, 1], "torsion_bits": [0, 1], "coeffs": [[3], [-3]]}
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    code, out, _ = run(capsys, "normalize", *KLEIN, "--format", "text", "a[1,2] s1")
    assert code == 0 and out.startswith("{\n") and '"torsion_bits": [\n' in out


ELEMENT_GRID = Path(__file__).resolve().parent / "data" / "cli_element_grid.json"


def test_element_commands_print_their_recorded_output(capsys):
    # Recorded stdout and exit code of non-orientable mul, inv, pow +-k and
    # normalize at (n, g) = (2,1), (2,2), (3,3) in JSON and text, orientable
    # mul, inv and pow, the verdict for each surface kind, and malformed
    # torsion bits; the element layout and its JSON must not drift.
    for entry in json.loads(ELEMENT_GRID.read_text()):
        code, out, _ = run(capsys, *entry["argv"])
        assert (code, out) == (entry["code"], entry["stdout"]), entry["argv"]


GOOD = '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1,0],[0,0]]}'
SPHERE = ["--surface", "sphere", "--n", "3"]
SPHERE_ELEMENT = '{"n":3,"g":1,"perm":[1,2,3],"coeffs":[[0],[0],[0]]}'
SPHERE_ELEMENT_INPUTS = [
    ["mul", *SPHERE, SPHERE_ELEMENT, SPHERE_ELEMENT],
    ["inv", *SPHERE, SPHERE_ELEMENT],
    ["pow", *SPHERE, SPHERE_ELEMENT, "2"],
    ["order", *SPHERE, SPHERE_ELEMENT],
    ["conjugacy", *SPHERE, SPHERE_ELEMENT, SPHERE_ELEMENT],
    ["subgroup-conjugator", *SPHERE, "--images", f"[{SPHERE_ELEMENT},{SPHERE_ELEMENT}]"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1,0],[1]]}'],
        ["mul", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1,0],[1]]}', GOOD],
        ["mul", "--n", "2", '{"n":2,"g":1,"perm":["2",true],"coeffs":[[1,0],[0,0]]}', GOOD],
        ["mul", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1.7,0],[0,0]]}', GOOD],
        ["inv", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":[[true,0],[0,0]]}'],
        ["inv", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":[["3",0],[0,0]]}'],
        ["inv", "--n", "2", '{"n":2,"g":true,"perm":[1,2],"coeffs":[[1,0],[0,0]]}'],
        ["inv", "--n", "2", '{"n":2,"g":1,"perm":[1,2],"coeffs":{"a":1}}'],
        ["inv", *KLEIN, '{"n":2,"g":2,"perm":[1,2],"torsion_bits":[true,0],"coeffs":[[0],[0]]}'],
        ["inv", *KLEIN, '{"n":2,"g":2,"perm":[1,2],"torsion_bits":[1],"coeffs":[[0],[0]]}'],
        ["frobenius", "embed", "--blocks", "[[1,2,3,4.0],[0,0,0,0]]"],
        ["frobenius", "embed", "--blocks", "7"],
        ["frobenius", "torsion", "--lift1", '[[1,0],[0,0],[0,0],[0,0],["1",0]]'],
        ["frobenius", "torsion", "--lift1", "[[1,0],[0,0],[0,0],[0,0],[0]]"],
        ["frobenius", "torsion", "--p", "7", "--lift1", "[[1,2]]"],
        ["frobenius", "torsion", "--lift2", "[[1,0],[0,0],[0,0],[0,0],[0,0,0]]"],
        # no element arithmetic on the sphere, and no sphere kernel below n = 3
        ["normalize", "--surface", "sphere", "--n", "3", "s1"],
        ["normalize", "--surface", "sphere", "--n", "3", "a[1,1]"],
        ["normalize", "--surface", "sphere", "--n", "3", ""],
        ["verdict", "--surface", "sphere", "--n", "2"],
        *SPHERE_ELEMENT_INPUTS,
    ],
)
def test_non_integer_or_ragged_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("surfbraid: ")


def test_sphere_element_inputs_name_the_sphere(capsys):
    # The sphere is refused before the element's (n, g) header is compared
    # with the group's, whose genus is None.
    for argv in SPHERE_ELEMENT_INPUTS:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "sphere" in err and "encodes" not in err, argv


def test_sphere_element_inputs_print_the_sphere_message_unwrapped(capsys):
    # The sphere's own DomainError passes through unchanged: no encoding is
    # at fault, so no "bad element encoding" prefix.
    for argv in (["inv", *SPHERE, "{}"], ["inv", *SPHERE, SPHERE_ELEMENT], ["order", *SPHERE, SPHERE_ELEMENT]):
        assert run(capsys, *argv) == (2, "", "surfbraid: the sphere model has no element arithmetic\n"), argv


@pytest.mark.parametrize("word", ["s\u0661", "s1^\u0662", "a[\u0661,1]", "s1\u00a0s2"])
def test_non_ascii_digits_and_spaces_in_words_exit_2(capsys, word):
    # The word grammar is ASCII: an Arabic-Indic digit is not coerced to
    # its value and a no-break space is not a separator.
    code, out, err = run(capsys, "normalize", "--n", "3", word)
    assert code == 2 and out == ""
    assert "Traceback" not in err and err.startswith("surfbraid: ")


@pytest.mark.parametrize("word, message", [
    ("s\u0661", "unexpected character '\u0661' (at position 1)"),
    ("a[\u0661,1]", "unexpected character '\u0661' (at position 2)"),
    ("a[1,x]", "unexpected character 'x' (at position 4)"),
    ("s", "unexpected end of word (at position 1)"),
    ("a[1,2", "unexpected end of word (at position 5)"),
])
def test_word_syntax_errors_name_the_character_that_breaks_the_generator(capsys, word, message):
    code, out, err = run(capsys, "normalize", "--n", "3", word)
    assert (code, out, err) == (2, "", f"surfbraid: {message}\n")


def test_verdict_prints_a_holonomy_order_past_the_int_string_limit(capsys):
    # 1700! has 4,755 digits, more than CPython's default 4,300 for str(int).
    obj = run_json(capsys, "verdict", "--n", "1700")
    assert obj["holonomy_order"] == math.factorial(1700)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_optimized(code):
    """Run ``code`` under ``python -O``, where assert statements are stripped."""
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_failed_internal_check_exits_4_under_python_O():
    finite = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[1, 0], [-1, 0]]})
    section = json.dumps({"n": 2, "g": 1, "perm": [2, 1], "coeffs": [[0, 0], [0, 0]]})
    code = (
        "import sys\n"
        "from surfbraid import cli, core\n"
        "core.Element.conjugated_by = lambda self, by: self  # a wrong conjugation\n"
        f"sys.exit(cli.main(['conjugacy', '--n', '2', {finite!r}, {section!r}]))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 4 and res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("surfbraid: internal check failed: ")


def test_broken_selftest_exits_3_under_python_O():
    code = (
        "import sys\n"
        "from surfbraid import cli, core\n"
        "core.Element.__pow__ = lambda self, k: self  # a wrong power formula\n"
        "sys.exit(cli.main(['selftest']))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 3
    assert "not ok 3 - cycle power formula" in res.stdout


# Two faulty joins for the torsion scan: one that reports every tuple of a
# cycle's rows, one that reports none, not even the identity's.
JOIN_FAULTS = {
    "everything": "torsion.zero_sum_rows = lambda tables, cycle, target: "
                  "list(itertools.product(*[tables[c - 1] for c in cycle]))\n",
    "nothing": "torsion.zero_sum_rows = lambda tables, cycle, target: []\n",
}


def test_selftest_runs_the_torsion_scan_under_python_O():
    # Suite 5 runs the bound-1 scan at n = 2, g = 1, which re-checks each
    # tuple the join reports with `order` and requires the identity exactly
    # once; nothing else in the selftest reads the join, so a join that
    # yields every tuple, or none, fails that suite alone.
    for fault, message in [("everything", "a joined tuple of rows must have vanishing cycle sums"),
                           ("nothing", "the join must find the identity exactly once")]:
        code = ("import itertools, sys\nfrom surfbraid import cli, torsion\n"
                + JOIN_FAULTS[fault] + "sys.exit(cli.main(['selftest']))\n")
        res = run_optimized(code)
        assert res.returncode == 3, res.stderr
        failed = [line for line in res.stdout.splitlines() if line.startswith("not ok")]
        assert failed == [f"not ok 5 - bieberbach holonomy matrices and centre: {message}"], res.stdout



def test_nonorientable_verdict_exits_4_when_one_conjugate_has_a_free_coordinate_under_python_O():
    # (2,2): 2 torsion generators times 1 transposition and 4 strand
    # generators; the seventh conjugate gets one free coordinate.
    code = (
        "import sys\n"
        "from surfbraid import cli, core\n"
        "real, calls = core.Element.conjugated_by, []\n"
        "def faulty(self, by):\n"
        "    z = real(self, by)\n"
        "    calls.append(by)\n"
        "    if len(calls) == 7:\n"
        "        rows = ((z.coeffs.rows[0][0], 1),) + z.coeffs.rows[1:]\n"
        "        z = core.Element(z.group, core.CoeffVector(rows), z.perm)\n"
        "    return z\n"
        "core.Element.conjugated_by = faulty\n"
        "sys.exit(cli.main(['verdict', '--surface', 'nonorientable', '--n', '2', '--genus', '2']))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 4 and res.stdout == "", res.stderr
    assert res.stderr == "surfbraid: internal check failed: torsion subgroup failed the normality check\n"


def test_selftest_catches_a_sign_flip_in_the_closed_form_conjugate_under_python_O(tmp_path):
    # A copy of the package whose conjugation adds w'.a instead of subtracting
    # it: the selftest's cross-checks against by * x * by^-1 must reject it in
    # the conjugacy and the non-orientable suites.
    shutil.copytree(Path(SRC) / "surfbraid", tmp_path / "surfbraid", ignore=shutil.ignore_patterns("__pycache__"))
    core_py = tmp_path / "surfbraid" / "core.py"
    text = core_py.read_text()
    body = text[text.index("    def conjugated_by("):text.index("    def is_identity(")]
    assert body.count("map(sub, map(add, x, y), z)") == 1
    core_py.write_text(text.replace(body, body.replace("map(sub, map(add, x, y), z)", "map(add, map(add, x, y), z)")))
    res = subprocess.run([sys.executable, "-O", "-m", "surfbraid.cli", "selftest"],
                         env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
    message = "the closed-form conjugate must be by * x * by^-1"
    lines = res.stdout.splitlines()
    assert f"not ok 4 - conjugacy decided by cycle lengths and cycle sums: {message}" in lines, res.stdout
    assert f"not ok 8 - non-orientable and sphere models: {message}" in lines, res.stdout


# Three faults the selftest must catch: a trace-derived coefficient off by
# one, which the multiplicities derived by characters reject when the rep is
# built; an echelon whose row swaps no longer flip the determinant's sign,
# which the selftest's characteristic-polynomial check rejects; and a power-sum
# recurrence run on a characteristic polynomial with one sign flipped, whose
# sums never repeat, so the order-6 rotation's cut chain finds no period.
CHAR_POLY_FAULTS = {
    "trace_coefficient": (
        "from surfbraid import invariants\n"
        "real = invariants._char_poly\n"
        "def perturbed(traces, m):\n"
        "    poly = real(traces, m)\n"
        "    return (poly[0], poly[1] + 1, *poly[2:])\n"
        "invariants._char_poly = perturbed\n",
        ["ok 5 - ", "not ok 6 - flat manifold invariants: the characteristic polynomial must be the product "
                    "of its cyclotomic factors"],
    ),
    "trace_recurrence": (
        "from surfbraid import invariants\n"
        "real = invariants._trace_period\n"
        "def flipped(traces, char_poly, order):\n"
        "    return real(traces, (char_poly[0], -char_poly[1], *char_poly[2:]), order)\n"
        "invariants._trace_period = flipped\n",
        ["ok 5 - ", "not ok 6 - flat manifold invariants: matrix does not have order dividing 6"],
    ),
    "echelon_sign": (
        "from surfbraid.intmatrix import IntMatrix\n"
        "real = IntMatrix._echelon\n"
        "IntMatrix._echelon = lambda self: real(self)[:2] + (1,)  # a swap keeps the sign\n",
        ["not ok 5 - bieberbach holonomy matrices and centre: (x^n - 1)^2g must be det(xI - M) at x = ",
         "not ok 6 - flat manifold invariants: the trace char poly must be det(xI - M) at x = "],
    ),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("fault", sorted(CHAR_POLY_FAULTS))
def test_selftest_catches_a_faulty_char_poly_or_determinant(fault, flags):
    patch, expected = CHAR_POLY_FAULTS[fault]
    code = patch + "import sys\nfrom surfbraid import cli\nsys.exit(cli.main(['selftest']))\n"
    res = subprocess.run([sys.executable, *flags, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 3, res.stderr
    lines = res.stdout.splitlines()
    assert all(any(line.startswith(prefix) for line in lines) for prefix in expected), res.stdout


def test_verdict_runs_the_strand_action(capsys, monkeypatch):
    # A strand action that moves nothing leaves the orientable verdict
    # without its witness: an internal check fails, exit 4.
    from surfbraid import core

    monkeypatch.setattr(core.CoeffVector, "permuted", lambda self, w: self)
    code, out, err = run(capsys, "verdict", "--surface", "orientable", "--n", "3", "--genus", "2")
    assert (code, out) == (4, "")
    assert err == "surfbraid: internal check failed: transposition 1 must move a[1,1]\n"


def test_torsion_scan_checks_run_under_python_O():
    # The scan's checks are explicit branches, not asserts: under -O the
    # unpatched scan prints the README output; a join that yields every tuple
    # fails the re-check by `order`, and a join that yields none fails the
    # identity check; with an `order` that calls every element finite too,
    # the scan yields hits and mismatches.
    golden = json.loads((Path(__file__).resolve().parent / "data" / "readme_outputs.json").read_text())
    command = "surfbraid bieberbach torsion-scan --n 2 --genus 1 --bound 1"
    expected = next(entry["stdout"] for entry in golden if entry["command"] == command)
    code = (
        "import itertools, json\n"
        "from surfbraid import bieberbach, cli, errors, torsion\n"
        f"cli.main({command.split()[1:]!r})\n"
        "def scan():\n"
        "    try:\n"
        "        report = bieberbach.make_bieberbach(2, 1).torsion_scan(1)\n"
        "    except errors.VerificationError as exc:\n"
        "        return str(exc)\n"
        "    return [report.scanned, len(report.torsion_hits), len(report.obstruction_mismatches)]\n"
        + JOIN_FAULTS["nothing"] + "nothing = scan()\n"
        + JOIN_FAULTS["everything"] + "everything = scan()\n"
        "torsion.order = lambda x: torsion.OrderResult(x.perm.order())  # every element called finite\n"
        "print(json.dumps([nothing, everything, scan()]))\n"
    )
    res = run_optimized(code)
    assert res.returncode == 0, res.stderr
    box = list(itertools.product(range(-1, 2), repeat=4))
    # every element but the identity is a hit; a mismatch has 2*(c1 + c2) + j != 0
    mismatches = sum(1 for c in box for j in (0, 1) if 2 * (c[0] + c[1]) + j != 0)
    assert res.stdout == expected + json.dumps([
        "the join must find the identity exactly once",
        "a joined tuple of rows must have vanishing cycle sums",
        [2 * len(box), 2 * len(box) - 1, mismatches],
    ]) + "\n"


def _rejected_under_python_O(fault):
    """Run a bound-1 scan at n = 2, g = 1 under -O after ``fault``, with the
    join and the finite-order test unset, and return what it printed."""
    code = (
        "from surfbraid import bieberbach, torsion\n"
        "from surfbraid.core import CoeffVector, Element\n"
        "desc = bieberbach.make_bieberbach(2, 1)\n"
        + fault +
        "torsion.zero_sum_rows = torsion.order = None  # joining or checking would raise TypeError\n"
        "try:\n"
        "    desc.torsion_scan(1)\n"
        "except ValueError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    res = run_optimized(code)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_torsion_scan_row_check_runs_under_python_O():
    # The scan checks its offset-table rows with an explicit branch, not an
    # assert: under -O a float entry from the row builder is still rejected,
    # before any table reaches the join or any element the finite-order test.
    assert _rejected_under_python_O(
        "real_strand_row = bieberbach._strand_row\n"
        "bieberbach._strand_row = lambda *args: (0.5,) + real_strand_row(*args)[1:]\n"
    ) == "rejected: coefficients must be integers\n"


def test_torsion_scan_shift_row_check_runs_under_python_O():
    # The same for the shift rows: a float entry in a cached power of the
    # generator is rejected under -O before the join.
    assert _rejected_under_python_O(
        "g1 = desc.powers[1]\n"
        "rows = ((g1.coeffs.rows[0][0], 0.5),) + g1.coeffs.rows[1:]\n"
        "desc.__dict__['powers'] = (desc.powers[0], Element._trusted(desc.group, CoeffVector(rows), g1.perm))\n"
    ) == "rejected: coefficients must be integers\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("fault, x, message", [
    ("torsion.order = lambda x: torsion.OrderResult(x.perm.order())", '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[0,0]]}',
     "x**2 must be the identity for an element of order 2"),
    ("torsion.order = lambda x: torsion.OrderResult(None)", '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[-1,0]]}',
     "an infinite-order element must have a nonzero power over the identity permutation"),
    ("real = Permutation.order\nPermutation.order = lambda self: 2 * real(self)",
     '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[-1,0]]}', "x**2 must not be the identity for an element of order 4"),
], ids=["called-finite", "called-infinite", "order-too-large"])
def test_order_command_checks_the_printed_order_with_powers(flags, fault, x, message):
    # The printed order is backed by closed-form powers that run under -O
    # too: an `order` that calls every element finite (or every element
    # infinite), or a permutation order twice too large, makes
    # `surfbraid order` exit 4 with the power check's message, not print a
    # wrong order.
    code = (
        "import sys\n"
        "from surfbraid import cli, torsion\n"
        "from surfbraid.permutations import Permutation\n"
        f"{fault}\n"
        f"sys.exit(cli.main(['order', '--n', '2', {x!r}]))\n"
    )
    res = subprocess.run([sys.executable, *flags, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == f"surfbraid: internal check failed: {message}\n"


@pytest.mark.parametrize("k, added, message", [
    (2, 1, "Betti numbers [1, 2, 6, 8, 5, 2, 1] of det 1 must satisfy Poincare duality"),
    (3, 2, "a flat manifold must have Euler characteristic 0"),
], ids=["beta2-plus-1", "beta3-plus-2"])
def test_invariants_command_checks_duality_and_euler_characteristic_under_python_O(k, added, message):
    # beta_k is the average over the p = 3 powers of M of the k-th Newton
    # coefficient; adding 3 * added to the identity's adds `added` to beta_k.
    # beta_2 + 1 at (3, 1), [1, 2, 6, 8, 5, 2, 1], breaks duality and the
    # Euler characteristic; beta_3 + 2, [1, 2, 5, 10, 5, 2, 1], is
    # palindromic and breaks the Euler characteristic alone.  Either makes
    # `invariants` exit 4 under -O, not print the wrong Betti numbers.
    code = (
        "import sys\n"
        "from surfbraid import cli, invariants\n"
        "real = invariants._elementary_symmetric_from_traces\n"
        "def faulty(traces, m):\n"
        "    e = real(traces, m)\n"
        "    if tuple(traces) == (m,) * m:  # the power sums of the identity\n"
        f"        e[{k}] += 3 * {added}\n"
        "    return e\n"
        "invariants._elementary_symmetric_from_traces = faulty\n"
        "sys.exit(cli.main(['invariants', '--n', '3', '--genus', '1']))\n"
    )
    res = run_optimized(code)
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == f"surfbraid: internal check failed: {message}\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_membership_command_rebuilds_the_member(flags):
    # `bieberbach membership` prints "in_group": true only after it rebuilds
    # the member from its residue and coordinates and compares it with x: a
    # decoder whose first coordinate is off by one makes it exit 4, also
    # under -O, not print wrong coordinates.
    x = '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1,0],[1,0]]}'
    code = (
        "import sys\n"
        "from surfbraid import cli\n"
        "from surfbraid.bieberbach import BieberbachDescriptor\n"
        "real = BieberbachDescriptor.lattice_coords\n"
        "def off_by_one(self, vec):\n"
        "    coords = real(self, vec)\n"
        "    return None if coords is None else (coords[0] + 1,) + coords[1:]\n"
        "BieberbachDescriptor.lattice_coords = off_by_one\n"
        f"sys.exit(cli.main(['bieberbach', 'membership', '--n', '2', '--genus', '1', '--x', {x!r}]))\n"
    )
    res = subprocess.run([sys.executable, *flags, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == "surfbraid: internal check failed: a member must be rebuilt from its residue and coordinates\n"
