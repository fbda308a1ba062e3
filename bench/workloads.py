"""The four benchmark workloads: seeded inputs, one operation list per pass,
and an independent output check for every operation.

Every operation calls surfbraid through module attributes at call time
(``bieberbach.make_bieberbach``, not a captured function), so the tracer's
wrappers see the call.  Inputs are generated as plain tuples with
:mod:`oracle` and handed to the package through its public constructors.

The seed permutes and fills a pass; it never changes how many operations a
pass has or their sizes, so runs with different seeds measure the same
amount of work.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def _modules():
    names = ("core", "permutations", "words", "torsion", "bieberbach",
             "invariants", "nonorientable", "cli")
    return {name: importlib.import_module(f"surfbraid.{name}") for name in names}


# --- lattice_scan -------------------------------------------------------------

# (n, g, bound) -> copies per pass.  The median falls in the middle of the
# three (2,1,3) scans and the tail inside the two (2,1,4) scans.  Both statistics
# sit on operations of a quarter second or more: on a shared machine the
# timing of shorter operations wanders more from run to run.
SCAN_CASES = {(2, 1, 1): 1, (2, 1, 2): 1, (3, 1, 1): 1, (2, 1, 3): 3, (2, 2, 1): 1, (2, 1, 4): 2}


def _scan_op(m, n, g, b):
    def call():
        return m["bieberbach"].make_bieberbach(n, g).torsion_scan(b)

    def check(report):
        return (report.scanned == oracle.scan_size(n, g, b) and report.passed
                and (report.n, report.genus, report.bound) == (n, g, b))
    return Op(f"scan{n}.{g}.{b}", call, check)


def lattice_scan(seed):
    m = _modules()
    ops = [_scan_op(m, *case) for case, k in SCAN_CASES.items() for _ in range(k)]
    random.Random(seed).shuffle(ops)
    return ops, [_scan_op(m, 2, 1, 1)]


# --- flat_invariants ----------------------------------------------------------

# (n, g) -> copies per pass: mostly dim <= 16 and four dim-32 cases.  The
# median falls inside the (4, 2) reports, the middle class of the ten dim-16
# ones, and the tail inside the dim-32 reports.  The dim-64 case (8, 4)
# opens the run and runs only once: at 2.5 s in every pass it would leave a
# run so few passes that the tail's place in the dim-32 class, and so its
# value, would shift with each pass added.
INVARIANT_CASES = {(2, 1): 1, (3, 1): 1, (2, 2): 1, (4, 1): 1, (3, 2): 1, (2, 3): 2,
                   (2, 4): 1, (4, 2): 5, (8, 1): 4, (8, 2): 2, (4, 4): 2}
INVARIANT_OPENING = (8, 4)


def _invariants_op(m, n, g):
    def call():
        desc = m["bieberbach"].make_bieberbach(n, g)
        rep = m["invariants"].CyclicRep(desc.holonomy_matrix(), n)
        return m["invariants"].invariant_report(rep)
    return Op(f"invariants{n}.{g}", call, lambda report: oracle.flat_invariants_ok(report, n, g))


def flat_invariants(seed):
    m = _modules()
    ops = [_invariants_op(m, *case) for case, k in INVARIANT_CASES.items() for _ in range(k)]
    random.Random(seed).shuffle(ops)
    opening = _invariants_op(m, *INVARIANT_OPENING)
    return [opening] + ops, [_invariants_op(m, 2, 1), _invariants_op(m, 3, 1)]


# --- word_session -------------------------------------------------------------

WIDE = (32, 4)          # element arithmetic, words, torsion, membership
MIXED = (32, 3)         # non-orientable words and products
COPY = (12, 2)          # symmetric-group copy
RELATIONS = (4, 1)      # full presentation check
FROBENIUS = ((7, 2), (13, 1))
WORD_LETTERS = 200
# A session builds its descriptor and runs each heavy check once, and makes
# the element calls many times: each element call (distinct inputs within a
# round) repeats SESSION_ROUNDS times per pass.  The median then falls inside
# the products and, from twelve passes on, the tail inside make_bieberbach.
SESSION_ONCE = {"make_bieberbach", "symmetric_copy_conjugator", "check_relations",
                "verdict_orientable", "verdict_nonorientable"}
SESSION_ROUNDS = 16


class _Gen:
    """Seeded plain-tuple inputs."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def perm(self, n):
        images = list(range(1, n + 1))
        self.rng.shuffle(images)
        return tuple(images)

    def rows(self, n, cols, bound=3):
        return tuple(tuple(self.rng.randint(-bound, bound) for _ in range(cols)) for _ in range(n))

    def element(self, n, cols):
        return self.perm(n), self.rows(n, cols)

    def finite_element(self, n, cols):
        """Zero coefficient sum on every cycle, so the order is finite."""
        p = self.perm(n)
        rows = [[0] * cols for _ in range(n)]
        for cyc in oracle.cycles(p):
            for c in range(cols):
                vals = [self.rng.randint(-3, 3) for _ in cyc[1:]]
                for i, v in zip(cyc, [-sum(vals)] + vals):
                    rows[i - 1][c] = v
        return p, tuple(tuple(r) for r in rows)

    def letters(self, n, handles, count):
        out = []
        for _ in range(count):
            e = self.rng.choice((-2, -1, 1, 1, 2, 3))
            if self.rng.random() < 0.5:
                out.append(("s", self.rng.randint(1, n - 1), 0, e))
            else:
                out.append(("a", self.rng.randint(1, n), self.rng.randint(1, handles), e))
        return out


def word_text(letters, rng):
    parts = []
    for kind, i, r, e in letters:
        base = f"s{i}" if kind == "s" else f"a[{i},{r}]"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "".join(p + rng.choice((" ", " ", " * ")) for p in parts).strip(" *")


def _ref(x):
    return x.perm.images, x.coeffs.rows


def _ref_mixed(x):
    return x.perm.images, tuple((b,) + tuple(f) for b, f in zip(x.bits, x.free))


def _letters_of(word):
    return [(l.kind, l.i, l.r, l.exp) for l in word.letters]


def word_session(seed):
    m = _modules()
    core, perms, words, torsion = m["core"], m["permutations"], m["words"], m["torsion"]
    bieb, nonor = m["bieberbach"], m["nonorientable"]
    rng = random.Random(seed)
    gen = _Gen(rng)

    def element(group, x):
        return core.Element(group, core.CoeffVector(x[1]), perms.Permutation(x[0]))

    n, g = WIDE
    h = 2 * g
    wide = core.GroupDescriptor.orientable(n, g)
    omods = (0,) * h
    ops: list[Op] = []

    for _ in range(8):
        letters = gen.letters(n, h, WORD_LETTERS)
        text = word_text(letters, rng)
        ops.append(Op("parse", lambda text=text: words.parse(wide, text),
                      lambda w, letters=letters: _letters_of(w) == letters))
    for _ in range(8):
        letters = gen.letters(n, h, WORD_LETTERS)
        word = words.BraidWord(tuple(words.Letter(*l) for l in letters))
        expect = oracle.normalize(letters, n, omods, oracle.orientable_letter(h))
        ops.append(Op("normalize", lambda word=word: words.normalize(wide, word),
                      lambda x, expect=expect: _ref(x) == expect))
    for _ in range(60):
        a, b = gen.element(n, h), gen.element(n, h)
        x, y = element(wide, a), element(wide, b)
        ops.append(Op("mul", lambda x=x, y=y: x * y,
                      lambda z, a=a, b=b: _ref(z) == oracle.mul(a, b, omods)))
    for _ in range(16):
        a = gen.element(n, h)
        x = element(wide, a)
        ops.append(Op("inverse", lambda x=x: x.inverse(),
                      lambda z, a=a: _ref(z) == oracle.inverse(a, omods)))
    for _ in range(10):
        a = gen.element(n, h)
        k = rng.choice((-1, 1)) * rng.randint(2, 30)
        x = element(wide, a)
        ops.append(Op("pow", lambda x=x, k=k: x ** k,
                      lambda z, a=a, k=k: _ref(z) == oracle.power(a, k, omods)))
    for i in range(16):
        a = gen.finite_element(n, h) if i % 2 else gen.element(n, h)
        x = element(wide, a)
        ops.append(Op("order", lambda x=x: torsion.order(x),
                      lambda res, a=a: res.value == oracle.order(a)))
    for i in range(6):
        a = gen.finite_element(n, h)
        if i < 4:   # a conjugate pair: the witness must conjugate a to b
            b = oracle.conjugate(a, gen.element(n, h), omods)
        else:       # different cycle types: no conjugator may exist
            b = gen.finite_element(n, h)
            while oracle.cycle_type(b[0]) == oracle.cycle_type(a[0]):
                b = gen.finite_element(n, h)
        x, y = element(wide, a), element(wide, b)
        ops.append(Op("conjugacy_test", lambda x=x, y=y: torsion.conjugacy_test(x, y),
                      lambda c, a=a, b=b, i=i: (c is None) if i >= 4
                      else c is not None and oracle.conjugate(a, _ref(c), omods) == b))
    for _ in range(4):
        a = gen.finite_element(n, h)
        x = element(wide, a)
        section = oracle.section(a[0], omods)
        ops.append(Op("conjugator_to_section", lambda x=x: torsion.conjugator_to_section(x),
                      lambda c, a=a, s=section: oracle.conjugate(s, _ref(c), omods) == a))

    def bieberbach_check(desc):
        return (_ref(desc.generator) == oracle.bieberbach_generator(n, g)
                and len(desc.lattice_basis) == 2 * n * g)
    ops.append(Op("make_bieberbach", lambda: bieb.make_bieberbach(n, g), bieberbach_check))
    desc = bieb.make_bieberbach(n, g)
    generator = oracle.bieberbach_generator(n, g)
    for i in range(8):
        j = rng.randrange(n)
        coords = tuple(rng.randint(-3, 3) for _ in range(2 * n * g))
        a = oracle.mul(oracle.lattice_from_coords(n, g, coords), oracle.power(generator, j, omods), omods)
        if i % 2:   # a handle-2 entry that is not a multiple of n: outside the subgroup
            rows = [list(r) for r in a[1]]
            rows[rng.randrange(n)][1] += 1
            a = a[0], tuple(tuple(r) for r in rows)
            expect = (False, None, None)
        else:
            expect = (True, j, coords)
        x = element(wide, a)
        ops.append(Op("membership", lambda x=x: desc.membership(x),
                      lambda res, e=expect: (res.in_group, res.j, res.coords) == e))

    cn, cg = COPY
    copy_group = core.GroupDescriptor.orientable(cn, cg)
    cmods = (0,) * (2 * cg)
    lattice = (tuple(range(1, cn + 1)), gen.rows(cn, 2 * cg))
    sections = [oracle.section(oracle.transposition(cn, i), cmods) for i in range(1, cn)]
    images_ref = [oracle.conjugate(s, lattice, cmods) for s in sections]
    images = [element(copy_group, a) for a in images_ref]

    def copy_check(x):
        return x.perm.images == tuple(range(1, cn + 1)) and all(
            oracle.conjugate(s, _ref(x), cmods) == image for s, image in zip(sections, images_ref))
    ops.append(Op("symmetric_copy_conjugator",
                  lambda: torsion.symmetric_copy_conjugator(copy_group, images), copy_check))

    for p, fg in FROBENIUS * 2:
        fgroup = core.GroupDescriptor.orientable(p, fg)
        lift1, lift2 = (core.CoeffVector(gen.rows(p, 2 * fg)) for _ in range(2))

        def frob_check(v, p=p, fg=fg):
            a = _ref(v)
            fmods = (0,) * (2 * fg)
            return (oracle.cycle_type(a[0])[0] == p and oracle.order(a) == p
                    and oracle.power(a, p, fmods) == oracle.identity(p, fmods))
        ops.append(Op("frobenius_torsion_element",
                      lambda fgroup=fgroup, p=p, l1=lift1, l2=lift2:
                      torsion.frobenius_torsion_element(fgroup, p, None, l1, l2), frob_check))

    rn, rg = RELATIONS
    rgroup = core.GroupDescriptor.orientable(rn, rg)
    ops.append(Op("check_relations", lambda: words.check_relations(rgroup),
                  lambda rep: rep.ok and rep.checked == oracle.relation_count(rn, 2 * rg)))

    mn, mg = MIXED
    mgroup = core.GroupDescriptor.nonorientable(mn, mg)
    mmods = (2,) + (0,) * (mg - 1)
    for _ in range(4):
        letters = gen.letters(mn, mg, WORD_LETTERS)
        word = words.BraidWord(tuple(words.Letter(*l) for l in letters))
        expect = oracle.normalize(letters, mn, mmods, oracle.nonorientable_letter(mg))
        ops.append(Op("mixed_normalize", lambda word=word: nonor.normalize_word(mgroup, word),
                      lambda x, expect=expect: _ref_mixed(x) == expect))

    def mixed(a):
        return nonor.MixedElement(mgroup, tuple(r[0] for r in a[1]),
                                  tuple(tuple(r[1:]) for r in a[1]), perms.Permutation(a[0]))

    def mixed_plain():
        p, rows = gen.element(mn, mg)
        return p, tuple(((r[0] % 2),) + r[1:] for r in rows)
    for _ in range(16):
        a, b = mixed_plain(), mixed_plain()
        x, y = mixed(a), mixed(b)
        ops.append(Op("mixed_mul", lambda x=x, y=y: x * y,
                      lambda z, a=a, b=b: _ref_mixed(z) == oracle.mul(a, b, mmods)))
    for _ in range(8):
        a = mixed_plain()
        ops.append(Op("mixed_inverse", lambda x=mixed(a): x.inverse(),
                      lambda z, a=a: _ref_mixed(z) == oracle.inverse(a, mmods)))

    sphere = core.GroupDescriptor.sphere(8)
    nonorientable_group = core.GroupDescriptor.nonorientable(6, 3)
    ops.append(Op("verdict_orientable", lambda: core.verify_crystallographic(wide),
                  lambda v: (v.is_crystallographic, v.dimension, v.holonomy_order)
                  == (True, 2 * n * g, math.factorial(n))))
    ops.append(Op("verdict_sphere", lambda: core.verify_crystallographic(sphere),
                  lambda v: not v.is_crystallographic and v.witness["order"] == 2))
    ops.append(Op("verdict_nonorientable", lambda: core.verify_crystallographic(nonorientable_group),
                  lambda v: not v.is_crystallographic and v.witness["order"] == 2 ** 6
                  and v.witness["normality_verified"] is True))

    session = [op for op in ops if op.kind in SESSION_ONCE]
    session += [op for op in ops if op.kind not in SESSION_ONCE] * SESSION_ROUNDS
    rng.shuffle(session)
    seen, warm = set(), []
    for op in session:
        if op.kind not in seen:
            seen.add(op.kind)
            warm.append(op)
    return session, warm


# --- cli_readme ---------------------------------------------------------------

_X = '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[0,0]]}'
_S = '{"n":2,"g":1,"perm":[2,1],"coeffs":[[0,0],[0,0]]}'
_T = '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[-1,0]]}'
README_COMMANDS = [
    ["normalize", "--surface", "torus", "--n", "2", "--genus", "1", "s1 a[1,1] s1"],
    ["mul", "--n", "2", _X, _S],
    ["pow", "--n", "2", _X, "2"],
    ["order", "--n", "2", _T],
    ["conjugacy", "--n", "2", _T, _S],
    ["bieberbach", "info", "--n", "3", "--genus", "1"],
    ["bieberbach", "holonomy", "--n", "3", "--genus", "1"],
    ["bieberbach", "membership", "--n", "2", "--genus", "1",
     "--x", '{"n":2,"g":1,"perm":[1,2],"coeffs":[[1,0],[1,0]]}'],
    ["bieberbach", "torsion-scan", "--n", "2", "--genus", "1", "--bound", "1"],
    ["invariants", "--n", "2", "--genus", "1"],
    ["frobenius", "embed", "--blocks", "[[1,2,3,4],[0,0,0,0]]"],
    ["frobenius", "torsion", "--p", "7"],
    ["verdict", "--surface", "sphere", "--n", "3"],
    ["verdict", "--surface", "nonorientable", "--n", "2", "--genus", "2"],
    ["selftest"],
]
# The two outputs the README prints, byte for byte.
README_STDOUT = {
    0: '{"n": 2, "g": 1, "perm": [1, 2], "coeffs": [[0, 0], [1, 0]]}\n',
    9: '{"char_poly": [1, 0, -2, 0, 1], "det": 1, "betti": [1, 2, 2, 2, 1], "anosov": true, '
       '"kahler": true, "orientable": true, "cyclotomic": {"1": 2, "2": 2}}\n',
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli_check(idx):
    def check(res):
        code, out = res
        return code == 0 and (idx not in README_STDOUT or out == README_STDOUT[idx])
    return check


def _cli_subprocess_op(idx, env):
    argv = [sys.executable, "-m", "surfbraid.cli", *README_COMMANDS[idx]]

    def call():
        res = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        return res.returncode, res.stdout
    return Op(f"cli.{README_COMMANDS[idx][0]}", call, _cli_check(idx))


def _cli_inprocess_op(idx, cli):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(README_COMMANDS[idx]))
        return code, buf.getvalue()
    return Op(f"cli.{README_COMMANDS[idx][0]}", call, _cli_check(idx))


def _cli_order(seed):
    order = list(range(len(README_COMMANDS)))
    random.Random(seed).shuffle(order)
    return order


def cli_readme(seed):
    env = child_env()
    ops = [_cli_subprocess_op(i, env) for i in _cli_order(seed)]
    # No warm-up call: every operation starts a cold interpreter by design,
    # and set-up has already compiled the bytecode the children load.
    return ops, []


def cli_inprocess(seed):
    """The README commands through ``cli.main`` in this process, for tracing."""
    cli = _modules()["cli"]
    return [_cli_inprocess_op(i, cli) for i in _cli_order(seed)]


WORKLOADS = {
    "lattice_scan": lattice_scan,
    "flat_invariants": flat_invariants,
    "word_session": word_session,
    "cli_readme": cli_readme,
}
# Fewest whole passes per run: enough that the tail sample (ten samples
# beyond it) lands well inside the slowest operation class of a pass.  For
# cli_readme that is selftest, once per pass: sixteen passes leave five
# selftest samples below the tail, so a slow run of another command does
# not take its place.
MIN_PASSES = {"lattice_scan": 6, "flat_invariants": 3, "word_session": 12, "cli_readme": 16}
# Leading operations of a workload's list that run in the first pass only.
OPENING = {"flat_invariants": 1}
