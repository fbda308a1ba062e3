import ast
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "surfbraid"


def test_library_has_no_assert_statements():
    # python -O strips assert statements; every internal check must use
    # surfbraid.errors.check so that it still runs there.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_hot_modules_build_no_tuple_from_a_generator():
    # tuple() of a generator is resized after allocation; in a long run the
    # resizes fill CPython's per-size tuple free lists and peak memory grows
    # with throughput.  The hot layers build tuples from lists instead.
    found = []
    for name in ("core", "permutations", "words", "torsion", "bieberbach", "intmatrix", "intpoly", "invariants"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"
                    and len(node.args) == 1 and isinstance(node.args[0], ast.GeneratorExp)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"tuple(<generator>) in a hot module: {found}"


def test_trusted_constructors_store_through_slot_setters():
    # The unchecked constructors run once per result of arithmetic.
    # object.__setattr__ looks the slot up by name on every call, so they
    # store through the slot descriptors' setters, bound once at module
    # level (see errors.Frozen).
    checked, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or not (
                        fn.name == "_trusted" or (cls.name, fn.name) == ("CoeffVector", "__init__")):
                    continue
                checked.append(f"{cls.name}.{fn.name}")
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                            and isinstance(node.value, ast.Name) and node.value.id == "object"):
                        found.append(f"{path.name}:{node.lineno} in {cls.name}.{fn.name}")
    assert sorted(checked) == ["BraidWord._trusted", "CoeffVector.__init__", "Element._trusted",
                               "IntMatrix._trusted", "Permutation._trusted"]
    assert not found, f"object.__setattr__ in an unchecked constructor: {found}"


def test_every_library_function_is_used_by_the_library():
    # A def that only tests call is a second construction path kept for
    # them; it belongs in tests/helpers.py.  Each non-dunder def name must
    # occur in src/surfbraid/ more often than it is defined (an __all__
    # entry counts).
    texts = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    defined: dict[str, int] = {}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] = defined.get(node.name, 0) + 1
    library = "\n".join(texts)
    unused = sorted(name for name, count in defined.items()
                    if len(re.findall(rf"\b{name}\b", library)) <= count)
    assert not unused, f"library functions that nothing in the library uses: {unused}"


# Runs cli.main in one fresh process under sys.setprofile, so the calls that
# importing the package makes (Frozen.__init_subclass__) are seen too, and
# prints the exit codes and the (file, first line) of every code object
# that was called.
REACH_PROBE = """
import contextlib, io, json, sys
argvs = json.loads(sys.argv[1])
called = set()

def note(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(note)
from surfbraid.cli import main  # `from surfbraid import cli` would ask surfbraid.__getattr__ first
codes = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
print(json.dumps([codes, sorted({(code.co_filename, code.co_firstlineno) for code in called})]))
"""
_KLEIN = ["--surface", "nonorientable", "--n", "2", "--genus", "2"]
_MIXED = '{"n":2,"g":2,"perm":[2,1],"torsion_bits":[1,0],"coeffs":[[3],[-3]]}'
# The actions that no README command runs, one usage error (exit 1) and one
# word syntax error (exit 2), so that _Parser.error and WordSyntaxError run.
REACH_EXTRA = [
    (["inv", "--n", "2", '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[0,0]]}'], 0),
    (["bieberbach", "centre", "--n", "2", "--genus", "1"], 0),
    (["frobenius", "conjugator"], 0),
    (["frobenius", "conjugator", "--blocks", "[[1,0,0,0],[0,0,0,0]]"], 0),
    (["subgroup-conjugator", "--n", "2", "--images", '[{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[-1,0]]}]'], 0),
    (["verdict", "--surface", "orientable", "--n", "3", "--genus", "2"], 0),
    (["normalize", *_KLEIN, "a[1,2] s1"], 0),
    (["mul", *_KLEIN, _MIXED, _MIXED], 0),
    (["no-such-command"], 1),
    (["normalize", "--n", "2", "a[1"], 2),
    (["normalize", "--n", "2", "a[1,3]"], 2),
]
# The defs that no command runs, each with the reason it stays.
UNREACHED_ALLOWED = {
    "__init__.__getattr__": "PEP 562 namespace: resolves `surfbraid.Name`, which the CLI never reads",
    "__init__.__dir__": "PEP 562 namespace: dir(surfbraid)",
    "errors.Frozen.__repr__": "value-class protocol: repr of every value class",
    "errors.Frozen.__hash__": "value-class protocol: values as dict keys and set members",
    "errors.Frozen.__setattr__": "value-class protocol: refuses assignment",
    "errors.Frozen.__delattr__": "value-class protocol: refuses deletion",
    "errors.Frozen.__getstate__": "value-class protocol: pickling and copying",
    "errors.Frozen.__setstate__": "value-class protocol: unpickling",
    "permutations.Permutation.__str__": "str() of a permutation, in cycle notation",
    "words.BraidWord.__str__": "str() of a parsed word, its text",
    "core.CoeffVector.__add__": "the public pair of the `-` that membership and conjugacy run",
    "nonorientable.normalize_word": "public non-orientable word normalizer, timed by the benchmark's word_session",
}


def library_defs():
    """Each def of the library as ((file, first line of its code object),
    dotted name).  A decorated def's code starts at its first decorator."""
    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                yield (str(path), line), prefix + child.name
                yield from walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, path, f"{prefix}{child.name}.")
            else:
                yield from walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text(), filename=str(path)), path, f"{path.stem}.")


def test_every_library_def_runs_under_some_command():
    # The library holds what its commands run: every README command, plain
    # and with --format text, and the actions and errors of REACH_EXTRA
    # together call every def but the listed ones.  A def that only tests
    # call is a second construction path kept for them and is deleted, not
    # allowed here.
    commands = [shlex.split(entry["command"], comments=True)[1:]
                for entry in json.loads(README_GOLDEN.read_text())]
    runs = [(argv, 0) for argv in commands]
    runs += [(argv + ["--format", "text"], 0) for argv in commands if argv != ["selftest"]]
    runs += REACH_EXTRA
    res = subprocess.run([sys.executable, "-c", REACH_PROBE, json.dumps([argv for argv, _ in runs])],
                         capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)), text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    codes, called = json.loads(res.stdout)
    assert codes == [code for _, code in runs]
    called = {(str(Path(path).resolve()), line) for path, line in called}
    unreached = {name for key, name in library_defs() if key not in called}
    never_run = sorted(unreached - set(UNREACHED_ALLOWED))
    assert not never_run, f"defs that no command runs: {never_run}"
    stale = sorted(set(UNREACHED_ALLOWED) - unreached)
    assert not stale, f"allowed as unreached, but run or gone: {stale}"


def test_only_frozen_defines_equality_and_hash():
    # Value equality is the rule every verdict reads, so it is written once:
    # errors.Frozen derives it from each class's _fields.  So is the checked
    # constructor of every value class; CoeffVector keeps its own __init__,
    # the unchecked row store that every product runs.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef) or (path.name, node.name) == ("errors.py", "Frozen"):
                continue
            owned = ("__eq__", "__hash__")
            if node.name != "CoeffVector" and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "Frozen" for base in node.bases):
                owned += ("__init__",)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{node.name}.{name}" for name in names if name in owned]
    assert not found, f"__eq__ or __hash__ outside Frozen, or __init__ in a value class but CoeffVector: {found}"


def test_element_is_the_only_element_class():
    # One element class serves every surface: no library class subclasses
    # Element, and only core knows the non-orientable JSON layout.
    subclasses, layouts = [], []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "Element" for base in node.bases):
                subclasses.append(f"{path.name}:{node.name}")
        if "torsion_bits" in text and path.name != "core.py":
            layouts.append(path.name)
    assert not subclasses, f"subclasses of Element: {subclasses}"
    assert not layouts, f"modules other than core.py naming torsion_bits: {layouts}"


README = SRC.parent.parent / "README.md"
README_GOLDEN = Path(__file__).resolve().parent / "data" / "readme_outputs.json"


def readme_commands() -> list[str]:
    """Every `surfbraid ...` command of README.md's sh blocks, with
    backslash continuations joined; comments are left for shlex to strip."""
    commands, in_block, pending = [], False, ""
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block and line.strip() == "```sh"
            continue
        if not in_block or not (pending or line.startswith("surfbraid ")):
            continue
        pending += line.rstrip()
        if pending.endswith("\\"):
            pending = pending[:-1] + " "
            continue
        commands.append(pending)
        pending = ""
    return commands


def test_readme_commands_print_their_recorded_output(capsys):
    # The golden file holds the recorded stdout of each README command,
    # plain and with --format text (selftest has no --format), and its
    # stderr, so README examples stay byte-identical in both renderings; a
    # deliberate change to one of them updates its entry in the same commit.
    from surfbraid.cli import main

    golden = json.loads(README_GOLDEN.read_text())
    commands = readme_commands()
    assert commands == [entry["command"] for entry in golden]
    for entry in golden:
        argv = shlex.split(entry["command"], comments=True)[1:]
        runs = [(argv, entry["stdout"])]
        if argv != ["selftest"]:
            runs.append((argv + ["--format", "text"], entry["text_stdout"]))
        for args, stdout in runs:
            code = main(args)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (0, stdout, entry["stderr"]), shlex.join(args)


def test_readme_names_resolve_in_the_package():
    # Every backticked `module.name` or `Class.name` that README.md gives for
    # a surfbraid module or exported class must exist, so the README cannot
    # name a deleted function.
    import surfbraid

    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    classes = {name for name in surfbraid.__all__ if isinstance(getattr(surfbraid, name), type)}
    prose = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.S | re.M)
    named, missing = [], []
    for span in re.findall(r"`([^`]+)`", prose):
        for owner, attr in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span):
            if owner in modules:
                target = importlib.import_module(f"surfbraid.{owner}")
            elif owner in classes:
                target = getattr(surfbraid, owner)
            elif owner == "surfbraid":
                target = surfbraid
            else:
                continue
            named.append(f"{owner}.{attr}")
            if not hasattr(target, attr):
                missing.append(f"{owner}.{attr}")
    assert "torsion.cycle_sums" in named and "Element.bits" in named
    assert {"BieberbachDescriptor._strand_tables", "torsion.zero_sum_rows", "torsion.order",
            "invariants.CyclicRep"} <= set(named)
    assert not missing, f"README names that the package does not define: {missing}"


# The surfbraid.* modules a fresh process has run after `import surfbraid`
# (argv None) or after cli.main(argv): each command runs what it uses.  A
# module the package registered but nothing has read yet is still of
# LazyLoader's module subclass; a run module is a plain ModuleType.  No
# entry point loads dataclasses or inspect (with the ast, dis and tokenize
# that inspect imports): the value classes are plain classes.  Nor does any
# load sympy, which only tests use, as an oracle.
FOOTPRINT_PROBE = """
import contextlib, io, json, sys, types
argv = json.loads(sys.argv[1])
if argv is None:
    import surfbraid
    code = 0
else:
    from surfbraid import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
mods = {m: mod for m, mod in sys.modules.items() if m.startswith("surfbraid.")}
print(json.dumps([code, sorted(mods), sorted(m for m, mod in mods.items() if type(mod) is types.ModuleType),
                  sorted(m for m in ("dataclasses", "inspect", "sympy") if m in sys.modules)]))
"""
# The submodules that define public names: always in sys.modules.
_PUBLIC = {"bieberbach", "core", "errors", "intmatrix", "invariants", "nonorientable", "permutations",
           "torsion", "words"}
_X = '{"n":2,"g":1,"perm":[2,1],"coeffs":[[1,0],[0,0]]}'
_ELEMENT = {"cli", "core", "errors", "permutations"}
_BIEBERBACH = _ELEMENT | {"bieberbach", "intmatrix"}  # only the scan reads torsion, its kernel
FOOTPRINTS = [
    (None, set()),
    (["mul", "--n", "2", _X, _X], _ELEMENT),
    (["order", "--n", "2", _X], _ELEMENT | {"torsion"}),
    (["normalize", "--n", "2", "s1 a[1,1] s1"], _ELEMENT | {"words"}),
    (["verdict", "--surface", "nonorientable", "--n", "2", "--genus", "2"],
     _ELEMENT | {"words", "nonorientable"}),
    (["bieberbach", "info", "--n", "3", "--genus", "1"], _BIEBERBACH),
    (["invariants", "--n", "2", "--genus", "1"], _BIEBERBACH | {"intpoly", "invariants"}),
    (["selftest"], _PUBLIC | {"cli", "intpoly", "selftest"}),
]


@pytest.mark.parametrize("argv, expected", FOOTPRINTS,
                         ids=[argv[0] if argv else "import" for argv, _ in FOOTPRINTS])
def test_each_entry_point_loads_only_the_modules_it_runs(argv, expected):
    res = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(argv)], capture_output=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC.parent)), text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    code, present, ran, heavy = json.loads(res.stdout)
    assert code == 0 and set(ran) == {f"surfbraid.{name}" for name in expected}
    assert set(present) == {f"surfbraid.{name}" for name in expected | _PUBLIC}
    assert heavy == [], f"{heavy} loaded"


def test_package_names_resolve_on_first_use():
    import surfbraid

    for name in surfbraid.__all__:
        if name == "__version__":
            continue
        value = getattr(surfbraid, name)
        module = value.__module__
        assert module.startswith("surfbraid.") and getattr(sys.modules[module], name) is value, name
    assert set(surfbraid.__all__) <= set(dir(surfbraid))
    namespace = {}
    exec("from surfbraid import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(surfbraid.__all__)
    with pytest.raises(AttributeError, match="^module 'surfbraid' has no attribute 'no_such_name'$"):
        surfbraid.no_such_name
