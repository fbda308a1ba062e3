"""Tests of the benchmark itself: the reference model against hand-worked
README examples, the tail percentile rule, fault injection into the output
checks, and determinism of the traced counts.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ID2 = (1, 2)
ZERO = ((0, 0), (0, 0))
M1 = (0, 0)            # orientable n=2, g=1: two free columns
X = ((2, 1), ((1, 0), (0, 0)))
S = ((2, 1), ZERO)
T = ((2, 1), ((1, 0), (-1, 0)))


@pytest.fixture(scope="module", autouse=True)
def package():
    return run.import_package()


# --- reference model against the README -----------------------------------

def test_normalize_readme_word():
    # s1 a[1,1] s1: the a[1,1] letter lands on strand t1(1) = 2.
    letters = [("s", 1, 0, 1), ("a", 1, 1, 1), ("s", 1, 0, 1)]
    assert oracle.normalize(letters, 2, M1, oracle.orientable_letter(2)) == (ID2, ((0, 0), (1, 0)))


def test_mul_pow_order_readme_elements():
    assert oracle.mul(X, S, M1) == (ID2, ((1, 0), (0, 0)))
    assert oracle.power(X, 2, M1) == (ID2, ((1, 0), (1, 0)))
    assert oracle.power(X, -2, M1) == oracle.inverse(oracle.power(X, 2, M1), M1)
    assert oracle.order(T) == 2
    assert oracle.order(X) is None


def test_conjugacy_witness_readme():
    # surfbraid conjugacy T S prints the witness a[2,1].
    witness = (ID2, ((0, 0), (1, 0)))
    assert oracle.conjugate(T, witness, M1) == S
    assert oracle.conjugate(T, oracle.identity(2, M1), M1) != S


def test_nonorientable_letters():
    # genus 2: a[1,2] is torsion bit 1 with free part -1; squared it is (0, -2).
    vec = oracle.nonorientable_letter(2)
    mods = (2, 0)
    assert oracle.normalize([("a", 1, 2, 1)], 2, mods, vec) == (ID2, ((1, -1), (0, 0)))
    assert oracle.normalize([("a", 1, 2, 2)], 2, mods, vec) == (ID2, ((0, -2), (0, 0)))
    x = ((2, 1), ((1, 3), (0, -1)))
    assert oracle.mul(x, oracle.inverse(x, mods), mods) == oracle.identity(2, mods)


def test_invariants_closed_form_readme():
    readme = {"char_poly": [1, 0, -2, 0, 1], "det": 1, "betti": [1, 2, 2, 2, 1],
              "anosov": True, "kahler": True, "orientable": True, "cyclotomic": {"1": 2, "2": 2}}
    assert oracle.flat_invariants_ok(readme, 2, 1)
    assert not oracle.flat_invariants_ok(dict(readme, betti=[1, 2, 3, 2, 1]), 2, 1)
    assert not oracle.flat_invariants_ok(dict(readme, det=-1), 2, 1)


def test_scan_size_and_relation_count():
    assert oracle.scan_size(2, 1, 1) == 162           # README torsion-scan output
    # n=2, two handles: s1^2, 16 commutators, 4 relabellings, T, A, twist, empty.
    assert oracle.relation_count(2, 2) == 25
    words = sys.modules["surfbraid.words"]
    core = sys.modules["surfbraid.core"]
    for n, g in [(2, 1), (3, 1), (4, 2)]:
        report = words.check_relations(core.GroupDescriptor.orientable(n, g))
        assert report.checked == oracle.relation_count(n, 2 * g)


# --- percentile rule -------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    value, pct, count = run.tail(list(range(100, 0, -1)))
    assert (value, pct, count) == (90, 90.0, 100)
    assert run.tail(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


# --- calibration -----------------------------------------------------------

def test_scaled_uses_the_samples_around_each_latency():
    tl = run.Timeline(every=0)
    tl.cal = [2e-3]                   # host at half the reference speed ...
    tl.add(0.5)
    tl.cal[-1] = 1e-3                 # ... then back at reference speed
    tl.add(0.3)
    tl.cal[-1] = 1e-3
    assert tl.before == [0, 1]
    assert tl.scaled() == pytest.approx([0.5 / 1.5, 0.3])


def test_scaled_adds_the_closing_sample():
    tl = run.Timeline(every=3600)
    tl.add(0.1)
    tl.add(0.2)
    assert len(tl.cal) == 1
    assert len(tl.scaled()) == 2 and len(tl.cal) == 2


def test_opening_operations_run_in_the_first_pass_only():
    calls = []
    ops = [workloads.Op(kind, lambda kind=kind: calls.append(kind), lambda _: True) for kind in "abc"]
    timeline, failed, passes = run.run_passes(ops, 0, 3, opening=1)
    assert (failed, passes, len(timeline.lat)) == (0, 3, 7)
    assert calls == ["a", "b", "c", "b", "c", "b", "c"]


# --- fault injection -------------------------------------------------------

def _fail_ratio(ops):
    timeline, failed, _ = run.run_passes(ops, 0, 1)
    return failed / len(timeline.lat)


def test_correct_outputs_pass():
    ops, _ = workloads.word_session(7)
    assert _fail_ratio(ops) == 0


def test_wrong_inverse_raises_fail_ratio(monkeypatch):
    ops, _ = workloads.word_session(7)
    core = sys.modules["surfbraid.core"]
    monkeypatch.setattr(core.Element, "inverse", lambda self: self)
    assert _fail_ratio([op for op in ops if op.kind == "inverse"]) == 1


def test_wrong_invariants_raise_fail_ratio(monkeypatch):
    invariants = sys.modules["surfbraid.invariants"]
    real = invariants.invariant_report
    monkeypatch.setattr(invariants, "invariant_report",
                        lambda rep: dict(real(rep), det=-1 if rep.dimension == 4 else 1))
    ops, _ = workloads.flat_invariants(3)
    small = [op for op in ops if op.kind in ("invariants2.1", "invariants3.1")]
    assert 0 < _fail_ratio(small) < 1


def test_raising_operation_counts_as_failed(monkeypatch):
    bieberbach = sys.modules["surfbraid.bieberbach"]
    monkeypatch.setattr(bieberbach.BieberbachDescriptor, "torsion_scan",
                        lambda self, bound: 1 / 0)
    ops, _ = workloads.lattice_scan(1)
    assert _fail_ratio(ops[:3]) == 1


def test_missing_sources_exit_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", Path(__file__).resolve().parent / "no-such-src")
    code = run.main(["--workload", "lattice_scan", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out


# --- tracing ---------------------------------------------------------------

def _traced_counts(ops):
    tr = tracing.Tracer()
    tr.install(run.OBSERVERS)
    try:
        failed = run.timed_pass(ops, run.Timeline(), tr)
    finally:
        tr.uninstall()
    assert failed == 0
    metrics, _ = run.layer_metrics(tr)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def _small(workload, seed):
    if workload == "cli_readme":
        return workloads.cli_inprocess(seed)
    ops, _ = workloads.WORKLOADS[workload](seed)
    ops = list({id(op): op for op in ops}.values())
    heavy = {"scan2.1.3", "scan2.1.4", "scan2.2.1", "invariants8.2", "invariants4.4", "invariants8.4"}
    return [op for op in ops if op.kind not in heavy]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload):
    # As in the benchmark, an untraced pass first fills the package's caches.
    run.timed_pass(_small(workload, 11), run.Timeline())
    first = _traced_counts(_small(workload, 11))
    assert first == _traced_counts(_small(workload, 11))
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_operation_count(workload):
    build = workloads.WORKLOADS[workload]
    a, b = build(1)[0], build(2)[0]
    assert len(a) == len(b)
    assert sorted(op.kind for op in a) == sorted(op.kind for op in b)
    assert [op.kind for op in a] != [op.kind for op in b]


def test_tracer_catches_names_bound_by_from_import():
    tr = tracing.Tracer()
    tr.install()
    try:
        bieberbach = sys.modules["surfbraid.bieberbach"]
        bieberbach.make_bieberbach(2, 1).torsion_scan(0)
    finally:
        tr.uninstall()
    by_name = tr.summary()["by_name"]
    assert by_name["torsion.order"]["calls"] == 2          # bieberbach.order is torsion.order
    assert by_name["bieberbach.BieberbachDescriptor.torsion_scan"]["calls"] == 1
    assert not hasattr(bieberbach.order, "__wrapped__")    # uninstall restored the originals


def test_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.install()
    try:
        invariants = sys.modules["surfbraid.invariants"]
        bieberbach = sys.modules["surfbraid.bieberbach"]
        desc = bieberbach.make_bieberbach(3, 1)
        invariants.invariant_report(invariants.CyclicRep(desc.holonomy_matrix(), 3))
    finally:
        tr.uninstall()
    layers = tr.summary()["layers"]
    wall = sum(tr.end[i] - tr.start[i] for i in range(len(tr)) if tr.parent[i] == tracing.NO_PARENT)
    assert sum(rec["self_s"] for rec in layers.values()) == pytest.approx(wall)
    assert layers["intmatrix"]["calls"] > 0 and layers["words"]["calls"] == 0
