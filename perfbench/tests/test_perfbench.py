"""Tests of the benchmark itself: its generators, its tracer and its output.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import chains
import inputs
import run
import spans
import speed
from hadperm import completion, prelatin, submagic, torus
from hadperm.errors import NotCompletable

from conftest import BENCH

SMALL_COMMUTING = [((4,), (1,)), ((2, 2), (1, 1)), ((6,), (1,)), ((8,), (2,)),
                   ((2, 4), (1, 2)), ((3, 3), (1, 3))]
SMALL_NONCOMMUTING = [("F4a", 4, 1), ("F4a", 4, 2), ("bal", 4, 2), ("bal", 6, 1)]


def _grid_of(inst):
    return submagic.grid_from_hadamard(torus.parse_phm(inst.text))


@pytest.mark.parametrize("orders,step", SMALL_COMMUTING)
def test_commuting_generator_yields_what_it_claims(orders, step):
    inst = inputs.commuting_instance(orders, step, np.random.default_rng(5))
    expect = inst.expect
    grid = _grid_of(inst)
    report = submagic.check_grid(grid)
    assert (report.submagic, report.magic, report.commuting) == (True, expect["magic"], True)
    assert (grid.size, grid.dim) == (expect["rows"], expect["cols"])
    # the stated order agrees with an independent closure of the difference table
    gens = inputs.square_generators(expect["square"], expect["cols"])
    assert len(inputs.closure(gens)) == expect["order"]
    assert sum(c for _, c in expect["points"]) == expect["cols"]
    assert chains.check("grid", expect, chains.answer("grid", chains.run("grid", inst.text))) == []


@pytest.mark.parametrize("family,size,k", SMALL_NONCOMMUTING)
def test_noncommuting_generator_is_far_from_commuting(family, size, k):
    inst = inputs.noncommuting_instance(family, size, k, np.random.default_rng(7))
    report = submagic.check_grid(_grid_of(inst))
    assert report.submagic and report.magic == inst.expect["magic"]
    assert not report.commuting
    assert report.worst_violations["commutator"] > 1e-3


@pytest.mark.parametrize("n", [4, 5, 7])
def test_criteria_generator_labels(n):
    rng = np.random.default_rng(n)
    for positive in (True, False):
        inst = inputs.criteria_instance(n, positive, rng)
        h = torus.parse_phm(inst.text)
        assert completion.modulus_profile(h).constant is positive
        assert completion.gram_criterion(h) is positive
        if positive:
            full = inputs.parse_tokens(torus.format_phm(completion.complete_row(h)))
            assert np.allclose(full @ full.conj().T, n * np.eye(n))
        else:
            with pytest.raises(NotCompletable):
                completion.complete_row(h)


def test_semigroup_templates_have_their_orders():
    for alphabet, square, order in inputs._SQUARES:
        assert len(inputs.closure(inputs.square_generators(square, alphabet))) == order
        group = prelatin.semigroup_of(prelatin.PreLatinSquare(square, alphabet))
        assert len(group) == order
    for gens, order in inputs._GENERATOR_SETS:
        assert len(inputs.closure(gens)) == order
    for inst in inputs.semigroup_pool(3):
        if inst.kind in ("pls", "gens"):
            assert len(inputs.closure(inst.expect["generators"])) == inst.expect["order"]


def test_count_recurrence_matches_the_sum():
    for n in range(40):
        direct = sum(math.factorial(k) * math.comb(n, k) ** 2 for k in range(n + 1))
        assert inputs.count_partial_permutations(n) == direct


def test_closure_check_catches_a_missing_element():
    gens = inputs._GENERATOR_SETS[0][0]
    elements = sorted(inputs.closure(gens))
    assert chains._closure_problems(gens, elements) == []
    assert chains._closure_problems(gens, elements[1:]) != []


def test_pools_depend_on_the_seed_alone():
    for workload in inputs.POOLS:
        a, b = inputs.pool(workload, 9), inputs.pool(workload, 9)
        assert [(i.name, i.text) for i in a] == [(i.name, i.text) for i in b]
        c = inputs.pool(workload, 10)
        assert sorted(i.name for i in a) == sorted(i.name for i in c)
        assert [i.text for i in a] != [i.text for i in c]


def test_warm_up_op_has_the_same_shape_for_every_seed():
    for workload in inputs.POOLS:
        warm = [inputs.smallest(workload, seed) for seed in range(6)]
        assert len({inst.name for inst in warm}) == 1, workload
    assert inputs.smallest(inputs.GRID, 0).expect["cols"] == 4
    assert inputs.smallest(inputs.GRID, 0).expect["commuting"]
    assert inputs.smallest(inputs.CRITERIA, 0).name == "criteria:F4:pos"
    assert inputs.smallest(inputs.SEMIGROUP, 0).name == "semigroup:pls70"


def _stub(answer=lambda kind, raw: {}, check=lambda kind, expect, ans: [], fail=None):
    def op(kind, text):
        if fail:
            raise fail
        return {}
    return SimpleNamespace(run=op, answer=answer, check=check)


class _FixedMeter:
    """Scales nothing: every calibration reads ``REF_S``."""

    def __init__(self):
        self.scaled = 0

    def scale(self, times):
        self.scaled += 1
        return list(times)


def test_attempt_counts_every_exception_as_a_named_problem():
    inst = inputs.Instance("x", "count", "3", {"count": 34})
    side = run.Side(_FixedMeter())
    numpy_answer = _stub(answer=lambda kind, raw: {"flag": np.bool_(True), "v": np.arange(2)})
    key, problems = run.attempt(numpy_answer, inst, None, side)
    assert problems == [] and key == run.digest({"flag": True, "v": [0, 1]})
    assert run.attempt(numpy_answer, inst, "other", side)[1] == [
        "answer differs from the first pass"]
    key, problems = run.attempt(_stub(check=lambda *a: 1 / 0), inst, None, side)
    assert key is None and problems == [
        "checking the answer raised ZeroDivisionError: division by zero"]
    key, problems = run.attempt(_stub(fail=ValueError("bad")), inst, None, side)
    assert key is None and problems == ["ValueError: bad"]
    assert len(side.latencies) == 4 and side.busy_s == pytest.approx(sum(side.latencies))


def test_scaling_uses_the_calibrations_on_either_side():
    meter = speed.Meter()
    calibrations = iter([4 * speed.REF_S, 2 * speed.REF_S])
    meter.calibrate = lambda: next(calibrations)
    meter._last = 2 * speed.REF_S
    # the ops ran between calibrations of 2 and 4 REF_S: a core at a third of
    # the reference speed
    assert meter.scale([0.3, 0.6]) == pytest.approx([0.1, 0.2])
    # the next ops ran between 4 and 2 REF_S
    assert meter.scale([0.3]) == pytest.approx([0.1])
    assert meter.samples == [4 * speed.REF_S, 2 * speed.REF_S]


def test_side_calibrates_once_enough_op_time_is_pending():
    meter = _FixedMeter()
    side = run.Side(meter)
    for _ in range(4):
        side.record(speed.EVERY_S / 5)
    assert meter.scaled == 0 and side.scaled == []
    side.record(speed.EVERY_S / 5)
    assert meter.scaled == 1 and side.scaled == pytest.approx(side.latencies)
    side.record(0.001)
    side.settle()
    side.settle()
    assert meter.scaled == 2 and len(side.scaled) == len(side.latencies) == 6


def _sample():
    rng = np.random.default_rng(1)
    return [
        inputs.commuting_instance((2, 4), (1, 2), rng),
        inputs.commuting_instance((6,), (1,), rng),
        inputs.noncommuting_instance("F4a", 4, 2, rng),
        inputs.criteria_instance(6, True, rng),
        inputs.criteria_instance(6, False, rng),
        inputs.square_instance(*inputs._SQUARES[0], rng),
        inputs.generators_instance(*inputs._GENERATOR_SETS[0], rng),
        inputs.Instance("count", "count", "30", {}),
        inputs.Instance("enumerate", "enumerate", "4", {}),
    ]


def _bindings() -> dict:
    return {(key, attr): value for key, mod in sys.modules.items()
            if key == "hadperm" or key.startswith("hadperm.")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_change_no_result():
    sample = _sample()
    plain = [chains.answer(i.kind, chains.run(i.kind, i.text)) for i in sample]
    before = _bindings()
    from_complex = torus.TorusMatrix.__dict__["from_complex"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert completion.minor_det is torus.minor_det  # rebound where imported
        assert completion.minor_det is not before[("hadperm.torus", "minor_det")]
        traced = [chains.answer(i.kind, chains.run(i.kind, i.text)) for i in sample]
        torus.TorusMatrix.from_complex(np.ones((1, 2)))
    finally:
        tracer.uninstall()
    assert traced == plain
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert torus.TorusMatrix.__dict__["from_complex"] is from_complex
    calls = tracer.calls
    # three grid ops call check_grid directly; the nested calls that
    # classical_points makes in two ops and complete_commuting in one are seen
    assert calls["submagic.check_grid"] == 6
    assert calls["torus.minor_det"] == 4 * 6 + 2 * 6
    assert calls["pperm.compose"] > 0 and calls["pperm.enumerate_all"] == 1
    assert calls["torus.from_complex"] == 1
    for name, (value, _) in tracer.metrics(passes=1, ops=len(sample)).items():
        assert value >= 0, name
        if name.endswith(".self_s"):
            assert value <= tracer.time_s[name[: -len(".self_s")]] + 1e-12


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_declared(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in declared}
    assert all(m["better"] in ("higher", "lower") for m in declared)
    result = _run("criteria", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
