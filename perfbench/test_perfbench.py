"""Self-checks of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root; the tests that call the program import it
from ``src/``.
"""

import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def gcladder():
    return worker.import_program()


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


# -- percentiles and tail selection ------------------------------------------

def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.median([3.0]) == 3.0
    assert stats.percentile(list(range(101)), 95) == pytest.approx(95.0)


@pytest.mark.parametrize(
    "count, pct",
    [(10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
     (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0),
     (3, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, pct):
    assert stats.tail_percentile(count) == pct
    if pct != 50.0:
        assert count * (100 - pct) / 100 >= stats.MIN_BEYOND - 1e-9


def test_trimmed_mean_drops_a_quarter_at_each_end():
    assert stats.trimmed_mean([3.0]) == 3.0
    assert stats.trimmed_mean([1.0, 2.0, 9.0]) == 4.0
    assert stats.trimmed_mean([1.0, 2.0, 3.0, 100.0]) == 2.5
    assert stats.trimmed_mean([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 50.0]) == 4.5


def test_tail_value():
    values = [float(i) for i in range(200)]
    assert stats.tail(values) == (95.0, pytest.approx(189.05))


# -- self time on nested spans -------------------------------------------------

def span(layer, start, end, parent, op=0):
    return [layer, start, end, parent, op]


def test_self_time_subtracts_children():
    spans = [
        span("bench.op", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 2.0, 3.0, 1),
        span("a", 5.0, 9.0, 0),
        span("a", 6.0, 7.0, 3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert sum(selfs) == pytest.approx(10.0)
    self_s, entries = tracing.reduce_spans(spans)
    assert self_s == pytest.approx({"bench.op": 3.0, "a": 6.0, "b": 1.0})
    # the nested "a" span is not a new entry into layer "a"
    assert entries == {"bench.op": 1, "a": 2, "b": 1}


def test_self_time_clips_children_and_overlaps():
    spans = [
        span("p", 0.0, 4.0, -1),
        span("c", 3.0, 6.0, 0),  # runs past its parent
        span("c", 3.5, 4.0, 0),  # overlaps its sibling
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)
    assert all(s >= 0 for s in tracing.self_times(spans))


# -- seeded inputs ------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, expected):
    def inputs(seed):
        rounds = islice(workloads.make_rounds(name, seed, expected), 3)
        return [[(op.kind, op.arg, op.units) for op in r] for r in rounds]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_rounds_do_equal_work_on_known_inputs(name, expected):
    rounds = list(islice(workloads.make_rounds(name, 3, expected), 3))
    assert len({len(r) for r in rounds}) == 1
    assert len({sum(op.units for op in r) for r in rounds}) == 1
    for ops in rounds:
        for op in ops:
            if op.kind != "cli":
                assert op.arg in expected.fvectors


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_runs_the_same_operations(name, expected):
    rounds = list(islice(workloads.make_rounds(name, 3, expected), 3))
    first = sorted((op.id, op.kind, op.arg) for op in rounds[0])
    assert [op.id for op in rounds[0]] != [op.id for op in rounds[1]]
    for ops in rounds[1:]:
        assert sorted((op.id, op.kind, op.arg) for op in ops) == first
    other = next(workloads.make_rounds(name, 3, expected, process=1))
    assert sorted((op.id, op.kind, op.arg) for op in other) == first


def test_sweep_goes_by_increasing_n(expected):
    for ops in islice(workloads.make_rounds("fvector-sweep", 3, expected), 3):
        sizes = [sum(op.arg) for op in ops]
        assert sizes == sorted(sizes)


def test_spectrum_has_the_composition_as_blocks():
    import random

    text = workloads.random_spectrum(random.Random(1), (2, 1, 3))
    values = text.split(",")
    assert len(values) == 6
    assert values[0] == values[1] != values[2] != values[3] == values[4] == values[5]


# -- timings scaled to the host speed ------------------------------------------

def test_speedometer_brackets_an_execution():
    speed = hostspeed.Speedometer()
    speed.samples = [(0.0, 1.0), (1.5, 2.0), (2.0, 9.0), (3.0, 3.0), (10.0, 5.0)]
    # the last sample before 2.5 and the first after 2.6
    assert speed.around(2.5, 2.6) == 6.0
    # a long execution: the samples at its two ends
    assert speed.around(0.0, 10.0) == 3.0
    # no sample after the execution: the one before it alone
    assert speed.around(11.0, 12.0) == 5.0
    assert speed.around(-2.0, -1.0) == 1.0


def test_op_times_scale_and_drop_failed_operations():
    ref = hostspeed.REFERENCE_S
    records = [
        [0, 1.0, 5, True, ref], [0, 4.0, 5, True, 2 * ref], [0, 9.0, 5, True, ref],
        [1, 1.0, 2, True, ref], [1, 1.0, 2, False, ref],
    ]
    assert run.op_times(records, True, stats.median) == {0: (2.0, 5)}
    assert run.op_times(records, True, max) == {0: (9.0, 5)}
    assert run.op_times(records, False, min) == {0: (1.0, 5)}


@pytest.mark.parametrize("last_s, count", [(0.0, 4), (0.001, 4), (0.006, 3), (0.01, 2),
                                           (0.015, 1), (0.02, 1), (3.0, 1)])
def test_short_cold_operations_repeat(last_s, count):
    assert workloads.repeats(last_s) == count


def test_last_round_keeps_the_operations_that_fit():
    ops = [workloads.Op(i, "fvector", (1,), 1) for i in range(4)]
    last = {0: 1.0, 1: 5.0, 2: 2.0, 3: 1.0}
    assert [op.id for op in worker.fitting(ops, last, 4.5, True)] == [0, 2, 3]
    assert [op.id for op in worker.fitting(ops, last, 4.5, False)] == [0]
    assert worker.fitting(ops, last, 0.5, True) == []


def test_untraced_runs_one_whole_round_at_least(gcladder, expected):
    runner = worker.Runner(gcladder, expected)
    rounds = workloads.make_rounds("fvector-cold", 1, expected)
    one = worker.untraced(runner, rounds, True, budget_s=0.0)
    assert one["rounds"] == 1
    assert len(one["ops"]) == len(next(rounds))
    assert all(ok and ref > 0 for _, _, _, ok, ref in one["ops"])


def test_reference_task_calls_nothing_in_the_program():
    modules = [getattr(v, "__module__", None) or getattr(v, "__name__", "")
               for v in vars(hostspeed).values()]
    assert not any(str(m).startswith("gcladder") for m in modules)
    assert not any("gcladder" in name for name in hostspeed.reference_task.__code__.co_names)
    _, seconds = hostspeed.measure()
    assert seconds > 0


# -- correctness gate ---------------------------------------------------------

def test_wrong_expected_value_is_a_failure_not_a_time(gcladder, expected):
    comp = (1, 2, 1)
    wrong = dict(expected.fvectors)
    wrong[comp] = wrong[comp][:-1] + (2,)
    bad = workloads.Expected(wrong, expected.edges, expected.cli_stdout)
    runner = worker.Runner(gcladder, bad)
    ops = [workloads.Op(0, "fvector", comp, 1), workloads.Op(1, "fvector", (2, 1), 1)]
    result = worker.untraced(runner, [ops], cold_per_op=True, budget_s=0.0)
    assert [op[3] for op in result["ops"]] == [False, True]
    assert "f-vector" in runner.errors[0]
    result.update(peak_rss_mb=1.0)
    attempted, failed, metrics, _ = run.end_to_end("fvector-cold", [(0.1, 0.01)], [result])
    assert (attempted, failed) == (2, 1)
    _, seconds, _, _, reference_s = result["ops"][1]
    assert metrics["op_p50_s"][0] == pytest.approx(seconds * hostspeed.REFERENCE_S / reference_s)


def test_checks_accept_the_program_output(gcladder, expected):
    runner = worker.Runner(gcladder, expected)
    ops = [
        workloads.Op(0, "brute", (1, 2), 1),
        workloads.Op(1, "enumerate", (2, 1, 1), 1),
        workloads.Op(2, "cli", workloads.VERIFY_PDE, 1),
        workloads.Op(3, "cli", ("verify", "iso", "--lambda", "5,5,3/2", "--format", "json"), 1),
    ]
    assert [ok for _, ok in runner.run_unit(ops, cold_per_op=True)] == [True] * 4
    assert runner.errors == []


def test_cli_mismatch_is_a_failure(gcladder, expected):
    runner = worker.Runner(gcladder, expected)
    op = workloads.Op(0, "cli", ("verify", "iso", "--lambda", "3,2", "--format", "json"), 1)
    output = runner.execute(op)
    assert workloads.check(op, output, expected) is None
    code, stdout = output
    assert workloads.check(op, (code, stdout.replace('"pass":true', '"pass":false')),
                           expected) is not None
    assert workloads.check(op, (1, stdout), expected) == "exit status 1"


def test_clear_caches_empties_the_memo(gcladder):
    gcladder.f_vector((2, 1, 2))
    memo = sys.modules["gcladder.genfunc"]._f_polynomial_reduced
    assert memo.cache_info().currsize > 0
    worker.clear_caches()
    assert memo.cache_info().currsize == 0


# -- traced run ---------------------------------------------------------------

def test_tracer_wraps_every_namespace_and_restores(gcladder):
    polytope = sys.modules["gcladder.polytope"]
    ladder = sys.modules["gcladder.ladder"]
    originals = (gcladder.enumerate_faces, polytope.enumerate_faces, ladder.enumerate_faces)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert polytope.enumerate_faces is not originals[1]
        assert gcladder.enumerate_faces is polytope.enumerate_faces
        tracer.begin_op(5)
        gcladder.enumerate_faces(gcladder.build_diagram((1, 1)))
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (gcladder.enumerate_faces, polytope.enumerate_faces,
            ladder.enumerate_faces) == originals
    layers = [s[0] for s in tracer.spans]
    assert layers == ["bench.op", "ladder.diagram", "ladder.enumerate"]
    assert all(s[4] == 5 for s in tracer.spans)
    assert tracer.spans[2][3] == 0
    assert tracer.value("ladder.enumerate.faces") == sum(gcladder.f_vector((1, 1)))


def test_traced_run_reports_layers(gcladder, expected, tmp_path):
    runner = worker.Runner(gcladder, expected)
    ops = [
        workloads.Op(0, "fvector", (2, 1, 2), 1),
        workloads.Op(1, "cli", ("verify", "iso", "--lambda", "4,3,3", "--format", "json"), 1),
    ]
    result = worker.traced(runner, [ops], True, 60, tmp_path / "t.json")
    layer = result["per_layer"]
    assert layer["genfunc.fpoly.calls"] >= 1
    assert layer["genfunc.memo.misses"] > 0
    assert layer["polytope.vertices.subsystems"] > 0
    assert layer["polytope.maps.calls"] > 0
    assert all(v >= 0 for k, v in layer.items() if k.endswith("self_s"))
    assert all(ok for *_, ok in result["ops"])
    assert (tmp_path / "t.json").exists()


def test_benchmark_json_names_every_reported_metric(gcladder, expected, tmp_path):
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runner = worker.Runner(gcladder, expected)
    ops = [workloads.Op(0, "fvector", (1, 2), 1)]
    layer = worker.traced(runner, [ops], True, 1, tmp_path / "t.json")["per_layer"]
    assert set(layer) == set(declared)
    assert {name: tracing.unit_of(name) for name in layer} == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "throughput", "op_p50_s", "op_tail_s", "peak_rss_mb"}
