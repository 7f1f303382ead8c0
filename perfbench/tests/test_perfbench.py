"""Tests for the benchmark itself, at a tiny scale of each workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import child, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


def tiny(name, tmp_path):
    """Each workload at a size that runs in a second or two."""
    if name == "paper_eval":
        return workloads.PaperEval(placement_seeds=2, duration_s=4.0, levels=(0.3, 0.7))
    if name == "fleet_wide":
        return workloads.FleetWide(servers=8, duration_s=2.0, levels=(0.3, 0.7))
    return workloads.ResilientFleet(servers=8, duration_s=6.0, levels=(0.3, 0.6, 0.9),
                                    out_dir=str(tmp_path))


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_adds_up_on_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.root("run") as values:
        clock.now = 1.0
        tracer.enter("a")          # a: 1 .. 11
        clock.now = 3.0
        tracer.enter("b")          # b: 3 .. 6, holding d: 4 .. 5
        clock.now = 4.0
        tracer.enter("d")
        clock.now = 5.0
        tracer.leave("d")
        clock.now = 6.0
        tracer.leave("b")
        clock.now = 7.0
        tracer.enter("c")          # c: 7 .. 10
        clock.now = 10.0
        tracer.leave("c")
        clock.now = 11.0
        tracer.leave("a")
        clock.now = 12.0
        tracer.enter("b")          # b again, directly under the root: 12 .. 13
        clock.now = 13.0
        tracer.leave("b")
        clock.now = 15.0
    assert values == {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0,
                      spans.OTHER: 4.0, spans.TOTAL: 15.0}
    self_times = sum(v for k, v in values.items() if k != spans.TOTAL)
    assert self_times == values[spans.TOTAL]
    assert [e[1] for e in tracer.events] == ["d", "b", "c", "a", "b", "run"]


def test_unit_spans_keep_per_call_self_times():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    with tracer.root("run"):
        for outer, inner in ((3.0, 1.0), (2.0, 0.5)):
            tracer.enter("a")
            clock.now += outer - inner
            tracer.enter("b")
            clock.now += inner
            tracer.leave("b")
            tracer.leave("a")
    assert tracer.calls["run"] == {"a": [2.0, 1.5], "b": [1.0, 0.5]}


def test_run_ref_takes_each_piece_of_work_at_its_quickest():
    samples = [
        {"units": {"cell": [1.0, 5.0, 2.0], "save": [4.0]}, "other_s": 0.5, "ref_s": 1.0},
        {"units": {"cell": [6.0, 4.0, 5.0], "save": [6.0]}, "other_s": 0.5, "ref_s": 2.0},
    ]
    # The second sample ran at half the host speed: its times count halved.
    assert run.run_ref(samples) == 0.25 + (1.0 + 2.0 + 2.0) + 3.0


def test_wrappers_count_only_inside_roots():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def work(n):
        clock.now += n
        return n

    def fail():
        raise ValueError("boom")

    timed = spans.timed(tracer, "layer.s", "work", work,
                        after=lambda t, args, result: t.add("layer.calls", 1))
    failing = spans.timed(tracer, "layer.s", "fail", fail, on_error="layer.errors")
    assert timed(5) == 5                     # outside any root: not counted
    with tracer.root("run") as values:
        timed(2)
        timed(3)
        with pytest.raises(ValueError):
            failing()
    assert values["layer.s"] == 5.0
    assert values["layer.calls"] == 2
    assert values["layer.errors"] == 1
    assert values[spans.OTHER] + values["layer.s"] == values[spans.TOTAL]


def test_install_is_undone():
    from repro.hwmodel.meter import PowerMeter
    from repro.sim import cluster

    before = (PowerMeter.sample, cluster.plan_cluster_tasks, cluster._run_cell)
    patches = spans.install(spans.Tracer())
    assert cluster.plan_cluster_tasks is not before[1]
    spans.uninstall(patches)
    assert (PowerMeter.sample, cluster.plan_cluster_tasks, cluster._run_cell) == before


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(name, tmp_path):
    workload = tiny(name, tmp_path)
    plain = child.measure(workload, seed=3, trace=False)
    traced = child.measure(workload, seed=3, trace=True,
                           trace_file=str(tmp_path / "trace.json"))
    assert plain["failures"] == [] and plain["failed"] == 0
    assert traced["sim"] == plain["sim"]
    assert list(tmp_path.glob("*.ckpt")) == []

    e2e = run.summarize([plain], [], trace=False)
    assert e2e["result"]["correct"] is True
    assert e2e["result"]["metrics"] == {
        metric: {"value": e2e["result"]["metrics"][metric]["value"], "unit": unit}
        for metric, unit, _ in run.END_TO_END
    }
    assert all(m["value"] > 0 for m in e2e["result"]["metrics"].values())

    layers = run.summarize([plain], [traced], trace=True)
    metrics = layers["result"]["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        metric: unit for metric, unit, _ in run.PER_LAYER}
    accounted = sum(metrics[metric]["value"] for metric in run.SELF_TIMES)
    assert accounted == pytest.approx(metrics["trace.run_s"]["value"], rel=1e-9)

    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(events[0])
    assert any(e["name"] == "run" for e in events)


def test_layers_land_where_predicted(tmp_path):
    paper = child.measure(tiny("paper_eval", tmp_path), seed=1, trace=True)["layers"]
    assert paper["oracle.cells"] > 0 and paper.get("batched.lanes", 0) == 0
    fleet = child.measure(tiny("fleet_wide", tmp_path), seed=1, trace=True)["layers"]
    assert fleet["batched.lanes"] == 8 * 2 and fleet.get("oracle.cells", 0) == 0
    resilient = child.measure(tiny("resilient_fleet", tmp_path), seed=1,
                              trace=True)["layers"]
    assert resilient["budget.arbiter_ticks"] > 0
    assert resilient["runtime.checkpoint_writes"] > 0
    assert resilient["solvers.assign_calls"] == 2     # placement + crash re-placement
    assert resilient["guard.checks"] > 0


def test_planted_engine_mismatch_fails_the_check(tmp_path):
    workload = tiny("fleet_wide", tmp_path)
    inputs = workload.setup(2)
    output = workload.run(inputs)
    clean = child.evaluate(workload, inputs, output, spans.Tracer())
    assert clean["failed"] == 0 and clean["failures"] == []

    first = output.outcomes[0]
    drifted = dataclasses.replace(
        first.result, avg_power_w=first.result.avg_power_w + 1e-9)
    output.outcomes[0] = dataclasses.replace(first, result=drifted)
    planted = child.evaluate(workload, inputs, output, spans.Tracer())
    assert planted["failed"] == 1
    assert "differs on the object engine: avg_power_w" in planted["failures"][0]
    planted.update(setup_s=1.0, setup_ref_s=1.0, run_s=1.0, ref_s=1.0, units={},
                   other_s=1.0, peak_rss_mb=1.0)
    summary = run.summarize([planted], [], trace=False)
    assert summary["result"]["correct"] is False

    timings = dict(setup_s=1.0, setup_ref_s=0.5, run_s=1.0, ref_s=1.0, other_s=0.5,
                   peak_rss_mb=1.0)
    same = [dict(clean, units={"cell": [0.25, 0.25]}, **timings) for _ in range(2)]
    result = run.summarize(same, [], trace=False)["result"]
    assert result["correct"] is True
    assert result["metrics"]["setup_s"]["value"] == 2.0 * run.REF_HOST_S
    same[1]["units"] = {"cell": [0.25]}
    assert run.summarize(same, [], trace=False)["result"]["correct"] is False


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
