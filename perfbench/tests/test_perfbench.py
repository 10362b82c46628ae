"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import gc
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import measure
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")


# -- tail percentile -----------------------------------------------------


def test_tail_picks_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert measure.tail(values) == (90.0, 90, 10)


def test_tail_falls_back_to_lower_percentiles_for_small_samples():
    assert measure.tail(list(range(1, 21))) == (50.0, 10, 10)
    assert measure.tail(list(range(1, 41))) == (75.0, 30, 10)


def test_tail_is_none_without_ten_samples_beyond_the_median():
    assert measure.tail(list(range(1, 20))) is None


def test_tail_counts_only_samples_strictly_beyond():
    # Ties at the percentile value are not beyond it.
    values = [1.0] * 30 + [2.0] * 5
    assert measure.tail(values) is None


# -- self time from nested spans -----------------------------------------


def test_self_time_subtracts_children_once_where_they_overlap():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 2.0, 3.0, 1),
    ]
    assert measure.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_self_time_clips_children_to_their_parent():
    spans = [("root", 0.0, 2.0, -1), ("late", 1.0, 5.0, 0)]
    assert measure.self_times(spans) == pytest.approx([1.0, 4.0])


def test_self_time_by_name_aggregates_calls():
    spans = [
        ("run", 0.0, 10.0, -1),
        ("submit", 1.0, 2.0, 0),
        ("submit", 5.0, 8.0, 0),
    ]
    totals = measure.self_time_by_name(spans)
    assert totals["submit"] == pytest.approx((2, 4.0, 4.0))
    assert totals["run"] == pytest.approx((1, 10.0, 6.0))


def test_recorded_spans_nest_and_account_for_all_time():
    from repro.core.model import LockingGranularityModel
    from repro.core.parameters import SimulationParameters

    recorder = tracing.SpanRecorder()
    recorder.start()
    try:
        LockingGranularityModel(
            SimulationParameters(npros=4, ntrans=20, ltot=10, tmax=40.0)
        ).run()
    finally:
        recorder.stop()
    spans = recorder.spans()
    names = {name for name, _, _, _ in spans}
    assert {"model.init", "model.run", "server.submit", "engine.lock_overhead"} <= names
    for name, start, end, parent in spans:
        assert end >= start
        if parent >= 0:
            p_name, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
        else:
            assert name in ("model.init", "model.run")
    own = measure.self_times(spans)
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    # Every lock call fans out into two jobs per processor.
    assert recorder.counts["server.lock_jobs"] == 8 * recorder.counts["engine.lock_overhead"]


def test_span_recorder_restores_the_program():
    from repro.des.server import Server

    original = Server.submit
    recorder = tracing.SpanRecorder()
    recorder.start()
    assert Server.submit is not original
    recorder.stop()
    assert Server.submit is original


# -- module → layer bucketing ----------------------------------------------


def _program_modules():
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                yield tracing.module_of(os.path.join(directory, name), SRC)


def test_every_program_module_maps_to_exactly_one_known_layer():
    modules = list(_program_modules())
    assert len(modules) > 50
    layers = {}
    for module in modules:
        layer = tracing.layer_of(module)
        assert layer in tracing.SHARE_PREFIX, module
        assert layer not in (tracing.GC_BUCKET, tracing.HOST_BUCKET), module
        layers.setdefault(layer, []).append(module)
    # Every named layer owns at least one module.
    named = set(tracing.SHARE_PREFIX) - {tracing.GC_BUCKET, tracing.HOST_BUCKET}
    assert set(layers) == named


def test_layer_rules_pick_the_longest_prefix():
    assert tracing.layer_of("repro.des.engine") == "des"
    assert tracing.layer_of("repro.des.server") == "des.server"
    assert tracing.layer_of("repro.core.model") == "core.model"
    assert tracing.layer_of("repro.core.conflict") == "core.conflict"
    assert tracing.layer_of("repro") == "misc"
    assert tracing.layer_of("repro.newpackage.thing") is None
    assert tracing.layer_of("numpy.core") is None


def test_module_of_ignores_files_outside_the_program():
    assert tracing.module_of(os.path.join(SRC, "repro", "des", "__init__.py"), SRC) == "repro.des"
    assert tracing.module_of("/usr/lib/python3/heapq.py", SRC) is None


def test_sampler_buckets_gc_callback_and_host_frames():
    import inspect

    sampler = tracing.LayerSampler(SRC)
    assert sampler.bucket(inspect.currentframe()) == tracing.HOST_BUCKET
    assert sampler.bucket(None) == tracing.HOST_BUCKET


# -- seeds ----------------------------------------------------------------


def _without_seed(params):
    return dataclasses.replace(params, seed=0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_generated_inputs_and_nothing_else(name):
    workload = workloads.WORKLOADS[name]
    first, same, other = workload.inputs(1), workload.inputs(1), workload.inputs(2)
    if workload.kind == "regen":
        first, same, other = (
            [p for spec in specs for p in spec.configurations()]
            for specs in (first, same, other)
        )
    assert first == same
    assert len(first) == len(other)
    for a, b in zip(first, other):
        assert a.seed != b.seed
        assert _without_seed(a) == _without_seed(b)


def test_cell_seeds_never_collide_across_workload_seeds():
    seen = set()
    for seed in range(50):
        cells = workloads.cell_seeds(seed)
        assert not seen & set(cells)
        seen.update(cells)


def test_reference_names_default_and_held_out_seeds():
    reference = workloads.load_reference()
    assert set(reference) == set(workloads.WORKLOADS)
    for entry in reference.values():
        assert set(entry["seeds"]) == {
            str(workloads.DEFAULT_SEED), str(workloads.HELD_OUT_SEED)
        }


def test_every_recorded_band_fails_a_halved_throughput():
    for entry in workloads.load_reference().values():
        for band in entry["band"].values():
            low, high = band["observed"]
            assert low <= band["center"] <= high
            assert band["tolerance"] < 0.5


# -- output check ------------------------------------------------------------


def _small_result():
    from repro.core.model import simulate

    return simulate(npros=2, ntrans=5, ltot=10, tmax=200.0)


def test_identity_check_accepts_a_real_cell_and_flags_broken_ones():
    result = _small_result()
    assert workloads.identity_violations(result) == []
    broken = dataclasses.replace(result, lockcpus=result.totcpus + 1.0, totcom=0)
    assert workloads.identity_violations(broken) == ["lockcpus > totcpus", "totcom == 0"]


def test_output_check_fails_cells_outside_the_throughput_band():
    workload = workloads.WORKLOADS["heavyload"]
    band = {"cell": {"center": 1.0, "tolerance": 0.3}}
    check = workloads.OutputCheck(workload, 5, {"heavyload": {"band": band, "seeds": {}}})
    result = _small_result()
    inside = dataclasses.replace(result, throughput=1.2)
    halved = dataclasses.replace(result, throughput=0.5)
    assert check.check([("a", inside), ("b", halved)]) == 1
    assert check.identical == -1


def test_output_check_fails_every_cell_of_a_regen_spec_outside_its_band():
    workload = workloads.WORKLOADS["regen"]
    band = {key: {"center": 1.0, "tolerance": 0.3} for key in ("fig2", "fig12")}
    check = workloads.OutputCheck(workload, 5, {"regen": {"band": band, "seeds": {}}})
    result = _small_result()
    halved = [
        ("fig2|ltot=2", dataclasses.replace(result, throughput=0.25)),
        ("fig2|ltot=50", dataclasses.replace(result, throughput=0.25)),
        ("fig12|ltot=10", dataclasses.replace(result, throughput=1.1)),
    ]
    assert check.check(halved) == 2
    summed_inside = [
        ("fig2|ltot=2", dataclasses.replace(result, throughput=0.5)),
        ("fig2|ltot=50", dataclasses.replace(result, throughput=0.6)),
    ]
    assert check.check(summed_inside) == 0


# -- host-speed correction ------------------------------------------------------


def test_tracker_scales_each_interval_by_its_adjacent_probes(monkeypatch):
    ref = hostspeed.REFERENCE_S
    probes = iter([ref, 3 * ref, ref])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    tracker = hostspeed.Tracker()
    assert tracker.scale(2.0) == pytest.approx(1.0)
    assert tracker.scale(2.0) == pytest.approx(1.0)
    assert tracker.probes == [ref, 3 * ref, ref]


def test_probe_runs_and_takes_positive_time():
    assert 0.0 < hostspeed.probe() < 5.0


def test_probe_runs_with_the_collector_off_and_restores_it(monkeypatch):
    seen = []
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: seen.append(gc.isenabled()) or 0.0)
    hostspeed.probe()
    assert seen == [False, False]
    assert gc.isenabled()


# -- the command -------------------------------------------------------------


def test_command_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heavyload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
