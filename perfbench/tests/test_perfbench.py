"""Tests for the benchmark's own code: metric aggregation, the span
tracer's self times, the correctness checks on corrupted results, and
how a run counts and reports what failed.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from perfbench import run as bench
from perfbench.checks import (
    check_completion,
    check_modes_agree,
    check_ray_results,
    check_run_result,
    results_from_memory,
)
from perfbench.instrument import Instrument, Span, sim_record
from perfbench.metrics import (
    batch_seconds,
    counter_metrics,
    deterministic_view,
    layer_times,
    quartile_spread,
    round_metrics,
)
from perfbench.workloads import _ModeBatch
from repro.config import scaled_config
from repro.harness.presets import get_preset
from repro.harness.runner import launch_for_workload, prepare_workload, run_mode
from repro.simt.gpu import RunStats
from repro.simt.stats import DivergenceSampler, SMStats

TINY = dataclasses.replace(get_preset("tiny"), name="test-4x4",
                           image_width=4, image_height=4)


def _run_stats(cycles, issued, committed, **counters) -> RunStats:
    sm = SMStats(cycles=cycles, issued_instructions=issued,
                 committed_thread_instructions=committed, **counters)
    return RunStats(config=scaled_config(1), cycles=cycles, sm_stats=sm,
                    divergence=DivergenceSampler(),
                    rays_completed=sm.rays_completed,
                    dram_read_bytes=sm.dram_read_bytes,
                    dram_write_bytes=sm.dram_write_bytes,
                    dram_transactions=sm.dram_transactions)


def _record(label, stats, host_s):
    return sim_record(label, stats.cycles, stats.sm_stats,
                      stats.config.warp_size,
                      stats.dram_read_bytes + stats.dram_write_bytes,
                      stats.dram_transactions, host_s)


class TestAggregation:
    def setup_method(self):
        self.a = _run_stats(100, 40, 960, idle_cycles=50, stall_cycles=10,
                            threads_spawned=80, full_warps_formed=2,
                            partial_warps_flushed=1, bank_conflict_cycles=3,
                            dram_read_bytes=128, dram_write_bytes=64,
                            dram_transactions=5)
        self.b = _run_stats(200, 60, 1200, idle_cycles=90, stall_cycles=0,
                            dram_read_bytes=256, dram_transactions=7)
        self.records = [_record("spawn", self.a, 0.5),
                        _record("pdom_warp", self.b, 1.5)]

    def test_end_to_end_sums(self):
        metrics = round_metrics(self.records)
        assert metrics["issued"] == 100
        assert metrics["sim_cycles"] == 300
        assert metrics["simt_efficiency"] == pytest.approx(
            (960 + 1200) / (100 * 32))

    def test_pooled_efficiency_of_one_run_is_its_own(self):
        metrics = round_metrics(self.records[:1])
        assert metrics["simt_efficiency"] == pytest.approx(
            self.a.simt_efficiency)

    def test_batch_seconds_sums_medians_per_operation(self):
        rounds = [{"path": 1.0, "bfs": 0.5},
                  {"path": 3.0, "bfs": 0.4},
                  {"path": 1.2, "bfs": 0.9}]
        assert batch_seconds(rounds) == pytest.approx(1.2 + 0.5)
        assert batch_seconds([{"round": 2.5}]) == 2.5

    def test_layer_counters(self):
        counters = counter_metrics(self.records)
        assert counters["simt.sm.issued_warp_insts"] == 100
        assert counters["simt.sm.committed_thread_insts"] == 2160
        assert counters["simt.sm.idle_cycles"] == 140
        assert counters["simt.sm.stall_cycles"] == 10
        assert counters["simt.memory.dram_bytes"] == 448
        assert counters["simt.memory.dram_transactions"] == 12
        assert counters["simt.spawn.threads_spawned"] == 80
        assert counters["simt.spawn.warp_fill"] == pytest.approx(80 / 96)
        assert counters["simt.banked.bank_conflict_cycles"] == 3
        assert counters["simt.gpu.sim_cycles.spawn"] == 100
        assert counters["simt.gpu.sim_cycles.pdom_warp"] == 200
        assert counters["simt.gpu.sim_cycles.pdom_block"] == 0
        assert counters["simt.gpu.run_s.pdom_warp"] == 1.5
        assert counters["simt.gpu.warp_insts_per_s.spawn"] == 80.0
        # No TraceSession attached: the attributed causes read zero.
        assert counters["simt.memory.dram_pending_cycles"] == 0

    def test_deterministic_view_ignores_order_and_host_time(self):
        swapped = [dict(self.records[1], host_s=9.0), self.records[0]]
        assert deterministic_view(swapped) == deterministic_view(self.records)
        changed = [dict(self.records[0], cycles=101), self.records[1]]
        assert deterministic_view(changed) != deterministic_view(self.records)

    def test_quartile_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        # statistics.quantiles (exclusive): q1 = 1.5, q3 = 4.5.
        assert quartile_spread(values) == pytest.approx(3.0 / 3.0)
        assert quartile_spread([2.0] * 10) == 0.0


class TestSelfTimes:
    def test_children_are_subtracted_once(self):
        instrument = Instrument("test")
        instrument.spans = [
            Span(0, None, "sweep", "traced", 0.0, 10.0),
            Span(1, 0, "image", "traced", 2.0, 5.0),
            Span(2, 1, "store", "traced", 3.0, 4.0),
            Span(3, 0, "image", "traced", 6.0, 7.0),
            Span(4, None, "image", "setup", 0.0, 2.0),
        ]
        assert instrument.self_times("traced") == pytest.approx(
            {"sweep": 6.0, "image": 3.0, "store": 1.0})
        assert instrument.self_times("setup") == {"image": 2.0}

    def test_layer_times_average_setups_and_rounds(self):
        times = layer_times({"kernels.image": 3.0}, 3,
                            {"kernels.image": 4.0}, 2)
        assert times["kernels.image_s"] == pytest.approx(1.0 + 2.0)
        assert times["rt.make_scene_s"] == 0.0

    def test_wrapped_call_records_a_span_only_while_tracing(self):
        instrument = Instrument("test")
        wrapped = instrument._spanned("layer", lambda x: x + 1)
        assert wrapped(1) == 2
        assert instrument.spans == []
        outer = instrument._spanned("outer", wrapped)
        instrument.tracing = True
        instrument.phase = "traced"
        assert outer(2) == 3
        names = [(span.name, span.parent) for span in instrument.spans]
        assert names == [("outer", None), ("layer", 0)]


def _corrupt(image, ray: int, column: int, value: float) -> None:
    words = image.global_mem.words
    words[image.result_base + 2 * ray + column] = value


class TestRayChecks:
    @pytest.fixture
    def primary(self):
        workload = prepare_workload("conference", TINY, cache=False)
        result = run_mode("pdom_warp", workload)
        grid = launch_for_workload("pdom_warp", workload).num_threads
        return result, grid

    def test_clean_run_passes(self, primary):
        result, grid = primary
        assert check_run_result(result, TINY.max_cycles, grid) == []

    def test_flipped_triangle_fails(self, primary):
        result, grid = primary
        hit = int(np.flatnonzero(result.workload.reference.triangle >= 0)[0])
        wrong = result.workload.reference.triangle[hit] + 1
        _corrupt(result.image, hit, 1, float(wrong))
        problems = check_run_result(result, TINY.max_cycles, grid)
        assert any("verify() failed" in problem for problem in problems)

    def test_changed_t_fails(self, primary):
        result, _ = primary
        t, tri = result.image.results()
        ref = result.workload.reference
        hit = int(np.flatnonzero(np.isfinite(ref.t))[0])
        t[hit] += 1e-9
        assert check_ray_results(t, tri, ref.t, ref.triangle)

    def test_truncated_run_fails(self):
        workload = prepare_workload("conference", TINY, cache=False)
        result = run_mode("pdom_warp", workload, max_cycles=300)
        grid = launch_for_workload("pdom_warp", workload).num_threads
        problems = check_run_result(result, TINY.max_cycles, grid)
        assert any("completed" in problem for problem in problems)
        assert any("never wrote" in problem for problem in problems)

    def test_cycle_cap_fails(self):
        assert check_completion(16, 16, cycles=2_000, cap=2_000)
        assert check_completion(16, 16, cycles=1_999, cap=2_000) == []

    def test_modes_must_agree(self, primary):
        result, _ = primary
        other = run_mode("spawn", result.workload)
        assert check_modes_agree({"pdom_warp": result, "spawn": other}) == []
        _corrupt(other.image, 0, 1, 12345.0)
        assert check_modes_agree({"pdom_warp": result, "spawn": other})

    def test_results_read_back_from_memory(self, primary):
        result, _ = primary
        t, tri = results_from_memory(result.image.global_mem,
                                     result.image.const_mem)
        want_t, want_tri = result.image.results()
        np.testing.assert_array_equal(t, want_t)
        np.testing.assert_array_equal(tri, want_tri)


class TestBfsChecks:
    @pytest.fixture
    def bfs(self):
        preset = get_preset("bfs-tiny")
        workload = prepare_workload("graph-skew", preset, ray_kind="bfs",
                                    cache=False)
        result = run_mode("pdom_warp", workload)
        grid = launch_for_workload("pdom_warp", workload).num_threads
        return result, grid, preset

    def test_clean_run_passes(self, bfs):
        result, grid, preset = bfs
        assert check_run_result(result, preset.max_cycles, grid) == []

    def test_level_below_true_level_fails(self, bfs):
        result, grid, preset = bfs
        ref = result.workload.reference.t
        deep = int(np.flatnonzero(np.isfinite(ref) & (ref >= 1))[0])
        _corrupt(result.image, deep, 0, ref[deep] - 1)
        problems = check_run_result(result, preset.max_cycles, grid)
        assert any("verify() failed" in problem for problem in problems)

    def test_unvisited_reachable_vertex_fails(self, bfs):
        result, grid, preset = bfs
        ref = result.workload.reference.t
        reachable = int(np.flatnonzero(np.isfinite(ref))[0])
        _corrupt(result.image, reachable, 0, np.nan)
        problems = check_run_result(result, preset.max_cycles, grid)
        assert any("never visited" in problem for problem in problems)


class CorruptedBatch(_ModeBatch):
    """Two real 4x4 simulations; the first mode run gets a flipped
    triangle id written into its results after it finished."""

    name = "corrupted"
    pairs = (("primary", "pdom_warp"), ("primary", "spawn"))

    def __init__(self, corrupt: bool):
        super().__init__()
        self.corrupt = corrupt
        self.workloads = {"primary": prepare_workload("conference", TINY,
                                                      cache=False)}
        self.tracing_in_check = []

    def run(self, rng, instrument):
        done = super().run(rng, instrument)
        if self.corrupt:
            ref = done.ops[0].result.workload.reference.triangle
            hit = int(np.flatnonzero(ref >= 0)[0])
            _corrupt(done.ops[0].result.image, hit, 1, float(ref[hit] + 1))
        return done

    def check(self, done, sims):
        self.tracing_in_check.append(self.instrument.tracing)
        return super().check(done, sims)


class TestRunAccounting:
    def _rounds(self, corrupt: bool, tracing: bool = False):
        workload = CorruptedBatch(corrupt)
        instrument = Instrument("test")
        workload.instrument = instrument
        instrument.install_recorder()
        instrument.tracing = tracing
        try:
            rounds = bench.run_rounds(workload, instrument, random.Random(1),
                                      seconds=0.0, phase="round")
        finally:
            instrument.tracing = False
            instrument.uninstall()
        return workload, rounds

    def test_clean_round_is_correct(self):
        workload, rounds = self._rounds(corrupt=False)
        assert bench.tally(rounds, workload.ops_per_round) == {
            "correct": True, "attempted": 2, "failed": 0}

    def test_corrupted_round_is_not_correct(self):
        workload, rounds = self._rounds(corrupt=True)
        outcome = bench.tally(rounds, workload.ops_per_round)
        # The corrupted mode fails verify(); both fail the agreement check.
        assert outcome == {"correct": False, "attempted": 2, "failed": 2}

    def test_checks_run_untraced(self):
        workload, _ = self._rounds(corrupt=False, tracing=True)
        assert workload.tracing_in_check == [False]

    def test_changed_statistics_are_not_correct(self):
        _, rounds = self._rounds(corrupt=False)
        changed = dict(rounds[0], sims=[dict(rounds[0]["sims"][0],
                                             cycles=1)]
                       + rounds[0]["sims"][1:])
        assert bench.tally(rounds + [changed], 2)["correct"] is False

    def test_incorrect_run_exits_nonzero(self, monkeypatch, capsys):
        doc = {"correct": False, "attempted": 2, "failed": 1, "metrics": {}}
        monkeypatch.setattr(bench, "measure", lambda args: doc)
        assert bench.main(["--workload", "divergent-1sm"]) == 1
        assert capsys.readouterr().out.strip().endswith(
            '"failed": 1, "metrics": {}}')
        monkeypatch.setattr(bench, "measure",
                            lambda args: dict(doc, correct=True, failed=0))
        assert bench.main(["--workload", "divergent-1sm"]) == 0

    def test_set_gap_is_symmetric(self):
        assert bench.set_gap([10.0, 12.0]) == pytest.approx(0.2)
        assert bench.set_gap([12.0, 10.0]) == pytest.approx(0.2)
        assert bench.set_gap([5.0, 5.0]) == 0.0
