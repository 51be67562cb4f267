"""The benchmark's two workloads.

Each workload is a closed loop with one caller: a fixed batch of
simulations run back to back, single-threaded, in the benchmark's own
process. ``setup`` builds the inputs cold into a private workload cache;
``run`` is the timed phase of one round; ``check`` then judges every
simulation of the round (one operation each) and returns the problems
found per operation.

The simulated inputs are fixed (scene, roulette and graph seeds below),
so every simulated statistic repeats exactly from run to run and a
change in ``sim_cycles`` or ``simt_efficiency`` is a change in the
program. The workload seed orders the batch: it shuffles the order in
which a round's simulations (or figures) run.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field, replace

from perfbench.checks import (
    check_completion,
    check_modes_agree,
    check_ray_results,
    check_run_result,
    results_from_memory,
)
from repro.harness import cache as workload_cache
from repro.harness import experiments, runner
from repro.harness.presets import get_preset
from repro.harness.sweep import warm_workloads
from repro.obs.invariants import check_run
from repro.rt import BENCHMARK_SCENES

#: Roulette stream of the path workload and generator seed of the graph.
PATH_SEED = 0
GRAPH_SEED = 0


@dataclass
class Op:
    """One simulation of a round: its result and the recorder's record."""

    name: str
    result: object = None
    record: dict | None = None
    error: str | None = None
    #: Host seconds of the whole operation, memory image included.
    wall_s: float = 0.0


@dataclass
class Round:
    """What the timed phase of one round hands to the checks."""

    ops: list[Op] = field(default_factory=list)
    data: dict = field(default_factory=dict)


class FiguresTiny:
    """``repro experiments`` at the ``tiny`` preset: every table and figure.

    The only workload that runs the sweep engine, the workload cache, the
    report renderers and the DWF and persistent-thread models.
    """

    name = "figures-tiny"
    preset = get_preset("tiny")

    def __init__(self):
        self.names = list(experiments.EXPERIMENTS)
        self.sim_jobs = experiments.sweep_jobs_for(self.names, self.preset)
        #: The sweep's simulations plus the two ablation models.
        self.ops_per_round = len(self.sim_jobs) + 2

    def setup(self, cache_dir) -> list:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
        specs = {(job.scene, job.ray_kind) for job in self.sim_jobs}
        specs |= {(scene, "primary") for scene in BENCHMARK_SCENES}
        warm_workloads(sorted(specs), self.preset.name, jobs_n=1)
        return [workload_cache.default_cache()]

    def run(self, rng, instrument) -> Round:
        # Every round starts like a fresh ``repro experiments`` process
        # over the cache that setup filled: nothing held in memory.
        workload_cache._default = None
        names = list(self.names)
        rng.shuffle(names)
        out: list = []
        data = dict(experiments.run_selected(names, self.preset, jobs=1,
                                             strict=False, results_out=out))
        report = "\n\n".join(data[name]["render"] for name in self.names)
        return Round(data={
            "figures": data, "sweep": out[0], "report": report,
            "cache_stats": workload_cache.default_cache().stats.as_dict()})

    def check(self, done: Round, sims: list) -> list[list[str]]:
        sweep = done.data["sweep"]
        outcomes = [[f"sweep gave up: {failure.describe()}"]
                    for failure in sweep.failures]
        for job_result in sweep.results:
            outcomes.append(self._check_job(job_result))
        figures = done.data["figures"]
        for name, label in (("ablation_dwf", "dwf"),
                            ("ablation_persistent", "persistent")):
            outcomes.append(self._check_ablation(figures[name], [
                record for record in sims if record["label"] == label]))
        return outcomes

    def _check_job(self, job_result) -> list[str]:
        job = job_result.job
        workload = runner.prepare_workload(job.scene, self.preset,
                                           ray_kind=job.ray_kind,
                                           seed=job.seed)
        grid = runner.launch_for_workload(job.mode, workload).num_threads
        problems = check_completion(job_result.stats.rays_completed,
                                    job_result.num_rays,
                                    job_result.stats.cycles,
                                    self.preset.max_cycles)
        if not job_result.verify():
            problems.append("verify() against the reference failed")
        problems += check_run(job_result.stats, grid_threads=grid)
        return [f"{job.describe()}: {problem}" for problem in problems]

    def _check_ablation(self, figure: dict, records: list) -> list[str]:
        """The ablation's own flag, plus what the flag leaves out: the
        whole batch done, hit ``t`` values and the invariants."""
        if len(records) != 1:
            return [f"expected one ablation simulation, saw {len(records)}"]
        record = records[0]
        problems = ([] if figure.get("verified")
                    else ["verified flag is not True"])
        reference = runner.prepare_workload("conference",
                                            self.preset).reference
        threads = record["grid_threads"]
        t, tri = results_from_memory(record["global_mem"],
                                     record["const_mem"])
        if record["label"] == "dwf":
            # DWF runs one SM's residency worth of threads, one ray each.
            t, tri = t[:threads], tri[:threads]
            expected = threads
        else:
            expected = t.shape[0]
        problems += check_completion(record["rays_completed"], expected,
                                     record["cycles"],
                                     self.preset.max_cycles)
        problems += check_ray_results(t, tri, reference.t[:expected],
                                      reference.triangle[:expected])
        problems += check_run(record["stats"], session=record["session"],
                              grid_threads=threads)
        return [f"{record['label']}: {problem}" for problem in problems]


class _ModeBatch:
    """A fixed list of (workload, mode) simulations through ``run_mode``."""

    #: (workload key, mode) pairs of one round; set by subclasses.
    pairs: tuple = ()

    def __init__(self):
        self.ops_per_round = len(self.pairs)
        self.workloads: dict = {}

    def build(self, cache) -> dict:
        raise NotImplementedError

    def setup(self, cache_dir) -> list:
        cache = workload_cache.WorkloadCache(cache_dir)
        self.workloads = self.build(cache)
        return [cache]

    def run(self, rng, instrument) -> Round:
        pairs = list(self.pairs)
        rng.shuffle(pairs)
        done = Round()
        for key, mode in pairs:
            op = Op(name=f"{key}:{mode}")
            before = len(instrument.sims)
            # Each simulation starts from a collected heap, whatever ran
            # before it in the seeded order.
            gc.collect()
            begin = time.perf_counter()
            try:
                op.result = runner.run_mode(mode, self.workloads[key])
            except Exception as exc:  # counted as a failed operation
                op.error = f"{type(exc).__name__}: {exc}"
            op.wall_s = time.perf_counter() - begin
            if len(instrument.sims) > before:
                op.record = instrument.sims[-1]
            done.ops.append(op)
        return done

    def check(self, done: Round, sims: list) -> list[list[str]]:
        problems: dict[str, list[str]] = {}
        by_workload: dict = {}
        for op in done.ops:
            if op.error is not None:
                problems[op.name] = [f"raised {op.error}"]
                continue
            key, mode = op.name.split(":")
            problems[op.name] = check_run_result(
                op.result, op.result.workload.preset.max_cycles,
                op.record["grid_threads"], op.record["session"])
            by_workload.setdefault(key, {})[mode] = op.result
        for key, results in by_workload.items():
            mismatch = check_modes_agree(results)
            for mode in results:
                problems[f"{key}:{mode}"] += mismatch
        return [[f"{name}: {problem}" for problem in found]
                for name, found in problems.items()]


class Divergent1SM(_ModeBatch):
    """Multi-bounce path tracing and frontier BFS on one SM, each under
    ``pdom_warp`` and ``spawn``: the single-SM issue path and the spawn
    unit (the five-µ-kernel path chain, the self-respawning BFS step)."""

    name = "divergent-1sm"
    pairs = (("path", "pdom_warp"), ("path", "spawn"),
             ("bfs", "pdom_warp"), ("bfs", "spawn"))
    path_preset = replace(get_preset("path-fast"), name="divergent-path",
                          image_width=8, image_height=8,
                          max_cycles=4_000_000)
    bfs_preset = replace(get_preset("bfs-fast"), name="divergent-bfs",
                         max_cycles=1_000_000)

    def build(self, cache) -> dict:
        return {
            "path": runner.prepare_workload("conference", self.path_preset,
                                            ray_kind="path", seed=PATH_SEED,
                                            cache=cache),
            "bfs": runner.prepare_workload("graph-skew", self.bfs_preset,
                                           ray_kind="bfs", seed=GRAPH_SEED,
                                           cache=cache),
        }


WORKLOADS = {cls.name: cls for cls in (FiguresTiny, Divergent1SM)}
