"""Wrappers the benchmark puts around the simulator's layers.

Two kinds of instrumentation, both installed from the benchmark's own
files so the program under test is unchanged:

* The **simulation recorder** is always on. It wraps the two simulation
  entry points (``GPU.run`` and ``run_dwf``) and keeps one record per
  simulation: its counters and the host seconds spent inside it. The
  end-to-end metrics are sums over these records. Its cost is two clock
  reads per simulation.
* The **tracer** is on only in a traced run. It wraps the public
  functions of each layer and records one span per call (name, phase,
  start, end, parent span, run id). Spans stay in memory and are written
  once, at the end of the run. A layer's metric is its self time: the
  span's duration minus the time its child spans cover. In a traced run
  every ``GPU`` also gets a :class:`repro.obs.TraceSession`, whose
  idle/stall attribution feeds the cycle-cause counters.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: Modules whose global names are rebound when a function is wrapped, so
#: ``from x import f`` copies see the wrapper too.
_REBIND_PREFIXES = ("repro", "perfbench")


@dataclass
class Span:
    ident: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0


def sim_label(config, launch) -> str:
    """The machine mode a ``GPU`` was configured for, as ``runner.MODES``
    names it; the persistent-threads kernel gets its own label."""
    from repro.kernels.persistent import KERNEL_NAME as PERSISTENT_KERNEL

    if launch.entry_kernel == PERSISTENT_KERNEL:
        return "persistent"
    if config.spawn.enabled:
        if config.spawn.bank_conflicts:
            return "spawn_conflicts"
        return "spawn_ideal" if config.memory.ideal else "spawn"
    if config.scheduling == "block":
        return "pdom_block"
    return "pdom_ideal" if config.memory.ideal else "pdom_warp"


def sim_record(label: str, cycles: int, sm_stats, warp_size: int,
               dram_bytes: int, dram_transactions: int,
               host_s: float) -> dict:
    """The counters of one finished simulation, as plain numbers."""
    return {
        "label": label,
        "cycles": int(cycles),
        "warp_size": int(warp_size),
        "issued": int(sm_stats.issued_instructions),
        "committed": int(sm_stats.committed_thread_instructions),
        "idle_cycles": int(sm_stats.idle_cycles),
        "stall_cycles": int(sm_stats.stall_cycles),
        "threads_spawned": int(sm_stats.threads_spawned),
        "full_warps_formed": int(sm_stats.full_warps_formed),
        "partial_warps_flushed": int(sm_stats.partial_warps_flushed),
        "bank_conflict_cycles": int(sm_stats.bank_conflict_cycles),
        "rays_completed": int(sm_stats.rays_completed),
        "dram_bytes": int(dram_bytes),
        "dram_transactions": int(dram_transactions),
        "host_s": float(host_s),
        "attribution": None,
    }


class Instrument:
    """Simulation recorder plus (optionally) the span tracer."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: One record per simulation of the current round (see
        #: :func:`sim_record`), plus the objects the checks read back:
        #: ``stats``, ``global_mem``, ``const_mem``,
        #: ``grid_threads`` and the ``session`` of a traced run.
        self.sims: list[dict] = []
        self.spans: list[Span] = []
        self.phase = "setup"
        self.tracing = False
        self._stack: list[int] = []
        self._recorder_patches: list[tuple] = []
        self._tracer_patches: list[tuple] = []
        self._experiments: dict = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(ident=len(self.spans),
                    parent=self._stack[-1] if self._stack else None,
                    name=name, phase=self.phase, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.ident)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.tracing:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return wrapper

    # -- patching ------------------------------------------------------------

    @staticmethod
    def _patch(patches: list, owner, attr: str, new) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, patches: list, module, attr: str, new) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith(_REBIND_PREFIXES):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(patches, loaded, key, new)

    @staticmethod
    def _restore(patches: list) -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    # -- the simulation recorder ---------------------------------------------

    def install_recorder(self) -> None:
        from repro.simt import dwf
        from repro.simt.gpu import GPU

        instrument = self
        gpu_run = GPU.run
        gpu_init = GPU.__init__
        run_dwf = dwf.run_dwf

        @functools.wraps(gpu_init)
        def init(gpu, config, launch, *args, **kwargs):
            if instrument.tracing and kwargs.get("trace") is None:
                from repro.obs import TraceSession
                kwargs["trace"] = TraceSession()
            gpu_init(gpu, config, launch, *args, **kwargs)

        @functools.wraps(gpu_run)
        def run(gpu, *args, **kwargs):
            label = sim_label(gpu.config, gpu.launch)
            name = ("simt.persistent.run" if label == "persistent"
                    else f"simt.gpu.run.{label}")
            span = instrument._open(name) if instrument.tracing else None
            start = time.perf_counter()
            try:
                stats = gpu_run(gpu, *args, **kwargs)
            finally:
                host_s = time.perf_counter() - start
                if span is not None:
                    instrument._close(span)
            record = sim_record(label, stats.cycles, stats.sm_stats,
                                stats.config.warp_size,
                                stats.dram_read_bytes + stats.dram_write_bytes,
                                stats.dram_transactions, host_s)
            record.update(stats=stats, global_mem=gpu.global_mem,
                          const_mem=gpu.const_mem,
                          grid_threads=gpu.launch.num_threads,
                          session=gpu.trace)
            if gpu.trace is not None:
                record["attribution"] = dict(gpu.trace.stall_attribution())
            instrument.sims.append(record)
            return stats

        @functools.wraps(run_dwf)
        def dwf_run(config, program, entry_kernel, global_mem, const_mem,
                    num_threads, **kwargs):
            span = (instrument._open("simt.dwf.run") if instrument.tracing
                    else None)
            start = time.perf_counter()
            try:
                result = run_dwf(config, program, entry_kernel, global_mem,
                                 const_mem, num_threads, **kwargs)
            finally:
                host_s = time.perf_counter() - start
                if span is not None:
                    instrument._close(span)
            stats = result.stats
            record = sim_record("dwf", result.cycles, stats, config.warp_size,
                                stats.dram_read_bytes + stats.dram_write_bytes,
                                stats.dram_transactions, host_s)
            record.update(stats=stats, global_mem=global_mem,
                          const_mem=const_mem, grid_threads=num_threads,
                          session=None)
            instrument.sims.append(record)
            return result

        self._patch(self._recorder_patches, GPU, "__init__", init)
        self._patch(self._recorder_patches, GPU, "run", run)
        self._patch_function(self._recorder_patches, dwf, "run_dwf", dwf_run)

    # -- the tracer ----------------------------------------------------------

    def start_tracing(self) -> None:
        """Wrap every traced layer; simulations get a TraceSession."""
        from repro.harness import cache, experiments, runner, sweep
        from repro.kernels import graph, layout, pathtrace
        from repro.rt import kdtree, scenes, trace
        from repro.rt import pathtrace as rt_pathtrace
        from repro.workloads import graphs

        functions = [
            (scenes, "make_scene", "rt.make_scene"),
            (kdtree, "build_kdtree", "rt.build_kdtree"),
            (trace, "trace_rays", "rt.trace_rays"),
            (rt_pathtrace, "path_trace_rays", "rt.path_trace_rays"),
            (graphs, "make_graph", "workloads.graph"),
            (graphs, "reference_bfs", "workloads.graph"),
            (runner, "image_for_workload", "kernels.image"),
            (layout, "build_memory_image", "kernels.image"),
            (graph, "build_graph_memory_image", "kernels.image"),
            (pathtrace, "extend_image_for_path", "kernels.image"),
            (sweep, "run_sweep", "harness.sweep"),
        ]
        methods = [
            (cache.WorkloadCache, "_load", "harness.cache.load"),
            (cache.WorkloadCache, "_store", "harness.cache.store"),
            (runner.RunResult, "verify", "harness.runner.verify"),
        ]
        patches = self._tracer_patches
        for module, attr, name in functions:
            self._patch_function(patches, module, attr,
                                 self._spanned(name, getattr(module, attr)))
        for owner, attr, name in methods:
            self._patch(patches, owner, attr,
                        self._spanned(name, owner.__dict__[attr]))
        self._experiments = dict(experiments.EXPERIMENTS)
        for key, figure in self._experiments.items():
            experiments.EXPERIMENTS[key] = self._spanned(
                "harness.experiments.render", figure)
        self.tracing = True

    def stop_tracing(self) -> None:
        from repro.harness import experiments

        self.tracing = False
        self._restore(self._tracer_patches)
        experiments.EXPERIMENTS.update(self._experiments)

    def uninstall(self) -> None:
        self.stop_tracing()
        self._restore(self._recorder_patches)

    # -- results -------------------------------------------------------------

    def self_times(self, phase: str) -> dict[str, float]:
        """Seconds of self time per span name, over spans of ``phase``."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.phase == phase:
                totals[span.name] += (span.end - span.start
                                      - covered[span.ident])
        return dict(totals)

    def write_spans(self, path) -> None:
        doc = {"run_id": self.run_id,
               "spans": [asdict(span) for span in self.spans]}
        with open(path, "w") as handle:
            json.dump(doc, handle)

