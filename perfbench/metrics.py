"""Aggregate simulation records into the benchmark's metrics.

A *record* is the plain-number summary of one simulation
(:func:`perfbench.instrument.sim_record`). A *round* is one pass over a
workload's fixed batch of simulations. End-to-end metrics pool the
records of a round; per-layer metrics add the tracer's self times.
"""

from __future__ import annotations

import statistics

#: Machine modes with per-mode layer metrics (``repro.harness.runner.MODES``).
MODES = ("pdom_block", "pdom_warp", "spawn", "spawn_conflicts",
         "pdom_ideal", "spawn_ideal")

#: Record fields that must repeat exactly from one round to the next.
DETERMINISTIC_FIELDS = ("label", "cycles", "warp_size", "issued",
                        "committed", "idle_cycles", "stall_cycles",
                        "threads_spawned", "full_warps_formed",
                        "partial_warps_flushed", "bank_conflict_cycles",
                        "rays_completed", "dram_bytes", "dram_transactions")

#: Traced layers: metric name -> span name whose self time it is.
LAYER_SPANS = {
    "rt.make_scene_s": "rt.make_scene",
    "rt.build_kdtree_s": "rt.build_kdtree",
    "rt.trace_rays_s": "rt.trace_rays",
    "rt.path_trace_rays_s": "rt.path_trace_rays",
    "workloads.graph_s": "workloads.graph",
    "harness.cache.load_s": "harness.cache.load",
    "harness.cache.store_s": "harness.cache.store",
    "kernels.image_s": "kernels.image",
    "harness.sweep.overhead_s": "harness.sweep",
    "harness.experiments.render_s": "harness.experiments.render",
    "harness.runner.verify_s": "harness.runner.verify",
}


def deterministic_view(records: list[dict]) -> list[tuple]:
    """The part of a round's records that must repeat exactly, in an
    order that does not depend on the order the simulations ran in."""
    return sorted(tuple(record[name] for name in DETERMINISTIC_FIELDS)
                  for record in records)


def totals(records: list[dict]) -> dict:
    """Sums over a round's simulations."""
    keys = ("cycles", "issued", "committed", "idle_cycles", "stall_cycles",
            "threads_spawned", "full_warps_formed", "partial_warps_flushed",
            "bank_conflict_cycles", "dram_bytes", "dram_transactions",
            "host_s")
    out = {key: sum(record[key] for record in records) for key in keys}
    out["lanes"] = sum(record["issued"] * record["warp_size"]
                       for record in records)
    return out


def round_metrics(records: list[dict]) -> dict:
    """Simulated end-to-end metrics of one round; they repeat exactly."""
    sums = totals(records)
    return {
        "issued": sums["issued"],
        "sim_cycles": sums["cycles"],
        "simt_efficiency": (sums["committed"] / sums["lanes"]
                            if sums["lanes"] else 0.0),
    }


def batch_seconds(per_round: list[dict]) -> float:
    """Host seconds of one batch: each operation's median over the rounds
    of a run, summed over the batch.

    ``per_round`` holds one ``{operation: seconds}`` dict per round. The
    median per operation leaves out the rounds in which the shared host
    ran that operation slowly; a round's total would keep them.
    """
    return sum(statistics.median(times[name] for times in per_round
                                 if name in times)
               for name in per_round[0])


def _attribution(records: list[dict], cause: str) -> int:
    return sum(record["attribution"][cause] for record in records
               if record["attribution"] is not None)


def counter_metrics(records: list[dict]) -> dict:
    """Simulated per-layer counters of one round."""
    sums = totals(records)
    lanes_formed = sum(
        record["warp_size"]
        * (record["full_warps_formed"] + record["partial_warps_flushed"])
        for record in records)
    out = {
        "simt.sm.issued_warp_insts": sums["issued"],
        "simt.sm.committed_thread_insts": sums["committed"],
        "simt.sm.idle_cycles": sums["idle_cycles"],
        "simt.sm.stall_cycles": sums["stall_cycles"],
        "simt.sm.issue_port_cycles": _attribution(records, "issue_port"),
        "simt.sm.drained_cycles": _attribution(records, "drained"),
        "simt.sm.barrier_cycles": _attribution(records, "barrier"),
        "simt.memory.dram_bytes": sums["dram_bytes"],
        "simt.memory.dram_transactions": sums["dram_transactions"],
        "simt.memory.dram_pending_cycles": _attribution(records,
                                                        "dram_pending"),
        "simt.spawn.threads_spawned": sums["threads_spawned"],
        "simt.spawn.full_warps_formed": sums["full_warps_formed"],
        "simt.spawn.partial_warps_flushed": sums["partial_warps_flushed"],
        "simt.spawn.warp_fill": (sums["threads_spawned"] / lanes_formed
                                 if lanes_formed else 0.0),
        "simt.spawn.spawn_conflict_cycles": _attribution(records,
                                                         "spawn_conflict"),
        "simt.banked.bank_conflict_cycles": sums["bank_conflict_cycles"],
    }
    for mode in MODES:
        mine = [record for record in records if record["label"] == mode]
        run_s = sum(record["host_s"] for record in mine)
        issued = sum(record["issued"] for record in mine)
        out[f"simt.gpu.run_s.{mode}"] = run_s
        out[f"simt.gpu.warp_insts_per_s.{mode}"] = (issued / run_s
                                                     if run_s else 0.0)
        out[f"simt.gpu.sim_cycles.{mode}"] = sum(record["cycles"]
                                                 for record in mine)
    for label in ("dwf", "persistent"):
        out[f"simt.{label}.run_s"] = sum(record["host_s"] for record in records
                                         if record["label"] == label)
    return out


def layer_times(setup_self: dict, setups: int, round_self: dict,
                rounds: int) -> dict:
    """Self time per layer for one setup plus one round.

    ``setup_self``/``round_self`` map span name -> self seconds summed over
    ``setups`` setups and ``rounds`` rounds.
    """
    out = {}
    for metric, name in LAYER_SPANS.items():
        out[metric] = (setup_self.get(name, 0.0) / setups
                       + round_self.get(name, 0.0) / rounds)
    return out


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile, as a share of the median
    (``statistics.quantiles(values, n=4)``)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
