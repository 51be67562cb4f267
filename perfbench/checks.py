"""Correctness checks for one simulation and for a round of them.

Each check returns a list of problems; an empty list means it passed. The
references are computed apart from the simulator: the CPU tracer
(``repro.rt.trace``), the path oracle (``repro.rt.pathtrace``) and the
CPU breadth-first search (``repro.workloads.graphs.reference_bfs``). The
structural checks are properties every run must have: thread
conservation and the cycle partition (``repro.obs.invariants``).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.layout import CONST_NUM_RAYS, CONST_RESULT_BASE, RESULT_WORDS
from repro.obs.invariants import check_run


def _as_missing(t: np.ndarray) -> np.ndarray:
    """Misses stored as ``inf``; compare them as one fixed value."""
    return np.where(np.isinf(t), -1.0, t)


def check_ray_results(t, tri, ref_t, ref_tri) -> list[str]:
    """Every ray written, and each ``(t, triangle)`` equal to the reference.

    For the two ablations, which hand back no ``RunResult`` to verify:
    their kernels replay the reference's float64 arithmetic, so equality
    is exact.
    """
    t = np.asarray(t, dtype=np.float64)
    tri = np.asarray(tri)
    if t.shape != np.shape(ref_t):
        return [f"{t.shape[0]} results for {np.shape(ref_t)[0]} rays"]
    problems = []
    unwritten = int(np.isnan(t).sum())
    if unwritten:
        problems.append(f"{unwritten} rays never wrote a result")
    written = ~np.isnan(t)
    bad_tri = int((tri[written] != np.asarray(ref_tri)[written]).sum())
    if bad_tri:
        problems.append(f"{bad_tri} rays report another triangle than the "
                        f"reference")
    bad_t = int((_as_missing(t[written])
                 != _as_missing(np.asarray(ref_t)[written])).sum())
    if bad_t:
        problems.append(f"{bad_t} rays report another t than the reference")
    return problems


def check_completion(completed: int, expected: int, cycles: int,
                     cap: int) -> list[str]:
    """The whole batch finished before the cycle cap."""
    problems = []
    if completed != expected:
        problems.append(f"completed {completed} of {expected}")
    if cycles >= cap:
        problems.append(f"reached the cycle cap ({cycles} >= {cap})")
    return problems


def results_from_memory(global_mem, const_mem) -> tuple[np.ndarray,
                                                        np.ndarray]:
    """``(t, triangle)`` read back from a primary-ray memory image, given
    only the memory a simulation ran on (for the ablations, which build
    their images internally)."""
    base = int(const_mem[CONST_RESULT_BASE])
    count = int(const_mem[CONST_NUM_RAYS])
    grid = global_mem.words[base:base + count * RESULT_WORDS]
    grid = grid.reshape(count, RESULT_WORDS)
    return grid[:, 0].copy(), grid[:, 1].astype(np.int64)


def check_all_written(result) -> list[str]:
    """What ``RunResult.verify()`` leaves out: it judges only the results
    that were written. Every ray must have written one; for BFS every
    reachable vertex must have been visited (``verify`` already rejects a
    visited vertex that is unreachable)."""
    first, _ = result.image.results()
    written = ~np.isnan(first)
    if result.workload.ray_kind == "bfs":
        missed = int((np.isfinite(result.workload.reference.t)
                      & ~written).sum())
        return ([f"{missed} reachable vertices never visited"]
                if missed else [])
    unwritten = int((~written).sum())
    return [f"{unwritten} rays never wrote a result"] if unwritten else []


def check_run_result(result, cap: int, grid_threads: int,
                     session=None) -> list[str]:
    """All checks for one :class:`~repro.harness.runner.RunResult`.

    ``grid_threads`` is the launch size and ``session`` the run's
    :class:`~repro.obs.TraceSession`, if it had one.
    """
    stats = result.stats
    problems = check_completion(stats.rays_completed,
                                result.workload.num_rays, stats.cycles, cap)
    if not result.verify():
        problems.append("RunResult.verify() failed against the reference")
    problems += check_all_written(result)
    problems += check_run(stats, session=session,
                          grid_threads=grid_threads)
    return problems


def check_modes_agree(results: dict) -> list[str]:
    """Every mode of one workload wrote the same per-ray results.

    ``results`` maps mode -> RunResult. For BFS the visited set and flags
    must agree; levels may differ between schedules (each is checked
    against the true level on its own).
    """
    problems = []
    items = list(results.items())
    base_mode, base = items[0]
    base_first, base_second = base.image.results()
    bfs = base.workload.ray_kind == "bfs"
    for mode, result in items[1:]:
        first, second = result.image.results()
        if bfs:
            same = (np.array_equal(np.isnan(first), np.isnan(base_first))
                    and np.array_equal(second, base_second))
        else:
            same = (np.array_equal(second, base_second)
                    and np.array_equal(_as_missing(first),
                                       _as_missing(base_first),
                                       equal_nan=True))
        if not same:
            problems.append(f"{mode} and {base_mode} wrote different "
                            f"results")
    return problems
