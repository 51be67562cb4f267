#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload divergent-1sm --seed 1 \\
        --seconds 30 --trace 0

runs the workload's setup (several times, for a steady median), then
whole rounds of its fixed batch of simulations until ``--seconds`` have
passed, checks every simulation, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and the
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs untraced rounds and then traced rounds, reports the per-layer
metrics, and writes the spans to ``.perfbench_out/``. ``correct`` is
false, and the exit status 1, when any operation failed or the simulated
statistics changed between rounds.

    python3 perfbench/run.py --workload divergent-1sm --seconds 30 --compare

runs two separate sets of five runs (seeds 1-10), each in a process of
its own, and prints per end-to-end metric each set's median and quartile
spread and the gap between the two medians next to the bound in
``BENCHMARK.json``; it exits with status 1 when a gap is above its bound.

Only the simulator in this checkout's ``src/`` is measured; without it the
command exits with status 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("figures-tiny", "divergent-1sm")

#: Setups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 5

#: Imports timed per run: this process's own, plus fresh interpreters
#: that import the same modules. ``setup_s`` takes their median, since
#: one import alone varies by a factor of two on a shared host.
IMPORT_REPEATS = 5

#: What a fresh interpreter runs to time the imports ``run.py`` makes.
_IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); "
                 "sys.path[:0] = sys.argv[1:]; "
                 "import perfbench.run, perfbench.instrument, "
                 "perfbench.metrics, perfbench.workloads; "
                 "print(time.perf_counter() - start)")

#: Native thread pools pinned to one thread: one caller, one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: Settings of the program that would change what a run does or where it
#: writes (results warehouse, fault injection, worker count, cache
#: switch, checkpoints); all cleared.
REPRO_VARS = ("REPRO_RESULTS_DIR", "REPRO_FAULT_SPEC", "REPRO_FAULT_DIR",
              "REPRO_JOBS", "REPRO_CACHE", "REPRO_CHECKPOINT_DIR")

#: Record fields the checks read and the metrics do not keep.
HEAVY_FIELDS = ("stats", "global_mem", "const_mem", "session")

#: ``--compare``: separate sets of runs, and runs per set.
COMPARE_SETS = 2
COMPARE_RUNS = 5

#: Longest a single run may take with ``--compare``.
RUN_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true",
                        help=f"compare {COMPARE_SETS} separate sets of "
                             f"{COMPARE_RUNS} runs")
    return parser.parse_args(argv)


class MissingProgram(Exception):
    """The checkout holds no simulator to measure."""


def import_program():
    """Import the checkout's simulator (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no simulator sources under {src}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in REPRO_VARS:
        os.environ.pop(var, None)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise MissingProgram(f"imported repro from {repro.__file__}, "
                             f"not from {src}")


def import_times(own_s: float) -> list[float]:
    """``own_s`` plus the import time of ``IMPORT_REPEATS - 1`` fresh
    interpreters, each run to its end before the next starts."""
    times = [own_s]
    for _ in range(IMPORT_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
             str(ROOT)], capture_output=True, text=True, check=True,
            timeout=RUN_TIMEOUT_S)
        times.append(float(proc.stdout))
    return times


def run_rounds(workload, instrument, rng, seconds: float, phase: str):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    instrument.phase = phase
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        instrument.sims.clear()
        gc.collect()
        begin = time.perf_counter()
        try:
            done, error = workload.run(rng, instrument), None
        except Exception as exc:  # every operation of the round failed
            done, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - begin
        sims = list(instrument.sims)
        if done is None:
            outcomes = [[f"round raised {error}"]] * workload.ops_per_round
        else:
            # The checks are the benchmark's work, not the program's: no
            # spans, so traced layers (``RunResult.verify``, the workload
            # cache) hold only what the round itself did.
            tracing, instrument.tracing = instrument.tracing, False
            try:
                outcomes = workload.check(done, sims)
            finally:
                instrument.tracing = tracing
        if len(outcomes) != workload.ops_per_round:
            outcomes = [[f"round accounted for {len(outcomes)} of "
                         f"{workload.ops_per_round} operations"]] \
                * workload.ops_per_round
        for problems in outcomes:
            for problem in problems:
                print(f"[{phase}] FAILED {problem}", file=sys.stderr)
        if done is not None and done.ops:
            wall = {op.name: op.wall_s for op in done.ops}
            host = {op.name: op.record["host_s"] if op.record else 0.0
                    for op in done.ops}
        else:
            wall = {"round": wall_s}
            host = {"round": sum(record["host_s"] for record in sims)}
        rounds.append({
            "wall": wall,
            "host": host,
            "sims": [{key: value for key, value in record.items()
                      if key not in HEAVY_FIELDS} for record in sims],
            "failed": sum(1 for problems in outcomes if problems),
            "cache_stats": (done.data.get("cache_stats") if done is not None
                            else None),
        })
    return rounds


def tally(rounds: list, ops_per_round: int) -> dict:
    """``correct``, ``attempted`` and ``failed`` over all rounds of a run.

    ``correct`` holds only when no operation failed and every round
    simulated exactly the same statistics as the first.
    """
    from perfbench.metrics import deterministic_view

    first = deterministic_view(rounds[0]["sims"])
    repeats = all(deterministic_view(r["sims"]) == first for r in rounds)
    if not repeats:
        print("simulated statistics differ between rounds", file=sys.stderr)
    failed = sum(r["failed"] for r in rounds)
    return {"correct": repeats and failed == 0,
            "attempted": ops_per_round * len(rounds), "failed": failed}


def cache_counts(stats_dicts: list) -> tuple[int, int]:
    hits = sum(s["memory_hits"] + s["disk_hits"] for s in stats_dicts)
    misses = sum(s["misses"] + s["derived"] for s in stats_dicts)
    return hits, misses


def measure(args) -> dict:
    import_program()
    from perfbench.instrument import Instrument
    from perfbench.metrics import (
        MODES,
        batch_seconds,
        counter_metrics,
        layer_times,
        round_metrics,
    )
    from perfbench.workloads import WORKLOADS

    import_s = statistics.median(
        import_times(time.perf_counter() - _STARTED))
    workload = WORKLOADS[args.workload]()
    instrument = Instrument(
        run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    instrument.install_recorder()
    WORK_DIR.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                         dir=WORK_DIR))
    try:
        # Anything that reaches for the default cache stays private.
        os.environ["REPRO_CACHE_DIR"] = str(work / "default")
        if args.trace:
            instrument.start_tracing()
        setup_times, setup_caches = [], []
        for index in range(SETUP_REPEATS):
            begin = time.perf_counter()
            caches = workload.setup(work / f"setup-{index}")
            setup_times.append(time.perf_counter() - begin)
            setup_caches += [cache.stats.as_dict() for cache in caches]
        instrument.stop_tracing()
        rng = random.Random(args.seed)
        rounds = run_rounds(workload, instrument, rng, args.seconds, "round")
        traced = []
        if args.trace:
            instrument.start_tracing()
            traced = run_rounds(workload, instrument, rng, args.seconds,
                                "traced")
            instrument.stop_tracing()
            OUT_DIR.mkdir(exist_ok=True)
            instrument.write_spans(
                OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        instrument.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    per_round = [round_metrics(r["sims"]) for r in rounds]
    if args.trace:
        metrics = counter_metrics(traced[0]["sims"])
        untraced = [counter_metrics(r["sims"]) for r in rounds]
        for mode in MODES:
            for name in (f"simt.gpu.run_s.{mode}",
                         f"simt.gpu.warp_insts_per_s.{mode}"):
                metrics[name] = statistics.median(c[name] for c in untraced)
        for label in ("dwf", "persistent"):
            name = f"simt.{label}.run_s"
            metrics[name] = statistics.median(c[name] for c in untraced)
        metrics.update(layer_times(instrument.self_times("setup"),
                                   SETUP_REPEATS,
                                   instrument.self_times("traced"),
                                   len(traced)))
        setup_hits, setup_misses = cache_counts(setup_caches)
        round_hits, round_misses = cache_counts(
            [r["cache_stats"] for r in traced if r["cache_stats"]])
        metrics["harness.cache.hits"] = (setup_hits / SETUP_REPEATS
                                         + round_hits / len(traced))
        metrics["harness.cache.misses"] = (setup_misses / SETUP_REPEATS
                                           + round_misses / len(traced))
        metrics["import.repro_s"] = import_s
        metrics["trace.overhead_s"] = (
            batch_seconds([r["wall"] for r in traced])
            - batch_seconds([r["wall"] for r in rounds]))
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": batch_seconds([r["wall"] for r in rounds]),
            "warp_insts_per_s": (per_round[0]["issued"] / batch_seconds(
                [r["host"] for r in rounds])),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_cycles": per_round[0]["sim_cycles"],
            "simt_efficiency": per_round[0]["simt_efficiency"],
        }
    units = metric_units()
    return dict(tally(rounds + traced, workload.ops_per_round), metrics={
        name: {"value": value, "unit": units.get(name, "")}
        for name, value in metrics.items()})


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def set_gap(medians: list[float]) -> float:
    """Largest distance between two sets' medians, as a share of the
    smaller one; the same whichever set came out better."""
    return (max(medians) - min(medians)) / min(abs(m) for m in medians)


def compare_sets(args) -> int:
    """Separate sets of runs; the gap between their medians per metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = []
    for set_index in range(COMPARE_SETS):
        values: dict = {}
        failed_shares = []
        for run_index in range(COMPARE_RUNS):
            seed = set_index * COMPARE_RUNS + run_index + 1
            command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"seed {seed} exited with status {proc.returncode}")
                return 1
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            failed_shares.append(doc["failed"] / doc["attempted"])
            for name, metric in doc["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"set {set_index + 1} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in doc["metrics"].items()), flush=True)
        sets.append((values, failed_shares))
    sys.path.insert(0, str(ROOT))
    from perfbench.metrics import quartile_spread

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        medians = [statistics.median(values[name]) for values, _ in sets]
        spreads = [quartile_spread(values[name]) for values, _ in sets]
        gap = set_gap(medians)
        pooled = quartile_spread(
            [value for values, _ in sets for value in values[name]])
        summary[name] = {"medians": medians, "spreads": spreads,
                         "pooled_spread": pooled, "gap": gap,
                         "bound": metric["bound"]}
        print(f"{name:18s} medians " + " ".join(f"{m:.6g}" for m in medians)
              + "  spreads " + " ".join(f"{s:.2%}" for s in spreads)
              + f"  all runs {pooled:.2%}  gap {gap:.2%}"
              + f"  bound {metric['bound']:.0%}"
              + ("" if gap <= metric["bound"] else "  ABOVE BOUND"))
    shares = [sorted(set(shares)) for _, shares in sets]
    print(f"failed shares per set: {shares}")
    print(json.dumps({"workload": args.workload, "metrics": summary,
                      "failed_shares": shares}))
    agree = (all(m["gap"] <= m["bound"] for m in summary.values())
             and all(s == shares[0] for s in shares))
    return 0 if agree else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare_sets(args)
    try:
        result = measure(args)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
