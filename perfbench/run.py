#!/usr/bin/env python3
"""Job-level benchmark of the repro simulator.

Run from the root of the repository::

    python3 perfbench/run.py --workload cold-job --seed 2003 --seconds 30
    python3 perfbench/run.py --workload warm-sweep --trace 1
    python3 perfbench/run.py --workload all

One invocation is one fresh process running one workload (see
``jobs.py`` and ``NOTES.md``): it fills the disk-warm trace cache if it
is cold, measures set-up time in fresh child processes, then runs
passes of the workload's job list until ``--seconds`` are used up.
The simulated result of every job is checked after each pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, writing
the layer spans as a Chrome-trace file that Perfetto loads.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
its own process and prints one table.

Everything the benchmark writes (trace caches, ledgers, span files,
the ``results.jsonl`` history) goes to ``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("cold-job", "warm-sweep", "observed-job")
DEFAULT_SECONDS = 30
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5

END_TO_END_UNITS = {"kips": "kinst/s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Simulated per-pass totals reported by the traced run: metric ->
#: counter in the run reports.
SIM_COUNTERS = {
    "mem.dcache.port_uses": "dcache.port_uses",
    "mem.lb.hits": "lb.hits",
    "mem.lsq.combined_loads": "lsq.combined_loads",
    "mem.wb.combined": "wb.combined",
    "stall.dcache_port": "stall.dcache_port",
}
TECH_VS_2P_TRACES = ("stream", "qsort", "iostorm")

PER_LAYER_UNITS = {
    "asm.assemble_s": "s",
    "func.build_s": "s",
    "func.kips": "kinst/s",
    "scenarios.contract_s": "s",
    "trace.save_s": "s",
    "trace.file_mb": "MB",
    "trace.load_s": "s",
    "core.precompute_s": "s",
    "core.loop_s": "s",
    "core.loop_kips": "kinst/s",
    "core.fastpath_share": "ratio",
    "core.ref_loop_s": "s",
    "core.ref_loop_kips": "kinst/s",
    "obs.recorder_docs_s": "s",
    "obs.report_s": "s",
    "obs.ledger_ingest_s": "s",
    "obs.ledger_new": "count",
    "workloads.builds": "count",
    "workloads.disk_hits": "count",
    "workloads.memory_hits": "count",
    "other_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
    "sim.instructions": "count",
    "sim.cycles": "count",
    "sim.ipc": "inst/cycle",
    **{metric: "count" for metric in SIM_COUNTERS},
    **{f"sim.tech_vs_2p.{name}": "ratio" for name in TECH_VS_2P_TRACES},
}


# ----------------------------------------------------------------------
# Loading the program under test
# ----------------------------------------------------------------------
def load_repro():
    """Import ``repro`` from this checkout's ``src`` and return the
    benchmark's ``jobs`` module.  Exits with an error, before printing
    any result, when the checkout holds no simulator source."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SOURCE / 'repro'}; "
                 f"run from a full checkout of the repository")
    # Stamp reports without asking git, and keep an inherited
    # REPRO_VALIDATE from sending every job through the reference loop.
    os.environ["REPRO_CODE_VERSION"] = "perfbench"
    os.environ.pop("REPRO_VALIDATE", None)
    sys.path.insert(0, str(SOURCE))
    import jobs
    return jobs


def setup_probe(ledger_path: str) -> None:
    """Child side of the set-up measurement: the steps a run takes
    before its first timed call, then one line to the parent."""
    jobs = load_repro()
    jobs.Ledger(ledger_path).close()
    print("ready", flush=True)


def measure_setup(probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its ``ready`` line,
    once per probe."""
    samples = []
    for index in range(probes):
        ledger = STATE / f"setup-probe-{os.getpid()}-{index}.sqlite"
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", str(ledger)],
            stdout=subprocess.PIPE, text=True)
        line = child.stdout.readline()
        samples.append(time.perf_counter() - start)
        child.stdout.close()
        child.wait()
        ledger.unlink(missing_ok=True)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{child.returncode})")
    return samples


def calibration_score() -> float:
    """A fixed pure-Python workload, in millions of loop iterations per
    second (median of three).  Recorded beside the host information so
    runs from different days can be normalised; no gate reads it."""
    scores = []
    for _ in range(3):
        start = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[acc & 1023] = table.get(acc & 1023, 0) + 1
        scores.append(0.3 / (time.perf_counter() - start))
    return statistics.median(scores)


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def sim_totals(reports: list[dict]) -> dict[str, float]:
    """Simulated per-pass totals (pinned by the gate, so identical in
    every pass at a given seed)."""
    instructions = sum(report["instructions"] for report in reports)
    cycles = sum(report["cycles"] for report in reports)
    totals = {"sim.instructions": instructions, "sim.cycles": cycles,
              "sim.ipc": instructions / cycles if cycles else 0.0}
    for metric, counter in SIM_COUNTERS.items():
        totals[metric] = sum(int(report["counters"].get(counter, 0))
                             for report in reports)
    ipc = {(report["workload"], report["config"]["name"]): report["ipc"]
           for report in reports}
    for name in TECH_VS_2P_TRACES:
        tech, dual = ipc.get((name, "1P-wide+LB+SC")), ipc.get((name, "2P"))
        totals[f"sim.tech_vs_2p.{name}"] = tech / dual if tech and dual \
            else 0.0
    return totals


def run_workload(args: argparse.Namespace) -> int:
    jobs = load_repro()
    from repro.workloads import suite
    workload = jobs.WORKLOADS[args.workload]
    STATE.mkdir(parents=True, exist_ok=True)
    host = {"platform": platform.platform(), "python": sys.version.split()[0],
            "cpus": os.cpu_count(), "calibration_mops": calibration_score()}
    setup_samples = measure_setup(SETUP_PROBES)
    ledger_path = STATE / f"ledger-{os.getpid()}.sqlite"
    ledger_path.unlink(missing_ok=True)
    runner = jobs.Runner(workload, args.seed, STATE, ledger_path)
    checker = jobs.Checker(jobs.load_pins())
    tracer = None
    if args.trace:
        import layers
        tracer = layers.LayerTracer(f"perfbench {workload.name}")
    untraced: list[float] = []
    traced: list[float] = []
    kips: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    sim = None
    cache_counts = Counter()
    try:
        runner.prepare()
        budget_start = time.perf_counter()
        while True:
            trace_this = tracer is not None and len(traced) < len(untraced)
            gc.collect()
            if trace_this:
                before = suite.trace_cache_stats()
                tracer.install()
                try:
                    outcome = runner.run_pass(tracer)
                finally:
                    tracer.uninstall()
                for key, count in suite.trace_cache_stats().items():
                    cache_counts[key] += count - before[key]
                traced.append(outcome.wall_s)
                sim = sim or sim_totals(outcome.reports)
            else:
                outcome = runner.run_pass()
                untraced.append(outcome.wall_s)
                kips.append(outcome.instructions / 1000 / outcome.wall_s)
            attempted += outcome.jobs
            problems.extend(f"{job}: {error}" for job, error in outcome.errors)
            bad = len(outcome.errors)
            for report in outcome.reports:
                found = checker.problems(report)
                problems.extend(found)
                bad += bool(found)
            missing = outcome.jobs - len(outcome.reports) - len(outcome.errors)
            if missing:
                problems.append(f"{missing} job(s) produced no report")
            failed += bad + missing
            elapsed = time.perf_counter() - budget_start
            done = not tracer or traced
            if done and elapsed + outcome.wall_s > args.seconds:
                break
    finally:
        runner.close()
        ledger_path.unlink(missing_ok=True)
    if tracer is None:
        metrics = {
            "kips": statistics.median(kips),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        metrics = layers.summarize(tracer, len(traced))
        for key in ("builds", "disk_hits", "memory_hits"):
            metrics[f"workloads.{key}"] = cache_counts[key] / len(traced)
        metrics["trace_overhead"] = \
            statistics.median(traced) / statistics.median(untraced)
        metrics.update(sim)
        units = PER_LAYER_UNITS
        spans_path = STATE / f"spans-{workload.name}.json"
        from repro.obs.spans import write_chrome_trace
        write_chrome_trace(str(spans_path), tracer.recorder.events())
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "host": host,
              "setup_samples_s": setup_samples, "untraced_pass_s": untraced,
              "traced_pass_s": traced, "attempted": attempted,
              "failed": failed, "problems": problems[:50],
              "metrics": metrics}
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    _print_summary(workload.name, args, record, units,
                   spans_path if tracer is not None else None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _print_summary(name: str, args: argparse.Namespace, record: dict,
                   units: dict, spans_path: Path | None) -> None:
    metrics = record["metrics"]
    attempted, failed = record["attempted"], record["failed"]
    passes = len(record["untraced_pass_s"]) + len(record["traced_pass_s"])
    seed = "default" if args.seed is None else args.seed
    print(f"perfbench {name}: seed {seed}, {passes} passes, "
          f"{attempted} jobs, host calibration "
          f"{record['host']['calibration_mops']:.2f} Mops/s")
    for problem in record["problems"][:10]:
        print(f"  FAIL {problem}")
    for metric, unit in units.items():
        print(f"  {metric:24s} {metrics[metric]:14.6g} {unit}")
    print(f"  {'error_rate':24s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} jobs)")
    if spans_path is not None:
        wall = metrics["traced_wall_s"]
        print(f"  layer shares of the traced wall time ({wall:.3f} s):")
        for metric in units:
            if metric.endswith("_s") and metric != "traced_wall_s" \
                    and wall > 0 and metrics[metric] > 0:
                print(f"    {metric:22s} {metrics[metric] / wall:7.1%}")
        print(f"  spans: {spans_path} (Chrome trace; opens in Perfetto)")


# ----------------------------------------------------------------------
# Every workload, one table
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    rows = {}
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        completed = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        rows[name] = json.loads(lines[-1])
        status |= not rows[name]["correct"]
    metric_names = list(END_TO_END_UNITS if not args.trace
                        else PER_LAYER_UNITS)
    print(f"\n{'metric':24s}" + "".join(f"{name:>16s}" for name in rows))
    for metric in metric_names:
        print(f"{metric:24s}" + "".join(
            f"{row['metrics'][metric]['value']:16.6g}"
            for row in rows.values()))
    print(f"{'error_rate':24s}" + "".join(
        f"{row['failed'] / row['attempted']:16.6g}" for row in rows.values()))
    print(json.dumps({"workloads": rows}))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Job-level benchmark of the repro simulator.")
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: each scenario's "
                             "pinned default seed)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--setup-probe", metavar="LEDGER",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true",
                        help="re-pin the simulated result of every job "
                             "at the default seeds, then exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.write_pins:
        jobs = load_repro()
        document = jobs.write_pins(STATE / "cache-warm")
        print(f"pinned {len(document['jobs'])} jobs in {jobs.PINS_PATH}")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
