"""The benchmark's workloads: what one pass of each runs, and the gate.

A *pass* runs a workload's job list once, one job after another, in
this process (one client, closed loop, Engine ``jobs=1``).  A job is
what a user of the simulator runs: get a trace, time it on a machine
configuration, build the run report and file it in a results ledger.
The three workloads differ in which layers do the work:

* ``cold-job`` builds every trace into an empty trace-cache directory,
  so the assembler, the functional simulator with the mini-OS, the
  scenario contract and the ``.npz`` save all run;
* ``warm-sweep`` loads traces from a disk-warm cache and sweeps them
  over four port configurations through ``Engine.execute``;
* ``observed-job`` loads from the warm cache and attaches interval
  metrics, hotspots and critpath, which sends the core through the
  reference loop, then builds, validates and files every document.

The gate (:class:`Checker`) runs after the pass timer stops.  Every
run report is schema-validated, compared with the first pass of the
same process, and — for traces at their pinned seed — compared field
by field with ``pins.json``.  A job that raises (self-check, scenario
contract, validator, conservation check) is a failed job too.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import OoOCore
from repro.experiments.engine import Engine, EngineJobError, SimJob, TraceSpec
from repro.experiments.runner import capture_reports
from repro.obs import (
    DEFAULT_METRICS_INTERVAL,
    NULL_SPANS,
    WHATIF_PORT,
    CritPathRecorder,
    HotspotRecorder,
    Ledger,
    SchemaError,
    build_critpath_report,
    build_hotspots_report,
    build_run_report,
    validate_critpath_report,
    validate_hotspots_report,
    validate_run_report,
)
from repro.presets import machine
from repro.scenarios import SCENARIOS
from repro.workloads import suite

SCALE = "small"
TECH = "1P-wide+LB+SC"
SWEEP_CONFIGS = ("1P", TECH, "2P", "2P+SC")
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclass(frozen=True)
class TraceRef:
    """One trace of a workload at the benchmark's scale.  Scenario
    traces carry the benchmark's seed; the others take no seed."""

    name: str
    seed: int | None = None

    @staticmethod
    def of(name: str, seed: int | None) -> "TraceRef":
        if name not in SCENARIOS:
            return TraceRef(name)
        return TraceRef(name, SCENARIOS[name].default_seed
                        if seed is None else seed)

    @property
    def label(self) -> str:
        return f"{self.name}@{SCALE}"

    def spec(self) -> TraceSpec:
        if self.name in SCENARIOS:
            return TraceSpec.scenario(self.name, SCALE, seed=self.seed)
        return TraceSpec.workload(self.name, SCALE)

    def build(self):
        return self.spec().build()

    def identity(self) -> dict[str, object]:
        return self.spec().report_identity()


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                   # "cold" | "sweep" | "observed"
    traces: tuple[str, ...]
    configs: tuple[str, ...]


#: Why each workload exists is in NOTES.md and BENCHMARK.json.
WORKLOADS = {
    workload.name: workload for workload in (
        Workload("cold-job", "cold", ("iostorm", "os-mix"), (TECH,)),
        Workload("warm-sweep", "sweep", ("stream", "qsort", "iostorm"),
                 SWEEP_CONFIGS),
        Workload("observed-job", "observed", ("qsort", "iostorm"), (TECH,)),
    )
}


@dataclass
class PassOutcome:
    """One pass: host wall time, the run reports of the jobs that
    finished, and ``(job, error)`` for the jobs that raised."""

    wall_s: float
    jobs: int
    reports: list[dict]
    errors: list[tuple[str, str]]
    instructions: int


class Runner:
    """Runs passes of one workload.  Owns the results ledger (opened
    at construction, which the benchmark counts as set-up) and the
    trace-cache directories under *state*."""

    def __init__(self, workload: Workload, seed: int | None,
                 state: Path, ledger_path: Path) -> None:
        self.workload = workload
        self.traces = [TraceRef.of(name, seed) for name in workload.traces]
        self.warm_dir = state / "cache-warm"
        self.cold_root = state / "cold"
        self.ledger_path = ledger_path
        self.ledger = Ledger(ledger_path)

    def close(self) -> None:
        self.ledger.close()

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Build any trace missing from the disk-warm cache (building
        checks its self-check or scenario contract), then empty the
        in-memory tier so every pass loads from disk."""
        if self.workload.mode == "cold":
            self.cold_root.mkdir(parents=True, exist_ok=True)
            return
        suite.set_trace_cache_dir(self.warm_dir)
        for ref in self.traces:
            ref.build()
        suite.clear_trace_cache()

    def run_pass(self, spans=NULL_SPANS) -> PassOutcome:
        """One timed pass.  *spans* receives the benchmark's own spans
        (the pass, each job, recorder documents, run reports); the
        layer spans come from :mod:`layers` when it is installed."""
        mode = self.workload.mode
        cold_dir = None
        if mode == "cold":
            cold_dir = Path(tempfile.mkdtemp(prefix="pass-",
                                             dir=self.cold_root))
            suite.set_trace_cache_dir(cold_dir)
        else:
            suite.set_trace_cache_dir(self.warm_dir)
        suite.clear_trace_cache()
        run = self._sweep if mode == "sweep" else self._jobs
        start = time.perf_counter()
        with spans.span("pass", "bench", workload=self.workload.name):
            reports, errors = run(spans)
        wall = time.perf_counter() - start
        if cold_dir is not None:
            shutil.rmtree(cold_dir, ignore_errors=True)
        jobs = len(self.traces) * len(self.workload.configs)
        return PassOutcome(wall, jobs, reports, errors,
                           sum(report["instructions"]
                               for report in reports))

    # ------------------------------------------------------------------
    def _jobs(self, spans) -> tuple[list[dict], list[tuple[str, str]]]:
        observed = self.workload.mode == "observed"
        reports: list[dict] = []
        errors: list[tuple[str, str]] = []
        for ref in self.traces:
            for config_name in self.workload.configs:
                label = f"{ref.label}/{config_name}"
                with spans.span("job", "bench", job=label):
                    try:
                        reports.append(self._job(ref, config_name,
                                                 observed, spans))
                    except Exception as exc:   # a failed job is counted
                        errors.append((label,
                                       f"{type(exc).__name__}: {exc}"))
        return reports, errors

    def _job(self, ref: TraceRef, config_name: str, observed: bool,
             spans) -> dict:
        trace = ref.build()
        config = machine(config_name)
        identity = ref.identity()
        critpath = hotspots = None
        if observed:
            critpath = CritPathRecorder(whatif=[WHATIF_PORT])
            hotspots = HotspotRecorder()
            core = OoOCore(config, metrics_interval=DEFAULT_METRICS_INTERVAL,
                           critpath=critpath, hotspots=hotspots)
        else:
            core = OoOCore(config)
        start = time.perf_counter()
        result = core.run(trace)
        wall = time.perf_counter() - start
        documents = []
        if observed:
            with spans.span("obs.recorder_docs", "obs"):
                hotspots.check_conservation(result)
                critpath.check_conservation()
                hot = build_hotspots_report(hotspots, result, config,
                                            wall_time=wall, **identity)
                validate_hotspots_report(hot)
                crit = build_critpath_report(critpath, result, config,
                                             wall_time=wall, **identity)
                validate_critpath_report(crit)
                documents = [hot, crit]
        with spans.span("obs.report", "obs"):
            report = build_run_report(result, config, wall_time=wall,
                                      **identity)
        for document in (report, *documents):
            self.ledger.ingest(document, source="perfbench")
        return report

    def _sweep(self, spans) -> tuple[list[dict], list[tuple[str, str]]]:
        jobs = [SimJob((ref.label, config_name), ref.spec(),
                       machine(config_name))
                for ref in self.traces
                for config_name in self.workload.configs]
        engine = Engine(jobs=1, ledger=self.ledger_path)
        errors: list[tuple[str, str]] = []
        with spans.span("sweep", "bench", jobs=len(jobs)), \
                capture_reports() as sink:
            try:
                engine.execute(jobs)
            except EngineJobError as exc:
                errors = [(f"{failure['trace']}/{failure['config']}",
                           failure["error"]) for failure in exc.failures]
        return list(sink), errors


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------
def job_key(report: dict) -> str:
    return f"{report['workload']}@{report['scale']}/{report['config']['name']}"


def simulated(report: dict) -> dict:
    """The simulated result a speed-only change must leave identical:
    instructions, cycles, every counter and the stall totals."""
    stalls = report.get("stalls") or {}
    return {
        "instructions": report["instructions"],
        "cycles": report["cycles"],
        "counters": report["counters"],
        "stalls": {key: stalls.get(key) for key in
                   ("committed", "total_slots", "total_lost", "lost")},
    }


def _pinned_seed(report: dict) -> bool:
    spec = SCENARIOS.get(report["workload"])
    return spec is None or report["seed"] == spec.default_seed


def _differences(expected: dict, actual: dict, prefix: str = "") -> list[str]:
    keys = sorted(set(expected) | set(actual))
    found = []
    for key in keys:
        want, got = expected.get(key), actual.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            found.extend(_differences(want, got, f"{prefix}{key}."))
        elif want != got:
            found.append(f"{prefix}{key}: pinned {want!r}, got {got!r}")
    return found


class Checker:
    """Checks run reports: schema, agreement with the first pass of
    this process, and agreement with the pins at the pinned seed."""

    def __init__(self, pins: dict) -> None:
        self.pins = pins
        self._first: dict[str, dict] = {}

    def problems(self, report: dict) -> list[str]:
        try:
            validate_run_report(report)
        except SchemaError as exc:
            return [f"run report rejected: {exc}"]
        key = job_key(report)
        result = simulated(report)
        found = []
        first = self._first.setdefault(key, result)
        if first != result:
            found.append(f"{key}: differs from its first pass in this run")
        if _pinned_seed(report):
            pin = self.pins.get(key)
            if pin is None:
                found.append(f"{key}: no pinned result")
            else:
                found.extend(f"{key}: {line}"
                             for line in _differences(pin, result)[:5])
        return found


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def write_pins(cache_dir: Path) -> dict:
    """Simulate every job of every workload once at the pinned seeds
    (fast loop, no recorders) and write ``pins.json``."""
    suite.set_trace_cache_dir(cache_dir)
    jobs: dict[str, dict] = {}
    for workload in WORKLOADS.values():
        for name in workload.traces:
            ref = TraceRef.of(name, None)
            trace = ref.build()
            for config_name in workload.configs:
                config = machine(config_name)
                result = OoOCore(config).run(trace)
                report = build_run_report(result, config, **ref.identity())
                jobs[job_key(report)] = simulated(report)
    document = {
        "scale": SCALE,
        "seeds": {name: spec.default_seed
                  for name, spec in SCENARIOS.items()},
        "jobs": dict(sorted(jobs.items())),
    }
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document
