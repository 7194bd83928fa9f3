"""Fast-path vs instrumented-path differential equivalence.

The fast cycle loop (:mod:`repro.core.fastpath`) must be **byte
identical** to the instrumented reference loop: same cycle count, same
committed instructions, every statistic, the whole stall ledger, the
load-latency histogram, and the architectural digests.  These tests
prove it across the full F2 configuration grid and over random fuzzer
programs, so any future fast-path optimization that drifts from the
reference is caught by tier-1 (including the ``REPRO_VALIDATE=1``
matrix — the differential harness itself force-disables the implicit
validator so the fast path stays eligible, and the comparison is
slow-with-validator-off vs fast).
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.core import pipeline
from repro.core.pipeline import OoOCore
from repro.func import run_bare
from repro.presets import CONFIG_NAMES, machine
from repro.scenarios.verify import result_view as _result_view
from repro.trace.fuzz import generate_program
from repro.workloads import build_scenario_trace, build_trace

#: Workloads for the grid sweep (tiny keeps the full grid fast).
GRID_WORKLOADS = ("stream", "qsort")

#: Scenario-corpus entries for the full-system sweep: interrupt-heavy
#: and syscall-dense streams exercise trap entries, context-switch
#: bursts, and the kernel console copy loop on both cycle loops.
SCENARIO_TRACES = ("iostorm", "syspipe")

#: Fuzzer seeds for the random-program sweep.
FUZZ_SEEDS = (11, 29, 63)


def _run_pair(config_name: str, trace, monkeypatch) -> tuple[dict, dict]:
    """Run *trace* through the reference loop and the fast loop on
    identical machines; returns both views."""
    # The implicit REPRO_VALIDATE checker would force the reference
    # loop on both cores; the differential needs a bare fast-path run.
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    slow_core = OoOCore(machine(config_name), fastpath=False)
    slow = slow_core.run(trace)
    assert not slow_core.used_fastpath
    fast_core = OoOCore(machine(config_name), fastpath=True)
    fast = fast_core.run(trace)
    assert fast_core.used_fastpath
    return _result_view(slow), _result_view(fast)


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_fastpath_matches_reference_on_f2_grid(
        workload, config_name, monkeypatch):
    trace = build_trace(workload, "tiny")
    slow, fast = _run_pair(config_name, trace, monkeypatch)
    assert fast == slow


@pytest.mark.parametrize("scenario", SCENARIO_TRACES)
@pytest.mark.parametrize("config_name", ("1P", "2P", "1P-wide+LB+SC"))
def test_fastpath_matches_reference_on_scenarios(
        scenario, config_name, monkeypatch):
    # Full-system traces: kernel instructions, syscalls, and timer
    # interrupts included.  The whole CoreResult view (stats, ledger,
    # load-latency histogram, digests) must be byte-identical.
    trace = build_scenario_trace(scenario, "tiny")
    slow, fast = _run_pair(config_name, trace, monkeypatch)
    assert fast == slow


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fastpath_matches_reference_on_fuzz_programs(seed, monkeypatch):
    func = run_bare(assemble(generate_program(seed)), collect_trace=True)
    assert func.trace, "fuzz program produced an empty trace"
    for config_name in ("1P", "1P-wide+LB+SC", "2P+SC"):
        slow, fast = _run_pair(config_name, func.trace, monkeypatch)
        assert fast == slow, f"divergence on {config_name}"


def test_fastpath_auto_selection(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"))
    core.run(stream_trace)
    assert core.used_fastpath


def test_instrumented_core_stays_on_reference_loop(stream_trace,
                                                   monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), metrics_interval=64)
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert result.metrics is not None


def test_fastpath_true_with_instrumentation_raises(stream_trace,
                                                   monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), metrics_interval=64, fastpath=True)
    with pytest.raises(ValueError, match="fastpath=True"):
        core.run(stream_trace)


def test_critpath_recorder_rejects_fastpath(stream_trace, monkeypatch):
    from repro.obs.critpath import CritPathRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), critpath=CritPathRecorder())
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert not result.used_fastpath
    assert result.fastpath_reason == "critpath recorder attached"


def test_fastpath_true_with_critpath_raises(stream_trace, monkeypatch):
    from repro.obs.critpath import CritPathRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), critpath=CritPathRecorder(),
                   fastpath=True)
    with pytest.raises(ValueError, match="fastpath=True"):
        core.run(stream_trace)


def test_hotspots_recorder_rejects_fastpath(stream_trace, monkeypatch):
    from repro.obs.hotspots import HotspotRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), hotspots=HotspotRecorder())
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert not result.used_fastpath
    assert result.fastpath_reason == "hotspots recorder attached"


def test_fastpath_true_with_hotspots_raises(stream_trace, monkeypatch):
    from repro.obs.hotspots import HotspotRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), hotspots=HotspotRecorder(),
                   fastpath=True)
    with pytest.raises(ValueError, match="hotspots"):
        core.run(stream_trace)


def test_result_surfaces_fastpath_use(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    result = OoOCore(machine("1P")).run(stream_trace)
    assert result.used_fastpath and result.fastpath_reason is None
    rejected = OoOCore(machine("1P"), metrics_interval=64).run(stream_trace)
    assert not rejected.used_fastpath
    assert "metrics" in rejected.fastpath_reason


def test_env_validate_forces_reference_loop(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", True)
    core = OoOCore(machine("1P"))
    core.run(stream_trace)
    assert not core.used_fastpath
    assert core.probe is not None


def _recorders(names):
    """Fresh recorders for *names*, as OoOCore keyword arguments."""
    import io

    from repro.obs.critpath import CritPathRecorder
    from repro.obs.hotspots import HotspotRecorder
    from repro.obs.pipetrace import PipeTrace
    from repro.obs.selfprof import SelfProfiler
    from repro.obs.spans import SpanRecorder
    from repro.obs.tracer import NULL_TRACER, JsonlTracer
    from repro.validate import InvariantChecker
    factories = {
        "tracer": ("tracer", lambda: JsonlTracer(io.StringIO())),
        "null_tracer": ("tracer", lambda: NULL_TRACER),
        "validator": ("validator", InvariantChecker),
        "metrics": ("metrics_interval", lambda: 64),
        "pipe": ("pipe_trace", PipeTrace),
        "profiler": ("profiler", SelfProfiler),
        "spans": ("spans", SpanRecorder),
        "critpath": ("critpath", CritPathRecorder),
        "hotspots": ("hotspots", HotspotRecorder),
    }
    return {factories[name][0]: factories[name][1]() for name in names}


#: Several recorders at once: the reason names the first in precedence
#: order (tracer, validator, metrics, pipe trace, self-profiler,
#: critpath, hotspots).  A disabled tracer is not attached at all.
REASON_PRECEDENCE = [
    (("hotspots", "tracer"), "tracer attached"),
    (("critpath", "metrics", "validator"), "validator attached"),
    (("hotspots", "pipe", "metrics"), "interval metrics attached"),
    (("profiler", "pipe"), "pipe trace attached"),
    (("hotspots", "critpath", "spans"), "self-profiler attached"),
    (("hotspots", "critpath"), "critpath recorder attached"),
    (("hotspots", "null_tracer"), "hotspots recorder attached"),
]


@pytest.mark.parametrize("names,reason", REASON_PRECEDENCE)
def test_fastpath_reason_precedence(names, reason, stream_trace,
                                    monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    result = OoOCore(machine("1P"), **_recorders(names)).run(stream_trace)
    assert not result.used_fastpath
    assert result.fastpath_reason == reason
    with pytest.raises(ValueError, match=reason):
        OoOCore(machine("1P"), fastpath=True,
                **_recorders(names)).run(stream_trace)


def test_disabled_tracer_keeps_fastpath(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    result = OoOCore(machine("1P"),
                     **_recorders(("null_tracer",))).run(stream_trace)
    assert result.used_fastpath and result.fastpath_reason is None
