"""Recorder documents through the single probe attach point.

Every recorder hangs off the timing core's one ``probe``.  These tests
pin what that must not change:

* **Identity.**  The SHA-256 of each deterministic recorder document for
  qsort@tiny on ``1P-wide+LB+SC`` — and of the run's ``CoreResult``
  view — is pinned.  The digests were captured before the recorders
  were moved onto the probe and must never be regenerated to make a
  change pass: a mismatch means a document changed.
* **Composition.**  Attaching every recorder at once gives each one
  exactly the document it gives when attached alone.
* **Fan-out.**  One probe forwards each event to the consumers that
  handle it, in order, binding single-consumer events directly.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from repro.asm import assemble
from repro.core.pipeline import OoOCore
from repro.func import run_bare
from repro.obs.codeversion import CODE_VERSION_ENV
from repro.obs.critpath import CritPathRecorder, build_critpath_report
from repro.obs.hotspots import HotspotRecorder, build_hotspots_report
from repro.obs.metrics import DEFAULT_METRICS_INTERVAL
from repro.obs.pipetrace import PipeTrace
from repro.obs.probe import Probe, ProbeFanout, combine
from repro.obs.selfprof import COMPONENTS, SELFPROFILE_SCHEMA, SelfProfiler
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import JsonlTracer
from repro.presets import machine
from repro.scenarios.verify import result_view
from repro.validate import InvariantChecker
from repro.workloads import build_scenario_trace, build_trace
from repro.workloads.suite import WORKLOADS

#: Recorders whose documents are deterministic, in attach order.
RECORDERS = ("tracer", "validator", "metrics", "pipe", "critpath",
             "hotspots")

#: SHA-256 of each document for qsort@tiny on 1P-wide+LB+SC, run on a
#: freshly built trace (see :func:`fresh_qsort`).
PINNED = {
    "tracer":
        "b6ac1ccd41b9bece6b05337cea21bab86ca6a973c1448a55ce196b9bdcfdfb9c",
    "validator":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "metrics":
        "3979274cc5f61c58e68adb9c7d787b373f5fe4d531cace10af43512d6bf2eb5f",
    "pipe":
        "2f743a34f15ead19766a75ac57b336bb9527eef97979b8c844aa8f0c0945bf8b",
    "critpath":
        "4bd510b16640e6db3ae61747997204d20ea7008219320ba20b1e6bb525132d86",
    "hotspots":
        "1ac240dbdd4a0616a42eb5da5133d322a3b89339513aef03b46e7305359027ec",
    "result":
        "123d9b9918271701b98dedf9c4b072d5986ced15a1e6ae916f67766d8f8f0a43",
}


@pytest.fixture(autouse=True)
def _fixed_code_version(monkeypatch):
    # Reports stamp the code version; pin it so documents compare
    # across trees.
    monkeypatch.setenv(CODE_VERSION_ENV, "probe-test")


def _documents(trace, config_name: str, names, workload: str,
               profile: bool = False) -> dict[str, str]:
    """Run *trace* once with the recorders in *names* attached and
    return each one's serialized document, plus the result view."""
    config = machine(config_name)
    kwargs: dict[str, object] = {}
    stream = io.StringIO()
    if "tracer" in names:
        kwargs["tracer"] = JsonlTracer(stream)
    if "validator" in names:
        kwargs["validator"] = InvariantChecker()
    if "metrics" in names:
        kwargs["metrics_interval"] = DEFAULT_METRICS_INTERVAL
    if "pipe" in names:
        kwargs["pipe_trace"] = PipeTrace()
    if "critpath" in names:
        kwargs["critpath"] = CritPathRecorder(whatif=["dcache_port"])
    if "hotspots" in names:
        kwargs["hotspots"] = HotspotRecorder()
    if profile:
        kwargs["profiler"] = SelfProfiler(interval=256)
        kwargs["spans"] = SpanRecorder("probe-test")
    result = OoOCore(config, **kwargs).run(trace)
    assert not result.used_fastpath
    docs = {"result": json.dumps(result_view(result))}
    if "tracer" in names:
        kwargs["tracer"].close()
        docs["tracer"] = stream.getvalue()
    if "validator" in names:
        docs["validator"] = json.dumps(
            [v.as_dict() for v in kwargs["validator"].violations])
    if "metrics" in names:
        docs["metrics"] = json.dumps(result.metrics.as_dict())
    if "pipe" in names:
        rendered = io.StringIO()
        kwargs["pipe_trace"].write(rendered)
        docs["pipe"] = rendered.getvalue()
    if "critpath" in names:
        docs["critpath"] = json.dumps(build_critpath_report(
            kwargs["critpath"], result, config, workload=workload,
            scale="tiny"))
    if "hotspots" in names:
        docs["hotspots"] = json.dumps(build_hotspots_report(
            kwargs["hotspots"], result, config, workload=workload,
            scale="tiny"))
    if profile:
        document = kwargs["profiler"].as_dict()
        assert document["schema"] == SELFPROFILE_SCHEMA
        assert document["components"] == list(COMPONENTS)
        assert document["cycles"] == result.cycles
        spans = {event["name"] for event in kwargs["spans"].events()}
        assert {"core.run", "pipeline.chunk", "mem.refill"} <= spans
    return docs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def fresh_qsort():
    """qsort@tiny straight from the functional simulator.  A trace
    loaded from the disk cache carries no instruction objects, so the
    pipe trace would label rows by op class instead of disassembly."""
    spec = WORKLOADS["qsort"]
    source = spec.source(**spec.params("tiny"))
    return run_bare(assemble(source, source_name="<qsort>"),
                    collect_trace=True).trace


@pytest.mark.parametrize("name", RECORDERS)
def test_document_matches_pinned_digest(name, fresh_qsort):
    docs = _documents(fresh_qsort, "1P-wide+LB+SC", (name,), "qsort")
    assert _digest(docs[name]) == PINNED[name]
    assert _digest(docs["result"]) == PINNED["result"]


def _trace(workload: str):
    if workload == "iostorm":
        return build_scenario_trace("iostorm", "tiny")
    return build_trace(workload, "tiny")


@pytest.mark.parametrize("workload", ("qsort", "iostorm"))
@pytest.mark.parametrize("config_name", ("1P", "1P-wide+LB+SC"))
def test_every_recorder_at_once_matches_each_alone(workload, config_name):
    trace = _trace(workload)
    together = _documents(trace, config_name, RECORDERS, workload,
                          profile=True)
    for name in RECORDERS:
        alone = _documents(trace, config_name, (name,), workload)
        assert together[name] == alone[name], name
        assert together["result"] == alone["result"], name


# ----------------------------------------------------------------------
# The fan-out itself
# ----------------------------------------------------------------------
class _Log(Probe):
    reason = "log attached"

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def on_commit(self, uop, cycle: int) -> None:
        self.log.append((self.name, "commit", cycle))

    def emit(self, cycle: int, event: str, **fields) -> None:
        self.log.append((self.name, event, cycle))


class _Deps(Probe):
    def __init__(self, log: list) -> None:
        self.log = log

    def on_dep(self, consumer, producer, is_data: bool) -> None:
        self.log.append(("deps", consumer, producer, is_data))


def test_combine_collapses_to_the_consumer_or_none():
    first = _Log("first", [])
    assert combine([None, None]) is None
    assert combine([None, first]) is first
    fanout = combine([first, _Deps([])])
    assert isinstance(fanout, ProbeFanout)
    assert fanout.reason == "log attached"


def test_fanout_binds_single_consumer_events_directly():
    log: list = []
    first, deps = _Log("first", log), _Deps(log)
    fanout = ProbeFanout([first, deps])
    assert fanout.on_commit == first.on_commit
    assert fanout.on_dep == deps.on_dep
    # No consumer handles it: the no-op stays.
    assert fanout.on_stall.__func__ is Probe.on_stall
    fanout.on_dep(1, 0, True)
    assert log == [("deps", 1, 0, True)]


def test_fanout_forwards_in_consumer_order_and_nests():
    log: list = []
    inner = ProbeFanout([_Log("b", log), _Log("c", log)])
    fanout = ProbeFanout([_Log("a", log), inner])
    fanout.on_commit(None, 7)
    fanout.emit(8, "wb.add", line=1, merged=False)
    assert log == [("a", "commit", 7), ("b", "commit", 7),
                   ("c", "commit", 7), ("a", "wb.add", 8),
                   ("b", "wb.add", 8), ("c", "wb.add", 8)]
