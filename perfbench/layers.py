"""Layer spans for the traced run, recorded from the benchmark's side.

:class:`LayerTracer` wraps the entry point of each layer a job passes
through and records one span per call on a
:class:`repro.obs.spans.SpanRecorder`.  Nothing inside ``repro`` is
edited: the wrappers replace the entry points while the tracer is
installed and put the originals back on :meth:`LayerTracer.uninstall`.
The untraced passes of the same process run the unwrapped code.

The split of the core into precompute and loop is the benchmark's
doing: before ``OoOCore.run`` on a core that will take the fast loop,
the tracer calls the fast path's memoised precompute with the same
geometry arguments the loop passes, so the loop itself then hits the
memo.  An entry point that a later version of ``repro`` no longer has
is simply not wrapped; its time then shows up in ``other_s``.

:func:`summarize` turns the recorded spans into the per-layer metrics:
each layer's *self* time (span minus nested layer spans), ``other_s``
(the benchmark's own pass/job spans), and the exact accounting check
that layer self times plus ``other_s`` equal the pass spans.
"""

from __future__ import annotations

import os
from collections import Counter

from repro.asm.assembler import Assembler
from repro.core import fastpath
from repro.core.pipeline import OoOCore
from repro.experiments import engine
from repro.func.interp import Interpreter
from repro.obs.ledger import Ledger
from repro.obs.spans import SpanRecorder, chrome_trace, parse_chrome_trace
from repro.scenarios import runtime
from repro.trace import io as trace_io

#: Layer span name -> per-layer metric name.
LAYER_METRICS = {
    "asm.assemble": "asm.assemble_s",
    "func.build": "func.build_s",
    "scenarios.contract": "scenarios.contract_s",
    "trace.save": "trace.save_s",
    "trace.load": "trace.load_s",
    "core.precompute": "core.precompute_s",
    "core.loop": "core.loop_s",
    "core.ref_loop": "core.ref_loop_s",
    "obs.recorder_docs": "obs.recorder_docs_s",
    "obs.report": "obs.report_s",
    "obs.ledger_ingest": "obs.ledger_ingest_s",
}


class LayerTracer:
    """Records layer spans while installed.  ``recorder`` also takes
    the benchmark's own spans (passes, jobs); ``counts`` collects the
    work done at the same boundaries."""

    def __init__(self, label: str) -> None:
        self.recorder = SpanRecorder(label)
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        counts = self.counts

        def retired(args, result):
            counts["func.instructions"] += args[0].retired

        def file_size(args, result):
            try:
                counts["trace.file_bytes"] += os.path.getsize(args[0])
            except OSError:
                pass

        def ingested(args, result):
            counts["obs.ledger_new"] += bool(result)

        self._wrap(Assembler, "assemble", "asm.assemble")
        self._wrap(Interpreter, "run", "func.build", retired)
        self._wrap(runtime, "check_contract", "scenarios.contract")
        self._wrap(trace_io, "save_trace_atomic", "trace.save", file_size)
        self._wrap(trace_io, "load_trace", "trace.load", file_size)
        self._wrap(engine, "build_run_report", "obs.report")
        self._wrap(Ledger, "__init__", "obs.ledger_ingest")
        self._wrap(Ledger, "ingest", "obs.ledger_ingest", ingested)
        self._wrap_core_run()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(self, name: str, cat: str = "bench", **args):
        return self.recorder.span(name, cat, **args)

    # ------------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = vars(owner).get(attr)
        if original is None:
            return
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            recorder.begin(name, "layer")
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.end()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap_core_run(self) -> None:
        original = vars(OoOCore)["run"]
        recorder = self.recorder
        counts = self.counts
        precompute = getattr(fastpath, "_precompute_cached", None)

        def run(core, trace):
            rejection = getattr(core, "_fastpath_rejection", None)
            if precompute is not None and (rejection is None
                                           or rejection() is None):
                dcache, icache = core.mem.dcache, core.mem.icache
                with recorder.span("core.precompute", "layer"):
                    precompute(trace, dcache.line_shift,
                               dcache.chunk_shift, dcache.line_size,
                               icache.fetch_bytes)
            # The span is named after the loop that actually ran, so it
            # is laid down once the run returns.
            start = recorder.now_us()
            name = "core.loop"
            try:
                result = original(core, trace)
                if not result.used_fastpath:
                    name = "core.ref_loop"
                counts[f"{name}.instructions"] += result.instructions
                return result
            finally:
                recorder.add("B", name, "layer", start)
                recorder.add("E", name, "layer", recorder.now_us())

        OoOCore.run = run
        self._patches.append((OoOCore, "run", original))


# ----------------------------------------------------------------------
def _self_times(span, totals: Counter) -> None:
    """Add each span's self time (µs) to *totals*, keyed by name."""
    nested = 0
    for child in span.children:
        nested += child.dur
        _self_times(child, totals)
    totals[span.name] += span.dur - nested


def summarize(tracer: LayerTracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the recorded spans.

    Every span is either a layer span or one of the benchmark's own
    (pass, job, sweep, ...).  Self times partition each pass span
    exactly, so the layer self times plus ``other_s`` equal the traced
    wall time to the microsecond; a mismatch raises.
    """
    roots = [root for track in parse_chrome_trace(
        chrome_trace(tracer.recorder.events())).values() for root in track]
    wall_us = sum(root.dur for root in roots if root.name == "pass")
    totals: Counter = Counter()
    for root in roots:
        _self_times(root, totals)
    layer_us = sum(totals[name] for name in LAYER_METRICS)
    other_us = sum(us for name, us in totals.items()
                   if name not in LAYER_METRICS)
    if layer_us + other_us != wall_us:
        raise RuntimeError(
            f"layer accounting does not close: layers {layer_us} us + "
            f"other {other_us} us != traced wall {wall_us} us")
    counts = tracer.counts
    metrics = {metric: totals[name] / 1e6 / passes
               for name, metric in LAYER_METRICS.items()}
    metrics["other_s"] = other_us / 1e6 / passes
    metrics["traced_wall_s"] = wall_us / 1e6 / passes
    metrics["trace.file_mb"] = counts["trace.file_bytes"] / 1e6 / passes
    metrics["obs.ledger_new"] = counts["obs.ledger_new"] / passes

    def kips(instructions: int, seconds: float) -> float:
        return instructions / 1000 / seconds if seconds > 0 else 0.0

    func_s = totals["func.build"] / 1e6
    loop_s = totals["core.loop"] / 1e6
    ref_s = totals["core.ref_loop"] / 1e6
    fast = counts["core.loop.instructions"]
    ref = counts["core.ref_loop.instructions"]
    metrics["func.kips"] = kips(counts["func.instructions"], func_s)
    metrics["core.loop_kips"] = kips(fast, loop_s)
    metrics["core.ref_loop_kips"] = kips(ref, ref_s)
    metrics["core.fastpath_share"] = fast / (fast + ref) if fast + ref else 0.0
    return metrics
