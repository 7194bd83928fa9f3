"""The probe: the one interface every recorder consumes.

Each component of the timing model — core, LSQ, D-cache, line buffer,
write buffer, next level — holds one ``probe`` attribute, ``None``
unless a recorder is attached, and reports its pipeline events to it
behind a single ``if probe is not None:`` check.  :class:`Probe` has
one no-op method per event; a recorder overrides the ones it uses (the
event table is in ``docs/OBSERVABILITY.md``).  ``reason`` names the
recorder in the fast-path rejection (``CoreResult.fastpath_reason``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.lsq import LoadStoreQueue
    from ..core.pipeline import OoOCore
    from ..core.uop import Uop
    from ..trace.record import TraceRecord
    from .stall import StallCause


class Probe:
    """No-op event methods; a recorder overrides the ones it uses."""

    reason = "probe attached"

    def on_begin(self, core: "OoOCore") -> None:
        """``run()`` entry."""

    def on_cycle_end(self, core: "OoOCore", cycle: int) -> None:
        """All stages of *cycle* are done."""

    def on_drain(self, core: "OoOCore", cycle: int) -> None:
        """The loop exited after *cycle* cycles; the machine is empty."""

    def on_commit(self, uop: "Uop", cycle: int) -> None:
        """*uop* left the ROB head."""

    def on_stall(self, cycle: int, commits: int,
                 cause: "StallCause | None", lost: int,
                 head: "Uop | None") -> None:
        """*commits* uops retired this cycle; unless the cycle was full
        (*cause* ``None``), the ledger charged *lost* slots to *cause*,
        blaming the commit head *head* (``None``: empty window)."""

    def on_redirect(self, cycle: int, resume: int, kind: str,
                    uop: "Uop") -> None:
        """Fetch resumes at *resume* after a ``branch`` resolve, a
        ``serialize`` commit or a ``decode``-stage jump of *uop*."""

    def on_dispatch_block(self, uop: "Uop", structure: str) -> None:
        """A full ROB/IQ/LQ/SQ (*structure*) stopped dispatch of *uop*."""

    def on_commit_block(self, uop: "Uop", reason: str) -> None:
        """Commit of store *uop* blocked (``store_port``/``wb_full``)."""

    def on_dep(self, consumer: "Uop", producer: "Uop",
               is_data: bool) -> None:
        """Dispatch wired *consumer* to the incomplete *producer*."""

    def on_load_serviced(self, lsq: "LoadStoreQueue", load: "Uop",
                         ready: int, source: str, cycle: int) -> None:
        """The LSQ serviced *load* from *source*, data ready at *ready*;
        ``load.lsq_block`` still names its last wait."""

    def on_lsq_wait(self, load: "Uop", stat: str) -> None:
        """*load* waited this cycle; *stat* is the ``lsq.*`` counter."""

    def on_lsq_combine(self, batch: "list[Uop]") -> None:
        """All loads of *batch* after the first rode its port access."""

    def on_dcache_counter(self, record: "TraceRecord | None",
                          stat: str) -> None:
        """A ``dcache.*`` event of the access by *record* (``None``: a
        write-buffer drain)."""

    def on_dcache_port(self, record: "TraceRecord | None",
                       port: int) -> None:
        """The access by *record* took physical port *port*."""

    def emit(self, cycle: int, event: str, **fields: object) -> None:
        """A structured trace event (``repro.obs.tracer`` schema)."""

    def on_mem(self, event: str, **fields: object) -> None:
        """A next-level ``mem.refill`` or ``mem.writeback``."""

    def digests(self) -> dict[str, str] | None:
        """Architectural end-state digests (the golden checker's)."""
        return None


#: Every event method of the protocol.
EVENTS = tuple(name for name in vars(Probe)
               if name.startswith("on_")) + ("emit",)


def _handles(consumer: Probe, name: str) -> bool:
    # A nested fan-out binds its events per instance.
    method = getattr(consumer, name)
    return getattr(method, "__func__", None) is not getattr(Probe, name)


def _fan(methods: list[Callable]) -> Callable:
    def fan(*args, **kwargs):
        for method in methods:
            method(*args, **kwargs)
    return fan


class ProbeFanout(Probe):
    """Forwards each event to the consumers that handle it, in order.
    An event one consumer handles is bound straight to its method, so
    it costs no more than attaching that consumer alone.  ``reason``
    is the first consumer's."""

    def __init__(self, consumers: list[Probe]) -> None:
        self.consumers = list(consumers)
        if self.consumers:
            self.reason = self.consumers[0].reason
        for name in EVENTS:
            methods = [getattr(consumer, name) for consumer in self.consumers
                       if _handles(consumer, name)]
            if methods:
                setattr(self, name,
                        methods[0] if len(methods) == 1 else _fan(methods))

    def digests(self) -> dict[str, str] | None:
        for consumer in self.consumers:
            digests = consumer.digests()
            if digests is not None:
                return digests
        return None


def combine(consumers: list[Probe | None]) -> Probe | None:
    """The one probe for *consumers* (``None`` entries skipped): none,
    the consumer itself, or a fan-out."""
    attached = [consumer for consumer in consumers if consumer is not None]
    if len(attached) > 1:
        return ProbeFanout(attached)
    return attached[0] if attached else None
