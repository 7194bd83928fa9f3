"""Interval time-series telemetry: how the run behaved *over time*.

End-of-run counters answer "how much"; this module answers "when".
When enabled, the collector (a :mod:`repro.obs.probe` consumer)
samples the core at every cycle end through
:meth:`IntervalMetrics.on_cycle`, and:

* samples structure occupancies (ROB, IQ, LQ, SQ, write buffer), cache
  ports in use, and busy MSHRs into exact run-level
  :class:`~repro.stats.histogram.Histogram`\\ s;
* closes an **interval** every ``interval`` cycles, recording the
  committed-instruction delta (→ interval IPC), the per-port D-cache
  utilization, the deltas of a tracked counter set (line-buffer /
  write-buffer / victim hit activity, port uses, forwards), and the
  interval's mean occupancies.

The collector is *conservation-exact* by construction — every interval
series is a partition of the end-of-run value:

* ``sum(cycles per interval) == total cycles``
* ``sum(committed per interval) == retired instructions``
* ``sum(counter delta per interval) == final counter value`` for every
  tracked counter
* every occupancy histogram holds exactly one sample per cycle, and the
  ports histogram's weighted sum equals ``dcache.port_uses``

:meth:`check_conservation` verifies all of this and the test suite
asserts it over the full F2 headline grid.  Telemetry is off by
default.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..stats.counters import Stats
from ..stats.histogram import Histogram
from .probe import Probe

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.pipeline import OoOCore

#: Default sampling interval, in cycles (matches the stall ledger).
DEFAULT_METRICS_INTERVAL = 1024

#: Counters tracked as per-interval deltas.  The set covers the paper's
#: techniques end to end: port pressure, line-buffer/write-buffer/victim
#: behaviour, and the LSQ's routing decisions.
TRACKED_COUNTERS = (
    "dcache.port_uses",
    "dcache.load_hits",
    "dcache.load_misses",
    "dcache.load_secondary_misses",
    "dcache.bank_conflicts",
    "lb.hits",
    "lb.misses",
    "lsq.lb_loads",
    "lsq.port_loads",
    "lsq.combined_loads",
    "lsq.sq_forwards",
    "lsq.wb_forwards",
    "wb.combined",
    "wb.drains",
    "wb.full_stalls",
    "wb.load_forwards",
    "victim.hits",
    "victim.misses",
)

#: Structures whose occupancy is sampled every cycle.
OCCUPANCY_STRUCTURES = ("rob", "iq", "lq", "sq", "wb", "ports", "mshr")


@dataclass
class Interval:
    """One closed sampling window."""

    index: int
    start_cycle: int
    cycles: int
    committed: int
    #: Tracked-counter deltas over this window.
    counters: dict[str, float]
    #: Mean occupancy per structure over this window.
    occupancy: dict[str, float]

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class IntervalMetrics(Probe):
    """Per-interval telemetry collector (one per simulation run)."""

    reason = "interval metrics attached"

    def __init__(self, stats: Stats, ports: int,
                 interval: int = DEFAULT_METRICS_INTERVAL,
                 counters: tuple[str, ...] = TRACKED_COUNTERS) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        if ports < 1:
            raise ValueError("ports must be positive")
        self.stats = stats
        self.ports = ports
        self.interval = interval
        self.counters = tuple(counters)
        self.intervals: list[Interval] = []
        self.histograms = {name: Histogram(name)
                           for name in OCCUPANCY_STRUCTURES}
        self._snapshot = {name: 0.0 for name in self.counters}
        self._committed_at_close = 0
        self._start_cycle = 0
        # One occupancy tuple per cycle of the open interval, folded
        # into the histograms when the interval closes (on_cycle runs
        # once per simulated cycle, so it only appends).
        self._samples: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    def on_cycle(self, cycle: int, committed: int, rob: int, iq: int,
                 lq: int, sq: int, wb: int, ports_used: int,
                 mshr_busy: int) -> None:
        """Sample one finished cycle."""
        samples = self._samples
        samples.append((rob, iq, lq, sq, wb, ports_used, mshr_busy))
        if len(samples) == self.interval:
            self._close(committed)

    def on_cycle_end(self, core: "OoOCore", cycle: int) -> None:
        dcache = core.mem.dcache
        lsq = core.lsq
        self.on_cycle(cycle, core._committed, len(core._rob),
                      len(core._iq), len(lsq.loads), len(lsq.stores),
                      len(dcache.write_buffer), dcache.ports_used,
                      dcache.mshrs_busy())

    def on_drain(self, core: "OoOCore", cycle: int) -> None:
        self.finalize(core._committed)

    def finalize(self, committed: int) -> None:
        """Close the trailing partial interval (end of run)."""
        if self._samples:
            self._close(committed)

    def _close(self, committed: int) -> None:
        samples = self._samples
        cycles = len(samples)
        occupancy: dict[str, float] = {}
        for name, column in zip(OCCUPANCY_STRUCTURES, zip(*samples)):
            # Counter keeps first-seen order, so each histogram's keys
            # arrive in the order per-cycle recording would give them.
            hist = self.histograms[name]
            for value, count in Counter(column).items():
                hist.record(value, count)
            occupancy[name] = sum(column) / cycles
        deltas: dict[str, float] = {}
        stats = self.stats
        for name in self.counters:
            value = stats.get(name)
            deltas[name] = value - self._snapshot[name]
            self._snapshot[name] = value
        self.intervals.append(Interval(
            index=len(self.intervals),
            start_cycle=self._start_cycle,
            cycles=cycles,
            committed=committed - self._committed_at_close,
            counters=deltas,
            occupancy=occupancy,
        ))
        self._committed_at_close = committed
        self._start_cycle += cycles
        self._samples = []

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(interval.cycles for interval in self.intervals)

    @property
    def total_committed(self) -> int:
        return sum(interval.committed for interval in self.intervals)

    def port_utilization(self, interval: Interval) -> float:
        """Fraction of this window's port-cycles actually used."""
        return interval.counters.get("dcache.port_uses", 0.0) / \
            (self.ports * interval.cycles) if interval.cycles else 0.0

    def series(self, counter: str) -> list[float]:
        """Per-interval deltas of one tracked counter."""
        return [interval.counters.get(counter, 0.0)
                for interval in self.intervals]

    # ------------------------------------------------------------------
    def check_conservation(self, cycles: int,
                           instructions: int) -> list[str]:
        """Reconcile every interval series against the end-of-run
        counters; returns a list of problems (empty = conserved)."""
        problems: list[str] = []
        if self.total_cycles != cycles:
            problems.append(
                f"interval cycles sum to {self.total_cycles}, "
                f"run has {cycles}")
        if self.total_committed != instructions:
            problems.append(
                f"interval committed sums to {self.total_committed}, "
                f"run retired {instructions}")
        for name in self.counters:
            total = sum(self.series(name))
            final = self.stats.get(name)
            if total != final:
                problems.append(
                    f"counter {name}: interval deltas sum to {total}, "
                    f"final value is {final}")
        for name, hist in self.histograms.items():
            if hist.total != cycles:
                problems.append(
                    f"occupancy {name}: {hist.total} samples for "
                    f"{cycles} cycles")
        ports_hist = self.histograms["ports"]
        weighted = sum(value * count
                       for value, count in ports_hist.as_dict().items())
        port_uses = self.stats.get("dcache.port_uses")
        if weighted != port_uses:
            problems.append(
                f"ports histogram weighs {weighted} uses, "
                f"dcache.port_uses is {port_uses}")
        return problems

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """Column-oriented JSON snapshot for the run report."""
        intervals = self.intervals

        def integral(value: float) -> object:
            return int(value) if float(value).is_integer() else value

        return {
            "interval": self.interval,
            "ports": self.ports,
            "n_intervals": len(intervals),
            "start_cycle": [i.start_cycle for i in intervals],
            "cycles": [i.cycles for i in intervals],
            "committed": [i.committed for i in intervals],
            "ipc": [i.ipc for i in intervals],
            "port_util": [self.port_utilization(i) for i in intervals],
            "counters": {name: [integral(i.counters[name])
                                for i in intervals]
                         for name in self.counters},
            "occupancy_mean": {name: [i.occupancy[name] for i in intervals]
                               for name in OCCUPANCY_STRUCTURES},
            "occupancy": {name: {
                "samples": hist.total,
                "mean": hist.mean,
                "p50": hist.percentile_or(0.5),
                "p90": hist.percentile_or(0.9),
                "max": hist.max if hist.total else 0,
            } for name, hist in self.histograms.items()},
        }

    def summary(self) -> str:
        """One human line for the CLI."""
        if not self.intervals:
            return "no intervals recorded"
        utils = [self.port_utilization(i) for i in self.intervals]
        ipcs = [i.ipc for i in self.intervals]
        return (f"{len(self.intervals)} intervals of {self.interval} "
                f"cycles; IPC {min(ipcs):.2f}..{max(ipcs):.2f}, "
                f"port util {min(utils):.1%}..{max(utils):.1%}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntervalMetrics(interval={self.interval}, "
                f"n={len(self.intervals)})")
