"""The shared next level: unified L2 cache backed by main memory.

A single request stream with simple queueing: each request occupies the
L2 for ``occupancy`` cycles, so bursts of L1 misses serialise.  L2
misses add the memory latency.  This is deliberately simpler than the
L1 port machinery — the paper's experiments vary the L1 port subsystem
and keep the rest of the hierarchy fixed.
"""

from __future__ import annotations

from ..stats.counters import Stats
from .cache import SetAssocCache
from .config import NextLevelConfig


class NextLevel:
    """Unified L2 + memory, shared by the I- and D-side L1s."""

    def __init__(self, config: NextLevelConfig,
                 stats: Stats | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.cache = SetAssocCache(config.geometry, name="l2",
                                   stats=self.stats)
        self._next_free = 0
        #: The core's probe (repro.obs.probe); ``None`` when off.
        self.probe = None

    def request(self, line: int, cycle: int) -> int:
        """An L1 miss fill request; returns the data-ready cycle."""
        start = max(cycle, self._next_free)
        self._next_free = start + self.config.occupancy
        queue_delay = start - cycle
        self.stats.inc("l2.requests")
        self.stats.inc("l2.queue_delay", queue_delay)
        ready = start + self.config.hit_latency
        if self.cache.lookup(line):
            self.stats.inc("l2.hits")
        else:
            self.stats.inc("l2.misses")
            victim = self.cache.fill(line)
            if victim is not None and victim[1]:
                self.stats.inc("l2.writebacks")
            ready += self.config.memory_latency
        if self.probe is not None:
            self.probe.on_mem("mem.refill", line=line, cycle=cycle,
                              latency=ready - cycle)
        return ready

    def writeback(self, line: int, cycle: int) -> None:
        """A dirty L1 victim arrives; occupies the L2 but returns no data."""
        start = max(cycle, self._next_free)
        self._next_free = start + self.config.occupancy
        self.stats.inc("l2.l1_writebacks")
        if self.probe is not None:
            self.probe.on_mem("mem.writeback", line=line, cycle=cycle)
        if self.cache.lookup(line):
            self.cache.mark_dirty(line)
            return
        victim = self.cache.fill(line, dirty=True)
        if victim is not None and victim[1]:
            self.stats.inc("l2.writebacks")
