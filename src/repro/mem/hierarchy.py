"""Facade wiring the I-cache, D-cache and shared next level together."""

from __future__ import annotations

from ..stats.counters import Stats
from .config import MemSystemConfig
from .dcache import DataCacheSystem
from .icache import ICacheSystem
from .nextlevel import NextLevel


class MemorySystem:
    """One processor's complete memory hierarchy."""

    def __init__(self, config: MemSystemConfig,
                 stats: Stats | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.next_level = NextLevel(config.next_level, stats=self.stats)
        self.dcache = DataCacheSystem(config.dcache, self.next_level,
                                      stats=self.stats)
        self.icache = ICacheSystem(config.icache, self.next_level,
                                   stats=self.stats)

    def attach(self, probe) -> None:
        """Hand the core's probe to every component that reports
        events: D-cache, line buffer, write buffer and next level."""
        dcache = self.dcache
        dcache.probe = dcache.write_buffer.probe = probe
        if dcache.line_buffer is not None:
            dcache.line_buffer.probe = probe
        self.next_level.probe = probe

    def begin_cycle(self, cycle: int) -> None:
        self.dcache.begin_cycle(cycle)

    def end_cycle(self) -> None:
        """Late-cycle work: drain stores into ports loads didn't use."""
        self.dcache.drain_write_buffer()
