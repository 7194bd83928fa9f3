"""Dynamic instruction traces: columnar traces, records, generators,
serialisation."""

from .io import Trace, as_trace, load_trace, save_trace, save_trace_atomic
from .record import TraceRecord
from .synthetic import DATA_BASE, TEXT_BASE, SyntheticConfig, generate

__all__ = [
    "Trace",
    "as_trace",
    "load_trace",
    "save_trace",
    "save_trace_atomic",
    "TraceRecord",
    "DATA_BASE",
    "TEXT_BASE",
    "SyntheticConfig",
    "generate",
]
