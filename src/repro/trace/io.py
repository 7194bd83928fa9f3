"""Columnar traces: the :class:`Trace` type and its ``.npz`` format.

Functional simulation is the slow half of a study; persisting traces
lets a parameter sweep rerun the timing core alone.  A :class:`Trace`
holds a dynamic trace as numpy columns — exactly the arrays
:func:`save_trace` writes — so loading a cached trace is one eager
``np.load`` with no per-record work.

* **Columns.**  ``pc``, ``opclass`` (index into :class:`OpClass`),
  ``dest`` (255 = none), ``src``/``nsrc`` (up to two source
  registers), ``naddr`` (store address/data operand split, 255 =
  unknown), ``mem_addr``, ``mem_size``, ``flags`` and ``next_pc``.
  The flag-bit layout lives only in this module; consumers read the
  decoded ``is_load``/``is_store``/``is_control``/``taken``/
  ``kernel``/``serializes``/``decode_redirect`` columns.
* **Rows.**  :attr:`Trace.rows` is the plain list of
  :class:`TraceRecord` objects the reference cycle loop and the tools
  index.  A trace made from records (:func:`as_trace`) keeps those
  original, instruction-bearing records as its rows; a loaded trace
  builds instruction-less rows lazily, in bounded chunks, the first
  time something asks for them.
* **Derived arrays.**  :attr:`Trace.derived` is a per-trace cache for
  arrays consumers compute from the columns (the fast cycle loop's
  precompute keeps its geometry-independent and per-geometry arrays
  there), so a sweep over one trace derives them once.

Instruction back-references are not persisted; instead, format v2
persists the three *timing hints* the core would otherwise derive from
them (the store address/data operand split, SYSCALL/ERET
serialisation, and J/JAL decode redirects), so a reloaded trace times
**identically** to the fresh instruction-bearing one.  Bump
:data:`FORMAT_VERSION` on any change that can alter timing — the
on-disk trace cache keys on it.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator

import numpy as np

from ..isa import Bank, OpClass, Opcode
from .record import TraceRecord

_OPCLASSES = tuple(OpClass)

NO_DEST = 255
MAX_SOURCES = 2
#: ``store_addr_count`` sentinel for "unknown" (use the positional
#: heuristic, as for synthetic traces).
NO_SPLIT = 255

#: v2: store operand split + serialise/decode-redirect flag bits.
FORMAT_VERSION = 2

#: The archive's columns, in save order.
COLUMNS = ("pc", "opclass", "dest", "src", "nsrc", "naddr", "mem_addr",
           "mem_size", "flags", "next_pc")

_LOAD = 1
_STORE = 2
_CONTROL = 4
_TAKEN = 8
_KERNEL = 16
_SERIALIZES = 32
_DECODE_REDIRECT = 64

_SERIALIZING_OPCODES = (Opcode.SYSCALL, Opcode.ERET)
_DECODE_REDIRECT_OPCODES = (Opcode.J, Opcode.JAL)

#: Rows of a loaded trace are built this many at a time, so the column
#: slices converted to Python objects stay small.
_ROW_CHUNK = 4096


class Trace:
    """A dynamic trace as numpy columns, with a lazily built row view.

    Iteration, indexing and ``==`` go through :attr:`rows`, so a
    ``Trace`` stands in for the plain record list tools expect;
    ``len`` reads the columns.  Rows and columns are two views of the
    same records, so a trace is read-only once built.
    """

    __slots__ = COLUMNS + ("_rows", "derived")

    def __init__(self, columns: dict[str, np.ndarray],
                 rows: list[TraceRecord] | None = None) -> None:
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self._rows = rows
        #: Cache for arrays consumers derive from the columns.
        self.derived: dict = {}

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """Convert *records*, keeping them as the trace's rows."""
        rows = records if isinstance(records, list) else list(records)
        n = len(rows)
        opclasses = _OPCLASSES
        opclass = []
        dest = []
        src0 = [0] * n
        src1 = [0] * n
        nsrc = []
        naddr = []
        flags = []
        for i, record in enumerate(rows):
            # tuple.index with identity fast-path beats hashing the enum
            opclass.append(opclasses.index(record.opclass))
            dest.append(NO_DEST if record.dest is None else record.dest)
            if record.is_store:
                sources, addr_count = _store_operands(record)
            else:
                sources, addr_count = record.sources[:MAX_SOURCES], \
                    NO_SPLIT
            nsrc.append(len(sources))
            naddr.append(addr_count)
            if sources:
                src0[i] = sources[0]
                if len(sources) > 1:
                    src1[i] = sources[1]
            flags.append(record.is_load * _LOAD | record.is_store * _STORE
                         | record.is_control * _CONTROL
                         | record.taken * _TAKEN | record.kernel * _KERNEL
                         | _hint_flags(record))
        src = np.zeros((n, MAX_SOURCES), dtype=np.uint8)
        src[:, 0] = src0
        src[:, 1] = src1
        columns = {
            "pc": np.array([r.pc for r in rows], dtype=np.uint64),
            "opclass": np.array(opclass, dtype=np.uint8),
            "dest": np.array(dest, dtype=np.uint8),
            "src": src,
            "nsrc": np.array(nsrc, dtype=np.uint8),
            "naddr": np.array(naddr, dtype=np.uint8),
            "mem_addr": np.array([r.mem_addr for r in rows],
                                 dtype=np.uint64),
            "mem_size": np.array([r.mem_size for r in rows],
                                 dtype=np.uint8),
            "flags": np.array(flags, dtype=np.uint8),
            "next_pc": np.array([r.next_pc for r in rows],
                                dtype=np.uint64),
        }
        return cls(columns, rows)

    # ------------------------------------------------------------------
    # Decoded flag columns.
    # ------------------------------------------------------------------
    def _flag(self, bit: int) -> np.ndarray:
        return (self.flags & bit) != 0

    @property
    def is_load(self) -> np.ndarray:
        return self._flag(_LOAD)

    @property
    def is_store(self) -> np.ndarray:
        return self._flag(_STORE)

    @property
    def is_control(self) -> np.ndarray:
        return self._flag(_CONTROL)

    @property
    def taken(self) -> np.ndarray:
        return self._flag(_TAKEN)

    @property
    def kernel(self) -> np.ndarray:
        return self._flag(_KERNEL)

    @property
    def serializes(self) -> np.ndarray:
        return self._flag(_SERIALIZES)

    @property
    def decode_redirect(self) -> np.ndarray:
        return self._flag(_DECODE_REDIRECT)

    # ------------------------------------------------------------------
    # Row view.
    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[TraceRecord]:
        """The records as a plain list, built once on first use."""
        rows = self._rows
        if rows is None:
            rows = []
            # Rows share one tuple per distinct source-register list.
            sources: dict[tuple, tuple] = {}
            for start in range(0, len(self.pc), _ROW_CHUNK):
                rows.extend(self._build_rows(start, start + _ROW_CHUNK,
                                             sources.setdefault))
            self._rows = rows
        return rows

    def _build_rows(self, start: int, stop: int,
                    intern) -> list[TraceRecord]:
        flags = self.flags[start:stop]

        def flag(bit: int) -> list[bool]:
            return ((flags & bit) != 0).tolist()

        opclasses = _OPCLASSES
        src = self.src[start:stop]
        sources = [intern(regs, regs) for regs in (
            () if count == 0 else (first,) if count == 1
            else (first, second)
            for count, first, second
            in zip(self.nsrc[start:stop].tolist(),
                   src[:, 0].tolist(), src[:, 1].tolist()))]
        return [TraceRecord(pc, opclasses[opc],
                            None if dest == NO_DEST else dest, srcs,
                            addr, size, load, store, control, taken,
                            npc, kernel, None, serial, redirect,
                            -1 if split == NO_SPLIT else split)
                for (pc, opc, dest, srcs, addr, size, load, store,
                     control, taken, npc, kernel, serial, redirect,
                     split)
                in zip(self.pc[start:stop].tolist(),
                       self.opclass[start:stop].tolist(),
                       self.dest[start:stop].tolist(), sources,
                       self.mem_addr[start:stop].tolist(),
                       self.mem_size[start:stop].tolist(),
                       flag(_LOAD), flag(_STORE), flag(_CONTROL),
                       flag(_TAKEN), self.next_pc[start:stop].tolist(),
                       flag(_KERNEL), flag(_SERIALIZES),
                       flag(_DECODE_REDIRECT),
                       self.naddr[start:stop].tolist())]

    def select(self, keep: np.ndarray) -> "Trace":
        """The sub-trace of the records where *keep* is true."""
        rows = self._rows
        if rows is not None:
            rows = [rows[i] for i in np.flatnonzero(keep).tolist()]
        return Trace({name: getattr(self, name)[keep] for name in COLUMNS},
                     rows)

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            other = other.rows
        if isinstance(other, list):
            return self.rows == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Trace({len(self)} records)"


def as_trace(trace: Trace | Iterable[TraceRecord]) -> Trace:
    """*trace* as a :class:`Trace`: the one place a plain record list
    is converted to columns."""
    return trace if isinstance(trace, Trace) else Trace.from_records(trace)


def _store_operands(record: TraceRecord) -> tuple[tuple[int, ...], int]:
    """The (sources, addr_count) pair that reproduces the dependence
    wiring the timing core derives from the instruction back-reference
    (see ``OoOCore._wire_dependences``)."""
    instr = record.instr
    if instr is None:
        # Already instruction-less: keep whatever split the record
        # carries (round-trips loaded traces, leaves synthetic ones on
        # the positional heuristic).
        count = record.store_addr_count
        return record.sources[:MAX_SOURCES], \
            count if count >= 0 else NO_SPLIT
    regs: list[int] = []
    count = 0
    if instr.rs1 != 0:
        regs.append(instr.rs1)
        count = 1
    if not (instr.info.rs2_bank is Bank.INT and instr.rs2 == 0):
        regs.append(instr.rs2)
    return tuple(regs), count


def _hint_flags(record: TraceRecord) -> int:
    """The serialisation/decode-redirect timing-hint flag bits."""
    instr = record.instr
    if instr is None:
        serializes = record.serializes
        redirect = record.decode_redirect
    else:
        serializes = instr.opcode in _SERIALIZING_OPCODES
        redirect = instr.opcode in _DECODE_REDIRECT_OPCODES
    return (serializes * _SERIALIZES) | (redirect * _DECODE_REDIRECT)


def save_trace(path: str | os.PathLike,
               trace: Trace | Iterable[TraceRecord]) -> None:
    """Write *trace* to *path* (``.npz``)."""
    trace = as_trace(trace)
    np.savez_compressed(path, version=np.array([FORMAT_VERSION]),
                        **{name: getattr(trace, name) for name in COLUMNS})


def save_trace_atomic(path: str | os.PathLike,
                      trace: Trace | Iterable[TraceRecord]) -> None:
    """Write *trace* to *path* via a same-directory temp file and an
    atomic rename — concurrent writers (parallel experiment workers,
    racing processes) can never expose a torn file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}.npz"
    try:
        save_trace(tmp, trace)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Every column is read eagerly, so a damaged archive raises here:
    ``ValueError`` (wrong version, ragged columns), ``KeyError``
    (missing column), or whatever ``np.load`` raises on a truncated or
    corrupt file (``zipfile.BadZipFile``, ``EOFError``, ...).
    """
    with np.load(path) as archive:
        version = int(archive["version"][0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        columns = {name: archive[name] for name in COLUMNS}
    n = len(columns["pc"])
    if any(len(column) != n for column in columns.values()) or \
            columns["src"].shape != (n, MAX_SOURCES):
        raise ValueError("trace columns differ in length")
    return Trace(columns)
