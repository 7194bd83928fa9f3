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
  The flag-bit layout lives in this module; consumers read the
  decoded ``is_load``/``is_store``/``is_control``/``taken``/
  ``kernel``/``serializes``/``decode_redirect`` columns.
* **Building.**  The functional simulator predecodes each static pc
  once into a :func:`static_row` and logs only the pc, the
  :data:`TAKEN_FLAG`/:data:`KERNEL_FLAG` bits and the memory address
  per retired instruction; :meth:`Trace.from_retired` gathers the
  static columns from the per-pc table.  :meth:`Trace.from_records`
  converts record lists (synthetic and fuzz traces).
* **Rows.**  :attr:`Trace.rows` is the plain list of
  :class:`TraceRecord` objects the reference cycle loop and the tools
  index.  A trace made from records (:func:`as_trace`) keeps those
  records as its rows; any other trace builds rows lazily, in bounded
  chunks, the first time something asks for them.  A fresh trace
  carries the simulator's ``{pc: Instruction}`` table, so its rows
  get their ``instr`` back-reference; a loaded trace's rows have none.
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

from ..isa import INSTRUCTION_BYTES, Bank, Instruction, OpClass, Opcode
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
#: The two flag bits that depend on execution, which the functional
#: simulator logs per retired instruction.
TAKEN_FLAG = 8
KERNEL_FLAG = 16
_SERIALIZES = 32
_DECODE_REDIRECT = 64
#: Values in a :func:`static_row`.
_STATIC = 8

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

    __slots__ = COLUMNS + ("_rows", "instructions", "derived")

    def __init__(self, columns: dict[str, np.ndarray],
                 rows: list[TraceRecord] | None = None,
                 instructions: dict[int, Instruction] | None = None,
                 ) -> None:
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self._rows = rows
        #: ``{pc: Instruction}`` for the rows' back-references, or None.
        self.instructions = instructions
        #: Cache for arrays consumers derive from the columns.
        self.derived: dict = {}

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """Convert *records*, keeping them as the trace's rows.

        Synthetic and fuzz traces are built this way; the functional
        simulator appends columns itself (:meth:`from_retired`).
        """
        rows = records if isinstance(records, list) else list(records)
        # Records of one static instruction share its Instruction.
        memo: dict[int, tuple[int, ...]] = {}
        statics = [_record_row(record, memo) for record in rows]
        table = np.array(statics, dtype=np.uint8).reshape(-1, _STATIC)
        dynamic = np.array([record.taken * TAKEN_FLAG
                            | record.kernel * KERNEL_FLAG
                            for record in rows], dtype=np.uint8)
        columns = _static_columns(table, dynamic)
        columns["pc"] = np.array([r.pc for r in rows], dtype=np.uint64)
        columns["mem_addr"] = np.array([r.mem_addr for r in rows],
                                       dtype=np.uint64)
        columns["next_pc"] = np.array([r.next_pc for r in rows],
                                      dtype=np.uint64)
        return cls(columns, rows)

    @classmethod
    def from_retired(cls, pc: list[int], dynamic: list[int],
                     mem_addr: list[int],
                     instructions: dict[int, Instruction],
                     statics: list[tuple[int, ...]]) -> "Trace":
        """The trace the functional simulator logged.

        *pc*, *dynamic* (:data:`TAKEN_FLAG`/:data:`KERNEL_FLAG` bits)
        and *mem_addr* hold one entry per retired instruction;
        *statics* holds the :func:`static_row` of each instruction in
        *instructions*, in its key order.  One gather from that per-PC
        table fills the static columns.  ``next_pc`` is the next
        retired pc, and ``pc + 4`` for the last row.
        """
        pc = np.array(pc, dtype=np.uint64)
        table_pc = np.fromiter(instructions, dtype=np.uint64,
                               count=len(instructions))
        order = np.argsort(table_pc)
        index = order[np.searchsorted(table_pc[order], pc)]
        table = np.array(statics, dtype=np.uint8).reshape(-1, _STATIC)
        columns = _static_columns(table[index],
                                  np.array(dynamic, dtype=np.uint8))
        next_pc = np.empty_like(pc)
        if len(pc):
            next_pc[:-1] = pc[1:]
            next_pc[-1] = pc[-1] + INSTRUCTION_BYTES
        columns.update(pc=pc, next_pc=next_pc,
                       mem_addr=np.array(mem_addr, dtype=np.uint64))
        return cls(columns, instructions=instructions)

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
        return self._flag(TAKEN_FLAG)

    @property
    def kernel(self) -> np.ndarray:
        return self._flag(KERNEL_FLAG)

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
        pcs = self.pc[start:stop].tolist()
        instrs = [None] * len(pcs) if self.instructions is None \
            else list(map(self.instructions.__getitem__, pcs))
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
                            npc, kernel, instr, serial, redirect,
                            -1 if split == NO_SPLIT else split)
                for (pc, opc, dest, srcs, addr, size, load, store,
                     control, taken, npc, kernel, instr, serial, redirect,
                     split)
                in zip(pcs, self.opclass[start:stop].tolist(),
                       self.dest[start:stop].tolist(), sources,
                       self.mem_addr[start:stop].tolist(),
                       self.mem_size[start:stop].tolist(),
                       flag(_LOAD), flag(_STORE), flag(_CONTROL),
                       flag(TAKEN_FLAG), self.next_pc[start:stop].tolist(),
                       flag(KERNEL_FLAG), instrs, flag(_SERIALIZES),
                       flag(_DECODE_REDIRECT),
                       self.naddr[start:stop].tolist())]

    def select(self, keep: np.ndarray) -> "Trace":
        """The sub-trace of the records where *keep* is true."""
        rows = self._rows
        if rows is not None:
            rows = [rows[i] for i in np.flatnonzero(keep).tolist()]
        return Trace({name: getattr(self, name)[keep] for name in COLUMNS},
                     rows, self.instructions)

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


def static_row(instr: Instruction) -> tuple[int, ...]:
    """The columns of *instr* that do not depend on its execution, as
    one row of uint8 values: opclass, dest, the two source slots,
    nsrc, naddr, mem_size and the load/store/control/serialise/
    decode-redirect flag bits.

    For stores, the address/data split reproduces the dependence
    wiring the timing core derives from the instruction
    (``OoOCore._wire_dependences``): rs1 is the address, rs2 the data.
    """
    info = instr.info
    opcode = instr.opcode
    if info.is_store:
        sources: tuple[int, ...] = () if instr.rs1 == 0 else (instr.rs1,)
        naddr = len(sources)
        if not (info.rs2_bank is Bank.INT and instr.rs2 == 0):
            sources += (instr.rs2,)
    else:
        sources, naddr = instr.sources, NO_SPLIT
    return _row(_OPCLASSES.index(info.opclass), instr.dest, sources, naddr,
                info.mem_size,
                info.is_load * _LOAD | info.is_store * _STORE
                | info.is_control * _CONTROL
                | (opcode in _SERIALIZING_OPCODES) * _SERIALIZES
                | (opcode in _DECODE_REDIRECT_OPCODES) * _DECODE_REDIRECT)


def _record_row(record: TraceRecord,
                memo: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The static row of *record*: from its instruction when it has
    one (memoised in *memo* by identity), else from the fields and
    timing hints it carries (round-trips loaded traces, leaves
    synthetic ones on the positional heuristic)."""
    instr = record.instr
    if instr is not None:
        row = memo.get(id(instr))
        if row is None:
            row = memo[id(instr)] = static_row(instr)
        return row
    naddr = NO_SPLIT
    if record.is_store and record.store_addr_count >= 0:
        naddr = record.store_addr_count
    return _row(_OPCLASSES.index(record.opclass), record.dest,
                record.sources, naddr, record.mem_size,
                record.is_load * _LOAD | record.is_store * _STORE
                | record.is_control * _CONTROL
                | record.serializes * _SERIALIZES
                | record.decode_redirect * _DECODE_REDIRECT)


def _row(opclass: int, dest: int | None, sources: tuple[int, ...],
         naddr: int, mem_size: int, flags: int) -> tuple[int, ...]:
    sources = sources[:MAX_SOURCES]
    return (opclass, NO_DEST if dest is None else dest,
            sources[0] if sources else 0,
            sources[1] if len(sources) > 1 else 0,
            len(sources), naddr, mem_size, flags)


def _static_columns(rows: np.ndarray,
                    dynamic: np.ndarray) -> dict[str, np.ndarray]:
    """The static columns of *rows* (one static row per record), with
    the *dynamic* flag bits merged into ``flags``."""
    return {"opclass": rows[:, 0].copy(), "dest": rows[:, 1].copy(),
            "src": rows[:, 2:4].copy(), "nsrc": rows[:, 4].copy(),
            "naddr": rows[:, 5].copy(), "mem_size": rows[:, 6].copy(),
            "flags": rows[:, 7] | dynamic}


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
