"""Columnar traces: the fast path's precompute reads columns only.

* **Differential.**  For every suite workload, every committed corpus
  program and hypothesis-drawn synthetic traces, at both port widths
  the sweep uses (``chunk_shift`` 3 and 4): the precomputed arrays of
  a fresh instruction-bearing trace equal those of its save/load twin
  and those of the historical record-walking loop kept below as the
  reference, and the fast loop's ``CoreResult`` equals the reference
  loop's.
* **Cache.**  Sweeping one trace over several configurations derives
  the geometry-independent arrays once, and the fast loop never builds
  a loaded trace's rows.
* **Memory.**  The derived arrays stay within a bytes-per-record budget
  at one geometry and for a second one.
* **Corrupt cache entries** are rebuilt, and the rebuilt trace times
  identically.
"""

from __future__ import annotations

import gc
import io
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble
from repro.core import fastpath, pipeline
from repro.core.pipeline import OoOCore
from repro.func import run_bare
from repro.isa import OpClass, Opcode
from repro.isa.opcodes import Bank
from repro.presets import machine
from repro.scenarios.verify import result_view
from repro.trace import SyntheticConfig, generate
from repro.trace.fuzz import load_artifact
from repro.trace.io import (COLUMNS, Trace, as_trace, load_trace,
                            save_trace)
from repro.trace.record import TraceRecord
from repro.workloads import suite

#: 1P (8-byte port, chunk_shift 3) and the wide-port technique machine
#: (16-byte port, chunk_shift 4).
CONFIGS = ("1P", "1P-wide+LB+SC")
SWEEP_CONFIGS = ("1P", "1P-wide+LB+SC", "2P", "2P+SC")
CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.repro"))


def _reference_precompute(trace, line_shift, chunk_shift, line_size,
                          fetch_bytes):
    """The record-walking precompute the columnar one replaced, kept
    as the reference: it reads the instruction back-reference when a
    record has one and the persisted timing hints otherwise.  Each
    dependence is coded ``(consumer - producer) << 1 | is_data`` and
    equal plans share one tuple."""
    n = len(trace)
    opcs = tuple(OpClass)
    r_opc, r_kind, r_jdec, r_block = [0] * n, [0] * n, [False] * n, [0] * n
    r_line, r_chunk, r_mask = [0] * n, [0] * n, [0] * n
    r_prod: list[tuple] = [()] * n
    r_is_prod = [False] * n
    last_writer: dict = {}
    plans: dict = {}
    for i, record in enumerate(trace):
        r_opc[i] = opcs.index(record.opclass)
        r_block[i] = record.pc // fetch_bytes
        instr = record.instr
        if record.is_load or record.is_store:
            offset = record.mem_addr & (line_size - 1)
            if offset + record.mem_size > line_size:
                raise ValueError("access crosses the line boundary")
            r_line[i] = record.mem_addr >> line_shift
            r_chunk[i] = record.mem_addr >> chunk_shift
            r_mask[i] = ((1 << record.mem_size) - 1) << offset
        if record.is_store:
            if instr is not None:
                deps = []
                if instr.rs1 != 0:
                    deps.append((instr.rs1, False))
                if not (instr.info.rs2_bank is Bank.INT and instr.rs2 == 0):
                    deps.append((instr.rs2, True))
            elif record.store_addr_count >= 0:
                deps = [(reg, pos >= record.store_addr_count)
                        for pos, reg in enumerate(record.sources)]
            else:
                deps = [(reg, pos > 0)
                        for pos, reg in enumerate(record.sources)]
        else:
            deps = [(reg, False) for reg in record.sources]
        plan = []
        for reg, is_data in deps:
            producer = last_writer.get(reg)
            if producer is not None:
                plan.append((i - producer) << 1 | is_data)
                r_is_prod[producer] = True
        plan = tuple(plan)
        r_prod[i] = plans.setdefault(plan, plan)
        if record.dest is not None:
            last_writer[record.dest] = i
        serializes = record.serializes if instr is None else \
            instr.opcode in (Opcode.SYSCALL, Opcode.ERET)
        if record.is_control:
            if record.opclass is OpClass.BRANCH:
                r_kind[i] = 1
            else:
                r_kind[i] = 2
                r_jdec[i] = record.decode_redirect if instr is None \
                    else instr.opcode in (Opcode.J, Opcode.JAL)
        elif record.next_pc != record.pc + 4 or \
                record.opclass is OpClass.SYSTEM and serializes:
            r_kind[i] = 3
    return (r_opc, r_kind, r_jdec, [r.pc for r in trace],
            [r.next_pc for r in trace], [r.taken for r in trace], r_block,
            [r.is_load for r in trace], [r.is_store for r in trace],
            r_line, r_chunk, r_mask, r_prod, r_is_prod)


def _geometry(config_name):
    core = OoOCore(machine(config_name))
    dcache, icache = core.mem.dcache, core.mem.icache
    return (dcache.line_shift, dcache.chunk_shift, dcache.line_size,
            icache.fetch_bytes)


def _typed(arrays):
    """Arrays with each element's type, so ``True`` and ``1`` differ."""
    return [[(type(value), value) for value in array] for array in arrays]


def _twin(trace) -> Trace:
    buffer = io.BytesIO()
    save_trace(buffer, trace)
    buffer.seek(0)
    return load_trace(buffer)


def _check_twins(records, monkeypatch, run=True):
    """Precompute equality and fast/reference identity for *records*
    (a fresh functional trace or record list) and its save/load twin."""
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    fresh = as_trace(records)
    twin = _twin(fresh)
    assert fresh is records or fresh.rows is records
    for config_name in CONFIGS:
        geometry = _geometry(config_name)
        expected = _reference_precompute(records, *geometry)
        fresh_arrays = fastpath._precompute_cached(fresh, *geometry)
        assert _typed(fresh_arrays) == _typed(expected)
        r_prod = fresh_arrays[12]
        assert len(set(map(id, r_prod))) == len(set(r_prod)), "not interned"
        assert fastpath._precompute_cached(twin, *geometry) == fresh_arrays
        if run:
            slow = OoOCore(machine(config_name), fastpath=False).run(fresh)
            fast = OoOCore(machine(config_name), fastpath=True).run(twin)
            assert result_view(fast) == result_view(slow), config_name
    assert twin._rows is None or not run


def _records(source: str) -> Trace:
    trace = run_bare(assemble(source), collect_trace=True).trace
    assert trace and trace[0].instr is not None
    return trace


@pytest.mark.parametrize("name", suite.SUITE_NAMES)
def test_suite_workload_twins(name, monkeypatch):
    spec = suite.WORKLOADS[name]
    _check_twins(_records(spec.source(**spec.params("tiny"))), monkeypatch)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_twins(path, monkeypatch):
    _check_twins(_records(str(load_artifact(str(path))["source"])),
                 monkeypatch)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 1 << 30),
       loads=st.floats(0.0, 0.4), stores=st.floats(0.0, 0.3))
def test_synthetic_twins(n, seed, loads, stores):
    records = generate(SyntheticConfig(instructions=n, seed=seed,
                                       load_fraction=loads,
                                       store_fraction=stores))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_twins(records, monkeypatch)


@st.composite
def _records_drawn(draw):
    """Arbitrary instruction-less records, timing hints included: the
    precompute must agree with the reference on every flag mix."""
    kind = draw(st.sampled_from(["plain", "load", "store"]))
    sources = tuple(draw(st.lists(st.integers(0, 63), max_size=2)))
    size = draw(st.sampled_from([1, 2, 4, 8])) if kind != "plain" else 0
    pc = draw(st.integers(10, 1 << 20)) * 4
    return TraceRecord(
        pc=pc,
        opclass={"plain": draw(st.sampled_from(
            [OpClass.ALU, OpClass.BRANCH, OpClass.JUMP, OpClass.SYSTEM])),
            "load": OpClass.LOAD, "store": OpClass.STORE}[kind],
        dest=draw(st.one_of(st.none(), st.integers(0, 63))),
        sources=sources,
        mem_addr=draw(st.integers(0, 1 << 20)) * size,
        mem_size=size,
        is_load=kind == "load",
        is_store=kind == "store",
        is_control=draw(st.booleans()) if kind == "plain" else False,
        taken=draw(st.booleans()),
        next_pc=pc + draw(st.sampled_from([4, 4, 8, -40])),
        kernel=draw(st.booleans()),
        serializes=draw(st.booleans()),
        decode_redirect=draw(st.booleans()),
        store_addr_count=draw(st.sampled_from(
            [-1] + list(range(len(sources) + 1))))
        if kind == "store" else -1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_records_drawn(), min_size=1, max_size=40))
def test_drawn_records_precompute_like_reference(records):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_twins(records, monkeypatch, run=False)


def test_line_crossing_access_is_rejected():
    records = [TraceRecord(pc=0, opclass=OpClass.LOAD, mem_addr=30,
                           mem_size=4, is_load=True, next_pc=4)]
    with pytest.raises(ValueError, match="crosses the line"):
        fastpath._precompute_cached(as_trace(records), *_geometry("1P"))


def test_sweep_derives_trace_arrays_once(qsort_trace, monkeypatch):
    trace = _twin(qsort_trace)
    calls = {"trace": 0, "geometry": 0}
    trace_arrays = fastpath._trace_arrays
    geometry_arrays = fastpath._geometry_arrays

    def count_trace(*args):
        calls["trace"] += 1
        return trace_arrays(*args)

    def count_geometry(*args):
        calls["geometry"] += 1
        return geometry_arrays(*args)

    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    monkeypatch.setattr(fastpath, "_trace_arrays", count_trace)
    monkeypatch.setattr(fastpath, "_geometry_arrays", count_geometry)
    for config_name in SWEEP_CONFIGS:
        assert OoOCore(machine(config_name)).run(trace).used_fastpath
    # 1P-wide+LB+SC is the one 16-byte-port geometry of the four.
    assert calls == {"trace": 1, "geometry": 2}
    assert trace._rows is None


def test_only_recent_traces_keep_derived_arrays():
    traces = [as_trace(generate(SyntheticConfig(instructions=50, seed=seed)))
              for seed in range(fastpath._TRACES_KEPT + 1)]
    for trace in traces:
        fastpath._precompute_cached(trace, *_geometry("1P"))
    assert "fastpath" not in traces[0].derived
    assert all("fastpath" in trace.derived for trace in traces[1:])


def test_precompute_memory_budget(monkeypatch):
    """Bytes per record the derived arrays hold on a fresh qsort@small
    trace: at most about half of the prototype-uop layout's 676 at one
    geometry and 389 for a second (about 231 and 85 now)."""
    spec = suite.WORKLOADS["qsort"]
    trace = _records(spec.source(**spec.params("small")))
    narrow, wide = _geometry("1P"), _geometry("1P-wide+LB+SC")
    monkeypatch.setattr(fastpath, "_recent_traces", [])
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fastpath._precompute_cached(trace, *narrow)
        one = tracemalloc.get_traced_memory()[0]
        fastpath._precompute_cached(trace, *wide)
        two = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (one - start) / len(trace) <= 340
    assert (two - one) / len(trace) <= 195


def test_loaded_rows_span_chunks_and_match():
    records = generate(SyntheticConfig(instructions=10_000, seed=3))
    twin = _twin(records)
    assert twin._rows is None
    assert len(twin) == len(records)
    assert twin == records
    assert twin[9_999] == records[9_999]
    assert twin.rows is twin.rows


def test_user_only_view_selects_columns_and_rows(qsort_trace):
    trace = as_trace(list(qsort_trace))
    keep = np.arange(len(trace)) % 3 != 0
    view = trace.select(keep)
    assert view.rows == [r for r, k in zip(trace.rows, keep) if k]
    twin_view = _twin(trace).select(keep)
    assert twin_view._rows is None
    for name in COLUMNS:
        assert np.array_equal(getattr(twin_view, name), getattr(view, name))


# ----------------------------------------------------------------------
# Corrupt disk-cache entries
# ----------------------------------------------------------------------
def _truncate(path: Path, rng: random.Random) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:rng.randrange(1, len(data))])


def _empty(path: Path, rng: random.Random) -> None:
    path.write_bytes(b"")


def _rewrite(path: Path, change) -> None:
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    change(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _stale_version(path: Path, rng: random.Random) -> None:
    def change(arrays):
        arrays["version"] = np.array([1])
    _rewrite(path, change)


def _missing_column(path: Path, rng: random.Random) -> None:
    column = rng.choice(["pc", "flags", "src", "naddr", "next_pc"])

    def change(arrays):
        del arrays[column]
    _rewrite(path, change)


@pytest.mark.parametrize("corrupt", [_truncate, _empty, _stale_version,
                                     _missing_column],
                         ids=lambda corrupt: corrupt.__name__.strip("_"))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corrupt_cache_entry_is_rebuilt(corrupt, seed, tmp_path,
                                        monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    previous = suite.trace_cache_dir()
    suite.set_trace_cache_dir(tmp_path)
    try:
        suite.clear_trace_cache()
        original = suite.build_trace("stream", "tiny")
        expected = result_view(OoOCore(machine("1P")).run(original))
        (entry,) = tmp_path.glob("stream-tiny-*.npz")
        corrupt(entry, random.Random(seed))
        suite.clear_trace_cache()
        builds = suite.trace_cache_stats()["builds"]
        rebuilt = suite.build_trace("stream", "tiny")
        assert suite.trace_cache_stats()["builds"] == builds + 1
        assert result_view(OoOCore(machine("1P")).run(rebuilt)) == expected
        # The rebuild overwrote the entry: the next lookup is a disk hit.
        suite.clear_trace_cache()
        hits = suite.trace_cache_stats()["disk_hits"]
        reloaded = suite.build_trace("stream", "tiny")
        assert suite.trace_cache_stats()["disk_hits"] == hits + 1
        assert result_view(OoOCore(machine("1P")).run(reloaded)) == expected
    finally:
        suite.clear_trace_cache()
        suite.set_trace_cache_dir(previous)
