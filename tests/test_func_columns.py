"""The functional simulator's columnar traces.

* **Column pins.**  ``column_pins.json`` holds the SHA-256 of every v2
  column of every suite workload, the OS mix and every scenario at
  ``tiny`` and of every committed corpus program, captured with the
  per-record trace path (``Trace.from_records`` of one record per
  retired instruction).  The columnar builder must reproduce each of
  them, and the fast loop must time each fresh trace exactly like the
  reference loop.
* **Rows.**  A fresh trace builds rows only on demand; each row's
  ``instr`` is the decoded word at its pc, and ``next_pc`` chains
  across traps, timer interrupts and host syscalls.
* **Budget.**  The instruction budget counts retired instructions.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import abi
from repro.asm import assemble
from repro.core import pipeline
from repro.core.pipeline import OoOCore
from repro.func import Interpreter, Memory, SimError, load_program, run_bare
from repro.isa import Opcode, decode
from repro.kernel import assemble_user, build_system, run_system
from repro.presets import machine
from repro.scenarios import SCENARIO_NAMES, SCENARIOS
from repro.scenarios.runtime import materialize, run_build
from repro.scenarios.verify import result_view
from repro.trace.fuzz import load_artifact
from repro.trace.io import COLUMNS, Trace
from repro.workloads import suite

PINS = json.loads((Path(__file__).parent / "column_pins.json")
                  .read_text(encoding="utf-8"))
CORPUS = {f"corpus-{path.stem}": path for path in
          (Path(__file__).parent / "corpus").glob("*.repro")}
CONFIGS = ("1P", "1P-wide+LB+SC")


def _user_programs(names, scale: str) -> list:
    programs = []
    for slot, name in enumerate(names):
        spec = suite.WORKLOADS[name]
        programs.append(assemble_user(spec.source(**spec.params(scale)),
                                      slot=slot, source_name=f"<{name}>"))
    return programs


def _fresh_trace(key: str) -> Trace:
    """Build the pinned trace *key* on the functional simulator,
    bypassing the trace cache."""
    if key in CORPUS:
        source = str(load_artifact(str(CORPUS[key]))["source"])
        return run_bare(assemble(source), collect_trace=True).trace
    if key == "os-mix@tiny":
        return run_system(_user_programs(suite.OS_MIX_MEMBERS, "tiny"),
                          timer_interval=suite.OS_MIX_TIMER["tiny"],
                          max_instructions=8_000_000,
                          collect_trace=True).trace
    if key.startswith("sc-"):
        name = key[3:].split("@")[0]
        return run_build(materialize(SCENARIOS[name], "tiny"),
                         collect_trace=True).result.trace
    name = key.split("@")[0]
    spec = suite.WORKLOADS[name]
    program = assemble(spec.source(**spec.params("tiny")),
                       source_name=f"<{name}>")
    return run_bare(program, max_instructions=3_000_000,
                    collect_trace=True).trace


def test_pins_cover_every_trace_kind():
    expected = {f"{name}@tiny" for name in suite.SUITE_NAMES}
    expected |= {f"sc-{name}@tiny" for name in SCENARIO_NAMES}
    expected |= {"os-mix@tiny"} | set(CORPUS)
    assert set(PINS) == expected


@pytest.mark.parametrize("key", sorted(PINS))
def test_columns_match_record_path_pins(key, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    trace = _fresh_trace(key)
    assert isinstance(trace, Trace)
    assert trace._rows is None
    pins = PINS[key]
    assert len(trace) == pins["records"]
    for name in COLUMNS:
        digest = hashlib.sha256(getattr(trace, name).tobytes()).hexdigest()
        assert digest == pins[name], f"{key}: column {name}"
    for config_name in CONFIGS:
        fast = OoOCore(machine(config_name), fastpath=True).run(trace)
        assert fast.used_fastpath
        slow = OoOCore(machine(config_name), fastpath=False).run(trace)
        assert result_view(fast) == result_view(slow), config_name


# ----------------------------------------------------------------------
# Fresh-trace rows
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def system_run():
    """iostorm at tiny: console syscalls and timer interrupts."""
    build = materialize(SCENARIOS["iostorm"], "tiny")
    system = build_system(list(build.programs), build.timer_interval)
    interp = Interpreter(system.memory, entry=system.entry,
                         trap_vector=system.trap_vector, collect_trace=True)
    interp.run(build.max_instructions)
    return system, interp


def test_rows_are_built_lazily_with_instructions(system_run):
    system, interp = system_run
    trace = interp.trace
    assert trace._rows is None
    rows = trace.rows
    assert trace._rows is rows and len(rows) == interp.retired
    for row in rows:
        assert row.instr == decode(system.memory.load(row.pc, 4))


def _chains(trace: Trace) -> None:
    rows = trace.rows
    for row, following in zip(rows, rows[1:]):
        assert row.next_pc == following.pc
    assert rows[-1].next_pc == rows[-1].pc + 4
    assert np.array_equal(trace.next_pc[:-1], trace.pc[1:])


def test_next_pc_chains_across_traps_and_interrupts(system_run):
    system, interp = system_run
    trace = interp.trace
    _chains(trace)
    vector = system.trap_vector
    into_vector = [row for row in trace.rows if row.next_pc == vector]
    syscalls = [row for row in into_vector
                if row.instr.opcode is Opcode.SYSCALL]
    interrupted = [row for row in into_vector
                   if row.instr.opcode is not Opcode.SYSCALL]
    assert syscalls and all(not row.kernel for row in syscalls)
    # Every timer delivery shows only as a row whose successor is the
    # trap vector, without being a syscall (the scenario never faults).
    assert interp.timer_interrupts > 0
    assert len(interrupted) == interp.timer_interrupts
    assert interp.traps_taken == len(syscalls) + interp.timer_interrupts


def test_next_pc_chains_across_host_syscall():
    result = run_bare(assemble(f"""
.data
msg: .ascii "hi"
.text
main:
    la a0, msg
    li a1, 2
    li a7, {abi.SYS_WRITE}
    syscall 0
    li a0, 0
    li a7, {abi.SYS_EXIT}
    syscall 0
"""), collect_trace=True)
    assert result.console == "hi"
    trace = result.trace
    _chains(trace)
    (write,) = [row for row in trace if row.instr.opcode is Opcode.SYSCALL]
    assert write.next_pc == write.pc + 4


def test_user_only_view_keeps_instruction_table(system_run):
    _, interp = system_run
    trace = interp.trace
    view = trace.select(~trace.kernel)
    assert view.instructions is trace.instructions
    assert all(row.instr is trace.instructions[row.pc] and not row.kernel
               for row in view.rows)
    assert len(view) == interp.retired - interp.kernel_retired


def test_untraced_run_has_no_trace():
    result = run_bare(assemble(f".text\nmain:\nli a7, {abi.SYS_EXIT}\n"
                               "syscall 0"))
    assert result.trace is None and result.retired == 1


# ----------------------------------------------------------------------
# Instruction budget
# ----------------------------------------------------------------------
def test_budget_counts_retired_instructions_not_interrupts():
    system = build_system(_user_programs(("qsort", "memops"), "small"),
                          timer_interval=300)
    interp = Interpreter(system.memory, entry=system.entry,
                         trap_vector=system.trap_vector, collect_trace=True)
    with pytest.raises(SimError, match="budget exhausted after 20000 "
                                       "instructions"):
        interp.run(20_000)
    # Timer deliveries happened but did not count against the budget.
    assert interp.timer_interrupts > 0
    assert interp.retired == 20_000 == len(interp.trace)


def test_budget_is_relative_to_each_run_call():
    program = assemble(".text\nmain:\nloop: j loop")
    memory = Memory()
    load_program(memory, program)
    interp = Interpreter(memory, entry=program.entry)
    for total in (100, 250):
        with pytest.raises(SimError, match=f"after {total} instructions"):
            interp.run(total - interp.retired)


def test_fault_at_trap_vector_raises():
    """A trap handler whose first instruction faults would otherwise
    trap forever without retiring, and never exhaust the budget."""
    program = assemble(".text\nmain:\nld t0, 0(zero)")
    memory = Memory()
    load_program(memory, program)
    interp = Interpreter(memory, entry=program.entry,
                         trap_vector=program.entry)
    with pytest.raises(SimError, match="at the trap vector"):
        interp.run(100)
