"""Machine run loops: budgets, breakpoints, traces."""

import pytest

from repro.errors import MachineError
from repro.machine.executor import Machine
from repro.machine.layout import STOP_BREAKPOINT, STOP_HALTED, STOP_LIMIT


def test_run_to_halt(counting_program):
    machine = counting_program.make_machine()
    result = machine.run(max_instructions=10_000)
    assert result.reason == STOP_HALTED
    assert machine.halted
    assert machine.state.read_i32(counting_program.symbol("result")) == 10


def test_instruction_budget(counting_program):
    machine = counting_program.make_machine()
    result = machine.run(max_instructions=5)
    assert result.reason == STOP_LIMIT
    assert result.instructions == 5
    assert machine.instruction_count == 5


def test_breakpoint_stops_at_ip(counting_program):
    loop_ip = counting_program.symbol("loop")
    machine = counting_program.make_machine()
    result = machine.run(max_instructions=10_000,
                         break_ips=frozenset((loop_ip,)))
    assert result.reason == STOP_BREAKPOINT
    assert result.eip == loop_ip
    # Each further run crosses the loop once.
    result = machine.run(max_instructions=10_000,
                         break_ips=frozenset((loop_ip,)))
    assert result.reason == STOP_BREAKPOINT


def test_run_on_halted_machine_is_noop(counting_program):
    machine = counting_program.make_machine()
    machine.run(max_instructions=10_000)
    result = machine.run(max_instructions=10)
    assert result.reason == STOP_HALTED
    assert result.instructions == 0


def test_run_to_halt_raises_on_budget(counting_program):
    machine = counting_program.make_machine()
    with pytest.raises(MachineError):
        machine.run_to_halt(max_instructions=3)


def test_ip_trace(counting_program):
    machine = counting_program.make_machine()
    trace = machine.ip_trace(12)
    assert trace[0] == counting_program.entry
    loop_ip = counting_program.symbol("loop")
    assert trace.count(loop_ip) >= 2
    # Trace stops at halt even with budget left.
    machine2 = counting_program.make_machine()
    full = machine2.ip_trace(100_000)
    assert len(full) < 100_000


def test_step_counts(counting_program):
    machine = counting_program.make_machine()
    machine.step()
    machine.step()
    assert machine.instruction_count == 2
