"""Profiler attach/detach lifecycle.

An attached profiler is a CPU observer, which takes ``run_block`` off
its straight-line fast path; these tests pin the contract that
``detach()`` (or the context-manager form) re-engages the fast path
while leaving the collected profile readable."""

import pytest

from repro.fault.inject import FaultInjector, System
from repro.fault.spec import FaultSpec
from repro.isa.assembler import assemble
from repro.isa.cpu import Cpu, Memory
from repro.isa.instructions import Isa
from repro.isa.profiler import Profiler

LOOP_PROGRAM = """
        addi r1, r0, 0
        addi r2, r0, 20
    loop:
        mul  r3, r1, r1
        addi r1, r1, 1
        bne  r1, r2, loop
        halt
"""


def make_cpu():
    isa = Isa()
    prog = assemble(LOOP_PROGRAM, isa)
    mem = Memory()
    mem.load_image(prog.image)
    return Cpu(isa, mem, pc=prog.entry)


def forbid_slow_path(cpu):
    def boom(max_steps):
        raise AssertionError("slow path used with no observers")

    cpu._run_block_slow = boom


class TestDetach:
    def test_attach_and_detach_toggle_the_observer(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        assert profiler.attached
        assert cpu.observers
        profiler.detach()
        assert not profiler.attached
        assert not cpu.observers

    def test_detach_is_idempotent(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        profiler.detach()
        profiler.detach()
        assert not cpu.observers

    def test_detach_removes_only_its_own_observer(self):
        cpu = make_cpu()
        other = lambda pc, instr: None  # noqa: E731
        cpu.observers.append(other)
        Profiler(cpu).detach()
        assert cpu.observers == [other]

    def test_run_block_fast_path_reengages_after_detach(self):
        """The acceptance test: while attached, run_block routes
        through the slow path; after detach it must never touch it."""
        cpu = make_cpu()
        profiler = Profiler(cpu)

        slow_calls = []
        orig = cpu._run_block_slow

        def counting(max_steps):
            slow_calls.append(max_steps)
            return orig(max_steps)

        cpu._run_block_slow = counting
        cpu.run_block(8)
        assert slow_calls, "observers armed but fast path taken"
        assert profiler.total_instructions == 8

        profiler.detach()
        forbid_slow_path(cpu)
        cpu.run()  # must finish entirely on the fast path
        assert cpu.halted

    def test_injector_disarm_reengages_fast_path(self):
        """``FaultInjector.disarm()`` must re-enable the fast path the
        same way ``Profiler.detach()`` does — no sticky disabled
        state."""
        cpu = make_cpu()
        injector = FaultInjector(System(sim=None, cpu=cpu))
        injector.arm(FaultSpec(kind="cpu_reg_flip", target="cpu",
                               index=3, bit=0, count=2))
        slow_calls = []
        orig = cpu._run_block_slow

        def counting(max_steps):
            slow_calls.append(max_steps)
            return orig(max_steps)

        cpu._run_block_slow = counting
        cpu.run_block(8)  # saboteur armed: literal step loop
        assert slow_calls, "observers armed but fast path taken"

        injector.disarm()
        assert not cpu.observers
        forbid_slow_path(cpu)
        cpu.run()
        assert cpu.halted

    def test_disarm_is_idempotent_and_scoped(self):
        cpu = make_cpu()
        other = lambda pc, instr: None  # noqa: E731
        cpu.observers.append(other)
        injector = FaultInjector(System(sim=None, cpu=cpu))
        injector.arm(FaultSpec(kind="cpu_reg_flip", target="cpu",
                               index=3, bit=0, count=1))
        assert len(cpu.observers) == 2
        injector.disarm()
        injector.disarm()
        assert cpu.observers == [other]
        assert injector.armed == []

    def test_detached_run_matches_unobserved_run(self):
        """Profiled for a prefix, then detached: the finished run is
        identical to one that was never observed."""
        plain = make_cpu()
        plain.run()

        profiled = make_cpu()
        with Profiler(profiled):
            profiled.run_block(8)
        profiled.run()

        assert profiled.halted and plain.halted
        assert profiled.regs == plain.regs
        assert profiled.instr_count == plain.instr_count
        assert profiled.cycle_count == plain.cycle_count

    def test_profile_stays_readable_and_frozen_after_detach(self):
        cpu = make_cpu()
        profiler = Profiler(cpu)
        cpu.run_block(10)
        profiler.detach()
        seen = profiler.total_instructions
        assert seen == 10
        cpu.run()
        # detached: later execution is not observed
        assert profiler.total_instructions == seen
        assert cpu.instr_count > seen
        assert profiler.report()  # still renders


class TestDetachDuringRetire:
    def test_detach_from_inside_an_observer_skips_no_one(self):
        """An observer that detaches the profiler mid-retire shrinks
        ``cpu.observers`` while ``_retire`` is walking it; the observer
        after it must still see every instruction."""
        isa = Isa()
        prog = assemble(
            "addi r1, r0, 1\naddi r2, r0, 2\naddi r3, r0, 3\nhalt", isa
        )
        cpu = Cpu(isa)
        cpu.memory.load_image(prog.image)
        profiler = Profiler(cpu)
        seen = []
        cpu.observers.append(lambda pc, instr: profiler.detach())
        cpu.observers.append(lambda pc, instr: seen.append(pc))
        cpu.run()
        assert seen == [0, 1, 2, 3]
        assert profiler.total_instructions == 1


class TestContextManager:
    def test_with_block_detaches_on_exit(self):
        cpu = make_cpu()
        with Profiler(cpu) as profiler:
            assert profiler.attached
            cpu.run_block(8)
        assert not profiler.attached
        assert not cpu.observers
        assert profiler.total_instructions == 8
        forbid_slow_path(cpu)
        cpu.run()
        assert cpu.halted

    def test_with_block_detaches_on_exception(self):
        cpu = make_cpu()
        with pytest.raises(RuntimeError):
            with Profiler(cpu) as profiler:
                raise RuntimeError("boom")
        assert not profiler.attached
        assert not cpu.observers

    def test_full_run_profile_matches_plain_profiler(self):
        plain_cpu = make_cpu()
        plain = Profiler(plain_cpu)
        plain_cpu.run()
        managed_cpu = make_cpu()
        with Profiler(managed_cpu) as managed:
            managed_cpu.run()
        assert managed.opcode_histogram() == plain.opcode_histogram()
        assert managed.total_cycles == plain.total_cycles
