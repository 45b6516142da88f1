"""Profiler attach/detach lifecycle.

An attached profiler is a CPU observer, called by ``run_block``'s
interpreter loop at every retirement; these tests pin the contract
that ``detach()`` (or the context-manager form) stops the calls while
leaving the collected profile readable, and that the loop retires
every instruction itself, never through ``Cpu.step``, with or without
observers."""

import pytest

from repro.fault.inject import FaultInjector, System, _CpuSaboteur
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


def forbid_step_calls(cpu):
    """From here on, ``cpu.step()`` may not run: ``run_block`` must
    retire every instruction in its own loop."""

    def boom():
        raise AssertionError("run_block retired through Cpu.step")

    cpu.step = boom


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
        """The acceptance test: attached or detached, run_block runs
        its own loop (never ``step()``); while attached the profiler
        sees every retirement, after detach none."""
        cpu = make_cpu()
        profiler = Profiler(cpu)
        forbid_step_calls(cpu)
        cpu.run_block(8)
        assert profiler.total_instructions == 8

        profiler.detach()
        cpu.run()
        assert cpu.halted
        assert profiler.total_instructions == 8

    def test_injector_disarm_reengages_fast_path(self):
        """``FaultInjector.disarm()`` must re-enable the fast path the
        same way ``Profiler.detach()`` does — no sticky disabled
        state."""
        cpu = make_cpu()
        injector = FaultInjector(System(sim=None, cpu=cpu))
        injector.arm(FaultSpec(kind="cpu_reg_flip", target="cpu",
                               index=3, bit=0, count=2))
        ((_kind, saboteur),) = injector._hooks
        forbid_step_calls(cpu)
        cpu.run_block(8)
        assert saboteur.fired, "armed observer never called"

        injector.disarm()
        assert not cpu.observers
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
        ``cpu.observers`` while the CPU loop is walking it; the observer
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


class TestRaisingObserver:
    """An observer that raises at retirement sees the instruction
    already retired: ``pc``, ``instr_count`` and ``cycle_count`` are
    committed before any observer runs, on ``step()`` and on
    ``run_block()`` alike."""

    @staticmethod
    def _cpu():
        isa = Isa()
        prog = assemble("addi r1, r0, 1\naddi r2, r0, 2\nhalt", isa)
        cpu = Cpu(isa)
        cpu.memory.load_image(prog.image)
        # a register index off the file: the saboteur raises IndexError
        cpu.observers.append(_CpuSaboteur(
            cpu, FaultSpec(kind="cpu_reg_flip", target="cpu", index=16,
                           bit=0, count=1)))
        return cpu

    @pytest.mark.parametrize("run", [
        lambda cpu: cpu.step(),
        lambda cpu: cpu.run_block(),
        lambda cpu: cpu.run(),
    ], ids=["step", "run_block", "run"])
    def test_state_after_observer_raises(self, run):
        cpu = self._cpu()
        with pytest.raises(IndexError):
            run(cpu)
        assert (cpu.pc, cpu.instr_count, cpu.cycle_count) == (1, 1, 1)
        assert cpu.regs[1] == 1 and cpu.regs[2] == 0
        assert not cpu.observers  # it detached before raising
        cpu.run()
        assert cpu.regs[2] == 2 and cpu.instr_count == 3


class TestContextManager:
    def test_with_block_detaches_on_exit(self):
        cpu = make_cpu()
        with Profiler(cpu) as profiler:
            assert profiler.attached
            cpu.run_block(8)
        assert not profiler.attached
        assert not cpu.observers
        assert profiler.total_instructions == 8
        forbid_step_calls(cpu)
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
