"""A cycle-counting functional model of the R32 processor.

The model executes one instruction per :meth:`Cpu.step` and reports the
cycles it consumed.  Two features make it a *co-simulation* CPU rather
than just an interpreter:

* **External (memory-mapped) regions.**  A load or store that hits a
  region registered as *external* does not complete synchronously;
  ``step`` returns an :class:`ExternalAccess` describing the request and
  the CPU freezes mid-instruction until :meth:`Cpu.complete_access` is
  called.  The co-simulation backplane (:mod:`repro.cosim.backplane`)
  services the request through whichever interface abstraction is mounted
  — pin-level handshake, bus transaction, register access, or message —
  and charges the elapsed model time.  This is how "actions in one domain
  affect the state of the other" (Section 3.1).

* **Interrupts.**  Devices call :meth:`Cpu.raise_irq`; the CPU vectors to
  ``ivec`` at the next instruction boundary, saving the return address in
  ``epc``; ``reti`` returns and re-enables interrupts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.isa.instructions import (
    Instruction,
    Isa,
    MASK32,
    N_REGS,
    SEMANTICS,
)


class CpuError(RuntimeError):
    """Raised for illegal instructions or execution faults."""


@dataclass
class ExternalAccess:
    """A pending memory-mapped access awaiting the backplane.

    ``value`` is the word being written (stores) and is 0 for loads.
    """

    addr: int
    value: int
    is_write: bool


@dataclass
class _Region:
    name: str
    base: int
    size: int
    read_fn: Optional[Callable[[int], int]]
    write_fn: Optional[Callable[[int, int], None]]
    external: bool

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class Memory:
    """Sparse word-addressed memory with device regions.

    Plain addresses are backed by a dict (unwritten words read as zero).
    Regions may carry synchronous read/write handlers (cheap device
    models) or be marked *external*, deferring the access to the
    co-simulation backplane.
    """

    def __init__(self) -> None:
        self.ram: Dict[int, int] = {}
        self._regions: List[_Region] = []
        self.loads = 0
        self.stores = 0

    def add_region(
        self,
        name: str,
        base: int,
        size: int,
        read_fn: Optional[Callable[[int], int]] = None,
        write_fn: Optional[Callable[[int, int], None]] = None,
        external: bool = False,
    ) -> None:
        """Map a device region at [base, base+size) word addresses."""
        if size <= 0:
            raise ValueError("region size must be positive")
        for region in self._regions:
            if region.base < base + size and base < region.base + region.size:
                raise ValueError(
                    f"region {name!r} overlaps {region.name!r}"
                )
        self._regions.append(
            _Region(name, base, size, read_fn, write_fn, external)
        )

    def region_at(self, addr: int) -> Optional[_Region]:
        """The region containing ``addr``, or None for plain RAM."""
        for region in self._regions:
            if region.contains(addr):
                return region
        return None

    def load_image(self, image: Dict[int, int]) -> None:
        """Copy an assembled program image into RAM."""
        self.ram.update(image)

    def read(self, addr: int) -> int:
        """Read one word (may raise :class:`_Defer` for external regions)."""
        addr &= MASK32
        self.loads += 1
        region = self.region_at(addr)
        if region is None:
            return self.ram.get(addr, 0)
        if region.external:
            raise _Defer(ExternalAccess(addr, 0, False))
        if region.read_fn is None:
            raise CpuError(f"region {region.name!r} is not readable")
        return region.read_fn(addr - region.base) & MASK32

    def write(self, addr: int, value: int) -> None:
        """Write one word (may raise :class:`_Defer` for external regions)."""
        addr &= MASK32
        value &= MASK32
        self.stores += 1
        region = self.region_at(addr)
        if region is None:
            self.ram[addr] = value
            return
        if region.external:
            raise _Defer(ExternalAccess(addr, value, True))
        if region.write_fn is None:
            raise CpuError(f"region {region.name!r} is not writable")
        region.write_fn(addr - region.base, value)


class _Defer(Exception):
    """Internal: carries an :class:`ExternalAccess` out of Memory."""

    def __init__(self, access: ExternalAccess) -> None:
        super().__init__(access)
        self.access = access


IRQ_ENTRY_CYCLES = 4


class Cpu:
    """The R32 processor model.

    Typical pure-software use::

        cpu = Cpu(isa, memory)
        memory.load_image(program.image)
        cpu.run()
        print(cpu.cycle_count)

    Co-simulation use alternates ``step()`` / ``complete_access()`` under
    the backplane's control.
    """

    #: always None; pipebench/bench_layers.py (frozen) reads it
    translator = None

    def __init__(
        self,
        isa: Isa,
        memory: Optional[Memory] = None,
        pc: int = 0,
        ivec: int = 0x40,
    ) -> None:
        self.isa = isa
        self.memory = memory if memory is not None else Memory()
        self.regs: List[int] = [0] * N_REGS
        self.pc = pc
        self.ivec = ivec
        self.epc = 0
        self.halted = False
        self.irq_pending = False
        self.irq_enabled = True
        self.cycle_count = 0
        self.instr_count = 0
        self.irq_count = 0
        self._pending: Optional[Tuple[int, Instruction, ExternalAccess]] = None
        #: observers called as fn(pc, instr) after each retired instruction
        self.observers: List[Callable[[int, Instruction], None]] = []
        # operand cache: word -> (opcode, rd, rs1, rs2, imm, cycles,
        # Instruction, data-path fn or None), invalidated whenever the
        # ISA's version changes (custom ops, cycle edits)
        self._ops: Dict[int, tuple] = {}
        self._ops_version = -1

    # ------------------------------------------------------------------
    # register access helpers (r0 is hardwired to zero)
    # ------------------------------------------------------------------
    def get_reg(self, index: int) -> int:
        """Read a register (r0 reads as zero)."""
        return 0 if index == 0 else self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        """Write a register (writes to r0 are discarded)."""
        if index != 0:
            self.regs[index] = value & MASK32

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------
    def raise_irq(self) -> None:
        """Assert the (single) interrupt request line."""
        self.irq_pending = True

    def _take_irq(self) -> int:
        self.irq_pending = False
        self.irq_enabled = False
        self.epc = self.pc
        self.pc = self.ivec
        self.irq_count += 1
        return IRQ_ENTRY_CYCLES

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> Union[int, ExternalAccess]:
        """Execute one instruction (or take one pending interrupt).

        Returns the cycles consumed, or an :class:`ExternalAccess` if the
        instruction touched an external region (the CPU is then frozen
        until :meth:`complete_access`).  Exactly ``run_block(1)``: the
        one interpreter loop retires it.
        """
        if self.halted:
            return 0
        if self._pending is not None:
            raise CpuError("step() while an external access is pending")
        _steps, cycles, access = self._run(1)
        return cycles if access is None else access

    def complete_access(
        self, read_value: int = 0, extra_cycles: int = 0
    ) -> int:
        """Finish a deferred external access.

        ``read_value`` is the word returned by the device for loads.
        ``extra_cycles`` lets the backplane charge bus stall cycles into
        the CPU's cycle counter.  Returns total cycles for the
        instruction.
        """
        if self._pending is None:
            raise CpuError("no external access pending")
        pc_before, instr, access = self._pending
        self._pending = None
        if not access.is_write:
            self.set_reg(instr.rd, read_value)
        self.pc = pc_before + 1  # loads/stores never branch
        cycles = self.isa.cycles_of(instr.opcode) + extra_cycles
        self.instr_count += 1
        self.cycle_count += cycles
        for observer in tuple(self.observers):
            observer(pc_before, instr)
        return cycles

    @property
    def pending_access(self) -> Optional[ExternalAccess]:
        """The in-flight external access, if any."""
        return self._pending[2] if self._pending else None

    def run(
        self, max_instructions: int = 1_000_000
    ) -> int:
        """Run until ``halt`` (pure-software mode; external accesses are a
        :class:`CpuError` here).  Returns cycles consumed.
        """
        start_cycles = self.cycle_count
        executed = 0
        while not self.halted:
            if executed >= max_instructions:
                raise CpuError(
                    f"instruction budget {max_instructions} exhausted "
                    f"at pc={self.pc:#x}"
                )
            steps, _cycles, access = self.run_block(
                max_instructions - executed
            )
            if access is not None:
                raise CpuError(
                    f"external access at {access.addr:#x} outside "
                    "co-simulation; mount the region synchronously or "
                    "run under a backplane"
                )
            executed += steps
        return self.cycle_count - start_cycles

    def run_block(
        self, max_steps: int = 1 << 30
    ) -> Tuple[int, int, Optional[ExternalAccess]]:
        """Execute up to ``max_steps`` step-equivalents in one call.

        Identical to calling :meth:`step` up to ``max_steps`` times,
        stopping early after ``halt`` retires or an external access
        defers — both run the same interpreter loop, which retires
        whole runs of instructions in one Python frame over a
        pre-decoded operand cache (DESIGN.md §9).

        Returns ``(steps, cycles, access)``:

        * ``steps`` — step-equivalents consumed: retired instructions
          plus taken interrupts, plus one for a deferred external
          access;
        * ``cycles`` — the sum a ``step()`` loop would have returned:
          retired-instruction cycles plus interrupt-entry cycles (the
          latter are *returned* for the caller's timekeeping but never
          charged into ``cycle_count``).  A deferred instruction's
          cycles are charged by :meth:`complete_access`;
        * ``access`` — the pending :class:`ExternalAccess` if one was
          hit (the CPU is then frozen until :meth:`complete_access`).

        Observers (profilers, fault saboteurs, trace hooks) are called
        at each retirement, after ``pc``, ``instr_count`` and
        ``cycle_count`` are committed, and may rewrite any
        architectural state; with none attached the loop pays one
        truthiness test per instruction.
        """
        if self.halted or max_steps <= 0:
            return 0, 0, None
        if self._pending is not None:
            raise CpuError("run_block() while an external access is pending")
        return self._run(max_steps)

    def _run(self, max_steps: int) -> Tuple[int, int, Optional[ExternalAccess]]:
        """The interpreter loop behind :meth:`step` and :meth:`run_block`
        (callers have checked the halted/pending guards)."""
        memory = self.memory
        ram_get = memory.ram.get
        regs = self.regs
        observers = self.observers
        isa = self.isa
        ops = self._ops
        if self._ops_version != isa.version:
            ops.clear()
            self._ops_version = isa.version
        ops_get = ops.get
        # instr_count is always instr0 + steps: a taken IRQ is a step
        # but not a retirement, so it moves instr0 down by one
        instr0 = self.instr_count
        cycles0 = self.cycle_count
        pc = self.pc
        steps = 0
        cycles = 0
        irq_cycles = 0  # returned to the caller, never in cycle_count
        try:
            while steps < max_steps:
                if self.irq_pending and self.irq_enabled:
                    self.pc = pc
                    irq_cycles += self._take_irq()
                    pc = self.pc
                    steps += 1
                    instr0 -= 1
                    continue
                word = ram_get(pc)
                if word is None:
                    raise CpuError(
                        f"fetch from unprogrammed address {pc:#x}"
                    )
                entry = ops_get(word)
                if entry is None:
                    entry = self._predecode(word, pc)
                op, rd, rs1, rs2, imm, cyc, instr, fn = entry
                a = regs[rs1] if rs1 else 0
                next_pc = pc + 1
                if fn is not None:  # ALU, DIV/MOD, custom
                    try:
                        v = fn(a, regs[rs2] if rs2 else 0, imm)
                    except ZeroDivisionError:
                        if op == 0x04:
                            raise CpuError("division by zero") from None
                        if op == 0x05:
                            raise CpuError("modulo by zero") from None
                        raise
                    if rd:
                        regs[rd] = v
                elif 0x40 <= op <= 0x43:  # BEQ/BNE/BLT/BGE
                    lhs = regs[rd] if rd else 0
                    if op == 0x40:
                        taken = lhs == a
                    elif op == 0x41:
                        taken = lhs != a
                    else:
                        sl = lhs - 0x100000000 if lhs & 0x80000000 else lhs
                        sa = a - 0x100000000 if a & 0x80000000 else a
                        taken = sl < sa if op == 0x42 else sl >= sa
                    if taken:
                        next_pc = pc + 1 + imm
                        cyc += 1  # taken-branch penalty
                elif op == 0x30 or op == 0x31:  # LW / SW
                    # call-out: expose architectural state to handlers
                    self.pc = pc
                    self.instr_count = instr0 + steps
                    self.cycle_count = cycles0 + cycles
                    try:
                        if op == 0x30:
                            v = memory.read(a + imm) & MASK32
                            if rd:
                                regs[rd] = v
                        else:
                            memory.write(a + imm, regs[rd] if rd else 0)
                    except _Defer as defer:
                        self._pending = (pc, instr, defer.access)
                        return steps + 1, cycles + irq_cycles, defer.access
                elif op == 0x50:  # J
                    next_pc = imm
                elif op == 0x51:  # JAL
                    regs[15] = (pc + 1) & MASK32
                    next_pc = imm
                elif op == 0x52:  # JR
                    next_pc = a
                elif op == 0x60:  # RETI
                    next_pc = self.epc
                    self.irq_enabled = True
                elif op == 0x7F:  # HALT
                    self.halted = True
                    next_pc = pc
                else:  # pragma: no cover - decode guarantees known opcodes
                    raise CpuError(f"unimplemented opcode {op:#x}")

                cycles += cyc
                steps += 1
                if observers:
                    # commit first: an observer that raises leaves the
                    # retired instruction's state behind
                    retired_pc, pc = pc, next_pc
                    self.pc = pc
                    self.instr_count = instr0 + steps
                    self.cycle_count = cycles0 + cycles
                    # a snapshot: an observer may detach itself (a
                    # fired fault saboteur, Profiler.detach()) without
                    # the next one missing this instruction
                    for observer in tuple(observers):
                        observer(retired_pc, instr)
                    pc = self.pc
                    regs = self.regs
                    instr0 = self.instr_count - steps
                    cycles0 = self.cycle_count - cycles
                    if self._ops_version != isa.version:
                        ops.clear()
                        self._ops_version = isa.version
                else:
                    pc = next_pc
                if self.halted:
                    break
        finally:
            self.pc = pc
            self.instr_count = instr0 + steps
            self.cycle_count = cycles0 + cycles
        return steps, cycles + irq_cycles, None

    def _predecode(self, word: int, pc: int) -> tuple:
        """Fill one operand-cache entry for ``word``: the decoded
        fields, the cycle cost and the data-path function — the
        :data:`~repro.isa.instructions.SEMANTICS` entry, or the
        installed custom op's semantics."""
        isa = self.isa
        try:
            instr = isa.decode(word)
        except ValueError as exc:
            raise CpuError(f"pc={pc:#x}: {exc}") from None
        custom = isa.custom(instr.opcode)
        if custom is not None:
            sem = custom.semantics
            fn = lambda a, b, imm: sem(a, b) & MASK32  # noqa: E731
        else:
            fn = SEMANTICS.get(instr.opcode)
        entry = (
            instr.opcode, instr.rd, instr.rs1, instr.rs2, instr.imm,
            isa.cycle_table()[instr.opcode], instr, fn,
        )
        self._ops[word] = entry
        return entry

    def __repr__(self) -> str:
        return (
            f"Cpu(pc={self.pc:#x}, cycles={self.cycle_count}, "
            f"instrs={self.instr_count}, halted={self.halted})"
        )
