"""The R32 instruction-set processor: the framework's software substrate.

Type I hardware/software systems (Figure 1a) view software as a program
executing on an instruction-set processor.  This package provides that
processor end to end:

* :mod:`repro.isa.instructions` — the R32 ISA definition and binary
  encoding, including a reserved *custom-instruction* opcode space used
  by the ASIP tools (Section 4.3/4.4 of the paper), and the one table
  of data-path semantics both execution tiers share;
* :mod:`repro.isa.assembler` — a two-pass assembler with labels, data
  directives, and pseudo-instructions;
* :mod:`repro.isa.cpu` — a cycle-counting functional CPU model with
  memory-mapped I/O and interrupts;
* :mod:`repro.isa.codegen` — a code generator lowering CDFG behaviors to
  R32 assembly (the same behaviors high-level synthesis lowers to
  hardware, enabling true co-verification);
* :mod:`repro.isa.profiler` — execution profiling for hot-spot-driven
  partitioning and custom-instruction mining;
* :mod:`repro.isa.batch` — the vectorized batch execution tier: many
  near-identical runs (fault lanes, input sweeps) as columns of one
  structure-of-arrays machine, with divergent lanes drained to the
  scalar tiers (DESIGN §14).
"""

from repro.isa.instructions import Instruction, Isa, Opcode
from repro.isa.assembler import AssemblerError, assemble
from repro.isa.cpu import Cpu, CpuError, Memory
from repro.isa.batch import BatchCpu, BatchStats, LaneExit

__all__ = [
    "Isa",
    "Opcode",
    "Instruction",
    "assemble",
    "AssemblerError",
    "Cpu",
    "Memory",
    "CpuError",
    "BatchCpu",
    "BatchStats",
    "LaneExit",
]
