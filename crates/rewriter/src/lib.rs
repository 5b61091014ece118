//! The static binary rewriter: disassembly, control-flow recovery and the
//! per-instruction ILR randomizer (§IV-A of the paper).
//!
//! The pipeline mirrors Figure 6 of the paper:
//!
//! 1. [`disasm`] — recursive-descent disassembly seeded from the entry
//!    point, function symbols and relocation targets, with a linear-sweep
//!    pass over any gaps (the paper uses IDA Pro plus a complete objdump
//!    scan).
//! 2. [`cfg`](mod@cfg) — basic blocks via the leader algorithm, edges for direct
//!    transfers and fall-throughs, conservative edges for indirect
//!    transfers.
//! 3. [`analysis`] — indirect-target recovery: relocation information,
//!    intra-block constant propagation and the byte-by-byte pointer-sized
//!    constant scan of Hiser et al.; plus the return-address
//!    randomization safety analysis.
//! 4. [`randomize`](mod@randomize) — address assignment at per-instruction granularity,
//!    direct-branch and data-slot rewriting, translation-table
//!    generation, and materialisation of the scattered binary image.
//! 5. [`stats`] — the static control-flow statistics reported in
//!    Table II and Figure 9.
//!
//! # Example
//!
//! ```
//! use vcfr_isa::{Asm, Reg};
//! use vcfr_rewriter::{randomize, RandomizeConfig};
//!
//! let mut a = Asm::new(0x1000);
//! a.mov_ri(Reg::Rax, 41);
//! a.alu_ri(vcfr_isa::AluOp::Add, Reg::Rax, 1);
//! a.emit_output(Reg::Rax);
//! a.halt();
//! let image = a.finish().unwrap();
//!
//! let rp = randomize(&image, &RandomizeConfig::with_seed(7)).unwrap();
//! // The rewritten program computes the same result ...
//! let out = rp.scattered_machine().run(1000).unwrap().output;
//! assert_eq!(out, vec![42]);
//! // ... at completely different instruction addresses.
//! assert_eq!(rp.layout().len(), 4);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod cfg;
pub mod disasm;
pub mod persist;
pub mod randomize;
pub mod stats;

pub use analysis::{
    address_taken_targets, resolve_indirect_targets, return_address_safety, IndirectResolution,
    Resolved,
};
pub use cfg::{BasicBlock, Cfg, Terminator};
pub use disasm::{disassemble, DisasmError, Disassembly};
pub use randomize::{
    randomize, RandomizeConfig, RandomizeError, RandomizeStats, RandomizedProgram,
};
pub use persist::PROGRAM_MAGIC;
pub use stats::{analyze_control_flow, ControlFlowStats};
