//! A cycle-based, trace-driven model of the paper's simulated core: a
//! 1.6 GHz single-issue in-order x86-style pipeline with gshare/BTB/RAS
//! prediction, split 32 KB L1s, a 512 KB unified L2, a next-line
//! instruction prefetcher, fully-associative TLBs, a DDR DRAM model — and
//! the VCFR mediation layer (dual program counters plus a DRC lookup
//! buffer whose misses walk in-memory tables through the L2).
//!
//! The architectural instruction stream comes from the functional
//! interpreter in `vcfr-isa`; this crate replays it through the timing
//! model. Three [`Mode`]s reproduce the paper's machines: baseline,
//! naive hardware ILR (scattered fetch, free address mapping) and VCFR.
//!
//! # Example
//!
//! ```
//! use vcfr_isa::{Asm, Reg};
//! use vcfr_rewriter::{randomize, RandomizeConfig};
//! use vcfr_sim::{simulate, Mode, SimConfig};
//! use vcfr_core::DrcConfig;
//!
//! let mut a = Asm::new(0x1000);
//! a.mov_ri(Reg::Rcx, 100);
//! let top = a.here();
//! a.alu_ri(vcfr_isa::AluOp::Sub, Reg::Rcx, 1);
//! a.cmp_i(Reg::Rcx, 0);
//! a.jcc(vcfr_isa::Cond::Ne, top);
//! a.halt();
//! let img = a.finish().unwrap();
//!
//! let cfg = SimConfig::default();
//! let base = simulate(Mode::Baseline(&img), &cfg, 100_000).unwrap();
//! let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
//! let vcfr = simulate(
//!     Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
//!     &cfg,
//!     100_000,
//! ).unwrap();
//! assert_eq!(base.outcome.output, vcfr.outcome.output);
//! ```

#![warn(missing_docs)]

mod cache;
mod checkpoint;
mod config;
mod dram;
mod emulator;
mod engine;
mod error;
mod faults;
mod flatmap;
mod hierarchy;
mod mediation;
mod multicore;
mod ooo;
mod predict;
mod session;
mod stats;
mod tlb;

pub use cache::{AccessResult, Cache, CacheStats};
pub use checkpoint::{CheckpointError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use config::{
    BtbConfig, CacheConfig, DramConfig, DrcBacking, EngineKind, GshareConfig, SimConfig,
    SimConfigBuilder,
};
pub use error::VcfrError;
pub use dram::{Dram, DramStats};
pub use emulator::{emulate, EmulationReport, EmulatorCostModel};
pub use engine::{
    simulate, simulate_faulted, simulate_sampled, FaultedRun, IntervalSample, SimError, SimOutput,
    TraceEvent, TraceEventKind,
};
pub use faults::{
    ContainmentPolicy, FaultOutcome, FaultPersistence, FaultPlan, FaultRecord, FaultStats,
    FaultTarget, ScheduledFault,
};
pub use flatmap::FlatMap;
pub use hierarchy::MemoryHierarchy;
pub use mediation::Mode;
pub use multicore::{simulate_multicore, MultiCoreOutput};
pub use ooo::{simulate_ooo, OooConfig};
pub use predict::{BranchStats, Btb, Gshare, Ras};
pub use session::{ProgressSink, Session, SessionOutcome, SessionStatus};
pub use stats::SimStats;
pub use tlb::{Tlb, TlbStats};
