//! A ROPgadget-style gadget scanner and payload assembler (§V-B).
//!
//! The paper evaluates its security claim with ROPgadget 4.0.1, modified
//! to "search for gadgets using un-randomized instruction locations".
//! This crate reproduces that methodology over our ISA:
//!
//! * [`scan`] decodes candidate gadgets at **every byte offset** of the
//!   text section (unintended instructions included — the variable-length
//!   encoding makes unaligned decodes meaningful, exactly as on x86),
//! * [`classify`] assigns each gadget the capabilities an exploit writer
//!   cares about (load a register from the stack, write memory, perform
//!   arithmetic, pivot control, raise a syscall),
//! * [`templates`] provides attack-payload templates and
//!   [`assemble_payload`] tries to satisfy one from the *usable* gadget
//!   pool,
//! * [`compare_surface`] runs the whole pipeline before and after
//!   randomization: after VCFR only gadgets whose start address the
//!   translation tables still accept (un-randomized fail-over locations)
//!   remain mountable — everything else is unaddressable (Figure 11).
//!
//! [`AttackSurface`] consolidates the whole pipeline behind one entry
//! point, and [`fuzz_params`] runs the coverage-guided gadget-chain
//! fuzzer measuring empirical attacker success probability at one
//! [`vcfr_core::RandParams`] point — the security half of the
//! entropy/security frontier.

#![warn(missing_docs)]

mod attack;
mod fuzz;
mod payload;
mod scanner;
mod surface;

pub use attack::{AttackSurface, ChainRun};
pub use fuzz::{
    fuzz_params, fuzz_trial, seed_corpus, splitmix64, FuzzConfig, FuzzReport, TrialReport,
};
pub use payload::{assemble_payload, templates, Payload, PayloadTemplate, Requirement};
pub use scanner::{classify, scan, Capability, Gadget, GadgetEnd, MAX_GADGET_LEN};
pub use surface::{compare_surface, SurfaceComparison};
