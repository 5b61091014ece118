//! The paper's primary contribution as a reusable library: **virtual
//! control flow randomization (VCFR)** data structures.
//!
//! VCFR separates two instruction address spaces:
//!
//! * the **original** space, in which instruction bytes are stored in the
//!   memory hierarchy (preserving fetch locality), and
//! * the **randomized** space, which is the only view the architecture —
//!   and therefore an attacker — ever sees.
//!
//! This crate provides the pieces shared by the binary rewriter and the
//! cycle simulator:
//!
//! * [`OrigAddr`] / [`RandAddr`] — newtypes that make it a type error to
//!   confuse the two spaces,
//! * [`LayoutMap`] — the per-instruction bijection between them, the one
//!   store of a layout,
//! * [`TranslationTable`] — the in-memory randomization/de-randomization
//!   tables with per-entry *derand* and *randomized* tag bits (§IV-A), a
//!   view over a [`LayoutMap`] plus the un-randomized fail-over entries,
//! * [`Drc`] — the on-chip de-randomization cache lookup buffer (§IV-B),
//! * [`StackBitmap`] — the bitmap tracking which stack slots hold
//!   randomized return addresses (§IV-C),
//! * [`rerandomize`] — periodic re-randomization support (§V-C),
//! * [`RandParams`] — the validated randomization parameter surface
//!   (entropy, sparsity, re-randomization epoch, DRC geometry) the
//!   security frontier sweeps.
//!
//! # Example
//!
//! ```
//! use vcfr_core::{Drc, LayoutMap, OrigAddr, RandAddr, TranslationTable};
//!
//! let map = LayoutMap::from_pairs([(OrigAddr(0x1000), RandAddr(0x90f0))]).unwrap();
//! let table = TranslationTable::from_layout(map, 0x4000_0000);
//! let mut drc = Drc::direct_mapped(64);
//!
//! // First lookup misses and must walk to the in-memory table ...
//! let miss = drc.derandomize(RandAddr(0x90f0), &table).unwrap();
//! assert!(!miss.hit);
//! // ... the second hits on chip.
//! let hit = drc.derandomize(RandAddr(0x90f0), &table).unwrap();
//! assert!(hit.hit);
//! assert_eq!(hit.translated, 0x1000);
//! ```

#![warn(missing_docs)]

mod addr;
mod bitmap;
mod drc;
mod layout;
mod params;
mod rerand;
mod table;

pub use addr::{OrigAddr, RandAddr};
pub use bitmap::StackBitmap;
pub use drc::{Drc, DrcConfig, DrcConfigError, DrcLookup, DrcStats, MAX_DRC_ENTRIES};
pub use layout::{LayoutError, LayoutMap};
pub use params::{
    RandParams, RandParamsError, MAX_ENTROPY_BITS, MAX_SPARSITY, MIN_ENTROPY_BITS,
};
pub use rerand::rerandomize;
pub use table::{EntryKind, TableEntry, TranslateError, TranslationTable};
