//! The in-memory randomization/de-randomization tables.
//!
//! The paper stores these tables in kernel-managed pages that are
//! invisible to user-space instructions (a TLB page-visibility bit); the
//! processor walks them on a DRC miss, through the unified L2. Two details
//! matter for both security and timing and are modelled here exactly:
//!
//! * every entry carries a **derand/rand tag** saying which direction it
//!   translates, and
//! * every *original* address that was safely randomized has its
//!   **randomized tag** set, which *prohibits* control transfers to that
//!   address in the original space — this is what shrinks the ROP surface
//!   to the un-randomized fail-over set.

use crate::{LayoutMap, OrigAddr, RandAddr};
use std::collections::HashSet;
use std::fmt;

/// Which direction a [`TableEntry`] translates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EntryKind {
    /// Randomized → original (the *derand* tag is set).
    Derand,
    /// Original → randomized (the *derand* tag is clear).
    Rand,
}

/// One translation entry, as it would sit in the in-memory table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableEntry {
    /// Translation direction.
    pub kind: EntryKind,
    /// Source address (raw bits; interpret according to `kind`).
    pub from: u32,
    /// Translated address.
    pub to: u32,
    /// Set when `from` is an un-randomized address mapped to itself
    /// (fail-over entries for indirect transfers that could not be
    /// randomized).
    pub unrandomized: bool,
}

/// A failed address translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// No entry translates the address: in hardware this is a security
    /// fault — the program (or an attacker) produced an address that is
    /// neither a live randomized address nor a permitted un-randomized
    /// fail-over target.
    Unmapped {
        /// The raw address that failed to translate.
        addr: u32,
        /// The direction that was attempted.
        kind: EntryKind,
    },
    /// The address names an original-space instruction whose randomized
    /// tag is set: entering it in the original space is prohibited
    /// (§IV-A, "execution control is prohibited from jumping to that
    /// location").
    Prohibited {
        /// The prohibited original address.
        orig: OrigAddr,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Unmapped { addr, kind } => {
                write!(f, "no {kind:?} translation for {addr:#010x}")
            }
            TranslateError::Prohibited { orig } => {
                write!(f, "control transfer to randomized-tagged original address {orig}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// The randomization/de-randomization tables of one program instance: a
/// view over its [`LayoutMap`], whose two directions are the *derand*
/// and *rand* entries, plus the un-randomized fail-over entries.
///
/// # Example
///
/// ```
/// use vcfr_core::{LayoutMap, OrigAddr, RandAddr, TranslationTable};
/// let map = LayoutMap::from_pairs([(OrigAddr(0x1000), RandAddr(0x7777))]).unwrap();
/// let mut t = TranslationTable::from_layout(map, 0x4000_0000);
/// assert_eq!(t.derand(RandAddr(0x7777)).unwrap(), OrigAddr(0x1000));
/// assert_eq!(t.rand(OrigAddr(0x1000)).unwrap(), RandAddr(0x7777));
/// // Jumping to 0x1000 in the *original* space is prohibited ...
/// assert!(t.derand(RandAddr(0x1000)).is_err());
/// // ... until it is explicitly registered as an un-randomized fail-over.
/// t.add_unrandomized(OrigAddr(0x2000));
/// assert_eq!(t.derand(RandAddr(0x2000)).unwrap(), OrigAddr(0x2000));
/// ```
#[derive(Clone, Debug)]
pub struct TranslationTable {
    /// The layout: every mapped original address has its randomized tag
    /// set (entering it in original space faults).
    layout: LayoutMap,
    /// Original addresses that remain legal un-randomized entry points.
    unrandomized: HashSet<u32>,
    base: u32,
    capacity_mask: u32,
}

/// Bytes occupied by one table entry in memory (two 32-bit addresses plus
/// tag/valid bits, padded to a power of two for cheap indexing).
pub(crate) const ENTRY_BYTES: u32 = 16;

impl TranslationTable {
    /// Builds the tables for a randomized layout. `table_base` is the
    /// virtual address at which the entry pages live (used to model DRC
    /// miss traffic through the cache hierarchy).
    pub fn from_layout(layout: LayoutMap, table_base: u32) -> TranslationTable {
        TranslationTable {
            capacity_mask: (layout.len().max(1) * 2).next_power_of_two() as u32 - 1,
            layout,
            unrandomized: HashSet::new(),
            base: table_base,
        }
    }

    /// The layout the tables translate.
    pub fn layout(&self) -> &LayoutMap {
        &self.layout
    }

    /// Registers `orig` as a legal un-randomized fail-over target
    /// (identity entry with the randomized tag clear).
    pub fn add_unrandomized(&mut self, orig: OrigAddr) {
        self.unrandomized.insert(orig.raw());
    }

    /// Whether `orig` holds a randomized instruction (its randomized tag
    /// is set).
    pub fn is_randomized(&self, orig: OrigAddr) -> bool {
        self.layout.to_rand(orig).is_some()
    }

    /// Number of derand + rand entries, plus the fail-over entries.
    pub fn len(&self) -> usize {
        2 * self.layout.len() + self.unrandomized.len()
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Translates an architectural (randomized-space) address to the
    /// original space.
    ///
    /// Un-randomized fail-over addresses translate to themselves.
    ///
    /// # Errors
    ///
    /// [`TranslateError::Prohibited`] when the address names a randomized
    /// instruction in the original space; [`TranslateError::Unmapped`]
    /// when nothing translates it.
    pub fn derand(&self, rand: RandAddr) -> Result<OrigAddr, TranslateError> {
        if let Some(o) = self.layout.to_orig(rand) {
            return Ok(o);
        }
        if self.unrandomized.contains(&rand.raw()) {
            return Ok(OrigAddr(rand.raw()));
        }
        if self.is_randomized(OrigAddr(rand.raw())) {
            return Err(TranslateError::Prohibited { orig: OrigAddr(rand.raw()) });
        }
        Err(TranslateError::Unmapped { addr: rand.raw(), kind: EntryKind::Derand })
    }

    /// Translates an original-space address to the randomized space
    /// (used when a `call` pushes its randomized return address).
    ///
    /// # Errors
    ///
    /// [`TranslateError::Unmapped`] when the address has no randomized
    /// image and is not a registered un-randomized target.
    pub fn rand(&self, orig: OrigAddr) -> Result<RandAddr, TranslateError> {
        if let Some(r) = self.layout.to_rand(orig) {
            return Ok(r);
        }
        if self.unrandomized.contains(&orig.raw()) {
            return Ok(RandAddr(orig.raw()));
        }
        Err(TranslateError::Unmapped { addr: orig.raw(), kind: EntryKind::Rand })
    }

    /// Returns the full entry for a lookup, as the DRC fill path would.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TranslationTable::derand`] /
    /// [`TranslationTable::rand`].
    pub fn entry(&self, kind: EntryKind, addr: u32) -> Result<TableEntry, TranslateError> {
        match kind {
            EntryKind::Derand => {
                let o = self.derand(RandAddr(addr))?;
                Ok(TableEntry {
                    kind,
                    from: addr,
                    to: o.raw(),
                    unrandomized: o.raw() == addr,
                })
            }
            EntryKind::Rand => {
                let r = self.rand(OrigAddr(addr))?;
                Ok(TableEntry {
                    kind,
                    from: addr,
                    to: r.raw(),
                    unrandomized: r.raw() == addr,
                })
            }
        }
    }

    /// The virtual address of the table slot that would hold the entry
    /// for `(kind, addr)` — what the hardware reads from L2/DRAM on a DRC
    /// miss. Deterministic open-addressing layout.
    pub fn entry_addr(&self, kind: EntryKind, addr: u32) -> u32 {
        let kind_bit = match kind {
            EntryKind::Derand => 0u32,
            EntryKind::Rand => 1u32,
        };
        // Fibonacci hash over the word-aligned address plus the kind bit.
        let h = (addr >> 2).wrapping_mul(0x9e37_79b9) ^ kind_bit.wrapping_mul(0x85eb_ca6b);
        self.base.wrapping_add((h & self.capacity_mask) * ENTRY_BYTES)
    }

    /// Base virtual address of the table pages.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Iterates the registered un-randomized fail-over addresses (used
    /// when persisting a program and when an epoch rebuilds its tables).
    pub fn unrandomized_addrs(&self) -> impl Iterator<Item = OrigAddr> + '_ {
        self.unrandomized.iter().map(|a| OrigAddr(*a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TranslationTable {
        let map = LayoutMap::from_pairs([
            (OrigAddr(0x1000), RandAddr(0xa000)),
            (OrigAddr(0x1005), RandAddr(0xb000)),
        ])
        .unwrap();
        TranslationTable::from_layout(map, 0x4000_0000)
    }

    #[test]
    fn derand_and_rand_roundtrip() {
        let t = table();
        assert_eq!(t.derand(RandAddr(0xa000)).unwrap(), OrigAddr(0x1000));
        assert_eq!(t.rand(OrigAddr(0x1005)).unwrap(), RandAddr(0xb000));
    }

    #[test]
    fn randomized_tag_prohibits_original_entry() {
        let t = table();
        // 0x1000 is a randomized instruction: entering it via the
        // original space must fault. This is the anti-ROP property.
        assert_eq!(
            t.derand(RandAddr(0x1000)),
            Err(TranslateError::Prohibited { orig: OrigAddr(0x1000) })
        );
        assert!(t.is_randomized(OrigAddr(0x1000)));
    }

    #[test]
    fn unrandomized_failover_is_identity() {
        let mut t = table();
        t.add_unrandomized(OrigAddr(0x3000));
        assert_eq!(t.derand(RandAddr(0x3000)).unwrap(), OrigAddr(0x3000));
        assert_eq!(t.rand(OrigAddr(0x3000)).unwrap(), RandAddr(0x3000));
        let e = t.entry(EntryKind::Derand, 0x3000).unwrap();
        assert!(e.unrandomized);
    }

    #[test]
    fn unknown_addresses_are_unmapped() {
        let t = table();
        assert!(matches!(
            t.derand(RandAddr(0xdead_0000)),
            Err(TranslateError::Unmapped { kind: EntryKind::Derand, .. })
        ));
        assert!(matches!(
            t.rand(OrigAddr(0xdead_0000)),
            Err(TranslateError::Unmapped { kind: EntryKind::Rand, .. })
        ));
    }

    #[test]
    fn entry_addresses_are_stable_in_range_and_kind_distinct() {
        let t = table();
        let a1 = t.entry_addr(EntryKind::Derand, 0xa000);
        let a2 = t.entry_addr(EntryKind::Derand, 0xa000);
        assert_eq!(a1, a2);
        assert_ne!(a1, t.entry_addr(EntryKind::Rand, 0xa000));
        // Entry slots stay within the table's span.
        let span = (t.capacity_mask + 1) * ENTRY_BYTES;
        assert!(a1 >= t.base() && a1 < t.base() + span);
    }

    #[test]
    fn rand_entry_via_entry_api() {
        let t = table();
        let e = t.entry(EntryKind::Rand, 0x1000).unwrap();
        assert_eq!((e.from, e.to), (0x1000, 0xa000));
        assert!(!e.unrandomized);
        assert!(t.entry(EntryKind::Rand, 0xdead).is_err());
    }

    #[test]
    fn unrandomized_iteration_matches_registration() {
        let mut t = table();
        t.add_unrandomized(OrigAddr(0x3000));
        t.add_unrandomized(OrigAddr(0x3004));
        let mut got: Vec<u32> = t.unrandomized_addrs().map(|a| a.raw()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0x3000, 0x3004]);
    }

    #[test]
    fn len_counts_all_entries() {
        let mut t = table();
        assert_eq!(t.len(), 4);
        t.add_unrandomized(OrigAddr(0x3000));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }
}
