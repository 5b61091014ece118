//! The on-chip de-randomization cache (DRC) lookup buffer.
//!
//! A small cache of [`TranslationTable`] entries sitting between the
//! execution pipeline and the memory hierarchy (§IV-B). The paper's design
//! points, all modelled here:
//!
//! * one *unified* buffer stores both randomization and de-randomization
//!   entries, distinguished by a per-entry derand tag;
//! * each entry has a valid bit;
//! * the buffer is **direct mapped** ("we designed DRC as direct mapped
//!   cache with small size to minimize power consumption") — an
//!   associativity knob is provided for the ablation study;
//! * on a miss the hardware walks the in-memory table through the unified
//!   L2 (the caller gets the entry's memory address so the cycle
//!   simulator can charge that traffic).

use crate::table::{EntryKind, TranslateError, TranslationTable};
use crate::{OrigAddr, RandAddr};
use std::fmt;
use vcfr_isa::wire::{Counters, Reader, WireError, Writer};

/// Configuration of a [`Drc`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrcConfig {
    /// Total number of translation entries (64–512 in the paper's sweep).
    pub entries: usize,
    /// Associativity; 1 (direct mapped) in the paper's design.
    pub ways: usize,
}

/// Largest accepted [`DrcConfig::entries`]: far above the 64–512 entries
/// of the paper's sweep, and small enough that building the buffer never
/// strains memory.
pub const MAX_DRC_ENTRIES: usize = 1 << 16;

/// A [`DrcConfig`] the buffer cannot be built with. Every variant's
/// `Display` names the offending field, the accepted range, and the
/// rejected value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrcConfigError {
    /// `entries` outside `1..=MAX_DRC_ENTRIES`.
    Entries(usize),
    /// `ways` was zero or did not divide `entries`.
    Ways {
        /// The rejected entry count.
        entries: usize,
        /// The rejected way count.
        ways: usize,
    },
    /// `entries / ways` was not a power of two.
    Sets {
        /// The rejected set count.
        sets: usize,
    },
}

impl fmt::Display for DrcConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DrcConfigError::Entries(got) => {
                write!(f, "drc.entries must be in 1..={MAX_DRC_ENTRIES} (got {got})")
            }
            DrcConfigError::Ways { entries, ways } => write!(
                f,
                "drc.ways must be positive and divide drc.entries (got entries={entries}, ways={ways})"
            ),
            DrcConfigError::Sets { sets } => write!(
                f,
                "drc.entries / drc.ways must be a power of two (got {sets} sets)"
            ),
        }
    }
}

impl std::error::Error for DrcConfigError {}

impl DrcConfig {
    /// A direct-mapped DRC with `entries` entries, the paper's design.
    pub fn direct_mapped(entries: usize) -> DrcConfig {
        DrcConfig { entries, ways: 1 }
    }

    /// Checks the geometry: `1..=MAX_DRC_ENTRIES` entries, a way count
    /// that divides them, and a power-of-two set count. The one place
    /// the accepted DRC geometries live; [`Drc::new`] panics on anything
    /// this rejects.
    ///
    /// # Example
    ///
    /// ```
    /// use vcfr_core::{DrcConfig, MAX_DRC_ENTRIES};
    /// assert!(DrcConfig::direct_mapped(128).validate().is_ok());
    /// assert!(DrcConfig::direct_mapped(96).validate().is_err());
    /// assert!(DrcConfig::direct_mapped(MAX_DRC_ENTRIES * 2).validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), DrcConfigError> {
        if self.entries == 0 || self.entries > MAX_DRC_ENTRIES {
            return Err(DrcConfigError::Entries(self.entries));
        }
        if self.ways == 0 || !self.entries.is_multiple_of(self.ways) {
            return Err(DrcConfigError::Ways { entries: self.entries, ways: self.ways });
        }
        let sets = self.entries / self.ways;
        if !sets.is_power_of_two() {
            return Err(DrcConfigError::Sets { sets });
        }
        Ok(())
    }
}

impl Default for DrcConfig {
    fn default() -> DrcConfig {
        DrcConfig::direct_mapped(128)
    }
}

/// Hit/miss counters of a [`Drc`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrcStats {
    /// Total lookups (both directions).
    pub lookups: u64,
    /// Lookups that missed and required a table walk.
    pub misses: u64,
    /// De-randomization (randomized → original) lookups.
    pub derand_lookups: u64,
    /// Randomization (original → randomized) lookups.
    pub rand_lookups: u64,
}

impl Counters for DrcStats {
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
        f("lookup", &mut self.lookups);
        f("miss", &mut self.misses);
        f("derand_lookup", &mut self.derand_lookups);
        f("rand_lookup", &mut self.rand_lookups);
    }
}

impl DrcStats {
    /// Miss rate over all lookups (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }
}

/// Result of one DRC lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrcLookup {
    /// Whether the entry was already on chip.
    pub hit: bool,
    /// The translated address (raw bits).
    pub translated: u32,
    /// Whether the matched entry is an un-randomized fail-over entry.
    pub unrandomized: bool,
    /// Memory address of the table slot (only meaningful on a miss: the
    /// address the hardware fetches through L2).
    pub entry_addr: u32,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    valid: bool,
    /// Kind bit (derand tag) folded with the source address.
    key: u64,
    value: u32,
    unrandomized: bool,
    lru: u64,
}

const INVALID_LINE: Line = Line { valid: false, key: 0, value: 0, unrandomized: false, lru: 0 };

/// The DRC lookup buffer.
///
/// # Example
///
/// ```
/// use vcfr_core::{Drc, LayoutMap, OrigAddr, RandAddr, TranslationTable};
/// let map = LayoutMap::from_pairs([(OrigAddr(4), RandAddr(44))]).unwrap();
/// let table = TranslationTable::from_layout(map, 0x4000_0000);
/// let mut drc = Drc::direct_mapped(64);
/// drc.randomize(OrigAddr(4), &table).unwrap();
/// assert_eq!(drc.stats().misses, 1);
/// drc.randomize(OrigAddr(4), &table).unwrap();
/// assert_eq!(drc.stats().misses, 1); // second lookup hits
/// ```
#[derive(Clone, Debug)]
pub struct Drc {
    cfg: DrcConfig,
    sets: usize,
    lines: Vec<Line>,
    stats: DrcStats,
    tick: u64,
}

impl Drc {
    /// Creates a DRC with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`DrcConfig::validate`] rejects `cfg`.
    pub fn new(cfg: DrcConfig) -> Drc {
        if let Err(e) = cfg.validate() {
            panic!("invalid DRC geometry: {e}");
        }
        let sets = cfg.entries / cfg.ways;
        Drc { cfg, sets, lines: vec![INVALID_LINE; cfg.entries], stats: DrcStats::default(), tick: 0 }
    }

    /// Creates the paper's direct-mapped configuration.
    pub fn direct_mapped(entries: usize) -> Drc {
        Drc::new(DrcConfig::direct_mapped(entries))
    }

    /// The configuration the DRC was built with.
    pub fn config(&self) -> DrcConfig {
        self.cfg
    }

    /// Lookup counters.
    pub fn stats(&self) -> DrcStats {
        self.stats
    }

    /// Clears the counters (e.g. after a warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = DrcStats::default();
    }

    /// Invalidates every entry (used on context switch or
    /// re-randomization).
    pub fn flush(&mut self) {
        self.lines.fill(INVALID_LINE);
    }

    /// Models a transient bit flip landing in DRC entry `lane` (taken
    /// modulo the buffer size). Each entry carries parity, so a flip in a
    /// *valid* entry is detected on the next probe and the line is
    /// scrubbed (invalidated) — the translation refills from the
    /// in-memory table on its next use, surfacing as an ordinary miss.
    /// Returns `true` when a valid entry was scrubbed, `false` when the
    /// flip landed in an invalid entry and is architecturally masked.
    pub fn scrub_entry(&mut self, lane: usize) -> bool {
        let at = lane % self.lines.len();
        let was_valid = self.lines[at].valid;
        self.lines[at] = INVALID_LINE;
        was_valid
    }

    /// Number of currently valid entries (fault-campaign observability).
    pub fn valid_entries(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn key(kind: EntryKind, addr: u32) -> u64 {
        let kind_bit = match kind {
            EntryKind::Derand => 0u64,
            EntryKind::Rand => 1u64,
        };
        (kind_bit << 32) | addr as u64
    }

    fn set_index(&self, addr: u32) -> usize {
        // Instruction addresses: drop the low 2 bits, as the paper's
        // 32-bit translation entries would.
        ((addr >> 2) as usize) & (self.sets - 1)
    }

    fn lookup(
        &mut self,
        kind: EntryKind,
        addr: u32,
        table: &TranslationTable,
    ) -> Result<DrcLookup, TranslateError> {
        self.tick += 1;
        self.stats.lookups += 1;
        match kind {
            EntryKind::Derand => self.stats.derand_lookups += 1,
            EntryKind::Rand => self.stats.rand_lookups += 1,
        }
        let key = Drc::key(kind, addr);
        let set = self.set_index(addr);
        let ways = self.cfg.ways;
        let base = set * ways;
        let entry_addr = table.entry_addr(kind, addr);

        // Probe.
        for w in 0..ways {
            let line = &mut self.lines[base + w];
            if line.valid && line.key == key {
                line.lru = self.tick;
                return Ok(DrcLookup {
                    hit: true,
                    translated: line.value,
                    unrandomized: line.unrandomized,
                    entry_addr,
                });
            }
        }

        // Miss: walk the in-memory table, then fill the LRU way.
        self.stats.misses += 1;
        let e = table.entry(kind, addr)?;
        let victim = (0..ways)
            .min_by_key(|w| {
                let l = &self.lines[base + w];
                if l.valid {
                    l.lru
                } else {
                    0
                }
            })
            .expect("ways > 0");
        self.lines[base + victim] = Line {
            valid: true,
            key,
            value: e.to,
            unrandomized: e.unrandomized,
            lru: self.tick,
        };
        Ok(DrcLookup { hit: false, translated: e.to, unrandomized: e.unrandomized, entry_addr })
    }

    /// Serialises the full cache state (checkpoint support): every line
    /// in set order, then the counters and the LRU tick, so a restored
    /// DRC replays hits, misses and evictions bit-identically.
    pub fn save(&self, w: &mut Writer) {
        for line in &self.lines {
            w.u8(u8::from(line.valid));
            w.u64(line.key);
            w.u32(line.value);
            w.u8(u8::from(line.unrandomized));
            w.u64(line.lru);
        }
        let mut stats = self.stats;
        stats.save(w);
        w.u64(self.tick);
    }

    /// Rebuilds a DRC from [`Drc::save`] output. The geometry is not part
    /// of the stream; the caller supplies the same `cfg` the saved DRC
    /// was built with.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or malformed flag bytes.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` itself is invalid (see [`Drc::new`]).
    pub fn restore(cfg: DrcConfig, r: &mut Reader<'_>) -> Result<Drc, WireError> {
        let mut drc = Drc::new(cfg);
        for line in &mut drc.lines {
            let valid = r.u8()?;
            if valid > 1 {
                return Err(WireError::BadTag { tag: valid });
            }
            let key = r.u64()?;
            let value = r.u32()?;
            let unrandomized = r.u8()?;
            if unrandomized > 1 {
                return Err(WireError::BadTag { tag: unrandomized });
            }
            let lru = r.u64()?;
            *line = Line { valid: valid == 1, key, value, unrandomized: unrandomized == 1, lru };
        }
        drc.stats.restore(r)?;
        drc.tick = r.u64()?;
        Ok(drc)
    }

    /// De-randomizes an architectural address (RPC → UPC).
    ///
    /// # Errors
    ///
    /// Propagates the table's [`TranslateError`] — in hardware, a
    /// security fault.
    pub fn derandomize(
        &mut self,
        rand: RandAddr,
        table: &TranslationTable,
    ) -> Result<DrcLookup, TranslateError> {
        self.lookup(EntryKind::Derand, rand.raw(), table)
    }

    /// Randomizes an original address (e.g. the return address a `call`
    /// pushes).
    ///
    /// # Errors
    ///
    /// Propagates the table's [`TranslateError`].
    pub fn randomize(
        &mut self,
        orig: OrigAddr,
        table: &TranslationTable,
    ) -> Result<DrcLookup, TranslateError> {
        self.lookup(EntryKind::Rand, orig.raw(), table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayoutMap;

    fn table(n: u32) -> TranslationTable {
        let map = LayoutMap::from_pairs(
            (0..n).map(|i| (OrigAddr(0x1000 + i * 4), RandAddr(0x9000 + i * 256))),
        )
        .unwrap();
        TranslationTable::from_layout(map, 0x4000_0000)
    }

    #[test]
    fn hit_after_fill() {
        let t = table(1);
        let mut drc = Drc::direct_mapped(64);
        let first = drc.derandomize(RandAddr(0x9000), &t).unwrap();
        assert!(!first.hit);
        assert_eq!(first.translated, 0x1000);
        let second = drc.derandomize(RandAddr(0x9000), &t).unwrap();
        assert!(second.hit);
        assert_eq!(drc.stats().lookups, 2);
        assert_eq!(drc.stats().misses, 1);
        assert!((drc.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derand_and_rand_entries_coexist() {
        let t = table(1);
        // 0x9000 and 0x1000 index to the same set; use two ways so both
        // directions stay resident for the hit check below.
        let mut drc = Drc::new(DrcConfig { entries: 128, ways: 2 });
        drc.derandomize(RandAddr(0x9000), &t).unwrap();
        drc.randomize(OrigAddr(0x1000), &t).unwrap();
        assert_eq!(drc.stats().derand_lookups, 1);
        assert_eq!(drc.stats().rand_lookups, 1);
        // Both directions now hit.
        assert!(drc.derandomize(RandAddr(0x9000), &t).unwrap().hit);
        assert!(drc.randomize(OrigAddr(0x1000), &t).unwrap().hit);
    }

    #[test]
    fn direct_mapped_conflicts_evict() {
        let t = table(3);
        // 2 sets → addresses 0x9000 and 0x9200 both map to set 0
        // ((addr >> 2) & 1 == 0).
        let mut drc = Drc::direct_mapped(2);
        assert!(!drc.derandomize(RandAddr(0x9000), &t).unwrap().hit);
        assert!(!drc.derandomize(RandAddr(0x9200), &t).unwrap().hit);
        // 0x9000 was evicted by the conflicting fill.
        assert!(!drc.derandomize(RandAddr(0x9000), &t).unwrap().hit);
    }

    #[test]
    fn two_way_absorbs_the_same_conflict() {
        let t = table(3);
        let mut drc = Drc::new(DrcConfig { entries: 4, ways: 2 });
        drc.derandomize(RandAddr(0x9000), &t).unwrap();
        drc.derandomize(RandAddr(0x9200), &t).unwrap();
        assert!(drc.derandomize(RandAddr(0x9000), &t).unwrap().hit);
        assert!(drc.derandomize(RandAddr(0x9200), &t).unwrap().hit);
    }

    #[test]
    fn flush_invalidates() {
        let t = table(1);
        let mut drc = Drc::direct_mapped(64);
        drc.derandomize(RandAddr(0x9000), &t).unwrap();
        drc.flush();
        assert!(!drc.derandomize(RandAddr(0x9000), &t).unwrap().hit);
    }

    #[test]
    fn translation_faults_propagate_and_do_not_fill() {
        let t = table(1);
        let mut drc = Drc::direct_mapped(64);
        assert!(drc.derandomize(RandAddr(0xdead_0000), &t).is_err());
        // The failed lookup counted but nothing was cached.
        assert_eq!(drc.stats().lookups, 1);
        assert_eq!(drc.stats().misses, 1);
        assert!(drc.derandomize(RandAddr(0xdead_0000), &t).is_err());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic() {
        let _ = Drc::direct_mapped(96);
    }

    #[test]
    fn save_restore_preserves_contents_counters_and_lru() {
        use vcfr_isa::wire::{Reader, Writer};
        let t = table(3);
        let mut drc = Drc::new(DrcConfig { entries: 4, ways: 2 });
        drc.derandomize(RandAddr(0x9000), &t).unwrap();
        drc.derandomize(RandAddr(0x9200), &t).unwrap();
        drc.randomize(OrigAddr(0x1004), &t).unwrap();
        let mut w = Writer::with_magic(*b"VCFRTEST");
        drc.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let mut back = Drc::restore(drc.config(), &mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.stats(), drc.stats());
        assert_eq!(back.valid_entries(), drc.valid_entries());
        // Both copies evolve identically from here (same LRU victims).
        for addr in [0x9000u32, 0x9100, 0x9200, 0x9000] {
            let a = drc.derandomize(RandAddr(addr), &t).unwrap();
            let b = back.derandomize(RandAddr(addr), &t).unwrap();
            assert_eq!(a, b, "addr {addr:#x}");
        }
        assert_eq!(back.stats(), drc.stats());
    }

    #[test]
    fn restore_rejects_bad_flag_byte() {
        use vcfr_isa::wire::{Reader, Writer};
        let drc = Drc::direct_mapped(2);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        drc.save(&mut w);
        let mut buf = w.into_bytes();
        buf[8] = 7; // first line's valid flag
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(Drc::restore(drc.config(), &mut r).is_err());
    }

    #[test]
    fn scrub_detects_valid_entries_and_masks_invalid_ones() {
        let t = table(1);
        let mut drc = Drc::direct_mapped(64);
        let l = drc.derandomize(RandAddr(0x9000), &t).unwrap();
        assert!(!l.hit);
        assert_eq!(drc.valid_entries(), 1);
        // The filled entry sits at set_index(0x9000).
        let at = (0x9000u32 >> 2) as usize & 63;
        assert!(drc.scrub_entry(at), "flip in a valid entry is parity-detected");
        assert_eq!(drc.valid_entries(), 0);
        assert!(!drc.scrub_entry(at), "flip in an already-invalid entry is masked");
        // The scrubbed translation refills as a normal miss, same value.
        let l2 = drc.derandomize(RandAddr(0x9000), &t).unwrap();
        assert!(!l2.hit);
        assert_eq!(l2.translated, 0x1000);
        // Lane indices wrap modulo the buffer size.
        assert!(!drc.scrub_entry(at + 64 * 3 + 1));
    }
}
