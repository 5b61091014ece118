//! Fully-associative translation lookaside buffers with the paper's
//! page-visibility extension.
//!
//! The paper hides the randomization tables (and the stack bitmap) from
//! user space by adding a visibility bit to each TLB entry; pages holding
//! the tables are invisible to user-mode instructions and only reachable
//! by the DRC fill hardware.
//!
//! The TLB stores its residents in flat parallel arrays (tag and LRU
//! tick) fronted by an open-addressed page→slot index and a
//! most-recently-used hint: the common same-page-again case is one
//! comparison, any other hit is a couple of probes, and the LRU victim
//! scan only runs on capacity misses.

use crate::flatmap::FlatMap;
use vcfr_isa::wire::{Counters, Reader, WireError, Writer};
use vcfr_isa::Addr;

const PAGE_SHIFT: u32 = 12;

/// TLB counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups.
    pub accesses: u64,
    /// Misses (page walks).
    pub misses: u64,
    /// User-mode accesses rejected because the page is invisible.
    pub visibility_faults: u64,
}

impl Counters for TlbStats {
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
        f("access", &mut self.accesses);
        f("miss", &mut self.misses);
        f("visibility_fault", &mut self.visibility_faults);
    }
}

impl TlbStats {
    /// Miss rate (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A fully-associative, LRU TLB.
///
/// # Example
///
/// ```
/// use vcfr_sim::Tlb;
/// let mut t = Tlb::new(64);
/// assert!(!t.access(0x1000, true));  // cold miss
/// assert!(t.access(0x1fff, true));   // same page hits
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    entries: usize,
    /// Resident page numbers; parallel to `ticks`.
    pages: Vec<Addr>,
    /// Last-use time of each resident page.
    ticks: Vec<u64>,
    /// Page number → slot in `pages`/`ticks`.
    index: FlatMap,
    /// Index of the most recently hit entry (fast path).
    mru: usize,
    /// Sorted page numbers with the visibility bit cleared.
    invisible: Vec<Addr>,
    stats: TlbStats,
    tick: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` fully-associative entries.
    ///
    /// # Panics
    ///
    /// Panics when `entries` is zero.
    pub fn new(entries: usize) -> Tlb {
        assert!(entries > 0, "TLB needs at least one entry");
        Tlb {
            entries,
            pages: Vec::with_capacity(entries),
            ticks: Vec::with_capacity(entries),
            index: FlatMap::new(),
            mru: 0,
            invisible: Vec::new(),
            stats: TlbStats::default(),
            tick: 0,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Clears counters (keeps contents).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Marks the page containing `addr` invisible to user-mode
    /// instructions (the paper's page-visibility bit, cleared).
    pub fn set_invisible(&mut self, addr: Addr) {
        let page = addr >> PAGE_SHIFT;
        if let Err(at) = self.invisible.binary_search(&page) {
            self.invisible.insert(at, page);
        }
    }

    /// Whether a *user-mode* access to `addr` is architecturally
    /// permitted. Hardware table walks ignore this.
    ///
    /// This is the pure query — speculative or repeated checks do not
    /// touch the counters. An access that actually *takes* the fault is
    /// recorded with [`Tlb::record_visibility_fault`] (or in one step via
    /// [`Tlb::check_user_access`]).
    pub fn user_visible(&self, addr: Addr) -> bool {
        self.invisible.is_empty()
            || self.invisible.binary_search(&(addr >> PAGE_SHIFT)).is_err()
    }

    /// Counts one architectural visibility fault (a user-mode access that
    /// reached an invisible page and trapped).
    pub fn record_visibility_fault(&mut self) {
        self.stats.visibility_faults += 1;
    }

    /// A committed user-mode permission check: returns the visibility
    /// verdict and records a fault when the access is blocked.
    pub fn check_user_access(&mut self, addr: Addr) -> bool {
        let visible = self.user_visible(addr);
        if !visible {
            self.record_visibility_fault();
        }
        visible
    }

    /// Serialises the full TLB state (checkpoint support): residents,
    /// per-entry LRU ticks, the MRU hint, the page→slot index (raw slot
    /// layout), the invisible-page set and the counters.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.entries as u64);
        w.u64(self.pages.len() as u64);
        for p in &self.pages {
            w.u32(*p);
        }
        for t in &self.ticks {
            w.u64(*t);
        }
        self.index.save(w);
        w.u64(self.mru as u64);
        w.u64(self.invisible.len() as u64);
        for p in &self.invisible {
            w.u32(*p);
        }
        let mut stats = self.stats;
        stats.save(w);
        w.u64(self.tick);
    }

    /// Rebuilds a TLB from [`Tlb::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or inconsistent sizes (more
    /// residents than entries, an out-of-range MRU hint).
    pub fn restore(r: &mut Reader<'_>) -> Result<Tlb, WireError> {
        let entries = r.u64()?;
        if entries == 0 || entries > 1 << 24 {
            return Err(WireError::LengthOutOfRange { len: entries });
        }
        let live = r.u64()?;
        if live > entries {
            return Err(WireError::LengthOutOfRange { len: live });
        }
        let mut tlb = Tlb::new(entries as usize);
        for _ in 0..live {
            tlb.pages.push(r.u32()?);
        }
        for _ in 0..live {
            tlb.ticks.push(r.u64()?);
        }
        tlb.index = FlatMap::restore(r)?;
        let mru = r.u64()?;
        if mru > entries {
            return Err(WireError::LengthOutOfRange { len: mru });
        }
        tlb.mru = mru as usize;
        let n_invisible = r.u64()?;
        if n_invisible > 1 << 24 {
            return Err(WireError::LengthOutOfRange { len: n_invisible });
        }
        for _ in 0..n_invisible {
            tlb.invisible.push(r.u32()?);
        }
        tlb.stats.restore(r)?;
        tlb.tick = r.u64()?;
        Ok(tlb)
    }

    /// Looks up the page of `addr`; returns `true` on a hit. A miss
    /// installs the translation (evicting the LRU entry when full).
    /// `user` distinguishes user-mode accesses for the stats only.
    pub fn access(&mut self, addr: Addr, _user: bool) -> bool {
        self.tick += 1;
        self.stats.accesses += 1;
        let page = addr >> PAGE_SHIFT;
        if let Some(&hit) = self.pages.get(self.mru) {
            if hit == page {
                self.ticks[self.mru] = self.tick;
                return true;
            }
        }
        if let Some(at) = self.index.get(page) {
            let at = at as usize;
            self.ticks[at] = self.tick;
            self.mru = at;
            return true;
        }
        self.stats.misses += 1;
        if self.pages.len() >= self.entries {
            // Evict the least recently used entry (ticks are unique, so
            // the victim is deterministic).
            let victim = self
                .ticks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .map(|(i, _)| i)
                .expect("non-empty TLB");
            self.index.remove(self.pages[victim]);
            self.index.insert(page, victim as u32);
            self.pages[victim] = page;
            self.ticks[victim] = self.tick;
            self.mru = victim;
        } else {
            self.mru = self.pages.len();
            self.index.insert(page, self.mru as u32);
            self.pages.push(page);
            self.ticks.push(self.tick);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut t = Tlb::new(4);
        assert!(!t.access(0x1000, true));
        assert!(t.access(0x1abc, true));
        assert!(!t.access(0x2000, true));
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut t = Tlb::new(2);
        t.access(0x1000, true);
        t.access(0x2000, true);
        t.access(0x1000, true); // refresh page 1
        t.access(0x3000, true); // evicts page 2
        assert!(t.access(0x1000, true));
        assert!(!t.access(0x2000, true));
    }

    #[test]
    fn visibility_bit_blocks_user_access() {
        let mut t = Tlb::new(4);
        t.set_invisible(0x4000_0000);
        assert!(!t.check_user_access(0x4000_0123));
        assert!(t.check_user_access(0x1000));
        assert_eq!(t.stats().visibility_faults, 1);
    }

    #[test]
    fn visibility_query_is_pure() {
        // Regression: `user_visible` used to bump `visibility_faults` on
        // every blocked query, so speculative or repeated checks inflated
        // the counter. The query is now side-effect free; only an access
        // that takes the fault records one.
        let mut t = Tlb::new(4);
        t.set_invisible(0x4000_0000);
        for _ in 0..10 {
            assert!(!t.user_visible(0x4000_0123));
        }
        assert_eq!(t.stats().visibility_faults, 0, "queries alone never count");
        assert!(!t.check_user_access(0x4000_0123));
        assert!(!t.check_user_access(0x4000_0ffc));
        assert_eq!(t.stats().visibility_faults, 2, "one fault per committed access");
    }

    #[test]
    fn miss_rate() {
        let mut t = Tlb::new(8);
        t.access(0x1000, true);
        t.access(0x1100, true);
        t.access(0x1200, true);
        t.access(0x2000, true);
        assert!((t.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn interleaved_pages_defeat_the_mru_hint_but_still_hit() {
        let mut t = Tlb::new(4);
        t.access(0x1000, true);
        t.access(0x2000, true);
        for _ in 0..10 {
            assert!(t.access(0x1000, true));
            assert!(t.access(0x2000, true));
        }
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn save_restore_replays_identically() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut t = Tlb::new(2);
        t.set_invisible(0x4000_0000);
        t.access(0x1000, true);
        t.access(0x2000, true);
        t.access(0x1000, true);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        t.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let mut back = Tlb::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.stats(), t.stats());
        assert!(!back.user_visible(0x4000_0123));
        // Same eviction decisions from here on.
        for addr in [0x3000u32, 0x1000, 0x2000, 0x3000] {
            assert_eq!(back.access(addr, true), t.access(addr, true), "addr {addr:#x}");
        }
        assert_eq!(back.stats(), t.stats());
    }

    #[test]
    fn restore_rejects_more_residents_than_entries() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut w = Writer::with_magic(*b"VCFRTEST");
        w.u64(2); // entries
        w.u64(3); // claimed residents > entries
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        assert!(Tlb::restore(&mut r).is_err());
    }

    #[test]
    fn duplicate_set_invisible_is_idempotent() {
        let mut t = Tlb::new(4);
        t.set_invisible(0x5000);
        t.set_invisible(0x5fff); // same page
        assert!(!t.check_user_access(0x5800));
        assert_eq!(t.stats().visibility_faults, 1);
    }
}
