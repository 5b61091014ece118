//! A generic set-associative cache with LRU replacement, write-back /
//! write-allocate policy and prefetch bookkeeping.

use crate::config::CacheConfig;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::Addr;

/// Event counters of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses (reads + writes; excludes prefetch fills).
    pub accesses: u64,
    /// Demand misses.
    pub misses: u64,
    /// Demand writes.
    pub writes: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Prefetches issued into this cache.
    pub prefetches_issued: u64,
    /// Demand accesses that hit on a line brought in by the prefetcher.
    pub prefetch_hits: u64,
    /// Prefetched lines evicted without ever being used.
    pub prefetch_unused_evictions: u64,
}

impl CacheStats {
    /// Demand miss rate (0 when idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Fraction of issued prefetches that were never used — the
    /// "pre-fetch miss rate" axis of the paper's Figure 3.
    pub fn prefetch_useless_rate(&self) -> f64 {
        if self.prefetches_issued == 0 {
            0.0
        } else {
            let used = self.prefetch_hits.min(self.prefetches_issued);
            1.0 - used as f64 / self.prefetches_issued as f64
        }
    }
}

/// Outcome of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was resident.
    pub hit: bool,
    /// Address of a dirty line that must be written back, if the fill
    /// evicted one.
    pub writeback: Option<Addr>,
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    tag: Addr,
    dirty: bool,
    prefetched: bool,
    used: bool,
    lru: u64,
}

/// A set-associative cache model (tags only — data never flows through
/// the timing simulator).
///
/// # Example
///
/// ```
/// use vcfr_sim::{Cache, CacheConfig};
/// let cfg = CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 2 };
/// let mut c = Cache::new(cfg);
/// assert!(!c.access(0x40, false).hit);
/// assert!(c.access(0x40, false).hit);
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate (zero sets/ways, or a
    /// non-power-of-two set count or line size).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(sets > 0 && cfg.ways > 0, "cache must have sets and ways");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        Cache {
            cfg,
            sets,
            lines: vec![Line::default(); sets * cfg.ways],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the counters but keeps the contents (post-warm-up reset).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The line-aligned address containing `addr`.
    pub fn line_of(&self, addr: Addr) -> Addr {
        addr & !(self.cfg.line_bytes as Addr - 1)
    }

    fn set_of(&self, addr: Addr) -> usize {
        ((addr as usize) / self.cfg.line_bytes) & (self.sets - 1)
    }

    fn probe(&mut self, addr: Addr) -> Option<usize> {
        let tag = self.line_of(addr);
        let base = self.set_of(addr) * self.cfg.ways;
        (0..self.cfg.ways).map(|w| base + w).find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    fn victim(&self, set_base: usize) -> usize {
        // An invalid way is always preferred; only fall back to the LRU
        // scan when the whole set is valid. (Folding both cases into one
        // keyed min via `lru + 1` overflows when a tick reaches u64::MAX.)
        if let Some(free) =
            (0..self.cfg.ways).map(|w| set_base + w).find(|&i| !self.lines[i].valid)
        {
            return free;
        }
        (0..self.cfg.ways)
            .map(|w| set_base + w)
            .min_by_key(|&i| self.lines[i].lru)
            .expect("ways > 0")
    }

    /// Fills the line containing `addr`, returning the slot it landed in
    /// and the evicted dirty line's address, if any.
    fn fill(&mut self, addr: Addr, prefetched: bool) -> (usize, Option<Addr>) {
        let tag = self.line_of(addr);
        let base = self.set_of(addr) * self.cfg.ways;
        let v = self.victim(base);
        let old = self.lines[v];
        let mut writeback = None;
        if old.valid {
            if old.dirty {
                self.stats.writebacks += 1;
                writeback = Some(old.tag);
            }
            if old.prefetched && !old.used {
                self.stats.prefetch_unused_evictions += 1;
            }
        }
        self.lines[v] =
            Line { valid: true, tag, dirty: false, prefetched, used: false, lru: self.tick };
        (v, writeback)
    }

    /// A demand access. On a miss the line is filled (the caller charges
    /// the next-level latency and forwards any write-back).
    pub fn access(&mut self, addr: Addr, write: bool) -> AccessResult {
        self.tick += 1;
        self.stats.accesses += 1;
        if write {
            self.stats.writes += 1;
        }
        if let Some(i) = self.probe(addr) {
            let line = &mut self.lines[i];
            line.lru = self.tick;
            if line.prefetched && !line.used {
                self.stats.prefetch_hits += 1;
            }
            line.used = true;
            if write {
                line.dirty = true;
            }
            return AccessResult { hit: true, writeback: None };
        }
        self.stats.misses += 1;
        let (slot, writeback) = self.fill(addr, false);
        if write {
            self.lines[slot].dirty = true;
        }
        AccessResult { hit: false, writeback }
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn contains(&self, addr: Addr) -> bool {
        let tag = self.line_of(addr);
        let base = self.set_of(addr) * self.cfg.ways;
        (0..self.cfg.ways).any(|w| {
            let l = &self.lines[base + w];
            l.valid && l.tag == tag
        })
    }

    /// Inserts a line on behalf of the prefetcher. Returns the evicted
    /// dirty line, if any. No demand counters change except
    /// `prefetches_issued`.
    pub fn prefetch_fill(&mut self, addr: Addr) -> Option<Addr> {
        if self.contains(addr) {
            return None;
        }
        self.tick += 1;
        self.stats.prefetches_issued += 1;
        self.fill(addr, true).1
    }

    /// Invalidates everything (keeps counters).
    pub fn flush(&mut self) {
        self.lines.fill(Line::default());
    }

    /// Serialises the cache state (checkpoint support): the valid lines
    /// only, each as its index, flags, tag and LRU stamp, then the
    /// counters and the LRU tick, so a restored cache replays hits and
    /// evictions identically. An invalid line carries no state: every
    /// line starts out, and is flushed back to, [`Line::default`].
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.lines.iter().filter(|l| l.valid).count() as u64);
        for (i, line) in self.lines.iter().enumerate().filter(|(_, l)| l.valid) {
            w.u32(i as u32);
            w.u8(u8::from(line.dirty) | u8::from(line.prefetched) << 1 | u8::from(line.used) << 2);
            w.u32(line.tag);
            w.u64(line.lru);
        }
        w.u64(self.stats.accesses);
        w.u64(self.stats.misses);
        w.u64(self.stats.writes);
        w.u64(self.stats.writebacks);
        w.u64(self.stats.prefetches_issued);
        w.u64(self.stats.prefetch_hits);
        w.u64(self.stats.prefetch_unused_evictions);
        w.u64(self.tick);
    }

    /// Rebuilds a cache from [`Cache::save`] output; the caller supplies
    /// the same geometry the saved cache was built with.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input, more lines than the geometry
    /// holds, a line index out of range or not above the one before it,
    /// or a flags byte with undefined bits set.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` itself is degenerate (see [`Cache::new`]).
    pub fn restore(cfg: CacheConfig, r: &mut Reader<'_>) -> Result<Cache, WireError> {
        let mut c = Cache::new(cfg);
        let count = r.u64()?;
        if count > c.lines.len() as u64 {
            return Err(WireError::LengthOutOfRange { len: count });
        }
        // The lowest index the next line may take.
        let mut next = 0u64;
        for _ in 0..count {
            let i = u64::from(r.u32()?);
            if i < next || i >= c.lines.len() as u64 {
                return Err(WireError::BadIndex { index: i });
            }
            let flags = r.u8()?;
            if flags > 0b111 {
                return Err(WireError::BadTag { tag: flags });
            }
            let (tag, lru) = (r.u32()?, r.u64()?);
            c.lines[i as usize] = Line {
                valid: true,
                tag,
                dirty: flags & 1 != 0,
                prefetched: flags & 2 != 0,
                used: flags & 4 != 0,
                lru,
            };
            next = i + 1;
        }
        c.stats.accesses = r.u64()?;
        c.stats.misses = r.u64()?;
        c.stats.writes = r.u64()?;
        c.stats.writebacks = r.u64()?;
        c.stats.prefetches_issued = r.u64()?;
        c.stats.prefetch_hits = r.u64()?;
        c.stats.prefetch_unused_evictions = r.u64()?;
        c.tick = r.u64()?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcfr_isa::wire::{Reader, Writer};

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B lines.
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn lru_within_a_set() {
        let mut c = tiny();
        // Set 0 holds lines 0x000, 0x080, 0x100 (all map to set 0).
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // refresh 0x000
        c.access(0x100, false); // evicts 0x080 (LRU)
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let r = c.access(0x100, false); // evicts dirty 0x000
        assert_eq!(r.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn same_line_offsets_hit() {
        let mut c = tiny();
        c.access(0x40, false);
        assert!(c.access(0x7f, false).hit);
        assert!(!c.access(0x80, false).hit);
        assert_eq!(c.line_of(0x7f), 0x40);
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = tiny();
        c.prefetch_fill(0x000);
        assert_eq!(c.stats().prefetches_issued, 1);
        // Demand hit on the prefetched line counts once.
        assert!(c.access(0x000, false).hit);
        assert!(c.access(0x010, false).hit);
        assert_eq!(c.stats().prefetch_hits, 1);
        assert!((c.stats().prefetch_useless_rate() - 0.0).abs() < 1e-12);

        // An unused prefetch evicted counts as useless.
        c.prefetch_fill(0x200); // set 0
        c.access(0x080, false);
        c.access(0x100, false); // set 0 pressure evicts something
        c.access(0x180, false); // set 0 again
        assert!(c.stats().prefetch_unused_evictions <= c.stats().prefetches_issued);
    }

    #[test]
    fn prefetch_of_resident_line_is_a_no_op() {
        let mut c = tiny();
        c.access(0x40, false);
        c.prefetch_fill(0x40);
        assert_eq!(c.stats().prefetches_issued, 0);
    }

    #[test]
    fn miss_rate() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x000, false);
        c.access(0x040, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = tiny();
        c.access(0x000, false);
        c.flush();
        assert!(!c.contains(0x000));
        assert_eq!(c.stats().accesses, 1);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0x40, false);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
        assert!(c.access(0x40, false).hit, "contents survive a stats reset");
    }

    #[test]
    fn prefetch_useless_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().prefetch_useless_rate(), 0.0);
        c.prefetch_fill(0x000);
        assert_eq!(c.stats().prefetch_useless_rate(), 1.0); // issued, unused
        c.access(0x000, false);
        assert_eq!(c.stats().prefetch_useless_rate(), 0.0); // now used
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 192, ways: 1, line_bytes: 64, latency: 1 });
    }

    #[test]
    fn victim_survives_a_saturated_lru_tick() {
        // Regression: the old victim scan computed `lru + 1` to rank
        // invalid ways first, which overflowed in debug builds when a
        // line's tick was u64::MAX.
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x080, false); // set 0 now full
        let base = c.set_of(0x000) * c.cfg.ways;
        c.lines[base].lru = u64::MAX;
        // Filling a third line into set 0 must evict the *other* way
        // (lower tick), not panic.
        c.access(0x100, false);
        assert!(c.contains(0x000), "the most recently used line survives");
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn victim_prefers_an_invalid_way_over_any_lru() {
        let mut c = tiny();
        c.access(0x000, false); // one way of set 0 valid, one free
        let base = c.set_of(0x000) * c.cfg.ways;
        c.lines[base].lru = u64::MAX; // even a stale-looking tick loses to a free way
        c.access(0x080, false);
        assert!(c.contains(0x000), "a free way absorbed the fill");
        assert!(c.contains(0x080));
    }

    #[test]
    fn save_restore_replays_identically() {
        let mut c = tiny();
        c.access(0x000, true);
        c.access(0x080, false);
        c.prefetch_fill(0x200);
        let mut w = Writer::with_magic(*b"VCFRTEST");
        c.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let mut back = Cache::restore(c.config(), &mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.stats(), c.stats());
        // Both copies evolve identically (same LRU victims, writebacks).
        for (addr, write) in [(0x100u32, false), (0x000, false), (0x180, true), (0x080, false)] {
            assert_eq!(back.access(addr, write), c.access(addr, write), "addr {addr:#x}");
        }
        assert_eq!(back.stats(), c.stats());
    }

    /// `c` as [`Cache::save`] writes it.
    fn saved(c: &Cache) -> Vec<u8> {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        c.save(&mut w);
        w.into_bytes()
    }

    fn restored(cfg: CacheConfig, buf: &[u8]) -> Result<Cache, WireError> {
        Cache::restore(cfg, &mut Reader::with_magic(buf, *b"VCFRTEST").unwrap())
    }

    /// Offsets in a [`saved`] stream: the line count follows the magic,
    /// then 17-byte records of index (4), flags (1), tag (4), LRU (8).
    const COUNT_AT: usize = 8;
    const FIRST_LINE_AT: usize = COUNT_AT + 8;
    const LINE_BYTES: usize = 4 + 1 + 4 + 8;

    #[test]
    fn save_writes_only_valid_lines() {
        let mut c = tiny();
        let empty = saved(&c).len();
        c.access(0x000, true);
        c.access(0x040, false);
        assert_eq!(saved(&c).len(), empty + 2 * LINE_BYTES);
        c.flush();
        assert_eq!(saved(&c).len(), empty, "a flushed cache writes no line");
    }

    #[test]
    fn restore_rejects_bad_flag_byte() {
        let mut c = tiny();
        c.access(0x000, false);
        let mut buf = saved(&c);
        buf[FIRST_LINE_AT + 4] = 0xf0; // the first valid line's flags byte
        assert_eq!(restored(c.config(), &buf).unwrap_err(), WireError::BadTag { tag: 0xf0 });
    }

    #[test]
    fn restore_rejects_bad_line_counts_and_indices() {
        let mut c = tiny();
        c.access(0x000, false); // line 0 (set 0)
        c.access(0x040, false); // line 2 (set 1)
        let buf = saved(&c);
        let second = FIRST_LINE_AT + LINE_BYTES;
        let with = |at: usize, bytes: &[u8]| {
            let mut b = buf.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            restored(c.config(), &b).unwrap_err()
        };
        // More lines than the 2 sets × 2 ways hold.
        assert_eq!(with(COUNT_AT, &5u64.to_le_bytes()), WireError::LengthOutOfRange { len: 5 });
        // An index past the last line.
        assert_eq!(with(second, &4u32.to_le_bytes()), WireError::BadIndex { index: 4 });
        // A repeated index, and one below its predecessor.
        assert_eq!(with(second, &0u32.to_le_bytes()), WireError::BadIndex { index: 0 });
        assert_eq!(with(FIRST_LINE_AT, &3u32.to_le_bytes()), WireError::BadIndex { index: 2 });
        // A stream cut inside a line.
        assert_eq!(restored(c.config(), &buf[..second + 3]).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn write_miss_marks_the_filled_line_dirty() {
        let mut c = tiny();
        let r = c.access(0x000, true);
        assert!(!r.hit);
        // The freshly filled line is dirty: evicting it must write back.
        c.access(0x080, false);
        let r = c.access(0x100, false);
        assert_eq!(r.writeback, Some(0x000));
    }
}
