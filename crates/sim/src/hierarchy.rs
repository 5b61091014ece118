//! The composed memory hierarchy: split L1s over a shared unified L2 over
//! DRAM, with TLBs and the next-line instruction prefetcher.
//!
//! All latencies returned are *additional stall cycles beyond a pipelined
//! L1 hit* — the standard trace-driven convention: an L1 hit is fully
//! pipelined and costs nothing extra, a miss costs the L2 (and possibly
//! DRAM) round trip.

use crate::cache::Cache;
use crate::config::SimConfig;
use crate::dram::Dram;
use crate::tlb::Tlb;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::Addr;

/// Arbitration state of the single-ported shared level (L2 + DRAM).
///
/// On a single-core machine every request comes from the same core, so
/// the port never makes anyone wait and the model is exactly the
/// pre-multicore one. On a multicore machine the port travels with the
/// shared L2/DRAM between cores; a demand request from a *different*
/// core that arrives while the port is still serving the previous one
/// queues until it frees, and the wait is charged to the requesting
/// core's `contention_cycles`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SharedPort {
    /// When the in-flight shared-level access completes.
    pub busy_until: u64,
    /// Which core issued it.
    pub last_core: u8,
}

impl SharedPort {
    /// Cycles core `core_id` must wait before its request at `now` can
    /// enter the shared level (0 when the port is free or held by the
    /// same core — same-core requests pipeline, as on a single core).
    fn wait(&self, core_id: u8, now: u64) -> u64 {
        if self.last_core == core_id {
            0
        } else {
            self.busy_until.saturating_sub(now)
        }
    }

    /// Serialises the port (checkpoint support).
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.busy_until);
        w.u8(self.last_core);
    }

    /// Rebuilds the port from [`SharedPort::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input.
    pub fn restore(r: &mut Reader<'_>) -> Result<SharedPort, WireError> {
        Ok(SharedPort { busy_until: r.u64()?, last_core: r.u8()? })
    }
}

/// The level below the L1s that every core of a machine shares: the
/// unified L2, DRAM and the port that arbitrates them. A single-core
/// engine owns its own. A multicore machine owns one and hands it to
/// whichever core is stepping by swapping the [`MemoryHierarchy::shared`]
/// box, one pointer each way.
#[derive(Clone, Debug)]
pub(crate) struct SharedLevel {
    /// Unified L2 (shared by IL1, DL1 and DRC walks, as in the paper).
    pub(crate) l2: Cache,
    /// Main memory.
    pub(crate) dram: Dram,
    /// Arbitration state of the port.
    pub(crate) port: SharedPort,
}

impl SharedLevel {
    /// An empty shared level built from the machine configuration.
    pub(crate) fn new(cfg: &SimConfig) -> SharedLevel {
        SharedLevel {
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            port: SharedPort::default(),
        }
    }
}

/// The full cache/TLB/DRAM stack of one core.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    /// L1 instruction cache.
    pub il1: Cache,
    /// L1 data cache.
    pub dl1: Cache,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
    /// The L2, DRAM and port below the L1s. On a multicore machine the
    /// machine's one shared level is swapped in while this core steps;
    /// between steps this box holds the core's own placeholder, which no
    /// access reaches.
    pub(crate) shared: Box<SharedLevel>,
    /// Reads issued from the L1s into the L2 — the paper's "L2 pressure"
    /// metric in Figure 3.
    pub l2_reads_from_l1: u64,
    /// This core's index at the shared port (always 0 on single-core
    /// machines, which makes the port a no-op there).
    pub core_id: u8,
    /// Cycles this core's demand accesses queued behind a sibling core
    /// at the shared port. Per-core counter; stays here when the shared
    /// level is swapped out.
    pub contention_cycles: u64,
    cfg: SimConfig,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy from the machine configuration.
    pub fn new(cfg: &SimConfig) -> MemoryHierarchy {
        MemoryHierarchy {
            il1: Cache::new(cfg.il1),
            dl1: Cache::new(cfg.dl1),
            itlb: Tlb::new(cfg.itlb_entries),
            dtlb: Tlb::new(cfg.dtlb_entries),
            shared: Box::new(SharedLevel::new(cfg)),
            l2_reads_from_l1: 0,
            core_id: 0,
            contention_cycles: 0,
            cfg: *cfg,
        }
    }

    /// L2 access that falls through to DRAM on a miss; returns the stall
    /// beyond the requesting level. `demand` accesses (whose latency the
    /// caller charges to a stall category) arbitrate for the shared port
    /// and may queue behind a sibling core; non-demand traffic
    /// (prefetches, store-buffer fills) slips through off the critical
    /// path, exactly as it is charged.
    fn l2_then_dram(&mut self, addr: Addr, now: u64, demand: bool) -> u64 {
        let shared = &mut *self.shared;
        let wait = if demand { shared.port.wait(self.core_id, now) } else { 0 };
        self.contention_cycles += wait;
        let start = now + wait;
        let r = shared.l2.access(addr, false);
        let service = if r.hit {
            self.cfg.l2.latency
        } else {
            let done = shared.dram.access(addr, start + self.cfg.l2.latency);
            done - start
        };
        if demand {
            shared.port = SharedPort { busy_until: start + service, last_core: self.core_id };
        }
        wait + service
    }

    /// An instruction-fetch access for the line containing `addr`.
    /// Returns extra stall cycles (0 on an IL1 hit). Triggers the
    /// next-line prefetcher on a miss or on first use of a prefetched
    /// line (tagged next-line prefetching).
    pub fn fetch_line(&mut self, addr: Addr, now: u64) -> u64 {
        let mut stall = 0;
        if !self.itlb.access(addr, true) {
            stall += self.cfg.tlb_walk_cycles;
        }
        let pre_hits = self.il1.stats().prefetch_hits;
        let r = self.il1.access(addr, false);
        let first_prefetch_use = self.il1.stats().prefetch_hits > pre_hits;
        if !r.hit {
            self.l2_reads_from_l1 += 1;
            stall += self.l2_then_dram(addr, now, true);
        }
        if self.cfg.prefetch && (!r.hit || first_prefetch_use) {
            let next = self.il1.line_of(addr).wrapping_add(self.cfg.il1.line_bytes as Addr);
            if !self.il1.contains(next) {
                // The prefetch pulls the line through L2 off the critical
                // path: it contributes L2 pressure and DRAM activity but
                // no stall.
                self.l2_reads_from_l1 += 1;
                let _ = self.l2_then_dram(next, now, false);
                if let Some(wb) = self.il1.prefetch_fill(next) {
                    let _ = self.shared.l2.access(wb, true);
                }
            }
        }
        stall
    }

    /// A data access. Returns extra stall cycles (0 on a DL1 hit; stores
    /// are absorbed by the store buffer and never stall, but still move
    /// lines).
    pub fn data_access(&mut self, addr: Addr, write: bool, now: u64) -> u64 {
        let mut stall = 0;
        if !self.dtlb.access(addr, true) {
            stall += self.cfg.tlb_walk_cycles;
        }
        let r = self.dl1.access(addr, write);
        if !r.hit {
            self.l2_reads_from_l1 += 1;
            let miss = self.l2_then_dram(addr, now, !write);
            if !write {
                stall += miss;
            }
        }
        if let Some(wb) = r.writeback {
            let _ = self.shared.l2.access(wb, true);
        }
        if write {
            0
        } else {
            stall
        }
    }

    /// A DRC table walk: goes straight to the unified L2 (the paper's
    /// "DRC can share its second level cache with the unified L2"),
    /// then DRAM. Returns the full walk latency.
    pub fn table_walk(&mut self, entry_addr: Addr, now: u64) -> u64 {
        self.l2_then_dram(entry_addr, now, true)
    }

    /// Serialises every component of the hierarchy (checkpoint support).
    /// The shared level's parts interleave with the private ones in the
    /// order `CHECKPOINT_VERSION` 4 fixed.
    pub fn save(&self, w: &mut Writer) {
        self.il1.save(w);
        self.dl1.save(w);
        self.shared.l2.save(w);
        self.itlb.save(w);
        self.dtlb.save(w);
        self.shared.dram.save(w);
        w.u64(self.l2_reads_from_l1);
        self.shared.port.save(w);
        w.u8(self.core_id);
        w.u64(self.contention_cycles);
    }

    /// Rebuilds a hierarchy from [`MemoryHierarchy::save`] output; `cfg`
    /// must be the configuration the saved hierarchy was built with.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    pub fn restore(cfg: &SimConfig, r: &mut Reader<'_>) -> Result<MemoryHierarchy, WireError> {
        let il1 = Cache::restore(cfg.il1, r)?;
        let dl1 = Cache::restore(cfg.dl1, r)?;
        let l2 = Cache::restore(cfg.l2, r)?;
        let itlb = Tlb::restore(r)?;
        let dtlb = Tlb::restore(r)?;
        let dram = Dram::restore(cfg.dram, r)?;
        let l2_reads_from_l1 = r.u64()?;
        let port = SharedPort::restore(r)?;
        Ok(MemoryHierarchy {
            il1,
            dl1,
            itlb,
            dtlb,
            shared: Box::new(SharedLevel { l2, dram, port }),
            l2_reads_from_l1,
            core_id: r.u8()?,
            contention_cycles: r.u64()?,
            cfg: *cfg,
        })
    }

    /// Resets every component's counters (contents stay warm).
    pub fn reset_stats(&mut self) {
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.shared.l2.reset_stats();
        self.itlb.reset_stats();
        self.dtlb.reset_stats();
        self.shared.dram.reset_stats();
        self.l2_reads_from_l1 = 0;
        self.contention_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(&SimConfig::default())
    }

    #[test]
    fn il1_hit_is_free() {
        let mut h = hierarchy();
        let cold = h.fetch_line(0x1000, 0);
        assert!(cold > 0);
        let warm = h.fetch_line(0x1000, 100);
        assert_eq!(warm, 0);
    }

    #[test]
    fn l2_absorbs_il1_misses() {
        let mut h = hierarchy();
        h.fetch_line(0x1000, 0); // fills L2 + IL1 (+ prefetch of 0x1040)
        // Force IL1 eviction: touch many lines in the same IL1 set.
        // IL1: 256 sets × 64 B → same set every 16 KiB.
        for i in 1..=4u32 {
            h.fetch_line(0x1000 + i * 16 * 1024, i as u64 * 1000);
        }
        let stall = h.fetch_line(0x1000, 100_000);
        // Must come from L2, not DRAM: exactly the L2 latency.
        assert_eq!(stall, SimConfig::default().l2.latency);
    }

    #[test]
    fn prefetcher_hides_the_next_line() {
        let mut h = hierarchy();
        let miss = h.fetch_line(0x1000, 0);
        assert!(miss > 0);
        // Sequential next line was prefetched.
        let next = h.fetch_line(0x1040, miss);
        assert_eq!(next, 0);
        assert!(h.il1.stats().prefetch_hits >= 1);
    }

    #[test]
    fn prefetch_counts_as_l2_pressure() {
        let mut h = hierarchy();
        h.fetch_line(0x1000, 0);
        // Demand read + prefetch read.
        assert_eq!(h.l2_reads_from_l1, 2);
    }

    #[test]
    fn tlb_walk_charged_once_per_page() {
        let mut h = hierarchy();
        let c = SimConfig::default();
        let first = h.data_access(0x9000, false, 0);
        assert!(first >= c.tlb_walk_cycles);
        let second = h.data_access(0x9008, false, 50);
        assert_eq!(second, 0); // same page, same line
    }

    #[test]
    fn stores_never_stall_but_move_lines() {
        let mut h = hierarchy();
        let s = h.data_access(0x4000, true, 0);
        assert_eq!(s, 0);
        assert_eq!(h.dl1.stats().misses, 1);
        // The line is now resident for a subsequent load.
        assert_eq!(h.data_access(0x4000, false, 10), 0);
    }

    #[test]
    fn dirty_eviction_writes_back_to_l2() {
        let mut h = hierarchy();
        h.data_access(0x0000, true, 0);
        // Evict by filling the set: DL1 = 256 sets × 2 ways, same set
        // every 16 KiB.
        h.data_access(16 * 1024, false, 10);
        h.data_access(32 * 1024, false, 20);
        assert_eq!(h.dl1.stats().writebacks, 1);
    }

    #[test]
    fn save_restore_replays_identically() {
        use vcfr_isa::wire::{Reader, Writer};
        let cfg = SimConfig::default();
        let mut h = MemoryHierarchy::new(&cfg);
        let mut now = 0;
        for i in 0..20u32 {
            now += h.fetch_line(0x1000 + i * 64, now);
            now += h.data_access(0x9000 + i * 8, i % 3 == 0, now);
            now += 1;
        }
        let mut w = Writer::with_magic(*b"VCFRTEST");
        h.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let mut back = MemoryHierarchy::restore(&cfg, &mut r).unwrap();
        assert!(r.is_exhausted());
        // Both hierarchies produce the same stalls from here on.
        for i in 0..20u32 {
            let a = h.fetch_line(0x2000 + i * 32, now + i as u64);
            let b = back.fetch_line(0x2000 + i * 32, now + i as u64);
            assert_eq!(a, b, "fetch {i}");
            let a = h.data_access(0x9000 + i * 4, false, now + i as u64);
            let b = back.data_access(0x9000 + i * 4, false, now + i as u64);
            assert_eq!(a, b, "data {i}");
        }
        assert_eq!(back.il1.stats(), h.il1.stats());
        assert_eq!(back.shared.dram.stats(), h.shared.dram.stats());
        assert_eq!(back.l2_reads_from_l1, h.l2_reads_from_l1);
    }

    #[test]
    fn shared_port_is_invisible_to_a_single_core() {
        // Two hierarchies, one probed as core 0 throughout, must behave
        // exactly like the pre-port model: no wait ever, no contention.
        let mut h = hierarchy();
        let mut now = 0;
        for i in 0..50u32 {
            now += h.fetch_line(0x1000 + i * 4096, now);
            now += h.data_access(0x9000 + i * 4096, false, now);
        }
        assert_eq!(h.contention_cycles, 0);
    }

    #[test]
    fn cross_core_demand_misses_queue_at_the_shared_port() {
        // The multicore swap discipline by hand: one shared level, two
        // private front ends.
        let cfg = SimConfig::default();
        let mut a = MemoryHierarchy::new(&cfg);
        let mut b = MemoryHierarchy::new(&cfg);
        b.core_id = 1;
        // Core A misses all the way to DRAM at t=0 and holds the port.
        let a_stall = a.fetch_line(0x1000, 0);
        assert!(a_stall > 0);
        // Hand the shared level to core B, which misses a *different*
        // line one cycle later, while A's access is still in flight.
        std::mem::swap(&mut a.shared, &mut b.shared);
        let b_stall = b.fetch_line(0x8_0000, 1);
        assert!(b.contention_cycles > 0, "core B should have queued");
        assert!(b_stall > b.contention_cycles, "wait is part of the stall");
        // Same-core back-to-back misses pipeline without queueing.
        assert_eq!(a.contention_cycles, 0);
    }

    #[test]
    fn table_walk_uses_l2_then_dram() {
        let mut h = hierarchy();
        let c = SimConfig::default();
        let cold = h.table_walk(0x4000_0000, 0);
        assert!(cold > c.l2.latency); // went to DRAM
        let warm = h.table_walk(0x4000_0000, cold);
        assert_eq!(warm, c.l2.latency); // now in L2
    }
}
