//! Aggregate statistics of one simulation.

use crate::cache::CacheStats;
use crate::config::EngineKind;
use crate::dram::DramStats;
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::Mediation;
use crate::ooo::OooConfig;
use crate::predict::{BranchStats, Predictors};
use crate::tlb::TlbStats;
use vcfr_core::DrcStats;
use vcfr_isa::wire::{Counters, Reader, WireError, Writer};

/// Everything measured during one run of the cycle simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Instructions committed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// L1 instruction cache counters.
    pub il1: CacheStats,
    /// L1 data cache counters.
    pub dl1: CacheStats,
    /// Unified L2 counters.
    pub l2: CacheStats,
    /// Instruction TLB counters.
    pub itlb: TlbStats,
    /// Data TLB counters.
    pub dtlb: TlbStats,
    /// DRAM counters.
    pub dram: DramStats,
    /// Branch prediction counters.
    pub branch: BranchStats,
    /// DRC counters (only in VCFR mode).
    pub drc: Option<DrcStats>,
    /// Cycles spent walking the in-memory translation tables on DRC
    /// misses.
    pub drc_walk_cycles: u64,
    /// Cycles the frontend stalled on instruction fetch (IL1 misses,
    /// iTLB walks).
    pub fetch_stall_cycles: u64,
    /// Cycles the backend stalled on data accesses.
    pub load_stall_cycles: u64,
    /// Cycles lost to control-flow redirects (mispredictions, BTB
    /// misses, DRC-miss redirects).
    pub redirect_stall_cycles: u64,
    /// Reads the L1s (and prefetcher) issued into the L2 — the paper's
    /// "L2 pressure".
    pub l2_reads_from_l1: u64,
    /// Extra execute cycles of long-running operations (mul/div), the
    /// non-unit part of the busy-cycle term in the accounting audit.
    pub exec_extra_cycles: u64,
    /// Epoch re-randomizations performed during the run (live table
    /// swaps; 0 without `rerand_epoch`).
    pub rerand_epochs: u64,
    /// Cycles the pipeline paused for epoch re-randomization (DRC flush
    /// plus table rebuild plus stack re-mapping).
    pub rerand_stall_cycles: u64,
    /// Cycles this core queued behind a sibling core at the shared
    /// L2/DRAM port (always 0 on single-core engines). The wait is part
    /// of the fetch/load/walk latencies it delayed, so the audit reports
    /// it as an overlapping term rather than adding it to the disjoint
    /// stall sum.
    pub contention_stall_cycles: u64,
}

impl SimStats {
    /// The counters of a core's shared components (memory hierarchy,
    /// predictors, mediation unit), with every pipeline counter zero for
    /// the engine to fill in.
    pub(crate) fn of_components(
        hier: &MemoryHierarchy,
        pred: &Predictors,
        med: Option<&Mediation<'_>>,
    ) -> SimStats {
        SimStats {
            il1: hier.il1.stats(),
            dl1: hier.dl1.stats(),
            l2: hier.shared.l2.stats(),
            itlb: hier.itlb.stats(),
            dtlb: hier.dtlb.stats(),
            dram: hier.shared.dram.stats(),
            l2_reads_from_l1: hier.l2_reads_from_l1,
            contention_stall_cycles: hier.contention_cycles,
            branch: pred.stats,
            drc: med.map(Mediation::drc_stats),
            drc_walk_cycles: med.map_or(0, |m| m.walk_cycles),
            rerand_epochs: med.map_or(0, |m| m.epochs),
            rerand_stall_cycles: med.map_or(0, |m| m.rerand_stall),
            ..SimStats::default()
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Simulated wall-clock seconds at the given core frequency.
    pub fn seconds(&self, freq_ghz: f64) -> f64 {
        self.cycles as f64 / (freq_ghz * 1e9)
    }

    /// Busy issue cycles: one per committed instruction plus long-op
    /// extra cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.instructions + self.exec_extra_cycles
    }

    /// The cycle-accounting identity terms of this run.
    pub fn accounting(&self) -> vcfr_obs::CycleAccounting {
        vcfr_obs::CycleAccounting {
            cycles: self.cycles,
            busy: self.busy_cycles(),
            fetch_stall: self.fetch_stall_cycles,
            load_stall: self.load_stall_cycles,
            redirect_stall: self.redirect_stall_cycles,
            drc_walk: self.drc_walk_cycles,
            rerand_stall: self.rerand_stall_cycles,
            contention: self.contention_stall_cycles,
        }
    }

    /// The cycle-accounting audit of stats produced by `engine`: the
    /// wide core gets the out-of-order identities (its cycles may
    /// legitimately undercut the in-order floor when IPC exceeds 1),
    /// every other kind the in-order ones (the multicore aggregate sums
    /// per-core counters, so those identities still close).
    pub fn audit(&self, engine: EngineKind) -> vcfr_obs::AuditReport {
        let accounting = self.accounting();
        match engine {
            EngineKind::Ooo => {
                accounting.audit_ooo(OooConfig::default().width as u64, self.instructions)
            }
            EngineKind::InOrder | EngineKind::Multicore { .. } => accounting.audit(),
        }
    }

    /// The counters that open the checkpoint block, then the component
    /// blocks, in checkpoint order under their manifest names (a block's
    /// own names follow its prefix). The DRC block and
    /// [`SimStats::closing`] come after them.
    fn opening(&mut self) -> [(&'static str, &mut dyn Counters); 9] {
        [
            ("sim.instructions", &mut self.instructions),
            ("sim.cycles", &mut self.cycles),
            ("sim.il1.", &mut self.il1),
            ("sim.dl1.", &mut self.dl1),
            ("sim.l2.", &mut self.l2),
            ("sim.itlb.", &mut self.itlb),
            ("sim.dtlb.", &mut self.dtlb),
            ("sim.dram.", &mut self.dram),
            ("sim.branch.", &mut self.branch),
        ]
    }

    /// The counters that close the checkpoint block, after the DRC block.
    fn closing(&mut self) -> [(&'static str, &mut dyn Counters); 9] {
        [
            ("sim.drc.walk_cycles", &mut self.drc_walk_cycles),
            ("sim.stall.fetch", &mut self.fetch_stall_cycles),
            ("sim.stall.load", &mut self.load_stall_cycles),
            ("sim.stall.redirect", &mut self.redirect_stall_cycles),
            ("sim.l2.reads_from_l1", &mut self.l2_reads_from_l1),
            ("sim.exec.extra_cycles", &mut self.exec_extra_cycles),
            ("sim.rerand.epochs", &mut self.rerand_epochs),
            ("sim.stall.rerand", &mut self.rerand_stall_cycles),
            ("sim.stall.contention", &mut self.contention_stall_cycles),
        ]
    }

    /// Serialises every counter (checkpoint support): the opening blocks,
    /// the DRC block behind a presence tag, then the closing counters.
    /// Reordering either list requires a new checkpoint format version.
    pub fn save(&self, w: &mut Writer) {
        let mut s = *self;
        for (_, block) in s.opening() {
            block.save(w);
        }
        match &mut s.drc {
            Some(d) => {
                w.u8(1);
                d.save(w);
            }
            None => w.u8(0),
        }
        for (_, block) in s.closing() {
            block.save(w);
        }
    }

    /// Rebuilds the counters from [`SimStats::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or a malformed DRC tag.
    pub fn restore(r: &mut Reader<'_>) -> Result<SimStats, WireError> {
        let mut s = SimStats::default();
        for (_, block) in s.opening() {
            block.restore(r)?;
        }
        s.drc = match r.u8()? {
            0 => None,
            1 => {
                let mut d = DrcStats::default();
                d.restore(r)?;
                Some(d)
            }
            tag => return Err(WireError::BadTag { tag }),
        };
        for (_, block) in s.closing() {
            block.restore(r)?;
        }
        Ok(s)
    }

    /// Adds `other` counter by counter (the multicore sum); a DRC block on
    /// either side is kept.
    pub fn add(&mut self, other: &SimStats) {
        let mut o = *other;
        for ((_, a), (_, b)) in self.opening().into_iter().zip(o.opening()) {
            a.add(b);
        }
        self.drc = match (self.drc, o.drc) {
            (Some(mut a), Some(mut b)) => {
                a.add(&mut b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        for ((_, a), (_, b)) in self.closing().into_iter().zip(o.closing()) {
            a.add(b);
        }
    }

    /// Every counter as a registry snapshot under hierarchical `sim.*`
    /// names (`sim.il1.miss`, `sim.drc.walk_cycles`, …) — the manifest
    /// `counters` block. A run without a DRC omits the DRC's counters.
    pub fn snapshot(&self) -> vcfr_obs::Snapshot {
        let mut s = *self;
        let mut counters = Vec::new();
        let mut name = |prefix: &str, block: &mut dyn Counters| {
            counters.extend(block.named().into_iter().map(|(n, v)| (format!("{prefix}{n}"), v)));
        };
        for (prefix, block) in s.opening() {
            name(prefix, block);
        }
        if let Some(d) = &mut s.drc {
            name("sim.drc.", d);
        }
        for (prefix, block) in s.closing() {
            name(prefix, block);
        }
        vcfr_obs::Snapshot::from_counters(counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_time() {
        let s = SimStats { instructions: 800, cycles: 1000, ..SimStats::default() };
        assert!((s.ipc() - 0.8).abs() < 1e-12);
        assert!((s.seconds(1.6) - 1000.0 / 1.6e9).abs() < 1e-18);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn accounting_terms_mirror_the_stat_fields() {
        let s = SimStats {
            instructions: 800,
            cycles: 1000,
            exec_extra_cycles: 50,
            fetch_stall_cycles: 100,
            load_stall_cycles: 60,
            redirect_stall_cycles: 40,
            drc_walk_cycles: 30,
            rerand_stall_cycles: 20,
            contention_stall_cycles: 10,
            ..SimStats::default()
        };
        let a = s.accounting();
        assert_eq!(a.cycles, 1000);
        assert_eq!(a.busy, 850);
        assert_eq!(a.fetch_stall, 100);
        assert_eq!(a.load_stall, 60);
        assert_eq!(a.redirect_stall, 40);
        assert_eq!(a.drc_walk, 30);
        assert_eq!(a.rerand_stall, 20);
        assert_eq!(a.contention, 10);
    }

    /// The numbers in a block's `Debug` form, sorted.
    fn debug_numbers(block: &impl std::fmt::Debug) -> Vec<u64> {
        let text = format!("{block:?}");
        let mut out: Vec<u64> = text
            .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .filter_map(|t| t.parse().ok())
            .collect();
        out.sort_unstable();
        out
    }

    /// Fills `block` through its list with distinct values from `next`
    /// and returns them in list order.
    fn fill(block: &mut dyn Counters, next: &mut u64) -> Vec<u64> {
        let mut values = Vec::new();
        block.visit(&mut |_, v| {
            *v = *next;
            values.push(*next);
            *next += 1;
        });
        values
    }

    fn round_trip<T>(
        s: &T,
        save: impl Fn(&T, &mut Writer),
        restore: impl Fn(&mut Reader) -> T,
    ) -> T {
        let mut w = Writer::with_magic(*b"VCFRTEST");
        save(s, &mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let back = restore(&mut r);
        assert!(r.is_exhausted());
        back
    }

    fn check_block<B: Counters + Copy + Default + PartialEq + std::fmt::Debug>(name: &str) {
        let mut block = B::default();
        let mut values = fill(&mut block, &mut 100);
        let mut names: Vec<&str> = block.named().into_iter().map(|(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), values.len(), "{name}: a name repeats");
        values.sort_unstable();
        assert_eq!(debug_numbers(&block), values, "{name}: every field once, in the list");
        let back = round_trip(
            &block,
            |b, w| {
                let mut b = *b;
                b.save(w);
            },
            |r| {
                let mut b = B::default();
                b.restore(r).unwrap();
                b
            },
        );
        assert_eq!(back, block, "{name} round-trips");
        let (mut sum, mut addend) = (block, block);
        sum.add(&mut addend);
        let doubled: Vec<u64> = values.iter().map(|v| 2 * v).collect();
        assert_eq!(debug_numbers(&sum), doubled, "{name} sums field by field");
    }

    #[test]
    fn every_counter_block_walks_one_list() {
        check_block::<CacheStats>("CacheStats");
        check_block::<TlbStats>("TlbStats");
        check_block::<DramStats>("DramStats");
        check_block::<BranchStats>("BranchStats");
        check_block::<DrcStats>("DrcStats");
        check_block::<crate::FaultStats>("FaultStats");

        // SimStats walks its own counters and every component block.
        let mut s = SimStats { drc: Some(DrcStats::default()), ..SimStats::default() };
        let mut next = 100;
        let mut values = Vec::new();
        for (_, block) in s.opening() {
            values.extend(fill(block, &mut next));
        }
        values.extend(fill(s.drc.as_mut().unwrap(), &mut next));
        for (_, block) in s.closing() {
            values.extend(fill(block, &mut next));
        }
        values.sort_unstable();
        assert_eq!(debug_numbers(&s), values, "SimStats: every field once, in the lists");
        let snap = s.snapshot();
        assert_eq!(snap.counters.len(), values.len(), "every counter has its own name");
        let mut named: Vec<u64> = snap.counters.iter().map(|&(_, v)| v).collect();
        named.sort_unstable();
        assert_eq!(named, values);
        for stats in [s, SimStats::default()] {
            assert_eq!(
                round_trip(&stats, SimStats::save, |r| SimStats::restore(r).unwrap()),
                stats
            );
        }
        let mut sum = s;
        sum.add(&s);
        let doubled: Vec<u64> = values.iter().map(|v| 2 * v).collect();
        assert_eq!(debug_numbers(&sum), doubled, "SimStats sums field by field");
        // A core without a DRC adds nothing to the DRC block, either way.
        let mut sum = SimStats::default();
        sum.add(&s);
        sum.add(&SimStats::default());
        assert_eq!(sum, s);
    }

    #[test]
    fn snapshot_uses_hierarchical_names() {
        let mut s = SimStats { instructions: 12, cycles: 34, ..SimStats::default() };
        s.il1.misses = 5;
        s.drc = Some(DrcStats { lookups: 9, misses: 2, derand_lookups: 7, rand_lookups: 2 });
        let snap = s.snapshot();
        assert_eq!(snap.counter("sim.instructions"), 12);
        assert_eq!(snap.counter("sim.cycles"), 34);
        assert_eq!(snap.counter("sim.il1.miss"), 5);
        assert_eq!(snap.counter("sim.drc.lookup"), 9);
        // Baseline runs (no DRC) simply omit the DRC lookup counters.
        assert!(!SimStats::default()
            .snapshot()
            .counters
            .iter()
            .any(|(k, _)| k == "sim.drc.lookup"));
    }
}
