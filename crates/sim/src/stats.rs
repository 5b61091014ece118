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
use vcfr_isa::wire::{Reader, WireError, Writer};

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

    /// Serialises every counter (checkpoint support). The field order is
    /// fixed by this method and its inverse; bumping it requires a new
    /// checkpoint format version.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.instructions);
        w.u64(self.cycles);
        for c in [&self.il1, &self.dl1, &self.l2] {
            w.u64(c.accesses);
            w.u64(c.misses);
            w.u64(c.writes);
            w.u64(c.writebacks);
            w.u64(c.prefetches_issued);
            w.u64(c.prefetch_hits);
            w.u64(c.prefetch_unused_evictions);
        }
        for t in [&self.itlb, &self.dtlb] {
            w.u64(t.accesses);
            w.u64(t.misses);
            w.u64(t.visibility_faults);
        }
        w.u64(self.dram.accesses);
        w.u64(self.dram.row_hits);
        w.u64(self.dram.row_misses);
        w.u64(self.dram.row_conflicts);
        w.u64(self.dram.refresh_delays);
        w.u64(self.branch.predictions);
        w.u64(self.branch.mispredictions);
        w.u64(self.branch.btb_lookups);
        w.u64(self.branch.btb_misses);
        w.u64(self.branch.btb_wrong_target);
        w.u64(self.branch.ras_predictions);
        w.u64(self.branch.ras_mispredictions);
        match self.drc {
            Some(d) => {
                w.u8(1);
                w.u64(d.lookups);
                w.u64(d.misses);
                w.u64(d.derand_lookups);
                w.u64(d.rand_lookups);
            }
            None => w.u8(0),
        }
        w.u64(self.drc_walk_cycles);
        w.u64(self.fetch_stall_cycles);
        w.u64(self.load_stall_cycles);
        w.u64(self.redirect_stall_cycles);
        w.u64(self.l2_reads_from_l1);
        w.u64(self.exec_extra_cycles);
        w.u64(self.rerand_epochs);
        w.u64(self.rerand_stall_cycles);
        w.u64(self.contention_stall_cycles);
    }

    /// Rebuilds the counters from [`SimStats::save`] output.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or a malformed DRC tag.
    pub fn restore(r: &mut Reader<'_>) -> Result<SimStats, WireError> {
        let mut s = SimStats { instructions: r.u64()?, cycles: r.u64()?, ..SimStats::default() };
        let cache = |r: &mut Reader<'_>| -> Result<CacheStats, WireError> {
            Ok(CacheStats {
                accesses: r.u64()?,
                misses: r.u64()?,
                writes: r.u64()?,
                writebacks: r.u64()?,
                prefetches_issued: r.u64()?,
                prefetch_hits: r.u64()?,
                prefetch_unused_evictions: r.u64()?,
            })
        };
        s.il1 = cache(r)?;
        s.dl1 = cache(r)?;
        s.l2 = cache(r)?;
        let tlb = |r: &mut Reader<'_>| -> Result<TlbStats, WireError> {
            Ok(TlbStats { accesses: r.u64()?, misses: r.u64()?, visibility_faults: r.u64()? })
        };
        s.itlb = tlb(r)?;
        s.dtlb = tlb(r)?;
        s.dram = DramStats {
            accesses: r.u64()?,
            row_hits: r.u64()?,
            row_misses: r.u64()?,
            row_conflicts: r.u64()?,
            refresh_delays: r.u64()?,
        };
        s.branch = BranchStats {
            predictions: r.u64()?,
            mispredictions: r.u64()?,
            btb_lookups: r.u64()?,
            btb_misses: r.u64()?,
            btb_wrong_target: r.u64()?,
            ras_predictions: r.u64()?,
            ras_mispredictions: r.u64()?,
        };
        s.drc = match r.u8()? {
            0 => None,
            1 => Some(DrcStats {
                lookups: r.u64()?,
                misses: r.u64()?,
                derand_lookups: r.u64()?,
                rand_lookups: r.u64()?,
            }),
            tag => return Err(WireError::BadTag { tag }),
        };
        s.drc_walk_cycles = r.u64()?;
        s.fetch_stall_cycles = r.u64()?;
        s.load_stall_cycles = r.u64()?;
        s.redirect_stall_cycles = r.u64()?;
        s.l2_reads_from_l1 = r.u64()?;
        s.exec_extra_cycles = r.u64()?;
        s.rerand_epochs = r.u64()?;
        s.rerand_stall_cycles = r.u64()?;
        s.contention_stall_cycles = r.u64()?;
        Ok(s)
    }

    /// Every counter as a registry snapshot under hierarchical `sim.*`
    /// names (`sim.il1.miss`, `sim.drc.walk_cycles`, …) — the manifest
    /// `counters` block.
    pub fn snapshot(&self) -> vcfr_obs::Snapshot {
        let mut counters = vec![
            ("sim.instructions".into(), self.instructions),
            ("sim.cycles".into(), self.cycles),
            ("sim.exec.extra_cycles".into(), self.exec_extra_cycles),
            ("sim.stall.fetch".into(), self.fetch_stall_cycles),
            ("sim.stall.load".into(), self.load_stall_cycles),
            ("sim.stall.redirect".into(), self.redirect_stall_cycles),
            ("sim.l2.reads_from_l1".into(), self.l2_reads_from_l1),
            ("sim.drc.walk_cycles".into(), self.drc_walk_cycles),
            ("sim.rerand.epochs".into(), self.rerand_epochs),
            ("sim.stall.rerand".into(), self.rerand_stall_cycles),
            ("sim.stall.contention".into(), self.contention_stall_cycles),
        ];
        let mut cache = |name: &str, c: &CacheStats| {
            counters.push((format!("sim.{name}.access"), c.accesses));
            counters.push((format!("sim.{name}.miss"), c.misses));
            counters.push((format!("sim.{name}.write"), c.writes));
            counters.push((format!("sim.{name}.writeback"), c.writebacks));
            counters.push((format!("sim.{name}.prefetch.issued"), c.prefetches_issued));
            counters.push((format!("sim.{name}.prefetch.hit"), c.prefetch_hits));
            counters
                .push((format!("sim.{name}.prefetch.unused_eviction"), c.prefetch_unused_evictions));
        };
        cache("il1", &self.il1);
        cache("dl1", &self.dl1);
        cache("l2", &self.l2);
        for (name, t) in [("itlb", &self.itlb), ("dtlb", &self.dtlb)] {
            counters.push((format!("sim.{name}.access"), t.accesses));
            counters.push((format!("sim.{name}.miss"), t.misses));
            counters.push((format!("sim.{name}.visibility_fault"), t.visibility_faults));
        }
        counters.push(("sim.dram.access".into(), self.dram.accesses));
        counters.push(("sim.dram.row_hit".into(), self.dram.row_hits));
        counters.push(("sim.dram.row_miss".into(), self.dram.row_misses));
        counters.push(("sim.dram.row_conflict".into(), self.dram.row_conflicts));
        counters.push(("sim.dram.refresh_delay".into(), self.dram.refresh_delays));
        counters.push(("sim.branch.prediction".into(), self.branch.predictions));
        counters.push(("sim.branch.misprediction".into(), self.branch.mispredictions));
        counters.push(("sim.branch.btb.lookup".into(), self.branch.btb_lookups));
        counters.push(("sim.branch.btb.miss".into(), self.branch.btb_misses));
        counters.push(("sim.branch.btb.wrong_target".into(), self.branch.btb_wrong_target));
        counters.push(("sim.branch.ras.prediction".into(), self.branch.ras_predictions));
        counters.push(("sim.branch.ras.misprediction".into(), self.branch.ras_mispredictions));
        if let Some(d) = self.drc {
            counters.push(("sim.drc.lookup".into(), d.lookups));
            counters.push(("sim.drc.miss".into(), d.misses));
            counters.push(("sim.drc.derand_lookup".into(), d.derand_lookups));
            counters.push(("sim.drc.rand_lookup".into(), d.rand_lookups));
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

    #[test]
    fn save_restore_roundtrip_is_exact() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut s = SimStats { instructions: 12, cycles: 34, ..SimStats::default() };
        s.il1.misses = 5;
        s.branch.ras_mispredictions = 2;
        s.drc = Some(DrcStats { lookups: 9, misses: 2, derand_lookups: 7, rand_lookups: 2 });
        s.rerand_epochs = 3;
        s.contention_stall_cycles = 17;
        for stats in [s, SimStats::default()] {
            let mut w = Writer::with_magic(*b"VCFRTEST");
            stats.save(&mut w);
            let buf = w.into_bytes();
            let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
            let back = SimStats::restore(&mut r).unwrap();
            assert!(r.is_exhausted());
            assert_eq!(back, stats);
        }
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
