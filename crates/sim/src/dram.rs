//! DDR-style main-memory timing: per-bank row buffers with an open-page
//! policy, activate/CAS/precharge latencies and periodic refresh — the
//! behaviour DRAMSim2 contributes to the paper's simulation stack.

use crate::config::DramConfig;
use vcfr_isa::wire::{Counters, Reader, WireError, Writer};
use vcfr_isa::Addr;

/// Access counters of the [`Dram`] model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit an open row (CAS only).
    pub row_hits: u64,
    /// Accesses to an idle bank (activate + CAS).
    pub row_misses: u64,
    /// Accesses that had to close a conflicting open row
    /// (precharge + activate + CAS).
    pub row_conflicts: u64,
    /// Accesses delayed by a refresh window.
    pub refresh_delays: u64,
}

impl Counters for DramStats {
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
        f("access", &mut self.accesses);
        f("row_hit", &mut self.row_hits);
        f("row_miss", &mut self.row_misses);
        f("row_conflict", &mut self.row_conflicts);
        f("refresh_delay", &mut self.refresh_delays);
    }
}

impl DramStats {
    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.accesses as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The main-memory timing model.
///
/// # Example
///
/// ```
/// use vcfr_sim::{Dram, DramConfig};
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(0x0, 0);          // activate + CAS
/// let second = d.access(0x40, first);    // same row: CAS only
/// assert!(second - first < first);
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle memory.
    ///
    /// # Panics
    ///
    /// Panics when the bank count is not a power of two.
    pub fn new(cfg: DramConfig) -> Dram {
        assert!(cfg.banks.is_power_of_two(), "bank count must be a power of two");
        Dram { cfg, banks: vec![Bank::default(); cfg.banks], stats: DramStats::default() }
    }

    /// Counters so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Clears the counters (keeps bank state).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Serialises the bank state and counters (checkpoint support).
    pub fn save(&self, w: &mut Writer) {
        for bank in &self.banks {
            match bank.open_row {
                Some(row) => {
                    w.u8(1);
                    w.u64(row);
                }
                None => {
                    w.u8(0);
                    w.u64(0);
                }
            }
            w.u64(bank.busy_until);
        }
        let mut stats = self.stats;
        stats.save(w);
    }

    /// Rebuilds a memory from [`Dram::save`] output; the caller supplies
    /// the same `cfg` the saved model was built with.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated input or a malformed open-row tag.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` itself is invalid (see [`Dram::new`]).
    pub fn restore(cfg: DramConfig, r: &mut Reader<'_>) -> Result<Dram, WireError> {
        let mut d = Dram::new(cfg);
        for bank in &mut d.banks {
            let tag = r.u8()?;
            if tag > 1 {
                return Err(WireError::BadTag { tag });
            }
            let row = r.u64()?;
            bank.open_row = (tag == 1).then_some(row);
            bank.busy_until = r.u64()?;
        }
        d.stats.restore(r)?;
        Ok(d)
    }

    fn map(&self, addr: Addr) -> (usize, u64) {
        // Row-interleaved bank mapping: consecutive rows go to
        // consecutive banks, so streaming accesses rotate banks while
        // staying row-local within each.
        let row_global = addr as u64 / self.cfg.row_bytes as u64;
        let bank = (row_global as usize) & (self.cfg.banks - 1);
        let row = row_global / self.cfg.banks as u64;
        (bank, row)
    }

    /// Performs one access beginning at absolute cycle `now`; returns the
    /// absolute cycle at which the data is available.
    pub fn access(&mut self, addr: Addr, now: u64) -> u64 {
        self.stats.accesses += 1;
        let (bank_idx, row) = self.map(addr);

        // Refresh: all banks unavailable for t_rfc every t_refi cycles.
        let mut start = now;
        let refi_phase = now % self.cfg.t_refi;
        if refi_phase < self.cfg.t_rfc {
            start = now + (self.cfg.t_rfc - refi_phase);
            self.stats.refresh_delays += 1;
        }

        let bank = &mut self.banks[bank_idx];
        start = start.max(bank.busy_until);

        let service = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                self.cfg.t_cas
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas
            }
            None => {
                self.stats.row_misses += 1;
                self.cfg.t_rcd + self.cfg.t_cas
            }
        };
        bank.open_row = Some(row);
        bank.busy_until = start + service;
        bank.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig { t_refi: 1_000_000, ..DramConfig::default() })
    }

    #[test]
    fn open_page_rewards_locality() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // Start past the initial refresh window (phase > t_rfc).
        let t1 = d.access(0x0000, 1000);
        assert_eq!(t1, 1000 + cfg.t_rcd + cfg.t_cas);
        let t2 = d.access(0x0040, t1);
        assert_eq!(t2, t1 + cfg.t_cas); // row hit
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_costs_precharge() {
        let mut d = dram();
        let cfg = DramConfig::default();
        let row_span = (cfg.row_bytes * cfg.banks) as Addr; // same bank, next row
        let t1 = d.access(0x0000, 0);
        let t2 = d.access(row_span, t1);
        assert_eq!(t2 - t1, cfg.t_rp + cfg.t_rcd + cfg.t_cas);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn banks_serve_independently() {
        let mut d = dram();
        let cfg = DramConfig::default();
        // Different banks: both start immediately at 0 + activate.
        let t1 = d.access(0x0000, 0);
        let t2 = d.access(cfg.row_bytes as Addr, 0);
        assert_eq!(t1, t2);
    }

    #[test]
    fn busy_bank_queues() {
        let mut d = dram();
        let t1 = d.access(0x0000, 0);
        // Next access to the same bank issued earlier must wait.
        let t2 = d.access(0x0040, 0);
        assert!(t2 > t1 || t2 >= t1);
        assert!(t2 >= t1);
    }

    #[test]
    fn refresh_window_delays() {
        let cfg = DramConfig { t_refi: 1000, t_rfc: 100, ..DramConfig::default() };
        let mut d = Dram::new(cfg);
        let t = d.access(0x0, 2010); // phase 10 < t_rfc
        assert!(t >= 2100 + cfg.t_rcd + cfg.t_cas);
        assert_eq!(d.stats().refresh_delays, 1);
    }

    #[test]
    fn save_restore_replays_identically() {
        use vcfr_isa::wire::{Reader, Writer};
        let mut d = dram();
        let mut now = 0;
        for i in 0..5 {
            now = d.access(i * 64, now);
        }
        let mut w = Writer::with_magic(*b"VCFRTEST");
        d.save(&mut w);
        let buf = w.into_bytes();
        let mut r = Reader::with_magic(&buf, *b"VCFRTEST").unwrap();
        let mut back = Dram::restore(DramConfig { t_refi: 1_000_000, ..DramConfig::default() }, &mut r)
            .unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back.stats(), d.stats());
        // Same row-buffer and bank-timing decisions from here on.
        for addr in [0x0u32, 0x4000, 0x40, 0x8000] {
            assert_eq!(back.access(addr, now), d.access(addr, now), "addr {addr:#x}");
        }
        assert_eq!(back.stats(), d.stats());
    }

    #[test]
    fn hit_rate_reporting() {
        let mut d = dram();
        let mut now = 0;
        for i in 0..10 {
            now = d.access(i * 64, now);
        }
        assert!(d.stats().row_hit_rate() > 0.8);
    }
}
