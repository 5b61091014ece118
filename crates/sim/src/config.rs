//! Machine configuration, defaulting to the paper's §VI-C parameters.

use crate::error::VcfrError;
use std::fmt;
use std::str::FromStr;
use vcfr_core::{DrcConfig, RandParams};

/// Geometry and latency of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// DRAM timing in CPU cycles (DDR-style bank model with open-page
/// policy, the behaviour DRAMSim2 provides the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks (across all ranks).
    pub banks: usize,
    /// Bytes per row (row-buffer reach).
    pub row_bytes: usize,
    /// CAS latency: row already open and matching.
    pub t_cas: u64,
    /// RAS-to-CAS: activating a closed row.
    pub t_rcd: u64,
    /// Precharge: closing a conflicting open row.
    pub t_rp: u64,
    /// Cycles between refresh commands (tREFI).
    pub t_refi: u64,
    /// Duration of one refresh (tRFC).
    pub t_rfc: u64,
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        // DDR3-ish timings scaled to a 1.6 GHz core clock.
        DramConfig {
            banks: 16,
            row_bytes: 8192,
            t_cas: 18,
            t_rcd: 18,
            t_rp: 18,
            t_refi: 12_480,
            t_rfc: 208,
        }
    }
}

/// Branch-direction predictor (2-level gshare) geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GshareConfig {
    /// Global-history length and PHT index width, in bits.
    pub history_bits: u32,
}

/// Branch target buffer geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
}

/// Where DRC misses are serviced from (§IV-B ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrcBacking {
    /// The paper's design: walk the in-memory tables through the unified
    /// L2 (falling through to DRAM), sharing capacity with code and data.
    SharedL2,
    /// A dedicated second-level translation store with a fixed access
    /// latency (the alternative the paper rejects as wasteful silicon).
    Dedicated {
        /// Fixed walk latency in cycles.
        latency: u64,
    },
}

/// Which timing engine executes the run (the Session facade routes all
/// three through the same sampling/progress/manifest/checkpoint paths).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's single-issue in-order core (the default).
    InOrder,
    /// The wide out-of-order core (§VI-C sensitivity study).
    Ooo,
    /// N in-order cores sharing the unified L2 and DRAM behind a
    /// single-ported shared level (cross-core queueing is charged to
    /// `sim.stall.contention`).
    Multicore {
        /// Number of cores (≥ 1).
        cores: u32,
    },
}

/// What each kind models beyond the shared Session contract is answered
/// here, once (docs/architecture.md tabulates it).
impl EngineKind {
    /// Largest core count a multicore run accepts.
    pub const MAX_CORES: u32 = 64;

    /// Parses the CLI/wire selector vocabulary: `inorder`, `ooo`, or
    /// `mc<cores>` with `1..=MAX_CORES` cores.
    pub fn from_selector(s: &str) -> Result<EngineKind, VcfrError> {
        let kind = match s {
            "inorder" => Some(EngineKind::InOrder),
            "ooo" => Some(EngineKind::Ooo),
            _ => s
                .strip_prefix("mc")
                .and_then(|n| n.parse::<u32>().ok())
                .map(|cores| EngineKind::Multicore { cores }),
        };
        kind.filter(|k| k.validate().is_ok()).ok_or_else(|| {
            VcfrError::Config(format!(
                "engine must be inorder, ooo, or mc<cores 1..={}> (got {s:?})",
                EngineKind::MAX_CORES
            ))
        })
    }

    /// Checks the core count of a multicore kind against
    /// `1..=MAX_CORES`.
    ///
    /// # Errors
    ///
    /// [`VcfrError::Config`] naming the rejected count.
    pub fn validate(self) -> Result<(), VcfrError> {
        match self {
            EngineKind::Multicore { cores } if !(1..=EngineKind::MAX_CORES).contains(&cores) => {
                Err(VcfrError::Config(format!(
                    "engine cores must be in 1..={} for a multicore run (got {cores})",
                    EngineKind::MAX_CORES
                )))
            }
            _ => Ok(()),
        }
    }

    /// Cores the kind simulates (1 for the single-core kinds).
    pub fn cores(self) -> u32 {
        match self {
            EngineKind::Multicore { cores } => cores,
            EngineKind::InOrder | EngineKind::Ooo => 1,
        }
    }

    /// Whether [`crate::Session::trace_events`] reports a post-mortem
    /// trace ring. The out-of-order core keeps none; multicore cores
    /// keep one each (checkpointed with the core) but the session
    /// surfaces no single ring.
    pub fn keeps_trace_ring(self) -> bool {
        self == EngineKind::InOrder
    }

    /// Whether the superblock fast path applies; the other kinds always
    /// step per instruction.
    pub fn uses_superblocks(self) -> bool {
        self == EngineKind::InOrder
    }
}

impl fmt::Display for EngineKind {
    /// The selector vocabulary, round-tripping [`EngineKind::from_selector`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EngineKind::InOrder => write!(f, "inorder"),
            EngineKind::Ooo => write!(f, "ooo"),
            EngineKind::Multicore { cores } => write!(f, "mc{cores}"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = VcfrError;

    fn from_str(s: &str) -> Result<EngineKind, VcfrError> {
        EngineKind::from_selector(s)
    }
}

/// Full machine configuration.
///
/// Defaults reproduce the paper's simulated core: a 1.6 GHz single-issue
/// in-order x86-style pipeline; 32 KB 2-way IL1 and DL1 (64-byte lines,
/// 2-cycle); 512 KB 8-way unified L2 (12-cycle); 64-entry
/// fully-associative I/D TLBs; 18-entry instruction queue; 32-entry
/// load/store queue; gshare + BTB + RAS; next-line instruction
/// prefetcher.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// Core frequency in GHz (used by the power model).
    pub freq_ghz: f64,
    /// L1 instruction cache.
    pub il1: CacheConfig,
    /// L1 data cache (write-back).
    pub dl1: CacheConfig,
    /// Unified second-level cache (also backs DRC walks).
    pub l2: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Instruction TLB entries (fully associative).
    pub itlb_entries: usize,
    /// Data TLB entries (fully associative).
    pub dtlb_entries: usize,
    /// Page-walk penalty on a TLB miss, in cycles.
    pub tlb_walk_cycles: u64,
    /// Instruction queue capacity (macro-ops).
    pub iq_entries: usize,
    /// Load/store queue capacity.
    pub lsq_entries: usize,
    /// Direction predictor.
    pub gshare: GshareConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return address stack depth.
    pub ras_entries: usize,
    /// Front-end refill penalty on a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Penalty when a taken transfer misses the BTB (target discovered at
    /// decode/execute).
    pub btb_miss_penalty: u64,
    /// Enable the next-line instruction prefetcher.
    pub prefetch: bool,
    /// Where DRC misses are serviced from.
    pub drc_backing: DrcBacking,
    /// Flush the DRC every N instructions, modelling context switches
    /// (None = single-tenant run, the paper's setting).
    pub drc_flush_interval: Option<u64>,
    /// Live re-randomization: every N instructions a VCFR run swaps to a
    /// freshly re-randomized layout (§V-C), paying the DRC-flush and
    /// table-rebuild cycle cost (None = static layout, the default).
    pub rerand_epoch: Option<u64>,
    /// Capacity of the post-mortem trace ring (last N pipeline events,
    /// rounded up to a power of two; 0 disables tracing). The ring is
    /// dumped into [`crate::SimError::Exec`] when a program faults.
    pub trace_events: usize,
    /// Which timing engine executes the run.
    pub engine: EngineKind,
    /// The randomization parameter point of a VCFR run (`None` =
    /// baseline/naive, or the historical fixed configuration). When
    /// set, the params are validated at build time and — being part of
    /// the config's `Debug` form — folded into the VCFRCKP1 context
    /// fingerprint and run manifests.
    pub rand: Option<RandParams>,
}

impl SimConfig {
    /// A validated builder starting from the paper's default machine.
    ///
    /// Prefer this over struct-literal assembly: inconsistent knob
    /// combinations (a re-randomization epoch with no DRC to flush, an
    /// audit that needs the trace ring with tracing disabled, a zero
    /// interval) are rejected at construction instead of surfacing as
    /// mid-run panics.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::from_config(SimConfig::default())
    }
}

/// Builder for [`SimConfig`] (see [`SimConfig::builder`]).
#[derive(Clone, Copy, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
    drc_entries: Option<usize>,
    audit: bool,
}

impl SimConfigBuilder {
    /// A builder starting from an existing configuration (used by the
    /// experiment matrix to derive ablation variants).
    pub fn from_config(cfg: SimConfig) -> SimConfigBuilder {
        SimConfigBuilder { cfg, drc_entries: None, audit: false }
    }

    /// Core frequency in GHz.
    pub fn freq_ghz(mut self, v: f64) -> Self {
        self.cfg.freq_ghz = v;
        self
    }

    /// L1 instruction cache geometry.
    pub fn il1(mut self, v: CacheConfig) -> Self {
        self.cfg.il1 = v;
        self
    }

    /// L1 data cache geometry.
    pub fn dl1(mut self, v: CacheConfig) -> Self {
        self.cfg.dl1 = v;
        self
    }

    /// Unified L2 geometry.
    pub fn l2(mut self, v: CacheConfig) -> Self {
        self.cfg.l2 = v;
        self
    }

    /// Next-line instruction prefetcher on/off.
    pub fn prefetch(mut self, v: bool) -> Self {
        self.cfg.prefetch = v;
        self
    }

    /// Where DRC misses are serviced from.
    pub fn drc_backing(mut self, v: DrcBacking) -> Self {
        self.cfg.drc_backing = v;
        self
    }

    /// Flush the DRC every N instructions (context-switch model).
    pub fn drc_flush_interval(mut self, v: Option<u64>) -> Self {
        self.cfg.drc_flush_interval = v;
        self
    }

    /// Live re-randomization epoch length in instructions.
    pub fn rerand_epoch(mut self, v: Option<u64>) -> Self {
        self.cfg.rerand_epoch = v;
        self
    }

    /// Post-mortem trace ring capacity (0 disables tracing).
    pub fn trace_events(mut self, v: usize) -> Self {
        self.cfg.trace_events = v;
        self
    }

    /// Which timing engine executes the run.
    pub fn engine(mut self, v: EngineKind) -> Self {
        self.cfg.engine = v;
        self
    }

    /// The randomization parameter point of a VCFR run. `Some(params)`
    /// also sets the re-randomization epoch and declared DRC size from
    /// the params, keeping the config a single source of truth; the
    /// params themselves are validated by [`SimConfigBuilder::build`].
    pub fn rand_params(mut self, v: Option<RandParams>) -> Self {
        if let Some(p) = v {
            self.cfg.rerand_epoch = p.rerand_epoch;
            self.drc_entries = Some(p.drc.entries);
        }
        self.cfg.rand = v;
        self
    }

    /// Declares the DRC size this configuration will run against
    /// (validation only — the DRC itself is picked per [`crate::Mode`]).
    /// `Some(0)` means "VCFR mode with a zero-entry DRC", which is
    /// always rejected; `None` means baseline/naive-ILR (no DRC).
    pub fn drc_entries(mut self, v: Option<usize>) -> Self {
        self.drc_entries = v;
        self
    }

    /// Declares that the run will be cycle-audited, which requires the
    /// post-mortem trace ring to be enabled.
    pub fn for_audit(mut self, v: bool) -> Self {
        self.audit = v;
        self
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// [`VcfrError::Config`] describing the first inconsistent knob
    /// combination found.
    pub fn build(self) -> Result<SimConfig, VcfrError> {
        let cfg = self.cfg;
        if let Some(entries) = self.drc_entries {
            DrcConfig::direct_mapped(entries).validate().map_err(|e| {
                VcfrError::Config(format!(
                    "drc_entries must give a valid VCFR DRC (use None for a run without \
                     a DRC): {e}"
                ))
            })?;
        }
        if let Some(p) = cfg.rand {
            // The params error already names the field; qualify it with
            // the config field it arrived through.
            p.validate().map_err(|e| VcfrError::Config(format!("rand.{e}")))?;
            if p.rerand_epoch != cfg.rerand_epoch {
                return Err(VcfrError::Config(format!(
                    "rerand_epoch must match rand.rerand_epoch (set it through \
                     rand_params) (got {:?} vs {:?})",
                    cfg.rerand_epoch, p.rerand_epoch
                )));
            }
        }
        if let Some(epoch) = cfg.rerand_epoch {
            if epoch == 0 {
                return Err(VcfrError::Config(
                    "rerand_epoch must be positive (use None to disable re-randomization) (got 0)"
                        .into(),
                ));
            }
            if self.drc_entries.is_none() {
                return Err(VcfrError::Config(
                    "rerand_epoch requires a VCFR run with a DRC (live table swaps \
                     flush it) (got drc_entries = None)"
                        .into(),
                ));
            }
        }
        if let Some(interval) = cfg.drc_flush_interval {
            if interval == 0 {
                return Err(VcfrError::Config(
                    "drc_flush_interval must be positive (use None for a single-tenant run) \
                     (got 0)"
                        .into(),
                ));
            }
        }
        cfg.engine.validate()?;
        if self.audit && cfg.trace_events == 0 {
            return Err(VcfrError::Config(
                "trace_events must be positive for a cycle audit (it fills the \
                 post-mortem trace ring) (got 0)"
                    .into(),
            ));
        }
        Ok(cfg)
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            freq_ghz: 1.6,
            il1: CacheConfig { size_bytes: 32 * 1024, ways: 2, line_bytes: 64, latency: 2 },
            dl1: CacheConfig { size_bytes: 32 * 1024, ways: 2, line_bytes: 64, latency: 2 },
            l2: CacheConfig { size_bytes: 512 * 1024, ways: 8, line_bytes: 64, latency: 12 },
            dram: DramConfig::default(),
            itlb_entries: 64,
            dtlb_entries: 64,
            tlb_walk_cycles: 24,
            iq_entries: 18,
            lsq_entries: 32,
            gshare: GshareConfig { history_bits: 12 },
            btb: BtbConfig { entries: 512, ways: 4 },
            ras_entries: 16,
            mispredict_penalty: 9,
            btb_miss_penalty: 3,
            prefetch: true,
            drc_backing: DrcBacking::SharedL2,
            drc_flush_interval: None,
            rerand_epoch: None,
            trace_events: 64,
            engine: EngineKind::InOrder,
            rand: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SimConfig::default();
        assert_eq!(c.il1.size_bytes, 32 * 1024);
        assert_eq!(c.il1.ways, 2);
        assert_eq!(c.il1.latency, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.iq_entries, 18);
        assert_eq!(c.lsq_entries, 32);
        assert_eq!(c.itlb_entries, 64);
        assert!((c.freq_ghz - 1.6).abs() < 1e-9);
    }

    #[test]
    fn cache_sets() {
        let c = SimConfig::default();
        assert_eq!(c.il1.sets(), 256);
        assert_eq!(c.l2.sets(), 1024);
    }

    #[test]
    fn builder_defaults_match_default() {
        let built = SimConfig::builder().build().unwrap();
        assert_eq!(built, SimConfig::default());
    }

    #[test]
    fn builder_rejects_inconsistent_combos() {
        assert!(SimConfig::builder().rerand_epoch(Some(0)).build().is_err());
        assert!(SimConfig::builder()
            .rerand_epoch(Some(1000))
            .drc_entries(None)
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .rerand_epoch(Some(1000))
            .drc_entries(Some(0))
            .build()
            .is_err());
        assert!(SimConfig::builder().for_audit(true).trace_events(0).build().is_err());
        assert!(SimConfig::builder().drc_flush_interval(Some(0)).build().is_err());
        assert!(SimConfig::builder()
            .engine(EngineKind::Multicore { cores: 0 })
            .build()
            .is_err());
        assert!(SimConfig::builder()
            .engine(EngineKind::Multicore { cores: EngineKind::MAX_CORES + 1 })
            .build()
            .is_err());
        assert!(SimConfig::builder().drc_entries(Some(1 << 40)).build().is_err());
    }

    #[test]
    fn engine_kind_selects_the_backend_and_defaults_to_inorder() {
        assert_eq!(SimConfig::default().engine, EngineKind::InOrder);
        let cfg = SimConfig::builder().engine(EngineKind::Ooo).build().unwrap();
        assert_eq!(cfg.engine, EngineKind::Ooo);
        let cfg =
            SimConfig::builder().engine(EngineKind::Multicore { cores: 2 }).build().unwrap();
        assert_eq!(cfg.engine, EngineKind::Multicore { cores: 2 });
        // The kind shows up in the Debug form, which is what the Session
        // folds into checkpoint context fingerprints.
        assert!(format!("{cfg:?}").contains("Multicore"));
    }

    #[test]
    fn builder_threads_rand_params() {
        use vcfr_core::DrcConfig;
        let p = RandParams {
            entropy_bits: 16,
            rerand_epoch: Some(10_000),
            drc: DrcConfig::direct_mapped(64),
            ..RandParams::default()
        };
        let cfg = SimConfig::builder().rand_params(Some(p)).build().unwrap();
        assert_eq!(cfg.rand, Some(p));
        // The params flow into the epoch knob and the Debug form (and
        // therefore into the checkpoint context fingerprint).
        assert_eq!(cfg.rerand_epoch, Some(10_000));
        assert!(format!("{cfg:?}").contains("entropy_bits: 16"));

        let bad = RandParams { entropy_bits: 7, ..RandParams::default() };
        let err = SimConfig::builder().rand_params(Some(bad)).build().unwrap_err();
        assert!(err.to_string().contains("rand.entropy_bits"), "{err}");

        // Overriding the epoch after rand_params desynchronizes the two
        // sources and is rejected.
        let err = SimConfig::builder()
            .rand_params(Some(p))
            .rerand_epoch(Some(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("rand.rerand_epoch"), "{err}");
    }

    #[test]
    fn builder_errors_name_the_field() {
        let cases: [(SimConfigBuilder, &str); 5] = [
            (SimConfig::builder().drc_entries(Some(0)), "drc_entries"),
            (SimConfig::builder().rerand_epoch(Some(0)), "rerand_epoch"),
            (SimConfig::builder().drc_flush_interval(Some(0)), "drc_flush_interval"),
            (SimConfig::builder().engine(EngineKind::Multicore { cores: 0 }), "cores"),
            (SimConfig::builder().for_audit(true).trace_events(0), "trace_events"),
        ];
        for (b, field) in cases {
            let msg = b.build().unwrap_err().to_string();
            assert!(msg.contains(field), "{msg:?} should name {field:?}");
            assert!(msg.contains("(got"), "{msg:?} should quote the rejected value");
        }
    }

    #[test]
    fn engine_selector_round_trips() {
        for kind in [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 8 }] {
            assert_eq!(EngineKind::from_selector(&kind.to_string()).unwrap(), kind);
        }
        for bad in ["turbo", "mc0", "mc65", "mc", ""] {
            let err = EngineKind::from_selector(bad).unwrap_err().to_string();
            assert!(err.contains("inorder, ooo, or mc"), "{err}");
        }
    }

    #[test]
    fn builder_accepts_consistent_combos() {
        let cfg = SimConfig::builder()
            .rerand_epoch(Some(50_000))
            .drc_entries(Some(128))
            .for_audit(true)
            .build()
            .unwrap();
        assert_eq!(cfg.rerand_epoch, Some(50_000));
        let cfg = SimConfig::builder()
            .prefetch(false)
            .drc_backing(DrcBacking::Dedicated { latency: 8 })
            .build()
            .unwrap();
        assert!(!cfg.prefetch);
    }
}
