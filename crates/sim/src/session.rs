//! The unified run facade: one [`Session`] type behind every way the
//! workspace executes a simulation — the CLI's `simulate`, the bench
//! harness's experiment matrix, the fault-injection campaign, and the
//! `vcfr serve` daemon all construct a `Session` and drive it.
//!
//! A session owns the functional machine(s) and the timing engine
//! together, validates the configuration against the mode before the
//! first cycle, and — unlike the old free-function entry points — can
//! stop at an instruction budget ([`Session::run_for`]), serialize its
//! complete state into a versioned checkpoint ([`Session::checkpoint`])
//! and resume bit-identically in a fresh process ([`Session::restore`]).
//!
//! The session is *engine-generic*: [`crate::EngineKind`] on the config
//! selects the in-order core (default), the wide out-of-order core, or
//! N in-order cores over a shared L2 ([`crate::EngineKind::Multicore`]),
//! and all three route through the same sampling, telemetry, manifest
//! and checkpoint paths. Boundaries are instruction counts (aggregate
//! across cores for multicore), so results stay bit-deterministic per
//! kind. Fault plans run on every kind: each injects through the one
//! mediation-unit classifier. What each kind models beyond that (the
//! trace ring, superblock replay) is stated once, on [`EngineKind`], and
//! the fast path only runs where superblocks apply.
//!
//! Every simulation in the workspace runs through [`Session::run_for`]:
//! the free functions ([`crate::simulate`], [`crate::simulate_ooo`],
//! [`crate::simulate_multicore`] and friends) are one session call each.

use crate::checkpoint::{self, CheckpointError, PAYLOAD_MAGIC};
use crate::config::{EngineKind, SimConfig};
use crate::engine::{exec_extra_cycles, Engine, IntervalSample, ReplayInst, SimError, SimOutput};
use crate::error::VcfrError;
use crate::faults::{
    ContainmentPolicy, FaultOutcome, FaultPlan, FaultRecord, FaultStats, ScheduledFault,
};
use crate::mediation::Mode;
use crate::multicore::{MultiCore, MultiCoreOutput};
use crate::ooo::{OooConfig, OooEngine};
use crate::stats::SimStats;
use vcfr_core::region_fits;
use vcfr_isa::wire::{Reader, WireError};
use vcfr_isa::{
    Addr, Machine, RunOutcome, SectionKind, StopReason, SuperblockCache, SuperblockLookup,
    SUPERBLOCK_MAX_INSTS,
};
use vcfr_obs::ProgressEvent;

/// A telemetry callback receiving [`ProgressEvent`]s as the run crosses
/// instruction-count boundaries (see [`Session::with_progress`]).
pub type ProgressSink<'a> = Box<dyn FnMut(&ProgressEvent) + Send + 'a>;

/// Everything a finished session produced.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Timing statistics plus the architectural result. For multicore
    /// sessions the stats are the aggregate (see
    /// [`MultiCoreOutput::stats`]) and the outcome is core 0's.
    pub output: SimOutput,
    /// One entry per sampling interval (empty unless
    /// [`Session::with_sampling`] was used).
    pub samples: Vec<IntervalSample>,
    /// Aggregate fault counters (all zero without a fault plan).
    pub faults: FaultStats,
    /// Per-fault resolutions, in injection order.
    pub records: Vec<FaultRecord>,
    /// The full per-core breakdown when the session ran on
    /// [`crate::EngineKind::Multicore`]; `None` on single-core kinds.
    pub multicore: Option<MultiCoreOutput>,
}

/// What [`Session::run_for`] came back with.
#[derive(Clone, Debug)]
pub enum SessionStatus {
    /// The budget ran out first; call [`Session::run_for`] again (and
    /// perhaps [`Session::checkpoint`] in between).
    Running,
    /// The program finished (halt, exit, or `max_insts` truncation).
    Done(Box<SessionOutcome>),
}

/// The timing machinery behind a session: which engine kind executes
/// the run, together with its functional machine(s).
enum Backend<'a> {
    /// The paper's single-issue in-order core.
    InOrder { machine: Machine, engine: Engine<'a> },
    /// The wide out-of-order core.
    Ooo { machine: Machine, engine: OooEngine<'a> },
    /// N in-order cores over a shared L2/DRAM.
    Multicore(MultiCore<'a>),
}

impl Backend<'_> {
    /// Committed instructions (aggregate across cores for multicore).
    fn instructions(&self) -> u64 {
        match self {
            Backend::InOrder { engine, .. } => engine.instructions,
            Backend::Ooo { engine, .. } => engine.instructions,
            Backend::Multicore(mc) => mc.instructions(),
        }
    }

    /// Injects `f`, due at instruction `at_inst`, on whichever engine
    /// backs the run (on multicore, the core that committed `at_inst`).
    fn inject_fault(
        &mut self,
        f: &ScheduledFault,
        policy: ContainmentPolicy,
        at_inst: u64,
    ) -> Result<FaultOutcome, SimError> {
        match self {
            Backend::InOrder { engine, .. } => engine.inject_fault(f, policy, at_inst),
            Backend::Ooo { engine, .. } => engine.inject_fault(f, policy, at_inst),
            Backend::Multicore(mc) => mc.committing_core().inject_fault(f, policy, at_inst),
        }
    }

    /// Counter snapshot (the multicore aggregate for multicore runs).
    fn stats_now(&self) -> SimStats {
        match self {
            Backend::InOrder { engine, .. } => engine.stats_now(),
            Backend::Ooo { engine, .. } => engine.stats_now(),
            Backend::Multicore(mc) => mc.stats_now(),
        }
    }

    /// The architectural result as it stands right now (used when the
    /// instruction window truncates the run).
    fn current_outcome(&self) -> RunOutcome {
        match self {
            Backend::InOrder { machine, .. } | Backend::Ooo { machine, .. } => outcome_of(machine),
            Backend::Multicore(mc) => mc.first_outcome(),
        }
    }
}

/// The architectural result of `machine` as it stands (a machine still
/// running was truncated by the instruction window: that reads as a
/// halt).
pub(crate) fn outcome_of(machine: &Machine) -> RunOutcome {
    RunOutcome {
        output: machine.output().to_vec(),
        steps: machine.steps(),
        stop: machine.stop_reason().unwrap_or(StopReason::Halt),
    }
}

/// One simulation run: machine(s) + engine + sampling and fault cursors,
/// drivable to completion or in bounded slices.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Reg};
/// use vcfr_sim::{Mode, Session, SimConfig};
///
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 7);
/// a.emit_output(Reg::Rax);
/// a.halt();
/// let img = a.finish().unwrap();
/// let out = Session::new(Mode::Baseline(&img), &SimConfig::default(), 1_000)
///     .unwrap()
///     .run()
///     .unwrap();
/// assert_eq!(out.output.outcome.output, vec![7]);
/// ```
pub struct Session<'a> {
    /// Per-core modes: one entry for the single-core kinds, one per core
    /// for multicore (see [`Session::new_heterogeneous`]).
    modes: Vec<Mode<'a>>,
    cfg: SimConfig,
    max_insts: u64,
    backend: Backend<'a>,
    plan: Option<FaultPlan>,
    /// Aggregate counters of the faults injected so far, a fold of
    /// `records`.
    faults: FaultStats,
    /// Per-fault resolutions so far, in injection order; their count is
    /// the cursor into the plan.
    records: Vec<FaultRecord>,
    samples: Vec<IntervalSample>,
    last: SimStats,
    stride: u64,
    next_sample: u64,
    finished: Option<SessionOutcome>,
    /// Whether the superblock fast path is enabled (default on; see
    /// [`Session::with_superblocks`]). Deliberately *not* part of the
    /// checkpoint context: on/off runs are bit-identical by construction
    /// and their checkpoints interchange freely. A no-op off the
    /// in-order engine.
    superblocks: bool,
    /// Formed superblocks keyed by entry pc. A pure function of the
    /// image text, so never serialized — rebuilt lazily after restore.
    sb_cache: SuperblockCache,
    /// Per-block engine timing precompute, parallel to the cache's
    /// block ids.
    sb_timing: Vec<Vec<ReplayInst>>,
    /// Progress-event interval in instructions (0 = telemetry off). Like
    /// the superblock toggle, deliberately *not* part of the checkpoint
    /// context or payload: the tap observes the run, it never shapes it,
    /// so checkpoints interchange freely between tapped and untapped
    /// sessions.
    progress_every: u64,
    /// The next instruction boundary at which to emit a progress event
    /// (`u64::MAX` when telemetry is off). Always an exact multiple of
    /// `progress_every`; recomputed — never serialized — on restore.
    next_progress: u64,
    /// Ordinal of the next progress event.
    progress_seq: u64,
    /// Where progress events go.
    progress_sink: Option<ProgressSink<'a>>,
    /// Superblock batches replayed so far (telemetry only).
    sb_batches: u64,
    /// Instructions retired via superblock replay so far (telemetry
    /// only).
    sb_insts: u64,
}

/// The context-fingerprint description of one mode.
fn describe_mode(m: &Mode<'_>) -> String {
    match m {
        Mode::Baseline(_) => "baseline".to_string(),
        Mode::NaiveIlr(_) => "naive-ilr".to_string(),
        Mode::Vcfr { drc, .. } => format!("vcfr drc={drc:?}"),
    }
}

impl<'a> Session<'a> {
    /// Builds a session, rejecting configurations the engine cannot
    /// honour under `mode` before any state is constructed. The engine
    /// kind comes from `cfg.engine`; a multicore kind runs `mode` on
    /// every core (use [`Session::new_heterogeneous`] for mixed fleets).
    ///
    /// # Errors
    ///
    /// [`VcfrError::Config`] on an inconsistent request — re-randomization
    /// outside VCFR mode, an invalid DRC geometry, a zero-instruction
    /// epoch, or a core count outside `1..=`[`EngineKind::MAX_CORES`].
    pub fn new(mode: Mode<'a>, cfg: &SimConfig, max_insts: u64) -> Result<Session<'a>, VcfrError> {
        cfg.engine.validate()?;
        let modes = vec![mode; cfg.engine.cores() as usize];
        Session::open(modes, cfg, OooConfig::default(), max_insts)
    }

    /// Builds a multicore session running a *different* mode on each
    /// core (the `repro multicore` cell runs a VCFR core beside a
    /// baseline core this way). `cfg.engine` must be
    /// [`EngineKind::Multicore`] with `cores == modes.len()`.
    ///
    /// # Errors
    ///
    /// [`VcfrError::Config`] when the engine kind is not multicore, the
    /// core count disagrees with `modes`, or a per-mode validation fails
    /// (same rules as [`Session::new`]).
    pub fn new_heterogeneous(
        modes: &[Mode<'a>],
        cfg: &SimConfig,
        max_insts: u64,
    ) -> Result<Session<'a>, VcfrError> {
        if !matches!(cfg.engine, EngineKind::Multicore { .. }) {
            return Err(VcfrError::Config(
                "a heterogeneous session needs EngineKind::Multicore in the config".into(),
            ));
        }
        Session::open(modes.to_vec(), cfg, OooConfig::default(), max_insts)
    }

    /// [`Session::new`] on the out-of-order core with a non-default
    /// window geometry (`cfg.engine` must be [`EngineKind::Ooo`]).
    pub(crate) fn with_ooo_geometry(
        mode: Mode<'a>,
        cfg: &SimConfig,
        ooo: OooConfig,
        max_insts: u64,
    ) -> Result<Session<'a>, VcfrError> {
        Session::open(vec![mode], cfg, ooo, max_insts)
    }

    /// Validates the request and builds the backend `cfg.engine` names.
    fn open(
        modes: Vec<Mode<'a>>,
        cfg: &SimConfig,
        ooo: OooConfig,
        max_insts: u64,
    ) -> Result<Session<'a>, VcfrError> {
        Session::validate(&modes, cfg)?;
        let backend = match cfg.engine {
            EngineKind::InOrder => Backend::InOrder {
                machine: Machine::new(modes[0].image_ref()),
                engine: Engine::new(cfg, modes[0]),
            },
            EngineKind::Ooo => Backend::Ooo {
                machine: Machine::new(modes[0].image_ref()),
                engine: OooEngine::new(cfg, ooo, modes[0]),
            },
            EngineKind::Multicore { .. } => {
                Backend::Multicore(MultiCore::new(&modes, cfg, max_insts))
            }
        };
        let last = backend.stats_now();
        let mut sb_cache = SuperblockCache::new();
        if cfg.engine.uses_superblocks() {
            for s in &modes[0].image_ref().sections {
                if s.kind == SectionKind::Text {
                    sb_cache.add_range(s.base, s.end());
                }
            }
        }
        Ok(Session {
            modes,
            cfg: *cfg,
            max_insts,
            backend,
            plan: None,
            faults: FaultStats::default(),
            records: Vec::new(),
            samples: Vec::new(),
            last,
            stride: 0,
            next_sample: u64::MAX,
            finished: None,
            superblocks: true,
            sb_cache,
            sb_timing: Vec::new(),
            progress_every: 0,
            next_progress: u64::MAX,
            progress_seq: 0,
            progress_sink: None,
            sb_batches: 0,
            sb_insts: 0,
        })
    }

    /// The mode/config consistency rules shared by every constructor.
    /// For multicore, `rerand_epoch` needs at least one VCFR core (the
    /// in-order engines only swap tables under VCFR).
    fn validate(modes: &[Mode<'a>], cfg: &SimConfig) -> Result<(), VcfrError> {
        cfg.engine.validate()?;
        let cores = cfg.engine.cores();
        if cores as usize != modes.len() {
            return Err(VcfrError::Config(format!(
                "the engine kind declares {cores} cores but {} modes were given",
                modes.len()
            )));
        }
        if cfg.rerand_epoch == Some(0) {
            return Err(VcfrError::Config(
                "rerand_epoch must be positive (use None to disable re-randomization) (got 0)"
                    .into(),
            ));
        }
        if cfg.rerand_epoch.is_some() && !modes.iter().any(|m| m.vcfr().is_some()) {
            return Err(VcfrError::Config(
                "rerand_epoch requires a VCFR run (live table swaps flush the DRC)".into(),
            ));
        }
        for (program, drc) in modes.iter().filter_map(Mode::vcfr) {
            drc.validate()
                .map_err(|e| VcfrError::Config(format!("a VCFR mode needs a valid DRC: {e}")))?;
            // An epoch swap draws every instruction a fresh address in the
            // program's region.
            let (lo, hi) = program.region;
            if cfg.rerand_epoch.is_some() && !region_fits(program.layout(), lo, hi) {
                return Err(VcfrError::Config(format!(
                    "rerand_epoch needs a randomization region of at least 4 bytes per \
                     instruction, but [{lo:#x}, {hi:#x}) holds {} instructions \
                     (a page-confined layout's region is only its text)",
                    program.layout().len()
                )));
            }
        }
        Ok(())
    }

    /// Enables interval sampling: one [`IntervalSample`] per `interval`
    /// committed instructions (clamped to 1).
    pub fn with_sampling(mut self, interval: u64) -> Session<'a> {
        let interval = interval.max(1);
        self.stride = interval;
        self.next_sample = interval;
        self
    }

    /// Schedules the faults of `plan` for injection. The plan's clock is
    /// the session's instruction count (aggregate across cores for
    /// multicore).
    pub fn with_faults(mut self, plan: &FaultPlan) -> Session<'a> {
        self.plan = Some(plan.clone());
        self
    }

    /// Attaches a telemetry tap: `sink` receives a [`ProgressEvent`]
    /// each time the run crosses a multiple of `every` committed
    /// instructions (clamped to 1), plus one final event when the run
    /// finishes. Boundaries are *instruction counts* (aggregate across
    /// cores for multicore), not wall-clock, so the simulated results —
    /// stats, samples, fault records, manifests, checkpoint bytes — are
    /// byte-identical with the tap attached or not, and the
    /// deterministic event fields are a pure function of the run.
    /// Wall-clock belongs to whoever consumes the events (the daemon
    /// timestamps them at emission), never inside them.
    pub fn with_progress(
        mut self,
        every: u64,
        sink: impl FnMut(&ProgressEvent) + Send + 'a,
    ) -> Session<'a> {
        let every = every.max(1);
        self.progress_every = every;
        let done = self.backend.instructions();
        self.next_progress = (done / every + 1).saturating_mul(every);
        self.progress_seq = done / every;
        self.progress_sink = Some(Box::new(sink));
        self
    }

    /// Enables or disables the superblock fast path (on by default).
    ///
    /// The setting changes throughput only, never results: stats,
    /// samples, fault records, trace events and checkpoint bytes are
    /// bit-identical either way (`tests/superblock_equiv.rs` enforces
    /// this). Disabling is useful for differential debugging and for
    /// timing the per-instruction path. A no-op on kinds that step
    /// per-instruction ([`EngineKind::uses_superblocks`]).
    pub fn with_superblocks(mut self, enabled: bool) -> Session<'a> {
        self.superblocks = enabled;
        self
    }

    /// Committed instructions so far (aggregate across cores for
    /// multicore sessions).
    pub fn instructions(&self) -> u64 {
        self.backend.instructions()
    }

    /// A snapshot of the counters at this point of the run (the
    /// aggregate for multicore sessions).
    pub fn stats_now(&self) -> SimStats {
        self.backend.stats_now()
    }

    /// The engine's post-mortem trace ring, oldest event first (empty
    /// when `SimConfig::trace_events` is 0, and on kinds that keep no
    /// ring — see [`EngineKind::keeps_trace_ring`]).
    pub fn trace_events(&self) -> Vec<crate::TraceEvent> {
        match &self.backend {
            Backend::InOrder { engine, .. } => engine.trace.to_vec(),
            Backend::Ooo { .. } | Backend::Multicore(_) => Vec::new(),
        }
    }

    /// The progress reading the telemetry tap would emit right now
    /// (deterministic fields only). Useful for a final reading without
    /// waiting for the next boundary; does not consume a sequence
    /// number.
    pub fn progress_now(&self) -> ProgressEvent {
        let s = self.backend.stats_now();
        let f = self.faults;
        ProgressEvent {
            seq: self.progress_seq,
            instructions: s.instructions,
            cycles: s.cycles,
            fetch_stall_cycles: s.fetch_stall_cycles,
            load_stall_cycles: s.load_stall_cycles,
            redirect_stall_cycles: s.redirect_stall_cycles,
            rerand_stall_cycles: s.rerand_stall_cycles,
            sb_batches: self.sb_batches,
            sb_insts: self.sb_insts,
            faults_injected: f.injected,
            faults_detected: f.detected(),
            rerand_epochs: s.rerand_epochs,
        }
    }

    /// Builds the event for the current boundary and hands it to the
    /// sink (when attached), advancing the sequence number.
    fn emit_progress(&mut self) {
        if self.progress_sink.is_none() {
            return;
        }
        let ev = self.progress_now();
        self.progress_seq += 1;
        if let Some(sink) = self.progress_sink.as_mut() {
            sink(&ev);
        }
    }

    /// Runs to completion (or `max_insts`).
    ///
    /// # Errors
    ///
    /// [`VcfrError::Sim`] when the program faults architecturally or an
    /// injected sticky fault halts the machine.
    pub fn run(&mut self) -> Result<SessionOutcome, VcfrError> {
        match self.run_for(u64::MAX)? {
            SessionStatus::Done(out) => Ok(*out),
            SessionStatus::Running => unreachable!("an unbounded budget always finishes"),
        }
    }

    /// Runs at most `budget` more instructions; returns
    /// [`SessionStatus::Running`] when the budget ran out first. Calling
    /// again after completion returns the same [`SessionStatus::Done`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run`].
    pub fn run_for(&mut self, budget: u64) -> Result<SessionStatus, VcfrError> {
        if let Some(out) = &self.finished {
            return Ok(SessionStatus::Done(Box::new(out.clone())));
        }
        let stop_at = self.backend.instructions().saturating_add(budget.max(1));
        loop {
            // The instruction window. The multicore event loop enforces
            // its per-core window internally (the aggregate count would
            // truncate an N-core fleet N times too early).
            if !matches!(self.backend, Backend::Multicore(_))
                && self.backend.instructions() >= self.max_insts
            {
                let outcome = self.backend.current_outcome();
                return Ok(SessionStatus::Done(Box::new(self.finish(outcome))));
            }
            if self.superblocks && self.try_superblock(stop_at) {
                self.post_step()?;
                if self.backend.instructions() >= stop_at {
                    return Ok(SessionStatus::Running);
                }
                continue;
            }
            if let Some(outcome) = self.step_once()? {
                return Ok(SessionStatus::Done(Box::new(self.finish(outcome))));
            }
            self.post_step()?;
            if self.backend.instructions() >= stop_at {
                return Ok(SessionStatus::Running);
            }
        }
    }

    /// Advances the run by one instruction on whichever engine backs it.
    /// Returns the architectural outcome when the run just finished.
    fn step_once(&mut self) -> Result<Option<RunOutcome>, VcfrError> {
        match &mut self.backend {
            Backend::InOrder { machine, engine } => match machine.step() {
                Ok(Some(info)) => engine.step(&info),
                Ok(None) => return Ok(Some(outcome_of(machine))),
                Err(e) => return Err(engine.fault(e).into()),
            },
            Backend::Ooo { machine, engine } => match machine.step() {
                Ok(Some(info)) => engine.step(&info),
                Ok(None) => return Ok(Some(outcome_of(machine))),
                Err(e) => return Err(SimError::from(e).into()),
            },
            Backend::Multicore(mc) => {
                if !mc.step_next()? {
                    return Ok(Some(self.backend.current_outcome()));
                }
            }
        }
        Ok(None)
    }

    /// Attempts to advance the run through a superblock replay. Returns
    /// `false` when the slow path must handle the next instruction: the
    /// backend is not the in-order engine, the mode is ineligible
    /// (NaiveIlr fetches from scattered addresses), the machine is
    /// stopped, no block starts at the current pc, or the admissible
    /// batch length is zero because the very next instruction carries a
    /// boundary event (sample, scheduled fault, DRC flush, rerand epoch,
    /// budget edge).
    ///
    /// The batch length is capped so that no observability or
    /// dependability hook can fall *inside* a batch — every hook in
    /// [`Session::run_for`]'s bookkeeping fires on exactly the same
    /// instruction boundary the per-instruction path would fire it on.
    fn try_superblock(&mut self, stop_at: u64) -> bool {
        let Backend::InOrder { machine, engine } = &mut self.backend else {
            return false;
        };
        // Naive ILR fetches every instruction from its scattered
        // randomized address: the fast path's pc-contiguity premise does
        // not hold.
        if let Mode::NaiveIlr(_) = self.modes[0] {
            return false;
        }
        if machine.stop_reason().is_some() {
            return false;
        }
        let pc = machine.pc();
        let id = match self.sb_cache.lookup(pc) {
            SuperblockLookup::Block(id) => id,
            SuperblockLookup::NoBlock => return false,
            SuperblockLookup::Untried => {
                let formed = machine.form_superblock(pc, SUPERBLOCK_MAX_INSTS);
                match self.sb_cache.record(pc, formed) {
                    Some(id) => {
                        let sb = self.sb_cache.get(id);
                        self.sb_timing.push(
                            sb.insts
                                .iter()
                                .map(|s| ReplayInst {
                                    pc: s.pc,
                                    last: s.pc + s.len as Addr - 1,
                                    extra: exec_extra_cycles(&s.inst),
                                })
                                .collect(),
                        );
                        id
                    }
                    None => return false,
                }
            }
        };

        // Cap the batch at the nearest boundary. All of these are
        // strictly ahead of the current instruction count (loop/run_for
        // invariants), so the subtractions cannot wrap — saturating_sub
        // merely turns a violated invariant into a slow-path fallback.
        let i = engine.instructions;
        let sb = self.sb_cache.get(id);
        let mut n = (sb.len() as u64)
            .min(self.max_insts - i)
            .min(stop_at - i)
            .min(self.next_sample.saturating_sub(i))
            .min(self.next_progress.saturating_sub(i));
        if let Some(p) = &self.plan {
            if let Some(f) = p.faults.get(self.records.len()) {
                n = n.min(f.at_inst.saturating_sub(i));
            }
        }
        // The instruction landing exactly on a DRC flush or epoch
        // boundary must take the slow path: `Engine::step` performs the
        // flush or table swap *before* that instruction's fetch.
        n = n.min(engine.quiet_insts());
        if n == 0 {
            return false;
        }
        let n = n as usize;
        machine.replay_superblock(self.sb_cache.get(id), n);
        engine.replay_block(&self.sb_timing[id as usize][..n]);
        self.sb_batches += 1;
        self.sb_insts += n as u64;
        true
    }

    /// Bookkeeping shared by the per-instruction and superblock paths:
    /// injects any faults now due and folds a sample when the interval
    /// boundary was reached. Both paths land on identical instruction
    /// boundaries, so the records and samples are identical too.
    fn post_step(&mut self) -> Result<(), VcfrError> {
        if let Some(p) = &self.plan {
            let n = self.backend.instructions();
            while let Some(f) = p.faults.get(self.records.len()) {
                if f.at_inst > n {
                    break;
                }
                let outcome = self.backend.inject_fault(f, p.policy, n)?;
                self.faults.record(outcome);
                let (target, persistence) = (f.target, f.persistence);
                self.records.push(FaultRecord { at_inst: n, target, persistence, outcome });
            }
        }
        if self.backend.instructions() >= self.next_sample {
            self.take_sample();
            self.next_sample += self.stride;
        }
        if self.backend.instructions() >= self.next_progress {
            self.emit_progress();
            // Re-anchor to the next exact multiple (the superblock
            // clamp and single-stepping both land exactly on the
            // boundary, but re-deriving keeps the invariant explicit).
            self.next_progress = (self.backend.instructions() / self.progress_every + 1)
                .saturating_mul(self.progress_every);
        }
        Ok(())
    }

    /// Folds the interval since the last sample into `self.samples`.
    fn take_sample(&mut self) {
        let now = self.backend.stats_now();
        let last = &mut self.last;
        let insts = now.instructions - last.instructions;
        if insts == 0 {
            return;
        }
        let cycles = now.cycles.saturating_sub(last.cycles).max(1);
        let il1_acc = (now.il1.accesses - last.il1.accesses).max(1);
        let il1_miss = now.il1.misses - last.il1.misses;
        let (drc_l, drc_m) = match (now.drc, last.drc) {
            (Some(n), Some(l)) => (n.lookups - l.lookups, n.misses - l.misses),
            _ => (0, 0),
        };
        self.samples.push(IntervalSample {
            first_inst: last.instructions,
            instructions: insts,
            cycles,
            ipc: insts as f64 / cycles as f64,
            il1_miss_rate: il1_miss as f64 / il1_acc as f64,
            drc_miss_rate: if drc_l == 0 { 0.0 } else { drc_m as f64 / drc_l as f64 },
        });
        *last = now;
    }

    fn finish(&mut self, outcome: RunOutcome) -> SessionOutcome {
        if self.stride > 0 {
            self.take_sample();
        }
        // One final reading at the (deterministic) end-of-run
        // instruction count, so short runs that never cross a boundary
        // still report.
        self.emit_progress();
        let multicore = match &self.backend {
            Backend::Multicore(mc) => Some(mc.output()),
            _ => None,
        };
        let stats = multicore.as_ref().map_or_else(|| self.backend.stats_now(), |m| m.stats);
        let out = SessionOutcome {
            output: SimOutput { stats, outcome },
            samples: self.samples.clone(),
            faults: self.faults,
            records: self.records.clone(),
            multicore,
        };
        self.finished = Some(out.clone());
        out
    }

    /// The FNV-1a 64 fingerprint of everything that determines this run:
    /// configuration (including the engine kind), per-core modes (with
    /// DRC geometry), instruction window, sampling stride and fault
    /// plan. Stored in the checkpoint envelope; [`Session::restore`]
    /// refuses bytes taken under a different one — including a
    /// checkpoint of the same program on a different engine kind.
    pub fn context(&self) -> u64 {
        let mode_desc =
            self.modes.iter().map(describe_mode).collect::<Vec<_>>().join(" + ");
        checkpoint::context_fingerprint(&format!(
            "{:?} | mode={} | max_insts={} | stride={} | plan={:?}",
            self.cfg, mode_desc, self.max_insts, self.stride, self.plan
        ))
    }

    /// Serialises the live session into a self-validating, versioned
    /// checkpoint (see [`crate::checkpoint`] for the format and version
    /// policy). Restoring it with [`Session::restore`] and running on
    /// produces bit-identical results to never having stopped. Every
    /// engine kind checkpoints: the payload carries the in-order
    /// machine+engine, the out-of-order engine (window geometry
    /// included), or the whole multicore fleet plus the shared level.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut w = checkpoint::begin(self.context());
        let image = self.modes[0].image_ref();
        match &self.backend {
            Backend::InOrder { machine, engine } => {
                machine.save(image, &mut w);
                engine.save(&mut w);
            }
            Backend::Ooo { machine, engine } => {
                machine.save(image, &mut w);
                engine.save(&mut w);
            }
            Backend::Multicore(mc) => mc.save(&self.modes, &mut w),
        }
        w.u64(self.records.len() as u64);
        for rec in &self.records {
            rec.save(&mut w);
        }
        w.u64(self.samples.len() as u64);
        for s in &self.samples {
            w.u64(s.first_inst);
            w.u64(s.instructions);
            w.u64(s.cycles);
            w.u64(s.ipc.to_bits());
            w.u64(s.il1_miss_rate.to_bits());
            w.u64(s.drc_miss_rate.to_bits());
        }
        self.last.save(&mut w);
        w.u64(self.next_sample);
        checkpoint::seal(w)
    }

    /// Replaces this session's state with a checkpoint taken by an
    /// identically-configured session (same mode(s), config — engine
    /// kind included — window, sampling and plan, enforced via the
    /// context fingerprint).
    ///
    /// # Errors
    ///
    /// [`VcfrError::Checkpoint`] when the bytes are corrupt, truncated,
    /// from a different format version, or from a different run
    /// configuration.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), VcfrError> {
        let payload = checkpoint::open(bytes, self.context())?;
        let wire = |e: WireError| VcfrError::Checkpoint(CheckpointError::Wire(e));
        let mut r = Reader::with_magic(payload, PAYLOAD_MAGIC).map_err(wire)?;
        let mode = self.modes[0];
        let backend = match self.cfg.engine {
            EngineKind::InOrder => {
                let machine = Machine::restore(mode.image_ref(), &mut r).map_err(wire)?;
                let engine = Engine::restore(&self.cfg, mode, &mut r).map_err(wire)?;
                Backend::InOrder { machine, engine }
            }
            EngineKind::Ooo => {
                let machine = Machine::restore(mode.image_ref(), &mut r).map_err(wire)?;
                let engine = OooEngine::restore(&self.cfg, mode, &mut r).map_err(wire)?;
                Backend::Ooo { machine, engine }
            }
            EngineKind::Multicore { .. } => Backend::Multicore(
                MultiCore::restore(&self.modes, &self.cfg, self.max_insts, &mut r)
                    .map_err(wire)?,
            ),
        };
        // A record is its instruction count and three tags.
        let n_records = r.count(8 + 3).map_err(wire)?;
        if n_records > self.plan.as_ref().map_or(0, |p| p.faults.len()) {
            return Err(VcfrError::Checkpoint(CheckpointError::Corrupt));
        }
        let records = (0..n_records)
            .map(|_| FaultRecord::restore(&mut r))
            .collect::<Result<Vec<_>, _>>()
            .map_err(wire)?;
        let mut faults = FaultStats::default();
        for rec in &records {
            faults.record(rec.outcome);
        }
        // A sample is six `u64`s.
        let n_samples = r.count(6 * 8).map_err(wire)?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            samples.push(IntervalSample {
                first_inst: r.u64().map_err(wire)?,
                instructions: r.u64().map_err(wire)?,
                cycles: r.u64().map_err(wire)?,
                ipc: f64::from_bits(r.u64().map_err(wire)?),
                il1_miss_rate: f64::from_bits(r.u64().map_err(wire)?),
                drc_miss_rate: f64::from_bits(r.u64().map_err(wire)?),
            });
        }
        let last = SimStats::restore(&mut r).map_err(wire)?;
        let next_sample = r.u64().map_err(wire)?;
        if !r.is_exhausted() {
            return Err(wire(WireError::Truncated));
        }
        self.backend = backend;
        self.faults = faults;
        self.records = records;
        self.samples = samples;
        self.last = last;
        self.next_sample = next_sample;
        self.finished = None;
        // The telemetry cursor is never serialized (the tap is outside
        // the checkpoint context); re-derive it so events keep firing
        // at the same exact multiples of `progress_every`.
        if let Some(seq) = self.backend.instructions().checked_div(self.progress_every) {
            self.next_progress = (seq + 1).saturating_mul(self.progress_every);
            self.progress_seq = seq;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use vcfr_core::DrcConfig;
    use vcfr_isa::{AluOp, Asm, Cond, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    fn workload() -> vcfr_isa::Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 200);
        a.mov_ri(Reg::Rax, 0);
        let top = a.here();
        for i in 0..12 {
            a.call_named(&format!("f{i}"));
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        for i in 0..12 {
            a.func(&format!("f{i}"));
            a.alu_ri(AluOp::Add, Reg::Rax, 1);
            a.ret();
        }
        a.finish().unwrap()
    }

    #[test]
    fn session_matches_legacy_simulate() {
        let img = workload();
        let cfg = SimConfig::default();
        let legacy = crate::simulate(Mode::Baseline(&img), &cfg, 100_000).unwrap();
        let out =
            Session::new(Mode::Baseline(&img), &cfg, 100_000).unwrap().run().unwrap();
        assert_eq!(out.output.outcome.output, legacy.outcome.output);
        assert_eq!(out.output.stats, legacy.stats);
    }

    #[test]
    fn chunked_run_equals_one_shot() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig { rerand_epoch: Some(3_000), ..SimConfig::default() };
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
        let one = Session::new(mode(), &cfg, 50_000).unwrap().run().unwrap();
        let mut s = Session::new(mode(), &cfg, 50_000).unwrap();
        let mut chunks = 0;
        let chunked = loop {
            match s.run_for(1_234).unwrap() {
                SessionStatus::Running => chunks += 1,
                SessionStatus::Done(out) => break *out,
            }
        };
        assert!(chunks > 2, "the budget actually sliced the run");
        assert_eq!(chunked.output.stats, one.output.stats);
        assert_eq!(chunked.output.outcome, one.output.outcome);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(2)).unwrap();
        let cfg = SimConfig { rerand_epoch: Some(2_500), ..SimConfig::default() };
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
        let plan = FaultPlan::generate(2015, 16, 8_000);
        let straight = Session::new(mode(), &cfg, 30_000)
            .unwrap()
            .with_sampling(1_000)
            .with_faults(&plan)
            .run()
            .unwrap();

        let mut first =
            Session::new(mode(), &cfg, 30_000).unwrap().with_sampling(1_000).with_faults(&plan);
        assert!(matches!(first.run_for(7_000).unwrap(), SessionStatus::Running));
        let snap = first.checkpoint();
        drop(first);

        let mut resumed =
            Session::new(mode(), &cfg, 30_000).unwrap().with_sampling(1_000).with_faults(&plan);
        resumed.restore(&snap).unwrap();
        let out = resumed.run().unwrap();
        assert_eq!(out.output.stats, straight.output.stats);
        assert_eq!(out.output.outcome, straight.output.outcome);
        assert_eq!(out.samples, straight.samples);
        assert_eq!(out.records, straight.records);
        assert_eq!(out.faults, straight.faults);
        // And the post-resume checkpoint stream stays stable too.
        let again = resumed.checkpoint();
        resumed.restore(&again).unwrap();
    }

    #[test]
    fn restore_rejects_foreign_and_corrupt_checkpoints() {
        let img = workload();
        let cfg = SimConfig::default();
        let mut s = Session::new(Mode::Baseline(&img), &cfg, 10_000).unwrap();
        s.run_for(2_000).unwrap();
        let snap = s.checkpoint();

        // Different window → different context.
        let mut other = Session::new(Mode::Baseline(&img), &cfg, 20_000).unwrap();
        assert!(matches!(
            other.restore(&snap),
            Err(VcfrError::Checkpoint(CheckpointError::ContextMismatch))
        ));

        // Flipped payload byte → corrupt.
        let mut bad = snap.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let mut same = Session::new(Mode::Baseline(&img), &cfg, 10_000).unwrap();
        assert!(matches!(
            same.restore(&bad),
            Err(VcfrError::Checkpoint(CheckpointError::Corrupt))
        ));
    }

    /// A checkpoint whose sample count claims 2^32 samples, resealed so
    /// its hash checks out, is a wire error: restore sizes the samples
    /// by the bytes left, not by the count.
    #[test]
    fn a_forged_sample_count_is_a_wire_error() {
        let img = workload();
        let cfg = SimConfig::default();
        let mut s = Session::new(Mode::Baseline(&img), &cfg, 10_000).unwrap();
        s.run_for(2_000).unwrap();
        let payload = checkpoint::open(&s.checkpoint(), s.context()).unwrap().to_vec();
        // With sampling off, the payload ends with the sample count, no
        // samples, the last sample's stats and the next sample point.
        let mut w = vcfr_isa::wire::Writer::default();
        s.last.save(&mut w);
        let at = payload.len() - 8 - w.into_bytes().len() - 8;
        assert_eq!(payload[at..at + 8], 0u64.to_le_bytes());
        let mut forged = checkpoint::begin(s.context());
        for (i, &b) in payload.iter().enumerate().skip(PAYLOAD_MAGIC.len()) {
            forged.u8(if i == at + 4 { 1 } else { b });
        }
        let err = s.restore(&checkpoint::seal(forged)).unwrap_err();
        assert!(matches!(err, VcfrError::Checkpoint(CheckpointError::Wire(_))), "{err:?}");
    }

    /// A loop of straight-line ALU work long enough for superblocks to
    /// form (the call-heavy [`workload`] never replays a batch).
    fn alu_workload() -> vcfr_isa::Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 500);
        a.mov_ri(Reg::Rax, 0);
        let top = a.here();
        for _ in 0..64 {
            a.alu_ri(AluOp::Add, Reg::Rax, 1);
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        a.finish().unwrap()
    }

    /// Runs `f` with a tap at `every` insts, collecting the events.
    fn collect_events(
        build: impl Fn() -> vcfr_isa::Image,
        every: u64,
        superblocks: bool,
        chunk: Option<u64>,
    ) -> (Vec<vcfr_obs::ProgressEvent>, SessionOutcome) {
        let img = build();
        let events = std::sync::Mutex::new(Vec::new());
        let mut s = Session::new(Mode::Baseline(&img), &SimConfig::default(), 50_000)
            .unwrap()
            .with_superblocks(superblocks)
            .with_progress(every, |e| events.lock().unwrap().push(*e));
        let out = match chunk {
            None => s.run().unwrap(),
            Some(budget) => loop {
                if let SessionStatus::Done(out) = s.run_for(budget).unwrap() {
                    break *out;
                }
            },
        };
        drop(s);
        (events.into_inner().unwrap(), out)
    }

    #[test]
    fn progress_events_fire_at_exact_boundaries() {
        let (events, out) = collect_events(alu_workload, 1_000, true, None);
        assert!(events.len() >= 2, "expected several events, got {}", events.len());
        let (final_ev, boundary) = events.split_last().unwrap();
        for (i, e) in boundary.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.instructions, (i as u64 + 1) * 1_000, "event {i} off-boundary");
        }
        // The final event reads the end-of-run state.
        assert_eq!(final_ev.instructions, out.output.stats.instructions);
        assert_eq!(final_ev.cycles, out.output.stats.cycles);
        // Monotone counters throughout.
        for w in events.windows(2) {
            assert!(w[0].instructions <= w[1].instructions);
            assert!(w[0].cycles <= w[1].cycles);
        }
        // The fast path actually ran and the hit rate is visible.
        assert!(final_ev.sb_batches > 0);
        assert!(final_ev.sb_hit_rate() > 0.0);
    }

    #[test]
    fn progress_stream_is_identical_chunked_or_straight() {
        let (straight, out_a) = collect_events(workload, 777, true, None);
        let (chunked, out_b) = collect_events(workload, 777, true, Some(1_234));
        assert_eq!(straight, chunked);
        assert_eq!(out_a.output.stats, out_b.output.stats);
    }

    #[test]
    fn results_identical_with_tap_on_or_off() {
        let img = workload();
        let cfg = SimConfig::default();
        let plain =
            Session::new(Mode::Baseline(&img), &cfg, 50_000).unwrap().run().unwrap();
        let mut n = 0u64;
        let tapped = Session::new(Mode::Baseline(&img), &cfg, 50_000)
            .unwrap()
            .with_progress(500, |_| n += 1)
            .run()
            .unwrap();
        assert!(n > 0);
        assert_eq!(plain.output.stats, tapped.output.stats);
        assert_eq!(plain.output.outcome, tapped.output.outcome);
    }

    #[test]
    fn checkpoints_interchange_between_tapped_and_untapped_sessions() {
        let img = workload();
        let cfg = SimConfig::default();
        let mut tapped = Session::new(Mode::Baseline(&img), &cfg, 30_000)
            .unwrap()
            .with_progress(1_000, |_| {});
        assert!(matches!(tapped.run_for(5_000).unwrap(), SessionStatus::Running));
        let snap = tapped.checkpoint();

        let mut untapped = Session::new(Mode::Baseline(&img), &cfg, 30_000).unwrap();
        assert!(matches!(untapped.run_for(5_000).unwrap(), SessionStatus::Running));
        // The tap leaves no trace in the checkpoint: bytes interchange.
        assert_eq!(snap, untapped.checkpoint());
        untapped.restore(&snap).unwrap();

        // And a restored tapped session resumes events on the same
        // exact multiples, with seq picking up where the boundary
        // count stands.
        let events = std::sync::Mutex::new(Vec::new());
        let mut resumed = Session::new(Mode::Baseline(&img), &cfg, 30_000)
            .unwrap()
            .with_progress(1_000, |e: &vcfr_obs::ProgressEvent| {
                events.lock().unwrap().push(*e)
            });
        resumed.restore(&snap).unwrap();
        resumed.run().unwrap();
        drop(resumed);
        let events = events.into_inner().unwrap();
        assert_eq!(events[0].seq, 5, "5 boundaries lie before inst 5000");
        assert_eq!(events[0].instructions, 6_000);
    }

    #[test]
    fn trace_ring_readable_after_successful_run() {
        let img = workload();
        let cfg = SimConfig::default();
        let mut s = Session::new(Mode::Baseline(&img), &cfg, 10_000).unwrap();
        s.run().unwrap();
        let trace = s.trace_events();
        assert!(!trace.is_empty(), "default trace_events retains the tail");
        assert!(trace.len() <= cfg.trace_events);

        let off = SimConfig { trace_events: 0, ..cfg };
        let mut s = Session::new(Mode::Baseline(&img), &off, 10_000).unwrap();
        s.run().unwrap();
        assert!(s.trace_events().is_empty());
    }

    #[test]
    fn new_rejects_inconsistent_mode_config_combos() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig { rerand_epoch: Some(1_000), ..SimConfig::default() };
        let err = Session::new(Mode::Baseline(&img), &cfg, 1_000).err().unwrap();
        assert!(err.to_string().contains("VCFR"), "{err}");
        let err = Session::new(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(0) },
            &SimConfig::default(),
            1_000,
        )
        .err()
        .unwrap();
        assert!(err.to_string().contains("DRC"), "{err}");
        let zero = SimConfig { rerand_epoch: Some(0), ..SimConfig::default() };
        assert!(Session::new(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) },
            &zero,
            1_000
        )
        .is_err());
    }

    #[test]
    fn ooo_session_matches_the_free_function() {
        let img = workload();
        let cfg = SimConfig::builder().engine(EngineKind::Ooo).build().unwrap();
        let legacy = crate::simulate_ooo(
            Mode::Baseline(&img),
            &cfg,
            OooConfig::default(),
            100_000,
        )
        .unwrap();
        let out =
            Session::new(Mode::Baseline(&img), &cfg, 100_000).unwrap().run().unwrap();
        assert_eq!(out.output.stats, legacy.stats);
        assert_eq!(out.output.outcome, legacy.outcome);
        assert!(out.multicore.is_none());
    }

    #[test]
    fn multicore_session_aggregates_per_core_results() {
        let img = workload();
        let cfg = SimConfig::builder()
            .engine(EngineKind::Multicore { cores: 2 })
            .build()
            .unwrap();
        let out =
            Session::new(Mode::Baseline(&img), &cfg, 100_000).unwrap().run().unwrap();
        let mc = out.multicore.expect("multicore sessions report per-core results");
        assert_eq!(mc.per_core.len(), 2);
        assert_eq!(out.output.stats, mc.stats);
        assert_eq!(out.output.outcome.output, mc.outcomes[0].output);
        assert_eq!(
            out.output.stats.instructions,
            mc.per_core[0].instructions + mc.per_core[1].instructions
        );
    }

    #[test]
    fn heterogeneous_session_needs_matching_core_count() {
        let img = workload();
        let cfg = SimConfig::builder()
            .engine(EngineKind::Multicore { cores: 3 })
            .build()
            .unwrap();
        let err = Session::new_heterogeneous(
            &[Mode::Baseline(&img), Mode::Baseline(&img)],
            &cfg,
            10_000,
        )
        .err()
        .expect("2 modes for 3 declared cores");
        assert!(err.to_string().contains("3 cores"), "{err}");
        let err = Session::new_heterogeneous(&[Mode::Baseline(&img)], &SimConfig::default(), 1_000)
            .err()
            .expect("heterogeneous needs the multicore kind");
        assert!(err.to_string().contains("Multicore"), "{err}");
    }

    #[test]
    fn fault_plans_run_on_every_engine_kind() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let plan = FaultPlan::generate(1, 24, 5_000);
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
        for kind in [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 2 }] {
            let cfg = SimConfig::builder().engine(kind).build().unwrap();
            let out = Session::new(mode, &cfg, 10_000).unwrap().with_faults(&plan).run().unwrap();
            assert_eq!(out.faults.injected, 24, "{kind}");
            assert!(out.faults.detected() > 0, "{kind}: {:?}", out.faults);
            // The records run on the session's clock.
            let at: Vec<u64> = out.records.iter().map(|r| r.at_inst).collect();
            let due: Vec<u64> = plan.faults.iter().map(|f| f.at_inst).collect();
            assert_eq!(at, due, "{kind}");
        }
    }
}
