//! The trace-driven cycle engine: an in-order single-issue pipeline
//! (fetch → decode → alloc → exec → commit) timed over the architectural
//! instruction stream of the functional interpreter.
//!
//! Three execution modes reproduce the paper's three machines:
//!
//! * [`Mode::Baseline`] — the original binary, no randomization;
//! * [`Mode::NaiveIlr`] — straightforward hardware ILR: instructions are
//!   fetched from their *scattered* randomized addresses (the address
//!   mapping itself is free, as the paper assumes), destroying fetch
//!   locality;
//! * [`Mode::Vcfr`] — virtual control flow randomization: fetch stays in
//!   the original space, and the engine's mediation unit (its DRC)
//!   translates at control transfers, calls, returns and marked stack
//!   loads, walking the in-memory tables through the unified L2 on a
//!   miss.
//!
//! The mediation unit and the control-flow resolver are shared with the
//! out-of-order core; this module keeps only the in-order pipeline timing
//! and how it absorbs their costs.

use crate::config::SimConfig;
use crate::faults::{
    target_from_tag, target_tag, ContainmentPolicy, FaultOutcome, FaultTarget, ScheduledFault,
};
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::{classify_fault, FaultAction, Mediation, Mode};
use crate::predict::Predictors;
use crate::session::Session;
use crate::stats::SimStats;
use crate::VcfrError;
use std::collections::VecDeque;
use std::fmt;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow, ExecError, Inst, RunOutcome, StepInfo};
use vcfr_obs::TraceRing;

/// One entry in the post-mortem trace ring: something the pipeline did
/// at a point in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Committed-instruction sequence number (1-based).
    pub seq: u64,
    /// Architectural PC of the instruction the event belongs to.
    pub pc: Addr,
    /// Simulated cycle the event is anchored to.
    pub cycle: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The kinds of pipeline events the trace ring records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The instruction left the timing model.
    Commit,
    /// Instruction fetch stalled (IL1 miss, iTLB walk).
    FetchStall {
        /// Stall cycles.
        cycles: u64,
    },
    /// The front end was redirected (misprediction, BTB miss,
    /// DRC-miss redirect).
    Redirect {
        /// Cycle fetch resumes at.
        resume_at: u64,
    },
    /// A DRC miss walked the in-memory translation tables.
    DrcWalk {
        /// Walk latency in cycles.
        cycles: u64,
    },
    /// A scheduled fault was injected into the mediation state.
    FaultInjected {
        /// Where the flip landed.
        target: FaultTarget,
    },
    /// The mediation layer detected an injected fault.
    FaultDetected {
        /// Where the flip landed.
        target: FaultTarget,
    },
    /// An epoch re-randomization swapped the live layout and tables.
    Rerand {
        /// Pipeline pause charged for the swap.
        cycles: u64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} pc={:#x} cycle={} ", self.seq, self.pc, self.cycle)?;
        match self.kind {
            TraceEventKind::Commit => write!(f, "commit"),
            TraceEventKind::FetchStall { cycles } => write!(f, "fetch stall {cycles}"),
            TraceEventKind::Redirect { resume_at } => {
                write!(f, "redirect, fetch resumes at {resume_at}")
            }
            TraceEventKind::DrcWalk { cycles } => write!(f, "drc walk {cycles}"),
            TraceEventKind::FaultInjected { target } => write!(f, "fault injected into {target}"),
            TraceEventKind::FaultDetected { target } => write!(f, "fault in {target} detected"),
            TraceEventKind::Rerand { cycles } => write!(f, "rerand epoch swap, {cycles} cycles"),
        }
    }
}

/// A simulation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The program faulted architecturally.
    Exec {
        /// The architectural fault.
        cause: ExecError,
        /// The last pipeline events before the fault (contents of the
        /// trace ring, oldest first; empty when tracing is disabled or
        /// the fault did not pass through the timing engine).
        trace: Vec<TraceEvent>,
    },
    /// An injected sticky fault could not be contained under
    /// [`ContainmentPolicy::Halt`]: the machine stopped rather than run
    /// on corrupted translation state.
    Fault {
        /// Committed-instruction count at the halt.
        at_inst: u64,
        /// The structure holding the uncorrectable fault.
        target: FaultTarget,
        /// The last pipeline events before the halt.
        trace: Vec<TraceEvent>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trace = match self {
            SimError::Exec { cause, trace } => {
                write!(f, "architectural fault: {cause}")?;
                trace
            }
            SimError::Fault { at_inst, target, trace } => {
                write!(f, "uncorrectable sticky fault in {target} at instruction {at_inst} (policy: halt)")?;
                trace
            }
        };
        if !trace.is_empty() {
            write!(f, "\nlast {} pipeline events:", trace.len())?;
            for e in trace {
                write!(f, "\n  {e}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> SimError {
        SimError::Exec { cause: e, trace: Vec::new() }
    }
}

/// The result of a simulation: timing statistics plus the architectural
/// outcome (output values, stop reason).
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Timing and event counters.
    pub stats: SimStats,
    /// The functional result.
    pub outcome: RunOutcome,
}

/// Pipeline depth between fetch completion and execute.
const DECODE_DEPTH: u64 = 3;

pub(crate) struct Engine<'a> {
    cfg: SimConfig,
    mode: Mode<'a>,
    pub(crate) hier: MemoryHierarchy,
    pred: Predictors,
    /// The VCFR mediation unit (`None` outside VCFR mode).
    med: Option<Mediation<'a>>,
    pub(crate) fetch_time: u64,
    pub(crate) backend_time: u64,
    redirect_at: u64,
    window_line: Option<Addr>,
    iq: VecDeque<u64>,
    fetch_stall: u64,
    load_stall: u64,
    redirect_stall: u64,
    exec_extra: u64,
    pub(crate) instructions: u64,
    pub(crate) trace: TraceRing<TraceEvent>,
    /// PC of the instruction currently stepping (for events recorded in
    /// helpers that don't see `StepInfo`).
    cur_pc: Addr,
}

/// Per-instruction timing precompute for superblock replay: everything
/// `Engine::step` needs from `StepInfo` for an eligible (register-only)
/// instruction, flattened so the batched path touches no decoder state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplayInst {
    /// Architectural pc (identical to fetch pc in Baseline/Vcfr modes).
    pub(crate) pc: Addr,
    /// Address of the instruction's final byte (`pc + len - 1`).
    pub(crate) last: Addr,
    /// Extra execute cycles (`exec_extra_cycles`), e.g. 2 for `mul`.
    pub(crate) extra: u64,
}

/// Records one trace event. A free function so call sites can borrow the
/// ring alongside other `Engine` fields (e.g. while the mediation unit is
/// borrowed).
#[inline]
fn trace_push(trace: &mut TraceRing<TraceEvent>, seq: u64, pc: Addr, cycle: u64, kind: TraceEventKind) {
    trace.push(TraceEvent { seq, pc, cycle, kind });
}

/// Records a DRC table walk of `walk` cycles (nothing on a hit).
#[inline]
fn trace_walk(trace: &mut TraceRing<TraceEvent>, seq: u64, pc: Addr, cycle: u64, walk: u64) {
    if walk > 0 {
        trace_push(trace, seq, pc, cycle, TraceEventKind::DrcWalk { cycles: walk });
    }
}

/// Extra execution latency of long-running operations, shared by the
/// in-order and out-of-order cores.
pub(crate) fn exec_extra_cycles(inst: &Inst) -> u64 {
    use vcfr_isa::AluOp::*;
    match inst {
        Inst::AluRR { op, .. } | Inst::AluRI { op, .. } => match op {
            Mul => 2,
            Div | Rem => 12,
            _ => 0,
        },
        _ => 0,
    }
}

impl<'a> Engine<'a> {
    pub(crate) fn new(cfg: &SimConfig, mode: Mode<'a>) -> Engine<'a> {
        let mut hier = MemoryHierarchy::new(cfg);
        let med = Mediation::new(&mode, cfg, &mut hier.dtlb);
        Engine {
            cfg: *cfg,
            mode,
            hier,
            pred: Predictors::new(cfg),
            med,
            fetch_time: 0,
            backend_time: 0,
            redirect_at: 0,
            window_line: None,
            iq: VecDeque::new(),
            fetch_stall: 0,
            load_stall: 0,
            redirect_stall: 0,
            exec_extra: 0,
            instructions: 0,
            trace: TraceRing::new(cfg.trace_events),
            cur_pc: 0,
        }
    }

    /// Instructions that can commit before the mediation unit's next DRC
    /// flush or epoch boundary (the superblock fast path stops short of
    /// one).
    pub(crate) fn quiet_insts(&self) -> u64 {
        self.med.as_ref().map_or(u64::MAX, |m| m.quiet_after(self.instructions))
    }

    /// Packages an architectural fault with the post-mortem trace.
    pub(crate) fn fault(&self, cause: ExecError) -> SimError {
        SimError::Exec { cause, trace: self.trace.to_vec() }
    }

    fn redirect(&mut self, at: u64) {
        if at > self.redirect_at {
            // A redirect only stalls fetch for the cycles past the point
            // fetch has already reached. When it lands exactly on (or
            // behind) `fetch_time`, the front end never waits: the
            // contribution is zero, not a wrapped subtraction.
            self.redirect_stall += at.saturating_sub(self.redirect_at.max(self.fetch_time));
            self.redirect_at = at;
            trace_push(
                &mut self.trace,
                self.instructions,
                self.cur_pc,
                at,
                TraceEventKind::Redirect { resume_at: at },
            );
        }
    }

    /// Quiesces the pipeline for an epoch swap of `cost` cycles. The
    /// whole pause is charged by advancing both clocks, so the
    /// cycle-accounting floor identity (`cycles ≥ busy + load + rerand`)
    /// holds exactly.
    fn rerand_pause(&mut self, cost: u64) {
        let now = self.backend_time.max(self.fetch_time) + cost;
        self.fetch_time = now;
        self.backend_time = now;
        self.redirect_at = self.redirect_at.max(now);
        self.window_line = None;
        trace_push(
            &mut self.trace,
            self.instructions,
            self.cur_pc,
            now,
            TraceEventKind::Rerand { cycles: cost },
        );
    }

    /// Fetches the bytes `first..=last` of instruction `seq` at `pc` and
    /// issues it: the IQ's back-pressure, one IL1 access per new line of
    /// the fetch window and the `FetchStall` event. Returns when fetch
    /// finished and when execution starts. Shared by [`Engine::step`] and
    /// [`Engine::replay_block`], so both paths time fetch identically.
    #[inline(always)]
    fn fetch_and_issue(&mut self, seq: u64, pc: Addr, first: Addr, last: Addr) -> (u64, u64) {
        let mut start = self.fetch_time.max(self.redirect_at);
        if self.iq.len() >= self.cfg.iq_entries {
            if let Some(oldest) = self.iq.pop_front() {
                start = start.max(oldest);
            }
        }
        let line_bytes = self.cfg.il1.line_bytes as Addr;
        let (mut line, last) = (first & !(line_bytes - 1), last & !(line_bytes - 1));
        let mut stall = 0;
        loop {
            if self.window_line != Some(line) {
                stall += self.hier.fetch_line(line, start);
                self.window_line = Some(line);
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        let fetch_done = start + 1 + stall;
        self.fetch_stall += stall;
        self.fetch_time = fetch_done;
        if stall > 0 {
            let kind = TraceEventKind::FetchStall { cycles: stall };
            trace_push(&mut self.trace, seq, pc, fetch_done, kind);
        }
        let exec_start = (self.backend_time + 1).max(fetch_done + DECODE_DEPTH);
        self.iq.push_back(exec_start);
        (fetch_done, exec_start)
    }

    /// One instruction through the timing model.
    pub(crate) fn step(&mut self, info: &StepInfo) {
        self.instructions += 1;
        self.cur_pc = info.pc;
        let seq = self.instructions;

        // Context switches flush the DRC; live re-randomization (§V-C)
        // swaps to a fresh layout every epoch, pausing the pipeline.
        if let Some(cost) = self.med.as_mut().and_then(|m| m.begin(seq)) {
            self.rerand_pause(cost);
        }

        // ---- fetch and issue -------------------------------------------
        let fetch_pc = self.mode.fetch_addr(info.pc);
        let last = fetch_pc + info.len as Addr - 1;
        let (fetch_done, exec_start) = self.fetch_and_issue(seq, info.pc, fetch_pc, last);

        // ---- backend ----------------------------------------------------
        let extra = exec_extra_cycles(&info.inst);
        self.exec_extra += extra;
        let mut exec_end = exec_start + extra;
        for acc in info.mem_accesses() {
            let lat = self.hier.data_access(acc.addr, acc.write, exec_start);
            self.load_stall += lat;
            exec_end += lat;
        }

        // ---- VCFR mediation layer ----------------------------------------
        if let Some(med) = self.med.as_mut() {
            // Stack-slot hygiene: a marked-slot load waits for its
            // de-randomization walk.
            for acc in info.mem_accesses() {
                let walk = med.stack_access(acc, info.control, &mut self.hier, exec_start);
                exec_end += walk;
                trace_walk(&mut self.trace, seq, info.pc, exec_start, walk);
            }
            // A call pushes the *randomized* return address and marks its
            // slot. The walk on a miss happens in the store's shadow (the
            // push need not retire before younger instructions execute on
            // an in-order store buffer), so it contributes table traffic
            // but no stall.
            if let Some(
                ControlFlow::Call { ret_addr, .. } | ControlFlow::IndirectCall { ret_addr, .. },
            ) = info.control
            {
                if let Some((rand, walk)) =
                    med.randomize_return(ret_addr, &mut self.hier, exec_start)
                {
                    trace_walk(&mut self.trace, seq, info.pc, exec_start, walk);
                    if let Some(push) = info.mem_accesses().find(|a| a.write) {
                        med.mark_slot(push.addr, rand, ret_addr);
                    }
                }
            }
        }

        // ---- control flow ------------------------------------------------
        if let Some(cf) = info.control {
            let r = self.pred.resolve(
                info.pc,
                cf,
                &self.mode,
                self.med.as_mut(),
                &mut self.hier,
                fetch_done,
                exec_end,
            );
            trace_walk(&mut self.trace, seq, info.pc, exec_end, r.walk);
            if let Some(at) = r.redirect {
                self.redirect(at);
            }
            // A taken transfer resets the byte queue: the fetch unit
            // re-fetches the target line even when it is the line it was
            // already streaming (XIOSim's byteQ behaviour).
            if cf.taken_target().is_some() {
                self.window_line = None;
            }
        }

        self.backend_time = exec_end;
        trace_push(&mut self.trace, seq, info.pc, exec_end, TraceEventKind::Commit);
    }

    /// Replays a run of superblock instructions through the timing model.
    ///
    /// Bit-for-bit equivalent to calling [`Engine::step`] once per
    /// instruction when every instruction is superblock-eligible
    /// (register-only: no memory accesses, no control flow, no faults)
    /// and fetch pc equals architectural pc (Baseline/Vcfr modes). The
    /// per-step work that is provably a no-op for such instructions —
    /// the DRC flush / rerand epoch checks (the caller caps `insts` so
    /// no boundary falls inside the batch), the mediation layer (an
    /// empty access list, no control), the data-access loop and the
    /// control-flow hand-off — is skipped; everything else, including
    /// cache/TLB/prefetcher state advanced by `fetch_line` on *hits* and
    /// FetchStall/Commit trace events, runs exactly as in `step`.
    pub(crate) fn replay_block(&mut self, insts: &[ReplayInst]) {
        for ri in insts {
            self.instructions += 1;
            let (_, exec_start) = self.fetch_and_issue(self.instructions, ri.pc, ri.pc, ri.last);
            self.exec_extra += ri.extra;
            let exec_end = exec_start + ri.extra;
            self.backend_time = exec_end;
            trace_push(&mut self.trace, self.instructions, ri.pc, exec_end, TraceEventKind::Commit);
        }
        if let Some(ri) = insts.last() {
            self.cur_pc = ri.pc;
        }
    }

    /// Injects one scheduled fault, due at session instruction `at_inst`,
    /// and applies the mediation unit's verdict ([`classify_fault`]),
    /// tracing the fault's injection and detection in the ring.
    pub(crate) fn inject_fault(
        &mut self,
        f: &ScheduledFault,
        policy: ContainmentPolicy,
        at_inst: u64,
    ) -> Result<FaultOutcome, SimError> {
        let (seq, pc, target) = (self.instructions, self.cur_pc, f.target);
        let injected = TraceEventKind::FaultInjected { target };
        trace_push(&mut self.trace, seq, pc, self.backend_time, injected);
        let image = self.mode.image_ref();
        let (outcome, action) =
            classify_fault(self.med.as_mut(), f, policy, pc, &mut self.hier.dtlb, image);
        match action {
            FaultAction::Halt => {
                let trace = self.trace.to_vec();
                return Err(SimError::Fault { at_inst, target, trace });
            }
            FaultAction::Pause(cost) => self.rerand_pause(cost),
            FaultAction::None | FaultAction::Refetch => {}
        }
        if outcome.detected() {
            let detected = TraceEventKind::FaultDetected { target };
            trace_push(&mut self.trace, seq, pc, self.backend_time, detected);
        }
        if action == FaultAction::Refetch {
            self.redirect(self.backend_time.max(self.fetch_time) + self.cfg.mispredict_penalty);
        }
        Ok(outcome)
    }

    pub(crate) fn stats_now(&self) -> SimStats {
        SimStats {
            instructions: self.instructions,
            cycles: self.backend_time.max(self.fetch_time),
            fetch_stall_cycles: self.fetch_stall,
            load_stall_cycles: self.load_stall,
            redirect_stall_cycles: self.redirect_stall,
            exec_extra_cycles: self.exec_extra,
            ..SimStats::of_components(&self.hier, &self.pred, self.med.as_ref())
        }
    }

    /// Serialises the entire engine state (checkpoint support). The
    /// configuration and mode are *not* written: the checkpoint
    /// envelope's context fingerprint pins them, and [`Engine::restore`]
    /// rebuilds from the same ones.
    pub(crate) fn save(&self, w: &mut Writer) {
        self.hier.save(w);
        self.pred.save(w);
        w.u64(self.fetch_time);
        w.u64(self.backend_time);
        w.u64(self.redirect_at);
        save_line(self.window_line, w);
        save_queue(&self.iq, w);
        if let Some(med) = &self.med {
            med.save(w);
        }
        for v in [
            self.fetch_stall,
            self.load_stall,
            self.redirect_stall,
            self.exec_extra,
            self.instructions,
            self.trace.total_pushed(),
        ] {
            w.u64(v);
        }
        let items = self.trace.to_vec();
        w.u64(items.len() as u64);
        for e in &items {
            save_trace_event(e, w);
        }
        w.u32(self.cur_pc);
    }

    /// Rebuilds an engine from [`Engine::save`] output. `cfg` and `mode`
    /// must match the ones the saved engine ran under (the checkpoint
    /// envelope enforces this before the bytes get here).
    pub(crate) fn restore(
        cfg: &SimConfig,
        mode: Mode<'a>,
        r: &mut Reader<'_>,
    ) -> Result<Engine<'a>, WireError> {
        let mut e = Engine::new(cfg, mode);
        e.hier = MemoryHierarchy::restore(cfg, r)?;
        e.pred = Predictors::restore(cfg, r)?;
        e.fetch_time = r.u64()?;
        e.backend_time = r.u64()?;
        e.redirect_at = r.u64()?;
        e.window_line = load_line(r)?;
        e.iq = load_queue(r)?;
        e.med = e.med.take().map(|m| m.restored(r)).transpose()?;
        e.fetch_stall = r.u64()?;
        e.load_stall = r.u64()?;
        e.redirect_stall = r.u64()?;
        e.exec_extra = r.u64()?;
        e.instructions = r.u64()?;
        let pushed = r.u64()?;
        let n_trace = r.u64()?;
        if n_trace > 1 << 24 || n_trace > pushed {
            return Err(WireError::LengthOutOfRange { len: n_trace });
        }
        let mut items = Vec::with_capacity(n_trace as usize);
        for _ in 0..n_trace {
            items.push(load_trace_event(r)?);
        }
        e.trace = TraceRing::from_parts(cfg.trace_events, items, pushed);
        e.cur_pc = r.u32()?;
        Ok(e)
    }
}

/// Writes a fetch window's current line (checkpoint support; shared by
/// both cores).
pub(crate) fn save_line(line: Option<Addr>, w: &mut Writer) {
    match line {
        Some(line) => {
            w.u8(1);
            w.u32(line);
        }
        None => w.u8(0),
    }
}

/// Reads [`save_line`] output.
pub(crate) fn load_line(r: &mut Reader<'_>) -> Result<Option<Addr>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u32()?)),
        tag => Err(WireError::BadTag { tag }),
    }
}

/// Writes a queue of completion cycles (checkpoint support; shared by
/// both cores).
pub(crate) fn save_queue(q: &VecDeque<u64>, w: &mut Writer) {
    w.u64(q.len() as u64);
    for &t in q {
        w.u64(t);
    }
}

/// Reads [`save_queue`] output.
pub(crate) fn load_queue(r: &mut Reader<'_>) -> Result<VecDeque<u64>, WireError> {
    let n = r.u64()?;
    if n > 1 << 20 {
        return Err(WireError::LengthOutOfRange { len: n });
    }
    (0..n).map(|_| r.u64()).collect()
}

fn save_trace_event(e: &TraceEvent, w: &mut Writer) {
    w.u64(e.seq);
    w.u32(e.pc);
    w.u64(e.cycle);
    match e.kind {
        TraceEventKind::Commit => w.u8(0),
        TraceEventKind::FetchStall { cycles } => {
            w.u8(1);
            w.u64(cycles);
        }
        TraceEventKind::Redirect { resume_at } => {
            w.u8(2);
            w.u64(resume_at);
        }
        TraceEventKind::DrcWalk { cycles } => {
            w.u8(3);
            w.u64(cycles);
        }
        TraceEventKind::FaultInjected { target } => {
            w.u8(4);
            w.u8(target_tag(target));
        }
        TraceEventKind::FaultDetected { target } => {
            w.u8(5);
            w.u8(target_tag(target));
        }
        TraceEventKind::Rerand { cycles } => {
            w.u8(6);
            w.u64(cycles);
        }
    }
}

fn load_trace_event(r: &mut Reader<'_>) -> Result<TraceEvent, WireError> {
    let seq = r.u64()?;
    let pc = r.u32()?;
    let cycle = r.u64()?;
    let kind = match r.u8()? {
        0 => TraceEventKind::Commit,
        1 => TraceEventKind::FetchStall { cycles: r.u64()? },
        2 => TraceEventKind::Redirect { resume_at: r.u64()? },
        3 => TraceEventKind::DrcWalk { cycles: r.u64()? },
        4 => TraceEventKind::FaultInjected { target: target_from_tag(r.u8()?)? },
        5 => TraceEventKind::FaultDetected { target: target_from_tag(r.u8()?)? },
        6 => TraceEventKind::Rerand { cycles: r.u64()? },
        tag => return Err(WireError::BadTag { tag }),
    };
    Ok(TraceEvent { seq, pc, cycle, kind })
}

/// One interval of a sampled simulation (see [`Session::with_sampling`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalSample {
    /// Index of the first instruction in the interval.
    pub first_inst: u64,
    /// Instructions in the interval.
    pub instructions: u64,
    /// Cycles the interval took.
    pub cycles: u64,
    /// Interval IPC.
    pub ipc: f64,
    /// Interval IL1 miss rate.
    pub il1_miss_rate: f64,
    /// Interval DRC miss rate (0 outside VCFR mode).
    pub drc_miss_rate: f64,
}

/// Runs one program to completion (or `max_insts`) under `mode`, on the
/// engine `cfg.engine` selects. One [`Session`] call.
///
/// # Errors
///
/// [`VcfrError::Sim`] when the program faults; reaching `max_insts` is
/// *not* an error — the run is truncated, mirroring the paper's
/// 500-million-instruction windows. [`VcfrError::Config`] when `cfg`
/// does not fit `mode` (see [`Session::new`]).
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Reg};
/// use vcfr_sim::{simulate, Mode, SimConfig};
///
/// let mut a = Asm::new(0x1000);
/// a.mov_ri(Reg::Rax, 7);
/// a.emit_output(Reg::Rax);
/// a.halt();
/// let img = a.finish().unwrap();
/// let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000).unwrap();
/// assert_eq!(out.outcome.output, vec![7]);
/// assert!(out.stats.cycles > 0);
/// ```
pub fn simulate(mode: Mode<'_>, cfg: &SimConfig, max_insts: u64) -> Result<SimOutput, VcfrError> {
    Ok(Session::new(mode, cfg, max_insts)?.run()?.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPersistence, FaultPlan};
    use crate::session::SessionOutcome;
    use vcfr_core::DrcConfig;
    use vcfr_isa::{AluOp, Asm, Cond, Image, Machine, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    /// A loop calling ~120 small functions per iteration: the hot code
    /// footprint (~10 KB) fits the 32 KB IL1 in the original layout but
    /// occupies ~1800 lines when scattered per instruction — exactly the
    /// regime in which naive hardware ILR thrashes.
    fn workload() -> Image {
        const FUNCS: usize = 120;
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 40);
        a.mov_ri(Reg::Rax, 0);
        let top = a.here();
        for i in 0..FUNCS {
            a.call_named(&format!("f{i}"));
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        for i in 0..FUNCS {
            a.func(&format!("f{i}"));
            for _ in 0..6 {
                a.alu_ri(AluOp::Add, Reg::Rax, 1);
            }
            a.ret();
        }
        a.finish().unwrap()
    }

    #[test]
    fn redirect_landing_on_fetch_time_adds_no_stall() {
        // Pin the boundary semantics of redirect-stall accounting: a
        // redirect resolving exactly at (or before) the cycle fetch has
        // already reached costs the front end nothing, but still moves
        // the resume point so later fetches cannot start earlier.
        let cfg = SimConfig::default();
        let img = workload();
        let mut e = Engine::new(&cfg, Mode::Baseline(&img));
        e.fetch_time = 100;

        // Exactly on fetch_time: zero stall, redirect point recorded.
        e.redirect(100);
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.redirect_at, 100);

        // Behind fetch_time but ahead of redirect_at (mid-flight branch
        // resolved while fetch ran ahead): still free — this is the case
        // the old unchecked subtraction would have underflowed on.
        e.fetch_time = 200;
        e.redirect(150);
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.redirect_at, 150);

        // Past fetch_time: only the cycles beyond fetch_time count.
        e.redirect(230);
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.redirect_at, 230);

        // Not past the previous redirect: ignored entirely.
        e.redirect(210);
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.redirect_at, 230);
    }

    #[test]
    fn replay_block_matches_stepwise_accounting() {
        // The batched replay path must leave the engine in the exact
        // state N individual steps would: serialize both and compare.
        let mut a = Asm::new(0x1000);
        for i in 0..24 {
            a.alu_ri(AluOp::Add, Reg::Rax, i + 1);
            a.alu_ri(AluOp::Mul, Reg::Rbx, 3); // exercises exec_extra
            a.cmp_i(Reg::Rax, 7);
        }
        a.halt();
        let img = a.finish().unwrap();

        let cfg = SimConfig::default();
        let mut stepped = Engine::new(&cfg, Mode::Baseline(&img));
        let mut batched = Engine::new(&cfg, Mode::Baseline(&img));
        let mut m = Machine::new(&img);
        let mut replay = Vec::new();
        for _ in 0..72 {
            let info = m.step().unwrap().unwrap();
            replay.push(ReplayInst {
                pc: info.pc,
                last: info.pc + info.len as Addr - 1,
                extra: exec_extra_cycles(&info.inst),
            });
            stepped.step(&info);
        }
        batched.replay_block(&replay);

        let mut wa = Writer::with_magic(*b"VCFRTEST");
        stepped.save(&mut wa);
        let mut wb = Writer::with_magic(*b"VCFRTEST");
        batched.save(&mut wb);
        assert_eq!(wa.into_bytes(), wb.into_bytes());
        assert_eq!(batched.instructions, 72);
        assert_eq!(batched.cur_pc, stepped.cur_pc);
    }

    #[test]
    fn baseline_reaches_high_ipc_on_a_hot_loop() {
        let img = workload();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        assert_eq!(out.outcome.output, vec![40 * 120 * 6]);
        let ipc = out.stats.ipc();
        assert!(ipc > 0.7, "baseline IPC {ipc} too low");
        assert!(out.stats.il1.miss_rate() < 0.05, "il1 {}", out.stats.il1.miss_rate());
    }

    #[test]
    fn naive_ilr_destroys_fetch_locality() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let base = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        let naive = simulate(Mode::NaiveIlr(&rp), &SimConfig::default(), 1_000_000).unwrap();
        // Same architectural result.
        assert_eq!(naive.outcome.output, base.outcome.output);
        // Dramatically worse IL1 behaviour and IPC.
        assert!(
            naive.stats.il1.miss_rate() > 4.0 * base.stats.il1.miss_rate().max(1e-6),
            "naive {} vs base {}",
            naive.stats.il1.miss_rate(),
            base.stats.il1.miss_rate()
        );
        assert!(naive.stats.ipc() < base.stats.ipc());
    }

    #[test]
    fn vcfr_preserves_locality_and_ipc() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let base = simulate(Mode::Baseline(&img), &cfg, 1_000_000).unwrap();
        let naive = simulate(Mode::NaiveIlr(&rp), &cfg, 1_000_000).unwrap();
        let vcfr = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        assert_eq!(vcfr.outcome.output, base.outcome.output);
        // VCFR keeps the IL1 behaviour of the baseline ...
        assert!(vcfr.stats.il1.miss_rate() < 2.0 * base.stats.il1.miss_rate().max(1e-4));
        // ... and sits between baseline and naive in IPC, close to base.
        // (This microbench has 120 uniformly hot call sites — far harsher
        // on the DRC than SPEC-like code — so the bound is loose here;
        // the workload-level experiments assert the ~2% paper bound.)
        assert!(vcfr.stats.ipc() > naive.stats.ipc());
        assert!(vcfr.stats.ipc() > 0.8 * base.stats.ipc());
        // The DRC actually worked.
        let drc = vcfr.stats.drc.expect("vcfr mode records DRC stats");
        assert!(drc.lookups > 0);
    }

    #[test]
    fn drc_size_monotonicity() {
        // A call-heavy workload with many distinct sites.
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 300);
        let top = a.here();
        for i in 0..40 {
            a.call_named(&format!("f{i}"));
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        for i in 0..40 {
            a.func(&format!("f{i}"));
            a.alu_ri(AluOp::Add, Reg::Rax, 1);
            a.ret();
        }
        let img = a.finish().unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(2)).unwrap();
        let cfg = SimConfig::default();
        let small = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(16) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        let large = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(512) },
            &cfg,
            1_000_000,
        )
        .unwrap();
        let ms = small.stats.drc.unwrap().miss_rate();
        let ml = large.stats.drc.unwrap().miss_rate();
        assert!(ms > ml, "16-entry miss rate {ms} should exceed 512-entry {ml}");
        assert!(large.stats.ipc() >= small.stats.ipc());
    }

    #[test]
    fn truncation_at_max_insts() {
        let img = workload();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 100).unwrap();
        assert_eq!(out.stats.instructions, 100);
    }

    #[test]
    fn branch_predictor_learns_the_loop() {
        // A long-running tight loop: the single conditional branch must
        // become near-perfectly predicted.
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 20_000);
        let top = a.here();
        a.call_named("leaf");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.func("leaf");
        a.ret();
        let img = a.finish().unwrap();
        let out = simulate(Mode::Baseline(&img), &SimConfig::default(), 1_000_000).unwrap();
        assert!(out.stats.branch.mispredict_rate() < 0.01);
        assert!(out.stats.branch.ras_mispredictions < 10);
    }

    /// A baseline run of `img` sampled every `interval` instructions.
    fn sampled(img: &Image, max_insts: u64, interval: u64) -> SessionOutcome {
        let session = Session::new(Mode::Baseline(img), &SimConfig::default(), max_insts).unwrap();
        session.with_sampling(interval).run().unwrap()
    }

    #[test]
    fn sampled_simulation_partitions_the_run() {
        let img = workload();
        let SessionOutcome { output: out, samples, .. } = sampled(&img, 1_000_000, 10_000);
        assert!(!samples.is_empty());
        let total_insts: u64 = samples.iter().map(|s| s.instructions).sum();
        assert_eq!(total_insts, out.stats.instructions);
        let total_cycles: u64 = samples.iter().map(|s| s.cycles).sum();
        // Interval cycles tile the run (up to the max(fetch, backend)
        // slack in the final snapshot).
        assert!(total_cycles <= out.stats.cycles + samples.len() as u64);
        for s in &samples {
            assert!(s.ipc > 0.0 && s.ipc <= 1.0 + 1e-9);
            assert!((0.0..=1.0).contains(&s.il1_miss_rate));
        }
    }

    #[test]
    fn sampling_interval_of_one_yields_one_sample_per_instruction() {
        let img = workload();
        let SessionOutcome { output: out, samples, .. } = sampled(&img, 500, 1);
        assert_eq!(samples.len() as u64, out.stats.instructions);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.first_inst, i as u64);
            assert_eq!(s.instructions, 1);
        }
        // Interval 0 clamps to 1 rather than dividing by zero.
        assert_eq!(sampled(&img, 500, 0).samples.len(), samples.len());
    }

    #[test]
    fn sampling_interval_longer_than_the_run_yields_one_final_sample() {
        let img = workload();
        let SessionOutcome { output: out, samples, .. } = sampled(&img, 1_000, u64::MAX);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].first_inst, 0);
        assert_eq!(samples[0].instructions, out.stats.instructions);
    }

    #[test]
    fn last_partial_interval_is_flushed_and_samples_tile_the_run() {
        let img = workload();
        let SessionOutcome { output: out, samples, .. } = sampled(&img, 1_000, 300);
        assert_eq!(out.stats.instructions, 1_000, "workload outlives the window");
        let lens: Vec<u64> = samples.iter().map(|s| s.instructions).collect();
        assert_eq!(lens, vec![300, 300, 300, 100], "three full intervals + the partial tail");
        // Intervals are contiguous and partition the run exactly.
        let mut next = 0;
        for s in &samples {
            assert_eq!(s.first_inst, next);
            next += s.instructions;
        }
        assert_eq!(next, out.stats.instructions);
    }

    #[test]
    fn exec_fault_propagates_with_trace() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.mov_ri(Reg::Rbx, 0);
        a.alu_rr(AluOp::Div, Reg::Rax, Reg::Rbx);
        a.halt();
        let img = a.finish().unwrap();
        let Err(VcfrError::Sim(err)) = simulate(Mode::Baseline(&img), &SimConfig::default(), 100)
        else {
            panic!("expected an architectural fault");
        };
        let SimError::Exec { cause, trace } = &err else {
            panic!("expected an architectural fault, got {err:?}");
        };
        assert!(matches!(cause, ExecError::DivideByZero { .. }));
        // The two movs committed before the fault; their events are in
        // the post-mortem ring and in the rendered error.
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|e| e.kind == TraceEventKind::Commit));
        let shown = err.to_string();
        assert!(shown.contains("architectural fault"));
        assert!(shown.contains("pipeline events"));
        assert!(shown.contains("commit"));
    }

    #[test]
    fn tracing_can_be_disabled() {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 1);
        a.mov_ri(Reg::Rbx, 0);
        a.alu_rr(AluOp::Div, Reg::Rax, Reg::Rbx);
        a.halt();
        let img = a.finish().unwrap();
        let cfg = SimConfig { trace_events: 0, ..SimConfig::default() };
        let Err(VcfrError::Sim(err)) = simulate(Mode::Baseline(&img), &cfg, 100) else {
            panic!("expected an architectural fault");
        };
        let SimError::Exec { trace, .. } = &err else {
            panic!("expected an architectural fault, got {err:?}");
        };
        assert!(trace.is_empty());
        assert!(!err.to_string().contains("pipeline events"));
    }

    #[test]
    fn cycle_accounting_audit_passes_in_every_mode() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        for (name, out) in [
            ("base", simulate(Mode::Baseline(&img), &cfg, 200_000).unwrap()),
            ("naive", simulate(Mode::NaiveIlr(&rp), &cfg, 200_000).unwrap()),
            (
                "vcfr",
                simulate(
                    Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
                    &cfg,
                    200_000,
                )
                .unwrap(),
            ),
        ] {
            let report = out.stats.accounting().audit();
            assert!(report.passed(), "{name}: {:?}", report.failures);
        }
    }

    #[test]
    fn rerand_epochs_swap_layouts_without_changing_the_output() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let still = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            300_000,
        )
        .unwrap();
        // The microbench commits ~38k instructions; an 8k epoch gives
        // several swaps before the run ends.
        let ecfg = SimConfig { rerand_epoch: Some(8_000), ..cfg };
        let swapped = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &ecfg,
            300_000,
        )
        .unwrap();
        // Same architectural result; the swaps only cost time.
        assert_eq!(swapped.outcome.output, still.outcome.output);
        assert!(swapped.stats.rerand_epochs >= 3, "epochs {}", swapped.stats.rerand_epochs);
        assert!(swapped.stats.rerand_stall_cycles > 0);
        assert!(swapped.stats.cycles > still.stats.cycles, "swaps are not free");
        // The pause is visible and the identities still hold.
        let report = swapped.stats.accounting().audit();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn rerand_epoch_runs_are_deterministic() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(3)).unwrap();
        let cfg = SimConfig { rerand_epoch: Some(9_000), ..SimConfig::default() };
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let a = simulate(mode(), &cfg, 200_000).unwrap();
        let b = simulate(mode(), &cfg, 200_000).unwrap();
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.rerand_stall_cycles, b.stats.rerand_stall_cycles);
        assert_eq!(a.stats.rerand_epochs, b.stats.rerand_epochs);
    }

    #[test]
    fn faulted_runs_are_deterministic_and_counterfactual() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        // Schedule within the run's ~38k committed instructions so every
        // fault actually injects.
        let plan = FaultPlan::generate(2015, 48, 30_000);
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let clean = simulate(mode(), &cfg, 150_000).unwrap();
        let faulted =
            || Session::new(mode(), &cfg, 150_000).unwrap().with_faults(&plan).run().unwrap();
        let (a, b) = (faulted(), faulted());
        // Injection never corrupts the architectural run ...
        assert_eq!(a.output.outcome.output, clean.outcome.output);
        // ... and the whole faulted run is reproducible, records and all.
        assert_eq!(a.records, b.records);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.output.stats.cycles, b.output.stats.cycles);
        assert_eq!(a.faults.injected, 48);
        assert_eq!(a.records.len(), 48);
        // Recovery has a price: detected faults slow the run down.
        if a.faults.detected() > 0 {
            assert!(a.output.stats.cycles >= clean.stats.cycles);
        }
        // The timing stays auditable under injection.
        let report = a.output.stats.accounting().audit();
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn vcfr_detects_more_faults_than_the_baseline() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan::generate(2015, 64, 30_000);
        let faulted =
            |mode| Session::new(mode, &cfg, 150_000).unwrap().with_faults(&plan).run().unwrap();
        let base = faulted(Mode::Baseline(&img));
        let vcfr = faulted(Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) });
        assert_eq!(base.faults.injected, vcfr.faults.injected);
        // The mediation layer is exactly the hardware that notices
        // corrupted control-flow state: coverage must improve.
        assert!(
            vcfr.faults.coverage() > base.faults.coverage(),
            "vcfr {} vs base {}",
            vcfr.faults.coverage(),
            base.faults.coverage()
        );
        assert!(vcfr.faults.detected() > base.faults.detected());
        // Baseline masks every flip aimed at hardware it doesn't have.
        assert_eq!(base.faults.detected_parity, 0);
        assert_eq!(base.faults.detected_translation, 0);
        assert_eq!(base.faults.detected_visibility, 0);
    }

    #[test]
    fn sticky_table_faults_trigger_emergency_rerand_under_recover() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                at_inst: 500,
                target: FaultTarget::TableSlot,
                bit: 3,
                lane: 9,
                persistence: FaultPersistence::Sticky,
            }],
            policy: ContainmentPolicy::Recover,
        };
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let out = Session::new(mode, &cfg, 50_000).unwrap().with_faults(&plan).run().unwrap();
        assert_eq!(out.faults.contained, 1);
        assert_eq!(out.faults.emergency_rerands, 1);
        assert_eq!(out.output.stats.rerand_epochs, 1, "the repair is an epoch swap");
        assert!(out.output.stats.rerand_stall_cycles > 0);
        assert_eq!(out.records[0].outcome, FaultOutcome::Contained);
    }

    #[test]
    fn sticky_table_faults_halt_under_the_halt_policy() {
        let img = workload();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let cfg = SimConfig::default();
        let plan = FaultPlan {
            faults: vec![ScheduledFault {
                at_inst: 500,
                target: FaultTarget::TableSlot,
                bit: 3,
                lane: 9,
                persistence: FaultPersistence::Sticky,
            }],
            policy: ContainmentPolicy::Halt,
        };
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let err = Session::new(mode, &cfg, 50_000).unwrap().with_faults(&plan).run().unwrap_err();
        match &err {
            VcfrError::Sim(SimError::Fault { at_inst, target, trace }) => {
                assert_eq!(*at_inst, 500);
                assert_eq!(*target, FaultTarget::TableSlot);
                assert!(!trace.is_empty(), "the post-mortem ring is attached");
            }
            other => panic!("expected SimError::Fault, got {other:?}"),
        }
        let shown = err.to_string();
        assert!(shown.contains("uncorrectable sticky fault"));
        assert!(shown.contains("table-slot"));
    }
}
