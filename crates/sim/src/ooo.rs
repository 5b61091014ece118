//! Out-of-order superscalar extension — the paper's §IX future work
//! ("we will explore and extend the idea to the out-of-order superscalar
//! processor").
//!
//! A trace-driven dataflow model: instructions dispatch in order at up to
//! `width` per cycle into a `rob_entries`-deep window, issue when their
//! register/flag/memory-order dependences are satisfied (execution
//! resources are idealised — a standard limit-study simplification,
//! stated here so the numbers are read correctly), and commit in order at
//! up to `width` per cycle. The front end, memory hierarchy, the
//! control-flow resolver and the VCFR mediation unit are the same
//! components the in-order model uses, so the three machines (baseline /
//! naive ILR / VCFR) remain directly comparable.
//!
//! The core is a first-class [`crate::Session`] backend
//! ([`crate::EngineKind::Ooo`]): it tracks redirect stall cycles, pays
//! epoch re-randomization pauses, applies the mediation unit's fault
//! verdicts, serialises into checkpoints, and keeps a front-end floor
//! identity the audit can check exactly — the fetch clock absorbs every
//! fetch, redirect and rerand stall cycle serially, so
//! `cycles ≥ fetch_stall + redirect_stall + rerand_stall` always.

use crate::config::{EngineKind, SimConfig};
use crate::engine::{
    exec_extra_cycles, load_line, load_queue, save_line, save_queue, SimError, SimOutput,
};
use crate::error::VcfrError;
use crate::faults::{ContainmentPolicy, FaultOutcome, ScheduledFault};
use crate::hierarchy::MemoryHierarchy;
use crate::mediation::{classify_fault, FaultAction, Mediation, Mode};
use crate::predict::Predictors;
use crate::session::Session;
use crate::stats::SimStats;
use std::collections::VecDeque;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Addr, ControlFlow, Reg, StepInfo};

/// Geometry of the out-of-order core. Sessions run the default; a
/// different geometry reaches the core only through [`simulate_ooo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OooConfig {
    /// Fetch/dispatch/commit width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer depth.
    pub rob_entries: usize,
}

impl Default for OooConfig {
    fn default() -> OooConfig {
        OooConfig { width: 4, rob_entries: 128 }
    }
}

/// Pipeline depth between fetch and dispatch.
const DECODE_DEPTH: u64 = 4;
/// Depth between the last execution cycle and retirement.
const COMMIT_DEPTH: u64 = 2;

pub(crate) struct OooEngine<'a> {
    cfg: SimConfig,
    ooo: OooConfig,
    mode: Mode<'a>,
    hier: MemoryHierarchy,
    pred: Predictors,
    /// The VCFR mediation unit (`None` outside VCFR mode).
    med: Option<Mediation<'a>>,
    // Front end.
    fetch_cycle: u64,
    fetch_slots: usize,
    redirect_at: u64,
    window_line: Option<Addr>,
    // Dataflow state.
    reg_ready: [u64; 16],
    flags_ready: u64,
    last_store_done: u64,
    // In-order retire bookkeeping.
    rob: VecDeque<u64>,
    lsq: VecDeque<u64>,
    commit_cycle: u64,
    commit_slots: usize,
    last_retire: u64,
    fetch_stall: u64,
    load_stall: u64,
    redirect_stall: u64,
    exec_extra: u64,
    pub(crate) instructions: u64,
    /// PC of the instruction `step` saw last, which a fault is classified
    /// against. Never checkpointed: a fault always follows a step of the
    /// same session.
    cur_pc: Addr,
}

impl<'a> OooEngine<'a> {
    pub(crate) fn new(cfg: &SimConfig, ooo: OooConfig, mode: Mode<'a>) -> OooEngine<'a> {
        let mut hier = MemoryHierarchy::new(cfg);
        // The OoO core models no stack-slot hygiene: it never marks a
        // slot, so its unit holds no live return addresses, an epoch swap
        // costs quiesce plus table rebuild only, and a stack-bitmap fault
        // is always masked.
        let med = Mediation::new(&mode, cfg, &mut hier.dtlb);
        OooEngine {
            cfg: *cfg,
            ooo,
            mode,
            hier,
            pred: Predictors::new(cfg),
            med,
            fetch_cycle: 0,
            fetch_slots: 0,
            redirect_at: 0,
            window_line: None,
            reg_ready: [0; 16],
            flags_ready: 0,
            last_store_done: 0,
            rob: VecDeque::new(),
            lsq: VecDeque::new(),
            commit_cycle: 0,
            commit_slots: 0,
            last_retire: 0,
            fetch_stall: 0,
            load_stall: 0,
            redirect_stall: 0,
            exec_extra: 0,
            instructions: 0,
            cur_pc: 0,
        }
    }

    /// Drains a pending front-end redirect: fetch jumps forward to the
    /// resolution point and the skipped cycles are charged as redirect
    /// stall. A redirect landing on (or behind) the current fetch cycle
    /// contributes zero — `saturating_sub`, never a wrapped subtraction.
    fn drain_redirect(&mut self) {
        let lost = self.redirect_at.saturating_sub(self.fetch_cycle);
        if lost > 0 {
            self.redirect_stall += lost;
            self.fetch_cycle = self.redirect_at;
            self.fetch_slots = 0;
        }
    }

    /// Quiesces for an epoch swap of `cost` cycles (§V-C): the whole
    /// window drains, and both the fetch and commit clocks advance past
    /// the pause, so the front-end floor identity stays exact.
    fn rerand_pause(&mut self, cost: u64) {
        let now = self.last_retire.max(self.fetch_cycle) + cost;
        self.fetch_cycle = now;
        self.fetch_slots = 0;
        self.redirect_at = self.redirect_at.max(now);
        self.window_line = None;
        self.rob.clear();
        self.lsq.clear();
        self.commit_cycle = now;
        self.commit_slots = 0;
        self.last_retire = now;
    }

    /// One instruction through the timing model.
    pub(crate) fn step(&mut self, info: &StepInfo) {
        self.instructions += 1;
        self.cur_pc = info.pc;
        let cfg = self.cfg;

        // Context switches flush the DRC; live re-randomization (§V-C)
        // swaps to a fresh layout every epoch, draining the window.
        if let Some(cost) = self.med.as_mut().and_then(|m| m.begin(self.instructions)) {
            self.rerand_pause(cost);
        }

        // ---- fetch (width per cycle, same byte-queue/line model) -------
        self.drain_redirect();
        let fetch_pc = self.mode.fetch_addr(info.pc);
        let line_bytes = cfg.il1.line_bytes as Addr;
        let first = fetch_pc & !(line_bytes - 1);
        let last = (fetch_pc + info.len as Addr - 1) & !(line_bytes - 1);
        let mut stall = 0;
        let mut line = first;
        loop {
            if self.window_line != Some(line) {
                stall += self.hier.fetch_line(line, self.fetch_cycle);
                self.window_line = Some(line);
            }
            if line == last {
                break;
            }
            line += line_bytes;
        }
        if stall > 0 {
            self.fetch_cycle += stall;
            self.fetch_slots = 0;
            self.fetch_stall += stall;
        }
        let fetch_done = self.fetch_cycle;
        self.fetch_slots += 1;
        if self.fetch_slots >= self.ooo.width {
            self.fetch_cycle += 1;
            self.fetch_slots = 0;
        }

        // ---- dispatch: in order, ROB-limited -----------------------------
        let mut dispatch = fetch_done + DECODE_DEPTH;
        if self.rob.len() >= self.ooo.rob_entries {
            if let Some(oldest_retire) = self.rob.pop_front() {
                dispatch = dispatch.max(oldest_retire);
            }
        }

        // ---- issue: dataflow ---------------------------------------------
        let mut ready = dispatch;
        for r in info.inst.reads().iter() {
            ready = ready.max(self.reg_ready[r.index()]);
        }
        if info.inst.reads_flags() {
            ready = ready.max(self.flags_ready);
        }
        // Conservative memory ordering: loads wait for the youngest older
        // store, stores serialise behind each other.
        let is_load = info.mem_accesses().any(|a| !a.write);
        let is_store = info.mem_accesses().any(|a| a.write);
        if is_load || is_store {
            ready = ready.max(self.last_store_done);
            // LSQ capacity: a memory op cannot enter until the oldest
            // in-flight one completes when the queue is full.
            if self.lsq.len() >= self.cfg.lsq_entries {
                if let Some(oldest) = self.lsq.pop_front() {
                    ready = ready.max(oldest);
                }
            }
        }

        let extra = exec_extra_cycles(&info.inst);
        self.exec_extra += extra;
        let mut lat = 1 + extra;
        for acc in info.mem_accesses() {
            let l = self.hier.data_access(acc.addr, acc.write, ready);
            self.load_stall += l;
            if !acc.write {
                lat += l;
            }
        }
        let mut exec_done = ready + lat;

        // ---- VCFR mediation: the call's return address is randomized
        // through the DRC ----------------------------------------------------
        if let (
            Some(med),
            Some(ControlFlow::Call { ret_addr, .. } | ControlFlow::IndirectCall { ret_addr, .. }),
        ) = (self.med.as_mut(), info.control)
        {
            med.randomize_return(ret_addr, &mut self.hier, ready);
        }

        // ---- control flow ----------------------------------------------------
        if let Some(cf) = info.control {
            let r = self.pred.resolve(
                info.pc,
                cf,
                &self.mode,
                self.med.as_mut(),
                &mut self.hier,
                fetch_done,
                exec_done,
            );
            if let Some(at) = r.redirect {
                self.redirect_at = self.redirect_at.max(at);
            }
            if cf.taken_target().is_some() {
                self.window_line = None;
            }
            // A resolved transfer pins the dataflow: younger instructions
            // were fetched after the redirect anyway.
            exec_done = exec_done.max(ready + 1);
        }

        // ---- writeback ----------------------------------------------------
        for r in info.inst.writes().iter() {
            // Stack-pointer updates are cheap renames in real cores: they
            // complete at dispatch, not after the memory access.
            let done = if r == Reg::Rsp { ready + 1 } else { exec_done };
            self.reg_ready[r.index()] = self.reg_ready[r.index()].max(done);
        }
        if info.inst.writes_flags() {
            self.flags_ready = self.flags_ready.max(exec_done);
        }
        if is_store {
            self.last_store_done = self.last_store_done.max(exec_done);
        }
        if is_load || is_store {
            self.lsq.push_back(exec_done);
        }

        // ---- in-order commit, width per cycle ------------------------------
        let mut retire = (exec_done + COMMIT_DEPTH).max(self.last_retire);
        if retire > self.commit_cycle {
            self.commit_cycle = retire;
            self.commit_slots = 0;
        }
        self.commit_slots += 1;
        if self.commit_slots >= self.ooo.width {
            self.commit_cycle += 1;
            self.commit_slots = 0;
        }
        retire = retire.max(self.commit_cycle);
        self.last_retire = retire;
        self.rob.push_back(retire);
    }

    /// Injects one scheduled fault, due at session instruction `at_inst`,
    /// and applies the mediation unit's verdict ([`classify_fault`]). The
    /// core keeps no trace ring, so a halt carries an empty trace.
    pub(crate) fn inject_fault(
        &mut self,
        f: &ScheduledFault,
        policy: ContainmentPolicy,
        at_inst: u64,
    ) -> Result<FaultOutcome, SimError> {
        let image = self.mode.image_ref();
        let (outcome, action) =
            classify_fault(self.med.as_mut(), f, policy, self.cur_pc, &mut self.hier.dtlb, image);
        match action {
            FaultAction::None => {}
            FaultAction::Refetch => {
                let resume = self.last_retire.max(self.fetch_cycle) + self.cfg.mispredict_penalty;
                self.redirect_at = self.redirect_at.max(resume);
            }
            FaultAction::Pause(cost) => self.rerand_pause(cost),
            FaultAction::Halt => {
                return Err(SimError::Fault { at_inst, target: f.target, trace: Vec::new() });
            }
        }
        Ok(outcome)
    }

    pub(crate) fn stats_now(&self) -> SimStats {
        SimStats {
            instructions: self.instructions,
            cycles: self.last_retire.max(self.fetch_cycle),
            fetch_stall_cycles: self.fetch_stall,
            load_stall_cycles: self.load_stall,
            redirect_stall_cycles: self.redirect_stall,
            exec_extra_cycles: self.exec_extra,
            ..SimStats::of_components(&self.hier, &self.pred, self.med.as_ref())
        }
    }

    /// Serialises the engine (checkpoint support). The geometry (`width`,
    /// `rob_entries`) is written too, so a restored engine cannot
    /// silently run a different window.
    pub(crate) fn save(&self, w: &mut Writer) {
        w.u64(self.ooo.width as u64);
        w.u64(self.ooo.rob_entries as u64);
        self.hier.save(w);
        self.pred.save(w);
        w.u64(self.fetch_cycle);
        w.u64(self.fetch_slots as u64);
        w.u64(self.redirect_at);
        save_line(self.window_line, w);
        for r in self.reg_ready {
            w.u64(r);
        }
        w.u64(self.flags_ready);
        w.u64(self.last_store_done);
        save_queue(&self.rob, w);
        save_queue(&self.lsq, w);
        w.u64(self.commit_cycle);
        w.u64(self.commit_slots as u64);
        w.u64(self.last_retire);
        if let Some(med) = &self.med {
            med.save(w);
        }
        for v in [
            self.fetch_stall,
            self.load_stall,
            self.redirect_stall,
            self.exec_extra,
            self.instructions,
        ] {
            w.u64(v);
        }
    }

    /// Rebuilds an engine from [`OooEngine::save`] output. `cfg` and
    /// `mode` must match the ones the saved engine ran under (the
    /// checkpoint envelope enforces this before the bytes get here).
    pub(crate) fn restore(
        cfg: &SimConfig,
        mode: Mode<'a>,
        r: &mut Reader<'_>,
    ) -> Result<OooEngine<'a>, WireError> {
        let width = r.u64()?;
        let rob_entries = r.u64()?;
        if width == 0 || width > 1 << 10 || rob_entries > 1 << 20 {
            return Err(WireError::LengthOutOfRange { len: width.max(rob_entries) });
        }
        let ooo = OooConfig { width: width as usize, rob_entries: rob_entries as usize };
        let mut e = OooEngine::new(cfg, ooo, mode);
        e.hier = MemoryHierarchy::restore(cfg, r)?;
        e.pred = Predictors::restore(cfg, r)?;
        e.fetch_cycle = r.u64()?;
        e.fetch_slots = r.u64()? as usize;
        e.redirect_at = r.u64()?;
        e.window_line = load_line(r)?;
        for slot in e.reg_ready.iter_mut() {
            *slot = r.u64()?;
        }
        e.flags_ready = r.u64()?;
        e.last_store_done = r.u64()?;
        e.rob = load_queue(r)?;
        e.lsq = load_queue(r)?;
        e.commit_cycle = r.u64()?;
        e.commit_slots = r.u64()? as usize;
        e.last_retire = r.u64()?;
        e.med = e.med.take().map(|m| m.restored(r)).transpose()?;
        e.fetch_stall = r.u64()?;
        e.load_stall = r.u64()?;
        e.redirect_stall = r.u64()?;
        e.exec_extra = r.u64()?;
        e.instructions = r.u64()?;
        Ok(e)
    }
}

/// Runs one program on the out-of-order core model with geometry `ooo`
/// (whatever engine `cfg` names). One [`Session`] call.
///
/// # Errors
///
/// [`VcfrError::Sim`] when the program faults architecturally;
/// [`VcfrError::Config`] when `cfg` does not fit `mode`.
///
/// # Example
///
/// ```
/// use vcfr_isa::{Asm, Reg};
/// use vcfr_sim::{simulate, simulate_ooo, Mode, OooConfig, SimConfig};
///
/// let mut a = Asm::new(0x1000);
/// for i in 0..64 {
///     a.mov_ri(vcfr_isa::ALL_REGS[(i % 8) + 8], i as i64); // independent work
/// }
/// a.halt();
/// let img = a.finish().unwrap();
/// let cfg = SimConfig::default();
/// let scalar = simulate(Mode::Baseline(&img), &cfg, 1_000).unwrap();
/// let wide = simulate_ooo(Mode::Baseline(&img), &cfg, OooConfig::default(), 1_000).unwrap();
/// assert!(wide.stats.ipc() > scalar.stats.ipc());
/// ```
pub fn simulate_ooo(
    mode: Mode<'_>,
    cfg: &SimConfig,
    ooo: OooConfig,
    max_insts: u64,
) -> Result<SimOutput, VcfrError> {
    let cfg = SimConfig { engine: EngineKind::Ooo, ..*cfg };
    Ok(Session::with_ooo_geometry(mode, &cfg, ooo, max_insts)?.run()?.output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use vcfr_core::DrcConfig;
    use vcfr_isa::{AluOp, Asm, Cond, Image, Machine, Reg};
    use vcfr_rewriter::{randomize, RandomizeConfig};

    /// Independent parallel work: an OoO core must beat the scalar core.
    fn ilp_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        // Eight independent chains per iteration.
        for r in [Reg::Rax, Reg::Rdx, Reg::Rsi, Reg::Rdi, Reg::R8, Reg::R9, Reg::R10, Reg::R11]
        {
            a.alu_ri(AluOp::Add, r, 3);
            a.alu_ri(AluOp::Xor, r, 0x55);
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    /// A single serial dependence chain: OoO gains nothing.
    fn serial_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        for _ in 0..8 {
            a.alu_ri(AluOp::Add, Reg::Rax, 3);
            a.alu_ri(AluOp::Mul, Reg::Rax, 3);
        }
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    /// Data-dependent branches off an LCG: gshare cannot learn them, so
    /// the run is mispredict-heavy.
    fn branchy_workload() -> Image {
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Rax, 12345);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        a.alu_ri(AluOp::Mul, Reg::Rax, 1103515);
        a.alu_ri(AluOp::Add, Reg::Rax, 12345);
        a.mov_rr(Reg::Rdx, Reg::Rax);
        // Branch on a *high* bit: the low bits of an LCG are short-period
        // and gshare learns them.
        a.alu_ri(AluOp::And, Reg::Rdx, 0x10_0000);
        a.cmp_i(Reg::Rdx, 0);
        let skip = a.label();
        a.jcc(Cond::Eq, skip);
        a.alu_ri(AluOp::Add, Reg::Rsi, 1);
        a.bind(skip);
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn ooo_exploits_ilp() {
        let img = ilp_workload();
        let cfg = SimConfig::default();
        let scalar = simulate(Mode::Baseline(&img), &cfg, 1_000_000).unwrap();
        let wide = simulate_ooo(Mode::Baseline(&img), &cfg, OooConfig::default(), 1_000_000)
            .unwrap();
        assert!(
            wide.stats.ipc() > 1.8 * scalar.stats.ipc(),
            "ooo {} vs scalar {}",
            wide.stats.ipc(),
            scalar.stats.ipc()
        );
        assert!(wide.stats.ipc() <= 4.0 + 1e-9);
    }

    #[test]
    fn serial_chains_cap_ooo_gains() {
        let img = serial_workload();
        let cfg = SimConfig::default();
        let wide = simulate_ooo(Mode::Baseline(&img), &cfg, OooConfig::default(), 1_000_000)
            .unwrap();
        // The mul-latency chain limits IPC well below width.
        assert!(wide.stats.ipc() < 1.5, "ipc {}", wide.stats.ipc());
    }

    #[test]
    fn width_one_ooo_tracks_the_inorder_core() {
        let img = ilp_workload();
        let cfg = SimConfig::default();
        let narrow = simulate_ooo(
            Mode::Baseline(&img),
            &cfg,
            OooConfig { width: 1, rob_entries: 128 },
            1_000_000,
        )
        .unwrap();
        // Width-1 caps at IPC 1 regardless of ILP.
        assert!(narrow.stats.ipc() <= 1.0 + 1e-9);
        assert!(narrow.stats.ipc() > 0.5);
    }

    #[test]
    fn vcfr_overhead_stays_small_on_the_ooo_core() {
        let img = ilp_workload();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let base = simulate_ooo(Mode::Baseline(&img), &cfg, OooConfig::default(), 1_000_000)
            .unwrap();
        let naive =
            simulate_ooo(Mode::NaiveIlr(&rp), &cfg, OooConfig::default(), 1_000_000).unwrap();
        let vcfr = simulate_ooo(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            OooConfig::default(),
            1_000_000,
        )
        .unwrap();
        assert_eq!(base.outcome.output, vcfr.outcome.output);
        assert!(vcfr.stats.ipc() > 0.85 * base.stats.ipc());
        assert!(vcfr.stats.ipc() >= naive.stats.ipc());
    }

    #[test]
    fn rob_depth_matters_under_memory_latency() {
        // Pointer-chase-ish loads: a deeper window overlaps more misses.
        let mut a = Asm::new(0x1000);
        let buf = a.data_zeroed(1 << 16);
        a.mov_ri(Reg::Rbx, buf.0 as i64);
        a.mov_ri(Reg::Rcx, 3_000);
        a.mov_ri(Reg::Rdx, 0);
        let top = a.here();
        // Two independent strided loads per iteration.
        a.load_idx(Reg::Rax, Reg::Rbx, Reg::Rdx, 3, 0);
        a.load_idx(Reg::R8, Reg::Rbx, Reg::Rdx, 3, 8 * 1024);
        a.alu_ri(AluOp::Add, Reg::Rdx, 17);
        a.alu_ri(AluOp::And, Reg::Rdx, 0xfff);
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        let img = a.finish().unwrap();
        let cfg = SimConfig::default();
        let shallow = simulate_ooo(
            Mode::Baseline(&img),
            &cfg,
            OooConfig { width: 4, rob_entries: 4 },
            1_000_000,
        )
        .unwrap();
        let deep = simulate_ooo(
            Mode::Baseline(&img),
            &cfg,
            OooConfig { width: 4, rob_entries: 256 },
            1_000_000,
        )
        .unwrap();
        assert!(deep.stats.ipc() >= shallow.stats.ipc());
    }

    /// The redirect-drain regression (PR 6's fix, ported): a redirect
    /// landing behind or exactly on the fetch cycle contributes zero
    /// stall — never a wrapped subtraction — and only the cycles past the
    /// fetch point are charged.
    #[test]
    fn redirect_landing_on_or_behind_fetch_adds_no_stall() {
        let cfg = SimConfig::default();
        let img = ilp_workload();
        let mut e = OooEngine::new(&cfg, OooConfig::default(), Mode::Baseline(&img));
        e.fetch_cycle = 100;
        e.redirect_at = 90; // stale redirect behind fetch
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.fetch_cycle, 100);
        e.redirect_at = 100; // landing exactly on the fetch cycle
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 0);
        assert_eq!(e.fetch_cycle, 100);
        e.redirect_at = 130; // a genuine drain charges the gap
        e.drain_redirect();
        assert_eq!(e.redirect_stall, 30);
        assert_eq!(e.fetch_cycle, 130);
    }

    /// Mispredict-heavy runs now report their redirect cycles, and the
    /// front-end floor identity holds: the fetch clock absorbs fetch,
    /// redirect and rerand stalls serially.
    #[test]
    fn mispredicts_charge_redirect_stall_on_the_ooo_core() {
        let img = branchy_workload();
        let cfg = SimConfig::default();
        let out = simulate_ooo(Mode::Baseline(&img), &cfg, OooConfig::default(), 1_000_000)
            .unwrap();
        assert!(out.stats.branch.mispredictions > 100, "{:?}", out.stats.branch);
        assert!(out.stats.redirect_stall_cycles > 0);
        assert!(
            out.stats.cycles
                >= out.stats.fetch_stall_cycles
                    + out.stats.redirect_stall_cycles
                    + out.stats.rerand_stall_cycles,
            "front-end floor violated: {:?}",
            out.stats
        );
    }

    #[test]
    fn rerand_epochs_fire_on_the_ooo_core() {
        let img = ilp_workload();
        let cfg = SimConfig::builder()
            .rerand_epoch(Some(8_000))
            .drc_entries(Some(128))
            .build()
            .unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        // The baseline has no tables to swap: it runs without the epoch.
        let base_cfg = SimConfig::default();
        let base = simulate_ooo(Mode::Baseline(&img), &base_cfg, OooConfig::default(), 50_000)
            .unwrap();
        let vcfr = simulate_ooo(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            OooConfig::default(),
            50_000,
        )
        .unwrap();
        assert_eq!(base.outcome.output, vcfr.outcome.output, "swaps must stay transparent");
        assert!(vcfr.stats.rerand_epochs >= 3, "{:?}", vcfr.stats.rerand_epochs);
        assert!(vcfr.stats.rerand_stall_cycles > 0);
        assert!(vcfr.stats.cycles > base.stats.cycles, "the pause must cost cycles");
    }

    /// Serialise mid-run, restore, and finish: the restored engine must
    /// produce bit-identical statistics to the uninterrupted run.
    #[test]
    fn save_restore_roundtrip_is_bit_identical() {
        let img = branchy_workload();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(3)).unwrap();
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
        let split = 5_000u64;

        let run = |resume: bool| {
            let mut machine = Machine::new(&rp.original);
            let mut engine = OooEngine::new(&cfg, OooConfig::default(), mode);
            let mut saved: Option<Vec<u8>> = None;
            while let Some(info) = machine.step().unwrap() {
                engine.step(&info);
                if engine.instructions == split {
                    const MAGIC: [u8; 8] = *b"OOOTEST1";
                    let mut w = Writer::with_magic(MAGIC);
                    engine.save(&mut w);
                    saved = Some(w.into_bytes());
                    if resume {
                        let bytes = saved.clone().unwrap();
                        let mut r = Reader::with_magic(&bytes, MAGIC).unwrap();
                        engine = OooEngine::restore(&cfg, mode, &mut r).unwrap();
                        assert!(r.is_exhausted(), "trailing bytes after restore");
                    }
                }
            }
            (engine.stats_now(), saved.unwrap())
        };
        let (straight, bytes_a) = run(false);
        let (resumed, bytes_b) = run(true);
        assert_eq!(bytes_a, bytes_b, "save is deterministic");
        assert_eq!(straight, resumed, "resume diverged from the uninterrupted run");
    }
}
