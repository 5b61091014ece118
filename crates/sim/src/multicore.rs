//! Multi-core demonstration (§IV-D): "since our approach only randomizes
//! instruction address space, which contains read-only data, it can be
//! applied to multi-core or multi-processor based systems with ease."
//!
//! N cores, each a full in-order [`Engine`] with private L1s, TLBs,
//! predictors and VCFR mediation unit (DRC, stack hygiene,
//! re-randomization state), share the
//! unified L2 and DRAM behind a single-ported [`SharedPort`]: a demand
//! access (fetch-line miss, data-load miss, table walk) issued while the
//! port is busy with a *different* core's request queues, and the wait is
//! charged both to the delayed access's stall category and to the core's
//! `sim.stall.contention` counter. Same-core requests pipeline freely, so
//! a one-core multicore run is bit-identical to the single-core engine.
//!
//! Rather than reimplementing the pipeline, each step hands the one
//! boxed [`SharedLevel`] (L2, DRAM, port) to the stepping core's
//! [`crate::MemoryHierarchy`] by swapping two pointers, and takes it
//! back after the step. The core's own level waits in the machine's slot
//! meanwhile, untouched. The cores inherit every in-order engine
//! feature (redirect-stall accounting, epoch re-randomization, fault
//! injection, trace rings, checkpointing) by construction.
//!
//! Cores advance under a deterministic global event loop: always step
//! the live core with the smallest local time (`max(backend, fetch)`),
//! ties broken by core index, so shared-resource state is touched in a
//! reproducible global order regardless of host threading. A fault
//! scheduled at aggregate instruction n lands on the core that committed
//! instruction n.

use crate::cache::{Cache, CacheStats};
use crate::config::{EngineKind, SimConfig};
use crate::dram::Dram;
use crate::engine::{Engine, SimError};
use crate::error::VcfrError;
use crate::hierarchy::{SharedLevel, SharedPort};
use crate::mediation::Mode;
use crate::session::{outcome_of, Session};
use crate::stats::SimStats;
use std::mem;
use vcfr_isa::wire::{Reader, WireError, Writer};
use vcfr_isa::{Machine, RunOutcome};

/// Results of a multi-core run.
#[derive(Clone, Debug)]
pub struct MultiCoreOutput {
    /// Statistics per core (L2/DRAM counters are shared across cores and
    /// reported in [`MultiCoreOutput::shared_l2`] and the aggregate, not
    /// per core).
    pub per_core: Vec<SimStats>,
    /// The shared L2's counters.
    pub shared_l2: CacheStats,
    /// Wall-clock makespan (the slowest core's finish time).
    pub cycles: u64,
    /// Aggregate statistics: field-wise sum over the cores (so the
    /// in-order cycle-accounting identities, summed, still hold —
    /// `cycles` here is total core-cycles, not wall clock) with the
    /// shared L2/DRAM counted once.
    pub stats: SimStats,
    /// Each core's architectural outcome.
    pub outcomes: Vec<RunOutcome>,
}

/// N in-order cores over a shared L2/DRAM, stepped one instruction at a
/// time by the deterministic event loop ([`MultiCore::step_next`]).
pub(crate) struct MultiCore<'a> {
    machines: Vec<Machine>,
    engines: Vec<Engine<'a>>,
    done: Vec<bool>,
    /// The machine's one shared level between steps (the stepping
    /// core's own placeholder while it steps).
    shared: Box<SharedLevel>,
    /// Instructions committed across all cores.
    committed: u64,
    max_insts: u64,
    /// The core that committed the latest instruction. Never
    /// checkpointed: a fault always follows a step of the same session.
    last: usize,
}

impl<'a> MultiCore<'a> {
    pub(crate) fn new(modes: &[Mode<'a>], cfg: &SimConfig, max_insts: u64) -> MultiCore<'a> {
        let machines = modes.iter().map(|m| Machine::new(m.image_ref())).collect();
        let engines = modes
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let mut e = Engine::new(cfg, m);
                e.hier.core_id = i as u8;
                e
            })
            .collect();
        MultiCore {
            machines,
            engines,
            done: vec![false; modes.len()],
            shared: Box::new(SharedLevel::new(cfg)),
            committed: 0,
            max_insts,
            last: 0,
        }
    }

    /// Swaps the shared level with core `i`'s own (self-inverse: call
    /// before and after the step).
    fn swap_shared(&mut self, i: usize) {
        mem::swap(&mut self.engines[i].hier.shared, &mut self.shared);
    }

    fn step_core(&mut self, i: usize) -> Result<(), SimError> {
        let info = match self.machines[i].step() {
            Ok(Some(info)) => info,
            Ok(None) => {
                self.done[i] = true;
                return Ok(());
            }
            Err(e) => return Err(self.engines[i].fault(e)),
        };
        self.engines[i].step(&info);
        self.committed += 1;
        self.last = i;
        Ok(())
    }

    /// Advances the live core with the smallest local time by one
    /// instruction. Returns `false` when every core has finished (or hit
    /// its instruction budget).
    ///
    /// # Errors
    ///
    /// [`SimError::Exec`] when the stepped core's program faults.
    pub(crate) fn step_next(&mut self) -> Result<bool, SimError> {
        // One pass: the first live core with the strictly smallest time
        // wins, so ties go to the lowest index.
        let mut next: Option<(u64, usize)> = None;
        for (i, e) in self.engines.iter().enumerate() {
            if self.done[i] || e.instructions >= self.max_insts {
                continue;
            }
            let t = e.backend_time.max(e.fetch_time);
            if next.is_none_or(|(best, _)| t < best) {
                next = Some((t, i));
            }
        }
        let Some((_, i)) = next else { return Ok(false) };
        self.swap_shared(i);
        let result = self.step_core(i);
        self.swap_shared(i);
        result?;
        Ok(true)
    }

    /// The engine of the core that committed the latest instruction,
    /// which takes a fault due at that aggregate count.
    pub(crate) fn committing_core(&mut self) -> &mut Engine<'a> {
        &mut self.engines[self.last]
    }

    /// Total instructions committed across all cores (the Session's
    /// sampling/progress clock for multicore runs).
    pub(crate) fn instructions(&self) -> u64 {
        self.committed
    }

    /// Per-core statistics (L2/DRAM zeroed: those live in the shared
    /// level and are reported once).
    pub(crate) fn per_core_stats(&self) -> Vec<SimStats> {
        self.engines.iter().map(Engine::stats_now).collect()
    }

    /// The aggregate counters at this point of the run (the Session's
    /// sampling/progress snapshot for multicore runs).
    pub(crate) fn stats_now(&self) -> SimStats {
        aggregate(&self.per_core_stats(), &self.shared)
    }

    /// Core 0's architectural outcome as it stands (the outcome a
    /// multicore session reports).
    pub(crate) fn first_outcome(&self) -> RunOutcome {
        outcome_of(&self.machines[0])
    }

    /// The finished run, packaged: per-core stats, shared counters, the
    /// wall-clock makespan, the aggregate, and each core's outcome.
    pub(crate) fn output(&self) -> MultiCoreOutput {
        let per_core = self.per_core_stats();
        let cycles = per_core.iter().map(|s| s.cycles).max().unwrap_or(0);
        let stats = aggregate(&per_core, &self.shared);
        let outcomes = self.machines.iter().map(outcome_of).collect();
        MultiCoreOutput { per_core, shared_l2: self.shared.l2.stats(), cycles, stats, outcomes }
    }

    /// Serialises every core (machine + engine + done flag) and the
    /// shared level, in core order (checkpoint support). `modes` are
    /// the ones the run was built with.
    pub(crate) fn save(&self, modes: &[Mode<'a>], w: &mut Writer) {
        w.u64(self.machines.len() as u64);
        for (i, mode) in modes.iter().enumerate() {
            self.machines[i].save(mode.image_ref(), w);
            self.engines[i].save(w);
            w.u8(u8::from(self.done[i]));
        }
        self.shared.l2.save(w);
        self.shared.dram.save(w);
        self.shared.port.save(w);
    }

    /// Rebuilds a multicore run from [`MultiCore::save`] output. `modes`
    /// and `cfg` must match the saved run (the checkpoint envelope's
    /// context fingerprint enforces this before the bytes get here).
    pub(crate) fn restore(
        modes: &[Mode<'a>],
        cfg: &SimConfig,
        max_insts: u64,
        r: &mut Reader<'_>,
    ) -> Result<MultiCore<'a>, WireError> {
        let n = r.u64()?;
        if n as usize != modes.len() {
            return Err(WireError::LengthOutOfRange { len: n });
        }
        let mut machines = Vec::with_capacity(modes.len());
        let mut engines = Vec::with_capacity(modes.len());
        let mut done = Vec::with_capacity(modes.len());
        for &m in modes {
            machines.push(Machine::restore(m.image_ref(), r)?);
            engines.push(Engine::restore(cfg, m, r)?);
            done.push(match r.u8()? {
                0 => false,
                1 => true,
                tag => return Err(WireError::BadTag { tag }),
            });
        }
        let shared = Box::new(SharedLevel {
            l2: Cache::restore(cfg.l2, r)?,
            dram: Dram::restore(cfg.dram, r)?,
            port: SharedPort::restore(r)?,
        });
        let committed = engines.iter().map(|e| e.instructions).sum();
        Ok(MultiCore { machines, engines, done, shared, committed, max_insts, last: 0 })
    }
}

/// Field-wise sum of the per-core statistics, with the shared L2/DRAM
/// counted once. `cycles` is total core-cycles (Σ per-core), so the
/// summed in-order accounting identities still audit cleanly.
fn aggregate(per_core: &[SimStats], shared: &SharedLevel) -> SimStats {
    let mut agg = SimStats::default();
    for s in per_core {
        agg.add(s);
    }
    agg.l2 = shared.l2.stats();
    agg.dram = shared.dram.stats();
    agg
}

/// Runs several programs concurrently on private in-order cores over a
/// shared L2 + DRAM, up to `max_insts` instructions per core (whatever
/// engine `cfg` names). One [`Session`] call.
///
/// # Errors
///
/// [`VcfrError::Sim`] if any core's program faults;
/// [`VcfrError::Config`] when `cfg` does not fit the modes.
///
/// # Example
///
/// See the `multicore` module tests.
pub fn simulate_multicore(
    modes: &[Mode<'_>],
    cfg: &SimConfig,
    max_insts: u64,
) -> Result<MultiCoreOutput, VcfrError> {
    let cores = u32::try_from(modes.len()).unwrap_or(u32::MAX);
    let cfg = SimConfig { engine: EngineKind::Multicore { cores }, ..*cfg };
    let out = Session::new_heterogeneous(modes, &cfg, max_insts)?.run()?;
    Ok(out.multicore.expect("a multicore session reports its per-core results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use vcfr_core::DrcConfig;
    use vcfr_rewriter::{randomize, RandomizeConfig};

    fn program() -> vcfr_isa::Image {
        vcfr_workloads_stub()
    }

    // A local stand-in so this crate does not depend on vcfr-workloads:
    // a call-heavy loop with data accesses.
    fn vcfr_workloads_stub() -> vcfr_isa::Image {
        use vcfr_isa::{AluOp, Asm, Cond, Reg};
        let mut a = Asm::new(0x1000);
        let buf = a.data_zeroed(4096);
        a.mov_ri(Reg::Rbx, buf.0 as i64);
        a.mov_ri(Reg::Rcx, 2_000);
        let top = a.here();
        a.call_named("work");
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.emit_output(Reg::Rax);
        a.halt();
        a.func("work");
        a.load(Reg::Rax, Reg::Rbx, 0);
        a.alu_ri(AluOp::Add, Reg::Rax, 1);
        a.store(Reg::Rbx, 0, Reg::Rax);
        a.ret();
        a.finish().unwrap()
    }

    /// A wide-striding load loop that misses in the private L1s and
    /// keeps the shared port busy.
    fn memory_workload() -> vcfr_isa::Image {
        use vcfr_isa::{AluOp, Asm, Cond, Reg};
        let mut a = Asm::new(0x1000);
        let buf = a.data_zeroed(1 << 16);
        a.mov_ri(Reg::Rbx, buf.0 as i64);
        a.mov_ri(Reg::Rcx, 4_000);
        a.mov_ri(Reg::Rdx, 0);
        let top = a.here();
        a.load_idx(Reg::Rax, Reg::Rbx, Reg::Rdx, 3, 0);
        a.alu_ri(AluOp::Add, Reg::Rdx, 251);
        a.alu_ri(AluOp::And, Reg::Rdx, 0x1fff);
        a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
        a.cmp_i(Reg::Rcx, 0);
        a.jcc(Cond::Ne, top);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn two_baseline_cores_both_finish_correctly() {
        let img = program();
        let cfg = SimConfig::default();
        let out = simulate_multicore(
            &[Mode::Baseline(&img), Mode::Baseline(&img)],
            &cfg,
            1_000_000,
        )
        .unwrap();
        assert_eq!(out.per_core.len(), 2);
        for s in &out.per_core {
            assert!(s.instructions > 10_000);
            assert!(s.ipc() > 0.5);
        }
        assert!(out.shared_l2.accesses > 0);
        assert_eq!(out.stats.instructions, out.per_core[0].instructions * 2);
        assert_eq!(out.outcomes[0].output, out.outcomes[1].output);
    }

    #[test]
    fn two_vcfr_cores_share_the_l2_with_small_overhead() {
        let img = program();
        let cfg = SimConfig::default();
        let rp1 = randomize(&img, &RandomizeConfig::with_seed(1)).unwrap();
        let rp2 = randomize(&img, &RandomizeConfig::with_seed(2)).unwrap();
        let solo = simulate_multicore(
            &[Mode::Baseline(&img), Mode::Baseline(&img)],
            &cfg,
            500_000,
        )
        .unwrap();
        let vcfr = simulate_multicore(
            &[
                Mode::Vcfr { program: &rp1, drc: DrcConfig::direct_mapped(128) },
                Mode::Vcfr { program: &rp2, drc: DrcConfig::direct_mapped(128) },
            ],
            &cfg,
            500_000,
        )
        .unwrap();
        for (b, v) in solo.per_core.iter().zip(&vcfr.per_core) {
            assert!(
                v.ipc() > 0.9 * b.ipc(),
                "vcfr core too slow: {} vs {}",
                v.ipc(),
                b.ipc()
            );
            assert!(v.drc.unwrap().lookups > 0);
        }
    }

    #[test]
    fn cores_can_run_different_modes() {
        let img = program();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(3)).unwrap();
        let out = simulate_multicore(
            &[Mode::Baseline(&img), Mode::NaiveIlr(&rp)],
            &cfg,
            200_000,
        )
        .unwrap();
        // The naive core suffers; the baseline core shares the L2 but
        // keeps most of its performance.
        assert!(out.per_core[1].ipc() <= out.per_core[0].ipc());
        assert!(out.cycles >= out.per_core[0].cycles);
    }

    /// The one-core equivalence anchor: a single-core "multicore" run is
    /// bit-identical to the plain in-order engine — the shared port is
    /// invisible without a sibling, so the swap discipline provably adds
    /// nothing.
    #[test]
    fn one_core_multicore_matches_the_inorder_engine_exactly() {
        let img = program();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(7)).unwrap();
        for mode in [
            Mode::Baseline(&img),
            Mode::NaiveIlr(&rp),
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
        ] {
            let solo = simulate(mode, &cfg, 100_000).unwrap();
            let multi = simulate_multicore(&[mode], &cfg, 100_000).unwrap();
            assert_eq!(multi.stats, solo.stats, "one-core aggregate diverged");
            assert_eq!(multi.cycles, solo.stats.cycles);
            assert_eq!(multi.outcomes[0].output, solo.outcome.output);
            assert_eq!(multi.stats.contention_stall_cycles, 0);
        }
    }

    /// Cross-core queueing at the shared port is charged to contention —
    /// and stays contained in the access categories it delayed.
    #[test]
    fn sibling_cores_pay_contention_at_the_shared_port() {
        let img = memory_workload();
        let cfg = SimConfig::default();
        let duo = simulate_multicore(
            &[Mode::Baseline(&img), Mode::Baseline(&img)],
            &cfg,
            200_000,
        )
        .unwrap();
        assert!(
            duo.stats.contention_stall_cycles > 0,
            "two memory-bound cores never queued: {:?}",
            duo.stats
        );
        // Containment identity: every contention cycle delayed exactly
        // one fetch, load, or walk access.
        assert!(
            duo.stats.contention_stall_cycles
                <= duo.stats.fetch_stall_cycles
                    + duo.stats.load_stall_cycles
                    + duo.stats.drc_walk_cycles,
            "contention not contained: {:?}",
            duo.stats
        );
        // A lone core on the same workload never waits for itself.
        let solo = simulate_multicore(&[Mode::Baseline(&img)], &cfg, 200_000).unwrap();
        assert_eq!(solo.stats.contention_stall_cycles, 0);
    }

    /// The redirect-stall regression (PR 6's in-order fix, now inherited
    /// by the multicore cores): mispredict-heavy runs report redirect
    /// cycles, and the per-core floor identity still holds — a wrapped
    /// subtraction would blow both up by orders of magnitude.
    #[test]
    fn multicore_cores_track_redirect_stall_without_underflow() {
        let img = program();
        let cfg = SimConfig::default();
        let out = simulate_multicore(
            &[Mode::Baseline(&img), Mode::Baseline(&img)],
            &cfg,
            200_000,
        )
        .unwrap();
        for s in &out.per_core {
            assert!(s.redirect_stall_cycles > 0, "redirects untracked: {s:?}");
            assert!(
                s.redirect_stall_cycles < s.cycles,
                "redirect stall exceeds wall clock (underflow?): {s:?}"
            );
            assert!(
                s.cycles >= s.busy_cycles() + s.load_stall_cycles + s.rerand_stall_cycles,
                "floor identity violated: {s:?}"
            );
        }
    }

    /// Epoch re-randomization fires on the VCFR core while the sibling
    /// baseline core streams on, unaffected except through shared-L2
    /// timing.
    #[test]
    fn rerand_fires_on_one_core_while_the_sibling_streams() {
        let img = program();
        let cfg = SimConfig::builder()
            .rerand_epoch(Some(4_000))
            .drc_entries(Some(128))
            .build()
            .unwrap();
        let rp = randomize(&img, &RandomizeConfig::with_seed(5)).unwrap();
        let out = simulate_multicore(
            &[
                Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
                Mode::Baseline(&img),
            ],
            &cfg,
            100_000,
        )
        .unwrap();
        assert!(out.per_core[0].rerand_epochs >= 3, "{:?}", out.per_core[0].rerand_epochs);
        assert!(out.per_core[0].rerand_stall_cycles > 0);
        assert_eq!(out.per_core[1].rerand_epochs, 0, "baseline core must not swap");
        assert_eq!(out.per_core[1].rerand_stall_cycles, 0);
        // Both cores still compute the right answers.
        assert_eq!(out.outcomes[0].output, out.outcomes[1].output);
    }

    /// Serialise mid-run, restore, and finish: the restored fleet must be
    /// bit-identical to the uninterrupted one.
    #[test]
    fn save_restore_roundtrip_is_bit_identical() {
        let img = program();
        let cfg = SimConfig::default();
        let rp = randomize(&img, &RandomizeConfig::with_seed(9)).unwrap();
        let modes =
            [Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) }, Mode::Baseline(&img)];
        let split = 20_000u64;
        const MAGIC: [u8; 8] = *b"MCORTST1";

        let run = |resume: bool| {
            let mut mc = MultiCore::new(&modes, &cfg, 100_000);
            let mut saved: Option<Vec<u8>> = None;
            loop {
                if saved.is_none() && mc.instructions() >= split {
                    let mut w = Writer::with_magic(MAGIC);
                    mc.save(&modes, &mut w);
                    saved = Some(w.into_bytes());
                    if resume {
                        let bytes = saved.clone().unwrap();
                        let mut r = Reader::with_magic(&bytes, MAGIC).unwrap();
                        mc = MultiCore::restore(&modes, &cfg, 100_000, &mut r).unwrap();
                        assert!(r.is_exhausted(), "trailing bytes after restore");
                    }
                }
                if !mc.step_next().unwrap() {
                    break;
                }
            }
            (mc.output(), saved.unwrap())
        };
        let (straight, bytes_a) = run(false);
        let (resumed, bytes_b) = run(true);
        assert_eq!(bytes_a, bytes_b, "save is deterministic");
        assert_eq!(straight.stats, resumed.stats, "resume diverged");
        assert_eq!(straight.per_core, resumed.per_core);
        assert_eq!(straight.cycles, resumed.cycles);
    }
}
