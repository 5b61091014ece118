//! Differential suite for the engine-generic [`Session`]: the three
//! [`EngineKind`]s behind the same facade must agree wherever their
//! semantics overlap.
//!
//! - A 1-core multicore session is *bit-identical* to the plain
//!   in-order session (the shared level is private, the port charges
//!   no same-core wait), faulted or not.
//! - The OoO and multicore engines are bit-deterministic: two fresh
//!   runs of the same spec produce identical stats, outcomes, and
//!   mid-run checkpoint bytes.
//! - A mid-run checkpoint round-trips through a fresh session on every
//!   engine kind; a checkpoint from one kind is rejected by a session
//!   of another (the kind is part of the context fingerprint).
//! - Shared-L2 port contention is zero without a sibling and positive
//!   with one, and stays inside the audit's containment bound; every
//!   L2 and DRAM access lands on the one shared level.

use vcfr_core::DrcConfig;
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{
    CheckpointError, ContainmentPolicy, EngineKind, FaultPlan, Mode, Session, SessionOutcome,
    SessionStatus, SimConfig, SimError, VcfrError,
};
use vcfr_workloads::Workload;

const SEED: u64 = 2015;

/// A capped workload so every test finishes quickly in debug builds.
fn workload() -> Workload {
    let mut w = vcfr_workloads::by_name("bzip2").expect("bzip2 exists");
    w.max_insts = w.max_insts.min(60_000);
    w
}

fn config(engine: EngineKind) -> SimConfig {
    SimConfig { engine, ..SimConfig::default() }
}

/// Runs `mode` on `engine` to completion, sampling ten intervals and
/// grabbing the checkpoint bytes at a mid-run boundary.
fn run(mode: Mode, engine: EngineKind, max_insts: u64) -> (SessionOutcome, Vec<u8>) {
    let cfg = config(engine);
    let mut s = Session::new(mode, &cfg, max_insts)
        .expect("session builds")
        .with_sampling((max_insts / 10).max(1));
    let mid = match s.run_for(max_insts / 3) {
        Ok(SessionStatus::Running) => s.checkpoint(),
        Ok(SessionStatus::Done(_)) => Vec::new(),
        Err(e) => panic!("{engine:?}: {e}"),
    };
    (s.run().expect("session finishes"), mid)
}

#[test]
fn one_core_multicore_session_matches_the_inorder_session() {
    let w = workload();
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    let modes: [(&str, Mode); 3] = [
        ("baseline", Mode::Baseline(&w.image)),
        ("naive", Mode::NaiveIlr(&rp)),
        ("vcfr", Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) }),
    ];
    for (name, mode) in modes {
        let (inorder, _) = run(mode, EngineKind::InOrder, w.max_insts);
        let (mc1, _) = run(mode, EngineKind::Multicore { cores: 1 }, w.max_insts);
        assert_eq!(inorder.output.stats, mc1.output.stats, "{name}: stats diverge");
        assert_eq!(inorder.output.outcome, mc1.output.outcome, "{name}: outcome diverges");
        assert_eq!(inorder.samples, mc1.samples, "{name}: samples diverge");
        let mc = mc1.multicore.expect("multicore sessions carry the breakdown");
        assert_eq!(mc.per_core.len(), 1, "{name}");
        assert_eq!(mc.stats.contention_stall_cycles, 0, "{name}: solo core paid contention");
    }

    // Faulted: the one core commits every instruction, so it takes every
    // fault and applies it exactly as the in-order engine does.
    let (_, vcfr) = modes[2];
    let faulted = |engine, plan: &FaultPlan| {
        Session::new(vcfr, &config(engine), w.max_insts)
            .expect("session builds")
            .with_sampling((w.max_insts / 10).max(1))
            .with_faults(plan)
            .run()
    };
    let mut plan = FaultPlan::generate(SEED, 64, w.max_insts);
    let inorder = faulted(EngineKind::InOrder, &plan).expect("recover runs to the end");
    let mc1 = faulted(EngineKind::Multicore { cores: 1 }, &plan).expect("recover runs");
    assert_eq!(inorder.output.stats, mc1.output.stats, "faulted stats diverge");
    assert_eq!(inorder.faults, mc1.faults, "fault counters diverge");
    assert_eq!(inorder.records, mc1.records, "fault records diverge");
    assert!(inorder.faults.contained > 0, "the plan holds a sticky table fault");

    plan.policy = ContainmentPolicy::Halt;
    let halt = |engine| match faulted(engine, &plan) {
        Err(VcfrError::Sim(e @ SimError::Fault { .. })) => e,
        other => panic!("{engine:?}: expected a halt, got {other:?}"),
    };
    assert_eq!(halt(EngineKind::InOrder), halt(EngineKind::Multicore { cores: 1 }));
}

#[test]
fn ooo_and_multicore_runs_are_bit_deterministic() {
    let w = workload();
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    for engine in [EngineKind::Ooo, EngineKind::Multicore { cores: 2 }] {
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let (a, ckpt_a) = run(mode(), engine, w.max_insts);
        let (b, ckpt_b) = run(mode(), engine, w.max_insts);
        assert_eq!(a.output.stats, b.output.stats, "{engine:?}: stats diverge");
        assert_eq!(a.output.outcome, b.output.outcome, "{engine:?}: outcome diverges");
        assert_eq!(a.samples, b.samples, "{engine:?}: samples diverge");
        assert!(!ckpt_a.is_empty(), "{engine:?}: run finished before the checkpoint");
        assert_eq!(ckpt_a, ckpt_b, "{engine:?}: checkpoint bytes diverge");
    }
}

#[test]
fn checkpoints_round_trip_on_every_engine_kind() {
    let w = workload();
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    for engine in [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 2 }] {
        let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let (reference, mid) = run(mode(), engine, w.max_insts);
        assert!(!mid.is_empty(), "{engine:?}: run finished before the checkpoint");

        let cfg = config(engine);
        let mut resumed = Session::new(mode(), &cfg, w.max_insts)
            .expect("session builds")
            .with_sampling((w.max_insts / 10).max(1));
        resumed.restore(&mid).unwrap_or_else(|e| panic!("{engine:?}: restore failed: {e}"));
        let out = resumed.run().expect("resumed session finishes");
        assert_eq!(reference.output.stats, out.output.stats, "{engine:?}: stats diverge");
        assert_eq!(
            reference.output.outcome, out.output.outcome,
            "{engine:?}: outcome diverges"
        );
        assert_eq!(reference.samples, out.samples, "{engine:?}: samples diverge");
    }
}

#[test]
fn a_checkpoint_from_one_kind_is_rejected_by_another() {
    let w = workload();
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    let mode = || Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
    let (_, inorder_ckpt) = run(mode(), EngineKind::InOrder, w.max_insts);
    assert!(!inorder_ckpt.is_empty());
    for engine in [EngineKind::Ooo, EngineKind::Multicore { cores: 2 }] {
        let cfg = config(engine);
        let mut s = Session::new(mode(), &cfg, w.max_insts).expect("session builds");
        match s.restore(&inorder_ckpt) {
            Err(VcfrError::Checkpoint(CheckpointError::ContextMismatch)) => {}
            other => panic!("{engine:?}: expected a context mismatch, got {other:?}"),
        }
    }
}

#[test]
fn contention_appears_only_with_a_sibling_and_stays_contained() {
    let w = workload();
    let solo = run(Mode::Baseline(&w.image), EngineKind::Multicore { cores: 1 }, w.max_insts)
        .0
        .multicore
        .expect("breakdown");
    assert_eq!(solo.stats.contention_stall_cycles, 0, "solo core paid shared-port wait");

    let pair = run(Mode::Baseline(&w.image), EngineKind::Multicore { cores: 2 }, w.max_insts)
        .0
        .multicore
        .expect("breakdown");
    assert!(
        pair.stats.contention_stall_cycles > 0,
        "two cores over one L2 port never collided"
    );
    // The new identity: contention is only ever charged under memory
    // stalls, so it stays inside the audit's containment bound.
    let a = pair.stats.accounting();
    assert!(a.contention <= a.fetch_stall + a.load_stall + a.drc_walk, "containment violated");
    assert!(pair.stats.accounting().audit().passed(), "aggregate audit failed");

    // Every shared-level access reaches the one shared L2/DRAM, never a
    // core's own placeholder: plainly, across epoch swaps, and through
    // the emergency swaps a fault campaign triggers between steps.
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    let vcfr = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
    let engine = EngineKind::Multicore { cores: 2 };
    let plan = FaultPlan::generate(7, 96, w.max_insts);
    let runs = [
        ("plain", config(engine), None),
        ("rerand", SimConfig { rerand_epoch: Some(25_000), ..config(engine) }, None),
        ("faulted", config(engine), Some(&plan)),
    ];
    for (name, cfg, plan) in runs {
        let mut s = Session::new(vcfr, &cfg, w.max_insts).expect("session builds");
        if let Some(plan) = plan {
            s = s.with_faults(plan);
        }
        let out = s.run().expect("session finishes");
        let mc = out.multicore.expect("breakdown");
        assert!(mc.shared_l2.accesses > 0, "{name}: the shared L2 saw no access");
        for (i, core) in mc.per_core.iter().enumerate() {
            assert_eq!(core.l2.accesses, 0, "{name}: core {i} reached its own L2");
            assert_eq!(core.dram.accesses, 0, "{name}: core {i} reached its own DRAM");
        }
        if name == "rerand" {
            assert!(out.output.stats.rerand_epochs > 0, "no epoch swap");
        }
        if name == "faulted" {
            assert!(out.faults.contained > 0, "no emergency swap between steps");
        }
    }
}
