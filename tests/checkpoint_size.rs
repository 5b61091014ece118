//! Checkpoints cost what a session's live state costs. A session that
//! has not run yet holds no cache line and no memory page of its own,
//! a serve-shaped job's snapshots stay small, and restoring one still
//! finishes with the uninterrupted run's manifest bytes.

use std::ops::ControlFlow;
use vcfr_bench::{ModeSpec, RunSpec};
use vcfr_obs::Json;
use vcfr_sim::{EngineKind, SessionOutcome};
use vcfr_workloads::SPEC_NAMES;

const KIB: usize = 1024;

/// The two columns a serve job runs.
const MODES: [ModeSpec; 2] = [ModeSpec::Base, ModeSpec::Vcfr { drc_entries: 128 }];

#[test]
fn fresh_sessions_checkpoint_no_line_and_no_page() {
    let kinds = [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 2 }];
    let mut largest = (0, String::new());
    for app in SPEC_NAMES {
        let (w, layout) = RunSpec::new(app).prepare().expect("the spec builds");
        for mode in MODES {
            for engine in kinds {
                let spec = RunSpec { mode, engine, ..RunSpec::new(app) };
                let session = spec.session(&w.image, layout.as_ref()).expect("valid spec");
                let len = session.checkpoint().len();
                if len > largest.0 {
                    largest = (len, format!("{app} {mode} {engine:?}"));
                }
            }
        }
    }
    // The caches, the memory beyond the image and the trace ring are
    // empty, so what remains is the predictor tables and the registers.
    assert!(largest.0 < 48 * KIB, "largest fresh checkpoint: {} B ({})", largest.0, largest.1);
}

#[test]
fn serve_shaped_checkpoints_stay_small_and_resume_byte_identically() {
    let mut sizes = Vec::new();
    for app in SPEC_NAMES {
        let (w, layout) = RunSpec::new(app).prepare().expect("the spec builds");
        for mode in MODES {
            let spec =
                RunSpec { mode, max_insts: 60_000, checkpoint_every: 6_000, ..RunSpec::new(app) };
            let session = || spec.session(&w.image, layout.as_ref()).expect("valid spec");
            let manifest = |out: &SessionOutcome| spec.manifest(out, Json::obj()).canonical_bytes();
            let straight = manifest(&session().run().expect("runs"));

            // The daemon's loop: a snapshot after every chunk that leaves
            // the run unfinished.
            let mut snaps = Vec::new();
            let out = spec
                .execute(&mut session(), None, |s| {
                    snaps.push(s.checkpoint());
                    ControlFlow::Continue(())
                })
                .expect("runs")
                .expect("finishes");
            assert_eq!(manifest(&out), straight, "{app} {mode}: snapshots changed the run");
            assert!(!snaps.is_empty(), "{app} {mode}: no mid-run snapshot");

            let out = spec
                .execute(&mut session(), Some(&snaps[snaps.len() / 2]), |_| {
                    ControlFlow::Continue(())
                })
                .expect("the snapshot restores and runs")
                .expect("finishes");
            assert_eq!(manifest(&out), straight, "{app} {mode}: the resumed run diverged");
            sizes.extend(snaps.iter().map(Vec::len));
        }
    }
    let mean = sizes.iter().sum::<usize>() / sizes.len();
    assert!(mean < 64 * KIB, "mean checkpoint {mean} B over {} snapshots", sizes.len());
}
