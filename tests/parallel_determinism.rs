//! Guard: the parallel experiment matrix is bit-identical to the serial
//! path.
//!
//! The matrix fans out across worker threads (one job per app ×
//! configuration), so any hidden scheduling dependence — shared RNG
//! state, iteration-order-sensitive reassembly — would show up as a
//! diff between the five matrix specs run one after another and the
//! parallel results. Every statistic of every mode is compared through
//! its full `Debug` serialization.

use std::ops::ControlFlow;
use vcfr_bench::experiments as ex;
use vcfr_bench::shard_matrix;

#[test]
fn parallel_matrix_matches_serial_run_bit_for_bit() {
    let specs = shard_matrix(&["bzip2"], &ex::MODE_NAMES, Some(40_000), 1, 100_000).expect("valid");
    let stats: Vec<_> = specs
        .iter()
        .map(|spec| {
            let (w, layout) = spec.prepare().expect("the spec builds");
            let mut session = spec.session(&w.image, layout.as_ref()).expect("a valid spec");
            let out = spec.execute(&mut session, None, |_| ControlFlow::Continue(()));
            out.expect("runs").expect("finishes").output.stats
        })
        .collect();
    let serial = ex::AppResults {
        name: "bzip2",
        base: stats[0],
        naive: stats[1],
        vcfr512: stats[2],
        vcfr128: stats[3],
        vcfr64: stats[4],
    };
    for threads in [1, 4] {
        let (mut rows, _, _) = ex::matrix_over(&["bzip2"], Some(40_000), 1, threads);
        let parallel = rows.pop().expect("one app in, one row out");
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "serial vs {threads}-thread results diverge"
        );
    }
}

#[test]
fn matrix_over_is_thread_count_invariant() {
    let suite = ["bzip2", "hmmer"];
    let (one, _, _) = ex::matrix_over(&suite, Some(25_000), 1, 1);
    let (three, _, timing) = ex::matrix_over(&suite, Some(25_000), 1, 3);
    assert_eq!(format!("{one:?}"), format!("{three:?}"));
    // The timing layer records one run per (app, configuration) cell.
    assert_eq!(timing.runs.len(), suite.len() * ex::MODE_NAMES.len());
    assert!(timing.runs.iter().all(|r| r.wall_s >= 0.0 && r.instructions > 0));
}
