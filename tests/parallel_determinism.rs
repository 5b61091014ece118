//! Guard: the parallel experiment matrix is bit-identical to the serial
//! path.
//!
//! The matrix fans out across worker threads (one job per app ×
//! configuration), so any hidden scheduling dependence — shared RNG
//! state, iteration-order-sensitive reassembly — would show up as a
//! diff between the serial `run_app` results and the parallel ones.
//! Every statistic of every mode is compared through its full `Debug`
//! serialization.

use vcfr_bench::experiments as ex;
use vcfr_workloads::by_name;

#[test]
fn parallel_matrix_matches_serial_run_bit_for_bit() {
    let mut w = by_name("bzip2").expect("suite workload");
    w.max_insts = w.max_insts.min(40_000);
    let serial = ex::run_app(&w);
    for threads in [1, 4] {
        let (mut rows, _) = ex::matrix_over(std::slice::from_ref(&w), threads);
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
    let suite: Vec<_> = ["bzip2", "hmmer"]
        .iter()
        .map(|n| {
            let mut w = by_name(n).expect("suite workload");
            w.max_insts = w.max_insts.min(25_000);
            w
        })
        .collect();
    let (one, _) = ex::matrix_over(&suite, 1);
    let (three, timing) = ex::matrix_over(&suite, 3);
    assert_eq!(format!("{one:?}"), format!("{three:?}"));
    // The timing layer records one run per (app, configuration) cell.
    assert_eq!(timing.runs.len(), suite.len() * ex::MODE_NAMES.len());
    assert!(timing.runs.iter().all(|r| r.wall_s >= 0.0 && r.instructions > 0));
}
