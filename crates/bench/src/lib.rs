//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation over the synthetic workload suite.
//!
//! The `repro` binary prints the results; the criterion benches and the
//! integration tests reuse the same functions. See `EXPERIMENTS.md` for
//! the paper-vs-measured record.

#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod frontier;
pub mod manifests;
pub mod modes;
pub mod pool;
pub mod run;
pub mod shard;

#[cfg(test)]
mod tests;

pub use campaign::{coverage_table, fault_plan_for, run_campaign, CAMPAIGN_MODES, FAULTS_PER_RUN};
pub use experiments::{
    default_threads, fig11, fig12, fig13, fig14, fig15, fig2, fig3, fig4, fig9, matrix_over,
    matrix_over_observed, run_matrix, table1, table2, AppResults, Fig11Row, Fig2Row, Fig3Row,
    Matrix, MatrixTiming, RunTiming, MODE_NAMES,
};
pub use frontier::{
    frontier_fuzz_config, frontier_pareto_table, run_frontier, shard_frontier, FrontierPoint,
    FrontierRow, FrontierSummary, FRONTIER_POINTS,
};
pub use manifests::{
    bench_record, build_engine_manifest, build_fault_manifest, build_frontier_manifest,
    build_frontier_manifests, frontier_summary_from_manifest, rand_params_json, write_manifests,
};
pub use modes::{ModeParseError, ModeSpec, DEFAULT_DRC_ENTRIES};
pub use pool::{parallel_map, PoolFull, PoolSnapshot, WorkerPool, WorkerStat};
pub use run::{RunSpec, SpecError};
pub use shard::{
    merge_manifest_bytes, merge_manifest_trees, shard_campaign, shard_matrix, write_atomic,
    MergeOutcome, MergeReport,
};

/// Geometric mean of an iterator of positive values.
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Arithmetic mean.
pub fn mean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod mean_tests {
    use super::*;

    #[test]
    fn geomean_of_powers() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    fn mean_basics() {
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
    }
}
