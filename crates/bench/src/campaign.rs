//! The dependability half of the evaluation: a seeded fault-injection
//! campaign over the workload suite, contrasting the baseline machine
//! (no mediation hardware) with VCFR (DRC + tables + bitmap + visibility
//! bit) — a Figure-11-style table of injected vs. detected vs.
//! silently-corrupting faults.
//!
//! Everything is a pure function of (workload, campaign seed,
//! configuration): the per-app fault schedule is derived from the app
//! *name*, so adding or reordering apps never reshuffles another app's
//! faults, and the resulting manifests are byte-identical across worker
//! thread counts.

use crate::experiments::SEED;
use crate::run::{run_specs, RunSpec, CHECKPOINT_EVERY};
use crate::shard::shard_campaign;
use std::fmt::Write as _;
use vcfr_sim::{ContainmentPolicy, FaultPlan, SessionOutcome};

/// Faults injected per (app, configuration) run.
pub const FAULTS_PER_RUN: usize = 96;

/// The two machines the campaign contrasts, in column order.
pub const CAMPAIGN_MODES: [&str; 2] = ["base", "vcfr128"];

/// The deterministic fault schedule for one application: seeded from the
/// campaign seed and the app name (FNV-style fold), spread over the
/// run's instruction budget.
pub fn fault_plan_for(app: &str, max_insts: u64) -> FaultPlan {
    let mut h = SEED ^ 0xcbf2_9ce4_8422_2325;
    for b in app.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut plan = FaultPlan::generate(h, FAULTS_PER_RUN, max_insts);
    plan.policy = ContainmentPolicy::Recover;
    plan
}

/// Runs the campaign over `apps` on `threads` workers: the fleet's own
/// cell list ([`shard_campaign`]) through `run_specs`, so every
/// (app, {base, vcfr128}) cell runs the same per-app fault schedule.
/// `max_insts` of `None` uses each workload's own budget. Results are in
/// (app-major, [`CAMPAIGN_MODES`]) order regardless of scheduling.
pub fn run_campaign(
    apps: &[&str],
    max_insts: Option<u64>,
    threads: usize,
) -> Vec<(RunSpec, SessionOutcome)> {
    let specs =
        shard_campaign(apps, max_insts, CHECKPOINT_EVERY).expect("campaign cells are valid");
    let (outs, _) = run_specs(&specs, threads, |_, _, _| {}).expect("campaign cells run");
    specs.into_iter().zip(outs.into_iter().map(|(out, _)| out)).collect()
}

/// Renders the campaign as the Figure-11-style detection-coverage table:
/// per app, faults injected and how each machine resolved them
/// (detected / silent / masked, plus coverage over consequential
/// faults).
pub fn coverage_table(cells: &[(RunSpec, SessionOutcome)]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>4}  {:>14} {:>14}  {:>14} {:>14}",
        "app", "inj", "base det/sil", "base cover", "vcfr det/sil", "vcfr cover"
    );
    let mut base_cov = Vec::new();
    let mut vcfr_cov = Vec::new();
    for pair in cells.chunks_exact(CAMPAIGN_MODES.len()) {
        let (app, b, v) = (&pair[0].0.workload, &pair[0].1.faults, &pair[1].1.faults);
        base_cov.push(b.coverage());
        vcfr_cov.push(v.coverage());
        let _ = writeln!(
            s,
            "{:<12} {:>4}  {:>7}/{:<6} {:>13.1}%  {:>7}/{:<6} {:>13.1}%",
            app,
            b.injected,
            b.detected(),
            b.silent,
            100.0 * b.coverage(),
            v.detected(),
            v.silent,
            100.0 * v.coverage(),
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let _ = writeln!(
        s,
        "{:<12} {:>4}  {:>14} {:>13.1}%  {:>14} {:>13.1}%",
        "mean",
        "",
        "",
        100.0 * mean(&base_cov),
        "",
        100.0 * mean(&vcfr_cov),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let a = run_campaign(&["bzip2"], Some(50_000), 1);
        let b = run_campaign(&["bzip2"], Some(50_000), 2);
        assert_eq!(a.len(), CAMPAIGN_MODES.len());
        for ((x_spec, x), (y_spec, y)) in a.iter().zip(&b) {
            assert_eq!(x_spec, y_spec);
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.output.stats.cycles, y.output.stats.cycles);
        }
    }

    #[test]
    fn vcfr_coverage_beats_baseline_on_the_small_suite() {
        let cells = run_campaign(&["bzip2"], Some(50_000), 2);
        let (base, vcfr) = (&cells[0], &cells[1]);
        assert_eq!(base.0.matrix_mode(), "base");
        assert_eq!(vcfr.0.matrix_mode(), "vcfr128");
        let (base, vcfr) = (&base.1.faults, &vcfr.1.faults);
        assert_eq!(base.injected, vcfr.injected);
        assert!(base.injected > 0);
        assert!(
            vcfr.coverage() > base.coverage(),
            "vcfr {} vs base {}",
            vcfr.coverage(),
            base.coverage()
        );
        let table = coverage_table(&cells);
        assert!(table.contains("bzip2"));
        assert!(table.contains("mean"));
    }

    #[test]
    fn fault_plans_depend_on_the_app_name_only() {
        let a = fault_plan_for("bzip2", 50_000);
        let b = fault_plan_for("bzip2", 50_000);
        let c = fault_plan_for("gcc", 50_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
