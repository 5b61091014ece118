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

use crate::experiments::{parallel_map, randomize_workload, SEED};
use crate::run::RunSpec;
use std::fmt::Write as _;
use vcfr_sim::{ContainmentPolicy, FaultPlan, FaultStats, SimStats};
use vcfr_workloads::Workload;

/// Faults injected per (app, configuration) run.
pub const FAULTS_PER_RUN: usize = 96;

/// The two machines the campaign contrasts, in column order.
pub const CAMPAIGN_MODES: [&str; 2] = ["base", "vcfr128"];

/// One (application, configuration) campaign cell.
#[derive(Clone, Debug)]
pub struct CampaignCell {
    /// Application name.
    pub app: &'static str,
    /// Machine configuration (one of [`CAMPAIGN_MODES`]).
    pub mode: &'static str,
    /// Aggregate fault counters.
    pub faults: FaultStats,
    /// Full simulation statistics of the faulted run.
    pub stats: SimStats,
}

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

/// Runs the campaign over `suite` on `threads` workers: each app is
/// randomized once, then every (app, {base, vcfr128}) cell runs the same
/// per-app fault schedule as a faulted [`RunSpec`]. Results are in
/// (app-major, [`CAMPAIGN_MODES`]) order regardless of scheduling.
pub fn run_campaign(suite: &[Workload], threads: usize) -> Vec<CampaignCell> {
    let programs = parallel_map(suite.iter().collect(), threads, |_, w: &Workload| {
        randomize_workload(&w.image)
    });
    let cells: Vec<(usize, usize)> =
        (0..suite.len()).flat_map(|a| (0..CAMPAIGN_MODES.len()).map(move |m| (a, m))).collect();
    parallel_map(cells, threads, |_, (a, m)| {
        let w = &suite[a];
        let spec = RunSpec {
            mode: CAMPAIGN_MODES[m].parse().expect("campaign modes parse"),
            max_insts: w.max_insts,
            faults: true,
            ..RunSpec::new(w.name)
        };
        let outcome = spec
            .session(&w.image, Some(&programs[a]))
            .and_then(|mut s| s.run())
            .expect("campaign cell runs");
        CampaignCell {
            app: w.name,
            mode: CAMPAIGN_MODES[m],
            faults: outcome.faults,
            stats: outcome.output.stats,
        }
    })
}

/// Renders the campaign as the Figure-11-style detection-coverage table:
/// per app, faults injected and how each machine resolved them
/// (detected / silent / masked, plus coverage over consequential
/// faults).
pub fn coverage_table(cells: &[CampaignCell]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:>4}  {:>14} {:>14}  {:>14} {:>14}",
        "app", "inj", "base det/sil", "base cover", "vcfr det/sil", "vcfr cover"
    );
    let mut base_cov = Vec::new();
    let mut vcfr_cov = Vec::new();
    for pair in cells.chunks_exact(CAMPAIGN_MODES.len()) {
        let (b, v) = (&pair[0], &pair[1]);
        base_cov.push(b.faults.coverage());
        vcfr_cov.push(v.faults.coverage());
        let _ = writeln!(
            s,
            "{:<12} {:>4}  {:>7}/{:<6} {:>13.1}%  {:>7}/{:<6} {:>13.1}%",
            b.app,
            b.faults.injected,
            b.faults.detected(),
            b.faults.silent,
            100.0 * b.faults.coverage(),
            v.faults.detected(),
            v.faults.silent,
            100.0 * v.faults.coverage(),
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
    use vcfr_workloads::by_name;

    fn small_suite() -> Vec<Workload> {
        let mut w = by_name("bzip2").expect("bzip2 exists");
        w.max_insts = w.max_insts.min(50_000);
        vec![w]
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let suite = small_suite();
        let a = run_campaign(&suite, 1);
        let b = run_campaign(&suite, 2);
        assert_eq!(a.len(), CAMPAIGN_MODES.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.faults, y.faults);
            assert_eq!(x.stats.cycles, y.stats.cycles);
        }
    }

    #[test]
    fn vcfr_coverage_beats_baseline_on_the_small_suite() {
        let cells = run_campaign(&small_suite(), 2);
        let base = &cells[0];
        let vcfr = &cells[1];
        assert_eq!(base.mode, "base");
        assert_eq!(vcfr.mode, "vcfr128");
        assert_eq!(base.faults.injected, vcfr.faults.injected);
        assert!(base.faults.injected > 0);
        assert!(
            vcfr.faults.coverage() > base.faults.coverage(),
            "vcfr {} vs base {}",
            vcfr.faults.coverage(),
            base.faults.coverage()
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
