//! The entropy/security frontier: sweep the randomization parameter
//! space and measure, at each point, what the defender pays (slowdown
//! over the baseline machine), what the defender gains (fault-detection
//! coverage), and what the attacker keeps (empirical success probability
//! from the coverage-guided gadget-chain fuzzer).
//!
//! Every cell is a pure function of (workload, seed, parameter point),
//! so the campaign shards: `repro frontier --shard i/n` runs a point
//! subset, the per-node manifest trees merge byte-for-byte through
//! [`merge_manifest_trees`](crate::merge_manifest_trees), and
//! `vcfr report --frontier` renders the Pareto table from any merged
//! tree.

use crate::campaign::fault_plan_for;
use crate::experiments::{parallel_map, SEED};
use std::fmt::Write as _;
use vcfr_core::{DrcConfig, RandParams};
use vcfr_gadget::{fuzz_trial, seed_corpus, AttackSurface, FuzzConfig, TrialReport};
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{FaultStats, Mode, Session, SimConfig, SimStats};
use vcfr_workloads::Workload;

/// One point of the frontier sweep: the security-relevant randomization
/// geometry ([`RandParams`] is derived from it via [`FrontierPoint::params`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrontierPoint {
    /// log2 floor of the randomization-region span.
    pub entropy_bits: u32,
    /// Region span as a multiple of the text size.
    pub sparsity: u32,
}

impl FrontierPoint {
    /// The full parameter set at this point (default DRC geometry, no
    /// re-randomization — the sweep isolates layout entropy).
    pub fn params(&self) -> RandParams {
        RandParams {
            entropy_bits: self.entropy_bits,
            sparsity: self.sparsity,
            rerand_epoch: None,
            drc: DrcConfig::direct_mapped(128),
        }
    }

    /// The manifest mode name of this point (`frontier-e<bits>`).
    pub fn label(&self) -> String {
        format!("frontier-e{:02}", self.entropy_bits)
    }
}

/// The standard sweep: five entropy points at sparsity 2, spanning
/// 8 KiB to 16 MiB regions. Sparsity is held low so the span — and with
/// it the attacker's search space — is set by `entropy_bits` alone on
/// the compact workload binaries.
pub const FRONTIER_POINTS: [FrontierPoint; 5] = [
    FrontierPoint { entropy_bits: 13, sparsity: 2 },
    FrontierPoint { entropy_bits: 15, sparsity: 2 },
    FrontierPoint { entropy_bits: 17, sparsity: 2 },
    FrontierPoint { entropy_bits: 20, sparsity: 2 },
    FrontierPoint { entropy_bits: 24, sparsity: 2 },
];

/// The attacker budget of the full frontier campaign.
pub fn frontier_fuzz_config() -> FuzzConfig {
    FuzzConfig { seed: SEED, trials: 32, probes_per_trial: 256, exec_budget: 4096 }
}

/// Everything measured at one frontier point.
#[derive(Clone, Debug)]
pub struct FrontierRow {
    /// Application the point was measured on.
    pub app: &'static str,
    /// The parameter point.
    pub point: FrontierPoint,
    /// Randomization-region span the point produces for this app.
    pub span_bytes: u64,
    /// Fuzzing trials mounted.
    pub trials: u32,
    /// Trials that spawned a shell.
    pub successes: u32,
    /// Empirical attacker success probability (successes / trials).
    pub attack_success: f64,
    /// Mapped pages the fuzzer's coverage feedback leaked, summed over
    /// trials.
    pub pages_leaked: usize,
    /// VCFR cycles / baseline cycles at this point.
    pub slowdown: f64,
    /// Baseline cycles (denominator of the slowdown).
    pub base_cycles: u64,
    /// Fault-detection coverage of the faulted VCFR run.
    pub fault_coverage: f64,
    /// Aggregate fault counters of the faulted run.
    pub faults: FaultStats,
    /// Full statistics of the (unfaulted) VCFR run at this point.
    pub stats: SimStats,
}

/// The headline numbers of one frontier point — what the Pareto table
/// renders. `vcfr report --frontier` rebuilds these from manifests, so
/// the table never needs the full simulator statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierSummary {
    /// Application name.
    pub app: String,
    /// log2 floor of the randomization-region span.
    pub entropy_bits: u32,
    /// Randomization-region span in bytes.
    pub span_bytes: u64,
    /// Fuzzing trials that spawned a shell.
    pub successes: u32,
    /// Fuzzing trials mounted.
    pub trials: u32,
    /// Empirical attacker success probability.
    pub attack_success: f64,
    /// Mapped pages leaked to the fuzzer, summed over trials.
    pub pages_leaked: u64,
    /// VCFR cycles / baseline cycles.
    pub slowdown: f64,
    /// Fault-detection coverage of the faulted run.
    pub fault_coverage: f64,
}

impl FrontierRow {
    /// This row's headline numbers.
    pub fn summary(&self) -> FrontierSummary {
        FrontierSummary {
            app: self.app.to_string(),
            entropy_bits: self.point.entropy_bits,
            span_bytes: self.span_bytes,
            successes: self.successes,
            trials: self.trials,
            attack_success: self.attack_success,
            pages_leaked: self.pages_leaked as u64,
            slowdown: self.slowdown,
            fault_coverage: self.fault_coverage,
        }
    }
}

/// Splits `points` into `shards` round-robin chunks (shard `i` takes
/// points `i`, `i + shards`, …). Every shard list is non-overlapping and
/// their union is `points`; each node runs its shard and the manifest
/// trees merge conflict-free.
pub fn shard_frontier(points: &[FrontierPoint], shards: usize) -> Vec<Vec<FrontierPoint>> {
    let shards = shards.max(1);
    let mut out = vec![Vec::new(); shards];
    for (i, p) in points.iter().enumerate() {
        out[i % shards].push(*p);
    }
    out
}

/// Runs the frontier campaign for `w` over `points` on `threads`
/// workers: one baseline run, then per point a VCFR run (slowdown), a
/// faulted VCFR run (detection coverage), and `fz.trials` fuzzing trials
/// (attacker success). Row order follows `points` and every number is
/// independent of `threads`.
///
/// # Panics
///
/// Panics when a point cannot hold the program (its span is too small
/// for the scattered layout) or a simulator run fails — the standard
/// points are sized for the compact workload suite.
pub fn run_frontier(w: &Workload, points: &[FrontierPoint], fz: &FuzzConfig, threads: usize) -> Vec<FrontierRow> {
    // Attacker half: one (point, trial) grid, sharded flat so slow
    // trials of one point overlap with another point's.
    let surface = AttackSurface::scan(&w.image);
    let seeds = seed_corpus(&surface);
    let grid: Vec<(usize, u32)> =
        (0..points.len()).flat_map(|p| (0..fz.trials).map(move |t| (p, t))).collect();
    let trials: Vec<TrialReport> = parallel_map(grid, threads, |_, (p, t)| {
        fuzz_trial(&surface, &seeds, &points[p].params(), fz, t)
    });

    // Defender half: per point, a clean VCFR run and a faulted one.
    let base_cfg = SimConfig::default();
    let base = Session::new(Mode::Baseline(&w.image), &base_cfg, w.max_insts)
        .and_then(|mut s| s.run())
        .expect("baseline runs")
        .output
        .stats;
    let sims: Vec<(SimStats, FaultStats)> = parallel_map(points.to_vec(), threads, |_, p| {
        let params = p.params();
        let rp = randomize(&w.image, &RandomizeConfig::from_params(SEED, &params))
            .unwrap_or_else(|e| panic!("point {} cannot hold {}: {e}", p.label(), w.name));
        let cfg = SimConfig::builder().rand_params(Some(params)).build().expect("valid point");
        let mode = || Mode::Vcfr { program: &rp, drc: params.drc };
        let clean = Session::new(mode(), &cfg, w.max_insts)
            .and_then(|mut s| s.run())
            .expect("frontier run")
            .output
            .stats;
        let plan = fault_plan_for(w.name, w.max_insts);
        let faulted = Session::new(mode(), &cfg, w.max_insts)
            .map(|s| s.with_faults(&plan))
            .and_then(|mut s| s.run())
            .expect("faulted frontier run")
            .faults;
        (clean, faulted)
    });

    points
        .iter()
        .zip(sims)
        .enumerate()
        .map(|(pi, (point, (stats, faults)))| {
            let mine: Vec<&TrialReport> = trials
                .iter()
                .enumerate()
                .filter(|(gi, _)| gi / fz.trials as usize == pi)
                .map(|(_, t)| t)
                .collect();
            let successes = mine.iter().filter(|t| t.succeeded).count() as u32;
            FrontierRow {
                app: w.name,
                point: *point,
                span_bytes: u64::from(
                    point.params().span_bytes(w.image.text().bytes.len()),
                ),
                trials: fz.trials,
                successes,
                attack_success: if fz.trials == 0 {
                    0.0
                } else {
                    f64::from(successes) / f64::from(fz.trials)
                },
                pages_leaked: mine.iter().map(|t| t.pages_discovered).sum(),
                slowdown: stats.cycles as f64 / base.cycles.max(1) as f64,
                base_cycles: base.cycles,
                fault_coverage: faults.coverage(),
                faults,
                stats,
            }
        })
        .collect()
}

/// Whether `a` dominates `b` on the frontier's three objectives: no
/// worse on attacker success (lower), slowdown (lower), and
/// fault-detection coverage (higher), strictly better on at least one.
fn dominates(a: &FrontierSummary, b: &FrontierSummary) -> bool {
    let no_worse = a.attack_success <= b.attack_success
        && a.slowdown <= b.slowdown
        && a.fault_coverage >= b.fault_coverage;
    let better = a.attack_success < b.attack_success
        || a.slowdown < b.slowdown
        || a.fault_coverage > b.fault_coverage;
    no_worse && better
}

/// Renders the sweep as the Pareto table: one line per point, `*`
/// marking the Pareto-optimal (non-dominated) set over (attacker
/// success ↓, slowdown ↓, fault coverage ↑).
pub fn frontier_pareto_table(rows: &[FrontierSummary]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<24} {:>7} {:>9} {:>11} {:>7} {:>9} {:>12}  pareto",
        "point", "entropy", "span", "atk-success", "pages", "slowdown", "fault-cover"
    );
    for r in rows {
        let pareto = !rows.iter().any(|other| dominates(other, r));
        let _ = writeln!(
            s,
            "{:<24} {:>7} {:>9} {:>5}/{:<5} {:>7} {:>8.3}x {:>11.1}%  {}",
            format!("{}-frontier-e{:02}", r.app, r.entropy_bits),
            r.entropy_bits,
            format_span(r.span_bytes),
            r.successes,
            r.trials,
            r.pages_leaked,
            r.slowdown,
            100.0 * r.fault_coverage,
            if pareto { "*" } else { "" },
        );
    }
    s
}

fn format_span(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{} MiB", bytes >> 20)
    } else {
        format!("{} KiB", bytes >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifests::{build_frontier_manifests, frontier_summary_from_manifest};
    use vcfr_workloads::by_name;

    fn tiny_points() -> Vec<FrontierPoint> {
        vec![
            FrontierPoint { entropy_bits: 13, sparsity: 2 },
            FrontierPoint { entropy_bits: 17, sparsity: 2 },
        ]
    }

    fn tiny_fuzz() -> FuzzConfig {
        FuzzConfig { seed: SEED, trials: 2, probes_per_trial: 8, exec_budget: 1024 }
    }

    fn tiny_workload() -> Workload {
        let mut w = by_name("sjeng").expect("sjeng exists");
        w.max_insts = w.max_insts.min(30_000);
        w
    }

    #[test]
    fn frontier_is_deterministic_across_thread_counts() {
        let w = tiny_workload();
        let (points, fz) = (tiny_points(), tiny_fuzz());
        let rows = run_frontier(&w, &points, &fz, 1);
        let a = build_frontier_manifests(&rows, &fz, 1);
        let b = build_frontier_manifests(&run_frontier(&w, &points, &fz, 3), &fz, 3);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.canonical_bytes(), y.canonical_bytes(), "{}", x.file_name());
        }
        // `vcfr report --frontier` reads every headline number back.
        for (row, m) in rows.iter().zip(&a) {
            assert_eq!(frontier_summary_from_manifest(m), Some(row.summary()), "{}", m.file_name());
        }
    }

    #[test]
    fn span_grows_with_entropy_and_slowdown_stays_positive() {
        let w = tiny_workload();
        let rows = run_frontier(&w, &tiny_points(), &tiny_fuzz(), 2);
        assert!(rows[0].span_bytes < rows[1].span_bytes);
        assert!(rows.iter().all(|r| r.slowdown > 0.0));
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.attack_success)));
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.fault_coverage)));
    }

    #[test]
    fn shards_partition_the_points() {
        let shards = shard_frontier(&FRONTIER_POINTS, 2);
        assert_eq!(shards.len(), 2);
        let mut all: Vec<FrontierPoint> = shards.concat();
        all.sort_by_key(|p| p.entropy_bits);
        assert_eq!(all, FRONTIER_POINTS.to_vec());
        assert_eq!(shard_frontier(&FRONTIER_POINTS, 1)[0], FRONTIER_POINTS.to_vec());
    }

    #[test]
    fn pareto_marks_non_dominated_points() {
        let summary = |bits: u32, atk: f64, slow: f64, cover: f64| FrontierSummary {
            app: "sjeng".into(),
            entropy_bits: bits,
            span_bytes: 1 << bits,
            successes: (atk * 32.0) as u32,
            trials: 32,
            attack_success: atk,
            pages_leaked: 10,
            slowdown: slow,
            fault_coverage: cover,
        };
        // Point 1 dominates point 0; point 2 trades slowdown for security.
        let rows = vec![
            summary(13, 0.5, 2.0, 0.5),
            summary(15, 0.1, 1.5, 0.9),
            summary(24, 0.0, 1.8, 0.9),
        ];
        let table = frontier_pareto_table(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert!(!lines[1].trim_end().ends_with('*'), "dominated point marked: {table}");
        assert!(lines[2].trim_end().ends_with('*'), "frontier point unmarked: {table}");
        assert!(lines[3].trim_end().ends_with('*'), "tradeoff point unmarked: {table}");
    }
}
