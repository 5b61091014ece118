//! One function per table/figure of the paper's evaluation.

use crate::modes::ModeSpec;
use crate::run::{run_specs, RunSpec, CHECKPOINT_EVERY};
use crate::shard::shard_matrix;
use std::time::Instant;
use vcfr_core::DrcConfig;
use vcfr_gadget::AttackSurface;
use vcfr_isa::Image;
use vcfr_obs::{Json, Manifest};
use vcfr_rewriter::{
    analyze_control_flow, disassemble, randomize, ControlFlowStats, RandomizeConfig,
    RandomizedProgram,
};
use vcfr_sim::{
    emulate, simulate, DrcBacking, EmulatorCostModel, EngineKind, Mode, MultiCoreOutput, Session,
    SessionOutcome, SimConfig, SimStats,
};
use vcfr_workloads::{by_name, fig2_suite, spec_suite, SPEC_NAMES};

pub use crate::pool::parallel_map;
pub use crate::{geomean, mean};

/// The randomization seed every experiment uses (results are
/// deterministic end to end).
pub const SEED: u64 = 2015;

/// All simulation results for one application.
#[derive(Clone, Debug)]
pub struct AppResults {
    /// Application name.
    pub name: &'static str,
    /// Baseline (no randomization).
    pub base: SimStats,
    /// Naive hardware ILR over the scattered layout.
    pub naive: SimStats,
    /// VCFR with a 512-entry DRC.
    pub vcfr512: SimStats,
    /// VCFR with a 128-entry DRC.
    pub vcfr128: SimStats,
    /// VCFR with a 64-entry DRC.
    pub vcfr64: SimStats,
}

/// Results for the whole SPEC-like suite.
pub type Matrix = Vec<AppResults>;

/// Randomizes a workload with the standard experiment configuration.
pub fn randomize_workload(image: &Image) -> RandomizedProgram {
    randomize(image, &RandomizeConfig::with_seed(SEED)).expect("workloads randomize")
}

/// The five machine configurations of the experiment matrix, in column
/// order.
pub const MODE_NAMES: [&str; 5] = ["base", "naive", "vcfr512", "vcfr128", "vcfr64"];

/// Interval samples taken per matrix run: each run is cut into this many
/// slices for the manifest's phase-behaviour view.
pub const SAMPLES_PER_RUN: u64 = 10;

/// Wall-clock measurement of one simulator run.
#[derive(Clone, Debug)]
pub struct RunTiming {
    /// Application name.
    pub app: String,
    /// Machine configuration (one of [`MODE_NAMES`]).
    pub mode: String,
    /// Instructions the run committed.
    pub instructions: u64,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// Simulated instructions per host second.
    pub insts_per_s: f64,
    /// Whether the superblock fast path was enabled (the matrix always
    /// runs with it on; equivalence is pinned by `superblock_equiv`).
    pub superblock: bool,
}

impl RunTiming {
    fn new(app: &str, mode: &str, instructions: u64, wall_s: f64, superblock: bool) -> RunTiming {
        RunTiming {
            app: app.to_string(),
            mode: mode.to_string(),
            instructions,
            wall_s,
            insts_per_s: instructions as f64 / wall_s.max(1e-9),
            superblock,
        }
    }
}

/// Timing of a whole experiment matrix.
#[derive(Clone, Debug)]
pub struct MatrixTiming {
    /// One record per (application, configuration) simulator run.
    pub runs: Vec<RunTiming>,
    /// Wall-clock seconds the preparation stage took: every workload
    /// build and randomization.
    pub randomize_s: f64,
    /// Wall-clock seconds for the whole matrix (prepare + simulate).
    pub wall_s: f64,
    /// Worker threads used.
    pub threads: usize,
}

/// Worker-thread count for the parallel experiment matrix: the
/// `RAYON_NUM_THREADS` environment variable when set (the conventional
/// knob for this kind of fan-out), otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs the matrix over `apps` × [`MODE_NAMES`] on `threads` workers:
/// the fleet's own cell list ([`shard_matrix`]) through `run_specs`.
/// `max_insts` of `None` uses each scale-`scale` workload's own budget.
/// Returns the figure rows, one manifest per cell (app-major, host block
/// `wall_s`/`insts_per_s`/`threads`) and the timing.
pub fn matrix_over(
    apps: &[&'static str],
    max_insts: Option<u64>,
    scale: u64,
    threads: usize,
) -> (Matrix, Vec<Manifest>, MatrixTiming) {
    matrix_over_observed(apps, max_insts, scale, threads, &|_| {})
}

/// [`matrix_over`] with a per-cell observer: `on_cell` fires from the
/// worker thread as each (app, configuration) run finishes, with that
/// run's [`RunTiming`]. The repro binary uses it to print live progress
/// lines for long matrices; the observer sees wall-clock data only, so
/// attaching it cannot perturb the simulated results.
pub fn matrix_over_observed(
    apps: &[&'static str],
    max_insts: Option<u64>,
    scale: u64,
    threads: usize,
    on_cell: &(dyn Fn(&RunTiming) + Sync),
) -> (Matrix, Vec<Manifest>, MatrixTiming) {
    let t_total = Instant::now();
    let threads = threads.max(1);
    let specs = shard_matrix(apps, &MODE_NAMES, max_insts, scale, CHECKPOINT_EVERY)
        .expect("matrix cells are valid");
    let timing = |spec: &RunSpec, out: &SessionOutcome, wall_s: f64| {
        let mode = spec.matrix_mode();
        RunTiming::new(&spec.workload, &mode, out.output.stats.instructions, wall_s, true)
    };
    let (outs, randomize_s) =
        run_specs(&specs, threads, |spec, out, wall_s| on_cell(&timing(spec, out, wall_s)))
            .expect("matrix cells run");

    let mut rows = Matrix::new();
    for (name, cell) in apps.iter().zip(outs.chunks_exact(MODE_NAMES.len())) {
        // Functional equivalence across every mode is part of the
        // harness: randomization must never change program semantics.
        for (out, _) in &cell[1..] {
            assert_eq!(cell[0].0.output.outcome.output, out.output.outcome.output, "{name}");
        }
        let stats = |m: usize| cell[m].0.output.stats;
        rows.push(AppResults {
            name,
            base: stats(0),
            naive: stats(1),
            vcfr512: stats(2),
            vcfr128: stats(3),
            vcfr64: stats(4),
        });
    }
    let (runs, manifests) = specs
        .iter()
        .zip(&outs)
        .map(|(spec, (out, wall_s))| {
            let run = timing(spec, out, *wall_s);
            let mut host = Json::obj();
            host.set("wall_s", Json::F64(run.wall_s));
            host.set("insts_per_s", Json::F64(run.insts_per_s));
            host.set("threads", Json::U64(threads as u64));
            (run, spec.manifest(out, host))
        })
        .unzip();
    let timing = MatrixTiming {
        runs,
        randomize_s,
        wall_s: t_total.elapsed().as_secs_f64(),
        threads,
    };
    (rows, manifests, timing)
}

/// Runs the full 11-application SPEC-like matrix (the expensive step all
/// performance figures share) on [`default_threads`] workers.
pub fn run_matrix() -> Matrix {
    matrix_over(&SPEC_NAMES, None, 1, default_threads()).0
}

/// Measures the superblock fast path on a purpose-built no-stall
/// program: one straight-line block of 400 register-only ALU
/// instructions per loop iteration, hot in the IL1 after the first
/// iteration, so cycle accounting is the only per-instruction work.
/// Returns the run timing with the fast path on and off (same program,
/// same budget) — the pair the `BENCH_repro.json` artefact records so
/// the ≥100M insts/s target stays auditable.
pub fn nostall_throughput() -> (RunTiming, RunTiming) {
    use vcfr_isa::{AluOp, Asm, Cond, Reg};
    const BODY: usize = 400;
    const LOOPS: i64 = 12_500;
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, LOOPS);
    let top = a.here();
    for k in 0..BODY {
        match k % 4 {
            0 => a.alu_ri(AluOp::Add, Reg::Rax, 3),
            1 => a.alu_ri(AluOp::Xor, Reg::Rdx, 0x55),
            2 => a.alu_rr(AluOp::Add, Reg::Rdx, Reg::Rax),
            _ => a.mov_rr(Reg::Rbx, Reg::Rdx),
        }
    }
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.emit_output(Reg::Rdx);
    a.halt();
    let image = a.finish().expect("no-stall program assembles");
    let budget = (BODY as u64 + 3) * (LOOPS as u64) + 16;

    let cfg = SimConfig::default();
    let run = |superblocks: bool| {
        let t = Instant::now();
        let out = Session::new(Mode::Baseline(&image), &cfg, budget)
            .map(|s| s.with_superblocks(superblocks))
            .and_then(|mut s| s.run())
            .expect("no-stall program runs");
        let instructions = out.output.stats.instructions;
        RunTiming::new("nostall", "base", instructions, t.elapsed().as_secs_f64(), superblocks)
    };
    (run(true), run(false))
}

// ---------------------------------------------------------------------
// Figure 2 — emulation slowdown
// ---------------------------------------------------------------------

/// One row of Figure 2.
#[derive(Clone, Debug)]
pub struct Fig2Row {
    /// Application name.
    pub name: &'static str,
    /// Host cycles per guest instruction under emulation.
    pub emulated_cpi: f64,
    /// Slowdown versus native execution of the same window.
    pub slowdown: f64,
}

/// Figure 2: performance decrease of instruction-level emulation versus
/// native execution (paper: hundreds of times).
pub fn fig2() -> Vec<Fig2Row> {
    let cfg = SimConfig::default();
    fig2_suite()
        .iter()
        .map(|w| {
            let native =
                simulate(Mode::Baseline(&w.image), &cfg, w.max_insts).expect("baseline runs");
            let emu = emulate(&w.image, &EmulatorCostModel::default(), w.max_insts)
                .expect("emulation runs");
            Fig2Row {
                name: w.name,
                emulated_cpi: emu.cycles_per_instruction(),
                slowdown: emu.slowdown_vs(native.stats.cycles),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3 — naive ILR cache impact
// ---------------------------------------------------------------------

/// One row of Figure 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Application name.
    pub name: &'static str,
    /// Baseline IL1 miss rate (percent).
    pub base_il1_pct: f64,
    /// Naive-ILR IL1 miss rate (percent).
    pub naive_il1_pct: f64,
    /// IL1 miss-rate ratio (naive / baseline). NOTE: the synthetic
    /// baselines are nearly miss-free, which inflates this ratio
    /// relative to the paper; read it together with the absolute rates.
    pub il1_miss_ratio: f64,
    /// Increase in useless-prefetch rate, percentage points.
    pub prefetch_useless_delta_pct: f64,
    /// Increase in L2 pressure (reads from the L1s), percent.
    pub l2_pressure_increase_pct: f64,
}

/// Figure 3: the impact of the naive approach on the L1 and L2 caches.
pub fn fig3(matrix: &Matrix) -> Vec<Fig3Row> {
    matrix
        .iter()
        .map(|r| {
            let base_rate = r.base.il1.miss_rate().max(1e-6);
            let naive_rate = r.naive.il1.miss_rate();
            let base_useless = r.base.il1.prefetch_useless_rate();
            let naive_useless = r.naive.il1.prefetch_useless_rate();
            let base_l2 = r.base.l2_reads_from_l1.max(1) as f64;
            let naive_l2 = r.naive.l2_reads_from_l1 as f64;
            Fig3Row {
                name: r.name,
                base_il1_pct: 100.0 * r.base.il1.miss_rate(),
                naive_il1_pct: 100.0 * naive_rate,
                il1_miss_ratio: naive_rate / base_rate,
                prefetch_useless_delta_pct: 100.0 * (naive_useless - base_useless),
                l2_pressure_increase_pct: 100.0 * (naive_l2 / base_l2 - 1.0),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4 — naive ILR IPC
// ---------------------------------------------------------------------

/// Figure 4: normalized IPC of straightforward hardware ILR (paper: mean
/// ≈ 0.61–0.66 of baseline).
pub fn fig4(matrix: &Matrix) -> Vec<(&'static str, f64)> {
    matrix.iter().map(|r| (r.name, r.naive.ipc() / r.base.ipc())).collect()
}

// ---------------------------------------------------------------------
// Table I — qualitative comparison
// ---------------------------------------------------------------------

/// Table I, reproduced programmatically from the three mode definitions.
pub fn table1() -> String {
    let rows = [
        ("Execution", "no randomization", "randomized control flow", "randomized control flow"),
        ("Instruction locality", "preserved", "destroyed", "preserved"),
        ("Instruction prefetch", "effective", "not effective", "effective"),
        ("Control flow diversity", "no diversity", "diversified", "diversified"),
    ];
    let mut s = String::new();
    s.push_str(&format!(
        "{:<24} | {:<18} | {:<26} | {:<26}\n",
        "", "No Randomization", "Naive Hardware ILR", "Our Approach (VCFR)"
    ));
    s.push_str(&"-".repeat(102));
    s.push('\n');
    for (k, a, b, c) in rows {
        s.push_str(&format!("{k:<24} | {a:<18} | {b:<26} | {c:<26}\n"));
    }
    s
}

// ---------------------------------------------------------------------
// Table II / Figure 9 — static control-flow statistics
// ---------------------------------------------------------------------

/// Table II: per-application static control-transfer counts.
pub fn table2() -> Vec<(&'static str, ControlFlowStats)> {
    spec_suite()
        .iter()
        .map(|w| {
            let d = disassemble(&w.image).expect("workloads disassemble");
            (w.name, analyze_control_flow(&w.image, &d))
        })
        .collect()
}

/// Figure 9: functions with and without `ret`, per application.
pub fn fig9() -> Vec<(&'static str, u64, u64)> {
    table2().into_iter().map(|(n, s)| (n, s.funcs_with_ret, s.funcs_without_ret)).collect()
}

// ---------------------------------------------------------------------
// Figure 11 / §V-B — gadget surface
// ---------------------------------------------------------------------

/// One row of Figure 11.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Application name.
    pub name: &'static str,
    /// Gadgets in the original binary.
    pub total_gadgets: usize,
    /// Percentage removed by randomization.
    pub removal_pct: f64,
    /// Payload templates assemblable before randomization.
    pub payloads_before: usize,
    /// Payload templates assemblable after.
    pub payloads_after: usize,
}

/// Figure 11: gadget removal (paper: ≈98% average; payloads assemblable
/// for every benchmark before, none after).
///
/// A small fail-over set is kept un-randomized (the library functions
/// whose addresses the conservative analysis could not prove rewritable —
/// here every 64th function symbol), matching the paper's residual
/// surface.
pub fn fig11() -> Vec<Fig11Row> {
    spec_suite()
        .iter()
        .map(|w| {
            let keep: Vec<String> = w
                .image
                .symbols
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 64 == 7)
                .map(|(_, s)| s.name.clone())
                .collect();
            let mut cfg = RandomizeConfig::with_seed(SEED);
            cfg.keep_unrandomized = keep;
            let rp = randomize(&w.image, &cfg).expect("workloads randomize");
            let c = AttackSurface::scan(&w.image).against(&rp);
            Fig11Row {
                name: w.name,
                total_gadgets: c.total_gadgets,
                removal_pct: c.removal_pct(),
                payloads_before: c.payloads_before,
                payloads_after: c.payloads_after,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 12–15 — VCFR performance, DRC behaviour, power
// ---------------------------------------------------------------------

/// Figure 12: IPC speedup of VCFR (128-entry DRC) over naive hardware ILR
/// (paper: mean 1.63×).
pub fn fig12(matrix: &Matrix) -> Vec<(&'static str, f64)> {
    matrix.iter().map(|r| (r.name, r.vcfr128.ipc() / r.naive.ipc())).collect()
}

/// Figure 13: normalized IPC under different DRC sizes (paper: ≥97.9% of
/// baseline even with 64 entries).
pub fn fig13(matrix: &Matrix) -> Vec<(&'static str, f64, f64, f64)> {
    matrix
        .iter()
        .map(|r| {
            let b = r.base.ipc();
            (r.name, r.vcfr512.ipc() / b, r.vcfr128.ipc() / b, r.vcfr64.ipc() / b)
        })
        .collect()
}

/// Figure 14: DRC miss rates at 512 and 64 entries (paper: 4.5% and
/// 20.6% average).
pub fn fig14(matrix: &Matrix) -> Vec<(&'static str, f64, f64)> {
    matrix
        .iter()
        .map(|r| {
            let m512 = r.vcfr512.drc.expect("vcfr stats").miss_rate();
            let m64 = r.vcfr64.drc.expect("vcfr stats").miss_rate();
            (r.name, 100.0 * m512, 100.0 * m64)
        })
        .collect()
}

/// Figure 15: DRC dynamic power overhead at 128 entries (paper: 0.18% of
/// CPU dynamic power on average).
pub fn fig15(matrix: &Matrix) -> Vec<(&'static str, f64)> {
    let cfg = SimConfig::default();
    matrix
        .iter()
        .map(|r| {
            let b = vcfr_power::analyze(&r.vcfr128, &cfg, Some(DrcConfig::direct_mapped(128)));
            (r.name, b.drc_overhead_pct())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablations beyond the paper (see DESIGN.md §6)
// ---------------------------------------------------------------------

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// What was varied.
    pub setting: String,
    /// Normalized IPC versus the unmodified baseline machine.
    pub normalized_ipc: f64,
    /// DRC miss rate (where applicable).
    pub drc_miss_pct: f64,
    /// Extra note (e.g. iTLB misses).
    pub note: String,
}

/// DRC design-space and system-level ablations on one representative
/// call-heavy application (`gcc`).
pub fn ablations() -> Vec<AblationRow> {
    let w = by_name("gcc").expect("gcc exists");
    let base_cfg = SimConfig::default();
    let rp = randomize_workload(&w.image);
    let base =
        simulate(Mode::Baseline(&w.image), &base_cfg, w.max_insts).expect("baseline runs");
    let base_ipc = base.stats.ipc();

    let mut rows = Vec::new();
    let mut push = |setting: String, stats: &SimStats, note: String| {
        rows.push(AblationRow {
            setting,
            normalized_ipc: stats.ipc() / base_ipc,
            drc_miss_pct: stats.drc.map(|d| 100.0 * d.miss_rate()).unwrap_or(0.0),
            note,
        });
    };

    // Associativity at fixed capacity (the paper argues direct-mapped
    // suffices).
    for (entries, ways) in [(128, 1), (128, 2), (128, 4)] {
        let out = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig { entries, ways } },
            &base_cfg,
            w.max_insts,
        )
        .expect("vcfr runs");
        push(format!("drc 128 entries, {ways}-way"), &out.stats, String::new());
    }

    // Backing store: shared L2 (paper) vs dedicated fixed-latency SRAM.
    for (name, backing) in [
        ("walks via shared L2 (paper)", DrcBacking::SharedL2),
        ("dedicated store, 12 cycles", DrcBacking::Dedicated { latency: 12 }),
        ("dedicated store, 30 cycles", DrcBacking::Dedicated { latency: 30 }),
    ] {
        let cfg = SimConfig { drc_backing: backing, ..base_cfg };
        let out = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            w.max_insts,
        )
        .expect("vcfr runs");
        push(format!("backing: {name}"), &out.stats, String::new());
    }

    // Context switches: flush the DRC periodically.
    for interval in [None, Some(100_000u64), Some(20_000u64)] {
        let cfg = SimConfig { drc_flush_interval: interval, ..base_cfg };
        let out = simulate(
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            &cfg,
            w.max_insts,
        )
        .expect("vcfr runs");
        let name = match interval {
            None => "no context switches (paper)".to_string(),
            Some(n) => format!("DRC flush every {n} insts"),
        };
        push(name, &out.stats, String::new());
    }

    // §IV-D page-confined randomization: how much of the naive-ILR pain
    // does confinement recover, and what happens to the iTLB?
    let full = simulate(Mode::NaiveIlr(&rp), &base_cfg, w.max_insts).expect("naive runs");
    let mut conf_cfg = RandomizeConfig::with_seed(SEED);
    conf_cfg.page_confined = true;
    let rp_conf = randomize(&w.image, &conf_cfg).expect("confined randomize");
    let confined =
        simulate(Mode::NaiveIlr(&rp_conf), &base_cfg, w.max_insts).expect("confined runs");
    push(
        "naive ILR, full scatter".into(),
        &full.stats,
        format!("iTLB misses {}", full.stats.itlb.misses),
    );
    push(
        "naive ILR, page-confined (§IV-D)".into(),
        &confined.stats,
        format!("iTLB misses {}", confined.stats.itlb.misses),
    );

    rows
}

/// §IV-A option 1 code-size study: expanding safely-randomizable calls
/// into `push; jmp` per workload.
pub fn call_expansion() -> Vec<(&'static str, usize, usize, f64)> {
    spec_suite()
        .iter()
        .map(|w| {
            let mut cfg = RandomizeConfig::with_seed(SEED);
            cfg.software_return_randomization = true;
            let rp = randomize(&w.image, &cfg).expect("workloads randomize");
            let text = w.image.text().bytes.len();
            let growth = 100.0 * rp.stats.expansion_bytes as f64 / text as f64;
            (w.name, rp.stats.software_expanded_calls, rp.stats.expansion_bytes, growth)
        })
        .collect()
}

/// Randomization entropy: bits of uncertainty per instruction position
/// (§V-C: "since randomization is done at instruction granularity, there
/// is a large randomization space").
pub fn entropy() -> Vec<(&'static str, f64)> {
    spec_suite()
        .iter()
        .map(|w| {
            let rp = randomize_workload(&w.image);
            let span = (rp.region.1 - rp.region.0) as f64;
            // Each instruction lands at any free byte of the region.
            ((w).name, span.log2())
        })
        .collect()
}

/// §IX future-work preview: the three machines on a 4-wide out-of-order
/// core, run as `ooo` specs through `run_specs` on `threads` workers.
/// Returns `(app, baseline IPC, naive normalized, vcfr normalized)`.
pub fn ooo_preview(threads: usize) -> Vec<(&'static str, f64, f64, f64)> {
    let specs: Vec<RunSpec> =
        shard_matrix(&SPEC_NAMES, &["base", "naive", "vcfr128"], None, 1, CHECKPOINT_EVERY)
            .expect("ooo cells are valid")
            .into_iter()
            .map(|spec| RunSpec { engine: EngineKind::Ooo, ..spec })
            .collect();
    let (outs, _) = run_specs(&specs, threads, |_, _, _| {}).expect("ooo cells run");
    SPEC_NAMES
        .iter()
        .zip(outs.chunks_exact(3))
        .map(|(name, cell)| {
            let ipc = |m: usize| cell[m].0.output.stats.ipc();
            (*name, ipc(0), ipc(1) / ipc(0), ipc(2) / ipc(0))
        })
        .collect()
}

/// Layout-sensitivity study: the paper evaluates one randomized layout
/// per binary; here each app is re-randomized with several seeds and the
/// headline metrics are reported as mean ± spread, showing how much the
/// conclusions depend on the particular layout drawn. Per app, one
/// `base` spec and a `naive` and a `vcfr128` spec per seed run through
/// `run_specs` on `threads` workers.
pub fn seed_variance(
    names: &[&str],
    seeds: &[u64],
    threads: usize,
) -> Vec<(String, f64, f64, f64, f64)> {
    let mut specs = Vec::new();
    for base in shard_matrix(names, &["base"], None, 1, CHECKPOINT_EVERY).expect("known apps") {
        specs.push(base.clone());
        for &seed in seeds {
            for mode in [ModeSpec::Naive, ModeSpec::vcfr_default()] {
                specs.push(RunSpec { mode, seed, ..base.clone() });
            }
        }
    }
    let (outs, _) = run_specs(&specs, threads, |_, _, _| {}).expect("variance cells run");
    names
        .iter()
        .zip(outs.chunks_exact(2 * seeds.len() + 1))
        .map(|(name, cell)| {
            let (base, runs) = cell.split_first().expect("one base run per app");
            let base_ipc = base.0.output.stats.ipc();
            let norm = |m: usize| -> Vec<f64> {
                runs.chunks_exact(2).map(|r| r[m].0.output.stats.ipc() / base_ipc).collect()
            };
            let (naive_norm, vcfr_norm) = (norm(0), norm(1));
            let spread = |v: &[f64]| {
                let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            };
            (
                name.to_string(),
                mean(naive_norm.iter().copied()),
                spread(&naive_norm),
                mean(vcfr_norm.iter().copied()),
                spread(&vcfr_norm),
            )
        })
        .collect()
}

/// Runs a heterogeneous two-core session (shared L2) through the
/// [`Session`] facade and returns the full per-core breakdown.
fn duo(modes: Vec<Mode>, cfg: &SimConfig, budget: u64) -> MultiCoreOutput {
    Session::new_heterogeneous(&modes, cfg, budget)
        .and_then(|mut s| s.run())
        .expect("multicore session runs")
        .multicore
        .expect("multicore sessions carry the per-core breakdown")
}

/// §IV-D multi-core demonstration: two cores over a shared L2, each
/// running a (differently) randomized program. Returns
/// `(pairing, core0 norm IPC, core1 norm IPC, shared-L2 miss rate %)`.
pub fn multicore_demo() -> Vec<(String, f64, f64, f64)> {
    let cfg = SimConfig { engine: EngineKind::Multicore { cores: 2 }, ..SimConfig::default() };
    let a = by_name("hmmer").expect("known");
    let b = by_name("h264ref").expect("known");
    let budget = 300_000;

    let solo = duo(vec![Mode::Baseline(&a.image), Mode::Baseline(&b.image)], &cfg, budget);
    let base0 = solo.per_core[0].ipc();
    let base1 = solo.per_core[1].ipc();

    let rp_a = randomize(&a.image, &RandomizeConfig::with_seed(SEED)).expect("randomizes");
    let rp_b =
        randomize(&b.image, &RandomizeConfig::with_seed(SEED + 1)).expect("randomizes");

    let mut rows = Vec::new();
    let vcfr = duo(
        vec![
            Mode::Vcfr { program: &rp_a, drc: DrcConfig::direct_mapped(128) },
            Mode::Vcfr { program: &rp_b, drc: DrcConfig::direct_mapped(128) },
        ],
        &cfg,
        budget,
    );
    rows.push((
        "VCFR + VCFR".to_string(),
        vcfr.per_core[0].ipc() / base0,
        vcfr.per_core[1].ipc() / base1,
        100.0 * vcfr.shared_l2.miss_rate(),
    ));
    let naive = duo(vec![Mode::NaiveIlr(&rp_a), Mode::NaiveIlr(&rp_b)], &cfg, budget);
    rows.push((
        "naive + naive".to_string(),
        naive.per_core[0].ipc() / base0,
        naive.per_core[1].ipc() / base1,
        100.0 * naive.shared_l2.miss_rate(),
    ));
    rows
}

/// Live-rerandomization epoch of the multicore matrix cells, in
/// committed instructions on the VCFR core.
pub const MULTICORE_RERAND_EPOCH: u64 = 25_000;

/// One cell of the `repro multicore` rerand matrix: a VCFR core swapping
/// its live layout every [`MULTICORE_RERAND_EPOCH`] committed
/// instructions while a baseline sibling streams through the shared L2.
#[derive(Clone, Debug)]
pub struct MulticoreCell {
    /// The app the re-randomizing VCFR core (core 0) runs.
    pub vcfr_app: &'static str,
    /// The app the baseline sibling (core 1) runs.
    pub base_app: &'static str,
    /// Per-core instruction budget.
    pub budget: u64,
    /// The full two-core breakdown.
    pub output: MultiCoreOutput,
}

/// Runs the multicore rerand cells on `threads` workers. The results
/// are a pure function of the pairings (the event loop is deterministic
/// and each cell is independent), so manifests built from them are
/// byte-identical across worker-thread counts.
pub fn multicore_rerand_cells(threads: usize, budget: u64) -> Vec<MulticoreCell> {
    let pairings: Vec<(&'static str, &'static str)> =
        vec![("hmmer", "bzip2"), ("h264ref", "hmmer")];
    let cfg = SimConfig::builder()
        .engine(EngineKind::Multicore { cores: 2 })
        .rerand_epoch(Some(MULTICORE_RERAND_EPOCH))
        .drc_entries(Some(128))
        .build()
        .expect("the multicore rerand config is valid");
    parallel_map(pairings, threads, |_, (vcfr_app, base_app)| {
        let v = by_name(vcfr_app).expect("known workload");
        let b = by_name(base_app).expect("known workload");
        let rp = randomize_workload(&v.image);
        let output = duo(
            vec![
                Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
                Mode::Baseline(&b.image),
            ],
            &cfg,
            budget,
        );
        MulticoreCell { vcfr_app, base_app, budget, output }
    })
}
