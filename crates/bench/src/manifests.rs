//! Per-run manifest construction: one `vcfr-obs` manifest per
//! (application, configuration) cell of the experiment matrix, written
//! to `results/manifests/` by the `repro` binary and consumed by
//! `vcfr report`.
//!
//! Everything except the volatile `host` block is a pure function of
//! (workload, seed, machine configuration), so the canonical byte form
//! of every manifest is identical across worker-thread counts.

use crate::campaign::FAULTS_PER_RUN;
use crate::experiments::{MatrixTiming, MulticoreCell, MULTICORE_RERAND_EPOCH, SEED};
use crate::frontier::{FrontierRow, FrontierSummary};
use std::io;
use std::path::Path;
use vcfr_gadget::FuzzConfig;
use vcfr_isa::wire::Counters;
use vcfr_obs::{fingerprint, BenchRecord, BenchRun, Json, Manifest, Snapshot};
use vcfr_sim::{EngineKind, IntervalSample, SimConfig, SimStats};

/// DRC entries per matrix column (`None` for the non-VCFR machines),
/// read out of the typed [`ModeSpec`] vocabulary.
fn drc_entries(mode: &str) -> Option<u64> {
    mode.parse::<crate::ModeSpec>().ok().and_then(|m| m.drc_entries()).map(|n| n as u64)
}

/// The `rand` sub-object of a manifest `config` block: the
/// [`RandParams`] point a frontier run was measured at.
///
/// [`RandParams`]: vcfr_core::RandParams
pub fn rand_params_json(p: &vcfr_core::RandParams) -> Json {
    let mut j = Json::obj();
    j.set("entropy_bits", Json::U64(p.entropy_bits as u64));
    j.set("sparsity", Json::U64(p.sparsity as u64));
    match p.rerand_epoch {
        Some(e) => j.set("rerand_epoch", Json::U64(e)),
        None => j.set("rerand_epoch", Json::Null),
    };
    j.set("drc_entries", Json::U64(p.drc.entries as u64));
    j.set("drc_ways", Json::U64(p.drc.ways as u64));
    j
}

/// The manifest `config` block: the standard matrix configuration plus a
/// fingerprint that changes when any machine parameter, the mode, or the
/// seed does.
fn config_json(mode: &str) -> Json {
    let cfg = SimConfig::default();
    let mut j = Json::obj();
    j.set("fingerprint", Json::Str(fingerprint(&format!("{cfg:?} mode={mode} seed={SEED}"))));
    j.set("seed", Json::U64(SEED));
    j.set("freq_ghz", Json::F64(cfg.freq_ghz));
    j.set("il1_bytes", Json::U64(cfg.il1.size_bytes as u64));
    j.set("dl1_bytes", Json::U64(cfg.dl1.size_bytes as u64));
    j.set("l2_bytes", Json::U64(cfg.l2.size_bytes as u64));
    match drc_entries(mode) {
        Some(n) => j.set("drc_entries", Json::U64(n)),
        None => j.set("drc_entries", Json::Null),
    };
    j
}

/// One interval sample as a manifest array element.
fn sample_json(s: &IntervalSample) -> Json {
    let mut j = Json::obj();
    j.set("first_inst", Json::U64(s.first_inst));
    j.set("instructions", Json::U64(s.instructions));
    j.set("cycles", Json::U64(s.cycles));
    j.set("ipc", Json::F64(s.ipc));
    j.set("il1_miss_rate", Json::F64(s.il1_miss_rate));
    j.set("drc_miss_rate", Json::F64(s.drc_miss_rate));
    j
}

/// The manifest `derived` block: the headline per-run metrics the
/// report renders without re-deriving from raw counters.
fn derived_json(stats: &SimStats) -> Json {
    let mut j = Json::obj();
    j.set("ipc", Json::F64(stats.ipc()));
    j.set("il1_miss_rate", Json::F64(stats.il1.miss_rate()));
    j.set("dl1_miss_rate", Json::F64(stats.dl1.miss_rate()));
    j.set("branch_mispredict_rate", Json::F64(stats.branch.mispredict_rate()));
    j.set(
        "drc_miss_rate",
        match stats.drc {
            Some(d) => Json::F64(d.miss_rate()),
            None => Json::Null,
        },
    );
    j
}

/// The manifest `audit` block: the cycle-accounting identity terms plus
/// the verdict at the default tolerance of the identity set that matches
/// the engine that produced `stats` ([`SimStats::audit`]).
fn audit_json(engine: EngineKind, stats: &SimStats) -> Json {
    let report = stats.audit(engine);
    let mut j = stats.accounting().to_json();
    j.set("tolerance", Json::F64(report.tolerance));
    j.set("passed", Json::Bool(report.passed()));
    j
}

/// Builds the manifest for one run of any [`EngineKind`], with the
/// `audit` block computed by the identity set that matches the engine.
pub fn build_engine_manifest(
    app: &str,
    mode: &str,
    engine: EngineKind,
    stats: &SimStats,
    samples: &[IntervalSample],
    host: Json,
) -> Manifest {
    let mut m = Manifest::new(app, mode);
    m.set_config(config_json(mode));
    m.set_counters(&stats.snapshot());
    m.set_derived(derived_json(stats));
    m.set_audit(audit_json(engine, stats));
    m.set_samples(samples.iter().map(sample_json).collect());
    m.set_host(host);
    m
}

/// Writes each manifest to `dir` under its conventional file name,
/// creating the directory; returns how many were written.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_manifests(dir: &Path, manifests: &[Manifest]) -> io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    for m in manifests {
        std::fs::write(dir.join(m.file_name()), m.to_string_pretty())?;
    }
    Ok(manifests.len())
}

/// The manifest `config` block of a fault-campaign cell: the matrix
/// configuration plus the campaign parameters (fault count, policy),
/// all folded into the fingerprint.
fn fault_config_json(mode: &str) -> Json {
    let mut j = config_json(mode);
    j.set("faults_per_run", Json::U64(FAULTS_PER_RUN as u64));
    j.set("containment_policy", Json::Str("recover".into()));
    j.set(
        "fingerprint",
        Json::Str(fingerprint(&format!(
            "faults mode={mode} seed={SEED} count={FAULTS_PER_RUN} policy=recover"
        ))),
    );
    j
}

/// Builds the manifest for one fault-campaign cell: the standard
/// `sim.*` counters plus the `fault.*` counters, detection coverage in
/// the `derived` block, and `engine`'s cycle-accounting audit (faulted
/// runs stay auditable — recovery charges are ordinary stall cycles).
/// `mode` is the matrix mode, engine-prefixed off the in-order engine
/// (`base`, `vcfr128`, `ooo-vcfr128`, …); the manifest mode gets the
/// `faults-` prefix.
pub fn build_fault_manifest(
    app: &str,
    mode: &str,
    engine: EngineKind,
    f: &vcfr_sim::FaultStats,
    stats: &SimStats,
    host: Json,
) -> Manifest {
    let mut m = Manifest::new(app, &format!("faults-{mode}"));
    m.set_config(fault_config_json(mode));
    let mut counters = stats.snapshot().counters;
    let mut tally = *f;
    counters.extend(tally.named().into_iter().map(|(name, v)| (format!("fault.{name}"), v)));
    m.set_counters(&Snapshot::from_counters(counters));
    let mut d = derived_json(stats);
    d.set("fault_coverage", Json::F64(f.coverage()));
    d.set("fault_detected", Json::U64(f.detected()));
    m.set_derived(d);
    m.set_audit(audit_json(engine, stats));
    m.set_host(host);
    m
}

/// The manifest `config` block of a frontier point: the machine
/// configuration, the [`RandParams`](vcfr_core::RandParams) point (as
/// the `rand` sub-object), and the attacker budget — all folded into the
/// fingerprint.
fn frontier_config_json(row: &FrontierRow, fz: &FuzzConfig) -> Json {
    let cfg = SimConfig::default();
    let params = row.point.params();
    let mode = row.point.label();
    let mut j = Json::obj();
    j.set(
        "fingerprint",
        Json::Str(fingerprint(&format!(
            "{cfg:?} mode={mode} seed={SEED} rand={params:?} fuzz={fz:?}"
        ))),
    );
    j.set("seed", Json::U64(SEED));
    j.set("rand", rand_params_json(&params));
    j.set("drc_entries", Json::U64(params.drc.entries as u64));
    j.set("fuzz_trials", Json::U64(u64::from(fz.trials)));
    j.set("fuzz_probes_per_trial", Json::U64(u64::from(fz.probes_per_trial)));
    j.set("fuzz_exec_budget", Json::U64(fz.exec_budget));
    j
}

/// Builds the manifest of one frontier point: the standard `sim.*`
/// counters of the clean VCFR run, the fault counters of the faulted
/// run, and the three frontier objectives in the `derived` block.
pub fn build_frontier_manifest(row: &FrontierRow, fz: &FuzzConfig, host: Json) -> Manifest {
    let mut m = Manifest::new(row.app, &row.point.label());
    m.set_config(frontier_config_json(row, fz));
    let mut counters = row.stats.snapshot().counters;
    counters.extend([
        ("fault.injected".to_string(), row.faults.injected),
        ("fault.silent".to_string(), row.faults.silent),
        ("fault.detected".to_string(), row.faults.detected()),
        ("attack.trials".to_string(), u64::from(row.trials)),
        ("attack.successes".to_string(), u64::from(row.successes)),
        ("attack.pages_leaked".to_string(), row.pages_leaked as u64),
    ]);
    m.set_counters(&Snapshot::from_counters(counters));
    let mut d = derived_json(&row.stats);
    d.set("span_bytes", Json::U64(row.span_bytes));
    d.set("attack_success", Json::F64(row.attack_success));
    d.set("slowdown", Json::F64(row.slowdown));
    d.set("base_cycles", Json::U64(row.base_cycles));
    d.set("fault_coverage", Json::F64(row.fault_coverage));
    m.set_derived(d);
    m.set_audit(audit_json(EngineKind::InOrder, &row.stats));
    m.set_host(host);
    m
}

/// One manifest per frontier row (host block carries the thread count
/// only; the canonical bytes are thread-independent).
pub fn build_frontier_manifests(
    rows: &[FrontierRow],
    fz: &FuzzConfig,
    threads: usize,
) -> Vec<Manifest> {
    rows.iter()
        .map(|r| {
            let mut host = Json::obj();
            host.set("threads", Json::U64(threads as u64));
            build_frontier_manifest(r, fz, host)
        })
        .collect()
}

/// Reads a frontier point's headline numbers back out of its manifest
/// (`None` for manifests of any other campaign) — how `vcfr report
/// --frontier` rebuilds the Pareto table from a merged tree.
pub fn frontier_summary_from_manifest(m: &Manifest) -> Option<FrontierSummary> {
    let bits = m.mode().strip_prefix("frontier-e")?.parse::<u32>().ok()?;
    let j = m.json();
    let derived = |key: &str| j.get_path(&format!("derived.{key}"));
    Some(FrontierSummary {
        app: m.app().to_string(),
        entropy_bits: bits,
        span_bytes: derived("span_bytes")?.as_u64()?,
        successes: m.counter("attack.successes") as u32,
        trials: m.counter("attack.trials") as u32,
        attack_success: derived("attack_success")?.as_f64()?,
        pages_leaked: m.counter("attack.pages_leaked"),
        slowdown: derived("slowdown")?.as_f64()?,
        fault_coverage: derived("fault_coverage")?.as_f64()?,
    })
}

/// The manifest `config` block of a multicore rerand cell: the matrix
/// configuration plus the engine kind, the pairing, and the rerand
/// epoch, all folded into the fingerprint.
fn multicore_config_json(cell: &MulticoreCell) -> Json {
    let mut j = config_json("vcfr128");
    j.set("engine", Json::Str("mc2".into()));
    j.set("rerand_epoch", Json::U64(MULTICORE_RERAND_EPOCH));
    j.set(
        "fingerprint",
        Json::Str(fingerprint(&format!(
            "multicore vcfr={} base={} budget={} epoch={MULTICORE_RERAND_EPOCH} seed={SEED}",
            cell.vcfr_app, cell.base_app, cell.budget
        ))),
    );
    j
}

/// Builds the manifest for one multicore rerand cell: the aggregate
/// `sim.*` counters (per-core sums; shared L2/DRAM once), a `coreN.*`
/// breakdown, the shared-L2 view in `derived`, and the usual
/// cycle-accounting audit — the in-order identities hold on the
/// aggregate because its cycles are the per-core sum.
pub fn build_multicore_manifest(cell: &MulticoreCell, host: Json) -> Manifest {
    let app = format!("{}+{}", cell.vcfr_app, cell.base_app);
    let mut m = Manifest::new(&app, "mc2-vcfr128");
    m.set_config(multicore_config_json(cell));
    let mut counters = cell.output.stats.snapshot().counters;
    for (i, s) in cell.output.per_core.iter().enumerate() {
        counters.extend([
            (format!("core{i}.instructions"), s.instructions),
            (format!("core{i}.cycles"), s.cycles),
            (format!("core{i}.rerand.epochs"), s.rerand_epochs),
            (format!("core{i}.stall.contention"), s.contention_stall_cycles),
        ]);
    }
    counters.push(("mc.makespan_cycles".to_string(), cell.output.cycles));
    m.set_counters(&Snapshot::from_counters(counters));
    let mut d = derived_json(&cell.output.stats);
    d.set("shared_l2_miss_rate", Json::F64(cell.output.shared_l2.miss_rate()));
    d.set("core0_ipc", Json::F64(cell.output.per_core[0].ipc()));
    d.set("core1_ipc", Json::F64(cell.output.per_core[1].ipc()));
    m.set_derived(d);
    m.set_audit(audit_json(EngineKind::Multicore { cores: 2 }, &cell.output.stats));
    m.set_host(host);
    m
}

/// One manifest per multicore rerand cell (host block carries the
/// thread count only; the canonical bytes are thread-independent).
pub fn build_multicore_manifests(cells: &[MulticoreCell], threads: usize) -> Vec<Manifest> {
    cells
        .iter()
        .map(|c| {
            let mut host = Json::obj();
            host.set("threads", Json::U64(threads as u64));
            build_multicore_manifest(c, host)
        })
        .collect()
}

/// The `BENCH_repro.json` record of one matrix run (shared writer in
/// `vcfr-obs`; schema v3 with host metadata, per-run throughput, and
/// the superblock flag).
pub fn bench_record(t: &MatrixTiming) -> BenchRecord {
    let (host_cores, cargo_profile) = BenchRecord::host_defaults();
    BenchRecord {
        threads: t.threads,
        host_cores,
        cargo_profile,
        randomize_s: t.randomize_s,
        matrix_wall_s: t.wall_s,
        runs: t
            .runs
            .iter()
            .map(|r| BenchRun {
                app: r.app.clone(),
                mode: r.mode.clone(),
                instructions: r.instructions,
                wall_s: r.wall_s,
                insts_per_s: r.insts_per_s,
                superblock: r.superblock,
            })
            .collect(),
    }
}
