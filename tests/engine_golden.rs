//! Golden results of every engine kind across the mediation settings.
//!
//! Each run is digested from its stats, interval samples, architectural
//! outcome, fault counters and records, the per-core breakdown and the
//! post-mortem trace ring (FNV-1a 64 over their `Debug` forms). A
//! refactor of the engines must leave every digest unchanged. A
//! deliberate change to the timing model updates the table and says why
//! in its commit.
//!
//! Runs are capped at 20 000 instructions per core, so the whole grid
//! finishes in seconds in a debug build while still crossing several
//! re-randomization epochs, DRC flushes and contained sticky faults.
//!
//! Two more tests pin configurations that used to panic inside the
//! simulator: each must come back as a typed configuration error.

use vcfr::core::DrcConfig;
use vcfr::rewriter::{randomize, RandomizeConfig, RandomizedProgram};
use vcfr::sim::{
    simulate_ooo, DrcBacking, EngineKind, FaultPlan, Mode, OooConfig, Session, SimConfig, VcfrError,
};
use vcfr::workloads::Workload;

/// Instructions per core.
const BUDGET: u64 = 20_000;
/// Sampling interval.
const SAMPLE: u64 = 2_500;
/// Re-randomization epoch of the `vcfr64-rerand` column.
const EPOCH: u64 = 4_000;
/// DRC flush interval of the `vcfr64-rerand` column.
const FLUSH: u64 = 3_000;

const APPS: [&str; 2] = ["bzip2", "xalan"];
const ENGINES: [EngineKind; 3] =
    [EngineKind::InOrder, EngineKind::Ooo, EngineKind::Multicore { cores: 2 }];
const COLUMNS: [&str; 5] = ["base", "naive", "vcfr128", "vcfr64-rerand", "vcfr128-dedicated"];

/// The expected digest of every run, keyed `app/engine/column`.
const GOLDEN: &[(&str, &str)] = &[
    ("bzip2/inorder/base", "4aac0373adace20c"),
    ("bzip2/inorder/naive", "b5c521ef50d5ea39"),
    ("bzip2/inorder/vcfr128", "d7b0c23061cdaab7"),
    ("bzip2/inorder/vcfr64-rerand", "9bbd4234baee96dc"),
    ("bzip2/inorder/vcfr128-dedicated", "e7d1e06617a91705"),
    ("bzip2/ooo/base", "a14ef4bc6c315154"),
    ("bzip2/ooo/naive", "6e05c347741e4709"),
    ("bzip2/ooo/vcfr128", "8f260c02e7ba80a1"),
    ("bzip2/ooo/vcfr64-rerand", "3b0c6b5614fb4217"),
    ("bzip2/ooo/vcfr128-dedicated", "4279d88b3a43ea12"),
    ("bzip2/mc2/base", "654a0cceb351b86a"),
    ("bzip2/mc2/naive", "3effe9928ae84419"),
    ("bzip2/mc2/vcfr128", "d30176db59b33dc1"),
    ("bzip2/mc2/vcfr64-rerand", "8b81c0af703461dc"),
    ("bzip2/mc2/vcfr128-dedicated", "779235756613e7af"),
    ("bzip2/inorder/faults-vcfr128", "fb91169eae061dbf"),
    ("bzip2/mc2/vcfr128-rerand+base", "a55e5311f664480a"),
    ("xalan/inorder/base", "794b63f3684c868b"),
    ("xalan/inorder/naive", "35164fc05edbbeb2"),
    ("xalan/inorder/vcfr128", "15e7979d7fea0e8b"),
    ("xalan/inorder/vcfr64-rerand", "be4b00416e403786"),
    ("xalan/inorder/vcfr128-dedicated", "a2043d428d3e457b"),
    ("xalan/ooo/base", "afb773dfec44d53b"),
    ("xalan/ooo/naive", "60e759a1e11085d8"),
    ("xalan/ooo/vcfr128", "0d4bb5dd13b0b60d"),
    ("xalan/ooo/vcfr64-rerand", "355120c0695748aa"),
    ("xalan/ooo/vcfr128-dedicated", "eb9cb413f31f64e4"),
    ("xalan/mc2/base", "07864632166351b0"),
    ("xalan/mc2/naive", "96249523eb7b47d4"),
    ("xalan/mc2/vcfr128", "b3ce34ce1f433c10"),
    ("xalan/mc2/vcfr64-rerand", "ae78e730ad6b9279"),
    ("xalan/mc2/vcfr128-dedicated", "c1488c0fd9990d6e"),
    ("xalan/inorder/faults-vcfr128", "8db108a61209b17a"),
    ("xalan/mc2/vcfr128-rerand+base", "09b5d74fed3ef8dc"),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs `session` to completion with sampling on and digests everything
/// it produced.
fn digest(session: Session<'_>) -> String {
    let mut s = session.with_sampling(SAMPLE);
    let out = s.run().expect("golden runs succeed");
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        out.output.stats,
        out.samples,
        out.output.outcome,
        out.faults,
        out.records,
        out.multicore,
        s.trace_events()
    );
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn prepare(name: &str) -> (Workload, RandomizedProgram) {
    let w = vcfr::workloads::by_name(name).expect("known workload");
    let rp = randomize(&w.image, &RandomizeConfig::with_seed(2015)).expect("randomizes");
    (w, rp)
}

fn column<'a>(
    col: &str,
    w: &'a Workload,
    rp: &'a RandomizedProgram,
    engine: EngineKind,
) -> (Mode<'a>, SimConfig) {
    let cfg = SimConfig { engine, ..SimConfig::default() };
    let vcfr = |entries| Mode::Vcfr { program: rp, drc: DrcConfig::direct_mapped(entries) };
    match col {
        "base" => (Mode::Baseline(&w.image), cfg),
        "naive" => (Mode::NaiveIlr(rp), cfg),
        "vcfr128" => (vcfr(128), cfg),
        "vcfr64-rerand" => (
            vcfr(64),
            SimConfig { rerand_epoch: Some(EPOCH), drc_flush_interval: Some(FLUSH), ..cfg },
        ),
        "vcfr128-dedicated" => {
            (vcfr(128), SimConfig { drc_backing: DrcBacking::Dedicated { latency: 24 }, ..cfg })
        }
        other => unreachable!("unknown column {other}"),
    }
}

/// Every run of the grid plus the two extra cells, as `(key, digest)`.
fn all_digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for app in APPS {
        let (w, rp) = prepare(app);
        for engine in ENGINES {
            for col in COLUMNS {
                let (mode, cfg) = column(col, &w, &rp, engine);
                let session = Session::new(mode, &cfg, BUDGET).expect("valid golden config");
                out.push((format!("{app}/{engine}/{col}"), digest(session)));
            }
        }

        // An in-order fault campaign under the Recover policy.
        let (mode, cfg) = column("vcfr128", &w, &rp, EngineKind::InOrder);
        let plan = FaultPlan::generate(2015, 40, BUDGET);
        let session = Session::new(mode, &cfg, BUDGET).expect("valid").with_faults(&plan);
        out.push((format!("{app}/inorder/faults-vcfr128"), digest(session)));

        // A heterogeneous pair: a re-randomizing VCFR core beside a
        // baseline core over the shared L2.
        let cfg = SimConfig {
            engine: EngineKind::Multicore { cores: 2 },
            rerand_epoch: Some(EPOCH),
            ..SimConfig::default()
        };
        let modes = [
            Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) },
            Mode::Baseline(&w.image),
        ];
        let session = Session::new_heterogeneous(&modes, &cfg, BUDGET).expect("valid");
        out.push((format!("{app}/mc2/vcfr128-rerand+base"), digest(session)));
    }
    out
}

#[test]
fn engine_results_match_the_golden_digests() {
    let got = all_digests();
    let table: String = got.iter().map(|(k, d)| format!("    (\"{k}\", \"{d}\"),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "the grid changed shape; current digests:\n{table}");
    let diffs: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|((k, d), (gk, gd))| k != gk || d != gd)
        .map(|((k, d), (_, gd))| format!("{k}: got {d}, golden {gd}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} runs moved:\n{}\ncurrent digests:\n{table}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// Re-randomization on a baseline run is a configuration error, not a
/// panic inside the legacy entry point.
#[test]
fn rerand_on_a_baseline_run_is_a_config_error() {
    let (w, _) = prepare("bzip2");
    let cfg = SimConfig { rerand_epoch: Some(1_000), ..SimConfig::default() };
    let err = vcfr::sim::simulate(Mode::Baseline(&w.image), &cfg, BUDGET).unwrap_err();
    assert!(matches!(err, VcfrError::Config(_)), "{err:?}");
}

/// Every entry point validates the DRC geometry before building one:
/// an empty DRC and one too large to allocate are both refused.
#[test]
fn invalid_drc_geometries_are_config_errors() {
    let (_, rp) = prepare("bzip2");
    for entries in [0, 1 << 40] {
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(entries) };
        let err =
            simulate_ooo(mode, &SimConfig::default(), OooConfig::default(), BUDGET).unwrap_err();
        assert!(matches!(err, VcfrError::Config(_)), "{entries}: {err:?}");
        let err = Session::new(mode, &SimConfig::default(), BUDGET).err().expect("refused");
        assert!(matches!(err, VcfrError::Config(_)), "{entries}: {err:?}");
    }
}
