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
//! A second table pins the bytes of mid-run checkpoints (FNV-1a 64 of
//! `Session::checkpoint`) on every engine kind. Round-trip tests alone
//! would pass a reordered save and still strand every snapshot already
//! written at the same `CHECKPOINT_VERSION`; a version bump refreshes
//! this table in a commit of its own.
//!
//! A third table pins the rewriter's output itself: the bytes of
//! `RandomizedProgram::to_bytes` for every workload under six
//! randomizer configurations. The run digests above see only two apps,
//! and only through their stats; this table moves if any layout,
//! rewritten instruction, table entry or rewrite counter moves, and so
//! pins the placement's draw order too.
//!
//! A fourth table pins a small program whose functions load their own
//! return address from the stack, the one access that de-randomizes a
//! marked stack slot (§IV-C). No workload makes that access, so without
//! this table nothing would notice if the read path changed. Its epochs
//! of 7 instructions put swaps between a call and its load.
//!
//! Four more tests pin configurations that used to panic inside the
//! simulator: each must come back as a typed error.

use vcfr::core::DrcConfig;
use vcfr::isa::{AluOp, Asm, Cond, Image, Reg};
use vcfr::rewriter::{randomize, RandomizeConfig, RandomizedProgram};
use vcfr::sim::{
    simulate_ooo, DrcBacking, EngineKind, FaultPlan, FaultTarget, Mode, OooConfig, Session,
    SessionStatus, SimConfig, SimError, VcfrError,
};
use vcfr::workloads::Workload;
use vcfr_bench::FRONTIER_POINTS;

/// Instructions per core.
const BUDGET: u64 = 20_000;
/// Sampling interval.
const SAMPLE: u64 = 2_500;
/// Re-randomization epoch of the `vcfr64-rerand` column.
const EPOCH: u64 = 4_000;
/// DRC flush interval of the `vcfr64-rerand` column.
const FLUSH: u64 = 3_000;
/// Session instruction count (aggregate across cores) at which each
/// checkpoint golden is taken.
const CHECKPOINT_AT: u64 = 10_000;

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
    ("bzip2/ooo/faults-vcfr128", "01f5444c141245c6"),
    ("bzip2/mc2/faults-vcfr128", "78690db2d232d0d7"),
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
    ("xalan/ooo/faults-vcfr128", "d99cd7831b6f02df"),
    ("xalan/mc2/faults-vcfr128", "3463ccab70bbebe4"),
    ("xalan/mc2/vcfr128-rerand+base", "09b5d74fed3ef8dc"),
];

/// Loop iterations of the slot-read program; each makes two slot reads.
const SLOT_LOOPS: i64 = 3_000;
/// Instructions per core of a slot-read run: enough to halt.
const SLOT_BUDGET: u64 = 50_000;

/// The expected digest of every slot-read run, keyed
/// `slot-read/engine/epoch`.
const SLOT_READ_GOLDEN: &[(&str, &str)] = &[
    ("slot-read/inorder/no-epoch", "a504f2cb5f30f07f"),
    ("slot-read/ooo/no-epoch", "4b9d38b55c97d25b"),
    ("slot-read/mc2/no-epoch", "a0c7bf1754dd982f"),
    ("slot-read/inorder/epoch7", "702200018ff14e12"),
    ("slot-read/ooo/epoch7", "747015d3ee4b9dbc"),
    ("slot-read/mc2/epoch7", "30219a725825e774"),
    ("slot-read/inorder/epoch1000", "882cd2162977c250"),
    ("slot-read/ooo/epoch1000", "c7b684bf3de45dfa"),
    ("slot-read/mc2/epoch1000", "bcd77a96d9fe94f0"),
];

/// The expected digest of every mid-run checkpoint, keyed
/// `app/engine/column`.
const CHECKPOINT_GOLDEN: &[(&str, &str)] = &[
    ("bzip2/inorder/base", "715fc617f786e8a6"),
    ("bzip2/inorder/vcfr128", "29b868bc8e32c980"),
    ("bzip2/inorder/vcfr64-rerand", "2d16a4814abad1a5"),
    ("bzip2/ooo/base", "1d9243a239645226"),
    ("bzip2/ooo/vcfr128", "9647e20582f73329"),
    ("bzip2/ooo/vcfr64-rerand", "c942a4ffb10a4278"),
    ("bzip2/mc2/base", "6be324c013072412"),
    ("bzip2/mc2/vcfr128", "a6381ab20b150f2d"),
    ("bzip2/mc2/vcfr64-rerand", "0461e92bb68f8ff6"),
    ("xalan/inorder/base", "28c3a1c1cd4c7930"),
    ("xalan/inorder/vcfr128", "60eda6833dabea6a"),
    ("xalan/inorder/vcfr64-rerand", "7352c07ac35c1efc"),
    ("xalan/ooo/base", "c04423e849afd930"),
    ("xalan/ooo/vcfr128", "77cdec820d556078"),
    ("xalan/ooo/vcfr64-rerand", "2213af9148b8dab1"),
    ("xalan/mc2/base", "a2e9c13d9162f20c"),
    ("xalan/mc2/vcfr128", "a9365a77e94234ee"),
    ("xalan/mc2/vcfr64-rerand", "6ec17a456916f26c"),
];

/// The expected digest of every randomized program, keyed
/// `app/configuration`.
const RANDOMIZE_GOLDEN: &[(&str, &str)] = &[
    ("bzip2/default", "cf1aa3231f280e2a"),
    ("bzip2/e13", "3ba1219cf3f3b918"),
    ("bzip2/e17", "0b18b9f1bbf2c153"),
    ("bzip2/e24", "cdc42fddbad94d60"),
    ("bzip2/page_confined", "0949b5b6165ac79e"),
    ("bzip2/software_returns", "45f4129a83438abc"),
    ("gcc/default", "4d9ac0eabfe786be"),
    ("gcc/e13", "47fd1feff3b5fe99"),
    ("gcc/e17", "edf8347a7b5e03dd"),
    ("gcc/e24", "b32095866e93e7a9"),
    ("gcc/page_confined", "aaf16e9d15994a2c"),
    ("gcc/software_returns", "a809d8bc1668b5de"),
    ("mcf/default", "a5cca4c445185bdf"),
    ("mcf/e13", "161bdba3c381d553"),
    ("mcf/e17", "3895a40d509fa735"),
    ("mcf/e24", "cc0e2fc0d1cb977f"),
    ("mcf/page_confined", "4863eb7e5e190fc0"),
    ("mcf/software_returns", "ef9f0e0c23a0dac8"),
    ("hmmer/default", "3dcafb6ce7944965"),
    ("hmmer/e13", "2eda9f8b98f135eb"),
    ("hmmer/e17", "63e8ae3968abdad6"),
    ("hmmer/e24", "8f2a7c4b748fc16e"),
    ("hmmer/page_confined", "fdcd1b39d00c084e"),
    ("hmmer/software_returns", "767b1274e436cdfb"),
    ("sjeng/default", "4c848e08ef201d6e"),
    ("sjeng/e13", "2c9faee09f980184"),
    ("sjeng/e17", "2b00696d823dc577"),
    ("sjeng/e24", "d340174593a3e188"),
    ("sjeng/page_confined", "fb39b937f0e96f7a"),
    ("sjeng/software_returns", "151235cac86efa6e"),
    ("libquantum/default", "13365f6777ce4bf6"),
    ("libquantum/e13", "e55e2572ee1c89ed"),
    ("libquantum/e17", "13365f6777ce4bf6"),
    ("libquantum/e24", "2d2280fb6fcea810"),
    ("libquantum/page_confined", "e175832c719e2193"),
    ("libquantum/software_returns", "a9c6eb91dbd64c2b"),
    ("h264ref/default", "44fa8b100973e1c8"),
    ("h264ref/e13", "ff60d7c921c4d362"),
    ("h264ref/e17", "44fa8b100973e1c8"),
    ("h264ref/e24", "4302c0b76910e29f"),
    ("h264ref/page_confined", "7d04d476d4fe07c5"),
    ("h264ref/software_returns", "e981f76802b32a06"),
    ("lbm/default", "d4995b449cb928f9"),
    ("lbm/e13", "f0cfe247371bb87e"),
    ("lbm/e17", "d4995b449cb928f9"),
    ("lbm/e24", "d35aba4fe40a1c07"),
    ("lbm/page_confined", "c49578834cf28ddf"),
    ("lbm/software_returns", "1445940b1760efa0"),
    ("xalan/default", "363c98ce88ab19a7"),
    ("xalan/e13", "ade2be7372d65390"),
    ("xalan/e17", "231453d4c4b5413e"),
    ("xalan/e24", "a27dd705b22c2bb8"),
    ("xalan/page_confined", "a2a02b0305d456ae"),
    ("xalan/software_returns", "d3d0c89713c5d5f6"),
    ("namd/default", "46f64f2deb8e329c"),
    ("namd/e13", "65e6603dd8c47585"),
    ("namd/e17", "46f64f2deb8e329c"),
    ("namd/e24", "0d3f8ca3b261057f"),
    ("namd/page_confined", "81898a3508426c54"),
    ("namd/software_returns", "8966292e5de199fd"),
    ("soplex/default", "ddbf6d3c2fe94c71"),
    ("soplex/e13", "ac7e07bc01d422a7"),
    ("soplex/e17", "ddbf6d3c2fe94c71"),
    ("soplex/e24", "413068cf00a90508"),
    ("soplex/page_confined", "8665b63e9f70ac92"),
    ("soplex/software_returns", "c97fd0a1aac0f7a4"),
    ("memcpy/default", "333bd983a8e7dcb2"),
    ("memcpy/e13", "6ed30985c802b64e"),
    ("memcpy/e17", "437a93e9422124d5"),
    ("memcpy/e24", "9cb895d13d67497a"),
    ("memcpy/page_confined", "144ee72a4265e765"),
    ("memcpy/software_returns", "9ee4be30b7f74765"),
    ("python/default", "62c203b1a6fe92d0"),
    ("python/e13", "3e43a06e96e7a2d3"),
    ("python/e17", "62c203b1a6fe92d0"),
    ("python/e24", "77e1cdcbbaa3f9e8"),
    ("python/page_confined", "8a555b5cb7247491"),
    ("python/software_returns", "df8f063310cb7d7d"),
];

/// FNV-1a 64. A zero byte leaves `h ^ b` unchanged, so an all-zero
/// chunk is one multiplication by a power of the prime: the digest is
/// exactly FNV-1a's, and the megabytes of empty region in a sparse
/// layout hash in milliseconds in a debug build.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    const CHUNK: usize = 64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in bytes.chunks(CHUNK) {
        if chunk == &[0u8; CHUNK][..chunk.len()] {
            h = h.wrapping_mul(PRIME.wrapping_pow(chunk.len() as u32));
            continue;
        }
        for &b in chunk {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Runs `session` on the engine `kind` to completion with sampling on,
/// checks its cycle accounting with `kind`'s audit, and digests
/// everything it produced.
fn digest(session: Session<'_>, kind: EngineKind) -> String {
    let mut s = session.with_sampling(SAMPLE);
    let out = s.run().expect("golden runs succeed");
    let report = out.output.stats.audit(kind);
    assert!(report.passed(), "{kind} audit: {:?}", report.failures);
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
                out.push((format!("{app}/{engine}/{col}"), digest(session, engine)));
            }
        }

        // A fault campaign under the Recover policy on every engine.
        let plan = FaultPlan::generate(2015, 40, BUDGET);
        for engine in ENGINES {
            let (mode, cfg) = column("vcfr128", &w, &rp, engine);
            let session = Session::new(mode, &cfg, BUDGET).expect("valid").with_faults(&plan);
            out.push((format!("{app}/{engine}/faults-vcfr128"), digest(session, engine)));
        }

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
        out.push((format!("{app}/mc2/vcfr128-rerand+base"), digest(session, cfg.engine)));
    }
    out
}

/// A loop that calls two functions, each of which loads its own return
/// address from `[rsp]` (a marked slot under VCFR) and adds it to the
/// output.
fn slot_reader() -> Image {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, SLOT_LOOPS);
    a.mov_ri(Reg::Rax, 0);
    let top = a.here();
    a.call_named("f0");
    a.call_named("f1");
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.emit_output(Reg::Rax);
    a.halt();
    for f in ["f0", "f1"] {
        a.func(f);
        a.load(Reg::Rbx, Reg::Rsp, 0);
        a.alu_rr(AluOp::Add, Reg::Rax, Reg::Rbx);
        a.ret();
    }
    a.finish().expect("assembles")
}

/// The slot-read program under a 64-entry DRC on every engine kind,
/// with no epoch, an epoch of 7 instructions and one of 1 000, as
/// `(key, digest)`. The in-order core marks the slots, so each of its
/// runs must make one more de-randomizing lookup per slot read than the
/// OoO core, which never marks one.
fn slot_read_digests() -> Vec<(String, String)> {
    let img = slot_reader();
    let rp = randomize(&img, &RandomizeConfig::with_seed(2015)).expect("randomizes");
    let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(64) };
    let derand = |engine, rerand_epoch| {
        let cfg = SimConfig { engine, rerand_epoch, ..SimConfig::default() };
        let out = Session::new(mode, &cfg, SLOT_BUDGET).expect("valid").run().expect("runs");
        out.output.stats.drc.expect("a VCFR run").derand_lookups
    };
    let mut out = Vec::new();
    for epoch in [None, Some(7), Some(1_000)] {
        let reads = derand(EngineKind::InOrder, epoch) - derand(EngineKind::Ooo, epoch);
        assert_eq!(reads, 2 * SLOT_LOOPS as u64, "every slot read de-randomizes");
        for engine in ENGINES {
            let cfg = SimConfig { engine, rerand_epoch: epoch, ..SimConfig::default() };
            let session = Session::new(mode, &cfg, SLOT_BUDGET).expect("valid");
            let label = epoch.map_or("no-epoch".to_string(), |e| format!("epoch{e}"));
            out.push((format!("slot-read/{engine}/{label}"), digest(session, engine)));
        }
    }
    out
}

/// The checkpoint bytes of every engine kind × {base, vcfr128,
/// vcfr64-rerand}, taken `CHECKPOINT_AT` instructions into a sampled
/// run, as `(key, digest)`. The re-randomizing column has swapped
/// epochs by then, so its bytes pin the epoch block too.
fn checkpoint_digests() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for app in APPS {
        let (w, rp) = prepare(app);
        for engine in ENGINES {
            for col in ["base", "vcfr128", "vcfr64-rerand"] {
                let (mode, cfg) = column(col, &w, &rp, engine);
                let mut s = Session::new(mode, &cfg, BUDGET).expect("valid").with_sampling(SAMPLE);
                let key = format!("{app}/{engine}/{col}");
                let status = s.run_for(CHECKPOINT_AT).expect("golden runs succeed");
                assert!(matches!(status, SessionStatus::Running), "{key} ended early");
                out.push((key, format!("{:016x}", fnv1a(&s.checkpoint()))));
            }
        }
    }
    out
}

/// The randomizer configurations whose layouts are pinned: the default
/// at seed 2015, three frontier points, page confinement and software
/// return-address randomization.
fn layout_configs() -> Vec<(String, RandomizeConfig)> {
    let seeded = RandomizeConfig::with_seed(2015);
    let mut out = vec![("default".to_string(), seeded.clone())];
    for pt in FRONTIER_POINTS.iter().filter(|pt| matches!(pt.entropy_bits, 13 | 17 | 24)) {
        let cfg = RandomizeConfig::from_params(2015, &pt.params());
        out.push((format!("e{}", pt.entropy_bits), cfg));
    }
    out.push((
        "page_confined".to_string(),
        RandomizeConfig { page_confined: true, ..seeded.clone() },
    ));
    out.push((
        "software_returns".to_string(),
        RandomizeConfig { software_return_randomization: true, ..seeded },
    ));
    out
}

/// The serialized randomized program of every workload under every
/// pinned configuration, as `(key, digest)`.
fn layout_digests() -> Vec<(String, String)> {
    let configs = layout_configs();
    let mut out = Vec::new();
    for w in vcfr::workloads::all() {
        for (name, cfg) in &configs {
            let rp = randomize(&w.image, cfg).expect("workloads randomize");
            out.push((format!("{}/{name}", w.name), format!("{:016x}", fnv1a(&rp.to_bytes()))));
        }
    }
    out
}

/// Fails with every moved entry and the current table when `got` is
/// not exactly `golden`.
fn assert_golden(got: &[(String, String)], golden: &[(&str, &str)]) {
    let table: String = got.iter().map(|(k, d)| format!("    (\"{k}\", \"{d}\"),\n")).collect();
    assert_eq!(got.len(), golden.len(), "the grid changed shape; current digests:\n{table}");
    let diffs: Vec<String> = got
        .iter()
        .zip(golden)
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

#[test]
fn engine_results_match_the_golden_digests() {
    assert_golden(&all_digests(), GOLDEN);
}

#[test]
fn slot_reads_match_the_golden_digests() {
    assert_golden(&slot_read_digests(), SLOT_READ_GOLDEN);
}

#[test]
fn mid_run_checkpoints_match_the_golden_digests() {
    assert_golden(&checkpoint_digests(), CHECKPOINT_GOLDEN);
}

#[test]
fn randomized_programs_match_the_golden_digests() {
    assert_golden(&layout_digests(), RANDOMIZE_GOLDEN);
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

/// Re-randomizing a page-confined layout is a configuration error, not a
/// panic at the first epoch swap: its region is the text itself, under
/// the 4 bytes per instruction that the swap's draws need.
#[test]
fn rerand_on_a_page_confined_layout_is_a_config_error() {
    for app in ["sjeng", "gcc"] {
        let w = vcfr::workloads::by_name(app).expect("known workload");
        let rcfg = RandomizeConfig { page_confined: true, ..RandomizeConfig::with_seed(2015) };
        let rp = randomize(&w.image, &rcfg).expect("randomizes");
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let cfg = SimConfig { rerand_epoch: Some(1_000), ..SimConfig::default() };
        let err = Session::new(mode, &cfg, BUDGET).err().expect("refused");
        assert!(matches!(err, VcfrError::Config(_)), "{app}: {err:?}");
        let err = vcfr::sim::simulate(mode, &cfg, BUDGET).unwrap_err();
        assert!(matches!(err, VcfrError::Config(_)), "{app}: {err:?}");
    }
}

/// A sticky table-slot fault on a page-confined layout cannot be
/// re-randomized away, so even the Recover policy contains it by halting,
/// as the Halt policy does: the run ends with a typed fault naming the
/// table slot, not a panic in the epoch swap.
#[test]
fn a_sticky_table_fault_on_a_page_confined_layout_halts() {
    for app in ["sjeng", "gcc"] {
        let w = vcfr::workloads::by_name(app).expect("known workload");
        let rcfg = RandomizeConfig { page_confined: true, ..RandomizeConfig::with_seed(2015) };
        let rp = randomize(&w.image, &rcfg).expect("randomizes");
        let mode = Mode::Vcfr { program: &rp, drc: DrcConfig::direct_mapped(128) };
        let plan = FaultPlan::generate(2015, 40, 200_000);
        let session = Session::new(mode, &SimConfig::default(), 200_000).expect("valid");
        let err = session.with_faults(&plan).run().unwrap_err();
        assert!(
            matches!(err, VcfrError::Sim(SimError::Fault { target: FaultTarget::TableSlot, .. })),
            "{app}: {err:?}"
        );
    }
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
