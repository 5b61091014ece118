//! Criterion micro-benchmarks of the simulator substrates: how fast the
//! building blocks themselves run on the host. These complement the
//! `repro` binary (which regenerates the paper's tables/figures) by
//! tracking the cost of the machinery.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vcfr_core::{Drc, DrcConfig, LayoutMap, OrigAddr, RandAddr, TranslationTable};
use vcfr_isa::{decode, encode, AluOp, Asm, Cond, Inst, Machine, Reg};
use vcfr_sim::{Cache, CacheConfig, Dram, DramConfig, Gshare, GshareConfig};

fn bench_encode_decode(c: &mut Criterion) {
    let insts = [
        Inst::Nop,
        Inst::MovRI { dst: Reg::Rax, imm: 0x1234_5678 },
        Inst::LoadIdx { dst: Reg::Rax, base: Reg::Rbx, index: Reg::Rcx, scale: 3, disp: 64 },
        Inst::Jcc { cc: Cond::Ne, rel: -42 },
        Inst::Call { rel: 1000 },
    ];
    c.bench_function("isa/encode", |b| {
        let mut buf = Vec::with_capacity(64);
        b.iter(|| {
            buf.clear();
            for i in &insts {
                vcfr_isa::encode_into(black_box(i), &mut buf);
            }
            buf.len()
        })
    });
    let bytes: Vec<u8> = insts.iter().flat_map(encode).collect();
    c.bench_function("isa/decode", |b| {
        b.iter(|| {
            let mut off = 0;
            let mut n = 0;
            while off < bytes.len() {
                let (i, next) = vcfr_isa::decode_at(black_box(&bytes), off).unwrap();
                n += i.len();
                off = next;
            }
            n
        })
    });
    let _ = decode(&bytes); // keep the import exercised
}

fn bench_interpreter(c: &mut Criterion) {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, 1000);
    let top = a.here();
    a.alu_ri(AluOp::Add, Reg::Rax, 3);
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.halt();
    let img = a.finish().unwrap();
    c.bench_function("isa/interpreter_4k_insts", |b| {
        b.iter(|| Machine::new(black_box(&img)).run(10_000).unwrap().steps)
    });
}

fn bench_cache(c: &mut Criterion) {
    let cfg = CacheConfig { size_bytes: 32 * 1024, ways: 2, line_bytes: 64, latency: 2 };
    c.bench_function("sim/cache_access_stream", |b| {
        let mut cache = Cache::new(cfg);
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0xf_ffff;
            cache.access(black_box(addr), false).hit
        })
    });
}

fn bench_dram(c: &mut Criterion) {
    c.bench_function("sim/dram_access", |b| {
        let mut dram = Dram::new(DramConfig::default());
        let mut now = 0u64;
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(4096);
            now = dram.access(black_box(addr), now);
            now
        })
    });
}

fn bench_predictor(c: &mut Criterion) {
    c.bench_function("sim/gshare_predict_update", |b| {
        let mut g = Gshare::new(GshareConfig { history_bits: 12 });
        let mut pc = 0x1000u32;
        b.iter(|| {
            pc = pc.wrapping_add(16) & 0xffff;
            let p = g.predict(black_box(pc));
            g.update(pc, !p);
            p
        })
    });
}

fn bench_drc(c: &mut Criterion) {
    let map = LayoutMap::from_pairs(
        (0..1024u32).map(|i| (OrigAddr(0x1000 + i * 4), RandAddr(0x2000_0000 + i * 64))),
    )
    .unwrap();
    let table = TranslationTable::from_layout(map, 0x4000_0000);
    c.bench_function("core/drc_lookup", |b| {
        let mut drc = Drc::new(DrcConfig::direct_mapped(128));
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) & 1023;
            drc.derandomize(black_box(RandAddr(0x2000_0000 + i * 64)), &table).unwrap().hit
        })
    });
}

fn bench_engine_hot_loop(c: &mut Criterion) {
    use vcfr_sim::{simulate, Mode, SimConfig};
    // The cycle engine's per-instruction path end to end (fetch, caches,
    // DRC, predictors) on a real workload — the loop the dense decode
    // index and flat maps exist to keep fast.
    let w = vcfr_workloads::by_name("bzip2").expect("suite workload");
    let rp = vcfr_bench::experiments::randomize_workload(&w.image);
    let cfg = SimConfig::default();
    c.bench_function("sim/engine_hot_loop", |b| {
        b.iter(|| {
            simulate(
                Mode::Vcfr { program: black_box(&rp), drc: DrcConfig::direct_mapped(128) },
                &cfg,
                20_000,
            )
            .unwrap()
            .stats
            .instructions
        })
    });
}

/// A long straight-line register-only body in a short loop: the shape
/// the superblock fast path exists for.
fn straightline_image(body: usize, loops: i64) -> vcfr_isa::Image {
    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rcx, loops);
    let top = a.here();
    for k in 0..body {
        match k % 3 {
            0 => a.alu_ri(AluOp::Add, Reg::Rax, 3),
            1 => a.alu_ri(AluOp::Xor, Reg::Rdx, 0x55),
            _ => a.mov_rr(Reg::Rbx, Reg::Rdx),
        }
    }
    a.alu_ri(AluOp::Sub, Reg::Rcx, 1);
    a.cmp_i(Reg::Rcx, 0);
    a.jcc(Cond::Ne, top);
    a.halt();
    a.finish().unwrap()
}

fn bench_engine_superblock_form(c: &mut Criterion) {
    use vcfr_isa::SUPERBLOCK_MAX_INSTS;
    let img = straightline_image(400, 1);
    // Cold formation: decode-once plus the straight-line walk, the cost
    // the cache amortises away on every later execution of the block.
    c.bench_function("sim/engine_superblock_form_403_insts", |b| {
        b.iter(|| {
            let mut m = Machine::new(black_box(&img));
            m.form_superblock(0x1000, SUPERBLOCK_MAX_INSTS).expect("block forms").len()
        })
    });
}

fn bench_engine_superblock_replay(c: &mut Criterion) {
    use vcfr_sim::{Mode, Session, SimConfig};
    let img = straightline_image(400, 200);
    let cfg = SimConfig::default();
    // The no-stall fast path end to end (~80k committed instructions per
    // iteration), against the same run with the fast path disabled.
    c.bench_function("sim/engine_superblock_replay_80k", |b| {
        b.iter(|| {
            let mut s = Session::new(Mode::Baseline(black_box(&img)), &cfg, 100_000)
                .unwrap()
                .with_superblocks(true);
            s.run().unwrap().output.stats.instructions
        })
    });
    c.bench_function("sim/engine_superblock_off_80k", |b| {
        b.iter(|| {
            let mut s = Session::new(Mode::Baseline(black_box(&img)), &cfg, 100_000)
                .unwrap()
                .with_superblocks(false);
            s.run().unwrap().output.stats.instructions
        })
    });
}

criterion_group!(
    components,
    bench_encode_decode,
    bench_interpreter,
    bench_cache,
    bench_dram,
    bench_predictor,
    bench_drc,
    bench_engine_hot_loop,
    bench_engine_superblock_form,
    bench_engine_superblock_replay
);
criterion_main!(components);
