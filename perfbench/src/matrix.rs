//! `matrix`: the paper's 11 SPEC-like apps × {base, naive, vcfr512,
//! vcfr128, vcfr64} on the in-order engine, plus a vcfr128 cell per app
//! on the out-of-order engine and on a two-core multicore, fanned out in
//! rounds through `parallel_map`.

use crate::gate::Gate;
use crate::trace::{self, span, span_run};
use crate::util::{derive, shuffle};
use crate::workload::{next_job, Ctx, Pass, Workload};
use std::time::Instant;
use vcfr_bench::experiments::SAMPLES_PER_RUN;
use vcfr_bench::{build_engine_manifest, parallel_map, ModeSpec};
use vcfr_core::DrcConfig;
use vcfr_obs::Json;
use vcfr_rewriter::{randomize, RandomizeConfig, RandomizedProgram};
use vcfr_sim::{EngineKind, Mode, OooConfig, Session, SimConfig, VcfrError};
use vcfr_workloads::{by_name_scaled, Workload as App, SPEC_NAMES};

/// Workload scale: long enough that a round takes seconds.
pub const SCALE: u64 = 2;

/// One matrix column: a machine mode on an engine.
#[derive(Clone, Copy)]
pub struct Col {
    pub name: &'static str,
    pub mode: ModeSpec,
    pub engine: EngineKind,
}

const VCFR128: ModeSpec = ModeSpec::Vcfr { drc_entries: 128 };

pub const COLS: [Col; 7] = [
    Col {
        name: "base",
        mode: ModeSpec::Base,
        engine: EngineKind::InOrder,
    },
    Col {
        name: "naive",
        mode: ModeSpec::Naive,
        engine: EngineKind::InOrder,
    },
    Col {
        name: "vcfr512",
        mode: ModeSpec::Vcfr { drc_entries: 512 },
        engine: EngineKind::InOrder,
    },
    Col {
        name: "vcfr128",
        mode: VCFR128,
        engine: EngineKind::InOrder,
    },
    Col {
        name: "vcfr64",
        mode: ModeSpec::Vcfr { drc_entries: 64 },
        engine: EngineKind::InOrder,
    },
    Col {
        name: "ooo-vcfr128",
        mode: VCFR128,
        engine: EngineKind::Ooo,
    },
    Col {
        name: "mc2-vcfr128",
        mode: VCFR128,
        engine: EngineKind::Multicore { cores: 2 },
    },
];

/// One app, built, randomized and run on the functional interpreter.
pub struct Prepared {
    pub app: App,
    pub rp: RandomizedProgram,
    pub reference: Vec<u64>,
}

/// Builds, randomizes and reference-runs `name`.
pub fn prepare(name: &str, scale: u64, seed: u64) -> Result<Prepared, String> {
    let app = span("workloads", "workloads.build", || {
        by_name_scaled(name, scale)
    })
    .ok_or_else(|| format!("unknown workload {name}"))?;
    let rp = span("rewriter", "rewriter.randomize", || {
        randomize(&app.image, &RandomizeConfig::with_seed(seed))
    })
    .map_err(|e| format!("{name}: randomize: {e}"))?;
    let reference = span("isa", "isa.reference", || {
        let out = app.run_reference();
        if let Ok(o) = &out {
            trace::add_work(o.steps);
        }
        out
    })
    .map_err(|e| format!("{name}: reference run: {e}"))?
    .output;
    Ok(Prepared { app, rp, reference })
}

/// What one cell produced.
pub struct CellOut {
    pub output: Vec<u64>,
    pub insts: u64,
    pub file: String,
    pub canonical: String,
    pub audit_ok: bool,
}

/// Runs one cell the way the experiment matrix does: a sampled session
/// to completion, then its manifest.
pub fn run_cell(p: &Prepared, col: Col, budget: u64) -> Result<CellOut, VcfrError> {
    let cfg = SimConfig::builder().engine(col.engine).build()?;
    let mode = match col.mode {
        ModeSpec::Base => Mode::Baseline(&p.app.image),
        ModeSpec::Naive => Mode::NaiveIlr(&p.rp),
        ModeSpec::Vcfr { drc_entries } => Mode::Vcfr {
            program: &p.rp,
            drc: DrcConfig::direct_mapped(drc_entries),
        },
    };
    let session = span("sim", "sim.session_new", || {
        Session::new(mode, &cfg, budget)
    })?;
    let mut session = session.with_sampling((budget / SAMPLES_PER_RUN).max(1));
    let out = span("sim", &format!("sim.run.{}", col.name), || {
        let out = session.run();
        if let Ok(o) = &out {
            trace::add_work(o.output.stats.instructions);
        }
        out
    })?;
    let stats = out.output.stats;
    if col.engine == EngineKind::InOrder && trace::on() {
        let p = session.progress_now();
        trace::value("sim.sb_insts", p.sb_insts as f64);
        trace::value("sim.insts", p.instructions as f64);
    }
    let (file, canonical) = span("bench", "bench.manifest", || {
        let mode = match col.engine {
            EngineKind::InOrder => col.mode.to_string(),
            kind => format!("{kind}-{}", col.mode),
        };
        let m = build_engine_manifest(
            p.app.name,
            &mode,
            col.engine,
            &stats,
            &out.samples,
            Json::obj(),
        );
        (m.file_name(), m.canonical_bytes())
    });
    let acc = stats.accounting();
    let audit = match col.engine {
        EngineKind::Ooo => acc.audit_ooo(OooConfig::default().width as u64, stats.instructions),
        _ => acc.audit(),
    };
    Ok(CellOut {
        output: out.output.outcome.output,
        insts: stats.instructions,
        file,
        canonical,
        audit_ok: audit.passed(),
    })
}

/// Checks one cell against its app's reference output and audit, and
/// records its manifest.
pub fn gate_cell(gate: &Gate, p: &Prepared, col: Col, out: Result<&CellOut, &VcfrError>) {
    match out {
        Err(e) => gate.miss(format!("{} {}: {e}", p.app.name, col.name)),
        Ok(c) => {
            gate.check(c.output == p.reference, || {
                format!(
                    "{} {}: output differs from the reference run",
                    p.app.name, col.name
                )
            });
            gate.check(c.audit_ok, || {
                format!("{} {}: audit failed", p.app.name, col.name)
            });
            gate.manifest(&c.file, &c.canonical);
        }
    }
}

/// Records the fraction of a `parallel_map` round its workers sat idle:
/// makespan minus mean worker busy time, over makespan.
pub fn record_tail_idle(busy_secs: f64, threads: usize, makespan: f64) {
    let mean = busy_secs / threads.max(1) as f64;
    if makespan > 0.0 {
        trace::value(
            "bench.tail_idle_frac",
            ((makespan - mean) / makespan).max(0.0),
        );
    }
}

pub struct Matrix {
    ctx: Ctx,
    apps: Vec<Prepared>,
    cells: Vec<(usize, usize)>,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let apps = SPEC_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| prepare(name, SCALE, derive(ctx.seed, i as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cells: Vec<(usize, usize)> = (0..apps.len())
        .flat_map(|a| (0..COLS.len()).map(move |c| (a, c)))
        .collect();
    shuffle(&mut cells, derive(ctx.seed, 0xce11));
    Ok(Box::new(Matrix {
        ctx: ctx.clone(),
        apps,
        cells,
    }))
}

impl Workload for Matrix {
    fn lanes(&self) -> usize {
        self.ctx.threads
    }

    fn pass(&mut self, deadline: Instant) -> Pass {
        let mut pass = Pass::default();
        let gate = &self.ctx.gate;
        let t0 = Instant::now();
        while Instant::now() < deadline {
            let round = Instant::now();
            let outs = parallel_map(self.cells.clone(), self.ctx.threads, |_, (a, c)| {
                let p = &self.apps[a];
                let t = Instant::now();
                let out = span_run("harness", "cell", Some(next_job()), || {
                    run_cell(p, COLS[c], p.app.max_insts)
                });
                (a, c, out, t.elapsed().as_secs_f64())
            });
            let makespan = round.elapsed().as_secs_f64();
            let busy: f64 = outs.iter().map(|o| o.3).sum();
            gate.attempt(outs.len() as u64);
            for (a, c, out, secs) in outs {
                gate_cell(gate, &self.apps[a], COLS[c], out.as_ref());
                if let Ok(o) = out {
                    pass.jobs_ms.push(secs * 1e3);
                    pass.insts += o.insts;
                }
            }
            record_tail_idle(busy, self.ctx.threads, makespan);
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}
