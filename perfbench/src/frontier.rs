//! `frontier`: `run_frontier` on sjeng, one call per `FRONTIER_POINTS`
//! entry in a seeded order, with a reduced attacker budget.

use crate::gate::Gate;
use crate::trace::{span, span_run};
use crate::util::{derive, shuffle};
use crate::workload::{ms_since, next_job, Ctx, Pass, Workload};
use std::time::Instant;
use vcfr_bench::experiments::SEED;
use vcfr_bench::{
    build_frontier_manifest, frontier_summary_from_manifest, run_frontier, FrontierPoint,
    FrontierRow, FRONTIER_POINTS,
};
use vcfr_gadget::FuzzConfig;
use vcfr_obs::{Json, Manifest};
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_workloads::{by_name, Workload as App};

pub const APP: &str = "sjeng";
/// Instruction budget of the defender's runs.
pub const INSTS: u64 = 200_000;

/// The reduced attacker budget (the full campaign runs 32 × 256). Many
/// short trials rather than a few long ones: an early shell ends a trial,
/// and with long trials how early depended on the seed, which swung the
/// cheap points' cost and with it `job_ms_p50` by a quarter.
pub fn fuzz_config(seed: u64) -> FuzzConfig {
    FuzzConfig {
        seed: derive(seed, 0xf022),
        trials: 6,
        probes_per_trial: 2,
        exec_budget: 1024,
    }
}

pub fn app() -> Result<App, String> {
    let mut w = span("workloads", "workloads.build", || by_name(APP)).ok_or("sjeng is missing")?;
    w.max_insts = w.max_insts.min(INSTS);
    Ok(w)
}

pub struct Frontier {
    ctx: Ctx,
    app: App,
    fz: FuzzConfig,
    points: Vec<FrontierPoint>,
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let app = app()?;
    // `run_frontier` panics on a point whose region cannot hold the
    // program; lay the program out at every point first to fail cleanly.
    for p in FRONTIER_POINTS {
        randomize(&app.image, &RandomizeConfig::from_params(SEED, &p.params()))
            .map_err(|e| format!("{} cannot hold {APP}: {e}", p.label()))?;
    }
    let mut points = FRONTIER_POINTS.to_vec();
    shuffle(&mut points, derive(ctx.seed, 0x9017));
    let fz = fuzz_config(ctx.seed);
    Ok(Box::new(Frontier {
        ctx: ctx.clone(),
        app,
        fz,
        points,
    }))
}

/// Checks that the point's summary survives its manifest and records
/// the manifest.
fn gate_row(gate: &Gate, row: &FrontierRow, fz: &FuzzConfig) {
    let m = build_frontier_manifest(row, fz, Json::obj());
    let canonical = m.canonical_bytes();
    let back = Manifest::from_str(&canonical)
        .ok()
        .and_then(|m| frontier_summary_from_manifest(&m));
    gate.check(back.as_ref() == Some(&row.summary()), || {
        format!(
            "{}: summary does not round-trip through its manifest",
            m.file_name()
        )
    });
    gate.manifest(&m.file_name(), &canonical);
}

impl Workload for Frontier {
    fn lanes(&self) -> usize {
        1
    }

    fn pass(&mut self, deadline: Instant) -> Pass {
        let mut pass = Pass::default();
        let gate = &self.ctx.gate;
        let t0 = Instant::now();
        // Whole rounds over every point: the slow e24 point would
        // otherwise weigh on a run's figures by where the deadline fell.
        while Instant::now() < deadline {
            for &point in &self.points {
                gate.attempt(1 + u64::from(self.fz.trials));
                let t = Instant::now();
                let rows = span_run("harness", "point", Some(next_job()), || {
                    span("bench", "bench.run_frontier", || {
                        run_frontier(&self.app, &[point], &self.fz, self.ctx.threads)
                    })
                });
                let ms = ms_since(t);
                match rows.first() {
                    Some(row) => {
                        gate_row(gate, row, &self.fz);
                        pass.jobs_ms.push(ms);
                        pass.insts += row.stats.instructions;
                    }
                    None => gate.miss(format!("{}: no frontier row", point.label())),
                }
            }
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        Ok(())
    }
}
