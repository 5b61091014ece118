//! The layer probe of the traced run: one fixed set of public calls into
//! every layer, the same on every workload. It supplies the per-layer
//! metrics of layers a workload does not call itself, and the six-step
//! subtraction ladder: one cell through `Machine` alone, plus the timing
//! engine, plus sampling and the progress tap, plus the manifest, then
//! through a daemon, then through a two-worker fleet.

use crate::fleet::run_batch;
use crate::frontier;
use crate::gate::Gate;
use crate::matrix::{gate_cell, prepare, record_tail_idle, run_cell, COLS};
use crate::serve::{job_spec, one_job, record_worker_util};
use crate::services::{connect, Daemon, Fleet};
use crate::trace::{self, span};
use crate::util::{derive, median};
use crate::workload::Ctx;
use std::time::Instant;
use vcfr_bench::{
    build_engine_manifest, merge_manifest_bytes, parallel_map, ModeSpec, FRONTIER_POINTS,
};
use vcfr_core::DrcConfig;
use vcfr_gadget::{fuzz_trial, seed_corpus, AttackSurface};
use vcfr_obs::Json;
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_sim::{EngineKind, Mode, Session, SimConfig};

/// The ladder's app, at scale 1 on VCFR-128.
const APP: &str = "bzip2";
/// Pings timed against the probe's daemon.
const PINGS: usize = 20;
/// Runs of each ladder step, and calls per frontier point of the cheap
/// attacker-side calls: metrics are medians, so a first call's cold
/// caches and a single scheduling hiccup do not count.
const REPEATS: usize = 3;

/// The six ladder steps, in order.
pub const LADDER: [&str; 6] = ["machine", "engine", "tap", "manifest", "serve", "fleet"];

/// Runs the probe and returns the ladder's milliseconds per step. The
/// probe checks its manifests against a gate of its own (its specs share
/// file names with the workloads'), then adds its counts to `gate`.
pub fn run(ctx: &Ctx, gate: &Gate) -> Result<Vec<f64>, String> {
    let own = Gate::default();
    let out = ladder_and_layers(ctx, &own);
    gate.absorb(&own);
    out
}

fn ladder_and_layers(ctx: &Ctx, own: &Gate) -> Result<Vec<f64>, String> {
    let seed = derive(ctx.seed, 0x960be);
    let p = prepare(APP, 1, seed)?;
    let budget = p.app.max_insts;
    let mode = || Mode::Vcfr {
        program: &p.rp,
        drc: DrcConfig::direct_mapped(128),
    };
    let cfg = SimConfig::default();
    let spec = job_spec(APP, ModeSpec::Vcfr { drc_entries: 128 }, budget, seed);
    let file = spec.manifest_file_name();
    let daemon = Daemon::start(ctx.dir.join("daemon"), 1)?;
    let fleet = Fleet::start(ctx.dir.join("fleet"), crate::fleet::WORKERS)?;
    let mut to_daemon = connect(&daemon.dir)?;
    let mut to_fleet = connect(&fleet.dir)?;
    let mut steps = vec![Vec::new(); LADDER.len()];
    for _ in 0..REPEATS {
        own.attempt(4);
        // 1. The functional machine alone.
        let t = Instant::now();
        let reference = p.app.run_reference();
        steps[0].push(ms(t));
        own.check(
            matches!(&reference, Ok(r) if r.output == p.reference),
            || "probe: reference run differs".to_string(),
        );

        // 2. Plus the timing engine.
        let t = Instant::now();
        let engine = Session::new(mode(), &cfg, budget).and_then(|mut s| s.run());
        steps[1].push(ms(t));
        own.ok("probe: engine run", engine);

        // 3. Plus interval sampling and the progress tap; 4. plus the manifest.
        let t = Instant::now();
        let tapped = Session::new(mode(), &cfg, budget).and_then(|s| {
            s.with_sampling((budget / 10).max(1))
                .with_progress((budget / 100).max(1), |_| {})
                .run()
        });
        steps[2].push(ms(t));
        let out = own
            .ok("probe: tapped run", tapped)
            .ok_or("probe: tapped run failed")?;
        let canonical = span("bench", "bench.manifest", || {
            let stats = &out.output.stats;
            build_engine_manifest(
                APP,
                "vcfr128",
                EngineKind::InOrder,
                stats,
                &out.samples,
                Json::obj(),
            )
            .canonical_bytes()
        });
        steps[3].push(ms(t));
        // The in-process manifest must match the daemon's and the fleet's.
        own.manifest(&file, &canonical);
        let merged = span("bench", "bench.merge", || {
            merge_manifest_bytes(&ctx.dir.join("merge"), &file, canonical.as_bytes())
        });
        own.ok("probe: merge", merged);

        // 5. Through a daemon; 6. through a two-worker fleet.
        let t = Instant::now();
        one_job(&mut to_daemon, &spec, own);
        steps[4].push(ms(t));
        let t = Instant::now();
        run_batch(
            &mut to_fleet,
            &fleet.manifests_dir(),
            std::slice::from_ref(&spec),
            own,
        );
        steps[5].push(ms(t));
    }
    for _ in 0..PINGS {
        own.attempt(1);
        own.ok(
            "probe: ping",
            span("service", "service.rpc", || to_daemon.ping()),
        );
    }
    record_worker_util(&mut to_daemon);
    drop((to_daemon, to_fleet));
    daemon.stop()?;
    fleet.stop()?;
    let ladder = steps.iter().map(|s| median(s)).collect();

    // Every matrix column on the ladder's app, through `parallel_map`.
    let t = Instant::now();
    let cells = parallel_map(COLS.to_vec(), ctx.threads, |_, col| {
        let t = Instant::now();
        let out = run_cell(&p, col, budget);
        (col, out, t.elapsed().as_secs_f64())
    });
    record_tail_idle(
        cells.iter().map(|c| c.2).sum(),
        ctx.threads,
        t.elapsed().as_secs_f64(),
    );
    own.attempt(cells.len() as u64);
    for (col, out, _) in &cells {
        gate_cell(own, &p, *col, out.as_ref());
    }

    // Checkpoint at mid-run, restore into a fresh session, finish both.
    own.attempt(1);
    let mut first = Session::new(mode(), &cfg, budget).map_err(|e| e.to_string())?;
    own.ok("probe: first half", first.run_for(budget / 2));
    let bytes = span("sim", "sim.checkpoint", || first.checkpoint());
    trace::value("sim.checkpoint_kb", bytes.len() as f64 / 1024.0);
    let mut second = Session::new(mode(), &cfg, budget).map_err(|e| e.to_string())?;
    own.ok(
        "probe: restore",
        span("sim", "sim.restore", || second.restore(&bytes)),
    );
    let (a, b) = (first.run(), second.run());
    own.check(
        matches!((&a, &b), (Ok(a), Ok(b)) if a.output.stats.cycles == b.output.stats.cycles),
        || "probe: restored run diverged".to_string(),
    );

    // The frontier's attacker half, point by point, on its own inputs.
    let w = frontier::app()?;
    let surface = span("gadget", "gadget.scan", || AttackSurface::scan(&w.image));
    let seeds = seed_corpus(&surface);
    let fz = frontier::fuzz_config(ctx.seed);
    for pt in FRONTIER_POINTS {
        let e = format!("e{}", pt.entropy_bits);
        let params = pt.params();
        own.attempt(3);
        let rp = span("rewriter", &format!("rewriter.randomize.{e}"), || {
            randomize(&w.image, &RandomizeConfig::from_params(seed, &params))
        });
        let Some(rp) = own.ok(&format!("probe: randomize {e}"), rp) else {
            continue;
        };
        for _ in 0..REPEATS {
            let machine = span("isa", &format!("isa.machine_new.{e}"), || {
                rp.scattered_machine()
            });
            drop(machine);
            span("gadget", &format!("gadget.launch.{e}"), || {
                surface.launch_against(&rp, &seeds[0], fz.exec_budget)
            });
        }
        let trial = span("gadget", &format!("gadget.trial.{e}"), || {
            fuzz_trial(&surface, &seeds, &params, &fz, 0)
        });
        if trial.probes_spent > 0 {
            let frac = trial.chains_extended as f64 / f64::from(trial.probes_spent);
            trace::value("gadget.mapped_probe_frac", frac);
        }
    }
    Ok(ladder)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
