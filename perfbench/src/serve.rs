//! `serve`: a closed loop of client threads, one connection each, against
//! an in-process `vcfr serve` daemon with default options. Each client
//! submits a short job, watches it to its end, fetches its manifest, then
//! submits the next.

use crate::gate::Gate;
use crate::matrix::{run_cell, Prepared, COLS};
use crate::services::{connect, Daemon};
use crate::trace::{self, span, span_run};
use crate::util::{derive, shuffle};
use crate::workload::{ms_since, next_job, Ctx, Pass, Workload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vcfr_bench::ModeSpec;
use vcfr_obs::Json;
use vcfr_rewriter::{randomize, RandomizeConfig};
use vcfr_service::{Client, JobSpec};
use vcfr_workloads::{by_name, SPEC_NAMES};

/// Instruction budget of one job.
pub const BUDGET: u64 = 60_000;

pub struct Serve {
    ctx: Ctx,
    daemon: Daemon,
    specs: Vec<JobSpec>,
    next: AtomicUsize,
}

/// A short job: `budget` instructions, a checkpoint every tenth.
pub fn job_spec(app: &str, mode: ModeSpec, budget: u64, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(app);
    spec.mode = mode;
    spec.max_insts = budget;
    spec.checkpoint_every = (budget / 10).max(1);
    spec.seed = seed;
    spec
}

/// Starts the daemon and computes, in process, the manifest every job
/// must come back with: the same image, layout, configuration and
/// sampling through one uninterrupted `Session::run` instead of the
/// daemon's checkpointed chunks.
pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let daemon = Daemon::start(
        ctx.dir.join("daemon"),
        vcfr_service::ServeOptions::default().workers,
    )?;
    let mut specs = Vec::new();
    for (i, name) in SPEC_NAMES.iter().enumerate() {
        let seed = derive(ctx.seed, i as u64);
        let app = span("workloads", "workloads.build", || by_name(name))
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let rp = randomize(&app.image, &RandomizeConfig::with_seed(seed))
            .map_err(|e| format!("{name}: randomize: {e}"))?;
        let p = Prepared {
            app,
            rp,
            reference: Vec::new(),
        };
        for col in [COLS[0], COLS[3]] {
            let cell =
                run_cell(&p, col, BUDGET).map_err(|e| format!("{name} {}: {e}", col.name))?;
            ctx.gate.manifest(&cell.file, &cell.canonical);
            specs.push(job_spec(name, col.mode, BUDGET, seed));
        }
    }
    shuffle(&mut specs, derive(ctx.seed, 0x5e7e));
    Ok(Box::new(Serve {
        ctx: ctx.clone(),
        daemon,
        specs,
        next: AtomicUsize::new(0),
    }))
}

/// Submits `spec`, watches it to its end and fetches its manifest.
/// Returns the committed instruction count of a job that passed the
/// gate. Counts the job and its three RPCs as attempted.
pub fn one_job(client: &mut Client, spec: &JobSpec, gate: &Gate) -> Option<u64> {
    gate.attempt(4);
    let submitted = span("service", "service.submit", || client.submit(spec));
    let id = match submitted {
        Ok(id) => id,
        Err(e) => {
            if e.to_string().contains("queue full") {
                trace::value("service.refused", 1.0);
            }
            gate.miss(format!("submit {}: {e}", spec.manifest_file_name()));
            return None;
        }
    };
    // The daemon's first watch event ends the queue phase as the client
    // sees it: a short job is often running or done by then.
    let t_sub = Instant::now();
    let mut t_first = None;
    let watched = span("service", "service.watch", || {
        client.watch(id, |_| {
            t_first.get_or_insert_with(Instant::now);
        })
    });
    gate.ok("watch", watched)?;
    let t_end = Instant::now();
    let (job, manifest) = gate.ok(
        "fetch",
        span("service", "service.fetch", || client.fetch(id)),
    )?;
    let phase = job.get("phase").and_then(Json::as_str).unwrap_or("");
    let Some((file, text)) = manifest.filter(|_| phase == "done") else {
        gate.miss(format!("job {id} ended {phase}: {:?}", job.get("error")));
        return None;
    };
    gate.service_manifest(&file, &text);
    if let Some(t) = t_first {
        trace::value("service.queue_ms", (t - t_sub).as_secs_f64() * 1e3);
        trace::value("service.run_ms", (t_end - t).as_secs_f64() * 1e3);
    }
    let checkpoints = job.get("checkpoints").and_then(Json::as_u64).unwrap_or(0);
    trace::value("service.checkpoints_per_job", checkpoints as f64);
    job.get("instructions").and_then(Json::as_u64)
}

/// Mean worker utilization the daemon reports through `metrics`.
pub fn record_worker_util(client: &mut Client) {
    let Ok(m) = client.metrics() else { return };
    let utils: Vec<f64> = m
        .get("workers")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("utilization").and_then(Json::as_f64))
        .collect();
    if !utils.is_empty() {
        trace::value(
            "service.worker_util",
            utils.iter().sum::<f64>() / utils.len() as f64,
        );
    }
}

impl Workload for Serve {
    fn lanes(&self) -> usize {
        self.ctx.threads
    }

    fn pass(&mut self, deadline: Instant) -> Pass {
        let dir = &self.daemon.dir;
        let gate = &self.ctx.gate;
        let total = Mutex::new(Pass::default());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..self.ctx.threads {
                s.spawn(|| {
                    let mut mine = Pass::default();
                    match connect(dir) {
                        Err(e) => gate.miss(e),
                        Ok(mut client) => {
                            while Instant::now() < deadline {
                                let k = self.next.fetch_add(1, Ordering::Relaxed);
                                let spec = &self.specs[k % self.specs.len()];
                                let t = Instant::now();
                                let done = span_run("harness", "job", Some(next_job()), || {
                                    one_job(&mut client, spec, gate)
                                });
                                if let Some(insts) = done {
                                    mine.jobs_ms.push(ms_since(t));
                                    mine.insts += insts;
                                }
                            }
                            if trace::on() {
                                record_worker_util(&mut client);
                            }
                        }
                    }
                    total.lock().expect("pass lock").absorb(mine);
                });
            }
        });
        let mut pass = total.into_inner().expect("pass lock");
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        self.daemon.stop()
    }
}
