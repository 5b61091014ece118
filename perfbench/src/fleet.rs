//! `fleet`: one client submits a fixed batch of chunks to an in-process
//! `vcfr fleet` coordinator with default options and two one-worker
//! daemons, then polls `fleet_status` until every chunk is merged.

use crate::gate::Gate;
use crate::services::{connect, Fleet as Running};
use crate::trace::{self, span, span_run};
use crate::util::{derive, shuffle};
use crate::workload::{next_job, Ctx, Pass, Workload};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use vcfr_bench::ModeSpec;
use vcfr_obs::{Json, Manifest};
use vcfr_service::{Client, JobSpec};
use vcfr_workloads::by_name;

/// Apps of the batch, each as base and vcfr128 at scale 1.
const APPS: [&str; 3] = ["bzip2", "gcc", "sjeng"];
/// The app of the batch's fault-campaign chunk.
const FAULT_APP: &str = "hmmer";
/// Worker daemons (one worker thread each).
pub const WORKERS: usize = 2;
/// Interval between `fleet_status` polls.
const POLL: Duration = Duration::from_millis(10);
/// A batch that takes longer than this has failed.
const BATCH_TIMEOUT: Duration = Duration::from_secs(120);

pub struct Fleet {
    ctx: Ctx,
    fleet: Running,
    client: Client,
    batch: Vec<JobSpec>,
}

/// A whole-program chunk of `app` (scale 1, its own budget).
pub fn chunk_spec(app: &str, mode: ModeSpec, faults: bool, seed: u64) -> Result<JobSpec, String> {
    let w = by_name(app).ok_or_else(|| format!("unknown workload {app}"))?;
    let mut spec = JobSpec::new(app);
    spec.mode = mode;
    spec.max_insts = w.max_insts;
    spec.checkpoint_every = (w.max_insts / 10).max(1);
    spec.seed = seed;
    spec.faults = faults;
    Ok(spec)
}

pub fn setup(ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    let fleet = Running::start(ctx.dir.join("fleet"), WORKERS)?;
    let client = connect(&fleet.dir)?;
    let mut batch = Vec::new();
    for (i, app) in APPS.iter().enumerate() {
        let seed = derive(ctx.seed, i as u64);
        batch.push(chunk_spec(app, ModeSpec::Base, false, seed)?);
        batch.push(chunk_spec(
            app,
            ModeSpec::Vcfr { drc_entries: 128 },
            false,
            seed,
        )?);
    }
    let fault_seed = derive(ctx.seed, APPS.len() as u64);
    batch.push(chunk_spec(
        FAULT_APP,
        ModeSpec::Vcfr { drc_entries: 128 },
        true,
        fault_seed,
    )?);
    shuffle(&mut batch, derive(ctx.seed, 0xf1ee7));
    Ok(Box::new(Fleet {
        ctx: ctx.clone(),
        fleet,
        client,
        batch,
    }))
}

/// When the client saw a chunk move.
struct Seen<'a> {
    spec: &'a JobSpec,
    submitted: Instant,
    dispatched: Option<Instant>,
    done: bool,
}

/// Submits `batch` and polls until every chunk is terminal. Returns the
/// latency of every merged chunk and the merged manifests' instructions.
pub fn run_batch(client: &mut Client, merged: &Path, batch: &[JobSpec], gate: &Gate) -> Pass {
    let mut pass = Pass::default();
    let mut seen: BTreeMap<u64, Seen> = BTreeMap::new();
    for spec in batch {
        gate.attempt(2); // the chunk and its submit RPC
        let submitted = Instant::now();
        let id = span("fleet", "fleet.submit", || client.submit(spec));
        if let Some(id) = gate.ok("fleet submit", id) {
            seen.insert(
                id,
                Seen {
                    spec,
                    submitted,
                    dispatched: None,
                    done: false,
                },
            );
        }
    }
    let start = Instant::now();
    let mut open = seen.len();
    while open > 0 {
        if start.elapsed() > BATCH_TIMEOUT {
            gate.miss(format!(
                "{open} fleet chunks still open after {BATCH_TIMEOUT:?}"
            ));
            break;
        }
        std::thread::sleep(POLL);
        gate.attempt(1);
        let status = span("fleet", "fleet.status", || client.fleet_status());
        let Some(status) = gate.ok("fleet status", status) else {
            continue;
        };
        let now = Instant::now();
        for c in status
            .get("chunk_list")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            let Some(s) = c
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|id| seen.get_mut(&id))
            else {
                continue;
            };
            if s.done {
                continue;
            }
            let file = s.spec.manifest_file_name();
            match c.get("phase").and_then(Json::as_str) {
                Some("dispatched") => {
                    s.dispatched.get_or_insert(now);
                }
                Some("done") => {
                    s.done = true;
                    open -= 1;
                    let redispatches = c.get("redispatches").and_then(Json::as_u64).unwrap_or(0);
                    trace::value("fleet.redispatches", redispatches as f64);
                    match std::fs::read_to_string(merged.join(&file)) {
                        Ok(text) => {
                            gate.service_manifest(&file, &text);
                            if let Ok(m) = Manifest::from_str(&text) {
                                pass.insts += m.counter("sim.instructions");
                            }
                        }
                        Err(e) => gate.miss(format!("{file}: merged manifest unreadable: {e}")),
                    }
                    pass.jobs_ms.push((now - s.submitted).as_secs_f64() * 1e3);
                    if let Some(d) = s.dispatched {
                        trace::value("fleet.dispatch_ms", (d - s.submitted).as_secs_f64() * 1e3);
                        trace::value("fleet.chunk_ms", (now - d).as_secs_f64() * 1e3);
                    }
                }
                Some("failed") => {
                    s.done = true;
                    open -= 1;
                    gate.miss(format!("fleet chunk {file} failed: {:?}", c.get("error")));
                }
                _ => {}
            }
        }
    }
    pass
}

impl Workload for Fleet {
    fn lanes(&self) -> usize {
        1
    }

    fn pass(&mut self, deadline: Instant) -> Pass {
        let mut pass = Pass::default();
        let merged = self.fleet.manifests_dir();
        let t0 = Instant::now();
        while Instant::now() < deadline {
            let batch = span_run("harness", "batch", Some(next_job()), || {
                run_batch(&mut self.client, &merged, &self.batch, &self.ctx.gate)
            });
            pass.absorb(batch);
        }
        pass.wall_s = t0.elapsed().as_secs_f64();
        pass
    }

    fn close(self: Box<Self>) -> Result<(), String> {
        let Fleet { fleet, client, .. } = *self;
        drop(client);
        fleet.stop()
    }
}
