//! The `vcfr serve` daemon: a localhost TCP listener, a bounded worker
//! pool, and a checkpoint-backed job store under the state directory.
//!
//! On-disk layout (everything written atomically via tmp + rename, so a
//! hard kill never leaves a half-written file):
//!
//! ```text
//! <dir>/endpoint                   bound host:port (removed on graceful exit)
//! <dir>/jobs/job-<id>.json         job spec + phase
//! <dir>/jobs/job-<id>.ckpt         latest engine checkpoint (versioned)
//! <dir>/jobs/job-<id>.manifest.json  canonical run manifest, once done
//! ```

use crate::metrics::MetricsHub;
use crate::protocol::{
    err_response, hex_decode, ok_response, send_lines, JobPhase, ServiceError, ENDPOINT_FILE,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vcfr_bench::{RunSpec, WorkerPool};
use vcfr_obs::{parse_json, Backoff, Json, ProgressEvent};
use vcfr_sim::{CheckpointError, SessionStatus, VcfrError};

/// How the daemon is configured.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// State directory (endpoint file, job store, checkpoints).
    pub dir: PathBuf,
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Jobs the admission queue holds before `submit` is refused.
    pub queue_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            dir: PathBuf::from("results/service"),
            port: 0,
            workers: 2,
            queue_capacity: 16,
        }
    }
}

/// One job's live state (the registry entry watchers poll).
struct JobState {
    spec: RunSpec,
    phase: JobPhase,
    instructions: u64,
    cycles: u64,
    checkpoints: u64,
    error: Option<String>,
    /// Bumped on every change so watchers only emit fresh lines.
    seq: u64,
    /// The latest reading from the job's telemetry tap (deterministic
    /// fields only; never persisted).
    progress: Option<ProgressEvent>,
    /// Progress events received so far — watchers compare against it
    /// to tell a fresh reading from a mere status bump.
    progress_count: u64,
}

impl JobState {
    fn new(spec: RunSpec, phase: JobPhase, error: Option<String>) -> JobState {
        JobState {
            spec,
            phase,
            instructions: 0,
            cycles: 0,
            checkpoints: 0,
            error,
            seq: 0,
            progress: None,
            progress_count: 0,
        }
    }
}

struct Inner {
    jobs_dir: PathBuf,
    stopping: AtomicBool,
    jobs: Mutex<BTreeMap<u64, JobState>>,
    changed: Condvar,
    metrics: MetricsHub,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Mutates one registry entry and wakes every watcher.
    fn update<F: FnOnce(&mut JobState)>(&self, id: u64, f: F) {
        let mut jobs = self.jobs.lock().expect("registry lock");
        if let Some(st) = jobs.get_mut(&id) {
            f(st);
            st.seq += 1;
        }
        self.changed.notify_all();
    }
}

fn job_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.json"))
}

fn ckpt_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ckpt"))
}

fn manifest_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.manifest.json"))
}

/// Writes `bytes` to `path` atomically: a hard kill leaves either the
/// old file or the new one, never a torn write.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("service-write")
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Persists one job's spec + phase (progress lives in the checkpoint).
fn persist_job(dir: &Path, id: u64, st: &JobState) -> std::io::Result<()> {
    let mut j = Json::obj();
    j.set("id", Json::U64(id));
    j.set("spec", st.spec.to_json());
    j.set("phase", Json::Str(st.phase.as_str().to_string()));
    match &st.error {
        Some(e) => j.set("error", Json::Str(e.clone())),
        None => j.set("error", Json::Null),
    };
    write_atomic(&job_file(dir, id), j.pretty().as_bytes())
}

/// One status object (shared by `jobs`, `status`, and `watch` lines).
fn status_json(id: u64, st: &JobState) -> Json {
    let mut j = Json::obj();
    j.set("id", Json::U64(id));
    j.set("workload", Json::Str(st.spec.workload.clone()));
    j.set("mode", Json::Str(st.spec.mode.to_string()));
    j.set("phase", Json::Str(st.phase.as_str().to_string()));
    j.set("instructions", Json::U64(st.instructions));
    j.set("max_insts", Json::U64(st.spec.max_insts));
    j.set("cycles", Json::U64(st.cycles));
    j.set("checkpoints", Json::U64(st.checkpoints));
    match &st.error {
        Some(e) => j.set("error", Json::Str(e.clone())),
        None => j.set("error", Json::Null),
    };
    j
}

/// Reloads the job store: terminal jobs keep their phase for listings,
/// everything else is re-admitted as queued (a `running` phase on disk
/// can only mean the previous daemon died mid-run). Also returns the
/// next free id, past every record on disk: a record whose spec
/// admission refuses is skipped, but its file is never reused.
fn load_jobs(jobs_dir: &Path) -> (BTreeMap<u64, JobState>, Vec<u64>, u64) {
    let mut jobs = BTreeMap::new();
    let mut resumable = Vec::new();
    let mut next_id = 1;
    let Ok(entries) = std::fs::read_dir(jobs_dir) else {
        return (jobs, resumable, next_id);
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !name.starts_with("job-") || !name.ends_with(".json") || name.contains(".manifest") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
        let Ok(doc) = parse_json(&text) else { continue };
        let Some(id) = doc.get("id").and_then(Json::as_u64) else { continue };
        next_id = next_id.max(id.saturating_add(1));
        let Some(spec) = doc.get("spec").and_then(|s| RunSpec::from_json(s).ok()) else {
            continue;
        };
        let phase = doc
            .get("phase")
            .and_then(Json::as_str)
            .and_then(JobPhase::from_disk)
            .unwrap_or(JobPhase::Queued);
        let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
        if !phase.is_terminal() {
            resumable.push(id);
        }
        jobs.insert(id, JobState::new(spec, phase, error));
    }
    resumable.sort_unstable();
    (jobs, resumable, next_id)
}

/// Marks a job failed, in the registry, on disk, and in the metrics
/// hub (`started` anchors its latency sample).
fn fail_job(inner: &Inner, id: u64, started: Instant, msg: String) {
    inner.metrics.record_job(started.elapsed().as_millis() as u64, false, 0);
    inner.update(id, |st| {
        st.phase = JobPhase::Failed;
        st.error = Some(msg);
    });
    let jobs = inner.jobs.lock().expect("registry lock");
    if let Some(st) = jobs.get(&id) {
        let _ = persist_job(&inner.jobs_dir, id, st);
    }
}

/// The telemetry-tap interval for a job: ~100 readings across its
/// instruction budget. A pure function of the spec, so every run of
/// the same job emits events at identical instruction boundaries.
fn progress_interval(spec: &RunSpec) -> u64 {
    (spec.max_insts / 100).max(1)
}

/// Simulates one job to completion (or to the next graceful-shutdown
/// window), checkpointing after every chunk.
fn run_job(inner: &Inner, id: u64) {
    let started = Instant::now();
    let spec = {
        let jobs = inner.jobs.lock().expect("registry lock");
        match jobs.get(&id) {
            Some(st) if !st.phase.is_terminal() => st.spec.clone(),
            _ => return,
        }
    };
    if inner.stopping() {
        return; // stays queued on disk; the next start re-admits it
    }

    let (w, layout) = match spec.prepare() {
        Ok(built) => built,
        Err(e) => {
            fail_job(inner, id, started, e.to_string());
            return;
        }
    };
    let mut session = match spec.session(&w.image, layout.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            fail_job(inner, id, started, e.to_string());
            return;
        }
    }
    // The telemetry tap: each reading lands in the registry (waking
    // watchers, who stream it as a `progress` event) and ticks the
    // daemon-wide counter. Boundaries are instruction counts, so the
    // simulated results are byte-identical with or without the tap.
    .with_progress(progress_interval(&spec), |e| {
        inner.metrics.record_progress_event();
        inner.update(id, |st| {
            st.instructions = e.instructions;
            st.cycles = e.cycles;
            st.progress = Some(*e);
            st.progress_count += 1;
        });
    });

    // Resume from the latest snapshot, if the previous daemon (or a
    // fleet re-dispatch) left one. A snapshot of another format version
    // cannot be read; per the version policy the job then re-runs from
    // instruction 0 rather than failing.
    let ckpt_path = ckpt_file(&inner.jobs_dir, id);
    if let Ok(bytes) = std::fs::read(&ckpt_path) {
        match session.restore(&bytes) {
            Ok(()) | Err(VcfrError::Checkpoint(CheckpointError::Version { .. })) => {}
            Err(e) => {
                fail_job(inner, id, started, format!("checkpoint rejected: {e}"));
                return;
            }
        }
    }

    inner.update(id, |st| {
        st.phase = JobPhase::Running;
        st.instructions = session.instructions();
    });

    loop {
        if inner.stopping() {
            // Graceful drain: snapshot, then park the job as queued so
            // the next start resumes exactly here.
            let _ = write_atomic(&ckpt_path, &session.checkpoint());
            inner.update(id, |st| st.phase = JobPhase::Queued);
            return;
        }
        match session.run_for(spec.checkpoint_every) {
            Err(e) => {
                fail_job(inner, id, started, e.to_string());
                return;
            }
            Ok(SessionStatus::Running) => {
                let _ = write_atomic(&ckpt_path, &session.checkpoint());
                let stats = session.stats_now();
                inner.update(id, |st| {
                    st.instructions = stats.instructions;
                    st.cycles = stats.cycles;
                    st.checkpoints += 1;
                });
            }
            Ok(SessionStatus::Done(out)) => {
                let manifest = spec.manifest(&out, Json::obj());
                let written = write_atomic(
                    &manifest_file(&inner.jobs_dir, id),
                    manifest.canonical_bytes().as_bytes(),
                );
                let _ = std::fs::remove_file(&ckpt_path);
                inner.metrics.record_job(
                    started.elapsed().as_millis() as u64,
                    written.is_ok(),
                    out.output.stats.instructions,
                );
                match written {
                    Ok(()) => inner.update(id, |st| {
                        st.phase = JobPhase::Done;
                        st.instructions = out.output.stats.instructions;
                        st.cycles = out.output.stats.cycles;
                    }),
                    Err(e) => inner.update(id, |st| {
                        st.phase = JobPhase::Failed;
                        st.error = Some(format!("manifest write failed: {e}"));
                    }),
                }
                let jobs = inner.jobs.lock().expect("registry lock");
                if let Some(st) = jobs.get(&id) {
                    let _ = persist_job(&inner.jobs_dir, id, st);
                }
                return;
            }
        }
    }
}

/// Handles the `submit` op: validate, persist, admit.
fn handle_submit(
    inner: &Inner,
    pool: &WorkerPool<u64>,
    next_id: &Mutex<u64>,
    req: &Json,
) -> Json {
    let Some(job) = req.get("job") else {
        return err_response("submit needs a \"job\" object");
    };
    let spec = match RunSpec::from_json(job) {
        Ok(spec) => spec,
        Err(e) => return err_response(&ServiceError::Protocol(e.0).to_string()),
    };
    // A fleet coordinator re-dispatching a lost job attaches the dead
    // worker's last checkpoint (hex, inside the JSON string); the run
    // then resumes from it through the ordinary restore path, envelope
    // validation included.
    let ckpt = match req.get("ckpt") {
        None | Some(Json::Null) => None,
        Some(v) => match v.as_str().and_then(hex_decode) {
            Some(bytes) => Some(bytes),
            None => return err_response("ckpt must be a hex string"),
        },
    };
    let id = {
        let mut next = next_id.lock().expect("id lock");
        let id = *next;
        *next += 1;
        id
    };
    let st = JobState::new(spec, JobPhase::Queued, None);
    // Persist before admitting: a kill right after this line still
    // leaves a resumable job on disk.
    if let Err(e) = persist_job(&inner.jobs_dir, id, &st) {
        return err_response(&format!("cannot persist job: {e}"));
    }
    if let Some(bytes) = ckpt {
        if let Err(e) = write_atomic(&ckpt_file(&inner.jobs_dir, id), &bytes) {
            let _ = std::fs::remove_file(job_file(&inner.jobs_dir, id));
            return err_response(&format!("cannot persist checkpoint: {e}"));
        }
    }
    inner.jobs.lock().expect("registry lock").insert(id, st);
    if pool.try_submit(id).is_err() {
        inner.jobs.lock().expect("registry lock").remove(&id);
        let _ = std::fs::remove_file(job_file(&inner.jobs_dir, id));
        let _ = std::fs::remove_file(ckpt_file(&inner.jobs_dir, id));
        return err_response("queue full; retry later");
    }
    let mut resp = ok_response();
    resp.set("id", Json::U64(id));
    resp
}

/// Handles the `fetch` op: one job's status plus, once it is done, the
/// canonical manifest text and its conventional file name — what the
/// fleet coordinator merges into the shared `results/` tree.
fn handle_fetch(inner: &Inner, id: u64) -> Json {
    let (status, spec, phase) = {
        let jobs = inner.jobs.lock().expect("registry lock");
        match jobs.get(&id) {
            None => return err_response("no such job"),
            Some(st) => (status_json(id, st), st.spec.clone(), st.phase),
        }
    };
    let mut r = ok_response();
    r.set("job", status);
    if phase == JobPhase::Done {
        match std::fs::read_to_string(manifest_file(&inner.jobs_dir, id)) {
            Ok(text) => {
                r.set("file", Json::Str(spec.manifest_file_name()));
                r.set("manifest", Json::Str(text));
            }
            Err(e) => return err_response(&format!("manifest unreadable: {e}")),
        }
    }
    r
}

/// Streams watch lines for one job until it reaches a terminal phase
/// (or the daemon starts shutting down): a `{"event":"progress"}` line
/// for every fresh telemetry reading, and a `{"event":"status"}` line
/// when the phase changes (plus one up front, so a watcher always sees
/// where the job stands). The wait between registry changes backs off
/// exponentially (capped) while nothing moves, so idle watchers cost
/// the daemon next to nothing; any change snaps it back down. The lines
/// of one wakeup, the final `end` included, go out as one write.
fn handle_watch(inner: &Inner, out: &mut TcpStream, id: u64) -> std::io::Result<()> {
    let mut last_seq: Option<u64> = None;
    let mut last_progress = 0u64;
    let mut last_phase: Option<JobPhase> = None;
    let mut wait = Backoff::new(Duration::from_millis(25), Duration::from_millis(1_600));
    loop {
        let (mut lines, terminal) = {
            let mut jobs = inner.jobs.lock().expect("registry lock");
            loop {
                let Some(st) = jobs.get(&id) else {
                    return send_lines(out, [&err_response("no such job")]);
                };
                if last_seq != Some(st.seq) || st.phase.is_terminal() || inner.stopping() {
                    last_seq = Some(st.seq);
                    wait.reset();
                    let mut lines = Vec::new();
                    if st.progress_count > last_progress {
                        if let Some(p) = &st.progress {
                            let mut line = p.to_json();
                            line.set("event", Json::Str("progress".to_string()));
                            line.set("id", Json::U64(id));
                            line.set("max_insts", Json::U64(st.spec.max_insts));
                            // Readings that landed while this watcher
                            // was between wakeups (coalesced away).
                            line.set(
                                "coalesced",
                                Json::U64(st.progress_count - last_progress - 1),
                            );
                            lines.push(line);
                        }
                        last_progress = st.progress_count;
                    }
                    if last_phase != Some(st.phase) || st.phase.is_terminal() || inner.stopping()
                    {
                        last_phase = Some(st.phase);
                        let mut line = status_json(id, st);
                        line.set("event", Json::Str("status".to_string()));
                        lines.push(line);
                    }
                    if !lines.is_empty() || st.phase.is_terminal() || inner.stopping() {
                        break (lines, st.phase.is_terminal() || inner.stopping());
                    }
                }
                let (guard, timeout) =
                    inner.changed.wait_timeout(jobs, wait.current()).expect("registry lock");
                jobs = guard;
                if timeout.timed_out() {
                    wait.step();
                }
            }
        };
        if terminal {
            let mut end = Json::obj();
            end.set("event", Json::Str("end".to_string()));
            end.set("id", Json::U64(id));
            lines.push(end);
            return send_lines(out, &lines);
        }
        send_lines(out, &lines)?;
    }
}

/// Serves one client connection (requests are handled sequentially on
/// the connection's own thread).
fn handle_conn(
    stream: TcpStream,
    inner: Arc<Inner>,
    pool: Arc<WorkerPool<u64>>,
    next_id: Arc<Mutex<u64>>,
    addr: std::net::SocketAddr,
) {
    let Ok(reader) = stream.try_clone() else { return };
    let mut writer = stream;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match parse_json(&line) {
            Err(e) => err_response(&format!("malformed request: {e}")),
            Ok(req) => match req.get("op").and_then(Json::as_str) {
                Some("ping") => {
                    let mut r = ok_response();
                    r.set("service", Json::Str("vcfr-serve".to_string()));
                    r.set(
                        "jobs",
                        Json::U64(inner.jobs.lock().expect("registry lock").len() as u64),
                    );
                    r
                }
                Some("submit") => handle_submit(&inner, &pool, &next_id, &req),
                Some("jobs") => {
                    let jobs = inner.jobs.lock().expect("registry lock");
                    let mut r = ok_response();
                    r.set(
                        "jobs",
                        Json::Arr(jobs.iter().map(|(id, st)| status_json(*id, st)).collect()),
                    );
                    r
                }
                Some("fetch") => match req.get("id").and_then(Json::as_u64) {
                    None => err_response("fetch needs a job id"),
                    Some(id) => handle_fetch(&inner, id),
                },
                Some("status") => match req.get("id").and_then(Json::as_u64) {
                    None => err_response("status needs a job id"),
                    Some(id) => {
                        let jobs = inner.jobs.lock().expect("registry lock");
                        match jobs.get(&id) {
                            None => err_response("no such job"),
                            Some(st) => {
                                let mut r = ok_response();
                                r.set("job", status_json(id, st));
                                r
                            }
                        }
                    }
                },
                Some("metrics") => {
                    let (by_phase, insts_in_flight) = {
                        let jobs = inner.jobs.lock().expect("registry lock");
                        let mut counts = (0u64, 0u64, 0u64, 0u64);
                        let mut insts = 0u64;
                        for st in jobs.values() {
                            match st.phase {
                                JobPhase::Queued => counts.0 += 1,
                                JobPhase::Running => counts.1 += 1,
                                JobPhase::Done => counts.2 += 1,
                                JobPhase::Failed => counts.3 += 1,
                            }
                            if !st.phase.is_terminal() {
                                insts += st.instructions;
                            }
                        }
                        (counts, insts)
                    };
                    let mut r = ok_response();
                    r.set(
                        "metrics",
                        inner.metrics.to_json(&pool.snapshot(), by_phase, insts_in_flight),
                    );
                    r
                }
                Some("watch") => match req.get("id").and_then(Json::as_u64) {
                    None => err_response("watch needs a job id"),
                    Some(id) => {
                        if handle_watch(&inner, &mut writer, id).is_err() {
                            return;
                        }
                        continue;
                    }
                },
                Some("shutdown") => {
                    // Acknowledge before triggering the stop, so the
                    // reply reaches the client even if the daemon wins
                    // the race and exits first.
                    if send_lines(&mut writer, [&ok_response()]).is_err() {
                        return;
                    }
                    inner.stopping.store(true, Ordering::SeqCst);
                    inner.changed.notify_all();
                    // Wake the accept loop so `serve` can wind down.
                    let _ = TcpStream::connect(addr);
                    return;
                }
                _ => err_response("unknown op"),
            },
        };
        if send_lines(&mut writer, [&resp]).is_err() {
            return;
        }
    }
}

/// Runs the daemon until a client sends `shutdown`: binds 127.0.0.1,
/// writes the endpoint file, re-admits every non-terminal job found in
/// the state directory, then accepts JSON-lines clients.
///
/// # Errors
///
/// [`ServiceError::Io`] when the state directory or the socket cannot
/// be set up. Per-job failures never abort the daemon — they are
/// recorded in the job's status.
pub fn serve(opts: &ServeOptions) -> Result<(), ServiceError> {
    let jobs_dir = opts.dir.join("jobs");
    std::fs::create_dir_all(&jobs_dir)?;
    let (jobs, resumable, next_id) = load_jobs(&jobs_dir);
    let next_id = Arc::new(Mutex::new(next_id));
    let inner = Arc::new(Inner {
        jobs_dir,
        stopping: AtomicBool::new(false),
        jobs: Mutex::new(jobs),
        changed: Condvar::new(),
        metrics: MetricsHub::new(),
    });

    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;

    let pool_inner = Arc::clone(&inner);
    let pool = Arc::new(WorkerPool::new(
        opts.workers,
        opts.queue_capacity.max(resumable.len()),
        move |id| run_job(&pool_inner, id),
    ));
    for id in resumable {
        let _ = pool.try_submit(id);
    }

    // The endpoint file is the last thing written: once it exists,
    // clients may connect.
    write_atomic(&opts.dir.join(ENDPOINT_FILE), format!("{addr}\n").as_bytes())?;

    for conn in listener.incoming() {
        if inner.stopping() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let inner = Arc::clone(&inner);
        let pool = Arc::clone(&pool);
        let next_id = Arc::clone(&next_id);
        std::thread::spawn(move || handle_conn(stream, inner, pool, next_id, addr));
    }

    // Workers observe `stopping` at their next chunk boundary,
    // checkpoint, and park their job as queued.
    pool.stop();
    let _ = std::fs::remove_file(opts.dir.join(ENDPOINT_FILE));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small VCFR job, chunked so it checkpoints along the way.
    fn spec() -> RunSpec {
        let mut spec = RunSpec::new("bzip2");
        spec.max_insts = 20_000;
        spec.checkpoint_every = 5_000;
        spec
    }

    /// Runs job 1 of a fresh store holding `ckpt` (if any) as its
    /// snapshot; returns the final phase and the manifest bytes.
    fn run_in_store(tag: &str, ckpt: Option<&[u8]>) -> (JobPhase, Vec<u8>) {
        let dir = std::env::temp_dir().join(format!("vcfr-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp store");
        let inner = Inner {
            jobs_dir: dir.clone(),
            stopping: AtomicBool::new(false),
            jobs: Mutex::new(BTreeMap::from([(1, JobState::new(spec(), JobPhase::Queued, None))])),
            changed: Condvar::new(),
            metrics: MetricsHub::new(),
        };
        if let Some(bytes) = ckpt {
            std::fs::write(ckpt_file(&dir, 1), bytes).expect("write snapshot");
        }
        run_job(&inner, 1);
        let phase = inner.jobs.lock().expect("registry lock")[&1].phase;
        let manifest = std::fs::read(manifest_file(&dir, 1)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        (phase, manifest)
    }

    /// A genuine mid-run snapshot of [`spec`]'s job, as the daemon
    /// builds it.
    fn snapshot() -> Vec<u8> {
        let spec = spec();
        let (w, layout) = spec.prepare().expect("builds");
        let mut session = spec.session(&w.image, layout.as_ref()).expect("valid");
        session.run_for(spec.checkpoint_every).expect("first chunk");
        session.checkpoint()
    }

    #[test]
    fn an_other_version_checkpoint_restarts_the_job() {
        let mut future = snapshot();
        let version = vcfr_sim::CHECKPOINT_VERSION + 1;
        future[8..12].copy_from_slice(&version.to_le_bytes());
        let (phase, resumed) = run_in_store("future-ckpt", Some(&future));
        let (_, fresh) = run_in_store("fresh", None);
        assert_eq!(phase, JobPhase::Done);
        assert!(!fresh.is_empty());
        assert_eq!(resumed, fresh, "the restarted job matches a fresh run");
    }

    #[test]
    fn a_record_admission_refuses_keeps_its_id() {
        let dir = std::env::temp_dir().join(format!("vcfr-daemon-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp store");
        let text = r#"{"id":7,"spec":{"workload":"bzip2","mode":"base","rerand_epoch":1000}}"#;
        std::fs::write(job_file(&dir, 7), text).expect("write record");
        let (jobs, resumable, next_id) = load_jobs(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(jobs.is_empty() && resumable.is_empty());
        assert_eq!(next_id, 8, "job 7's file is not overwritten by the next submit");
    }

    #[test]
    fn a_corrupt_checkpoint_still_fails_the_job() {
        let mut corrupt = snapshot();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let (phase, manifest) = run_in_store("corrupt-ckpt", Some(&corrupt));
        assert_eq!(phase, JobPhase::Failed);
        assert!(manifest.is_empty());
    }
}
