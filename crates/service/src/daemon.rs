//! The `vcfr serve` daemon: a localhost TCP listener, a bounded worker
//! pool, and a checkpoint-backed job store under the state directory.
//!
//! On-disk layout. Records and manifests are written to a temporary
//! file and renamed into place, so a hard kill never leaves a
//! half-written one; a running job's snapshots are overwritten in place
//! in two files, so a kill leaves at least one of them whole (see
//! [`Snapshots`]):
//!
//! ```text
//! <dir>/endpoint                   bound host:port (removed on graceful exit)
//! <dir>/jobs/job-<id>.json         job spec + phase
//! <dir>/jobs/job-<id>.ckpt         latest engine checkpoint (versioned)
//! <dir>/jobs/job-<id>.ckpt.prev    the checkpoint before it
//! <dir>/jobs/job-<id>.manifest.json  canonical run manifest, once done
//! ```

use crate::metrics::MetricsHub;
use crate::protocol::{err_response, hex_decode, ok_response, send_lines, JobPhase, ServiceError};
use crate::server::{lock, read_records, record_file, serve_lines, wait, write_record, Retained};
use std::io::Write;
use std::net::TcpListener;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vcfr_bench::{write_atomic, RunSpec, WorkerPool};
use vcfr_obs::{parse_json, Backoff, Json, ProgressEvent};
use vcfr_sim::{checkpoint_is_whole, VcfrError};

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

/// Finished jobs the registry keeps in memory beside its open ones. An
/// older finished job answers `status`, `fetch` and `watch` from its
/// record and manifest on disk.
const KEEP_FINISHED: usize = 64;

struct Inner {
    jobs_dir: PathBuf,
    stopping: Arc<AtomicBool>,
    /// The job registry: every open job plus the [`KEEP_FINISHED`] most
    /// recently finished ones.
    jobs: Mutex<Retained<JobState, KEEP_FINISHED>>,
    /// The id the next `submit` gets.
    next_id: AtomicU64,
    changed: Condvar,
    metrics: MetricsHub,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Mutates one registry entry and wakes every watcher.
    fn update<F: FnOnce(&mut JobState)>(&self, id: u64, f: F) {
        self.note(id, f);
        self.changed.notify_all();
    }

    /// Mutates one registry entry without waking anyone: watchers pick
    /// the change up at their next wakeup.
    fn note<F: FnOnce(&mut JobState)>(&self, id: u64, f: F) {
        if let Some(st) = lock(&self.jobs).live.get_mut(&id) {
            f(st);
            st.seq += 1;
        }
    }

    /// Ends job `id`: `f` sets its terminal phase, the job's record is
    /// written and the job retires from the registry, all before any
    /// watcher wakes. A job seen finished has its final record on disk.
    fn finish<F: FnOnce(&mut JobState)>(&self, id: u64, f: F) {
        {
            let mut jobs = lock(&self.jobs);
            let Some(st) = jobs.live.get_mut(&id) else { return };
            f(st);
            st.seq += 1;
            let _ = persist_job(&self.jobs_dir, id, st);
            let done = st.phase == JobPhase::Done;
            jobs.retire(id, done);
        }
        self.changed.notify_all();
    }
}

/// The shortest time between two watcher wakeups for one running job's
/// progress. The tap fires about 100 times per job, which for a short
/// job is every few dozen microseconds. Waking every watcher for each
/// reading would cost a context switch and a TCP segment per reading,
/// and how many readings a wakeup coalesced, and so what a job cost,
/// would vary with thread timing. Readings in between still land in the
/// registry, and the next wakeup forwards the newest; a change of phase
/// wakes watchers at once.
const PROGRESS_WAKE_GAP: Duration = Duration::from_millis(10);

/// The kind of the daemon's records in the store: `job-<id>.json`.
const JOB: &str = "job";

/// Where a daemon with state directory `dir` keeps its jobs.
pub(crate) fn jobs_dir(dir: &Path) -> PathBuf {
    dir.join("jobs")
}

fn job_file(dir: &Path, id: u64) -> PathBuf {
    record_file(dir, JOB, id)
}

fn ckpt_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ckpt"))
}

fn prev_ckpt_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.ckpt.prev"))
}

pub(crate) fn manifest_file(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.manifest.json"))
}

/// Overwrites `path` with `bytes` in place, creating it if need be. It
/// makes no new file, so it costs a copy into the page cache rather than
/// the directory and journal work of a create and a rename. The file is
/// cut to length only after the write: truncating it to zero first would
/// make ext4 flush it to disk on close.
fn overwrite(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f =
        std::fs::OpenOptions::new().write(true).create(true).truncate(false).open(path)?;
    f.write_all(bytes)?;
    f.set_len(bytes.len() as u64)
}

/// A running job's snapshot files: the newest in `job-<id>.ckpt`, the one
/// before it in `job-<id>.ckpt.prev`. The first snapshot a run writes
/// replaces `job-<id>.ckpt` atomically; every later one overwrites both
/// files in place, the previous snapshot into `.prev` first. A kill
/// therefore tears at most the file being written while the other holds
/// a whole snapshot, and no snapshot after the first creates, renames or
/// deletes a file. (Renaming each snapshot over the one before makes
/// ext4 allocate its blocks at once and free the old ones, and on a
/// `discard` mount every free waits for the disk: 1.8 ms a snapshot
/// against 0.18 ms in place, at a cost that follows the disk's load.)
struct Snapshots {
    newest: PathBuf,
    prev: PathBuf,
    /// What `newest` holds, once this run has written it.
    last: Option<Vec<u8>>,
}

impl Snapshots {
    fn new(dir: &Path, id: u64) -> Snapshots {
        Snapshots { newest: ckpt_file(dir, id), prev: prev_ckpt_file(dir, id), last: None }
    }

    fn write(&mut self, bytes: Vec<u8>) -> std::io::Result<()> {
        match &self.last {
            None => write_atomic(&self.newest, &bytes)?,
            Some(last) => {
                overwrite(&self.prev, last)?;
                overwrite(&self.newest, &bytes)?;
            }
        }
        self.last = Some(bytes);
        Ok(())
    }

    fn remove(&self) {
        let _ = std::fs::remove_file(&self.newest);
        let _ = std::fs::remove_file(&self.prev);
    }
}

/// The newest whole snapshot of job `id` in `dir`: `job-<id>.ckpt`, or
/// `job-<id>.ckpt.prev` when a kill tore the former. `None` when neither
/// is whole (or there is none).
pub(crate) fn newest_snapshot(dir: &Path, id: u64) -> Option<Vec<u8>> {
    [ckpt_file(dir, id), prev_ckpt_file(dir, id)]
        .iter()
        .filter_map(|path| std::fs::read(path).ok())
        .find(|bytes| checkpoint_is_whole(bytes))
}

/// Persists one job's spec, phase and status counters (a running job's
/// progress lives in its checkpoint; a finished job's counters are final,
/// so its status can be answered from here).
fn persist_job(dir: &Path, id: u64, st: &JobState) -> std::io::Result<()> {
    write_record(dir, JOB, id, |j| {
        j.set("spec", st.spec.to_json());
        j.set("phase", Json::Str(st.phase.as_str().to_string()));
        j.set("error", st.error.clone().map_or(Json::Null, Json::Str));
        j.set("instructions", Json::U64(st.instructions));
        j.set("cycles", Json::U64(st.cycles));
        j.set("checkpoints", Json::U64(st.checkpoints));
    })
}

/// A job as its record describes it; `None` when admission refuses the
/// record's spec.
fn job_from_record(doc: &Json) -> Option<JobState> {
    let spec = doc.get("spec").and_then(|s| RunSpec::from_json(s).ok())?;
    let phase = doc
        .get("phase")
        .and_then(Json::as_str)
        .and_then(JobPhase::from_disk)
        .unwrap_or(JobPhase::Queued);
    let error = doc.get("error").and_then(Json::as_str).map(str::to_string);
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    Some(JobState {
        instructions: count("instructions"),
        cycles: count("cycles"),
        checkpoints: count("checkpoints"),
        ..JobState::new(spec, phase, error)
    })
}

/// Finished job `id` as its record in `dir` holds it: what `status`,
/// `fetch` and `watch` answer from once the job has left the registry.
fn finished_job(dir: &Path, id: u64) -> Option<JobState> {
    let text = std::fs::read_to_string(job_file(dir, id)).ok()?;
    job_from_record(&parse_json(&text).ok()?).filter(|st| st.phase.is_terminal())
}

/// Applies `f` to job `id`: its registry entry, or its record on disk
/// once it has left the registry. `None` for an id the daemon does not
/// know.
fn with_job<R>(inner: &Inner, id: u64, f: impl FnOnce(&JobState) -> R) -> Option<R> {
    if let Some(st) = lock(&inner.jobs).live.get(&id) {
        return Some(f(st));
    }
    finished_job(&inner.jobs_dir, id).map(|st| f(&st))
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

/// Reloads the job store: everything not finished is re-admitted as
/// queued (a `running` phase on disk can only mean the previous daemon
/// died mid-run), and the [`KEEP_FINISHED`] newest finished jobs keep
/// their phase for listings. Also returns the next free id: a record
/// whose spec admission refuses is skipped, but its file is never
/// reused.
fn load_jobs(jobs_dir: &Path) -> (Retained<JobState, KEEP_FINISHED>, u64) {
    let (records, next_id) = read_records(jobs_dir, JOB);
    let mut jobs = Retained::default();
    for (id, doc) in records {
        let Some(st) = job_from_record(&doc) else { continue };
        let (finished, done) = (st.phase.is_terminal(), st.phase == JobPhase::Done);
        jobs.live.insert(id, st);
        if finished {
            jobs.retire(id, done);
        }
    }
    (jobs, next_id)
}

/// Marks a job failed, in the registry, on disk, and in the metrics
/// hub (`started` anchors its latency sample).
fn fail_job(inner: &Inner, id: u64, started: Instant, msg: String) {
    inner.metrics.record_job(started.elapsed().as_millis() as u64, false, 0);
    inner.finish(id, |st| {
        st.phase = JobPhase::Failed;
        st.error = Some(msg);
    });
}

/// Runs job `id` through `run` (the daemon passes [`run_job`]). A run
/// that panics fails its job, naming the panic, so its watchers get
/// `end` and its record says why; the pool's worker thread lives on.
fn run_caught(inner: &Inner, id: u64, run: impl FnOnce(&Inner, u64)) {
    let started = Instant::now();
    let Err(panic) = panic::catch_unwind(AssertUnwindSafe(|| run(inner, id))) else {
        return;
    };
    let msg = panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-string payload".to_string());
    let open = lock(&inner.jobs).live.get(&id).is_some_and(|st| !st.phase.is_terminal());
    if open {
        fail_job(inner, id, started, format!("job panicked: {msg}"));
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
    let spec = match lock(&inner.jobs).live.get(&id) {
        Some(st) if !st.phase.is_terminal() => st.spec.clone(),
        _ => return,
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
    let session = match spec.session(&w.image, layout.as_ref()) {
        Ok(s) => s,
        Err(e) => {
            fail_job(inner, id, started, e.to_string());
            return;
        }
    };
    // The telemetry tap: each reading lands in the registry, where
    // watchers stream it as a `progress` event, and ticks the
    // daemon-wide counter; it wakes the watchers at most once per
    // `PROGRESS_WAKE_GAP`. Boundaries are instruction counts, so the
    // simulated results are byte-identical with or without the tap.
    let mut woke = Instant::now();
    let mut session = session.with_progress(progress_interval(&spec), move |e| {
        inner.metrics.record_progress_event();
        let record = |st: &mut JobState| {
            st.instructions = e.instructions;
            st.cycles = e.cycles;
            st.progress = Some(*e);
            st.progress_count += 1;
        };
        if woke.elapsed() >= PROGRESS_WAKE_GAP {
            woke = Instant::now();
            inner.update(id, record);
        } else {
            inner.note(id, record);
        }
    });

    // Resume from the newest whole snapshot, if the previous daemon (or
    // a fleet re-dispatch) left one; failing that, from the newest file,
    // so that a corrupt snapshot fails the job. `RunSpec::execute` owns
    // the version policy: a snapshot of another format version re-runs
    // the job from instruction 0 rather than failing it.
    let mut snapshots = Snapshots::new(&inner.jobs_dir, id);
    let resume_from = newest_snapshot(&inner.jobs_dir, id)
        .or_else(|| std::fs::read(&snapshots.newest).ok());
    inner.update(id, |st| st.phase = JobPhase::Running);
    let finished = spec.execute(&mut session, resume_from.as_deref(), |session| {
        let _ = snapshots.write(session.checkpoint());
        if inner.stopping() {
            // Graceful drain: park the job as queued so the next start
            // resumes from this snapshot.
            inner.update(id, |st| st.phase = JobPhase::Queued);
            return ControlFlow::Break(());
        }
        let stats = session.stats_now();
        // Counters only: the tap's readings wake the watchers.
        inner.note(id, |st| {
            st.instructions = stats.instructions;
            st.cycles = stats.cycles;
            st.checkpoints += 1;
        });
        ControlFlow::Continue(())
    });
    let out = match finished {
        Ok(Some(out)) => out,
        Ok(None) => return,
        Err(e @ VcfrError::Checkpoint(_)) => {
            fail_job(inner, id, started, format!("checkpoint rejected: {e}"));
            return;
        }
        Err(e) => {
            fail_job(inner, id, started, e.to_string());
            return;
        }
    };
    let manifest = spec.manifest(&out, Json::obj());
    let written =
        write_atomic(&manifest_file(&inner.jobs_dir, id), manifest.canonical_bytes().as_bytes());
    snapshots.remove();
    inner.metrics.record_job(
        started.elapsed().as_millis() as u64,
        written.is_ok(),
        out.output.stats.instructions,
    );
    match written {
        Ok(()) => inner.finish(id, |st| {
            st.phase = JobPhase::Done;
            st.instructions = out.output.stats.instructions;
            st.cycles = out.output.stats.cycles;
        }),
        Err(e) => inner.finish(id, |st| {
            st.phase = JobPhase::Failed;
            st.error = Some(format!("manifest write failed: {e}"));
        }),
    }
}

/// Handles the `submit` op: validate, persist, admit.
fn handle_submit(inner: &Inner, pool: &WorkerPool<u64>, req: &Json) -> Json {
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
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
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
    lock(&inner.jobs).live.insert(id, st);
    if pool.try_submit(id).is_err() {
        lock(&inner.jobs).live.remove(&id);
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
    let found =
        with_job(inner, id, |st| (status_json(id, st), st.spec.manifest_file_name(), st.phase));
    let Some((status, file, phase)) = found else {
        return err_response("no such job");
    };
    let mut r = ok_response();
    r.set("job", status);
    if phase == JobPhase::Done {
        match std::fs::read_to_string(manifest_file(&inner.jobs_dir, id)) {
            Ok(text) => {
                r.set("file", Json::Str(file));
                r.set("manifest", Json::Str(text));
            }
            Err(e) => return err_response(&format!("manifest unreadable: {e}")),
        }
    }
    r
}

/// A `watch` stream's `status` line for job `id`.
fn status_line(id: u64, st: &JobState) -> Json {
    let mut line = status_json(id, st);
    line.set("event", Json::Str("status".to_string()));
    line
}

/// A `watch` stream's last line.
fn end_line(id: u64) -> Json {
    let mut end = Json::obj();
    end.set("event", Json::Str("end".to_string()));
    end.set("id", Json::U64(id));
    end
}

/// Streams watch lines for one job until it reaches a terminal phase
/// (or the daemon starts shutting down): a `{"event":"progress"}` line
/// for every fresh telemetry reading, and a `{"event":"status"}` line
/// when the phase changes (plus one up front, so a watcher always sees
/// where the job stands). The wait between registry changes backs off
/// exponentially (capped) while nothing moves, so idle watchers cost
/// the daemon next to nothing; any change snaps it back down. The lines
/// of one wakeup, the final `end` included, go out as one write. A job
/// that has left the registry answers with its final status line and
/// `end`, from its record on disk.
fn handle_watch(inner: &Inner, out: &mut impl Write, id: u64) -> std::io::Result<()> {
    let mut last_seq: Option<u64> = None;
    let mut last_progress = 0u64;
    let mut last_phase: Option<JobPhase> = None;
    let mut backoff = Backoff::new(Duration::from_millis(25), Duration::from_millis(1_600));
    loop {
        let (mut lines, terminal) = {
            let mut jobs = lock(&inner.jobs);
            loop {
                let Some(st) = jobs.live.get(&id) else {
                    drop(jobs);
                    return match finished_job(&inner.jobs_dir, id) {
                        Some(st) => send_lines(out, [&status_line(id, &st), &end_line(id)]),
                        None => send_lines(out, [&err_response("no such job")]),
                    };
                };
                if last_seq != Some(st.seq) || st.phase.is_terminal() || inner.stopping() {
                    last_seq = Some(st.seq);
                    backoff.reset();
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
                        lines.push(status_line(id, st));
                    }
                    if !lines.is_empty() || st.phase.is_terminal() || inner.stopping() {
                        break (lines, st.phase.is_terminal() || inner.stopping());
                    }
                }
                let (guard, timeout) = wait(&inner.changed, jobs, backoff.current());
                jobs = guard;
                if timeout.timed_out() {
                    backoff.step();
                }
            }
        };
        if terminal {
            lines.push(end_line(id));
            return send_lines(out, &lines);
        }
        send_lines(out, &lines)?;
    }
}

/// The daemon's op table: answers one request, or writes its own lines
/// (`watch`, the `shutdown` acknowledgement) and returns `None`.
fn handle(
    inner: &Inner,
    pool: &WorkerPool<u64>,
    req: &Json,
    out: &mut impl Write,
) -> std::io::Result<Option<Json>> {
    let id = req.get("id").and_then(Json::as_u64);
    Ok(Some(match req.get("op").and_then(Json::as_str) {
        Some("ping") => {
            let mut r = ok_response();
            r.set("service", Json::Str("vcfr-serve".to_string()));
            r.set("jobs", Json::U64(lock(&inner.jobs).total()));
            r
        }
        Some("submit") => handle_submit(inner, pool, req),
        Some("jobs") => {
            let jobs = lock(&inner.jobs);
            let mut r = ok_response();
            let list = jobs.live.iter().map(|(id, st)| status_json(*id, st)).collect();
            r.set("jobs", Json::Arr(list));
            r
        }
        Some("fetch") => match id {
            None => err_response("fetch needs a job id"),
            Some(id) => handle_fetch(inner, id),
        },
        Some("status") => match id {
            None => err_response("status needs a job id"),
            Some(id) => match with_job(inner, id, |st| status_json(id, st)) {
                None => err_response("no such job"),
                Some(status) => {
                    let mut r = ok_response();
                    r.set("job", status);
                    r
                }
            },
        },
        Some("metrics") => {
            let (by_phase, insts_in_flight) = {
                let jobs = lock(&inner.jobs);
                let mut counts = (0u64, 0u64, jobs.dropped[0], jobs.dropped[1]);
                let mut insts = 0u64;
                for st in jobs.live.values() {
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
            r.set("metrics", inner.metrics.to_json(&pool.snapshot(), by_phase, insts_in_flight));
            r
        }
        Some("watch") => match id {
            None => err_response("watch needs a job id"),
            Some(id) => return handle_watch(inner, out, id).map(|()| None),
        },
        Some("shutdown") => {
            // Acknowledge before raising the stop flag, so the reply
            // reaches the client even if the daemon wins the race and
            // exits first.
            send_lines(out, [&ok_response()])?;
            inner.stopping.store(true, Ordering::SeqCst);
            inner.changed.notify_all();
            return Ok(None);
        }
        _ => err_response("unknown op"),
    }))
}

/// Runs the daemon until a client sends `shutdown`: binds 127.0.0.1,
/// re-admits every non-terminal job found in the state directory, then
/// serves JSON-lines clients. The endpoint file goes once the pool has
/// stopped.
///
/// # Errors
///
/// [`ServiceError::Io`] when the state directory or the socket cannot
/// be set up. Per-job failures never abort the daemon — they are
/// recorded in the job's status.
pub fn serve(opts: &ServeOptions) -> Result<(), ServiceError> {
    let jobs_dir = jobs_dir(&opts.dir);
    std::fs::create_dir_all(&jobs_dir)?;
    let (jobs, next_id) = load_jobs(&jobs_dir);
    let resumable: Vec<u64> =
        jobs.live.iter().filter(|(_, st)| !st.phase.is_terminal()).map(|(&id, _)| id).collect();
    let inner = Arc::new(Inner {
        jobs_dir,
        stopping: Arc::default(),
        jobs: Mutex::new(jobs),
        next_id: AtomicU64::new(next_id),
        changed: Condvar::new(),
        metrics: MetricsHub::new(),
    });

    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let pool_inner = Arc::clone(&inner);
    let pool = Arc::new(WorkerPool::new(
        opts.workers,
        opts.queue_capacity.max(resumable.len()),
        move |id| run_caught(&pool_inner, id, run_job),
    ));
    for id in resumable {
        let _ = pool.try_submit(id);
    }

    let ops_pool = Arc::clone(&pool);
    // Workers observe `stopping` at their next chunk boundary,
    // checkpoint, and park their job as queued.
    serve_lines(
        &opts.dir,
        listener,
        Arc::clone(&inner.stopping),
        move |req, out| handle(&inner, &ops_pool, req, out),
        || pool.stop(),
    )?;
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

    /// A daemon's shared state over the job store `dir`, holding `spec`
    /// as queued job 1.
    fn store(dir: &Path, spec: RunSpec) -> Inner {
        Inner {
            jobs_dir: dir.to_path_buf(),
            stopping: Arc::default(),
            jobs: Mutex::new({
                let mut jobs = Retained::default();
                jobs.live.insert(1, JobState::new(spec, JobPhase::Queued, None));
                jobs
            }),
            next_id: AtomicU64::new(2),
            changed: Condvar::new(),
            metrics: MetricsHub::new(),
        }
    }

    /// Job 1's phase and the snapshots its last run noted.
    fn phase_and_checkpoints(inner: &Inner) -> (JobPhase, u64) {
        let jobs = lock(&inner.jobs);
        (jobs.live[&1].phase, jobs.live[&1].checkpoints)
    }

    /// Runs job 1 of a fresh store holding `ckpt` and `prev` (if any) as
    /// its newest snapshot and the one before; returns the final phase,
    /// the snapshots the run took and the manifest bytes.
    fn run_in_store(
        tag: &str,
        ckpt: Option<&[u8]>,
        prev: Option<&[u8]>,
    ) -> (JobPhase, u64, Vec<u8>) {
        let dir = temp_store(tag);
        let inner = store(&dir, spec());
        if let Some(bytes) = ckpt {
            std::fs::write(ckpt_file(&dir, 1), bytes).expect("write snapshot");
        }
        if let Some(bytes) = prev {
            std::fs::write(prev_ckpt_file(&dir, 1), bytes).expect("write snapshot");
        }
        run_job(&inner, 1);
        let (phase, checkpoints) = phase_and_checkpoints(&inner);
        let manifest = std::fs::read(manifest_file(&dir, 1)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        (phase, checkpoints, manifest)
    }

    /// A fresh, empty directory under the system temp directory.
    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vcfr-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp store");
        dir
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
        let (phase, _, resumed) = run_in_store("future-ckpt", Some(&future), None);
        let (_, _, fresh) = run_in_store("fresh", None, None);
        assert_eq!(phase, JobPhase::Done);
        assert!(!fresh.is_empty());
        assert_eq!(resumed, fresh, "the restarted job matches a fresh run");
    }

    #[test]
    fn a_drained_job_parks_as_queued_and_resumes_to_the_straight_manifest() {
        let mut spec = RunSpec::new("bzip2");
        spec.max_insts = 400_000;
        spec.checkpoint_every = 5_000;
        let dir = temp_store("drain");
        let inner = store(&dir, spec.clone());
        // Raise the stop flag once the first snapshot is noted. bzip2
        // halts after about 197 000 instructions, so dozens of chunks
        // are still to run.
        std::thread::scope(|s| {
            s.spawn(|| loop {
                let (phase, noted) = phase_and_checkpoints(&inner);
                if noted > 0 || phase.is_terminal() {
                    inner.stopping.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::yield_now();
            });
            run_job(&inner, 1);
        });
        assert_eq!(phase_and_checkpoints(&inner).0, JobPhase::Queued, "the drain parks the job");
        assert!(newest_snapshot(&dir, 1).is_some(), "the drain leaves a whole snapshot");
        assert!(!manifest_file(&dir, 1).exists(), "a parked job has no manifest");

        inner.stopping.store(false, Ordering::SeqCst);
        run_job(&inner, 1);
        let (phase, noted) = phase_and_checkpoints(&inner);
        let manifest = std::fs::read(manifest_file(&dir, 1)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        // The straight run, counting the snapshots a run from
        // instruction 0 notes.
        let (w, layout) = spec.prepare().expect("builds");
        let mut straight = 0;
        let out = spec
            .session(&w.image, layout.as_ref())
            .and_then(|mut s| {
                spec.execute(&mut s, None, |_| {
                    straight += 1;
                    ControlFlow::Continue(())
                })
            })
            .expect("runs")
            .expect("finishes");
        assert_eq!(phase, JobPhase::Done);
        assert_eq!(manifest, spec.manifest(&out, Json::obj()).canonical_bytes().into_bytes());
        assert!(noted < straight, "the second run resumed from the drain's snapshot ({noted} noted)");
    }

    #[test]
    fn a_record_admission_refuses_keeps_its_id() {
        let dir = std::env::temp_dir().join(format!("vcfr-daemon-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp store");
        let text = r#"{"id":7,"spec":{"workload":"bzip2","mode":"base","rerand_epoch":1000}}"#;
        std::fs::write(job_file(&dir, 7), text).expect("write record");
        let (jobs, next_id) = load_jobs(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(jobs.live.is_empty());
        assert_eq!(next_id, 8, "job 7's file is not overwritten by the next submit");
    }

    #[test]
    fn a_panic_holding_the_registry_costs_only_its_own_thread() {
        let dir = temp_store("poisoned");
        let inner = store(&dir, spec());
        std::thread::scope(|s| {
            let planted = s.spawn(|| {
                let _jobs = inner.jobs.lock();
                panic!("a handler panics while it holds the registry");
            });
            assert!(planted.join().is_err());
        });
        assert!(inner.jobs.is_poisoned());
        run_job(&inner, 1);
        let phase = phase_and_checkpoints(&inner).0;
        let fetched = handle_fetch(&inner, 1);
        let manifest = std::fs::read_to_string(manifest_file(&dir, 1)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(phase, JobPhase::Done);
        assert!(!manifest.is_empty());
        assert_eq!(fetched.get("manifest").and_then(Json::as_str), Some(manifest.as_str()));
    }

    #[test]
    fn a_job_that_panics_fails_on_disk_and_ends_its_watch() {
        let dir = temp_store("panics");
        let inner = store(&dir, spec());
        let watched = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut out = Vec::new();
                handle_watch(&inner, &mut out, 1).map(|()| out)
            });
            run_caught(&inner, 1, |_, _| panic!("a planted fault"));
            watcher.join().expect("the watcher returns")
        });
        let record = std::fs::read_to_string(job_file(&dir, 1)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<Json> = String::from_utf8(watched.expect("the stream is written"))
            .expect("utf-8")
            .lines()
            .map(|l| parse_json(l).expect("a JSON line"))
            .collect();
        let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        let end = lines.last().and_then(|l| field(l, "event"));
        assert_eq!(end.as_deref(), Some("end"), "{lines:?}");
        let is_status = |l: &&Json| field(l, "event").as_deref() == Some("status");
        let last_status = lines.iter().rev().find(is_status).and_then(|l| field(l, "phase"));
        assert_eq!(last_status.as_deref(), Some("failed"));
        let record = parse_json(&record).expect("the record is written");
        assert_eq!(field(&record, "phase").as_deref(), Some("failed"));
        let error = field(&record, "error").unwrap_or_default();
        assert!(error.contains("a planted fault"), "the record names the panic: {error}");
    }

    #[test]
    fn a_corrupt_checkpoint_still_fails_the_job() {
        let mut corrupt = snapshot();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let (phase, _, manifest) = run_in_store("corrupt-ckpt", Some(&corrupt), None);
        assert_eq!(phase, JobPhase::Failed);
        assert!(manifest.is_empty());
    }

    #[test]
    fn a_torn_newest_snapshot_resumes_from_the_one_before() {
        let whole = snapshot();
        let torn = &whole[..whole.len() / 2];
        let (phase, taken, resumed) = run_in_store("torn-ckpt", Some(torn), Some(&whole));
        let (_, from_zero, fresh) = run_in_store("torn-fresh", None, None);
        assert_eq!(phase, JobPhase::Done);
        assert_eq!(resumed, fresh, "the resumed job matches a fresh run");
        assert_eq!(taken + 1, from_zero, "the run resumed after the first chunk");
    }

    #[test]
    fn the_newest_whole_snapshot_is_found_in_either_file() {
        let dir = temp_store("newest");
        let whole = snapshot();
        let torn = &whole[..whole.len() - 1];
        assert_eq!(newest_snapshot(&dir, 1), None);
        std::fs::write(ckpt_file(&dir, 1), torn).expect("write");
        assert_eq!(newest_snapshot(&dir, 1), None, "a torn snapshot is never handed out");
        std::fs::write(prev_ckpt_file(&dir, 1), &whole).expect("write");
        assert_eq!(newest_snapshot(&dir, 1).as_ref(), Some(&whole));
        let mut newer = whole.clone();
        newer.extend_from_slice(b"tail");
        std::fs::write(prev_ckpt_file(&dir, 1), &newer).expect("write");
        std::fs::write(ckpt_file(&dir, 1), &whole).expect("write");
        assert_eq!(newest_snapshot(&dir, 1).as_ref(), Some(&whole), "the newest file wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_snapshots_overwrite_both_files_in_place() {
        let dir = temp_store("snapshots");
        let (newest, prev) = (ckpt_file(&dir, 1), prev_ckpt_file(&dir, 1));
        let read = |path: &Path| std::fs::read(path).ok();
        let mut snapshots = Snapshots::new(&dir, 1);
        snapshots.write(b"first".to_vec()).expect("write");
        assert_eq!(read(&newest).as_deref(), Some(&b"first"[..]));
        assert_eq!(read(&prev), None);
        snapshots.write(b"second, longer".to_vec()).expect("write");
        #[cfg(unix)]
        let inodes = || {
            use std::os::unix::fs::MetadataExt;
            let ino = |p: &Path| std::fs::metadata(p).expect("exists").ino();
            (ino(&newest), ino(&prev))
        };
        #[cfg(unix)]
        let before = inodes();
        snapshots.write(b"third".to_vec()).expect("write");
        assert_eq!(read(&newest).as_deref(), Some(&b"third"[..]));
        assert_eq!(read(&prev).as_deref(), Some(&b"second, longer"[..]));
        #[cfg(unix)]
        assert_eq!(inodes(), before, "no file was replaced");
        snapshots.remove();
        assert_eq!((read(&newest), read(&prev)), (None, None));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
