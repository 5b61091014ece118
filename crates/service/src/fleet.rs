//! The fleet coordinator: shards campaigns across registered `vcfr
//! serve` worker daemons and merges their manifests into one canonical
//! `results/` tree.
//!
//! The coordinator is a JSON-lines service of the same dialect as the
//! daemon (`docs/fleet.md` documents the protocol): workers *register*
//! with it, clients *submit* `RunSpec` chunks to it, and a scheduler
//! thread dispatches pending chunks to the least-loaded live worker,
//! polls dispatched ones, and heartbeats every worker with capped
//! exponential backoff. A worker that misses `lost_after` consecutive
//! heartbeats is declared lost and its chunks are recovered: a finished
//! manifest found in the dead worker's state directory is merged as
//! done; otherwise the worker's last on-disk checkpoint (the VCFRCKP1
//! envelope) is stashed and the chunk re-queued, resuming bit-
//! identically on whichever worker picks it up next. Since the daemon
//! only ever binds `127.0.0.1`, a fleet is a single-host construction
//! by design, and reading a dead worker's state directory is as sound
//! as the daemon reading its own after a restart.
//!
//! Determinism contract: a chunk's manifest is the canonical
//! (host-stripped) byte form, a pure function of its spec, so the
//! merged `results/manifests/` tree is byte-identical to a
//! single-daemon run of the same chunk list — kills, re-dispatches, and
//! duplicate dispatches included. The merge never overwrites: byte-
//! equal duplicates collapse, disagreements fail the chunk.

use crate::client::Client;
use crate::daemon::newest_snapshot;
use crate::metrics::aggregate_node_metrics;
use crate::protocol::{err_response, ok_response, send_lines, ServiceError, ENDPOINT_FILE};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vcfr_bench::{merge_manifest_bytes, MergeOutcome, RunSpec};
use vcfr_obs::{parse_json, Backoff, Json};

/// How the coordinator is configured.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Coordinator state directory (endpoint file, worker registry,
    /// chunk table, merged `results/manifests/` tree).
    pub dir: PathBuf,
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port).
    pub port: u16,
    /// Open (pending + dispatched) chunks admitted before `submit` is
    /// refused — the fleet-level backpressure bound.
    pub chunk_capacity: usize,
    /// Scheduler heartbeat floor in milliseconds (the backoff doubles
    /// from here while the fleet is idle).
    pub heartbeat_ms: u64,
    /// Scheduler heartbeat ceiling in milliseconds.
    pub heartbeat_cap_ms: u64,
    /// Consecutive missed heartbeats before a worker is declared lost
    /// and its chunks are recovered.
    pub lost_after: u32,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            dir: PathBuf::from("results/fleet"),
            port: 0,
            chunk_capacity: 256,
            heartbeat_ms: 200,
            heartbeat_cap_ms: 2_000,
            lost_after: 3,
        }
    }
}

/// Where a chunk is in the fleet lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkPhase {
    /// Waiting for a worker slot.
    Pending,
    /// Running as job `remote_id` on `worker`.
    Dispatched {
        /// The worker it was handed to.
        worker: u64,
        /// The job id the worker assigned.
        remote_id: u64,
    },
    /// Its manifest is merged into the canonical tree.
    Done,
    /// Terminal failure (worker error or manifest conflict).
    Failed,
}

impl ChunkPhase {
    fn as_str(self) -> &'static str {
        match self {
            ChunkPhase::Pending => "pending",
            ChunkPhase::Dispatched { .. } => "dispatched",
            ChunkPhase::Done => "done",
            ChunkPhase::Failed => "failed",
        }
    }
}

/// One chunk of a sharded campaign.
struct ChunkState {
    spec: RunSpec,
    phase: ChunkPhase,
    /// Times this chunk was (re-)handed to a worker beyond the first.
    redispatches: u64,
    /// Whether any dispatch resumed from a recovered checkpoint.
    resumed: bool,
    error: Option<String>,
}

/// One registered worker daemon.
struct WorkerState {
    /// Its state directory — the registration identity, and where the
    /// coordinator finds its endpoint file (and, post-mortem, its
    /// checkpoints).
    dir: PathBuf,
    /// Chunks it may hold in flight at once (admission control).
    slots: u64,
    alive: bool,
    misses: u32,
    /// Chunks it completed.
    done: u64,
}

#[derive(Default)]
struct FleetState {
    workers: BTreeMap<u64, WorkerState>,
    chunks: BTreeMap<u64, ChunkState>,
    next_worker: u64,
    next_chunk: u64,
    /// Lost-worker recoveries: chunks whose finished manifest was
    /// salvaged from a dead worker's state directory.
    recovered_manifests: u64,
    /// Lost-worker recoveries: chunks re-queued with a checkpoint.
    resumed_chunks: u64,
    /// Lost-worker recoveries: chunks re-queued from scratch.
    restarted_chunks: u64,
}

struct FleetInner {
    workers_dir: PathBuf,
    chunks_dir: PathBuf,
    manifests_dir: PathBuf,
    lost_after: u32,
    /// Bound on every coordinator RPC to a worker (connect, each read,
    /// each write): `lost_after` heartbeats at the backoff ceiling, the
    /// window after which a silent worker is declared lost anyway.
    rpc_timeout: Duration,
    stopping: AtomicBool,
    state: Mutex<FleetState>,
    /// Wakes the scheduler on registration/submission/shutdown.
    changed: Condvar,
    started: Instant,
}

impl FleetInner {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    fn stash_file(&self, chunk: u64) -> PathBuf {
        self.chunks_dir.join(format!("chunk-{chunk}.ckpt"))
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{}.tmp",
        path.file_name().and_then(|n| n.to_str()).unwrap_or("fleet-write")
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn persist_worker(dir: &Path, id: u64, w: &WorkerState) {
    let mut j = Json::obj();
    j.set("id", Json::U64(id));
    j.set("dir", Json::Str(w.dir.display().to_string()));
    j.set("slots", Json::U64(w.slots));
    let _ = write_atomic(&dir.join(format!("worker-{id}.json")), j.pretty().as_bytes());
}

fn persist_chunk(dir: &Path, id: u64, c: &ChunkState) {
    let mut j = Json::obj();
    j.set("id", Json::U64(id));
    j.set("spec", c.spec.to_json());
    j.set("phase", Json::Str(c.phase.as_str().to_string()));
    match c.phase {
        ChunkPhase::Dispatched { worker, remote_id } => {
            j.set("worker", Json::U64(worker));
            j.set("remote_id", Json::U64(remote_id));
        }
        _ => {
            j.set("worker", Json::Null);
            j.set("remote_id", Json::Null);
        }
    }
    j.set("redispatches", Json::U64(c.redispatches));
    j.set("resumed", Json::Bool(c.resumed));
    match &c.error {
        Some(e) => {
            j.set("error", Json::Str(e.clone()));
        }
        None => {
            j.set("error", Json::Null);
        }
    }
    let _ = write_atomic(&dir.join(format!("chunk-{id}.json")), j.pretty().as_bytes());
}

/// Reloads the worker registry and chunk table after a coordinator
/// restart. Dispatched chunks stay dispatched — the first scheduler
/// round re-synchronises with the (restarted or still-running) workers,
/// and the lost-worker path covers everything else.
fn load_state(workers_dir: &Path, chunks_dir: &Path) -> FleetState {
    let mut st = FleetState::default();
    let docs = |dir: &Path, prefix: &str| -> Vec<Json> {
        let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
        let mut out = Vec::new();
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(prefix) || !name.ends_with(".json") {
                continue;
            }
            if let Ok(text) = std::fs::read_to_string(e.path()) {
                if let Ok(doc) = parse_json(&text) {
                    out.push(doc);
                }
            }
        }
        out
    };
    for doc in docs(workers_dir, "worker-") {
        let (Some(id), Some(dir)) = (
            doc.get("id").and_then(Json::as_u64),
            doc.get("dir").and_then(Json::as_str),
        ) else {
            continue;
        };
        st.workers.insert(
            id,
            WorkerState {
                dir: PathBuf::from(dir),
                slots: doc.get("slots").and_then(Json::as_u64).unwrap_or(1).max(1),
                alive: true,
                misses: 0,
                done: 0,
            },
        );
        st.next_worker = st.next_worker.max(id + 1);
    }
    for doc in docs(chunks_dir, "chunk-") {
        let Some(id) = doc.get("id").and_then(Json::as_u64) else { continue };
        // A chunk whose spec admission refuses is skipped, but its id
        // (and so its file) is never handed out again.
        st.next_chunk = st.next_chunk.max(id.saturating_add(1));
        let Some(spec) = doc.get("spec").and_then(|s| RunSpec::from_json(s).ok()) else {
            continue;
        };
        let phase = match doc.get("phase").and_then(Json::as_str) {
            Some("dispatched") => match (
                doc.get("worker").and_then(Json::as_u64),
                doc.get("remote_id").and_then(Json::as_u64),
            ) {
                (Some(worker), Some(remote_id)) => ChunkPhase::Dispatched { worker, remote_id },
                _ => ChunkPhase::Pending,
            },
            Some("done") => ChunkPhase::Done,
            Some("failed") => ChunkPhase::Failed,
            _ => ChunkPhase::Pending,
        };
        st.chunks.insert(
            id,
            ChunkState {
                spec,
                phase,
                redispatches: doc.get("redispatches").and_then(Json::as_u64).unwrap_or(0),
                resumed: matches!(doc.get("resumed"), Some(Json::Bool(true))),
                error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            },
        );
    }
    st
}

/// In-flight chunk count of one worker.
fn in_flight(st: &FleetState, worker: u64) -> u64 {
    st.chunks
        .values()
        .filter(|c| matches!(c.phase, ChunkPhase::Dispatched { worker: w, .. } if w == worker))
        .count() as u64
}

/// `(chunk id, remote job id)` pairs a worker currently holds.
type HeldChunks = Vec<(u64, u64)>;

/// What one scheduler round plans to do on the network (computed under
/// the state lock, executed without it).
#[derive(Default)]
struct Plan {
    /// `(worker, dir, dispatched chunks)` per live worker.
    polls: Vec<(u64, PathBuf, HeldChunks)>,
    /// `(chunk, worker, stashed checkpoint)` dispatches, each to a
    /// worker in `polls`.
    dispatches: Vec<(u64, u64, Option<Vec<u8>>)>,
}

/// What the network phase observed (applied back under the lock).
#[derive(Default)]
struct RoundResult {
    /// Workers that answered the heartbeat.
    ok: Vec<u64>,
    /// Workers that did not.
    missed: Vec<u64>,
    /// `(chunk, worker, file_name, manifest text)` completions.
    done: Vec<(u64, u64, String, String)>,
    /// `(chunk, error)` remote failures.
    failed: Vec<(u64, String)>,
    /// `(chunk, worker, remote_id, resumed)` successful dispatches.
    dispatched: Vec<(u64, u64, u64, bool)>,
}

/// Phase A: snapshot the state into a network plan.
fn plan_round(inner: &FleetInner) -> Plan {
    let st = inner.state.lock().expect("fleet lock");
    let mut plan = Plan::default();
    let mut free: BTreeMap<u64, u64> = BTreeMap::new();
    for (&wid, w) in &st.workers {
        if !w.alive {
            continue;
        }
        let holding: Vec<(u64, u64)> = st
            .chunks
            .iter()
            .filter_map(|(&cid, c)| match c.phase {
                ChunkPhase::Dispatched { worker, remote_id } if worker == wid => {
                    Some((cid, remote_id))
                }
                _ => None,
            })
            .collect();
        free.insert(wid, w.slots.saturating_sub(holding.len() as u64));
        plan.polls.push((wid, w.dir.clone(), holding));
    }
    // Hand pending chunks (id order) to the least-loaded live worker
    // with a free slot; a stashed checkpoint rides along.
    for (&cid, _) in st.chunks.iter().filter(|(_, c)| c.phase == ChunkPhase::Pending) {
        let Some((&wid, _)) = free
            .iter()
            .filter(|(_, slots)| **slots > 0)
            .max_by_key(|(_, slots)| **slots)
        else {
            break;
        };
        *free.get_mut(&wid).expect("picked above") -= 1;
        let ckpt = std::fs::read(inner.stash_file(cid)).ok();
        plan.dispatches.push((cid, wid, ckpt));
    }
    plan
}

/// Phase B: talk to the workers (no locks held).
fn execute_round(inner: &FleetInner, plan: Plan) -> RoundResult {
    let mut result = RoundResult::default();
    let mut clients: BTreeMap<u64, Client> = BTreeMap::new();
    for (wid, dir, holding) in plan.polls {
        let Ok(mut client) = Client::connect_within(&dir, inner.rpc_timeout) else {
            result.missed.push(wid);
            continue;
        };
        if client.ping().is_err() {
            result.missed.push(wid);
            continue;
        }
        result.ok.push(wid);
        let mut worker_died = false;
        for (cid, remote_id) in holding {
            match client.fetch(remote_id) {
                Ok((_, Some((file, text)))) => result.done.push((cid, wid, file, text)),
                Ok((job, None)) => {
                    if job.get("phase").and_then(Json::as_str) == Some("failed") {
                        let msg = job
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("worker reported failure")
                            .to_string();
                        result.failed.push((cid, msg));
                    }
                }
                // The daemon answered but no longer knows the id (it
                // restarted and lost its queue): the job is truly gone.
                Err(ServiceError::Protocol(ref msg)) if msg == "no such job" => {
                    result.failed.push((cid, "job lost by worker".to_string()));
                }
                // Transport death mid-poll — the worker was killed
                // between the ping and this fetch. Count the round as a
                // missed heartbeat and leave the chunk dispatched, so
                // lost-worker recovery can resume it from its
                // checkpoint once the worker is declared dead.
                Err(_) => {
                    worker_died = true;
                    break;
                }
            }
        }
        if worker_died {
            result.ok.retain(|&w| w != wid);
            result.missed.push(wid);
            continue;
        }
        clients.insert(wid, client);
    }
    // Every planned worker was polled above, so a worker without a
    // connection here missed this round's heartbeat: its chunks stay
    // pending.
    for (cid, wid, ckpt) in plan.dispatches {
        let Some(client) = clients.get_mut(&wid) else { continue };
        let resumed = ckpt.is_some();
        match client.submit_with(&inner_chunk_spec(inner, cid), ckpt.as_deref()) {
            Ok(remote_id) => result.dispatched.push((cid, wid, remote_id, resumed)),
            // A refusal (e.g. the worker's queue is full) leaves the
            // chunk pending for a later round — per-worker slots keep
            // the fleet from buffering unboundedly on any one worker.
            Err(ServiceError::Protocol(_)) => {}
            // No reply within the RPC bound, or a broken transport. A
            // stalled worker may still admit the job and answer late, and
            // that answer would be read as the reply to the next request
            // on this connection. So drop the connection, leave the chunk
            // pending and count a missed heartbeat, which also skips the
            // worker's other dispatches this round.
            Err(_) => {
                clients.remove(&wid);
                result.ok.retain(|&w| w != wid);
                result.missed.push(wid);
            }
        }
    }
    result
}

/// The chunk's spec, cloned out of the registry.
fn inner_chunk_spec(inner: &FleetInner, chunk: u64) -> RunSpec {
    let st = inner.state.lock().expect("fleet lock");
    st.chunks[&chunk].spec.clone()
}

/// Merges one manifest into the canonical tree and returns the chunk's
/// new terminal phase.
fn merge_chunk(
    inner: &FleetInner,
    file: &str,
    text: &str,
) -> (ChunkPhase, Option<String>) {
    match merge_manifest_bytes(&inner.manifests_dir, file, text.as_bytes()) {
        Ok(MergeOutcome::Written) | Ok(MergeOutcome::Identical) => (ChunkPhase::Done, None),
        Ok(MergeOutcome::Conflict) => (
            ChunkPhase::Failed,
            Some(format!("manifest conflict: {file} differs from the canonical tree")),
        ),
        Err(e) => (ChunkPhase::Failed, Some(format!("manifest merge failed: {e}"))),
    }
}

/// Phase C: fold the round's observations back into the state. Returns
/// whether anything moved (resets the scheduler backoff).
fn apply_round(inner: &FleetInner, result: RoundResult) -> bool {
    let mut st = inner.state.lock().expect("fleet lock");
    let mut moved = false;
    for wid in result.ok {
        if let Some(w) = st.workers.get_mut(&wid) {
            if !w.alive {
                moved = true; // a lost worker came back (daemon restart)
            }
            w.alive = true;
            w.misses = 0;
        }
    }
    for (cid, wid, remote_id, resumed) in result.dispatched {
        if let Some(c) = st.chunks.get_mut(&cid) {
            if c.phase == ChunkPhase::Pending {
                c.resumed |= resumed;
                c.phase = ChunkPhase::Dispatched { worker: wid, remote_id };
                persist_chunk(&inner.chunks_dir, cid, c);
                moved = true;
            }
        }
    }
    for (cid, wid, file, text) in result.done {
        let (phase, error) = merge_chunk(inner, &file, &text);
        if phase == ChunkPhase::Done {
            let _ = std::fs::remove_file(inner.stash_file(cid));
            if let Some(w) = st.workers.get_mut(&wid) {
                w.done += 1;
            }
        }
        if let Some(c) = st.chunks.get_mut(&cid) {
            c.phase = phase;
            c.error = error;
            persist_chunk(&inner.chunks_dir, cid, c);
            moved = true;
        }
    }
    for (cid, msg) in result.failed {
        if let Some(c) = st.chunks.get_mut(&cid) {
            if matches!(c.phase, ChunkPhase::Dispatched { .. }) {
                c.phase = ChunkPhase::Failed;
                c.error = Some(msg);
                persist_chunk(&inner.chunks_dir, cid, c);
                moved = true;
            }
        }
    }
    let mut lost: Vec<u64> = Vec::new();
    for wid in result.missed {
        if let Some(w) = st.workers.get_mut(&wid) {
            if w.alive {
                w.misses += 1;
                if w.misses >= inner.lost_after {
                    w.alive = false;
                    lost.push(wid);
                    moved = true;
                }
            }
        }
    }
    for wid in lost {
        recover_lost_worker(inner, &mut st, wid);
    }
    moved
}

/// Recovers every chunk a lost worker held: merge its finished manifest
/// if the job completed before the worker died, else stash its last
/// checkpoint and re-queue the chunk to resume elsewhere, else re-queue
/// from scratch. All reads go to the dead worker's state directory —
/// sound on the single-host fleet, exactly like a daemon restart.
fn recover_lost_worker(inner: &FleetInner, st: &mut FleetState, wid: u64) {
    let jobs_dir = st.workers[&wid].dir.join("jobs");
    let held: Vec<(u64, u64)> = st
        .chunks
        .iter()
        .filter_map(|(&cid, c)| match c.phase {
            ChunkPhase::Dispatched { worker, remote_id } if worker == wid => {
                Some((cid, remote_id))
            }
            _ => None,
        })
        .collect();
    for (cid, remote_id) in held {
        let manifest = jobs_dir.join(format!("job-{remote_id}.manifest.json"));
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            let file = st.chunks[&cid].spec.manifest_file_name();
            let (phase, error) = merge_chunk(inner, &file, &text);
            if phase == ChunkPhase::Done {
                st.recovered_manifests += 1;
                if let Some(w) = st.workers.get_mut(&wid) {
                    w.done += 1;
                }
            }
            let c = st.chunks.get_mut(&cid).expect("held chunk");
            c.phase = phase;
            c.error = error;
            persist_chunk(&inner.chunks_dir, cid, c);
        } else if newest_snapshot(&jobs_dir, remote_id)
            .is_some_and(|bytes| write_atomic(&inner.stash_file(cid), &bytes).is_ok())
        {
            st.resumed_chunks += 1;
            let c = st.chunks.get_mut(&cid).expect("held chunk");
            c.phase = ChunkPhase::Pending;
            c.redispatches += 1;
            c.resumed = true;
            persist_chunk(&inner.chunks_dir, cid, c);
        } else {
            st.restarted_chunks += 1;
            let c = st.chunks.get_mut(&cid).expect("held chunk");
            c.phase = ChunkPhase::Pending;
            c.redispatches += 1;
            persist_chunk(&inner.chunks_dir, cid, c);
        }
    }
}

/// The scheduler thread: heartbeat, poll, dispatch, recover — then wait
/// with capped backoff (any op wakes it immediately).
fn scheduler(inner: &FleetInner, floor: Duration, cap: Duration) {
    let mut backoff = Backoff::new(floor, cap);
    while !inner.stopping() {
        let plan = plan_round(inner);
        let result = execute_round(inner, plan);
        if apply_round(inner, result) {
            backoff.reset();
        }
        let guard = inner.state.lock().expect("fleet lock");
        if inner.stopping() {
            return;
        }
        let _ = inner.changed.wait_timeout(guard, backoff.step()).expect("fleet lock");
    }
}

/// The fleet `status` body.
fn fleet_status_json(inner: &FleetInner, st: &FleetState) -> Json {
    let mut f = Json::obj();
    f.set("uptime_secs", Json::F64(inner.started.elapsed().as_secs_f64()));
    let mut workers = Vec::new();
    for (&wid, w) in &st.workers {
        let mut wj = Json::obj();
        wj.set("id", Json::U64(wid));
        wj.set("dir", Json::Str(w.dir.display().to_string()));
        wj.set("alive", Json::Bool(w.alive));
        wj.set("misses", Json::U64(u64::from(w.misses)));
        wj.set("slots", Json::U64(w.slots));
        wj.set("in_flight", Json::U64(in_flight(st, wid)));
        wj.set("done", Json::U64(w.done));
        workers.push(wj);
    }
    f.set("workers", Json::Arr(workers));
    let mut counts = Json::obj();
    let count = |phase: &str| {
        st.chunks.values().filter(|c| c.phase.as_str() == phase).count() as u64
    };
    for phase in ["pending", "dispatched", "done", "failed"] {
        counts.set(phase, Json::U64(count(phase)));
    }
    counts.set("total", Json::U64(st.chunks.len() as u64));
    f.set("chunks", counts);
    let mut recovery = Json::obj();
    recovery.set("manifests", Json::U64(st.recovered_manifests));
    recovery.set("resumed", Json::U64(st.resumed_chunks));
    recovery.set("restarted", Json::U64(st.restarted_chunks));
    f.set("recovery", recovery);
    let mut chunk_list = Vec::new();
    for (&cid, c) in &st.chunks {
        let mut cj = Json::obj();
        cj.set("id", Json::U64(cid));
        cj.set("file", Json::Str(c.spec.manifest_file_name()));
        cj.set("phase", Json::Str(c.phase.as_str().to_string()));
        if let ChunkPhase::Dispatched { worker, remote_id } = c.phase {
            cj.set("worker", Json::U64(worker));
            cj.set("remote_id", Json::U64(remote_id));
        }
        cj.set("redispatches", Json::U64(c.redispatches));
        cj.set("resumed", Json::Bool(c.resumed));
        if let Some(e) = &c.error {
            cj.set("error", Json::Str(e.clone()));
        }
        chunk_list.push(cj);
    }
    f.set("chunk_list", Json::Arr(chunk_list));
    f
}

/// Handles the coordinator's `register` op.
fn handle_register(inner: &FleetInner, req: &Json) -> Json {
    let Some(dir) = req.get("dir").and_then(Json::as_str) else {
        return err_response("register needs the worker's state directory");
    };
    let dir = PathBuf::from(dir);
    let dir = std::fs::canonicalize(&dir).unwrap_or(dir);
    let slots = req.get("slots").and_then(Json::as_u64).unwrap_or(1).max(1);
    let mut st = inner.state.lock().expect("fleet lock");
    let id = match st.workers.iter().find(|(_, w)| w.dir == dir).map(|(&id, _)| id) {
        Some(id) => {
            let w = st.workers.get_mut(&id).expect("found above");
            w.alive = true;
            w.misses = 0;
            w.slots = slots;
            id
        }
        None => {
            let id = st.next_worker.max(1);
            st.next_worker = id + 1;
            st.workers
                .insert(id, WorkerState { dir, slots, alive: true, misses: 0, done: 0 });
            id
        }
    };
    persist_worker(&inner.workers_dir, id, &st.workers[&id]);
    inner.changed.notify_all();
    let mut r = ok_response();
    r.set("worker", Json::U64(id));
    r
}

/// Handles the coordinator's `submit` op (admission-controlled).
fn handle_submit(inner: &FleetInner, capacity: usize, req: &Json) -> Json {
    let Some(job) = req.get("job") else {
        return err_response("submit needs a \"job\" object");
    };
    let spec = match RunSpec::from_json(job) {
        Ok(spec) => spec,
        Err(e) => return err_response(&ServiceError::Protocol(e.0).to_string()),
    };
    let mut st = inner.state.lock().expect("fleet lock");
    let open = st
        .chunks
        .values()
        .filter(|c| matches!(c.phase, ChunkPhase::Pending | ChunkPhase::Dispatched { .. }))
        .count();
    if open >= capacity {
        return err_response("fleet queue full; retry later");
    }
    let id = st.next_chunk.max(1);
    st.next_chunk = id + 1;
    let chunk = ChunkState {
        spec,
        phase: ChunkPhase::Pending,
        redispatches: 0,
        resumed: false,
        error: None,
    };
    persist_chunk(&inner.chunks_dir, id, &chunk);
    st.chunks.insert(id, chunk);
    inner.changed.notify_all();
    let mut r = ok_response();
    r.set("id", Json::U64(id));
    r
}

/// Handles the coordinator's `metrics` op: fans out to every live
/// worker and aggregates, then attaches the coordinator's own view.
fn handle_metrics(inner: &FleetInner) -> Json {
    let worker_dirs: Vec<(u64, PathBuf)> = {
        let st = inner.state.lock().expect("fleet lock");
        st.workers
            .iter()
            .filter(|(_, w)| w.alive)
            .map(|(&id, w)| (id, w.dir.clone()))
            .collect()
    };
    let mut bodies = Vec::new();
    for (id, dir) in worker_dirs {
        if let Ok(metrics) =
            Client::connect_within(&dir, inner.rpc_timeout).and_then(|mut c| c.metrics())
        {
            bodies.push((id, metrics));
        }
    }
    let refs: Vec<(u64, &Json)> = bodies.iter().map(|(id, j)| (*id, j)).collect();
    let mut m = aggregate_node_metrics(&refs);
    m.set("uptime_secs", Json::F64(inner.started.elapsed().as_secs_f64()));
    let st = inner.state.lock().expect("fleet lock");
    m.set("fleet", fleet_status_json(inner, &st));
    let mut r = ok_response();
    r.set("metrics", m);
    r
}

/// Serves one coordinator connection.
fn handle_conn(stream: TcpStream, inner: Arc<FleetInner>, opts: FleetOptions, addr: std::net::SocketAddr) {
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
                    let st = inner.state.lock().expect("fleet lock");
                    let mut r = ok_response();
                    r.set("service", Json::Str("vcfr-fleet".to_string()));
                    r.set(
                        "workers",
                        Json::U64(st.workers.values().filter(|w| w.alive).count() as u64),
                    );
                    r.set("jobs", Json::U64(st.chunks.len() as u64));
                    r
                }
                Some("register") => handle_register(&inner, &req),
                Some("submit") => handle_submit(&inner, opts.chunk_capacity, &req),
                Some("status") => {
                    let st = inner.state.lock().expect("fleet lock");
                    let mut r = ok_response();
                    r.set("fleet", fleet_status_json(&inner, &st));
                    r
                }
                Some("metrics") => handle_metrics(&inner),
                Some("shutdown") => {
                    // `workers: false` leaves the worker daemons up
                    // (they keep draining their local queues).
                    let stop_workers =
                        !matches!(req.get("workers"), Some(Json::Bool(false)));
                    if send_lines(&mut writer, [&ok_response()]).is_err() {
                        return;
                    }
                    if stop_workers {
                        let dirs: Vec<PathBuf> = {
                            let st = inner.state.lock().expect("fleet lock");
                            st.workers
                                .values()
                                .filter(|w| w.alive)
                                .map(|w| w.dir.clone())
                                .collect()
                        };
                        for dir in dirs {
                            let _ = Client::connect_within(&dir, inner.rpc_timeout)
                                .and_then(|mut c| c.shutdown());
                        }
                    }
                    inner.stopping.store(true, Ordering::SeqCst);
                    inner.changed.notify_all();
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

/// Runs the fleet coordinator until a client sends `shutdown`: binds
/// 127.0.0.1, reloads the worker registry and chunk table, starts the
/// scheduler, writes the endpoint file last, then accepts JSON-lines
/// clients (`register` / `submit` / `status` / `metrics` / `shutdown`).
///
/// # Errors
///
/// [`ServiceError::Io`] when the state directory or socket cannot be
/// set up. Per-chunk and per-worker failures never abort the
/// coordinator — they are recorded in the chunk table.
pub fn serve_fleet(opts: &FleetOptions) -> Result<(), ServiceError> {
    let workers_dir = opts.dir.join("workers");
    let chunks_dir = opts.dir.join("chunks");
    let manifests_dir = opts.dir.join("results").join("manifests");
    std::fs::create_dir_all(&workers_dir)?;
    std::fs::create_dir_all(&chunks_dir)?;
    std::fs::create_dir_all(&manifests_dir)?;
    let state = load_state(&workers_dir, &chunks_dir);
    let floor = Duration::from_millis(opts.heartbeat_ms.max(1));
    let cap = Duration::from_millis(opts.heartbeat_cap_ms.max(opts.heartbeat_ms.max(1)));
    let lost_after = opts.lost_after.max(1);
    let inner = Arc::new(FleetInner {
        workers_dir,
        chunks_dir,
        manifests_dir,
        lost_after,
        rpc_timeout: cap.saturating_mul(lost_after),
        stopping: AtomicBool::new(false),
        state: Mutex::new(state),
        changed: Condvar::new(),
        started: Instant::now(),
    });

    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let addr = listener.local_addr()?;

    let sched_inner = Arc::clone(&inner);
    let sched = std::thread::spawn(move || scheduler(&sched_inner, floor, cap));

    // The endpoint file is the last thing written: once it exists,
    // workers may register and clients may submit.
    write_atomic(&opts.dir.join(ENDPOINT_FILE), format!("{addr}\n").as_bytes())?;

    for conn in listener.incoming() {
        if inner.stopping() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let inner = Arc::clone(&inner);
        let opts = opts.clone();
        std::thread::spawn(move || handle_conn(stream, inner, opts, addr));
    }

    let _ = sched.join();
    let _ = std::fs::remove_file(opts.dir.join(ENDPOINT_FILE));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_chunk_admission_refuses_keeps_its_id() {
        let dir = std::env::temp_dir().join(format!("vcfr-fleet-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp store");
        let text = r#"{"id":4,"spec":{"workload":"nope"},"phase":"pending"}"#;
        std::fs::write(dir.join("chunk-4.json"), text).expect("write record");
        let st = load_state(&dir, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(st.chunks.is_empty());
        assert_eq!(st.next_chunk, 5, "chunk 4's file is not overwritten by the next submit");
    }
}
