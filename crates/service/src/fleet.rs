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
use crate::daemon::{jobs_dir, manifest_file, newest_snapshot};
use crate::metrics::aggregate_node_metrics;
use crate::protocol::{err_response, ok_response, send_lines, ServiceError};
use crate::server::{lock, read_records, serve_lines, wait, write_record};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vcfr_bench::{merge_manifest_bytes, write_atomic, MergeOutcome, RunSpec};
use vcfr_obs::{Backoff, Json};

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
    /// Bumped under the lock by every `register`, `submit` and
    /// `shutdown`. The scheduler reads it when it plans a round and
    /// checks it before it waits, so one that arrives while the round is
    /// out on the network starts the next round at once.
    wakes: u64,
}

struct FleetInner {
    workers_dir: PathBuf,
    chunks_dir: PathBuf,
    manifests_dir: PathBuf,
    lost_after: u32,
    /// The scheduler's heartbeat floor and ceiling.
    heartbeat: (Duration, Duration),
    /// Bound on every coordinator RPC to a worker (connect, each read,
    /// each write): `lost_after` heartbeats at the backoff ceiling, the
    /// window after which a silent worker is declared lost anyway.
    rpc_timeout: Duration,
    stopping: Arc<AtomicBool>,
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

fn persist_worker(dir: &Path, id: u64, w: &WorkerState) {
    let _ = write_record(dir, "worker", id, |j| {
        j.set("dir", Json::Str(w.dir.display().to_string()));
        j.set("slots", Json::U64(w.slots));
    });
}

fn persist_chunk(dir: &Path, id: u64, c: &ChunkState) {
    let _ = write_record(dir, "chunk", id, |j| {
        j.set("spec", c.spec.to_json());
        j.set("phase", Json::Str(c.phase.as_str().to_string()));
        let (worker, remote_id) = match c.phase {
            ChunkPhase::Dispatched { worker, remote_id } => {
                (Json::U64(worker), Json::U64(remote_id))
            }
            _ => (Json::Null, Json::Null),
        };
        j.set("worker", worker);
        j.set("remote_id", remote_id);
        j.set("redispatches", Json::U64(c.redispatches));
        j.set("resumed", Json::Bool(c.resumed));
        j.set("error", c.error.clone().map_or(Json::Null, Json::Str));
    });
}

/// Reloads the worker registry and chunk table after a coordinator
/// restart. Dispatched chunks stay dispatched — the first scheduler
/// round re-synchronises with the (restarted or still-running) workers,
/// and the lost-worker path covers everything else. A chunk whose spec
/// admission refuses is skipped, but its id (and so its file) is never
/// handed out again.
fn load_state(workers_dir: &Path, chunks_dir: &Path) -> FleetState {
    let (workers, next_worker) = read_records(workers_dir, "worker");
    let (chunks, next_chunk) = read_records(chunks_dir, "chunk");
    let mut st = FleetState { next_worker, next_chunk, ..FleetState::default() };
    for (id, doc) in workers {
        let Some(dir) = doc.get("dir").and_then(Json::as_str) else { continue };
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
    }
    for (id, doc) in chunks {
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

/// `(chunk id, remote job id)` pairs a worker currently holds.
type HeldChunks = Vec<(u64, u64)>;

/// The chunks dispatched to `worker`, in id order.
fn held_by(st: &FleetState, worker: u64) -> HeldChunks {
    st.chunks
        .iter()
        .filter_map(|(&cid, c)| match c.phase {
            ChunkPhase::Dispatched { worker: w, remote_id } if w == worker => {
                Some((cid, remote_id))
            }
            _ => None,
        })
        .collect()
}

/// What one scheduler round plans to do on the network (computed under
/// the state lock, executed without it).
#[derive(Default)]
struct Plan {
    /// `(worker, dir, dispatched chunks)` per live worker.
    polls: Vec<(u64, PathBuf, HeldChunks)>,
    /// `(chunk, worker, spec, stashed checkpoint)` dispatches, each to
    /// a worker in `polls`.
    dispatches: Vec<(u64, u64, RunSpec, Option<Vec<u8>>)>,
    /// [`FleetState::wakes`] when the round was planned.
    wakes: u64,
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
    let st = lock(&inner.state);
    let mut plan = Plan { wakes: st.wakes, ..Plan::default() };
    let mut free: BTreeMap<u64, u64> = BTreeMap::new();
    for (&wid, w) in &st.workers {
        if !w.alive {
            continue;
        }
        let holding = held_by(&st, wid);
        free.insert(wid, w.slots.saturating_sub(holding.len() as u64));
        plan.polls.push((wid, w.dir.clone(), holding));
    }
    // Hand pending chunks (id order) to the least-loaded live worker
    // with a free slot; a stashed checkpoint rides along.
    for (&cid, c) in st.chunks.iter().filter(|(_, c)| c.phase == ChunkPhase::Pending) {
        let Some((&wid, _)) = free
            .iter()
            .filter(|(_, slots)| **slots > 0)
            .max_by_key(|(_, slots)| **slots)
        else {
            break;
        };
        *free.get_mut(&wid).expect("picked above") -= 1;
        let ckpt = std::fs::read(inner.stash_file(cid)).ok();
        plan.dispatches.push((cid, wid, c.spec.clone(), ckpt));
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
    for (cid, wid, spec, ckpt) in plan.dispatches {
        let Some(client) = clients.get_mut(&wid) else { continue };
        let resumed = ckpt.is_some();
        match client.submit_with(&spec, ckpt.as_deref()) {
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

/// Merges chunk `cid`'s finished manifest, which worker `wid` ran, into
/// the canonical tree, and records the chunk's terminal phase: done,
/// with its stashed checkpoint removed and the worker's tally bumped, or
/// failed. Returns whether it is done.
fn merge_chunk(
    inner: &FleetInner,
    st: &mut FleetState,
    cid: u64,
    wid: u64,
    file: &str,
    text: &str,
) -> bool {
    let (phase, error) = match merge_manifest_bytes(&inner.manifests_dir, file, text.as_bytes()) {
        Ok(MergeOutcome::Written) | Ok(MergeOutcome::Identical) => (ChunkPhase::Done, None),
        Ok(MergeOutcome::Conflict) => (
            ChunkPhase::Failed,
            Some(format!("manifest conflict: {file} differs from the canonical tree")),
        ),
        Err(e) => (ChunkPhase::Failed, Some(format!("manifest merge failed: {e}"))),
    };
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
    }
    phase == ChunkPhase::Done
}

/// Phase C: fold the round's observations back into the state. Returns
/// whether anything moved (resets the scheduler backoff).
fn apply_round(inner: &FleetInner, result: RoundResult) -> bool {
    let mut st = lock(&inner.state);
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
        merge_chunk(inner, &mut st, cid, wid, &file, &text);
        moved = true;
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
    let jobs_dir = jobs_dir(&st.workers[&wid].dir);
    for (cid, remote_id) in held_by(st, wid) {
        if let Ok(text) = std::fs::read_to_string(manifest_file(&jobs_dir, remote_id)) {
            let file = st.chunks[&cid].spec.manifest_file_name();
            if merge_chunk(inner, st, cid, wid, &file, &text) {
                st.recovered_manifests += 1;
            }
            continue;
        }
        let resumed = newest_snapshot(&jobs_dir, remote_id)
            .is_some_and(|bytes| write_atomic(&inner.stash_file(cid), &bytes).is_ok());
        if resumed {
            st.resumed_chunks += 1;
        } else {
            st.restarted_chunks += 1;
        }
        let c = st.chunks.get_mut(&cid).expect("held chunk");
        c.phase = ChunkPhase::Pending;
        c.redispatches += 1;
        c.resumed |= resumed;
        persist_chunk(&inner.chunks_dir, cid, c);
    }
}

/// The scheduler thread: heartbeat, poll, dispatch, recover — then wait
/// with capped backoff, unless a `register`, `submit` or `shutdown` came
/// in during the round (one that comes in during the wait ends it).
fn scheduler(inner: &FleetInner) {
    let mut backoff = Backoff::new(inner.heartbeat.0, inner.heartbeat.1);
    while !inner.stopping() {
        let plan = plan_round(inner);
        let wakes = plan.wakes;
        let result = execute_round(inner, plan);
        if apply_round(inner, result) {
            backoff.reset();
        }
        let st = lock(&inner.state);
        if st.wakes == wakes && !inner.stopping() {
            let _ = wait(&inner.changed, st, backoff.step());
        }
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
        wj.set("in_flight", Json::U64(held_by(st, wid).len() as u64));
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
    let mut st = lock(&inner.state);
    let id = match st.workers.iter().find(|(_, w)| w.dir == dir).map(|(&id, _)| id) {
        Some(id) => {
            let w = st.workers.get_mut(&id).expect("found above");
            w.alive = true;
            w.misses = 0;
            w.slots = slots;
            id
        }
        None => {
            let id = st.next_worker;
            st.next_worker = id + 1;
            st.workers
                .insert(id, WorkerState { dir, slots, alive: true, misses: 0, done: 0 });
            id
        }
    };
    persist_worker(&inner.workers_dir, id, &st.workers[&id]);
    st.wakes += 1;
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
    let mut st = lock(&inner.state);
    let open = st
        .chunks
        .values()
        .filter(|c| matches!(c.phase, ChunkPhase::Pending | ChunkPhase::Dispatched { .. }))
        .count();
    if open >= capacity {
        return err_response("fleet queue full; retry later");
    }
    let id = st.next_chunk;
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
    st.wakes += 1;
    inner.changed.notify_all();
    let mut r = ok_response();
    r.set("id", Json::U64(id));
    r
}

/// Handles the coordinator's `metrics` op: fans out to every live
/// worker and aggregates, then attaches the coordinator's own view.
fn handle_metrics(inner: &FleetInner) -> Json {
    let worker_dirs: Vec<(u64, PathBuf)> = lock(&inner.state)
        .workers
        .iter()
        .filter(|(_, w)| w.alive)
        .map(|(&id, w)| (id, w.dir.clone()))
        .collect();
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
    m.set("fleet", fleet_status_json(inner, &lock(&inner.state)));
    let mut r = ok_response();
    r.set("metrics", m);
    r
}

/// The coordinator's op table: answers one request, or writes its own
/// line (the `shutdown` acknowledgement) and returns `None`.
fn handle(
    inner: &FleetInner,
    capacity: usize,
    req: &Json,
    out: &mut impl Write,
) -> std::io::Result<Option<Json>> {
    Ok(Some(match req.get("op").and_then(Json::as_str) {
        Some("ping") => {
            let st = lock(&inner.state);
            let mut r = ok_response();
            r.set("service", Json::Str("vcfr-fleet".to_string()));
            r.set("workers", Json::U64(st.workers.values().filter(|w| w.alive).count() as u64));
            r.set("jobs", Json::U64(st.chunks.len() as u64));
            r
        }
        Some("register") => handle_register(inner, req),
        Some("submit") => handle_submit(inner, capacity, req),
        Some("status") => {
            let mut r = ok_response();
            r.set("fleet", fleet_status_json(inner, &lock(&inner.state)));
            r
        }
        Some("metrics") => handle_metrics(inner),
        Some("shutdown") => {
            // `workers: false` leaves the worker daemons up (they keep
            // draining their local queues).
            let stop_workers = !matches!(req.get("workers"), Some(Json::Bool(false)));
            send_lines(out, [&ok_response()])?;
            if stop_workers {
                let dirs: Vec<PathBuf> = lock(&inner.state)
                    .workers
                    .values()
                    .filter(|w| w.alive)
                    .map(|w| w.dir.clone())
                    .collect();
                for dir in dirs {
                    let _ = Client::connect_within(&dir, inner.rpc_timeout)
                        .and_then(|mut c| c.shutdown());
                }
            }
            inner.stopping.store(true, Ordering::SeqCst);
            lock(&inner.state).wakes += 1;
            inner.changed.notify_all();
            return Ok(None);
        }
        _ => err_response("unknown op"),
    }))
}

/// Creates the coordinator's state directories and reloads its worker
/// registry and chunk table.
fn open(opts: &FleetOptions) -> std::io::Result<FleetInner> {
    let workers_dir = opts.dir.join("workers");
    let chunks_dir = opts.dir.join("chunks");
    let manifests_dir = opts.dir.join("results").join("manifests");
    std::fs::create_dir_all(&workers_dir)?;
    std::fs::create_dir_all(&chunks_dir)?;
    std::fs::create_dir_all(&manifests_dir)?;
    let state = load_state(&workers_dir, &chunks_dir);
    let floor = Duration::from_millis(opts.heartbeat_ms.max(1));
    let cap = Duration::from_millis(opts.heartbeat_cap_ms).max(floor);
    let lost_after = opts.lost_after.max(1);
    Ok(FleetInner {
        workers_dir,
        chunks_dir,
        manifests_dir,
        lost_after,
        heartbeat: (floor, cap),
        rpc_timeout: cap.saturating_mul(lost_after),
        stopping: Arc::default(),
        state: Mutex::new(state),
        changed: Condvar::new(),
        started: Instant::now(),
    })
}

/// Runs the fleet coordinator until a client sends `shutdown`: binds
/// 127.0.0.1, reloads the worker registry and chunk table, starts the
/// scheduler, then serves JSON-lines clients (`register` / `submit` /
/// `status` / `metrics` / `shutdown`). The endpoint file goes once the
/// scheduler has joined.
///
/// # Errors
///
/// [`ServiceError::Io`] when the state directory or socket cannot be
/// set up. Per-chunk and per-worker failures never abort the
/// coordinator — they are recorded in the chunk table.
pub fn serve_fleet(opts: &FleetOptions) -> Result<(), ServiceError> {
    let inner = Arc::new(open(opts)?);
    let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
    let sched_inner = Arc::clone(&inner);
    let sched = std::thread::spawn(move || scheduler(&sched_inner));
    let capacity = opts.chunk_capacity;
    serve_lines(
        &opts.dir,
        listener,
        Arc::clone(&inner.stopping),
        move |req, out| handle(&inner, capacity, req, out),
        || {
            let _ = sched.join();
        },
    )?;
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

    /// A coordinator's state over a fresh directory.
    fn temp_fleet(tag: &str) -> (PathBuf, FleetInner) {
        let dir = std::env::temp_dir().join(format!("vcfr-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = FleetOptions { dir: dir.clone(), ..FleetOptions::default() };
        (dir, open(&opts).expect("state directories"))
    }

    fn request(op: &str) -> Json {
        let mut req = Json::obj();
        req.set("op", Json::Str(op.to_string()));
        req
    }

    #[test]
    fn a_panic_holding_the_fleet_state_costs_only_its_own_thread() {
        let (dir, inner) = temp_fleet("poisoned");
        std::thread::scope(|s| {
            let planted = s.spawn(|| {
                let _st = inner.state.lock();
                panic!("a handler panics while it holds the fleet state");
            });
            assert!(planted.join().is_err());
        });
        assert!(inner.state.is_poisoned());
        let mut submit = request("submit");
        submit.set("job", RunSpec::new("bzip2").to_json());
        let submitted = handle(&inner, 1, &submit, &mut Vec::new()).expect("answers");
        let plan = plan_round(&inner);
        let status = handle(&inner, 1, &request("status"), &mut Vec::new()).expect("answers");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(submitted.and_then(|r| r.get("id").and_then(Json::as_u64)), Some(1));
        assert!(plan.polls.is_empty() && plan.dispatches.is_empty(), "no worker to plan for");
        let pending =
            status.and_then(|r| r.get_path("fleet.chunks.pending").and_then(Json::as_u64));
        assert_eq!(pending, Some(1));
    }

    #[test]
    fn a_lost_workers_finished_chunk_merges_and_drops_its_stash() {
        let (dir, inner) = temp_fleet("recover");
        // Chunk 1 resumed on worker 1 from a stashed checkpoint, finished
        // as its job 7, and the worker died before the next poll.
        let worker = dir.join("worker");
        let jobs = jobs_dir(&worker);
        std::fs::create_dir_all(&jobs).expect("worker jobs dir");
        std::fs::write(manifest_file(&jobs, 7), "{}\n").expect("write manifest");
        std::fs::write(inner.stash_file(1), b"an earlier worker's checkpoint").expect("stash");
        let spec = RunSpec::new("bzip2");
        let file = spec.manifest_file_name();
        let mut st = lock(&inner.state);
        st.workers
            .insert(1, WorkerState { dir: worker, slots: 1, alive: false, misses: 3, done: 0 });
        let phase = ChunkPhase::Dispatched { worker: 1, remote_id: 7 };
        st.chunks
            .insert(1, ChunkState { spec, phase, redispatches: 1, resumed: true, error: None });
        recover_lost_worker(&inner, &mut st, 1);
        let outcome = (st.chunks[&1].phase, st.recovered_manifests, st.workers[&1].done);
        drop(st);
        let stashed = inner.stash_file(1).exists();
        let merged = std::fs::read_to_string(inner.manifests_dir.join(file)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome, (ChunkPhase::Done, 1, 1));
        assert_eq!(merged, "{}\n");
        assert!(!stashed, "the merged chunk's stashed checkpoint is removed");
    }
}
