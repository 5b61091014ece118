//! The fleet coordinator: shards campaigns across registered `vcfr
//! serve` worker daemons and merges their manifests into one canonical
//! `results/` tree.
//!
//! The coordinator is a JSON-lines service of the same dialect as the
//! daemon (`docs/fleet.md` documents the protocol): workers *register*
//! with it, clients *submit* `RunSpec` chunks to it, and a scheduler
//! thread polls dispatched chunks and hands pending ones to the
//! least-loaded live worker, in a round that each dispatched job's end
//! wakes, and heartbeats every worker on its own capped exponential
//! backoff clock. A worker that misses `lost_after` consecutive
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
use crate::server::{lock, read_records, serve_lines, wait, write_record, Retained};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
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
    fn is_terminal(self) -> bool {
        matches!(self, ChunkPhase::Done | ChunkPhase::Failed)
    }

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

/// Terminal chunks the coordinator keeps in memory, and lists in
/// `status`, beside its open ones. Every chunk's record stays in
/// `chunks/`, and `status` counts every chunk exactly.
const KEEP_TERMINAL: usize = 32;

#[derive(Default)]
struct FleetState {
    workers: BTreeMap<u64, WorkerState>,
    /// Every open chunk plus the [`KEEP_TERMINAL`] that ended last.
    chunks: Retained<ChunkState, KEEP_TERMINAL>,
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
    /// `shutdown`, and by every dispatched job that ends on its worker.
    /// The scheduler reads it when it plans a round and checks it before
    /// it waits, so one that arrives while the round is out on the
    /// network starts the next round at once.
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
    /// Wakes the scheduler on registration, submission, shutdown and the
    /// end of a dispatched job.
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
/// restart: every open chunk, and the [`KEEP_TERMINAL`] terminal ones
/// with the highest ids. Dispatched chunks stay dispatched — the first
/// scheduler round re-synchronises with the (restarted or still-running)
/// workers, and the lost-worker path covers everything else. A chunk
/// whose spec admission refuses is skipped, but its id (and so its file)
/// is never handed out again.
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
        st.chunks.live.insert(
            id,
            ChunkState {
                spec,
                phase,
                redispatches: doc.get("redispatches").and_then(Json::as_u64).unwrap_or(0),
                resumed: matches!(doc.get("resumed"), Some(Json::Bool(true))),
                error: doc.get("error").and_then(Json::as_str).map(str::to_string),
            },
        );
        if phase.is_terminal() {
            st.chunks.retire(id, phase == ChunkPhase::Done);
        }
    }
    st
}

/// `(chunk id, remote job id)` pairs a worker currently holds.
type HeldChunks = Vec<(u64, u64)>;

/// The chunks dispatched to `worker`, in id order.
fn held_by(st: &FleetState, worker: u64) -> HeldChunks {
    st.chunks
        .live
        .iter()
        .filter_map(|(&cid, c)| match c.phase {
            ChunkPhase::Dispatched { worker: w, remote_id } if w == worker => {
                Some((cid, remote_id))
            }
            _ => None,
        })
        .collect()
}

/// A round's polls (planned under the state lock, executed without it).
struct Polls {
    /// `(worker, dir, dispatched chunks)` per live worker.
    workers: Vec<(u64, PathBuf, HeldChunks)>,
    /// [`FleetState::wakes`] when the round was planned.
    wakes: u64,
}

/// `(chunk, worker, spec, stashed checkpoint)`: one planned dispatch.
type Dispatch = (u64, u64, RunSpec, Option<Vec<u8>>);

/// What the network half of a round observed (applied back under the
/// lock).
#[derive(Default)]
struct RoundResult {
    /// Workers that answered every request of the round.
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

/// Plans a round's polls: every live worker, with the chunks it holds.
fn plan_polls(inner: &FleetInner) -> Polls {
    let st = lock(&inner.state);
    let workers = st
        .workers
        .iter()
        .filter(|(_, w)| w.alive)
        .map(|(&wid, w)| (wid, w.dir.clone(), held_by(&st, wid)))
        .collect();
    Polls { workers, wakes: st.wakes }
}

/// The order pending chunks go out in: largest instruction budget first,
/// then by manifest file name, then by id. Among the chunks pending at a
/// round, the order depends on their specs alone, not on the order they
/// were submitted in, so a batch's time depends on that order only
/// through the chunks that go out before the rest of the batch arrives.
/// Large chunks start early, so a batch does not end with one worker
/// running a long chunk while the others idle.
fn dispatch_order(cid: u64, spec: &RunSpec) -> (Reverse<u64>, String, u64) {
    (Reverse(spec.max_insts), spec.manifest_file_name(), cid)
}

/// Plans a round's dispatches from what its polls saw, so a slot that a
/// finished chunk frees is refilled in the same round: the chunks in
/// `ended` (fetched done or failed) no longer hold a slot, and pending
/// chunks go to the least-loaded worker that `answered` the polls and has
/// a free slot, in [`dispatch_order`]; a stashed checkpoint rides along.
fn plan_dispatches(
    inner: &FleetInner,
    answered: impl Fn(u64) -> bool,
    ended: &[u64],
) -> Vec<Dispatch> {
    let st = lock(&inner.state);
    let mut free: BTreeMap<u64, u64> = st
        .workers
        .iter()
        .filter(|(&wid, _)| answered(wid))
        .map(|(&wid, w)| {
            let holding = held_by(&st, wid).iter().filter(|(cid, _)| !ended.contains(cid)).count();
            (wid, w.slots.saturating_sub(holding as u64))
        })
        .collect();
    let mut pending: Vec<(u64, &ChunkState)> = st
        .chunks
        .live
        .iter()
        .filter(|(_, c)| c.phase == ChunkPhase::Pending)
        .map(|(&cid, c)| (cid, c))
        .collect();
    pending.sort_by_cached_key(|&(cid, c)| dispatch_order(cid, &c.spec));
    let mut dispatches = Vec::new();
    for (cid, c) in pending {
        let Some((&wid, _)) = free
            .iter()
            .filter(|(_, slots)| **slots > 0)
            .max_by_key(|(_, slots)| **slots)
        else {
            break;
        };
        *free.get_mut(&wid).expect("picked above") -= 1;
        let ckpt = std::fs::read(inner.stash_file(cid)).ok();
        dispatches.push((cid, wid, c.spec.clone(), ckpt));
    }
    dispatches
}

/// Whether an RPC failed by running out of its time bound.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A connection to the worker in `dir` that has just answered a `ping`:
/// the one the previous round `kept`, or a fresh one when there is none
/// or it broke (the daemon restarted). A `ping` that times out gets no
/// second try, so a wedged worker costs a round one RPC bound.
fn heartbeat(inner: &FleetInner, dir: &Path, kept: Option<Client>) -> Option<Client> {
    if let Some(mut client) = kept {
        match client.ping() {
            Ok(_) => return Some(client),
            Err(ServiceError::Io(e)) if timed_out(&e) => return None,
            Err(_) => {}
        }
    }
    let mut client = Client::connect_within(dir, inner.rpc_timeout).ok()?;
    client.ping().ok().map(|_| client)
}

/// The poll half of a round (no locks held): heartbeat every planned
/// worker and fetch every chunk it holds, over the connection `links`
/// kept from the previous round. Leaves in `links` the connection of
/// each worker that answered, for the dispatch half and the next round.
fn poll_workers(
    inner: &FleetInner,
    polls: Vec<(u64, PathBuf, HeldChunks)>,
    links: &mut BTreeMap<u64, Client>,
    result: &mut RoundResult,
) {
    let mut kept = std::mem::take(links);
    'workers: for (wid, dir, holding) in polls {
        let Some(mut client) = heartbeat(inner, &dir, kept.remove(&wid)) else {
            result.missed.push(wid);
            continue;
        };
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
                    result.missed.push(wid);
                    continue 'workers;
                }
            }
        }
        links.insert(wid, client);
    }
}

/// The dispatch half of a round (no locks held): sends each planned
/// dispatch over the connection its worker's poll used.
fn send_dispatches(
    dispatches: Vec<Dispatch>,
    links: &mut BTreeMap<u64, Client>,
    result: &mut RoundResult,
) {
    for (cid, wid, spec, ckpt) in dispatches {
        let Some(client) = links.get_mut(&wid) else { continue };
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
                links.remove(&wid);
                result.missed.push(wid);
            }
        }
    }
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
    end_chunk(inner, st, cid, phase, error);
    phase == ChunkPhase::Done
}

/// Records chunk `cid`'s terminal phase, persists it, and retires the
/// chunk into the window of recent terminal chunks.
fn end_chunk(
    inner: &FleetInner,
    st: &mut FleetState,
    cid: u64,
    phase: ChunkPhase,
    error: Option<String>,
) {
    if let Some(c) = st.chunks.live.get_mut(&cid) {
        c.phase = phase;
        c.error = error;
        persist_chunk(&inner.chunks_dir, cid, c);
        st.chunks.retire(cid, phase == ChunkPhase::Done);
    }
}

/// Folds a round's observations back into the state: its fetched merges
/// and failures, then its dispatches and, when a heartbeat was due
/// (`beat`), the liveness of every polled worker. Returns whether
/// anything moved (resets the heartbeat backoff).
fn apply_round(inner: &FleetInner, result: RoundResult, beat: bool) -> bool {
    let mut st = lock(&inner.state);
    let mut moved = false;
    for (cid, wid, file, text) in result.done {
        merge_chunk(inner, &mut st, cid, wid, &file, &text);
        moved = true;
    }
    for (cid, msg) in result.failed {
        let phase = st.chunks.live.get(&cid).map(|c| c.phase);
        if matches!(phase, Some(ChunkPhase::Dispatched { .. })) {
            end_chunk(inner, &mut st, cid, ChunkPhase::Failed, Some(msg));
            moved = true;
        }
    }
    for (cid, wid, remote_id, resumed) in result.dispatched {
        if let Some(c) = st.chunks.live.get_mut(&cid) {
            if c.phase == ChunkPhase::Pending {
                c.resumed |= resumed;
                c.phase = ChunkPhase::Dispatched { worker: wid, remote_id };
                persist_chunk(&inner.chunks_dir, cid, c);
                moved = true;
            }
        }
    }
    // Liveness runs on the heartbeat clock: a round with no heartbeat due
    // neither counts a miss nor clears one. (Only live workers are
    // polled, and only this thread declares one lost.)
    if !beat {
        return moved;
    }
    for wid in result.ok {
        if let Some(w) = st.workers.get_mut(&wid) {
            w.misses = 0;
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
            let file = st.chunks.live[&cid].spec.manifest_file_name();
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
        let c = st.chunks.live.get_mut(&cid).expect("held chunk");
        c.phase = ChunkPhase::Pending;
        c.redispatches += 1;
        c.resumed |= resumed;
        persist_chunk(&inner.chunks_dir, cid, c);
    }
}

/// The completion wake of chunk `cid`, dispatched to worker `wid` as its
/// job `remote_id`: watches the job and, when its stream ends, wakes the
/// scheduler, whose next round merges the chunk and refills its slot at
/// once. A read that times out re-opens the watch while the chunk is
/// still dispatched there (a job queued behind a long one sends no
/// lines). Any other outcome ends the watch: an error answer (a worker
/// that does not speak `watch`), a refused connect, or the chunk moving
/// on. The heartbeat still covers the chunk. Every read is bounded by the
/// RPC bound, so the watch exits within one bound of its chunk leaving
/// `dispatched` or of the coordinator stopping.
fn watch_chunk(inner: &FleetInner, cid: u64, wid: u64, remote_id: u64) {
    let Some(dir) = lock(&inner.state).workers.get(&wid).map(|w| w.dir.clone()) else {
        return;
    };
    let watching = || {
        let dispatched = ChunkPhase::Dispatched { worker: wid, remote_id };
        !inner.stopping()
            && lock(&inner.state).chunks.live.get(&cid).is_some_and(|c| c.phase == dispatched)
    };
    while watching() {
        let Ok(mut client) = Client::connect_within(&dir, inner.rpc_timeout) else { return };
        match client.watch_while(remote_id, |_| watching()) {
            Ok(true) => {
                lock(&inner.state).wakes += 1;
                inner.changed.notify_all();
                return;
            }
            Err(ServiceError::Io(e)) if timed_out(&e) => {}
            _ => return,
        }
    }
}

/// One scheduler round: heartbeat and poll every live worker, plan
/// dispatches into the slots its finished chunks free and send them over
/// the polls' connections, then apply everything the round saw (merges
/// and failures first, so the merge's file work comes after the refill;
/// then the dispatches and every worker's liveness, where a miss counts
/// only when `beat`), and start a completion watch per dispatched chunk.
/// `links` holds one connection per worker from round to round. Returns
/// the wake count the round was planned at and whether anything moved.
fn round(inner: &Arc<FleetInner>, links: &mut BTreeMap<u64, Client>, beat: bool) -> (u64, bool) {
    let polls = plan_polls(inner);
    let mut result = RoundResult::default();
    poll_workers(inner, polls.workers, links, &mut result);
    let ended: Vec<u64> =
        result.done.iter().map(|d| d.0).chain(result.failed.iter().map(|f| f.0)).collect();
    let dispatches = plan_dispatches(inner, |wid| links.contains_key(&wid), &ended);
    send_dispatches(dispatches, links, &mut result);
    result.ok = links.keys().copied().collect();
    let watches: Vec<(u64, u64, u64)> =
        result.dispatched.iter().map(|&(cid, wid, remote_id, _)| (cid, wid, remote_id)).collect();
    let moved = apply_round(inner, result, beat);
    // Detached, like the server's connection threads: a watch ends on its
    // own within one RPC bound of its chunk moving on or of a stop, and
    // joining it would hold a shutdown up for that long.
    for (cid, wid, remote_id) in watches {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || watch_chunk(&inner, cid, wid, remote_id));
    }
    (polls.wakes, moved)
}

/// The scheduler thread. Rounds run at completion pace: a `register`,
/// `submit` or `shutdown`, or a dispatched job's end, starts the next
/// round at once (one that comes in during a round starts the round
/// after it). Heartbeats keep their own clock: one is due a backoff
/// interval after the previous one, whatever wakes come in between, and
/// only a round with a heartbeat due counts a missed one. So a dead
/// worker is declared lost after `lost_after` heartbeats, never after
/// `lost_after` completions of another worker.
fn scheduler(inner: &Arc<FleetInner>) {
    let mut backoff = Backoff::new(inner.heartbeat.0, inner.heartbeat.1);
    let mut next_beat = Instant::now();
    let mut links = BTreeMap::new();
    while !inner.stopping() {
        let beat = Instant::now() >= next_beat;
        let (wakes, moved) = round(inner, &mut links, beat);
        if moved {
            // Activity pulls the next heartbeat in to the floor; it never
            // pushes a due one back.
            backoff.reset();
            next_beat = next_beat.min(Instant::now() + backoff.current());
        }
        if beat {
            next_beat = Instant::now() + backoff.step();
        }
        let st = lock(&inner.state);
        if st.wakes == wakes && !inner.stopping() {
            let _ = wait(&inner.changed, st, next_beat.saturating_duration_since(Instant::now()));
        }
    }
}

/// The fleet `status` body: every worker, the chunk counts, and the
/// chunk list, which holds the open chunks plus the [`KEEP_TERMINAL`]
/// that ended last. The counts cover every chunk.
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
        st.chunks.live.values().filter(|c| c.phase.as_str() == phase).count() as u64
    };
    let [dropped_done, dropped_failed] = st.chunks.dropped;
    counts.set("pending", Json::U64(count("pending")));
    counts.set("dispatched", Json::U64(count("dispatched")));
    counts.set("done", Json::U64(count("done") + dropped_done));
    counts.set("failed", Json::U64(count("failed") + dropped_failed));
    counts.set("total", Json::U64(st.chunks.total()));
    f.set("chunks", counts);
    let mut recovery = Json::obj();
    recovery.set("manifests", Json::U64(st.recovered_manifests));
    recovery.set("resumed", Json::U64(st.resumed_chunks));
    recovery.set("restarted", Json::U64(st.restarted_chunks));
    f.set("recovery", recovery);
    let mut chunk_list = Vec::new();
    for (&cid, c) in &st.chunks.live {
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
    let open = st.chunks.live.values().filter(|c| !c.phase.is_terminal()).count();
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
    st.chunks.live.insert(id, chunk);
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
            r.set("jobs", Json::U64(st.chunks.total()));
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
        assert!(st.chunks.live.is_empty());
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
        let (polls, dispatches) = (plan_polls(&inner), plan_dispatches(&inner, |_| true, &[]));
        let status = handle(&inner, 1, &request("status"), &mut Vec::new()).expect("answers");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(submitted.and_then(|r| r.get("id").and_then(Json::as_u64)), Some(1));
        assert!(polls.workers.is_empty() && dispatches.is_empty(), "no worker to plan for");
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
            .live
            .insert(1, ChunkState { spec, phase, redispatches: 1, resumed: true, error: None });
        recover_lost_worker(&inner, &mut st, 1);
        let outcome = (st.chunks.live[&1].phase, st.recovered_manifests, st.workers[&1].done);
        drop(st);
        let stashed = inner.stash_file(1).exists();
        let merged = std::fs::read_to_string(inner.manifests_dir.join(file)).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome, (ChunkPhase::Done, 1, 1));
        assert_eq!(merged, "{}\n");
        assert!(!stashed, "the merged chunk's stashed checkpoint is removed");
    }

    /// A bzip2 chunk with instruction budget `max_insts`.
    fn chunk(max_insts: u64, phase: ChunkPhase) -> ChunkState {
        let mut spec = RunSpec::new("bzip2");
        spec.max_insts = max_insts;
        ChunkState { spec, phase, redispatches: 0, resumed: false, error: None }
    }

    fn worker(dir: &Path, slots: u64) -> WorkerState {
        WorkerState { dir: dir.join("worker"), slots, alive: true, misses: 0, done: 0 }
    }

    #[test]
    fn pending_chunks_go_out_largest_budget_first_in_any_submission_order() {
        let (dir, inner) = temp_fleet("order");
        let mut planned = Vec::new();
        for budgets in
            [[10_000, 30_000, 20_000], [30_000, 20_000, 10_000], [20_000, 10_000, 30_000]]
        {
            let mut st = lock(&inner.state);
            *st = FleetState::default();
            st.workers.insert(1, worker(&dir, 3));
            for (id, budget) in (1..).zip(budgets) {
                st.chunks.live.insert(id, chunk(budget, ChunkPhase::Pending));
            }
            drop(st);
            let plan = plan_dispatches(&inner, |_| true, &[]);
            planned.push(plan.iter().map(|d| d.2.max_insts).collect::<Vec<_>>());
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(planned, vec![vec![30_000, 20_000, 10_000]; 3]);
    }

    #[test]
    fn a_chunk_fetched_finished_frees_its_slot_in_the_same_plan() {
        let (dir, inner) = temp_fleet("refill");
        let mut st = lock(&inner.state);
        st.workers.insert(1, worker(&dir, 1));
        st.chunks.live.insert(1, chunk(10_000, ChunkPhase::Dispatched { worker: 1, remote_id: 4 }));
        st.chunks.live.insert(2, chunk(10_000, ChunkPhase::Pending));
        drop(st);
        let full = plan_dispatches(&inner, |_| true, &[]);
        let refilled = plan_dispatches(&inner, |_| true, &[1]);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(full.is_empty(), "the worker's one slot is taken");
        assert_eq!(refilled.iter().map(|d| (d.0, d.1)).collect::<Vec<_>>(), [(2, 1)]);
    }
}
