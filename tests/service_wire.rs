//! Wire-level regressions of the service: request latency over one
//! connection, the gaps inside a `watch` stream, JSON string parsing at
//! checkpoint scale, a fleet worker that accepts connections but never
//! answers, one that answers a submit only after the coordinator has
//! given up on it, a submit that arrives while a scheduler round is out
//! on the network, a coordinator restart, the coordinator's completion
//! pacing and heartbeat clock, and the bounded history of the daemon
//! and the coordinator.
//!
//! Each test bounds its wait, so a regression fails in seconds instead
//! of hanging the suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vcfr_bench::{ModeSpec, RunSpec};
use vcfr_obs::{parse_json, Json};
use vcfr_service::{
    serve, serve_fleet, Client, FleetOptions, ServeOptions, ServiceError, ENDPOINT_FILE,
};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcfr-service-wire-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Connects once the service in `dir` has published its endpoint.
fn connect(dir: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match Client::connect(dir) {
            Ok(c) => return c,
            Err(e) if Instant::now() > deadline => panic!("no endpoint in {}: {e}", dir.display()),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

#[test]
fn fifty_pings_on_one_connection_take_under_a_second() {
    let dir = fresh_dir("ping");
    let opts = ServeOptions { dir: dir.clone(), workers: 1, ..ServeOptions::default() };
    let daemon = std::thread::spawn(move || serve(&opts));
    let mut client = connect(&dir);
    let t = Instant::now();
    for _ in 0..50 {
        client.ping().expect("ping");
    }
    let took = t.elapsed();
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    // A request and its reply each cost a delayed-ACK stall (40 ms) when
    // a frame leaves in more than one write.
    assert!(took < Duration::from_secs(1), "50 pings took {took:?}");
}

#[test]
fn a_watch_stream_never_waits_for_a_delayed_ack() {
    let dir = fresh_dir("watch");
    let opts = ServeOptions { dir: dir.clone(), workers: 1, ..ServeOptions::default() };
    let daemon = std::thread::spawn(move || serve(&opts));
    let mut client = connect(&dir);
    let spec = RunSpec {
        mode: ModeSpec::Base,
        max_insts: 20_000,
        checkpoint_every: 20_000,
        ..RunSpec::new("bzip2")
    };
    // The largest gap between consecutive lines of each job's stream,
    // from the `watch` request to its `end` line.
    let mut largest = Vec::new();
    for _ in 0..10 {
        let id = client.submit(&spec).expect("submit");
        let mut last = Instant::now();
        let mut gap = Duration::ZERO;
        client
            .watch(id, |_| {
                gap = gap.max(last.elapsed());
                last = Instant::now();
            })
            .expect("watch");
        largest.push(gap.max(last.elapsed()));
    }
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    largest.sort();
    // The daemon writes each wakeup of the stream as it happens while the
    // client only reads. Were the second write held for the client's
    // delayed ACK, every job would show a gap of about 40 ms.
    assert!(largest[5] < Duration::from_millis(25), "largest gap per job: {largest:?}");
}

#[test]
fn a_multi_mib_string_parses_in_linear_time() {
    // A submit request whose checkpoint rides along as 4 MiB of hex (a
    // re-dispatch carries one like it), plus 1 MiB of escapes, `\u`
    // escapes and 2-, 3- and 4-byte UTF-8.
    let hex: String = "0123456789abcdef".repeat(1 << 18);
    let unit = "ab\"c\\d\n\t\u{1}é€𝄞\u{1f}";
    let mixed = unit.repeat((1 << 20) / unit.len());
    let mut req = Json::obj();
    req.set("op", Json::Str("submit".to_string()));
    req.set("ckpt", Json::Str(hex.clone()));
    req.set("note", Json::Str(mixed.clone()));
    let text = req.compact();

    // Parsed off-thread, so a quadratic parser fails the bound instead
    // of stalling the suite.
    let (tx, rx) = mpsc::channel();
    let parser = std::thread::spawn(move || {
        let _ = tx.send(parse_json(&text));
    });
    let back = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a 5 MiB document parses within 2 s")
        .expect("valid JSON");
    parser.join().expect("parser thread");
    let field = |key: &str| back.get(key).and_then(Json::as_str).map(str::as_bytes);
    assert_eq!(field("ckpt"), Some(hex.as_bytes()));
    assert_eq!(field("note"), Some(mixed.as_bytes()));
}

#[test]
fn a_worker_that_accepts_but_never_answers_is_declared_lost() {
    let root = fresh_dir("wedged");
    let worker = root.join("worker");
    std::fs::create_dir_all(&worker).expect("worker dir");
    // Bound but never accepting: the kernel completes each handshake into
    // the backlog, so connects succeed and every request goes unanswered.
    let wedged = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = wedged.local_addr().expect("local addr");
    std::fs::write(worker.join(ENDPOINT_FILE), format!("{addr}\n")).expect("endpoint");

    let coordinator = root.join("fleet");
    let opts = FleetOptions {
        dir: coordinator.clone(),
        heartbeat_ms: 20,
        heartbeat_cap_ms: 100,
        lost_after: 2,
        ..FleetOptions::default()
    };
    let fleet = std::thread::spawn(move || serve_fleet(&opts));
    let mut client = connect(&coordinator);
    client.register(&worker, 1).expect("register");

    let deadline = Instant::now() + Duration::from_secs(5);
    let lost = loop {
        let status = client.fleet_status().expect("status");
        let alive = status
            .get("workers")
            .and_then(Json::as_arr)
            .and_then(|w| w.first())
            .and_then(|w| w.get("alive"))
            .cloned();
        if alive == Some(Json::Bool(false)) {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // Closing the listener resets its queued connections, which frees a
    // scheduler stuck on one, so the coordinator can exit either way.
    drop(wedged);
    client.shutdown_fleet(false).expect("shutdown");
    fleet.join().expect("fleet thread").expect("coordinator exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    assert!(lost, "a worker that never answers was not declared lost within 5 s");
}

/// Serves one coordinator connection as a stand-in worker daemon. Every
/// `submit` is admitted on receipt, and `admitted[id - 1]` records the
/// manifest file of job `id`. The first request of op `late_op` is
/// answered only after `late_by`, like a worker that stalls and then
/// resumes. Every job reports `running` forever, or, when `finish`, is
/// done with the manifest `{}` as soon as it is fetched. `watch` is an
/// unknown op.
fn answer_as_stalling_worker(
    stream: TcpStream,
    late_op: &str,
    late_by: Duration,
    finish: bool,
    first: &AtomicBool,
    admitted: &Mutex<Vec<String>>,
) {
    let Ok(mut writer) = stream.try_clone() else { return };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let req = parse_json(&line).expect("a JSON request");
        let op = req.get("op").and_then(Json::as_str);
        let mut resp = Json::obj();
        resp.set("ok", Json::Bool(true));
        match op {
            Some("ping") => {
                resp.set("jobs", Json::U64(0));
            }
            Some("submit") => {
                let spec = RunSpec::from_json(req.get("job").expect("a job")).expect("a spec");
                let id = {
                    let mut admitted = admitted.lock().expect("admitted lock");
                    admitted.push(spec.manifest_file_name());
                    admitted.len() as u64
                };
                resp.set("id", Json::U64(id));
            }
            Some("fetch") => {
                let phase = if finish { "done" } else { "running" };
                let mut job = Json::obj();
                job.set("phase", Json::Str(phase.to_string()));
                resp.set("job", job);
                let index = req.get("id").and_then(Json::as_u64).and_then(|id| id.checked_sub(1));
                let admitted = admitted.lock().expect("admitted lock");
                let file = index.and_then(|i| admitted.get(usize::try_from(i).ok()?).cloned());
                if let (true, Some(file)) = (finish, file) {
                    resp.set("file", Json::Str(file));
                    resp.set("manifest", Json::Str("{}\n".to_string()));
                }
            }
            _ => {
                resp.set("ok", Json::Bool(false));
                resp.set("error", Json::Str("unknown op".to_string()));
            }
        }
        if op == Some(late_op) && first.swap(false, Ordering::SeqCst) {
            std::thread::sleep(late_by);
        }
        // The coordinator may have hung up on a late reply.
        if writer.write_all(format!("{}\n", resp.compact()).as_bytes()).is_err() {
            return;
        }
    }
}

/// A stand-in worker daemon that publishes its endpoint in a state
/// directory and serves every coordinator connection with
/// [`answer_as_stalling_worker`].
struct StandIn {
    addr: SocketAddr,
    admitted: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
}

impl StandIn {
    fn start(dir: &Path, late_op: &'static str, late_by: Duration) -> StandIn {
        StandIn::serve(dir, late_op, late_by, false)
    }

    /// A stand-in whose jobs are done by the time they are first fetched.
    fn finishing(dir: &Path) -> StandIn {
        StandIn::serve(dir, "", Duration::ZERO, true)
    }

    fn serve(dir: &Path, late_op: &'static str, late_by: Duration, finish: bool) -> StandIn {
        std::fs::create_dir_all(dir).expect("worker dir");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        std::fs::write(dir.join(ENDPOINT_FILE), format!("{addr}\n")).expect("endpoint");
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (admitted, stop) = (Arc::clone(&admitted), Arc::clone(&stop));
            let first = Arc::new(AtomicBool::new(true));
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    let (admitted, first) = (Arc::clone(&admitted), Arc::clone(&first));
                    std::thread::spawn(move || {
                        let (late, admitted) = (late_by, &admitted);
                        answer_as_stalling_worker(stream, late_op, late, finish, &first, admitted);
                    });
                }
            })
        };
        StandIn { addr, admitted, stop, acceptor }
    }

    /// The manifest file of every job admitted so far, in job-id order.
    fn admitted(&self) -> Vec<String> {
        self.admitted.lock().expect("admitted lock").clone()
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        self.acceptor.join().expect("worker thread");
    }
}

/// A coordinator running on its own thread, and a client of it.
type Fleet = (Client, JoinHandle<Result<(), ServiceError>>);

fn start_fleet(opts: &FleetOptions) -> Fleet {
    let fleet = {
        let opts = opts.clone();
        std::thread::spawn(move || serve_fleet(&opts))
    };
    (connect(&opts.dir), fleet)
}

fn stop_fleet((mut client, fleet): Fleet, stop_workers: bool) {
    client.shutdown_fleet(stop_workers).expect("shutdown");
    fleet.join().expect("fleet thread").expect("coordinator exits cleanly");
}

#[test]
fn a_late_submit_reply_is_never_taken_for_another_chunks() {
    let root = fresh_dir("late");
    let worker = root.join("worker");
    // Heartbeat 20/100 ms and lost_after 3 bound every coordinator RPC at
    // 300 ms. The first submit's reply comes 450 ms late: after that
    // submit has timed out, and while a second submit sent on the same
    // connection would still be waiting for its own reply.
    let stand_in = StandIn::start(&worker, "submit", Duration::from_millis(450));
    let opts = FleetOptions {
        dir: root.join("fleet"),
        heartbeat_ms: 20,
        heartbeat_cap_ms: 100,
        lost_after: 3,
        ..FleetOptions::default()
    };
    let (mut client, fleet) = start_fleet(&opts);
    // Both chunks are pending before the worker registers with two
    // slots, so the first round sends both submits down one connection.
    for app in ["bzip2", "hmmer"] {
        client.submit(&RunSpec::new(app)).expect("submit");
    }
    client.register(&worker, 2).expect("register");

    let deadline = Instant::now() + Duration::from_secs(5);
    let chunks = loop {
        let status = client.fleet_status().expect("status");
        let chunks = status.get("chunk_list").and_then(Json::as_arr).unwrap_or(&[]).to_vec();
        let dispatched = chunks
            .iter()
            .filter(|c| c.get("phase").and_then(Json::as_str) == Some("dispatched"))
            .count();
        if dispatched == 2 || Instant::now() > deadline {
            break chunks;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    stop_fleet((client, fleet), false);
    let admitted = stand_in.admitted();
    stand_in.stop();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(chunks.len(), 2, "both chunks are in the table");
    for chunk in &chunks {
        let file = chunk.get("file").and_then(Json::as_str).expect("a manifest file");
        let remote_id = chunk
            .get("remote_id")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("{file} was not dispatched within 5 s"));
        let job_file = remote_id
            .checked_sub(1)
            .and_then(|i| usize::try_from(i).ok())
            .and_then(|i| admitted.get(i));
        assert_eq!(
            job_file.map(String::as_str),
            Some(file),
            "{file} is recorded as job {remote_id}, which the worker admitted for another chunk \
             (admitted: {admitted:?})"
        );
    }
}

#[test]
fn a_submit_during_a_round_starts_the_next_round_at_once() {
    let root = fresh_dir("wakeup");
    let worker = root.join("worker");
    // The first heartbeat the worker gets is answered 400 ms late, so the
    // round it belongs to is still out on the network when the chunk
    // arrives. The next heartbeat is due 3 s later.
    let stand_in = StandIn::start(&worker, "ping", Duration::from_millis(400));
    let opts = FleetOptions {
        dir: root.join("fleet"),
        heartbeat_ms: 3_000,
        heartbeat_cap_ms: 3_000,
        ..FleetOptions::default()
    };
    let (mut client, fleet) = start_fleet(&opts);
    client.register(&worker, 1).expect("register");
    std::thread::sleep(Duration::from_millis(100));
    let submitted = Instant::now();
    client.submit(&RunSpec::new("bzip2")).expect("submit");
    let deadline = submitted + Duration::from_secs(5);
    while stand_in.admitted().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let took = submitted.elapsed();
    stop_fleet((client, fleet), false);
    stand_in.stop();
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        took < Duration::from_millis(1_500),
        "the worker received the submit {took:?} after the client sent it"
    );
}

/// `(id, manifest file, phase)` of every chunk in the coordinator's table.
fn chunk_table(client: &mut Client) -> Vec<(u64, String, String)> {
    let status = client.fleet_status().expect("status");
    let chunks = status.get("chunk_list").and_then(Json::as_arr).unwrap_or(&[]);
    chunks
        .iter()
        .map(|c| {
            let field = |k| c.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
            (c.get("id").and_then(Json::as_u64).unwrap_or(0), field("file"), field("phase"))
        })
        .collect()
}

#[test]
fn a_restarted_coordinator_keeps_its_chunks_workers_and_ids() {
    let root = fresh_dir("restart");
    let (worker, coordinator) = (root.join("worker"), root.join("fleet"));
    let opts = FleetOptions {
        dir: coordinator.clone(),
        heartbeat_ms: 20,
        heartbeat_cap_ms: 100,
        ..FleetOptions::default()
    };
    let restart = |fleet: Fleet| {
        stop_fleet(fleet, false);
        start_fleet(&opts)
    };
    let spec = |app| RunSpec {
        mode: ModeSpec::Base,
        max_insts: 20_000,
        checkpoint_every: 20_000,
        ..RunSpec::new(app)
    };

    // Two chunks submitted while no worker is registered stay pending,
    // under the same ids, across a restart.
    let mut fleet = start_fleet(&opts);
    for app in ["bzip2", "hmmer"] {
        fleet.0.submit(&spec(app)).expect("submit");
    }
    let pending = chunk_table(&mut fleet.0);
    let expected = [(1, "bzip2__base.json"), (2, "hmmer__base.json")]
        .map(|(id, file)| (id, file.to_string(), "pending".to_string()));
    assert_eq!(pending, expected);
    let mut fleet = restart(fleet);
    assert_eq!(chunk_table(&mut fleet.0), pending, "the first restart keeps the pending chunks");

    // A worker daemon registers with the restarted coordinator and runs
    // both chunks.
    let daemon = {
        let opts = ServeOptions { dir: worker.clone(), workers: 1, ..ServeOptions::default() };
        std::thread::spawn(move || serve(&opts))
    };
    drop(connect(&worker));
    let worker_id = fleet.0.register(&worker, 2).expect("register");
    let deadline = Instant::now() + Duration::from_secs(20);
    let done = loop {
        let table = chunk_table(&mut fleet.0);
        if table.iter().all(|(_, _, phase)| phase == "done") || Instant::now() > deadline {
            break table;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let expected = pending.iter().map(|(id, file, _)| (*id, file.clone(), "done".to_string()));
    assert_eq!(done, expected.collect::<Vec<_>>(), "the worker runs both chunks");

    // The second restart keeps the done chunks and the worker's id, hands
    // out a fresh chunk id, and finds the merged manifests on disk.
    let mut fleet = restart(fleet);
    assert_eq!(chunk_table(&mut fleet.0), done, "the second restart keeps the done chunks");
    assert_eq!(fleet.0.register(&worker, 2).expect("register"), worker_id);
    assert_eq!(fleet.0.submit(&spec("gcc")).expect("submit"), 3, "a fresh chunk id");
    let merged = coordinator.join("results").join("manifests");
    let on_disk: Vec<bool> = done.iter().map(|(_, file, _)| merged.join(file).is_file()).collect();
    stop_fleet(fleet, true);
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(on_disk, [true, true], "both merged manifests are on disk");
}

/// A bzip2 chunk that runs for a few milliseconds.
fn short_chunk() -> RunSpec {
    RunSpec {
        mode: ModeSpec::Base,
        max_insts: 20_000,
        checkpoint_every: 20_000,
        ..RunSpec::new("bzip2")
    }
}

/// A daemon with `workers` worker threads, serving `dir` on a thread of
/// its own.
fn start_daemon(dir: &Path, workers: usize) -> JoinHandle<Result<(), ServiceError>> {
    let dir = dir.to_path_buf();
    let opts =
        ServeOptions { dir: dir.clone(), workers, queue_capacity: 128, ..ServeOptions::default() };
    let daemon = std::thread::spawn(move || serve(&opts));
    drop(connect(&dir));
    daemon
}

/// `(pending, dispatched, done, failed, total)` from a fleet `status`.
fn chunk_counts(status: &Json) -> [u64; 5] {
    ["pending", "dispatched", "done", "failed", "total"]
        .map(|k| status.get_path(&format!("chunks.{k}")).and_then(Json::as_u64).unwrap_or(u64::MAX))
}

/// One worker's entry in a fleet `status`.
fn worker_entry(status: &Json, id: u64) -> Json {
    let workers = status.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
    let found = workers.iter().find(|w| w.get("id").and_then(Json::as_u64) == Some(id));
    found.cloned().unwrap_or_else(|| panic!("worker {id} is not in {status:?}"))
}

#[test]
fn a_finished_chunk_refills_its_slot_without_waiting_for_a_heartbeat() {
    let root = fresh_dir("pacing");
    let worker = root.join("worker");
    // A heartbeat every 3 s: a chunk's end must wake the scheduler, which
    // merges the chunk and hands the freed slot the next one at once.
    let opts = FleetOptions {
        dir: root.join("fleet"),
        heartbeat_ms: 3_000,
        heartbeat_cap_ms: 3_000,
        ..FleetOptions::default()
    };
    let daemon = start_daemon(&worker, 1);
    let (mut client, fleet) = start_fleet(&opts);
    client.register(&worker, 1).expect("register");
    let submitted = Instant::now();
    for _ in 0..4 {
        client.submit(&short_chunk()).expect("submit");
    }
    let deadline = submitted + Duration::from_secs(10);
    let counts = loop {
        let counts = chunk_counts(&client.fleet_status().expect("status"));
        if counts[2] == 4 || Instant::now() > deadline {
            break counts;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let took = submitted.elapsed();
    stop_fleet((client, fleet), true);
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(counts, [0, 0, 4, 0, 4], "all four chunks are done");
    assert!(took < Duration::from_millis(1_500), "four chunks on one slot took {took:?}");
}

#[test]
fn a_dead_worker_is_lost_on_the_heartbeat_clock_not_at_completion_pace() {
    let root = fresh_dir("liveness");
    let (live, dead) = (root.join("live"), root.join("dead"));
    // The dead worker's endpoint names port 0, which nothing can listen
    // on, so every connect to it is refused at once.
    std::fs::create_dir_all(&dead).expect("dead worker dir");
    std::fs::write(dead.join(ENDPOINT_FILE), "127.0.0.1:0\n").expect("endpoint");
    let opts = FleetOptions {
        dir: root.join("fleet"),
        heartbeat_ms: 100,
        heartbeat_cap_ms: 100,
        lost_after: 3,
        ..FleetOptions::default()
    };
    let daemon = start_daemon(&live, 1);
    let (mut client, fleet) = start_fleet(&opts);
    let live_id = client.register(&live, 1).expect("register");
    // Keep two chunks open, so the live worker completes one every few
    // milliseconds and every completion starts a round.
    let mut submitted = 0u64;
    let mut top_up = |client: &mut Client, status: &Json| {
        let [pending, dispatched, ..] = chunk_counts(status);
        for _ in pending + dispatched..2 {
            client.submit(&short_chunk()).expect("submit");
            submitted += 1;
        }
    };
    let status = client.fleet_status().expect("status");
    top_up(&mut client, &status);
    let registered = Instant::now();
    let dead_id = client.register(&dead, 1).expect("register");
    // A heartbeat is due at most once per 100 ms, so the third miss cannot
    // land before 200 ms after the registration. `early` counts the
    // statuses answered within 150 ms of it, and how many said alive.
    let mut early = (0, 0);
    let lost = loop {
        let status = client.fleet_status().expect("status");
        let answered = registered.elapsed();
        let alive = worker_entry(&status, dead_id).get("alive") == Some(&Json::Bool(true));
        if answered < Duration::from_millis(150) {
            early = (early.0 + 1, early.1 + u32::from(alive));
        }
        if !alive {
            break Some(answered);
        }
        if answered > Duration::from_secs(3) {
            break None;
        }
        top_up(&mut client, &status);
        std::thread::sleep(Duration::from_millis(2));
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let status = client.fleet_status().expect("status");
        if chunk_counts(&status)[2] == submitted || Instant::now() > deadline {
            break status;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    stop_fleet((client, fleet), true);
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&root);
    assert!(early.0 > 0, "no status answered within 150 ms of the registration");
    assert_eq!(early.1, early.0, "the dead worker was declared lost within 150 ms");
    let lost = lost.expect("the dead worker was not declared lost within 3 s");
    assert_eq!(chunk_counts(&status), [0, 0, submitted, 0, submitted], "lost after {lost:?}");
    let done = |id| worker_entry(&status, id).get("done").and_then(Json::as_u64);
    assert_eq!((done(live_id), done(dead_id)), (Some(submitted), Some(0)));
}

#[test]
fn a_coordinator_lists_a_bounded_window_of_ended_chunks_with_exact_counts() {
    let root = fresh_dir("window");
    let worker = root.join("worker");
    let stand_in = StandIn::finishing(&worker);
    let opts = FleetOptions {
        dir: root.join("fleet"),
        heartbeat_ms: 5,
        heartbeat_cap_ms: 5,
        ..FleetOptions::default()
    };
    let mut fleet = start_fleet(&opts);
    fleet.0.register(&worker, 64).expect("register");
    for _ in 0..40 {
        fleet.0.submit(&short_chunk()).expect("submit");
    }
    let counts = |fleet: &mut Fleet| chunk_counts(&fleet.0.fleet_status().expect("status"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while counts(&mut fleet)[2] < 40 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (listed, ended) = (chunk_table(&mut fleet.0), counts(&mut fleet));
    stop_fleet(fleet, false);
    let mut fleet = start_fleet(&opts);
    let reloaded = (chunk_table(&mut fleet.0), counts(&mut fleet));
    let next = fleet.0.submit(&short_chunk()).expect("submit");
    stop_fleet(fleet, false);
    stand_in.stop();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(ended, [0, 0, 40, 0, 40], "the counts cover every chunk");
    let ids: Vec<u64> = listed.iter().map(|(id, _, _)| *id).collect();
    assert_eq!(ids, (9..=40).collect::<Vec<_>>(), "the 32 chunks that ended last");
    assert!(listed.iter().all(|(_, _, phase)| phase == "done"), "{listed:?}");
    assert_eq!(reloaded, (listed, ended), "a restart keeps the window and the counts");
    assert_eq!(next, 41, "ids are never reused");
}

/// Sends `request` on a fresh connection to the service in `dir` and
/// returns the lines of its answer, up to a `watch` stream's `end`.
fn raw_answer(dir: &Path, request: &str) -> Vec<String> {
    let addr = std::fs::read_to_string(dir.join(ENDPOINT_FILE)).expect("endpoint");
    let mut stream = TcpStream::connect(addr.trim()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream.write_all(format!("{request}\n").as_bytes()).expect("request");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("an answer line");
        let last = !line.contains("\"event\"") || line.contains("\"event\":\"end\"");
        lines.push(line);
        if last {
            break;
        }
    }
    lines
}

/// A done job's `status` line, `fetch` line, and the `status` and `end`
/// lines of its `watch` stream, as the daemon in `dir` sends them.
fn job_answers(dir: &Path, id: u64) -> [String; 4] {
    let [status, fetch] = ["status", "fetch"].map(|op| {
        raw_answer(dir, &format!(r#"{{"op":"{op}","id":{id}}}"#)).concat()
    });
    let watch = raw_answer(dir, &format!(r#"{{"op":"watch","id":{id}}}"#));
    let line = |event: &str| {
        let tag = format!("\"event\":\"{event}\"");
        watch.iter().rev().find(|l| l.contains(&tag)).cloned().unwrap_or_default()
    };
    assert!(fetch.contains("\"manifest\""), "job {id} is done: {fetch}");
    [status, fetch, line("status"), line("end")]
}

#[test]
fn a_job_that_left_the_daemons_memory_answers_from_disk_with_the_same_bytes() {
    let dir = fresh_dir("registry");
    let daemon = start_daemon(&dir, 2);
    let mut client = connect(&dir);
    let first = client.submit(&short_chunk()).expect("submit");
    client.watch(first, |_| {}).expect("watch");
    let before = job_answers(&dir, first);
    // 70 more finished jobs push the first out of the registry.
    let later: Vec<u64> = (0..70).map(|_| client.submit(&short_chunk()).expect("submit")).collect();
    for &id in &later {
        client.watch(id, |_| {}).expect("watch");
    }
    let jobs = client.jobs().expect("jobs");
    let listed: Vec<u64> = jobs.iter().filter_map(|j| j.get("id").and_then(Json::as_u64)).collect();
    let after = job_answers(&dir, first);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    // A restarted daemon keeps the same window.
    let daemon = start_daemon(&dir, 2);
    let mut client = connect(&dir);
    let relisted = client.jobs().expect("jobs").len();
    let restarted = job_answers(&dir, first);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(!listed.contains(&first), "job {first} left the registry: {listed:?}");
    assert!(listed.len() <= 64 && relisted <= 64, "{} and {relisted} jobs listed", listed.len());
    assert_eq!(after, before, "the same status, manifest, and watch end from disk");
    assert_eq!(restarted, before, "the same answers after a restart");
}
