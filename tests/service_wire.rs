//! Wire-level regressions of the service: request latency over one
//! connection, the gaps inside a `watch` stream, JSON string parsing at
//! checkpoint scale, a fleet worker that accepts connections but never
//! answers, one that answers a submit only after the coordinator has
//! given up on it, a submit that arrives while a scheduler round is out
//! on the network, and a coordinator restart.
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
/// resumes. Every job reports `running` forever.
fn answer_as_stalling_worker(
    stream: TcpStream,
    late_op: &str,
    late_by: Duration,
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
                let mut job = Json::obj();
                job.set("phase", Json::Str("running".to_string()));
                resp.set("job", job);
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
                        answer_as_stalling_worker(stream, late_op, late_by, &first, &admitted);
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
