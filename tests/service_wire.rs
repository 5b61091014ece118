//! Wire-level regressions of the service: request latency over one
//! connection, the gaps inside a `watch` stream, JSON string parsing at
//! checkpoint scale, a fleet worker that accepts connections but never
//! answers, and one that answers a submit only after the coordinator
//! has given up on it.
//!
//! Each test bounds its wait, so a regression fails in seconds instead
//! of hanging the suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use vcfr_bench::{ModeSpec, RunSpec};
use vcfr_obs::{parse_json, Json};
use vcfr_service::{serve, serve_fleet, Client, FleetOptions, ServeOptions, ENDPOINT_FILE};

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
/// manifest file of job `id`. The first submit is answered only after
/// `late_by`, like a worker that stalls and then resumes. Every job
/// reports `running` forever.
fn answer_as_stalling_worker(
    stream: TcpStream,
    late_by: Duration,
    first: &AtomicBool,
    admitted: &Mutex<Vec<String>>,
) {
    let Ok(mut writer) = stream.try_clone() else { return };
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { return };
        let req = parse_json(&line).expect("a JSON request");
        let mut resp = Json::obj();
        resp.set("ok", Json::Bool(true));
        match req.get("op").and_then(Json::as_str) {
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
                if first.swap(false, Ordering::SeqCst) {
                    std::thread::sleep(late_by);
                }
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
        // The coordinator may have hung up on a late reply.
        if writer.write_all(format!("{}\n", resp.compact()).as_bytes()).is_err() {
            return;
        }
    }
}

#[test]
fn a_late_submit_reply_is_never_taken_for_another_chunks() {
    let root = fresh_dir("late");
    let worker = root.join("worker");
    std::fs::create_dir_all(&worker).expect("worker dir");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    std::fs::write(worker.join(ENDPOINT_FILE), format!("{addr}\n")).expect("endpoint");

    // Heartbeat 20/100 ms and lost_after 3 bound every coordinator RPC at
    // 300 ms. The first submit's reply comes 450 ms late: after that
    // submit has timed out, and while a second submit sent on the same
    // connection would still be waiting for its own reply.
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
                    answer_as_stalling_worker(stream, Duration::from_millis(450), &first, &admitted);
                });
            }
        })
    };

    let coordinator = root.join("fleet");
    let opts = FleetOptions {
        dir: coordinator.clone(),
        heartbeat_ms: 20,
        heartbeat_cap_ms: 100,
        lost_after: 3,
        ..FleetOptions::default()
    };
    let fleet = std::thread::spawn(move || serve_fleet(&opts));
    let mut client = connect(&coordinator);
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
    client.shutdown_fleet(false).expect("shutdown");
    fleet.join().expect("fleet thread").expect("coordinator exits cleanly");
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
    acceptor.join().expect("worker thread");
    let _ = std::fs::remove_dir_all(&root);

    let admitted = admitted.lock().expect("admitted lock").clone();
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
