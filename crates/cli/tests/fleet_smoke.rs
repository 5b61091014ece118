//! End-to-end smoke of the simulation fleet: a coordinator with two
//! joined worker daemons runs a sharded matrix plus a fault campaign,
//! one worker is hard-killed (SIGKILL) mid-campaign, and the fleet
//! re-dispatches its lost chunks from their checkpoints. The merged
//! `results/manifests/` tree must come out byte-identical to the same
//! six specs run on a single uninterrupted daemon.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

const VCFR: &str = env!("CARGO_BIN_EXE_vcfr");

/// The six chunks of this smoke, in submission order: a 2-app x 2-mode
/// experiment matrix, then the bzip2 fault campaign. Each row is
/// (merged manifest file name, equivalent solo `vcfr submit` args).
const CHUNKS: [(&str, &[&str]); 6] = [
    ("bzip2__base.json", &["bzip2", "--mode", "baseline"]),
    ("bzip2__vcfr128.json", &["bzip2", "--mode", "vcfr", "--drc", "128"]),
    ("hmmer__base.json", &["hmmer", "--mode", "baseline"]),
    ("hmmer__vcfr128.json", &["hmmer", "--mode", "vcfr", "--drc", "128"]),
    ("bzip2__faults-base.json", &["bzip2", "--mode", "baseline", "--faults"]),
    ("bzip2__faults-vcfr128.json", &["bzip2", "--mode", "vcfr", "--drc", "128", "--faults"]),
];

/// Kills the process on every exit path so a failing assert never
/// leaks a background daemon.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn(args: &[&str], dir_flag: &str, dir: &Path) -> Proc {
    let child = Command::new(VCFR)
        .args(args)
        .arg(dir_flag)
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("process spawns");
    Proc(child)
}

/// Sends `signal` (`-STOP`, `-CONT`) to the process with `kill(1)`.
fn signal(proc: &Proc, signal: &str) {
    let sent = Command::new("kill").arg(signal).arg(proc.0.id().to_string()).status();
    assert!(sent.is_ok_and(|s| s.success()), "kill {signal} failed");
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcfr-fleet-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `vcfr fleet status --json` once and returns its exit status,
/// stdout and stderr. A status RPC can fail under load, so a reader
/// checks the status before it trusts the output.
fn fleet_status_json(fleet: &Path) -> (ExitStatus, String, String) {
    let out = Command::new(VCFR)
        .args(["fleet", "status", "--json", "--fleet"])
        .arg(fleet)
        .output()
        .expect("status runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status, text(&out.stdout), text(&out.stderr))
}

/// A worker holds an interrupted job iff some checkpoint on its disk
/// has no finished manifest next to it — the gate that makes the
/// SIGKILL land mid-run rather than between jobs.
fn has_unfinished_ckpt(worker: &Path) -> bool {
    std::fs::read_dir(worker.join("jobs")).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            e.file_name().to_str().is_some_and(|n| n.ends_with(".ckpt"))
                && !e.path().with_extension("manifest.json").exists()
        })
    })
}

#[test]
fn killed_worker_chunks_resume_and_merge_bit_identically() {
    // Fleet timeline: coordinator + two workers, kill one mid-campaign.
    let fleet = fresh_dir("fleet");
    let (w1, w2) = (fresh_dir("w1"), fresh_dir("w2"));
    let _coordinator = spawn(
        &["fleet", "serve", "--heartbeat-ms", "50", "--heartbeat-cap-ms", "200", "--lost-after", "3"],
        "--fleet",
        &fleet,
    );
    wait_for("coordinator endpoint", || fleet.join("endpoint").exists());

    let join = |dir: &Path| {
        let child = Command::new(VCFR)
            .args(["fleet", "join", "--workers", "1", "--queue", "8", "--slots", "2", "--fleet"])
            .arg(&fleet)
            .arg("--dir")
            .arg(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker spawns");
        Proc(child)
    };
    let worker1 = join(&w1);
    let _worker2 = join(&w2);
    wait_for("both workers registered", || {
        let (code, stdout, _) = fleet_status_json(&fleet);
        code.success() && stdout.matches("\"alive\": true").count() >= 2
    });

    // Submit the matrix and the campaign in a fixed order so the six
    // chunks get ids 1..=6 in every run.
    for extra in [
        &["--apps", "bzip2,hmmer", "--modes", "base,vcfr128"][..],
        &["--apps", "bzip2", "--campaign"][..],
    ] {
        wait_for("fleet submission", || {
            Command::new(VCFR)
                .args(["fleet", "submit", "--max", "4000000", "--checkpoint-every", "25000"])
                .args(extra)
                .arg("--fleet")
                .arg(&fleet)
                .output()
                .expect("submit runs")
                .status
                .success()
        });
    }

    // As soon as worker 1 has an interrupted job snapshotted to disk,
    // pull the plug on it — its chunks must be re-dispatched from the
    // checkpoints left behind. The disk is checked while the worker is
    // frozen, so the job cannot finish between the check and the kill.
    wait_for("a mid-run checkpoint on worker 1", || {
        signal(&worker1, "-STOP");
        let mid_run = has_unfinished_ckpt(&w1);
        if !mid_run {
            signal(&worker1, "-CONT");
        }
        mid_run
    });
    drop(worker1); // SIGKILL, mid-campaign

    let merged = fleet.join("results").join("manifests");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !CHUNKS.iter().all(|(file, _)| merged.join(file).exists()) {
        if Instant::now() >= deadline {
            let missing: Vec<&str> = CHUNKS
                .iter()
                .filter(|(f, _)| !merged.join(f).exists())
                .map(|(f, _)| *f)
                .collect();
            let (code, stdout, stderr) = fleet_status_json(&fleet);
            panic!(
                "timed out waiting for all merged manifests; missing {missing:?}\n\
                 status ({code}): {stdout}\nstderr: {stderr}"
            );
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The worker is declared lost on the heartbeat clock, which may run
    // out only after the last chunk merged: poll the status, retrying a
    // failed read, until the killed worker reads lost.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        let (code, stdout, stderr) = fleet_status_json(&fleet);
        if code.success() && stdout.contains("\"alive\": false") {
            break stdout;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the killed worker to read lost; last status ({code}):\n\
             {stdout}\nstderr: {stderr}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        status.contains("\"alive\": false"),
        "the killed worker should be marked lost:\n{status}"
    );
    assert!(
        status.contains("\"resumed\": true"),
        "at least one chunk should have resumed from a recovered checkpoint:\n{status}"
    );

    // Reference timeline: the same six specs on one uninterrupted
    // daemon, in the same submission order (so job ids are 1..=6).
    let solo = fresh_dir("solo");
    {
        let _daemon = spawn(&["serve", "--workers", "2", "--queue", "8"], "--dir", &solo);
        for (_, args) in CHUNKS {
            wait_for("solo submission", || {
                Command::new(VCFR)
                    .arg("submit")
                    .args(args)
                    .args(["--max", "4000000", "--checkpoint-every", "25000", "--dir"])
                    .arg(&solo)
                    .output()
                    .expect("submit runs")
                    .status
                    .success()
            });
        }
        wait_for("solo manifests", || {
            (1..=CHUNKS.len()).all(|id| {
                solo.join("jobs").join(format!("job-{id}.manifest.json")).exists()
            })
        });
    }

    for (id, (file, _)) in CHUNKS.iter().enumerate() {
        let merged_bytes = std::fs::read(merged.join(file)).expect("merged manifest");
        let solo_bytes = std::fs::read(
            solo.join("jobs").join(format!("job-{}.manifest.json", id + 1)),
        )
        .expect("solo manifest");
        assert!(!merged_bytes.is_empty());
        assert_eq!(
            merged_bytes, solo_bytes,
            "{file}: the fleet's merged manifest differs from the single-daemon run"
        );
    }

    for dir in [&fleet, &w1, &w2, &solo] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
