//! End-to-end check of the daemon's engine routing: `vcfr submit
//! --ooo` and `--cores N` run the other [`EngineKind`]s behind the
//! same `Session` facade, fault campaigns included, and the finished
//! manifests carry an engine-prefixed mode (so they never collide with
//! the in-order cell of the same matrix) plus the audit variant that
//! matches the engine.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const VCFR: &str = env!("CARGO_BIN_EXE_vcfr");

/// Kills the daemon on every exit path so a failing assert never leaks
/// a background process.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn start_daemon(dir: &Path) -> Daemon {
    let child = Command::new(VCFR)
        .args(["serve", "--dir"])
        .arg(dir)
        .args(["--workers", "2", "--queue", "8"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon spawns");
    Daemon(child)
}

fn wait_for(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn manifest(dir: &Path, id: u64) -> PathBuf {
    dir.join("jobs").join(format!("job-{id}.manifest.json"))
}

fn fresh_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcfr-engine-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ooo_and_multicore_jobs_finish_with_engine_prefixed_manifests() {
    let dir = fresh_dir();
    let daemon = start_daemon(&dir);

    // Job 1: the 4-wide OoO core; job 2: two in-order cores over the
    // shared L2; job 3: a fault campaign on the OoO core. Fixed order so
    // the ids are stable.
    for engine_args in [vec!["--ooo"], vec!["--cores", "2"], vec!["--ooo", "--faults"]] {
        wait_for("submission", || {
            Command::new(VCFR)
                .args(["submit", "bzip2", "--dir"])
                .arg(&dir)
                .args(["--mode", "vcfr", "--drc", "128", "--max", "60000"])
                .args(&engine_args)
                .output()
                .expect("submit runs")
                .status
                .success()
        });
    }
    wait_for("all three manifests", || (1..=3).all(|id| manifest(&dir, id).exists()));

    for (id, mode) in [(1, "ooo-vcfr128"), (2, "mc2-vcfr128"), (3, "faults-ooo-vcfr128")] {
        let text = std::fs::read_to_string(manifest(&dir, id)).expect("manifest exists");
        assert!(
            text.contains(&format!("\"mode\": \"{mode}\"")),
            "job {id} manifest lost its engine prefix:\n{text}"
        );
        assert!(
            text.contains("\"passed\": true"),
            "job {id} manifest failed its engine's audit:\n{text}"
        );
    }

    // The two engine flags are mutually exclusive.
    let both = Command::new(VCFR)
        .args(["submit", "bzip2", "--dir"])
        .arg(&dir)
        .args(["--ooo", "--cores", "2"])
        .output()
        .expect("submit runs");
    assert!(!both.status.success(), "--ooo --cores 2 was accepted");

    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
