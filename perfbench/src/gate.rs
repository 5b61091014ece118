//! The correctness gate and failure accounting shared by every workload.
//!
//! Every operation a workload attempts (cell, job, chunk, trial, RPC) is
//! counted; any error, refusal or gate miss counts as failed. Canonical
//! manifest bytes are kept per file name: a second manifest under the
//! same name must be byte-identical to the first, and the digest over all
//! of them shows whether any simulated statistic moved.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vcfr_obs::{Json, Manifest};

#[derive(Default)]
pub struct Gate {
    attempted: AtomicU64,
    failed: AtomicU64,
    misses: Mutex<Vec<String>>,
    manifests: Mutex<BTreeMap<String, String>>,
}

impl Gate {
    /// Counts `n` attempted operations.
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one failed operation and remembers why.
    pub fn miss(&self, why: impl Into<String>) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        let mut m = self.misses.lock().expect("gate lock");
        if m.len() < 20 {
            m.push(why.into());
        }
    }

    /// Counts a failure when `ok` is false.
    pub fn check(&self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.miss(why());
        }
    }

    /// Unwraps `r`, counting its error as a failure.
    pub fn ok<T, E: std::fmt::Display>(&self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.miss(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records one canonical manifest: the first copy of a file name is
    /// kept, every later copy must match it byte for byte.
    pub fn manifest(&self, file: &str, canonical: &str) {
        let mut m = self.manifests.lock().expect("gate lock");
        match m.get(file) {
            Some(first) if first != canonical => {
                drop(m);
                self.miss(format!("{file}: manifest differs from an earlier copy"));
            }
            Some(_) => {}
            None => {
                m.insert(file.to_string(), canonical.to_string());
            }
        }
    }

    /// Parses a manifest's text, checks its audit verdict and records it.
    pub fn service_manifest(&self, file: &str, text: &str) {
        match Manifest::from_str(text) {
            Ok(m) => {
                let passed = m.json().get_path("audit.passed");
                self.check(matches!(passed, Some(Json::Bool(true))), || {
                    format!("{file}: audit failed")
                });
                self.manifest(file, &m.canonical_bytes());
            }
            Err(e) => self.miss(format!("{file}: manifest does not parse: {e}")),
        }
    }

    /// Adds another gate's counts and reasons (not its manifests).
    pub fn absorb(&self, other: &Gate) {
        self.attempted
            .fetch_add(other.attempted(), Ordering::Relaxed);
        self.failed.fetch_add(other.failed(), Ordering::Relaxed);
        self.misses
            .lock()
            .expect("gate lock")
            .extend(other.misses());
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> Vec<String> {
        self.misses.lock().expect("gate lock").clone()
    }

    /// Distinct manifests recorded.
    pub fn manifest_count(&self) -> usize {
        self.manifests.lock().expect("gate lock").len()
    }

    /// FNV-1a over every recorded (file name, canonical bytes) pair in
    /// name order.
    pub fn digest(&self) -> String {
        let m = self.manifests.lock().expect("gate lock");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (file, bytes) in m.iter() {
            for b in file.bytes().chain([0]).chain(bytes.bytes()).chain([0]) {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
        }
        format!("{h:016x}")
    }
}
