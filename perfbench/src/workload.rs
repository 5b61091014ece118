//! What every workload provides to the run loop in `main.rs`.

use crate::gate::Gate;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Inputs shared by every workload of one run.
#[derive(Clone)]
pub struct Ctx {
    /// The workload seed: drives randomization seeds and job order.
    pub seed: u64,
    /// Worker threads, client threads or connections.
    pub threads: usize,
    /// Scratch state directory of this set-up (daemon job stores).
    pub dir: PathBuf,
    pub gate: Arc<Gate>,
}

/// What one measured pass produced.
#[derive(Default)]
pub struct Pass {
    /// Latency of every completed job, in milliseconds.
    pub jobs_ms: Vec<f64>,
    /// Simulated instructions the completed jobs committed.
    pub insts: u64,
    pub wall_s: f64,
}

impl Pass {
    pub fn absorb(&mut self, other: Pass) {
        self.jobs_ms.extend(other.jobs_ms);
        self.insts += other.insts;
    }
}

pub trait Workload {
    /// Threads that record spans during a pass; the layer-tax table
    /// charges `lanes × wall` seconds.
    fn lanes(&self) -> usize;

    /// Runs jobs until `deadline` (a job in flight finishes).
    fn pass(&mut self, deadline: Instant) -> Pass;

    /// Stops whatever the set-up started and runs end-of-run checks.
    fn close(self: Box<Self>) -> Result<(), String>;
}

/// A fresh job id (span run ids).
pub fn next_job() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
