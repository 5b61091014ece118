//! Daemon-wide metrics: job-latency histograms, throughput totals, and
//! the JSON shape the `metrics` op returns.
//!
//! The split of responsibilities mirrors the determinism rule the
//! telemetry layer lives by: everything *inside* a job's progress
//! events is simulated state (deterministic), while everything here —
//! latencies, utilization, insts/sec — is wall-clock and belongs to
//! the daemon alone. None of it ever feeds back into manifests or
//! checkpoints.

use crate::server::lock;
use std::sync::Mutex;
use std::time::Instant;
use vcfr_bench::PoolSnapshot;
use vcfr_obs::{Histogram, Json};

/// Aggregates the worker pool publishes into across job lifecycles.
#[derive(Debug, Default)]
struct HubState {
    /// Wall-clock milliseconds from job start to completion, one
    /// sample per finished (done or failed) job.
    job_latency_ms: Histogram,
    /// Jobs that reached `done`.
    jobs_done: u64,
    /// Jobs that reached `failed`.
    jobs_failed: u64,
    /// Instructions retired by *finished* jobs (running jobs are added
    /// on top from the live registry at read time).
    insts_finished: u64,
    /// Progress events workers have emitted since daemon start.
    progress_events: u64,
}

/// The daemon's shared metrics hub. Workers record into it as jobs
/// finish; the `metrics` op reads it out together with a
/// [`PoolSnapshot`].
#[derive(Debug)]
pub(crate) struct MetricsHub {
    started: Instant,
    state: Mutex<HubState>,
}

impl MetricsHub {
    /// A hub with zeroed aggregates, anchored at "now".
    pub fn new() -> MetricsHub {
        MetricsHub { started: Instant::now(), state: Mutex::new(HubState::default()) }
    }

    /// Seconds since the daemon (hub) started.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one finished job: its wall-clock latency, outcome, and
    /// how many instructions it retired.
    pub fn record_job(&self, latency_ms: u64, ok: bool, instructions: u64) {
        let mut st = lock(&self.state);
        st.job_latency_ms.record(latency_ms);
        if ok {
            st.jobs_done += 1;
        } else {
            st.jobs_failed += 1;
        }
        st.insts_finished += instructions;
    }

    /// Counts one progress event emitted by a worker's telemetry tap.
    pub fn record_progress_event(&self) {
        lock(&self.state).progress_events += 1;
    }

    /// Builds the `metrics` response body. `pool` is the worker pool's
    /// snapshot slot; `jobs_by_phase` counts the registry's jobs as
    /// `(queued, running, done, failed)`; `insts_in_flight` is the sum
    /// of instructions retired by not-yet-finished jobs.
    pub fn to_json(
        &self,
        pool: &PoolSnapshot,
        jobs_by_phase: (u64, u64, u64, u64),
        insts_in_flight: u64,
    ) -> Json {
        let st = lock(&self.state);
        let uptime = self.uptime_secs();
        let total_insts = st.insts_finished + insts_in_flight;

        let mut m = Json::obj();
        m.set("uptime_secs", Json::F64(uptime));

        let mut queue = Json::obj();
        queue.set("depth", Json::U64(pool.queue_depth as u64));
        queue.set("in_flight", Json::U64(pool.in_flight as u64));
        queue.set("capacity", Json::U64(pool.capacity as u64));
        m.set("queue", queue);

        let mut workers = Vec::new();
        for (i, w) in pool.workers.iter().enumerate() {
            let mut wj = Json::obj();
            wj.set("jobs", Json::U64(w.jobs));
            wj.set("busy_secs", Json::F64(w.busy_secs));
            wj.set("utilization", Json::F64(pool.utilization(i)));
            workers.push(wj);
        }
        m.set("workers", Json::Arr(workers));

        let (queued, running, done, failed) = jobs_by_phase;
        let mut jobs = Json::obj();
        jobs.set("queued", Json::U64(queued));
        jobs.set("running", Json::U64(running));
        jobs.set("done", Json::U64(done));
        jobs.set("failed", Json::U64(failed));
        m.set("jobs", jobs);

        let mut tp = Json::obj();
        tp.set("instructions", Json::U64(total_insts));
        tp.set(
            "insts_per_sec",
            Json::F64(if uptime > 0.0 { total_insts as f64 / uptime } else { 0.0 }),
        );
        m.set("throughput", tp);

        m.set("job_latency_ms", st.job_latency_ms.to_json());
        m.set("progress_events", Json::U64(st.progress_events));
        m
    }
}

/// Folds the `metrics` bodies of several worker daemons into one
/// fleet-level view with the same shape a single daemon reports, so
/// `vcfr top` renders either unchanged: `queue`, `jobs`, `throughput`,
/// and `progress_events` are summed, `workers` entries are concatenated
/// (tagged with their `node` id), and the `job_latency_ms` histograms
/// are merged (associative, so any merge order yields the same bytes).
/// `uptime_secs` is deliberately absent — it belongs to whoever serves
/// the aggregate (the coordinator), not to any node.
pub(crate) fn aggregate_node_metrics(nodes: &[(u64, &Json)]) -> Json {
    let num = |j: &Json, path: &str| j.get_path(path).and_then(Json::as_u64).unwrap_or(0);
    let fnum = |j: &Json, path: &str| j.get_path(path).and_then(Json::as_f64).unwrap_or(0.0);

    let mut m = Json::obj();
    let mut queue = Json::obj();
    for k in ["depth", "in_flight", "capacity"] {
        queue.set(k, Json::U64(nodes.iter().map(|(_, j)| num(j, &format!("queue.{k}"))).sum()));
    }
    m.set("queue", queue);

    let mut workers = Vec::new();
    for (node, j) in nodes {
        for w in j.get("workers").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut wj = w.clone();
            wj.set("node", Json::U64(*node));
            workers.push(wj);
        }
    }
    m.set("workers", Json::Arr(workers));

    let mut jobs = Json::obj();
    for k in ["queued", "running", "done", "failed"] {
        jobs.set(k, Json::U64(nodes.iter().map(|(_, j)| num(j, &format!("jobs.{k}"))).sum()));
    }
    m.set("jobs", jobs);

    let mut tp = Json::obj();
    tp.set(
        "instructions",
        Json::U64(nodes.iter().map(|(_, j)| num(j, "throughput.instructions")).sum()),
    );
    tp.set(
        "insts_per_sec",
        Json::F64(nodes.iter().map(|(_, j)| fnum(j, "throughput.insts_per_sec")).sum()),
    );
    m.set("throughput", tp);

    let mut latency = Histogram::new();
    for (_, j) in nodes {
        if let Some(h) = j.get("job_latency_ms").and_then(Histogram::from_json) {
            latency.merge(&h);
        }
    }
    m.set("job_latency_ms", latency.to_json());
    m.set(
        "progress_events",
        Json::U64(nodes.iter().map(|(_, j)| num(j, "progress_events")).sum()),
    );
    m.set("nodes", Json::U64(nodes.len() as u64));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fold_into_the_response() {
        let hub = MetricsHub::new();
        hub.record_job(10, true, 1_000);
        hub.record_job(20, false, 500);
        hub.record_progress_event();
        hub.record_progress_event();
        let pool = PoolSnapshot {
            queue_depth: 3,
            in_flight: 1,
            capacity: 16,
            uptime_secs: 1.0,
            workers: vec![vcfr_bench::WorkerStat { jobs: 2, busy_secs: 0.5 }],
        };
        let j = hub.to_json(&pool, (3, 1, 1, 1), 250);
        assert_eq!(j.get_path("queue.depth").unwrap().as_u64(), Some(3));
        assert_eq!(j.get_path("jobs.failed").unwrap().as_u64(), Some(1));
        assert_eq!(j.get_path("throughput.instructions").unwrap().as_u64(), Some(1_750));
        assert_eq!(j.get_path("job_latency_ms.count").unwrap().as_u64(), Some(2));
        assert_eq!(j.get_path("progress_events").unwrap().as_u64(), Some(2));
        let workers = j.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert!((workers[0].get("utilization").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn node_metrics_aggregate_by_sum_and_histogram_merge() {
        let node = |latencies: &[u64], insts: u64| {
            let hub = MetricsHub::new();
            for l in latencies {
                hub.record_job(*l, true, insts);
            }
            hub.record_progress_event();
            let pool = PoolSnapshot {
                queue_depth: 1,
                in_flight: 1,
                capacity: 8,
                uptime_secs: 1.0,
                workers: vec![vcfr_bench::WorkerStat { jobs: 1, busy_secs: 0.5 }],
            };
            hub.to_json(&pool, (1, 1, latencies.len() as u64, 0), 0)
        };
        let (a, b) = (node(&[10, 20], 100), node(&[40], 50));
        let fleet = aggregate_node_metrics(&[(1, &a), (2, &b)]);
        assert_eq!(fleet.get_path("queue.depth").unwrap().as_u64(), Some(2));
        assert_eq!(fleet.get_path("jobs.done").unwrap().as_u64(), Some(3));
        assert_eq!(fleet.get_path("throughput.instructions").unwrap().as_u64(), Some(250));
        assert_eq!(fleet.get_path("job_latency_ms.count").unwrap().as_u64(), Some(3));
        assert_eq!(fleet.get_path("job_latency_ms.min").unwrap().as_u64(), Some(10));
        assert_eq!(fleet.get_path("job_latency_ms.max").unwrap().as_u64(), Some(40));
        assert_eq!(fleet.get("progress_events").unwrap().as_u64(), Some(2));
        assert_eq!(fleet.get("nodes").unwrap().as_u64(), Some(2));
        let workers = fleet.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 2);
        assert_eq!(workers[1].get("node").unwrap().as_u64(), Some(2));
    }
}
