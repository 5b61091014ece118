//! `vcfr-service` — the checkpointable batch-simulation service.
//!
//! `vcfr serve` runs a long-lived daemon that listens on a localhost
//! TCP socket, accepts JSON-lines job requests, schedules them on a
//! bounded [`vcfr_bench::WorkerPool`], and streams status events back.
//! Every job is a [`vcfr_sim::Session`] driven in bounded chunks; after
//! each chunk the daemon snapshots the live engine state to disk with
//! the versioned checkpoint format, so a killed daemon resumes every
//! in-flight job bit-identically on the next start.
//!
//! `vcfr fleet serve` runs the same protocol one level up: a
//! coordinator that shards experiment matrices and fault campaigns
//! into job chunks across registered worker daemons, heartbeats them,
//! re-dispatches lost work from checkpoints, and merges every worker's
//! manifests into one canonical tree that is byte-identical to a
//! single-daemon run.
//!
//! The wire protocol, the on-disk job layout, and the checkpoint
//! versioning policy are documented in `docs/service.md`; the fleet
//! layer (topology, heartbeat/re-dispatch semantics, failure matrix)
//! in `docs/fleet.md`.

#![warn(missing_docs)]

mod client;
mod daemon;
mod fleet;
mod metrics;
mod protocol;

pub use client::Client;
pub use daemon::{serve, ServeOptions};
pub use fleet::{serve_fleet, FleetOptions};
pub use metrics::{aggregate_node_metrics, MetricsHub};
pub use protocol::{JobPhase, ServiceError, ENDPOINT_FILE};
/// The wire job is the shared run description; this name stays for the
/// benchmark harness, which imports it.
pub use vcfr_bench::RunSpec as JobSpec;
