//! `vcfr-obs` — the offline observability layer of the VCFR workspace.
//!
//! Like the `vcfr-rand`/`vcfr-proptest` shims, this crate has **zero
//! external dependencies**; everything is hand-rolled so the workspace
//! builds with no network. It provides:
//!
//! * [`Json`] / [`parse_json`] — a deterministic JSON emitter and a
//!   small parser (the only serialization machinery in the workspace);
//! * [`Snapshot`] — hierarchical dotted-name counters
//!   (`sim.il1.miss`, `sim.drc.walk_cycles`, …);
//! * [`TraceRing`] — a fixed-capacity ring of the last N pipeline
//!   events, the simulator's post-mortem trace;
//! * [`Histogram`] — a deterministic log2-bucketed histogram, safe to
//!   merge across workers and fleet nodes;
//! * [`Backoff`] — the capped exponential backoff timer shared by the
//!   daemon's watch streams and the fleet coordinator's heartbeats;
//! * [`ProgressEvent`] — structured in-flight progress readings at
//!   deterministic instruction boundaries;
//! * [`CycleAccounting`] / [`AuditReport`] — the cycle-accounting audit
//!   (`busy + stalls ≈ cycles`, tolerance-checked);
//! * [`Manifest`] — per-(app, config) run manifests with a schema
//!   version and a canonical (volatile-free) byte form;
//! * [`BenchRecord`] — the shared `BENCH_repro.json` writer.
//!
//! See `docs/observability.md` for the naming scheme and schemas.

#![warn(missing_docs)]

mod audit;
mod backoff;
mod bench_json;
mod events;
mod histogram;
mod json;
mod manifest;
mod ring;
mod snapshot;

pub use audit::{AuditReport, CycleAccounting, DEFAULT_TOLERANCE};
pub use backoff::Backoff;
pub use bench_json::{BenchRecord, BenchRun, BENCH_SCHEMA_VERSION};
pub use events::ProgressEvent;
pub use histogram::{Histogram, HISTOGRAM_BUCKETS};
pub use json::{parse_json, Json, JsonError};
pub use manifest::{
    fingerprint, Manifest, ManifestError, MANIFEST_KIND, MANIFEST_SCHEMA_VERSION,
};
pub use ring::TraceRing;
pub use snapshot::Snapshot;
