//! The shared `BENCH_repro.json` writer.
//!
//! Earlier this lived as ad-hoc string formatting inside the bench
//! harness; it is now a typed record built on the deterministic JSON
//! emitter, with a schema version and host metadata so downstream
//! tooling can parse benchmark artefacts across revisions.

use crate::json::Json;

/// Current `BENCH_repro.json` schema version. Version 3 added the
/// per-run `superblock` flag recording whether the superblock fast path
/// was enabled for that run.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// Wall-clock timing of one simulator run.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRun {
    /// Application name.
    pub app: String,
    /// Machine configuration name.
    pub mode: String,
    /// Instructions the run committed.
    pub instructions: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Simulated instructions per host second.
    pub insts_per_s: f64,
    /// Whether the superblock fast path was enabled.
    pub superblock: bool,
}

/// The full benchmark artefact: host metadata plus per-run timing.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Worker threads the matrix ran on.
    pub threads: usize,
    /// Host logical cores.
    pub host_cores: usize,
    /// Cargo profile the harness was compiled with (`release`/`debug`).
    pub cargo_profile: &'static str,
    /// Seconds the preparation stage took: workload builds and
    /// randomization.
    pub randomize_s: f64,
    /// Seconds the whole matrix took.
    pub matrix_wall_s: f64,
    /// One record per (app, configuration) run.
    pub runs: Vec<BenchRun>,
}

impl BenchRecord {
    /// Host metadata detected from the running process.
    pub fn host_defaults() -> (usize, &'static str) {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        (cores, profile)
    }

    /// Instructions summed over every run.
    pub fn total_instructions(&self) -> u64 {
        self.runs.iter().map(|r| r.instructions).sum()
    }

    /// Aggregate simulated instructions per second of simulator time
    /// (sum of per-run wall clocks, not the parallel wall clock).
    pub fn aggregate_insts_per_s(&self) -> f64 {
        let sim_s: f64 = self.runs.iter().map(|r| r.wall_s).sum();
        self.total_instructions() as f64 / sim_s.max(1e-9)
    }

    /// The artefact as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("schema_version", Json::U64(BENCH_SCHEMA_VERSION));
        j.set("threads", Json::U64(self.threads as u64));
        j.set("host_cores", Json::U64(self.host_cores as u64));
        j.set("cargo_profile", Json::Str(self.cargo_profile.into()));
        j.set("randomize_s", Json::F64(self.randomize_s));
        j.set("matrix_wall_s", Json::F64(self.matrix_wall_s));
        j.set("total_instructions", Json::U64(self.total_instructions()));
        j.set("aggregate_insts_per_s", Json::F64(self.aggregate_insts_per_s()));
        let runs = self
            .runs
            .iter()
            .map(|r| {
                let mut o = Json::obj();
                o.set("app", Json::Str(r.app.clone()));
                o.set("mode", Json::Str(r.mode.clone()));
                o.set("instructions", Json::U64(r.instructions));
                o.set("wall_s", Json::F64(r.wall_s));
                // A zero-duration run (a timer too coarse to see the run,
                // or an empty run) has no meaningful rate; `null` from the
                // non-finite float path would be indistinguishable from a
                // writer bug, so emit an explicit sentinel instead.
                if r.wall_s > 0.0 && r.insts_per_s.is_finite() {
                    o.set("insts_per_s", Json::F64(r.insts_per_s));
                } else {
                    o.set("insts_per_s", Json::Str("unmeasured".into()));
                }
                o.set("superblock", Json::Bool(r.superblock));
                o
            })
            .collect();
        j.set("runs", Json::Arr(runs));
        j
    }

    /// Writes the artefact to `path` (pretty-printed).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn record() -> BenchRecord {
        BenchRecord {
            threads: 4,
            host_cores: 8,
            cargo_profile: "release",
            randomize_s: 0.5,
            matrix_wall_s: 2.0,
            runs: vec![
                BenchRun {
                    app: "bzip2".into(),
                    mode: "base".into(),
                    instructions: 1000,
                    wall_s: 0.25,
                    insts_per_s: 4000.0,
                    superblock: true,
                },
                BenchRun {
                    app: "bzip2".into(),
                    mode: "vcfr128".into(),
                    instructions: 3000,
                    wall_s: 0.75,
                    insts_per_s: 4000.0,
                    superblock: false,
                },
            ],
        }
    }

    #[test]
    fn aggregates_and_schema() {
        let r = record();
        assert_eq!(r.total_instructions(), 4000);
        assert!((r.aggregate_insts_per_s() - 4000.0).abs() < 1e-6);
        let j = r.to_json();
        assert_eq!(j.get("schema_version").unwrap().as_u64(), Some(BENCH_SCHEMA_VERSION));
        assert_eq!(j.get("cargo_profile").unwrap().as_str(), Some("release"));
        let parsed = parse_json(&j.pretty()).unwrap();
        let runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1].get("insts_per_s").unwrap().as_f64(), Some(4000.0));
        assert_eq!(runs[0].get("superblock"), Some(&Json::Bool(true)));
        assert_eq!(runs[1].get("superblock"), Some(&Json::Bool(false)));
    }

    #[test]
    fn zero_duration_run_emits_a_sentinel_not_null() {
        let mut r = record();
        r.runs.push(BenchRun {
            app: "stub".into(),
            mode: "base".into(),
            instructions: 0,
            wall_s: 0.0,
            insts_per_s: f64::INFINITY,
            superblock: true,
        });
        let j = r.to_json();
        let runs = j.get("runs").unwrap().as_arr().unwrap();
        let rate = runs[2].get("insts_per_s").unwrap();
        assert_eq!(rate.as_str(), Some("unmeasured"));
        // The document still parses, and measured runs keep their number.
        let parsed = parse_json(&j.pretty()).unwrap();
        let parsed_runs = parsed.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(parsed_runs[2].get("insts_per_s").unwrap().as_str(), Some("unmeasured"));
        assert_eq!(parsed_runs[0].get("insts_per_s").unwrap().as_f64(), Some(4000.0));
        // No bare `null` leaked out of the non-finite float path.
        assert!(!j.pretty().contains("null"), "{}", j.pretty());
    }

    #[test]
    fn host_defaults_are_sane() {
        let (cores, profile) = BenchRecord::host_defaults();
        assert!(cores >= 1);
        assert!(profile == "debug" || profile == "release");
    }
}
