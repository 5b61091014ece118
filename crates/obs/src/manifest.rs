//! Structured per-run manifests: one JSON document per (app, config)
//! simulator run, written by the experiment matrix and consumed by
//! `vcfr report`.
//!
//! Schema (`schema_version` 1):
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "kind": "vcfr-run-manifest",
//!   "app": "...",            // workload name
//!   "mode": "...",           // machine configuration column
//!   "config": { "fingerprint": "...", ... },
//!   "counters": { ... },     // nested registry snapshot (sim.* names)
//!   "derived": { ... },      // ipc, miss rates, slow-path ratios
//!   "audit": { ... },        // cycle-accounting identity terms
//!   "samples": [ ... ],      // interval samples (phase behaviour)
//!   "host": { ... }          // VOLATILE: wall time, insts/s, threads
//! }
//! ```
//!
//! Everything except the `host` block is a pure function of (workload,
//! seed, machine config), so manifests are byte-identical across worker
//! thread counts once the volatile block is stripped
//! ([`Manifest::canonical_bytes`]); the determinism guard and
//! `vcfr report --against` both compare through that canonical form.

use crate::json::{parse_json, Json, JsonError};
use crate::snapshot::Snapshot;

/// Current manifest schema version.
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// The `kind` tag every manifest carries.
pub const MANIFEST_KIND: &str = "vcfr-run-manifest";

/// A manifest validation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ManifestError {
    /// The document is not JSON.
    Parse(JsonError),
    /// A required key is missing or has the wrong type.
    Invalid(String),
    /// The schema version is not one this code understands.
    Version(u64),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Parse(e) => write!(f, "manifest: {e}"),
            ManifestError::Invalid(what) => write!(f, "manifest: missing or invalid {what}"),
            ManifestError::Version(v) => write!(
                f,
                "manifest: schema_version {v} unsupported (expected {MANIFEST_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

/// One run manifest (a validated JSON document).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    doc: Json,
}

impl Manifest {
    /// Starts a manifest for one (app, mode) run. Keys are inserted in
    /// schema order so emission is byte-stable.
    pub fn new(app: &str, mode: &str) -> Manifest {
        let mut doc = Json::obj();
        doc.set("schema_version", Json::U64(MANIFEST_SCHEMA_VERSION));
        doc.set("kind", Json::Str(MANIFEST_KIND.into()));
        doc.set("app", Json::Str(app.into()));
        doc.set("mode", Json::Str(mode.into()));
        Manifest { doc }
    }

    /// Sets the machine-configuration block (must contain at least a
    /// `fingerprint` string).
    pub fn set_config(&mut self, config: Json) -> &mut Manifest {
        self.doc.set("config", config);
        self
    }

    /// Sets the counters block from a registry snapshot.
    pub fn set_counters(&mut self, snapshot: &Snapshot) -> &mut Manifest {
        self.doc.set("counters", snapshot.to_json());
        self
    }

    /// Sets the derived-metrics block.
    pub fn set_derived(&mut self, derived: Json) -> &mut Manifest {
        self.doc.set("derived", derived);
        self
    }

    /// Sets the cycle-accounting block.
    pub fn set_audit(&mut self, audit: Json) -> &mut Manifest {
        self.doc.set("audit", audit);
        self
    }

    /// Sets the interval-sample array.
    pub fn set_samples(&mut self, samples: Vec<Json>) -> &mut Manifest {
        self.doc.set("samples", Json::Arr(samples));
        self
    }

    /// Sets the volatile host block (wall time, throughput, threads).
    pub fn set_host(&mut self, host: Json) -> &mut Manifest {
        self.doc.set("host", host);
        self
    }

    /// The workload name.
    pub fn app(&self) -> &str {
        self.doc.get("app").and_then(Json::as_str).unwrap_or("")
    }

    /// The machine-configuration column name.
    pub fn mode(&self) -> &str {
        self.doc.get("mode").and_then(Json::as_str).unwrap_or("")
    }

    /// The underlying JSON document.
    pub fn json(&self) -> &Json {
        &self.doc
    }

    /// A counter by dotted path under `counters` (0 when absent).
    pub fn counter(&self, path: &str) -> u64 {
        self.doc
            .get("counters")
            .and_then(|c| c.get_path(path))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// A derived metric by name.
    pub fn derived(&self, name: &str) -> Option<f64> {
        self.doc.get("derived").and_then(|d| d.get(name)).and_then(Json::as_f64)
    }

    /// Serialises the full manifest (pretty, trailing newline).
    pub fn to_string_pretty(&self) -> String {
        self.doc.pretty()
    }

    /// The deterministic byte form: the document with the volatile
    /// `host` block removed. Byte-identical across worker thread counts
    /// and repeated runs.
    pub fn canonical_bytes(&self) -> String {
        let mut doc = self.doc.clone();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "host");
        }
        doc.pretty()
    }

    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// [`ManifestError`] on parse failures, missing required keys, or an
    /// unsupported schema version.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(text: &str) -> Result<Manifest, ManifestError> {
        let doc = parse_json(text).map_err(ManifestError::Parse)?;
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ManifestError::Invalid("schema_version".into()))?;
        if version != MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::Version(version));
        }
        if doc.get("kind").and_then(Json::as_str) != Some(MANIFEST_KIND) {
            return Err(ManifestError::Invalid("kind".into()));
        }
        for key in ["app", "mode"] {
            if doc.get(key).and_then(Json::as_str).map(str::is_empty).unwrap_or(true) {
                return Err(ManifestError::Invalid(key.into()));
            }
        }
        for key in ["config", "counters"] {
            if !matches!(doc.get(key), Some(Json::Obj(_))) {
                return Err(ManifestError::Invalid(key.into()));
            }
        }
        if doc
            .get("config")
            .and_then(|c| c.get("fingerprint"))
            .and_then(Json::as_str)
            .is_none()
        {
            return Err(ManifestError::Invalid("config.fingerprint".into()));
        }
        Ok(Manifest { doc })
    }

    /// The conventional file name for this run: `<app>__<mode>.json`.
    pub fn file_name(&self) -> String {
        format!("{}__{}.json", self.app(), self.mode())
    }
}

/// A stable 64-bit FNV-1a fingerprint of a configuration description,
/// rendered as a hex string. Feeding the `Debug` form of a config struct
/// gives a fingerprint that changes whenever any field changes.
pub fn fingerprint(description: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in description.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new("bzip2", "vcfr128");
        let mut cfg = Json::obj();
        cfg.set("fingerprint", Json::Str(fingerprint("cfg-v1")));
        cfg.set("seed", Json::U64(2015));
        m.set_config(cfg);
        m.set_counters(&Snapshot::from_counters(vec![
            ("sim.cycles".into(), 1000),
            ("sim.il1.miss".into(), 7),
        ]));
        let mut host = Json::obj();
        host.set("wall_s", Json::F64(0.123));
        m.set_host(host);
        m
    }

    #[test]
    fn roundtrip_and_accessors() {
        let m = sample();
        let text = m.to_string_pretty();
        let back = Manifest::from_str(&text).unwrap();
        assert_eq!(back.app(), "bzip2");
        assert_eq!(back.mode(), "vcfr128");
        assert_eq!(back.counter("sim.il1.miss"), 7);
        assert_eq!(back.counter("sim.absent"), 0);
        assert_eq!(back.file_name(), "bzip2__vcfr128.json");
    }

    #[test]
    fn canonical_bytes_strip_the_host_block() {
        let m = sample();
        assert!(m.to_string_pretty().contains("\"host\""));
        let canon = m.canonical_bytes();
        assert!(!canon.contains("\"host\""));
        // Two manifests differing only in host timing agree canonically.
        let mut other = sample();
        let mut host = Json::obj();
        host.set("wall_s", Json::F64(9.9));
        other.set_host(host);
        assert_eq!(canon, other.canonical_bytes());
    }

    #[test]
    fn validation_rejects_bad_documents() {
        assert!(matches!(Manifest::from_str("not json"), Err(ManifestError::Parse(_))));
        assert!(matches!(
            Manifest::from_str("{}"),
            Err(ManifestError::Invalid(k)) if k == "schema_version"
        ));
        let wrong_version = r#"{"schema_version": 99, "kind": "vcfr-run-manifest"}"#;
        assert!(matches!(Manifest::from_str(wrong_version), Err(ManifestError::Version(99))));
        let no_fp = r#"{"schema_version": 1, "kind": "vcfr-run-manifest",
                        "app": "a", "mode": "m", "config": {}, "counters": {}}"#;
        assert!(matches!(
            Manifest::from_str(no_fp),
            Err(ManifestError::Invalid(k)) if k == "config.fingerprint"
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("").len(), 16);
    }
}
