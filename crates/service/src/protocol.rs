//! The JSON-lines wire protocol and the job vocabulary shared by the
//! daemon and the client.
//!
//! Every request and every response is one JSON object per line (the
//! deterministic `vcfr-obs` emitter is the codec — no new serialization
//! machinery). Requests carry an `"op"` discriminant; responses carry
//! `"ok"` (or, on the `watch` stream, an `"event"` discriminant).

use std::io::Write;
use vcfr_bench::ModeSpec;
use vcfr_obs::{Json, JsonError};
use vcfr_sim::{EngineKind, VcfrError};

/// File (inside the service state directory) holding the daemon's bound
/// `host:port`, written on startup and removed on graceful shutdown.
pub const ENDPOINT_FILE: &str = "endpoint";

/// What a submitted job should simulate. The spec is the *complete*
/// identity of a run: the daemon rebuilds the workload image and the
/// randomized layout from `(workload, seed)` deterministically, so a
/// checkpoint plus its spec is enough to resume in a fresh process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (`vcfr_workloads::by_name`).
    pub workload: String,
    /// Machine configuration. The typed [`ModeSpec`] carries the DRC
    /// size inside its `Vcfr` variant; on the wire it is still the
    /// historical `mode` word plus a `drc` field for compatibility.
    pub mode: ModeSpec,
    /// Instruction budget.
    pub max_insts: u64,
    /// Randomization seed.
    pub seed: u64,
    /// Live re-randomization epoch (VCFR only), in instructions.
    pub rerand_epoch: Option<u64>,
    /// Instructions between engine snapshots.
    pub checkpoint_every: u64,
    /// Workload scale factor (`vcfr_workloads::by_name_scaled`): multiplies
    /// the outer repeat count and the instruction budget. 1 is the
    /// historical unscaled program.
    pub scale: u64,
    /// Run the deterministic fault-injection campaign schedule for this
    /// workload (`vcfr_bench::fault_plan_for`) and emit a fault manifest
    /// (`faults-<mode>`) instead of a matrix manifest.
    pub faults: bool,
    /// Which timing engine executes the run. On the wire this is the
    /// selector vocabulary (`inorder`/`ooo`/`mcN`); absent means
    /// in-order, so pre-engine clients keep working unchanged.
    pub engine: EngineKind,
}

impl JobSpec {
    /// A VCFR run of `workload` with the standard experiment defaults.
    pub fn new(workload: &str) -> JobSpec {
        JobSpec {
            workload: workload.to_string(),
            mode: ModeSpec::vcfr_default(),
            max_insts: 1_000_000,
            seed: vcfr_bench::experiments::SEED,
            rerand_epoch: None,
            checkpoint_every: 100_000,
            scale: 1,
            faults: false,
            engine: EngineKind::InOrder,
        }
    }

    /// A spec for one shard cell ([`vcfr_bench::shard::ShardCell`]);
    /// the cell's mode word is the same [`ModeSpec`] vocabulary, so no
    /// translation happens here anymore.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on an unknown mode or an otherwise
    /// invalid cell.
    pub fn from_cell(cell: &vcfr_bench::shard::ShardCell) -> Result<JobSpec, ServiceError> {
        let mut spec = JobSpec::new(&cell.app);
        spec.mode =
            cell.mode.parse().map_err(|e| ServiceError::Protocol(format!("{e}")))?;
        spec.max_insts = cell.max_insts;
        spec.scale = cell.scale;
        spec.checkpoint_every = cell.checkpoint_every;
        spec.faults = cell.faults;
        spec.validate()?;
        Ok(spec)
    }

    /// The experiment-matrix mode column this spec simulates:
    /// `base`, `naive`, or `vcfr<entries>` — [`ModeSpec`]'s canonical
    /// `Display` form.
    pub fn matrix_mode(&self) -> String {
        self.mode.to_string()
    }

    /// The manifest `mode` column this spec produces —
    /// [`JobSpec::matrix_mode`], prefixed `faults-` for campaign runs
    /// and `<engine>-` for non-in-order engines (so an `ooo` or `mc2`
    /// run never collides with the in-order cell of the same matrix).
    pub fn manifest_mode(&self) -> String {
        if self.faults {
            format!("faults-{}", self.matrix_mode())
        } else if self.engine != EngineKind::InOrder {
            format!("{}-{}", self.engine, self.matrix_mode())
        } else {
            self.matrix_mode()
        }
    }

    /// The conventional `results/manifests/` file name of this spec's
    /// manifest (`<app>__<mode>.json`). Two specs with the same name
    /// must produce byte-identical canonical manifests; the fleet merge
    /// treats anything else as a conflict.
    pub fn manifest_file_name(&self) -> String {
        format!("{}__{}.json", self.workload, self.manifest_mode())
    }

    /// Checks the combinations the service refuses at admission (the
    /// `Session` constructor re-checks the simulator-level ones).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] naming the inconsistent field.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.checkpoint_every == 0 {
            return Err(ServiceError::Protocol(
                "checkpoint_every must be at least 1 instruction".to_string(),
            ));
        }
        if self.max_insts == 0 {
            return Err(ServiceError::Protocol(
                "max_insts must be at least 1 instruction".to_string(),
            ));
        }
        if self.scale == 0 || self.scale > 1024 {
            return Err(ServiceError::Protocol(format!(
                "scale must be between 1 and 1024 (got {})",
                self.scale
            )));
        }
        self.engine.validate().map_err(|e| ServiceError::Protocol(e.to_string()))?;
        if self.faults && !self.engine.models_faults() {
            return Err(ServiceError::Protocol(
                "fault campaigns are only modeled on the in-order engine".to_string(),
            ));
        }
        Ok(())
    }

    /// The spec as a JSON object (field order fixed, so re-emitting is
    /// byte-stable).
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("workload", Json::Str(self.workload.clone()));
        j.set("mode", Json::Str(self.mode.to_string()));
        match self.mode.drc_entries() {
            Some(entries) => j.set("drc", Json::U64(entries as u64)),
            None => j.set("drc", Json::Null),
        };
        j.set("max_insts", Json::U64(self.max_insts));
        j.set("seed", Json::U64(self.seed));
        match self.rerand_epoch {
            Some(n) => j.set("rerand_epoch", Json::U64(n)),
            None => j.set("rerand_epoch", Json::Null),
        };
        j.set("checkpoint_every", Json::U64(self.checkpoint_every));
        j.set("scale", Json::U64(self.scale));
        j.set("faults", Json::Bool(self.faults));
        j.set("engine", Json::Str(self.engine.to_string()));
        j
    }

    /// Parses a spec object, applying the [`JobSpec::new`] defaults for
    /// absent optional fields.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Protocol`] on missing/ill-typed fields.
    pub fn from_json(j: &Json) -> Result<JobSpec, ServiceError> {
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| ServiceError::Protocol("job needs a workload name".to_string()))?;
        let mut spec = JobSpec::new(workload);
        let u64_field = |key: &str, default: u64| -> Result<u64, ServiceError> {
            match j.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(v) => v.as_u64().ok_or_else(|| {
                    ServiceError::Protocol(format!("{key} must be an unsigned integer"))
                }),
            }
        };
        // The wire carries the mode word and the DRC size separately
        // (the historical format); `ModeSpec::from_wire` folds both
        // dialects into the typed spec, so old-format specs still admit.
        let mode_word = match j.get("mode") {
            None | Some(Json::Null) => None,
            Some(m) => Some(
                m.as_str()
                    .ok_or_else(|| ServiceError::Protocol("mode must be a string".to_string()))?,
            ),
        };
        let drc = u64_field("drc", vcfr_bench::DEFAULT_DRC_ENTRIES as u64)? as usize;
        if let Some(word) = mode_word {
            spec.mode = ModeSpec::from_wire(word, drc)
                .map_err(|e| ServiceError::Protocol(format!("{e}")))?;
        } else if drc != vcfr_bench::DEFAULT_DRC_ENTRIES {
            // A bare DRC size with no mode word is a legacy VCFR spec.
            spec.mode = ModeSpec::from_wire("vcfr", drc)
                .map_err(|e| ServiceError::Protocol(format!("{e}")))?;
        }
        spec.max_insts = u64_field("max_insts", spec.max_insts)?;
        spec.seed = u64_field("seed", spec.seed)?;
        spec.checkpoint_every = u64_field("checkpoint_every", spec.checkpoint_every)?;
        spec.scale = u64_field("scale", spec.scale)?;
        spec.rerand_epoch = match j.get("rerand_epoch") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                ServiceError::Protocol("rerand_epoch must be an unsigned integer".to_string())
            })?),
        };
        spec.faults = match j.get("faults") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => {
                return Err(ServiceError::Protocol("faults must be a boolean".to_string()))
            }
        };
        // Absent means in-order: pre-engine specs on disk and on the
        // wire parse unchanged (the same pattern `faults` uses).
        spec.engine = match j.get("engine") {
            None | Some(Json::Null) => EngineKind::InOrder,
            Some(v) => v
                .as_str()
                .ok_or_else(|| ServiceError::Protocol("engine must be a string".to_string()))?
                .parse()
                .map_err(|e: VcfrError| ServiceError::Protocol(e.to_string()))?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted (or re-admitted after a restart), waiting for a worker.
    Queued,
    /// A worker is simulating it right now.
    Running,
    /// Finished; its manifest is on disk.
    Done,
    /// Aborted with an error (recorded in the status).
    Failed,
}

impl JobPhase {
    /// The wire/on-disk name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }

    /// Parses a wire/on-disk name. `running` maps to [`JobPhase::Queued`]
    /// deliberately: on disk it can only mean the daemon died mid-run,
    /// and the job must be re-admitted.
    pub fn from_disk(s: &str) -> Option<JobPhase> {
        Some(match s {
            "queued" | "running" => JobPhase::Queued,
            "done" => JobPhase::Done,
            "failed" => JobPhase::Failed,
            _ => return None,
        })
    }

    /// Whether the job will never run again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed)
    }
}

/// Everything that can go wrong between a client and the daemon.
#[derive(Debug)]
pub enum ServiceError {
    /// Socket or state-directory I/O failed.
    Io(std::io::Error),
    /// A malformed request/response, or an error the peer reported.
    Protocol(String),
    /// The simulator rejected or aborted a run.
    Sim(VcfrError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "service protocol error: {msg}"),
            ServiceError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Protocol(_) => None,
            ServiceError::Sim(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

impl From<VcfrError> for ServiceError {
    fn from(e: VcfrError) -> ServiceError {
        ServiceError::Sim(e)
    }
}

impl From<JsonError> for ServiceError {
    fn from(e: JsonError) -> ServiceError {
        ServiceError::Protocol(format!("malformed JSON line: {e}"))
    }
}

/// A `{"ok": false, "error": …}` response line.
pub(crate) fn err_response(msg: &str) -> Json {
    let mut j = Json::obj();
    j.set("ok", Json::Bool(false));
    j.set("error", Json::Str(msg.to_string()));
    j
}

/// A `{"ok": true}` response line ready for extra fields.
pub(crate) fn ok_response() -> Json {
    let mut j = Json::obj();
    j.set("ok", Json::Bool(true));
    j
}

/// Sends `msgs` as JSON lines in one `write_all`: every wire frame in
/// the service goes out through here.
///
/// A frame written as its payload and then its `'\n'` leaves a one-byte
/// tail that Nagle's algorithm holds until the peer's delayed ACK fires
/// (about 40 ms on Linux), once in each direction of every round trip.
/// One buffer per write removes that stall without any socket option.
pub(crate) fn send_lines<'a>(
    out: &mut impl Write,
    msgs: impl IntoIterator<Item = &'a Json>,
) -> std::io::Result<()> {
    let mut frame = String::new();
    for msg in msgs {
        frame.push_str(&msg.compact());
        frame.push('\n');
    }
    out.write_all(frame.as_bytes())
}

/// Lowercase-hex encoding for binary blobs (checkpoints) carried inside
/// JSON strings on the wire.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            Some((hi * 16 + lo) as u8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::new("bzip2");
        spec.rerand_epoch = Some(40_000);
        spec.max_insts = 123_456;
        spec.scale = 8;
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
    }

    #[test]
    fn absent_scale_defaults_to_one() {
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("scale", Json::Null);
        assert_eq!(JobSpec::from_json(&j).expect("parses").scale, 1);
    }

    #[test]
    fn bad_specs_are_rejected_at_admission() {
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("mode", Json::Str("turbo".into()));
        assert!(JobSpec::from_json(&j).is_err());
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("checkpoint_every", Json::U64(0));
        assert!(JobSpec::from_json(&j).is_err());
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("scale", Json::U64(0));
        assert!(JobSpec::from_json(&j).is_err());
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("scale", Json::U64(2048));
        assert!(JobSpec::from_json(&j).is_err());
        assert!(JobSpec::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn an_unbuildable_drc_is_refused_at_parse_time() {
        // A DRC this size would abort the daemon on allocation — and,
        // persisted before the run, again on every restart.
        let text = r#"{"workload":"bzip2","mode":"vcfr","drc":1099511627776}"#;
        let j = vcfr_obs::parse_json(text).expect("valid JSON");
        match JobSpec::from_json(&j) {
            Err(ServiceError::Protocol(msg)) => assert!(msg.contains("vcfr"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn faulted_spec_round_trips_and_names_its_manifest() {
        let mut spec = JobSpec::new("bzip2");
        spec.mode = ModeSpec::Base;
        spec.faults = true;
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(spec.matrix_mode(), "base");
        assert_eq!(spec.manifest_mode(), "faults-base");
        assert_eq!(spec.manifest_file_name(), "bzip2__faults-base.json");
        // Absent field defaults off (wire compatibility with PR 4 clients).
        let legacy = JobSpec::from_json(&JobSpec::new("bzip2").to_json()).expect("parses");
        assert!(!legacy.faults);
        assert_eq!(legacy.manifest_file_name(), "bzip2__vcfr128.json");
    }

    #[test]
    fn cells_translate_to_specs() {
        let cell = vcfr_bench::shard::ShardCell {
            app: "gcc".to_string(),
            mode: "vcfr64".to_string(),
            faults: false,
            max_insts: 500_000,
            scale: 2,
            checkpoint_every: 50_000,
        };
        let spec = JobSpec::from_cell(&cell).expect("valid cell");
        assert_eq!(spec.mode, ModeSpec::Vcfr { drc_entries: 64 });
        assert_eq!(spec.manifest_file_name(), "gcc__vcfr64.json");
        let mut bad = cell;
        bad.mode = "turbo".to_string();
        assert!(JobSpec::from_cell(&bad).is_err());
    }

    #[test]
    fn engine_field_selects_a_kind_and_stays_wire_compatible() {
        // Absent field defaults to the in-order engine (pre-engine specs
        // on disk parse unchanged).
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("engine", Json::Null);
        let legacy = JobSpec::from_json(&j).expect("parses");
        assert_eq!(legacy.engine, EngineKind::InOrder);
        assert_eq!(legacy.manifest_file_name(), "bzip2__vcfr128.json");

        // Explicit selectors round-trip and prefix the manifest name so
        // engine variants never collide with the in-order matrix cell.
        let mut spec = JobSpec::new("bzip2");
        spec.engine = EngineKind::Ooo;
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(back.manifest_file_name(), "bzip2__ooo-vcfr128.json");
        spec.engine = EngineKind::Multicore { cores: 2 };
        assert_eq!(spec.manifest_file_name(), "bzip2__mc2-vcfr128.json");

        // Unknown selectors and impossible core counts are admission errors.
        for bad in ["turbo", "mc0", "mc65", "mc"] {
            let mut j = JobSpec::new("bzip2").to_json();
            j.set("engine", Json::Str(bad.into()));
            assert!(JobSpec::from_json(&j).is_err(), "{bad} should be rejected");
        }

        // Fault campaigns stay pinned to the in-order engine.
        let mut j = JobSpec::new("bzip2").to_json();
        j.set("faults", Json::Bool(true));
        j.set("engine", Json::Str("ooo".into()));
        let e = JobSpec::from_json(&j).unwrap_err();
        assert!(e.to_string().contains("in-order"), "{e}");
    }

    /// A sink that records the size of every `write` call it gets.
    #[derive(Default)]
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_go_out_in_one_write() {
        let mut out = Writes::default();
        let lines = [ok_response(), err_response("x"), ok_response()];
        send_lines(&mut out, &lines).expect("writes");
        let total: usize = lines.iter().map(|l| l.compact().len() + 1).sum();
        assert_eq!(out.0, [total]);
    }

    #[test]
    fn hex_round_trips() {
        let bytes = [0u8, 1, 0x7f, 0xff, 0xa5];
        assert_eq!(hex_decode(&hex_encode(&bytes)), Some(bytes.to_vec()));
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode(""), Some(Vec::new()));
        assert_eq!(hex_decode("abc"), None);
        assert_eq!(hex_decode("zz"), None);
    }

    #[test]
    fn on_disk_running_jobs_requeue() {
        assert_eq!(JobPhase::from_disk("running"), Some(JobPhase::Queued));
        assert_eq!(JobPhase::from_disk("done"), Some(JobPhase::Done));
        assert!(JobPhase::from_disk("done").expect("parses").is_terminal());
        assert_eq!(JobPhase::from_disk("nonsense"), None);
    }
}
