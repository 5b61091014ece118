//! One run description, and the one path that builds a run from it.
//!
//! A [`RunSpec`] is the daemon's wire job, a fleet chunk, and a cell of
//! the experiment matrix or the fault campaign. All of them build their
//! run with [`RunSpec::prepare`] (workload and layout),
//! [`RunSpec::session`] (mode, configuration, sampling, faults) and
//! [`RunSpec::manifest`], and keep only their own run loop in between
//! (`docs/architecture.md`). [`RunSpec::validate`] builds the same
//! [`SimConfig`] the run builds, so admission and the run agree.

use crate::campaign::fault_plan_for;
use crate::experiments::{SAMPLES_PER_RUN, SEED};
use crate::manifests::{build_engine_manifest, build_fault_manifest};
use crate::modes::{ModeSpec, DEFAULT_DRC_ENTRIES};
use std::fmt;
use vcfr_isa::Image;
use vcfr_obs::{Json, Manifest};
use vcfr_rewriter::{randomize, RandomizeConfig, RandomizedProgram};
use vcfr_sim::{EngineKind, Session, SessionOutcome, SimConfig, VcfrError};
use vcfr_workloads::{by_name_scaled, Workload, FIG2_NAMES, SPEC_NAMES};

/// What a run simulates. The spec is the *complete* identity of a run:
/// the workload image and the randomized layout are rebuilt from
/// `(workload, scale, seed)` deterministically, so a checkpoint plus
/// its spec is enough to resume in a fresh process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSpec {
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
    /// Instructions between engine snapshots when a daemon runs it.
    pub checkpoint_every: u64,
    /// Workload scale factor (`vcfr_workloads::by_name_scaled`): multiplies
    /// the outer repeat count and the instruction budget. 1 is the
    /// historical unscaled program.
    pub scale: u64,
    /// Run the deterministic fault-injection campaign schedule for this
    /// workload ([`fault_plan_for`]) and emit a fault manifest
    /// (`faults-<mode>`) instead of a matrix manifest.
    pub faults: bool,
    /// Which timing engine executes the run. On the wire this is the
    /// selector vocabulary (`inorder`/`ooo`/`mcN`); absent means
    /// in-order, so pre-engine clients keep working unchanged.
    pub engine: EngineKind,
}

/// A [`RunSpec`] that cannot be run, with the offending field named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SpecError {}

impl RunSpec {
    /// A VCFR run of `workload` with the standard experiment defaults.
    pub fn new(workload: &str) -> RunSpec {
        RunSpec {
            workload: workload.to_string(),
            mode: ModeSpec::vcfr_default(),
            max_insts: 1_000_000,
            seed: SEED,
            rerand_epoch: None,
            checkpoint_every: 100_000,
            scale: 1,
            faults: false,
            engine: EngineKind::InOrder,
        }
    }

    /// The experiment-matrix mode column this spec simulates:
    /// `base`, `naive`, or `vcfr<entries>` — [`ModeSpec`]'s canonical
    /// `Display` form.
    pub fn matrix_mode(&self) -> String {
        self.mode.to_string()
    }

    /// The manifest `mode` column this spec produces —
    /// [`RunSpec::matrix_mode`], prefixed `faults-` for campaign runs
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

    /// The simulator configuration of the run (step 2's `SimConfig`).
    fn config(&self) -> Result<SimConfig, VcfrError> {
        SimConfig::builder()
            .engine(self.engine)
            .rerand_epoch(self.rerand_epoch)
            .drc_entries(self.mode.drc_entries())
            .build()
    }

    /// Refuses every spec the run would refuse. The workload is checked
    /// by name, without building its image; the configuration by the
    /// run's own [`SimConfig`] builder.
    ///
    /// # Errors
    ///
    /// [`SpecError`] naming the inconsistent field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let name = self.workload.as_str();
        if !SPEC_NAMES.contains(&name) && !FIG2_NAMES.contains(&name) {
            return Err(SpecError(format!(
                "workload must be a known workload name (got {name:?})"
            )));
        }
        if self.checkpoint_every == 0 {
            return Err(SpecError("checkpoint_every must be at least 1 instruction".to_string()));
        }
        if self.max_insts == 0 {
            return Err(SpecError("max_insts must be at least 1 instruction".to_string()));
        }
        if self.scale == 0 || self.scale > 1024 {
            return Err(SpecError(format!(
                "scale must be between 1 and 1024 (got {})",
                self.scale
            )));
        }
        self.config().map_err(|e| SpecError(e.to_string()))?;
        if self.faults && !self.engine.models_faults() {
            return Err(SpecError(
                "fault campaigns are only modeled on the in-order engine".to_string(),
            ));
        }
        Ok(())
    }

    /// Step 1: the scaled workload and, unless the mode is `base`, its
    /// layout randomized with the spec's seed.
    ///
    /// # Errors
    ///
    /// [`SpecError`] for an unknown workload or a failed randomization.
    pub fn prepare(&self) -> Result<(Workload, Option<RandomizedProgram>), SpecError> {
        let w = by_name_scaled(&self.workload, self.scale)
            .ok_or_else(|| SpecError(format!("unknown workload {:?}", self.workload)))?;
        let layout = (self.mode != ModeSpec::Base)
            .then(|| randomize(&w.image, &RandomizeConfig::with_seed(self.seed)))
            .transpose()
            .map_err(|e| SpecError(format!("randomization failed: {e}")))?;
        Ok((w, layout))
    }

    /// Step 2: the session over `image` and its randomized `layout`
    /// (needed by every mode but `base`), sampled [`SAMPLES_PER_RUN`]
    /// times and, for a campaign cell, scheduled with the app's faults.
    ///
    /// # Errors
    ///
    /// [`VcfrError::Config`] when the configuration is invalid or a
    /// randomized mode gets no layout.
    pub fn session<'a>(
        &self,
        image: &'a Image,
        layout: Option<&'a RandomizedProgram>,
    ) -> Result<Session<'a>, VcfrError> {
        let mode = self.mode.sim_mode(image, layout).ok_or_else(|| {
            VcfrError::Config(format!("mode {} needs a randomized layout", self.mode))
        })?;
        let session = Session::new(mode, &self.config()?, self.max_insts)?
            .with_sampling((self.max_insts / SAMPLES_PER_RUN).max(1));
        Ok(if self.faults {
            session.with_faults(&fault_plan_for(&self.workload, self.max_insts))
        } else {
            session
        })
    }

    /// Step 3: the run's manifest — a fault manifest for a campaign
    /// cell (its builder adds the `faults-` prefix), otherwise the engine
    /// manifest under [`RunSpec::manifest_mode`], so a non-in-order run
    /// never merges over the in-order cell of the same matrix.
    pub fn manifest(&self, out: &SessionOutcome, host: Json) -> Manifest {
        let (app, stats) = (&self.workload, &out.output.stats);
        if self.faults {
            build_fault_manifest(app, &self.matrix_mode(), &out.faults, stats, host)
        } else {
            let mode = self.manifest_mode();
            build_engine_manifest(app, &mode, self.engine, stats, &out.samples, host)
        }
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

    /// Parses and validates a spec object, applying the
    /// [`RunSpec::new`] defaults for absent optional fields.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on missing or ill-typed fields, and on every spec
    /// [`RunSpec::validate`] refuses.
    pub fn from_json(j: &Json) -> Result<RunSpec, SpecError> {
        let workload = j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| SpecError("job needs a workload name".to_string()))?;
        let mut spec = RunSpec::new(workload);
        let u64_field = |key: &str, default: u64| -> Result<u64, SpecError> {
            match j.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| SpecError(format!("{key} must be an unsigned integer"))),
            }
        };
        // The wire carries the mode word and the DRC size separately
        // (the historical format); `ModeSpec::from_wire` folds both
        // dialects into the typed spec, so old-format specs still admit.
        let mode_word = match j.get("mode") {
            None | Some(Json::Null) => None,
            Some(m) => {
                Some(m.as_str().ok_or_else(|| SpecError("mode must be a string".to_string()))?)
            }
        };
        let drc = u64_field("drc", DEFAULT_DRC_ENTRIES as u64)? as usize;
        if let Some(word) = mode_word {
            spec.mode = ModeSpec::from_wire(word, drc).map_err(|e| SpecError(e.to_string()))?;
        } else if drc != DEFAULT_DRC_ENTRIES {
            // A bare DRC size with no mode word is a legacy VCFR spec.
            spec.mode = ModeSpec::from_wire("vcfr", drc).map_err(|e| SpecError(e.to_string()))?;
        }
        spec.max_insts = u64_field("max_insts", spec.max_insts)?;
        spec.seed = u64_field("seed", spec.seed)?;
        spec.checkpoint_every = u64_field("checkpoint_every", spec.checkpoint_every)?;
        spec.scale = u64_field("scale", spec.scale)?;
        spec.rerand_epoch = match j.get("rerand_epoch") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                SpecError("rerand_epoch must be an unsigned integer".to_string())
            })?),
        };
        spec.faults = match j.get("faults") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(SpecError("faults must be a boolean".to_string())),
        };
        // Absent means in-order: pre-engine specs on disk and on the
        // wire parse unchanged (the same pattern `faults` uses).
        spec.engine = match j.get("engine") {
            None | Some(Json::Null) => EngineKind::InOrder,
            Some(v) => v
                .as_str()
                .ok_or_else(|| SpecError("engine must be a string".to_string()))?
                .parse()
                .map_err(|e: VcfrError| SpecError(e.to_string()))?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_matrix;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = RunSpec::new("bzip2");
        spec.rerand_epoch = Some(40_000);
        spec.max_insts = 123_456;
        spec.scale = 8;
        let back = RunSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
    }

    #[test]
    fn absent_scale_defaults_to_one() {
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("scale", Json::Null);
        assert_eq!(RunSpec::from_json(&j).expect("parses").scale, 1);
    }

    #[test]
    fn bad_specs_are_rejected_at_admission() {
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("mode", Json::Str("turbo".into()));
        assert!(RunSpec::from_json(&j).is_err());
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("checkpoint_every", Json::U64(0));
        assert!(RunSpec::from_json(&j).is_err());
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("scale", Json::U64(0));
        assert!(RunSpec::from_json(&j).is_err());
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("scale", Json::U64(2048));
        assert!(RunSpec::from_json(&j).is_err());
        assert!(RunSpec::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn an_unbuildable_drc_is_refused_at_parse_time() {
        // A DRC this size would abort the daemon on allocation — and,
        // persisted before the run, again on every restart.
        let text = r#"{"workload":"bzip2","mode":"vcfr","drc":1099511627776}"#;
        let j = vcfr_obs::parse_json(text).expect("valid JSON");
        let e = RunSpec::from_json(&j).expect_err("refused");
        assert!(e.to_string().contains("vcfr"), "{e}");
    }

    #[test]
    fn faulted_spec_round_trips_and_names_its_manifest() {
        let mut spec = RunSpec::new("bzip2");
        spec.mode = ModeSpec::Base;
        spec.faults = true;
        let back = RunSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(spec.matrix_mode(), "base");
        assert_eq!(spec.manifest_mode(), "faults-base");
        assert_eq!(spec.manifest_file_name(), "bzip2__faults-base.json");
        // Absent field defaults off (wire compatibility with PR 4 clients).
        let legacy = RunSpec::from_json(&RunSpec::new("bzip2").to_json()).expect("parses");
        assert!(!legacy.faults);
        assert_eq!(legacy.manifest_file_name(), "bzip2__vcfr128.json");
    }

    #[test]
    fn cells_translate_to_specs() {
        let specs =
            shard_matrix(&["gcc"], &["vcfr64"], Some(500_000), 2, 50_000).expect("valid cell");
        assert_eq!(specs[0].mode, ModeSpec::Vcfr { drc_entries: 64 });
        assert_eq!(specs[0].manifest_file_name(), "gcc__vcfr64.json");
        assert!(shard_matrix(&["gcc"], &["turbo"], Some(500_000), 2, 50_000).is_err());
    }

    #[test]
    fn engine_field_selects_a_kind_and_stays_wire_compatible() {
        // Absent field defaults to the in-order engine (pre-engine specs
        // on disk parse unchanged).
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("engine", Json::Null);
        let legacy = RunSpec::from_json(&j).expect("parses");
        assert_eq!(legacy.engine, EngineKind::InOrder);
        assert_eq!(legacy.manifest_file_name(), "bzip2__vcfr128.json");

        // Explicit selectors round-trip and prefix the manifest name so
        // engine variants never collide with the in-order matrix cell.
        let mut spec = RunSpec::new("bzip2");
        spec.engine = EngineKind::Ooo;
        let back = RunSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, back);
        assert_eq!(back.manifest_file_name(), "bzip2__ooo-vcfr128.json");
        spec.engine = EngineKind::Multicore { cores: 2 };
        assert_eq!(spec.manifest_file_name(), "bzip2__mc2-vcfr128.json");

        // Unknown selectors and impossible core counts are admission errors.
        for bad in ["turbo", "mc0", "mc65", "mc"] {
            let mut j = RunSpec::new("bzip2").to_json();
            j.set("engine", Json::Str(bad.into()));
            assert!(RunSpec::from_json(&j).is_err(), "{bad} should be rejected");
        }

        // Fault campaigns stay pinned to the in-order engine.
        let mut j = RunSpec::new("bzip2").to_json();
        j.set("faults", Json::Bool(true));
        j.set("engine", Json::Str("ooo".into()));
        let e = RunSpec::from_json(&j).unwrap_err();
        assert!(e.to_string().contains("in-order"), "{e}");
    }
}
