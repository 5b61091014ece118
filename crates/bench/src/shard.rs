//! Sharding an evaluation campaign into per-job cells, and merging the
//! per-node manifest trees back into one canonical `results/` tree.
//!
//! The fleet coordinator (`vcfr fleet`, `crates/service`) schedules
//! work in units of [`RunSpec`]: one (application, configuration) cell
//! of the experiment matrix or the fault campaign. Cell order is a pure
//! function of the requested apps and modes (app-major, modes in the
//! given order), so every client that shards the same campaign produces
//! the same chunk list — which is what makes the merged output
//! comparable byte-for-byte against a single-daemon run.
//!
//! Merging is idempotent and order-independent: a manifest file is the
//! canonical (host-stripped) byte form keyed by `<app>__<mode>.json`,
//! so two nodes that produced the same cell must agree byte-for-byte.
//! Byte-equal duplicates collapse silently; anything else is a
//! [`MergeOutcome::Conflict`], never an overwrite.

use crate::campaign::CAMPAIGN_MODES;
use crate::run::{RunSpec, SpecError};
use std::io;
use std::path::Path;
use vcfr_workloads::by_name_scaled;

/// Resolves and validates one cell, defaulting the budget to the scaled
/// workload's own.
fn cell(
    app: &str,
    mode: &str,
    faults: bool,
    max_insts: Option<u64>,
    scale: u64,
    checkpoint_every: u64,
) -> Result<RunSpec, SpecError> {
    let w = by_name_scaled(app, scale)
        .ok_or_else(|| SpecError(format!("unknown workload {app:?}")))?;
    let spec = RunSpec {
        mode: mode.parse().map_err(|e| SpecError(format!("{e}")))?,
        max_insts: max_insts.unwrap_or(w.max_insts),
        scale,
        checkpoint_every,
        faults,
        ..RunSpec::new(app)
    };
    spec.validate()?;
    Ok(spec)
}

/// Shards an experiment matrix over `apps` × `modes` into validated
/// specs, app-major (all of one app's modes, then the next app).
/// `max_insts` of `None` uses each scaled workload's own budget.
///
/// # Errors
///
/// [`SpecError`] for the first cell [`RunSpec::validate`] refuses, or
/// the first mode outside the [`ModeSpec`](crate::ModeSpec) vocabulary.
pub fn shard_matrix(
    apps: &[&str],
    modes: &[&str],
    max_insts: Option<u64>,
    scale: u64,
    checkpoint_every: u64,
) -> Result<Vec<RunSpec>, SpecError> {
    let mut out = Vec::with_capacity(apps.len() * modes.len());
    for app in apps {
        for mode in modes {
            out.push(cell(app, mode, false, max_insts, scale, checkpoint_every)?);
        }
    }
    Ok(out)
}

/// Shards the Figure-11 fault campaign over `apps` ×
/// [`CAMPAIGN_MODES`] into faulted specs, app-major.
///
/// # Errors
///
/// [`SpecError`] for the first cell [`RunSpec::validate`] refuses.
pub fn shard_campaign(
    apps: &[&str],
    max_insts: Option<u64>,
    checkpoint_every: u64,
) -> Result<Vec<RunSpec>, SpecError> {
    let mut out = Vec::with_capacity(apps.len() * CAMPAIGN_MODES.len());
    for app in apps {
        for mode in CAMPAIGN_MODES {
            out.push(cell(app, mode, true, max_insts, 1, checkpoint_every)?);
        }
    }
    Ok(out)
}

/// What merging one manifest into the canonical tree did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeOutcome {
    /// The file was absent and has been written (atomically).
    Written,
    /// The file already held exactly these bytes; nothing was touched.
    Identical,
    /// The file exists with *different* bytes — two runs claiming the
    /// same identity disagreed. The tree is left untouched.
    Conflict,
}

/// Merges one canonical manifest into `dir` under `file_name`:
/// write-if-absent ([`write_atomic`]), byte-compare otherwise. Never
/// overwrites — see [`MergeOutcome`].
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn merge_manifest_bytes(
    dir: &Path,
    file_name: &str,
    bytes: &[u8],
) -> io::Result<MergeOutcome> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name);
    match std::fs::read(&path) {
        Ok(existing) if existing == bytes => Ok(MergeOutcome::Identical),
        Ok(_) => Ok(MergeOutcome::Conflict),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            write_atomic(&path, bytes)?;
            Ok(MergeOutcome::Written)
        }
        Err(e) => Err(e),
    }
}

/// Writes `bytes` to `path` through `<path>.tmp` and a rename, so a hard
/// kill leaves either the old file or the new one, never a torn write.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Per-file tally of a tree merge.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Files newly written into the destination.
    pub written: usize,
    /// Byte-equal duplicates collapsed.
    pub identical: usize,
    /// File names that conflicted (left untouched in the destination).
    pub conflicts: Vec<String>,
}

/// Merges every `*.json` manifest from each source directory into
/// `dest` via [`merge_manifest_bytes`]. Sources are processed in the
/// given order and files within each source in name order, but because
/// merging never overwrites, any order yields the same tree (only the
/// report's written/identical split can shift).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn merge_manifest_trees(dest: &Path, sources: &[&Path]) -> io::Result<MergeReport> {
    let mut report = MergeReport::default();
    for src in sources {
        let mut names: Vec<String> = std::fs::read_dir(src)?
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort_unstable();
        for name in names {
            let bytes = std::fs::read(src.join(&name))?;
            match merge_manifest_bytes(dest, &name, &bytes)? {
                MergeOutcome::Written => report.written += 1,
                MergeOutcome::Identical => report.identical += 1,
                MergeOutcome::Conflict => report.conflicts.push(name),
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vcfr-shard-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn matrix_shards_app_major_in_mode_order() {
        let cells = shard_matrix(&["bzip2", "gcc"], &["base", "vcfr128"], Some(10_000), 1, 1_000)
            .expect("known apps");
        let keys: Vec<String> = cells.iter().map(RunSpec::manifest_file_name).collect();
        assert_eq!(
            keys,
            [
                "bzip2__base.json",
                "bzip2__vcfr128.json",
                "gcc__base.json",
                "gcc__vcfr128.json"
            ]
        );
        assert!(cells.iter().all(|c| !c.faults && c.max_insts == 10_000));
        assert!(shard_matrix(&["nope"], &["base"], None, 1, 1_000).is_err());
    }

    #[test]
    fn default_budget_is_the_scaled_workloads_own() {
        let one = shard_matrix(&["bzip2"], &["base"], None, 1, 1_000).expect("shards");
        let four = shard_matrix(&["bzip2"], &["base"], None, 4, 1_000).expect("shards");
        assert!(four[0].max_insts > one[0].max_insts);
    }

    #[test]
    fn campaign_shards_cover_both_machines() {
        let cells = shard_campaign(&["bzip2"], Some(20_000), 1_000).expect("known app");
        let keys: Vec<String> = cells.iter().map(RunSpec::manifest_file_name).collect();
        assert_eq!(keys, ["bzip2__faults-base.json", "bzip2__faults-vcfr128.json"]);
        assert!(cells.iter().all(|c| c.faults));
    }

    #[test]
    fn merge_is_write_once_and_conflict_safe() {
        let dir = temp_dir("merge");
        assert_eq!(
            merge_manifest_bytes(&dir, "a__base.json", b"one").expect("io"),
            MergeOutcome::Written
        );
        assert_eq!(
            merge_manifest_bytes(&dir, "a__base.json", b"one").expect("io"),
            MergeOutcome::Identical
        );
        assert_eq!(
            merge_manifest_bytes(&dir, "a__base.json", b"two").expect("io"),
            MergeOutcome::Conflict
        );
        assert_eq!(std::fs::read(dir.join("a__base.json")).expect("kept"), b"one");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tree_merge_collapses_duplicates_and_reports_conflicts() {
        let (a, b, dest) = (temp_dir("tree-a"), temp_dir("tree-b"), temp_dir("tree-dest"));
        std::fs::write(a.join("x__base.json"), b"x").expect("write");
        std::fs::write(a.join("y__base.json"), b"y").expect("write");
        std::fs::write(b.join("y__base.json"), b"y").expect("write");
        std::fs::write(b.join("z__base.json"), b"z!").expect("write");
        std::fs::write(dest.join("z__base.json"), b"z").expect("write");
        let report = merge_manifest_trees(&dest, &[&a, &b]).expect("io");
        assert_eq!(report.written, 2);
        assert_eq!(report.identical, 1);
        assert_eq!(report.conflicts, ["z__base.json"]);
        assert_eq!(std::fs::read(dest.join("z__base.json")).expect("kept"), b"z");
        for d in [a, b, dest] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }
}
