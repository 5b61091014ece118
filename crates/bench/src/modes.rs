//! The typed run-mode vocabulary.
//!
//! Every layer used to pass modes around as strings, with two dialects
//! — the experiment matrix said `"base"`/`"vcfr128"`, the service wire
//! said `"baseline"`/`"vcfr"` plus a separate `drc_entries` field — and
//! alias-normalization branches at each boundary. [`ModeSpec`] is the
//! one vocabulary: `Display` emits the canonical matrix form
//! (`base`/`naive`/`vcfr<entries>`), `FromStr` additionally admits the
//! historical aliases so old wire specs and CLI invocations keep
//! working, and the `Display → FromStr` round-trip is proptest-pinned.

use std::fmt;
use std::str::FromStr;
use vcfr_core::{DrcConfig, MAX_DRC_ENTRIES};
use vcfr_isa::Image;
use vcfr_rewriter::RandomizedProgram;
use vcfr_sim::Mode;

/// How a run executes: unmodified, naive hardware ILR, or VCFR with a
/// de-randomization cache of a given size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModeSpec {
    /// The unmodified program (the paper's baseline).
    Base,
    /// Naive hardware ILR: scattered layout, no DRC (§III).
    Naive,
    /// VCFR with an on-chip DRC (§IV).
    Vcfr {
        /// DRC entry count (64–512 in the paper's sweep).
        drc_entries: usize,
    },
}

/// The DRC size assumed when a legacy spec says just `vcfr`.
pub const DEFAULT_DRC_ENTRIES: usize = 128;

impl ModeSpec {
    /// The paper's default VCFR configuration (128-entry DRC).
    pub fn vcfr_default() -> ModeSpec {
        ModeSpec::Vcfr { drc_entries: DEFAULT_DRC_ENTRIES }
    }

    /// The DRC entry count, `None` for modes without a DRC.
    pub fn drc_entries(&self) -> Option<usize> {
        match *self {
            ModeSpec::Vcfr { drc_entries } => Some(drc_entries),
            _ => None,
        }
    }

    /// The simulator [`Mode`] of this spec: `base` runs `image`, and
    /// the randomized modes run `layout` (`None` when there is none).
    pub fn sim_mode<'a>(
        self,
        image: &'a Image,
        layout: Option<&'a RandomizedProgram>,
    ) -> Option<Mode<'a>> {
        Some(match self {
            ModeSpec::Base => Mode::Baseline(image),
            ModeSpec::Naive => Mode::NaiveIlr(layout?),
            ModeSpec::Vcfr { drc_entries } => {
                Mode::Vcfr { program: layout?, drc: DrcConfig::direct_mapped(drc_entries) }
            }
        })
    }

    /// Parses the historical two-field wire form: a mode word plus a
    /// separate DRC size. Accepts both dialects (`base`/`baseline`,
    /// bare `vcfr`, `vcfr<entries>`); an explicit `vcfr<entries>`
    /// suffix wins over the separate field.
    pub fn from_wire(mode: &str, drc_entries: usize) -> Result<ModeSpec, ModeParseError> {
        match mode {
            "vcfr" => validated_vcfr(drc_entries),
            _ => mode.parse(),
        }
    }

    /// Ordering used by reports: base, naive, then VCFR from largest to
    /// smallest DRC (the historical column order).
    pub fn report_rank(&self) -> (u8, i64) {
        match *self {
            ModeSpec::Base => (0, 0),
            ModeSpec::Naive => (1, 0),
            ModeSpec::Vcfr { drc_entries } => (2, -(drc_entries as i64)),
        }
    }
}

impl fmt::Display for ModeSpec {
    /// The canonical matrix vocabulary: `base`, `naive`, `vcfr<entries>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ModeSpec::Base => write!(f, "base"),
            ModeSpec::Naive => write!(f, "naive"),
            ModeSpec::Vcfr { drc_entries } => write!(f, "vcfr{drc_entries}"),
        }
    }
}

/// A mode string outside the accepted vocabulary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModeParseError(String);

impl fmt::Display for ModeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mode must be base, naive, or vcfr<drc entries, a power of two in 1..={MAX_DRC_ENTRIES}> (got {:?})",
            self.0
        )
    }
}

impl std::error::Error for ModeParseError {}

fn validated_vcfr(drc_entries: usize) -> Result<ModeSpec, ModeParseError> {
    // Rejecting here keeps Drc::new's panic (and an oversized
    // allocation) unreachable from parsed input.
    match DrcConfig::direct_mapped(drc_entries).validate() {
        Ok(()) => Ok(ModeSpec::Vcfr { drc_entries }),
        Err(_) => Err(ModeParseError(format!("vcfr{drc_entries}"))),
    }
}

impl FromStr for ModeSpec {
    type Err = ModeParseError;

    fn from_str(s: &str) -> Result<ModeSpec, ModeParseError> {
        match s {
            // `baseline` is the historical service-wire alias.
            "base" | "baseline" => Ok(ModeSpec::Base),
            "naive" => Ok(ModeSpec::Naive),
            // Bare `vcfr` is the historical CLI/wire alias for the
            // paper's default DRC.
            "vcfr" => Ok(ModeSpec::vcfr_default()),
            _ => match s.strip_prefix("vcfr").and_then(|n| n.parse::<usize>().ok()) {
                Some(entries) => validated_vcfr(entries),
                None => Err(ModeParseError(s.to_string())),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_round_trip() {
        for (spec, name) in [
            (ModeSpec::Base, "base"),
            (ModeSpec::Naive, "naive"),
            (ModeSpec::Vcfr { drc_entries: 512 }, "vcfr512"),
            (ModeSpec::Vcfr { drc_entries: 64 }, "vcfr64"),
        ] {
            assert_eq!(spec.to_string(), name);
            assert_eq!(name.parse::<ModeSpec>().unwrap(), spec);
        }
    }

    #[test]
    fn historical_aliases_admit() {
        assert_eq!("baseline".parse::<ModeSpec>().unwrap(), ModeSpec::Base);
        assert_eq!("vcfr".parse::<ModeSpec>().unwrap(), ModeSpec::vcfr_default());
        assert_eq!(ModeSpec::from_wire("baseline", 64).unwrap(), ModeSpec::Base);
        assert_eq!(
            ModeSpec::from_wire("vcfr", 64).unwrap(),
            ModeSpec::Vcfr { drc_entries: 64 }
        );
        // An explicit suffix wins over the separate field.
        assert_eq!(
            ModeSpec::from_wire("vcfr512", 64).unwrap(),
            ModeSpec::Vcfr { drc_entries: 512 }
        );
    }

    #[test]
    fn bad_modes_are_rejected_with_the_vocabulary_named() {
        for bad in ["turbo", "vcfr0", "vcfr96", "vcfrx", ""] {
            let err = bad.parse::<ModeSpec>().unwrap_err().to_string();
            assert!(err.contains("base, naive, or vcfr"), "{err}");
        }
        assert!(ModeSpec::from_wire("vcfr", 0).is_err());
        assert!(ModeSpec::from_wire("vcfr", 96).is_err());
        assert!(ModeSpec::from_wire("vcfr", 1 << 40).is_err());
        assert!(format!("vcfr{}", MAX_DRC_ENTRIES * 2).parse::<ModeSpec>().is_err());
    }

    #[test]
    fn report_rank_orders_the_matrix_columns() {
        let mut modes = vec![
            ModeSpec::Vcfr { drc_entries: 64 },
            ModeSpec::Base,
            ModeSpec::Vcfr { drc_entries: 512 },
            ModeSpec::Naive,
            ModeSpec::Vcfr { drc_entries: 128 },
        ];
        modes.sort_by_key(|m| m.report_rank());
        let names: Vec<String> = modes.iter().map(|m| m.to_string()).collect();
        assert_eq!(names, ["base", "naive", "vcfr512", "vcfr128", "vcfr64"]);
    }
}
