//! The parameterized randomization surface: every knob the security
//! evaluation sweeps, in one validated struct.
//!
//! The paper evaluates a single fixed configuration (Fig 11 is one
//! datapoint). [`RandParams`] names the axes of the full
//! entropy/security frontier instead:
//!
//! * **`entropy_bits`** — the log2 floor of the randomized-region span.
//!   More bits spread the same instruction bytes over a larger region,
//!   so an attacker guessing addresses lands on mapped code less often.
//! * **`sparsity`** — the span multiplier over the text size (the
//!   rewriter's `spread` knob); the span is
//!   `max(text_len * sparsity, 1 << entropy_bits)` rounded up to a
//!   power of two.
//! * **`rerand_epoch`** — instructions between live table swaps
//!   (§V-C); `None` disables periodic re-randomization.
//! * **`drc`** — the de-randomization cache geometry (§IV-B).
//!
//! The struct is plain data (`Copy`); [`RandParams::validate`] is the
//! single place the accepted ranges live, and everything downstream
//! (`RandomizeConfig::from_params`, `SimConfig::builder().rand_params`)
//! trusts a validated value.

use crate::drc::{DrcConfig, DrcConfigError};
use std::fmt;

/// Smallest accepted [`RandParams::entropy_bits`]: one 4 KiB page, the
/// seed configuration's historical floor.
pub const MIN_ENTROPY_BITS: u32 = 12;

/// Largest accepted [`RandParams::entropy_bits`]: the randomized region
/// starts at `0x2000_0000` and must stay below the translation table at
/// `0x4000_0000`, so the span is capped at `2^29` bytes.
pub const MAX_ENTROPY_BITS: u32 = 29;

/// Largest accepted [`RandParams::sparsity`].
pub const MAX_SPARSITY: u32 = 1024;

/// The randomization parameter point a run is evaluated at.
///
/// `Default` reproduces the repository's historical behaviour exactly:
/// 12 entropy bits (the rewriter's 4 KiB span floor), sparsity 32 (the
/// rewriter's default `spread`), no re-randomization, and the paper's
/// 128-entry direct-mapped DRC.
///
/// # Example
///
/// ```
/// use vcfr_core::RandParams;
/// let p = RandParams { entropy_bits: 16, ..RandParams::default() };
/// p.validate().unwrap();
/// assert_eq!(p.span_bytes(3000), 1 << 17); // 3000 * 32 = 96000 -> 2^17
/// assert_eq!(p.span_bytes(10), 1 << 16); // floored by entropy_bits
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandParams {
    /// log2 floor of the randomized-region span in bytes.
    pub entropy_bits: u32,
    /// Span multiplier over the text size (the rewriter's `spread`).
    pub sparsity: u32,
    /// Instructions between live re-randomizations; `None` disables.
    pub rerand_epoch: Option<u64>,
    /// De-randomization cache geometry.
    pub drc: DrcConfig,
}

impl Default for RandParams {
    fn default() -> RandParams {
        RandParams {
            entropy_bits: MIN_ENTROPY_BITS,
            sparsity: 32,
            rerand_epoch: None,
            drc: DrcConfig::default(),
        }
    }
}

/// A [`RandParams`] field outside its accepted range.
///
/// Every variant's `Display` names the offending field, the accepted
/// range, and the rejected value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RandParamsError {
    /// `entropy_bits` outside `MIN_ENTROPY_BITS..=MAX_ENTROPY_BITS`.
    EntropyBits(u32),
    /// `sparsity` outside `1..=MAX_SPARSITY`.
    Sparsity(u32),
    /// `rerand_epoch` was `Some(0)`.
    RerandEpoch,
    /// `drc` failed [`DrcConfig::validate`].
    Drc(DrcConfigError),
}

impl fmt::Display for RandParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RandParamsError::EntropyBits(got) => write!(
                f,
                "entropy_bits must be in {MIN_ENTROPY_BITS}..={MAX_ENTROPY_BITS} \
                 (one page up to the table base) (got {got})"
            ),
            RandParamsError::Sparsity(got) => {
                write!(f, "sparsity must be in 1..={MAX_SPARSITY} (got {got})")
            }
            RandParamsError::RerandEpoch => write!(
                f,
                "rerand_epoch must be positive (use None to disable re-randomization) (got 0)"
            ),
            RandParamsError::Drc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RandParamsError {}

impl RandParams {
    /// Checks every field against its accepted range.
    pub fn validate(&self) -> Result<(), RandParamsError> {
        if !(MIN_ENTROPY_BITS..=MAX_ENTROPY_BITS).contains(&self.entropy_bits) {
            return Err(RandParamsError::EntropyBits(self.entropy_bits));
        }
        if self.sparsity == 0 || self.sparsity > MAX_SPARSITY {
            return Err(RandParamsError::Sparsity(self.sparsity));
        }
        if self.rerand_epoch == Some(0) {
            return Err(RandParamsError::RerandEpoch);
        }
        self.drc.validate().map_err(RandParamsError::Drc)
    }

    /// The randomized-region span (bytes) these params produce for a
    /// text segment of `text_len` bytes — the rewriter's span formula.
    pub fn span_bytes(&self, text_len: usize) -> u32 {
        (text_len as u32)
            .saturating_mul(self.sparsity)
            .max(1u32 << self.entropy_bits)
            .next_power_of_two()
    }

    /// A stable one-token description for manifest fingerprints and
    /// file names, e.g. `e16-s32-drc128w1`.
    pub fn describe(&self) -> String {
        let epoch = match self.rerand_epoch {
            Some(e) => format!("-r{e}"),
            None => String::new(),
        };
        format!(
            "e{}-s{}-drc{}w{}{}",
            self.entropy_bits, self.sparsity, self.drc.entries, self.drc.ways, epoch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_seed_behaviour() {
        let p = RandParams::default();
        p.validate().unwrap();
        // The historical rewriter formula: max(len * 32, 4096) rounded
        // up to a power of two.
        assert_eq!(p.span_bytes(3000), (3000u32 * 32).next_power_of_two());
        assert_eq!(p.span_bytes(10), 4096);
        assert_eq!(p.span_bytes(0), 4096);
    }

    #[test]
    fn validation_names_the_offending_field() {
        let cases: [(RandParams, &str); 6] = [
            (RandParams { entropy_bits: 11, ..Default::default() }, "entropy_bits"),
            (RandParams { entropy_bits: 30, ..Default::default() }, "entropy_bits"),
            (RandParams { sparsity: 0, ..Default::default() }, "sparsity"),
            (RandParams { rerand_epoch: Some(0), ..Default::default() }, "rerand_epoch"),
            (
                RandParams { drc: DrcConfig { entries: 0, ways: 1 }, ..Default::default() },
                "drc.entries",
            ),
            (
                RandParams { drc: DrcConfig { entries: 96, ways: 1 }, ..Default::default() },
                "power of two",
            ),
        ];
        for (p, needle) in cases {
            let msg = p.validate().unwrap_err().to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }

    #[test]
    fn set_associative_drc_is_accepted() {
        let p = RandParams {
            drc: DrcConfig { entries: 512, ways: 4 },
            ..Default::default()
        };
        p.validate().unwrap();
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(RandParams::default().describe(), "e12-s32-drc128w1");
        let p = RandParams { rerand_epoch: Some(25_000), ..Default::default() };
        assert_eq!(p.describe(), "e12-s32-drc128w1-r25000");
    }

    #[test]
    fn span_grows_with_entropy_bits() {
        let text = 3000;
        let mut prev = 0;
        for bits in [12, 16, 20, 24, 29] {
            let p = RandParams { entropy_bits: bits, sparsity: 1, ..Default::default() };
            p.validate().unwrap();
            let span = p.span_bytes(text);
            assert!(span >= prev, "span must be monotone in entropy_bits");
            assert!(span >= 1 << bits);
            prev = span;
        }
    }
}
