//! Deterministic fault injection for the dependability campaign (§V).
//!
//! The paper's title promises *dependability* as well as security: the
//! mediation layer (DRC + in-memory translation tables + stack bitmap)
//! is exactly the hardware that notices when control-flow state is
//! corrupted. This module models seeded, scheduled transient and sticky
//! bit flips in that state and classifies how each one resolves:
//!
//! * **parity scrub** — DRC entries and table slots carry parity; a flip
//!   in a valid entry is detected on the next probe and the entry
//!   refills from memory (or, for a stuck table slot, triggers an
//!   emergency re-randomization);
//! * **translation fault** — a flipped randomized PC (or a clobbered
//!   stack-bitmap mark) almost never lands on another valid randomized
//!   address, so the de-randomization rejects it (the same anti-ROP
//!   check that stops an attacker's absolute address);
//! * **visibility fault** — a flipped un-randomized PC that wanders into
//!   a table page trips the TLB page-visibility bit;
//! * **decode failure** — a flipped un-randomized PC outside the text
//!   segment fails to fetch/decode;
//! * **silent** — the flip produces state that passes every check, the
//!   dangerous residue the campaign quantifies;
//! * **masked** — the flip lands in dead state (an invalid DRC entry, an
//!   idle bitmap) and has no architectural effect.
//!
//! Injection is *counterfactual*: outcomes are classified against the
//! live structures at the injection point, recovery costs are charged to
//! the pipeline, but the golden architectural run is never corrupted —
//! so a faulted run stays deterministic and its timing stays auditable.

use std::fmt;
use vcfr_isa::wire::{Counters, Reader, WireError, Writer};

/// Where an injected bit flip lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A DRC lookup-buffer entry.
    DrcEntry,
    /// An in-memory translation-table slot.
    TableSlot,
    /// The randomized program counter (RPC).
    Rpc,
    /// The un-randomized program counter (UPC, the fetch address).
    Upc,
    /// A stack-bitmap word (marked-slot state).
    StackBitmap,
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultTarget::DrcEntry => "drc-entry",
            FaultTarget::TableSlot => "table-slot",
            FaultTarget::Rpc => "rpc",
            FaultTarget::Upc => "upc",
            FaultTarget::StackBitmap => "stack-bitmap",
        })
    }
}

/// Whether the flip persists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPersistence {
    /// A one-shot soft error.
    Transient,
    /// A stuck-at fault that keeps re-asserting.
    Sticky,
}

/// What the engine does with a *sticky* fault in the in-memory tables —
/// the one corruption that cannot be scrubbed by a refill.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContainmentPolicy {
    /// Re-randomize: rebuild the tables at a fresh layout, paying the
    /// epoch-swap cycle cost (the paper's §V-C mechanism doubling as a
    /// repair action).
    #[default]
    Recover,
    /// Halt the machine with a typed [`crate::SimError::Fault`].
    Halt,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Committed-instruction count at which the flip is injected.
    pub at_inst: u64,
    /// Where it lands.
    pub target: FaultTarget,
    /// Which bit flips (0..32 for address-valued targets).
    pub bit: u32,
    /// Target-specific selector: DRC entry index, table-slot index, or
    /// bitmap word — reduced modulo the structure's size at injection.
    pub lane: u64,
    /// One-shot or stuck-at.
    pub persistence: FaultPersistence,
}

/// A seeded campaign: a schedule of faults plus the containment policy.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults ordered by `at_inst`.
    pub faults: Vec<ScheduledFault>,
    /// What to do with sticky table corruption.
    pub policy: ContainmentPolicy,
}

/// The splitmix64 PRNG step — small, seedable, and good enough to spread
/// a campaign across targets and injection points.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan (no faults injected).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// Generates a deterministic plan of `count` faults spread uniformly
    /// over the first `window` instructions. The same `(seed, count,
    /// window)` always yields the same plan, independent of host or
    /// thread count.
    pub fn generate(seed: u64, count: usize, window: u64) -> FaultPlan {
        let mut state = seed ^ 0xd5f1_7054_9c39_a1b7;
        let window = window.max(1);
        let mut faults: Vec<ScheduledFault> = (0..count)
            .map(|_| {
                let r = splitmix64(&mut state);
                let target = match r % 5 {
                    0 => FaultTarget::DrcEntry,
                    1 => FaultTarget::TableSlot,
                    2 => FaultTarget::Rpc,
                    3 => FaultTarget::Upc,
                    _ => FaultTarget::StackBitmap,
                };
                let persistence = if splitmix64(&mut state).is_multiple_of(4) {
                    FaultPersistence::Sticky
                } else {
                    FaultPersistence::Transient
                };
                ScheduledFault {
                    at_inst: 1 + splitmix64(&mut state) % window,
                    target,
                    bit: (splitmix64(&mut state) % 32) as u32,
                    lane: splitmix64(&mut state),
                    persistence,
                }
            })
            .collect();
        faults.sort_by_key(|f| f.at_inst);
        FaultPlan { faults, policy: ContainmentPolicy::Recover }
    }
}

/// How one injected fault resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Detected by entry parity; the structure scrubbed itself and the
    /// state refills from memory.
    DetectedParityScrub,
    /// Detected because the corrupted randomized address failed
    /// de-randomization (prohibited or unmapped).
    DetectedTranslationFault,
    /// Detected by the TLB page-visibility bit.
    DetectedVisibilityFault,
    /// Detected because the corrupted fetch address left the text
    /// segment and failed to decode.
    DetectedDecodeFailure,
    /// Undetected and architecturally consequential: the flip produced
    /// state that passes every check.
    Silent,
    /// Landed in dead state; no architectural effect.
    Masked,
    /// A sticky table fault contained by the policy (emergency
    /// re-randomization or halt).
    Contained,
}

impl FaultOutcome {
    /// Whether the mediation layer noticed the fault.
    pub fn detected(&self) -> bool {
        matches!(
            self,
            FaultOutcome::DetectedParityScrub
                | FaultOutcome::DetectedTranslationFault
                | FaultOutcome::DetectedVisibilityFault
                | FaultOutcome::DetectedDecodeFailure
                | FaultOutcome::Contained
        )
    }
}

/// One injected fault and its resolution (the campaign's raw rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Instruction count at injection.
    pub at_inst: u64,
    /// Where it landed.
    pub target: FaultTarget,
    /// One-shot or stuck-at.
    pub persistence: FaultPersistence,
    /// How it resolved.
    pub outcome: FaultOutcome,
}

/// Aggregate counters of one faulted run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults injected.
    pub injected: u64,
    /// Detected by parity scrub (DRC entries, table slots).
    pub detected_parity: u64,
    /// Detected as de-randomization faults.
    pub detected_translation: u64,
    /// Detected by the page-visibility bit.
    pub detected_visibility: u64,
    /// Detected as decode failures outside the text segment.
    pub detected_decode: u64,
    /// Sticky faults contained (emergency re-randomization or halt).
    pub contained: u64,
    /// Undetected, architecturally consequential flips.
    pub silent: u64,
    /// Flips landing in dead state.
    pub masked: u64,
    /// Emergency re-randomizations triggered by sticky table faults:
    /// every recorded containment is one, because a halt ends the run
    /// before its fault is recorded.
    pub emergency_rerands: u64,
}

impl FaultStats {
    /// Faults the mediation layer noticed.
    pub fn detected(&self) -> u64 {
        self.detected_parity
            + self.detected_translation
            + self.detected_visibility
            + self.detected_decode
            + self.contained
    }

    /// Detection coverage over *consequential* faults (masked flips are
    /// excluded: they never mattered). 1.0 on an idle run.
    pub fn coverage(&self) -> f64 {
        let consequential = self.detected() + self.silent;
        if consequential == 0 {
            1.0
        } else {
            self.detected() as f64 / consequential as f64
        }
    }

    /// Folds one record into the counters.
    pub fn record(&mut self, outcome: FaultOutcome) {
        self.injected += 1;
        match outcome {
            FaultOutcome::DetectedParityScrub => self.detected_parity += 1,
            FaultOutcome::DetectedTranslationFault => self.detected_translation += 1,
            FaultOutcome::DetectedVisibilityFault => self.detected_visibility += 1,
            FaultOutcome::DetectedDecodeFailure => self.detected_decode += 1,
            FaultOutcome::Contained => {
                self.contained += 1;
                self.emergency_rerands += 1;
            }
            FaultOutcome::Silent => self.silent += 1,
            FaultOutcome::Masked => self.masked += 1,
        }
    }
}

impl Counters for FaultStats {
    fn visit(&mut self, f: &mut dyn FnMut(&'static str, &mut u64)) {
        f("injected", &mut self.injected);
        f("detected.parity", &mut self.detected_parity);
        f("detected.translation", &mut self.detected_translation);
        f("detected.visibility", &mut self.detected_visibility);
        f("detected.decode", &mut self.detected_decode);
        f("contained", &mut self.contained);
        f("silent", &mut self.silent);
        f("masked", &mut self.masked);
        f("emergency_rerands", &mut self.emergency_rerands);
    }
}

impl FaultRecord {
    /// Serialises the record (checkpoint support).
    pub(crate) fn save(&self, w: &mut Writer) {
        w.u64(self.at_inst);
        w.u8(target_tag(self.target));
        w.u8(persistence_tag(self.persistence));
        w.u8(outcome_tag(self.outcome));
    }

    /// Rebuilds [`FaultRecord::save`] output.
    pub(crate) fn restore(r: &mut Reader<'_>) -> Result<FaultRecord, WireError> {
        Ok(FaultRecord {
            at_inst: r.u64()?,
            target: target_from_tag(r.u8()?)?,
            persistence: persistence_from_tag(r.u8()?)?,
            outcome: outcome_from_tag(r.u8()?)?,
        })
    }
}

pub(crate) fn target_tag(t: FaultTarget) -> u8 {
    match t {
        FaultTarget::DrcEntry => 0,
        FaultTarget::TableSlot => 1,
        FaultTarget::Rpc => 2,
        FaultTarget::Upc => 3,
        FaultTarget::StackBitmap => 4,
    }
}

pub(crate) fn target_from_tag(tag: u8) -> Result<FaultTarget, WireError> {
    Ok(match tag {
        0 => FaultTarget::DrcEntry,
        1 => FaultTarget::TableSlot,
        2 => FaultTarget::Rpc,
        3 => FaultTarget::Upc,
        4 => FaultTarget::StackBitmap,
        tag => return Err(WireError::BadTag { tag }),
    })
}

fn persistence_tag(p: FaultPersistence) -> u8 {
    match p {
        FaultPersistence::Transient => 0,
        FaultPersistence::Sticky => 1,
    }
}

fn persistence_from_tag(tag: u8) -> Result<FaultPersistence, WireError> {
    Ok(match tag {
        0 => FaultPersistence::Transient,
        1 => FaultPersistence::Sticky,
        tag => return Err(WireError::BadTag { tag }),
    })
}

fn outcome_tag(o: FaultOutcome) -> u8 {
    match o {
        FaultOutcome::DetectedParityScrub => 0,
        FaultOutcome::DetectedTranslationFault => 1,
        FaultOutcome::DetectedVisibilityFault => 2,
        FaultOutcome::DetectedDecodeFailure => 3,
        FaultOutcome::Silent => 4,
        FaultOutcome::Masked => 5,
        FaultOutcome::Contained => 6,
    }
}

fn outcome_from_tag(tag: u8) -> Result<FaultOutcome, WireError> {
    Ok(match tag {
        0 => FaultOutcome::DetectedParityScrub,
        1 => FaultOutcome::DetectedTranslationFault,
        2 => FaultOutcome::DetectedVisibilityFault,
        3 => FaultOutcome::DetectedDecodeFailure,
        4 => FaultOutcome::Silent,
        5 => FaultOutcome::Masked,
        6 => FaultOutcome::Contained,
        tag => return Err(WireError::BadTag { tag }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_sorted() {
        let a = FaultPlan::generate(2015, 64, 100_000);
        let b = FaultPlan::generate(2015, 64, 100_000);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 64);
        assert!(a.faults.windows(2).all(|w| w[0].at_inst <= w[1].at_inst));
        assert!(a.faults.iter().all(|f| f.at_inst >= 1 && f.at_inst <= 100_000));
        // A different seed reshuffles the schedule.
        let c = FaultPlan::generate(2016, 64, 100_000);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_plans_cover_every_target() {
        let p = FaultPlan::generate(7, 200, 1_000);
        for t in [
            FaultTarget::DrcEntry,
            FaultTarget::TableSlot,
            FaultTarget::Rpc,
            FaultTarget::Upc,
            FaultTarget::StackBitmap,
        ] {
            assert!(p.faults.iter().any(|f| f.target == t), "missing {t}");
        }
        assert!(p.faults.iter().any(|f| f.persistence == FaultPersistence::Sticky));
        assert!(p.faults.iter().any(|f| f.persistence == FaultPersistence::Transient));
    }

    #[test]
    fn stats_fold_and_coverage() {
        let mut s = FaultStats::default();
        s.record(FaultOutcome::DetectedParityScrub);
        s.record(FaultOutcome::DetectedTranslationFault);
        s.record(FaultOutcome::Silent);
        s.record(FaultOutcome::Masked);
        assert_eq!(s.injected, 4);
        assert_eq!(s.detected(), 2);
        assert!((s.coverage() - 2.0 / 3.0).abs() < 1e-12, "masked flips are not consequential");
        assert_eq!(FaultStats::default().coverage(), 1.0);
    }

    #[test]
    fn outcome_detected_predicate() {
        assert!(FaultOutcome::DetectedParityScrub.detected());
        assert!(FaultOutcome::Contained.detected());
        assert!(!FaultOutcome::Silent.detected());
        assert!(!FaultOutcome::Masked.detected());
    }

    #[test]
    fn window_of_zero_clamps() {
        let p = FaultPlan::generate(1, 8, 0);
        assert!(p.faults.iter().all(|f| f.at_inst == 1));
    }
}
