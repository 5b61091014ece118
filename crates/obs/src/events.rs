//! Structured progress events.
//!
//! A [`ProgressEvent`] is a point-in-time reading of a running
//! simulation, taken at a deterministic *instruction-count* boundary.
//! Every field is derived from simulated state only — there is no
//! wall-clock inside the event, so the stream a run emits is a pure
//! function of the run itself (same workload, same config ⇒ identical
//! events, telemetry on or off, resumed or straight through). Layers
//! that want wall-clock (the daemon, `vcfr top`) attach it *outside*
//! the event at emission time, the same way manifests strip their host
//! block before canonicalisation.

use crate::json::Json;

/// A progress reading at one deterministic instruction boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Ordinal of this event within the run (0-based).
    pub seq: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Simulated cycles elapsed so far.
    pub cycles: u64,
    /// Fetch-stall cycles so far.
    pub fetch_stall_cycles: u64,
    /// Load-stall cycles so far.
    pub load_stall_cycles: u64,
    /// Redirect-stall cycles so far.
    pub redirect_stall_cycles: u64,
    /// Re-randomization stall cycles so far.
    pub rerand_stall_cycles: u64,
    /// Superblock batches replayed on the fast path so far.
    pub sb_batches: u64,
    /// Instructions retired via superblock replay so far.
    pub sb_insts: u64,
    /// Faults injected so far.
    pub faults_injected: u64,
    /// Faults detected so far.
    pub faults_detected: u64,
    /// Re-randomization epochs completed so far.
    pub rerand_epochs: u64,
}

impl ProgressEvent {
    /// Fraction of retired instructions that went through superblock
    /// replay (`0.0` when nothing has retired yet).
    pub fn sb_hit_rate(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.sb_insts as f64 / self.instructions as f64
        }
    }

    /// Serialises as a flat object with stable keys.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.set("seq", Json::U64(self.seq));
        j.set("instructions", Json::U64(self.instructions));
        j.set("cycles", Json::U64(self.cycles));
        let mut stall = Json::obj();
        stall.set("fetch", Json::U64(self.fetch_stall_cycles));
        stall.set("load", Json::U64(self.load_stall_cycles));
        stall.set("redirect", Json::U64(self.redirect_stall_cycles));
        stall.set("rerand", Json::U64(self.rerand_stall_cycles));
        j.set("stall", stall);
        let mut sb = Json::obj();
        sb.set("batches", Json::U64(self.sb_batches));
        sb.set("insts", Json::U64(self.sb_insts));
        j.set("superblock", sb);
        let mut faults = Json::obj();
        faults.set("injected", Json::U64(self.faults_injected));
        faults.set("detected", Json::U64(self.faults_detected));
        j.set("faults", faults);
        j.set("rerand_epochs", Json::U64(self.rerand_epochs));
        j
    }

    /// Parses the [`ProgressEvent::to_json`] shape back; missing keys
    /// read as zero so older emitters stay readable.
    pub fn from_json(j: &Json) -> ProgressEvent {
        let u = |path: &str| j.get_path(path).and_then(Json::as_u64).unwrap_or(0);
        ProgressEvent {
            seq: u("seq"),
            instructions: u("instructions"),
            cycles: u("cycles"),
            fetch_stall_cycles: u("stall.fetch"),
            load_stall_cycles: u("stall.load"),
            redirect_stall_cycles: u("stall.redirect"),
            rerand_stall_cycles: u("stall.rerand"),
            sb_batches: u("superblock.batches"),
            sb_insts: u("superblock.insts"),
            faults_injected: u("faults.injected"),
            faults_detected: u("faults.detected"),
            rerand_epochs: u("rerand_epochs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trips() {
        let e = ProgressEvent {
            seq: 3,
            instructions: 40_000,
            cycles: 61_234,
            fetch_stall_cycles: 100,
            load_stall_cycles: 200,
            redirect_stall_cycles: 7,
            rerand_stall_cycles: 9,
            sb_batches: 12,
            sb_insts: 30_000,
            faults_injected: 2,
            faults_detected: 1,
            rerand_epochs: 4,
        };
        assert_eq!(ProgressEvent::from_json(&e.to_json()), e);
        assert!((e.sb_hit_rate() - 0.75).abs() < 1e-12);
    }
}
