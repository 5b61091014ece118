//! The versioned checkpoint container.
//!
//! A checkpoint is the deterministic byte serialization of a live
//! [`crate::Session`], wrapped in a self-validating envelope:
//!
//! ```text
//! magic "VCFRCKP1"
//! u32   format version (CHECKPOINT_VERSION)
//! u64   context fingerprint (FNV-1a 64 of the run's configuration)
//! bytes payload — the session state, itself a "VCFRSES1" wire stream
//! u64   FNV-1a 64 hash of the payload bytes
//! ```
//!
//! **Version policy:** the payload layout is frozen per version. Any
//! change to what the engine saves (a new counter, a reordered field)
//! must bump [`CHECKPOINT_VERSION`]; readers reject other versions
//! outright rather than guessing. The context fingerprint ties a
//! checkpoint to the exact configuration, workload and fault plan it was
//! taken under — resuming it against anything else is refused, because a
//! resumed run must be bit-identical to an uninterrupted one.

use std::fmt;
use vcfr_isa::wire::{Reader, WireError, Writer};

/// Current checkpoint format version.
///
/// Version 2 appended `contention_stall_cycles` to the [`crate::SimStats`]
/// wire form, extended the hierarchy stream with the shared-port state,
/// and added the engine-kind-specific session payloads (OoO, multicore).
/// Version 3 serialises the VCFR mediation unit as one block (both
/// cores, stack-slot state included) and moves the fault counters and
/// records from the in-order engine into the session.
/// Version 4 sizes the payload by live state: each cache writes only its
/// valid lines (index, flags, tag, LRU stamp), and each machine only the
/// memory pages that differ from what its image loads; restore loads the
/// image, then overlays those pages.
/// Version 5 writes a re-randomized epoch once, as its layout's pairs in
/// original-address order; restore rebuilds the epoch's tables from them
/// with the program's fail-over set and table base.
/// Version 6 drops what the rest of the payload determines: the fault
/// cursor and tally, both folds of the fault records, and each marked
/// stack slot's randomized value, the live epoch's translation of its
/// original.
pub const CHECKPOINT_VERSION: u32 = 6;

/// Magic prefix of the checkpoint envelope.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VCFRCKP1";

/// Magic prefix of the session payload inside the envelope.
pub(crate) const PAYLOAD_MAGIC: [u8; 8] = *b"VCFRSES1";

/// Why a checkpoint was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream is truncated or structurally malformed.
    Wire(WireError),
    /// The checkpoint was written by a different format version.
    Version {
        /// The version found in the envelope.
        found: u32,
    },
    /// The checkpoint belongs to a different run configuration (config,
    /// workload or fault plan differ from the session resuming it).
    ContextMismatch,
    /// The payload hash does not match — the bytes were corrupted.
    Corrupt,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Wire(e) => write!(f, "malformed checkpoint: {e}"),
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads version {CHECKPOINT_VERSION})"
            ),
            CheckpointError::ContextMismatch => {
                write!(f, "checkpoint belongs to a different run configuration")
            }
            CheckpointError::Corrupt => write!(f, "checkpoint payload hash mismatch (corrupt)"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        CheckpointError::Wire(e)
    }
}

/// FNV-1a 64 over `bytes` (the same function `vcfr-obs` uses for
/// manifest fingerprints, here over raw bytes).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// FNV-1a 64 over a textual run description (config + workload + fault
/// plan), producing the context fingerprint stored in the envelope.
pub(crate) fn context_fingerprint(description: &str) -> u64 {
    fnv64(description.as_bytes())
}

/// Where the payload length sits: after the magic, version and context.
const LEN_AT: usize = 8 + 4 + 8;
/// Where the payload starts: after its `u64` length.
const PAYLOAD_AT: usize = LEN_AT + 8;

/// Starts a checkpoint under `context` in one buffer: the envelope
/// header, then the payload's own magic. The caller appends the session
/// state and hands the writer to [`seal`].
pub(crate) fn begin(context: u64) -> Writer {
    let mut w = Writer::with_magic(CHECKPOINT_MAGIC);
    w.u32(CHECKPOINT_VERSION);
    w.u64(context);
    w.u64(0); // the payload length, filled in by `seal`
    for b in PAYLOAD_MAGIC {
        w.u8(b);
    }
    w
}

/// Finishes, in place, a checkpoint [`begin`] started: fills in the
/// payload length and appends the payload's hash. The payload is never
/// copied.
pub(crate) fn seal(w: Writer) -> Vec<u8> {
    let mut buf = w.into_bytes();
    let len = (buf.len() - PAYLOAD_AT) as u64;
    buf[LEN_AT..PAYLOAD_AT].copy_from_slice(&len.to_le_bytes());
    let hash = fnv64(&buf[PAYLOAD_AT..]);
    buf.extend_from_slice(&hash.to_le_bytes());
    buf
}

/// Validates the envelope and returns the payload it holds.
///
/// # Errors
///
/// [`CheckpointError::Wire`] on a truncated/foreign stream,
/// [`CheckpointError::Version`] on a version mismatch,
/// [`CheckpointError::ContextMismatch`] when the fingerprint differs
/// from `context`, and [`CheckpointError::Corrupt`] when the payload
/// hash does not check out.
pub(crate) fn open(buf: &[u8], context: u64) -> Result<&[u8], CheckpointError> {
    let mut r = Reader::with_magic(buf, CHECKPOINT_MAGIC)?;
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let found_context = r.u64()?;
    let payload = r.bytes()?;
    let hash = r.u64()?;
    if !r.is_exhausted() {
        return Err(CheckpointError::Wire(WireError::Truncated));
    }
    if hash != fnv64(payload) {
        return Err(CheckpointError::Corrupt);
    }
    if found_context != context {
        return Err(CheckpointError::ContextMismatch);
    }
    Ok(payload)
}

/// Whether `buf` is one whole checkpoint envelope, of any version and
/// context: the magic, the payload length and the payload hash check
/// out. A reader that keeps more than one snapshot of a run uses it to
/// pass over one a killed writer left torn.
pub fn checkpoint_is_whole(buf: &[u8]) -> bool {
    let whole = || -> Result<bool, WireError> {
        let mut r = Reader::with_magic(buf, CHECKPOINT_MAGIC)?;
        r.u32()?;
        r.u64()?;
        let payload = r.bytes()?;
        let hash = r.u64()?;
        Ok(r.is_exhausted() && hash == fnv64(payload))
    };
    whole().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint under `context` whose payload is the payload magic
    /// followed by `state`.
    fn sealed(context: u64, state: &[u8]) -> Vec<u8> {
        let mut w = begin(context);
        for &b in state {
            w.u8(b);
        }
        seal(w)
    }

    #[test]
    fn seal_open_roundtrip() {
        let payload = [&PAYLOAD_MAGIC[..], b"session state bytes"].concat();
        assert_eq!(open(&sealed(42, b"session state bytes"), 42).unwrap(), payload);
    }

    #[test]
    fn sealing_in_place_writes_the_documented_envelope() {
        let payload = [&PAYLOAD_MAGIC[..], b"state"].concat();
        let mut w = Writer::with_magic(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u64(9);
        w.bytes(&payload);
        w.u64(fnv64(&payload));
        assert_eq!(sealed(9, b"state"), w.into_bytes());
    }

    #[test]
    fn wrong_context_is_rejected() {
        let sealed = sealed(42, b"x");
        assert_eq!(open(&sealed, 43), Err(CheckpointError::ContextMismatch));
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let mut sealed = sealed(7, b"payload-bytes");
        // Flip a bit inside the payload region (past magic+version+context
        // + length prefix).
        sealed[PAYLOAD_AT + 2] ^= 0x40;
        assert_eq!(open(&sealed, 7), Err(CheckpointError::Corrupt));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut w = Writer::with_magic(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION + 1);
        w.u64(0);
        w.bytes(b"");
        w.u64(fnv64(b""));
        let buf = w.into_bytes();
        assert_eq!(
            open(&buf, 0),
            Err(CheckpointError::Version { found: CHECKPOINT_VERSION + 1 })
        );
    }

    #[test]
    fn truncation_and_foreign_magic_are_wire_errors() {
        let sealed = sealed(1, b"abc");
        assert!(matches!(open(&sealed[..10], 1), Err(CheckpointError::Wire(_))));
        assert!(matches!(open(b"NOTMAGIC", 1), Err(CheckpointError::Wire(_))));
    }

    #[test]
    fn only_a_torn_or_altered_envelope_is_not_whole() {
        let whole = sealed(3, b"state bytes");
        assert!(checkpoint_is_whole(&whole));
        // Any version and context: those are for `open` to judge.
        let mut other = whole.clone();
        other[8..12].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        other[12] ^= 0xff;
        assert!(checkpoint_is_whole(&other));
        // A writer killed part way, a stale tail, a flipped payload bit.
        for cut in [0, 10, PAYLOAD_AT + 3, whole.len() - 1] {
            assert!(!checkpoint_is_whole(&whole[..cut]), "cut at {cut}");
        }
        assert!(!checkpoint_is_whole(&[&whole[..], b"tail"].concat()));
        let mut flipped = whole;
        flipped[PAYLOAD_AT + 2] ^= 0x40;
        assert!(!checkpoint_is_whole(&flipped));
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(context_fingerprint("abc"), context_fingerprint("abc"));
        assert_ne!(context_fingerprint("abc"), context_fingerprint("abd"));
    }
}
