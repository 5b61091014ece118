//! The JSON-lines wire protocol and the job vocabulary shared by the
//! daemon and the client.
//!
//! Every request and every response is one JSON object per line (the
//! deterministic `vcfr-obs` emitter is the codec — no new serialization
//! machinery). Requests carry an `"op"` discriminant; responses carry
//! `"ok"` (or, on the `watch` stream, an `"event"` discriminant).

use std::io::Write;
use vcfr_obs::{Json, JsonError};
use vcfr_sim::VcfrError;

/// File (inside the service state directory) holding the daemon's bound
/// `host:port`, written on startup and removed on graceful shutdown.
pub const ENDPOINT_FILE: &str = "endpoint";

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
